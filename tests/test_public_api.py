"""The top-level public names.

``entkit/__init__.py`` re-exports each library module's ``__all__``, so
this list is where a name dropped from a module, or one exported twice,
shows up.  The walks at the end call every public function and class
with an argument of the wrong kind in each required place, and with
hostile values (huge ints, non-finite floats, a 100000-character string,
...) at every parameter.
"""

import inspect
import numbers

import numpy as np

import entkit

#: every public name of the library, plus the package version
PUBLIC_NAMES = {
    "__version__",
    # states
    "ValidationError",
    "NumericError",
    "StateVector",
    "make_state",
    "make_state_raw",
    "bell_state",
    "ghz_state",
    "w_state",
    "inner_product",
    "fidelity",
    "pauli",
    "BELL_KINDS",
    # stateio
    "LoadedState",
    "read_state",
    "write_state",
    "state_to_json",
    "state_from_json",
    # schmidt
    "SchmidtDecomposition",
    "schmidt_decompose",
    "is_entangled_bipartite",
    "is_product_multipartite",
    "bipartite_determinant",
    "det_squared",
    # hyperdet
    "ThreeQubitClass",
    "cayley_hyperdeterminant",
    "classify_three_qubit",
    # qutrit
    "NormalFormCoefficients",
    "QutritInvariantReport",
    "PhiFamilyResult",
    "build_normal_form_state",
    "fundamental_invariants",
    "hyperdeterminant_333",
    "phi_family",
    # majorana
    "NotSymmetricError",
    "DickeExpansion",
    "SpherePoint",
    "MajoranaConstellation",
    "SymmetricClassification",
    "symmetrize_check",
    "dicke_state",
    "majorana_polynomial",
    "find_stars",
    "binary_discriminant",
    "coherent_state",
    "classify_symmetric",
    # sampling
    "InvarianceReport",
    "trial_rng",
    "random_su2",
    "haar_unitary",
    "random_sud",
    "LocalUnitary",
    "apply_local_unitary",
    "named_invariant",
    "invariance_suite",
    # classify
    "DefinitionCheck",
    "ClassificationReport",
    "classify_state",
}


def test_all_lists_every_public_name_once():
    assert len(PUBLIC_NAMES) == 58
    assert len(entkit.__all__) == len(set(entkit.__all__))
    assert set(entkit.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in entkit.__all__:
        assert getattr(entkit, name) is not None, name
    namespace = {}
    exec("from entkit import *", namespace)
    assert PUBLIC_NAMES <= set(namespace)


#: public names the wrong-kind walk leaves out: constants, exception
#: classes, an Enum, and plain result records, which hold what a function
#: returned and check nothing
NOT_WALKED = {
    "__version__",
    "BELL_KINDS",
    "ValidationError",
    "NumericError",
    "NotSymmetricError",
    "ThreeQubitClass",
    "ClassificationReport",
    "SchmidtDecomposition",
    "LoadedState",
    "PhiFamilyResult",
}


def valid_calls(files):
    """Public name -> keyword arguments of one call that succeeds.

    ``files`` is an empty directory for the state files.
    """
    ek = entkit
    bell, ghz = ek.bell_state("phi+"), ek.ghz_state(3)
    coeffs = ek.NormalFormCoefficients(2, 1, 1)
    expansion = ek.coherent_state((0.3, 0.2), 2)
    constellation = ek.find_stars(ek.majorana_polynomial(expansion), 2)
    flip = ek.LocalUnitary((ek.pauli("X"), ek.pauli("I")))
    saved = files / "bell.json"
    ek.write_state(bell, saved)
    return {
        # states
        "StateVector": dict(dims=(2,), amplitudes=np.array([1, 0], dtype=complex)),
        "make_state": dict(dims=[2], entries={(0,): 1.0}),
        "make_state_raw": dict(dims=[2], entries={(0,): 1.0}),
        "bell_state": dict(which="phi+"),
        "ghz_state": dict(n_parties=3),
        "w_state": dict(),
        "inner_product": dict(a=bell, b=bell),
        "fidelity": dict(a=bell, b=bell),
        "pauli": dict(name="X"),
        # stateio
        "read_state": dict(path=str(saved)),
        "write_state": dict(state=bell, path=str(files / "out.json")),
        "state_to_json": dict(state=bell),
        "state_from_json": dict(doc=ek.state_to_json(bell)),
        # schmidt
        "schmidt_decompose": dict(state=bell, cut=(0,)),
        "is_entangled_bipartite": dict(state=bell, cut=(0,)),
        "is_product_multipartite": dict(state=bell),
        "bipartite_determinant": dict(state=bell),
        "det_squared": dict(state=bell),
        # hyperdet
        "cayley_hyperdeterminant": dict(state=ghz),
        "classify_three_qubit": dict(state=ghz),
        # qutrit
        "NormalFormCoefficients": dict(a1=2, a2=1, a3=1),
        "QutritInvariantReport": dict(i6=0j, i9=0j, i12=0j, j12=0j, delta=0j),
        "build_normal_form_state": dict(coeffs=coeffs),
        "fundamental_invariants": dict(coeffs=coeffs),
        "hyperdeterminant_333": dict(report=ek.fundamental_invariants(coeffs)),
        "phi_family": dict(alpha=1, beta=0.5),
        # majorana
        "DickeExpansion": dict(n=1, coeffs=np.array([1, 0], dtype=complex)),
        "SpherePoint": dict(theta=0.3, phi=0.2),
        "MajoranaConstellation": dict(
            stars=constellation.stars, discriminant=constellation.discriminant
        ),
        "SymmetricClassification": dict(constellation=constellation),
        "symmetrize_check": dict(state=bell),
        "dicke_state": dict(expansion=expansion),
        "majorana_polynomial": dict(expansion=expansion),
        "find_stars": dict(poly=[1.0, 0.0, 1.0], n=2),
        "binary_discriminant": dict(poly=[1.0, 0.0, 1.0], n=2),
        "coherent_state": dict(direction=(0.3, 0.2), n=2),
        "classify_symmetric": dict(state=bell),
        # sampling
        "InvarianceReport": dict(
            invariant_name="norm", trials=1, max_abs_drift=0.0, mean_abs_drift=0.0, seed=0
        ),
        "trial_rng": dict(seed=0),
        "random_su2": dict(rng=ek.trial_rng(0)),
        "haar_unitary": dict(d=2, rng=ek.trial_rng(0)),
        "random_sud": dict(d=2, rng=ek.trial_rng(0)),
        "LocalUnitary": dict(factors=(ek.pauli("X"), ek.pauli("I"))),
        "apply_local_unitary": dict(state=bell, u=flip),
        "named_invariant": dict(invariant="norm"),
        "invariance_suite": dict(state=bell, invariant="norm", trials=2),
        # classify
        "DefinitionCheck": dict(definition=1, verdict="product", evidence={"ranks": [1]}),
        "classify_state": dict(state=bell),
    }


def wrong_kinds(valid):
    """None and a bare object; "x" unless a string is expected, 5 unless a number is.

    A path of 5 reaches ``open`` as file descriptor 5 unless the path is
    checked first, so a lapse there can close a descriptor of the test run.
    """
    bad = [None, object()]
    if not isinstance(valid, str):
        bad.append("x")
    if not isinstance(valid, numbers.Number):
        bad.append(5)
    return bad


def test_required_arguments_reject_wrong_kinds(tmp_path):
    calls = valid_calls(tmp_path)
    assert not set(calls) & NOT_WALKED
    # a new public name fails here until it is walked or excluded
    assert set(calls) | NOT_WALKED == set(entkit.__all__)
    failures = []
    for name, kwargs in calls.items():
        fn = getattr(entkit, name)
        fn(**kwargs)
        for p in inspect.signature(fn).parameters.values():
            if p.default is not p.empty or p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD):
                continue
            for bad in wrong_kinds(kwargs[p.name]):
                try:
                    fn(**{**kwargs, p.name: bad})
                except entkit.ValidationError:
                    continue
                except Exception as exc:
                    failures.append(f"{name}({p.name}={bad!r}): {type(exc).__name__}: {exc}")
                else:
                    failures.append(f"{name}({p.name}={bad!r}) returned")
    assert not failures, "\n".join(failures)


#: ints that no message may print whole: past Python's 4300-digit
#: integer-to-string limit, and one past every size and seed bound
HOSTILE_INTS = {
    "10**5000": 10**5000,
    "-10**5000": -(10**5000),
    "[10**5000]": [10**5000],
    "(10**5000, 1)": (10**5000, 1),
    "2**64": 2**64,
}


def walk_hostile(files, values: dict, bound: int) -> list:
    """Every parameter, required or not, of every walked name, given each of ``values``.

    Returns a line for each call that raises anything but
    ``ValidationError`` or ``NumericError``, or one of those with a
    message longer than ``bound`` characters.
    """
    failures = []
    for name, kwargs in valid_calls(files).items():
        fn = getattr(entkit, name)
        for p in inspect.signature(fn).parameters.values():
            if p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD):
                continue
            for label, bad in values.items():
                try:
                    fn(**{**kwargs, p.name: bad})
                except (entkit.ValidationError, entkit.NumericError) as exc:
                    if len(str(exc)) > bound:
                        failures.append(f"{name}({p.name}={label}): {len(str(exc))} characters")
                except Exception as exc:
                    failures.append(f"{name}({p.name}={label}): {type(exc).__name__}")
    return failures


def test_hostile_ints_at_every_parameter(tmp_path):
    """Each call returns, or raises with a message of at most 300 characters."""
    failures = walk_hostile(tmp_path, HOSTILE_INTS, 300)
    assert not failures, "\n".join(failures)


#: other values no parameter may turn into a raw exception or an unbounded
#: message: non-finite and extreme floats, the wrong kinds, and a string
#: longer than any message may be (as a path it is past every OS's name limit)
HOSTILE_VALUES = {
    "nan": float("nan"),
    "inf": float("inf"),
    "-inf": float("-inf"),
    "np.float64(nan)": np.float64("nan"),
    'b"x"': b"x",
    "1+1j": 1 + 1j,
    "True": True,
    "[]": [],
    "-1": -1,
    "1e308": 1e308,
    "'x' * 100000": "x" * 100000,
}


def test_hostile_values_at_every_parameter(tmp_path, monkeypatch):
    """Each call returns, or raises with a message of at most 600 characters.

    The working directory is the temporary one: ``write_state`` given
    ``b"x"`` writes a file named x there.
    """
    monkeypatch.chdir(tmp_path)
    failures = walk_hostile(tmp_path, HOSTILE_VALUES, 600)
    assert not failures, "\n".join(failures)
