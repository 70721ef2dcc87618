import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entkit import (
    InvarianceReport,
    LocalUnitary,
    MajoranaConstellation,
    NormalFormCoefficients,
    QutritInvariantReport,
    SpherePoint,
    StateVector,
    ValidationError,
    apply_local_unitary,
    bell_state,
    bipartite_determinant,
    build_normal_form_state,
    cayley_hyperdeterminant,
    classify_state,
    classify_symmetric,
    classify_three_qubit,
    det_squared,
    fidelity,
    fundamental_invariants,
    ghz_state,
    haar_unitary,
    hyperdeterminant_333,
    inner_product,
    invariance_suite,
    is_entangled_bipartite,
    is_product_multipartite,
    make_state,
    pauli,
    phi_family,
    random_su2,
    random_sud,
    schmidt_decompose,
    state_to_json,
    symmetrize_check,
    w_state,
)
from conftest import rand_state

import entkit.states
from entkit.majorana import (
    DickeExpansion,
    binary_discriminant,
    coherent_state,
    dicke_state,
    find_stars,
    majorana_polynomial,
)
from entkit.states import make_state_raw

R2 = 1.0 / math.sqrt(2.0)


class TestConstructors:
    def test_bell_phi_plus(self):
        s = bell_state("phi+")
        assert s.dims == (2, 2)
        assert s.amplitude((0, 0)) == pytest.approx(R2)
        assert s.amplitude((1, 1)) == pytest.approx(R2)
        assert s.amplitude((0, 1)) == 0
        assert s.amplitude((1, 0)) == 0

    def test_bell_signs(self):
        assert bell_state("phi-").amplitude((1, 1)) == pytest.approx(-R2)
        assert bell_state("psi+").amplitude((0, 1)) == pytest.approx(R2)
        assert bell_state("psi+").amplitude((1, 0)) == pytest.approx(R2)
        assert bell_state("psi-").amplitude((1, 0)) == pytest.approx(-R2)

    def test_bell_unknown_kind(self):
        with pytest.raises(ValidationError):
            bell_state("sigma+")

    def test_ghz(self):
        s = ghz_state(4)
        assert s.dims == (2, 2, 2, 2)
        assert s.amplitude((0, 0, 0, 0)) == pytest.approx(R2)
        assert s.amplitude((1, 1, 1, 1)) == pytest.approx(R2)
        assert abs(s.amplitude((0, 1, 0, 0))) == 0

    def test_ghz_two_parties_is_bell(self):
        np.testing.assert_allclose(
            ghz_state(2).amplitudes, bell_state("phi+").amplitudes, atol=1e-15
        )

    def test_ghz_needs_two_parties(self):
        with pytest.raises(ValidationError):
            ghz_state(1)

    def test_w(self):
        s = w_state()
        third = 1.0 / math.sqrt(3.0)
        for idx in [(0, 0, 1), (0, 1, 0), (1, 0, 0)]:
            assert s.amplitude(idx) == pytest.approx(third)
        assert s.amplitude((1, 1, 1)) == 0

    def test_make_state_normalizes(self):
        s = make_state([2, 2], {(0, 0): 3.0, (1, 1): 4.0})
        assert s.norm() == pytest.approx(1.0)
        assert s.amplitude((0, 0)) == pytest.approx(0.6)

    def test_make_state_raw_reports_norm(self):
        arr, norm = make_state_raw([2, 2], {(0, 0): 3.0, (1, 1): 4.0})
        assert norm == pytest.approx(5.0)
        assert arr[0] == 3.0

    def test_extreme_finite_amplitudes_normalize(self):
        for scale in (1e308, 1e-320):
            arr, norm = make_state_raw([2, 2], {(0, 0): scale, (1, 1): scale})
            assert norm == pytest.approx(math.sqrt(2.0) * scale, rel=1e-3)
            s = make_state([2, 2], {(0, 0): scale, (1, 1): scale})
            assert s.norm() == pytest.approx(1.0, abs=1e-15)
            assert s.amplitude((1, 1)) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)

    def test_rejects_zero_state(self):
        with pytest.raises(ValidationError):
            make_state([2, 2], {(0, 0): 0.0})

    def test_rejects_bad_index(self):
        with pytest.raises(ValidationError):
            make_state([2, 2], {(0, 2): 1.0})
        with pytest.raises(ValidationError):
            make_state([2, 2], {(0, 0, 0): 1.0})

    @pytest.mark.parametrize("build", [make_state, make_state_raw])
    def test_rejects_repeated_index(self, build):
        # the later pair used to overwrite the earlier one without a word
        with pytest.raises(ValidationError, match=r"\[0\] is listed twice"):
            build((2,), [((0,), 1), ((0,), 5), ((1,), 1)])
        with pytest.raises(ValidationError, match="listed twice"):
            build([2, 2], [((0, 1), 1.0), (np.array([0, 1]), 2.0)])

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            make_state([2, 2], {(0, 0): float("nan")})

    def test_rejects_small_dims(self):
        with pytest.raises(ValidationError):
            make_state([2, 1], {(0, 0): 1.0})

    def test_size_cap_checked_before_allocation(self, monkeypatch):
        monkeypatch.setattr(entkit.states, "MAX_ENTRIES", 2**10)
        with pytest.raises(ValidationError, match="storage cap"):
            make_state_raw((2,) * 12, {(0,) * 12: 1.0})
        with pytest.raises(ValidationError, match="storage cap"):
            dicke_state(coherent_state((0.4, 1.0), 12))
        assert make_state_raw((2,) * 10, {(0,) * 10: 1.0})[1] == 1.0
        assert dicke_state(coherent_state((0.4, 1.0), 10)).dims == (2,) * 10

    @pytest.mark.parametrize("build", [make_state, make_state_raw])
    def test_size_cap_message_for_a_huge_size(self, build):
        # the decimal form of 2**15000 is longer than int-to-str allows
        with pytest.raises(ValidationError, match=r"at least 2\*\*15000 amplitudes"):
            build((2,) * 15000, {(0,) * 15000: 1.0})

    @pytest.mark.parametrize("n", [25, 100000, 10**20])
    def test_qubit_count_checked_before_building(self, n):
        # 2**n is never formed: at n = 100000 its decimal form is too long to print
        with pytest.raises(ValidationError, match="storage cap"):
            ghz_state(n)

    def test_dicke_qubit_count_checked_before_building(self):
        c = np.zeros(100001)
        c[0] = 1.0
        with pytest.raises(ValidationError, match="storage cap"):
            dicke_state(DickeExpansion(100000, c))

    @pytest.mark.parametrize("entries", [[(0, 1.0)], [((0.5,), 1.0)], [("a", 1.0)]])
    def test_rejects_index_that_is_not_integers(self, entries):
        with pytest.raises(ValidationError, match="not a sequence of integers"):
            make_state((2,), entries)


class TestStateVector:
    def test_amplitudes_read_only(self):
        s = bell_state("phi+")
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.0

    def test_tensor_shape(self):
        s = ghz_state(3)
        assert s.tensor().shape == (2, 2, 2)

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            StateVector((2,), np.array([np.inf, 0.0]))

    def test_strided_amplitudes_accepted(self):
        s = StateVector((2,), np.array([1, 0, 0, 0], dtype=complex)[::2])
        assert s.amplitudes.tolist() == [1, 0]

    @pytest.mark.parametrize("amps", [[3, 0, 0, 0], [0, 0, 0, 0], [1, 1e-4, 0, 0]])
    def test_non_unit_norm_rejected(self, amps):
        with pytest.raises(ValidationError, match="norm"):
            StateVector((2, 2), np.array(amps, dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_unit_norm_check_rejects_non_finite_rows(self, bad):
        rows = np.array([[1, 0], [bad, 0]], dtype=complex)
        with pytest.raises(ValidationError, match=f"norm {bad}"):
            entkit.states._check_unit_norm(rows)


# each call takes one integer parameter v = 2; floats used to be truncated
# (dims (2, 2) from 2.7, three qubits from ghz_state(3.9)) or to fail with a
# bare TypeError further in (coherent_state, find_stars after DickeExpansion)
INTEGER_PARAMETERS = {
    "make_state dims": lambda v: make_state([v, 2], {(0, 0): 1.0}),
    "StateVector dims": lambda v: StateVector((v, 2), np.array([1, 0, 0, 0], dtype=complex)),
    "make_state_raw dims": lambda v: make_state_raw((2, v), {(1, 1): 1.0}),
    "ghz_state n": lambda v: ghz_state(v),
    "DickeExpansion n": lambda v: DickeExpansion(v, np.array([1, 0, 0], dtype=complex)),
    "coherent_state n": lambda v: coherent_state((0.3, 0.2), v),
    "find_stars n": lambda v: find_stars([1.0, 0.0, 1.0], v),
    "haar_unitary d": lambda v: haar_unitary(v, np.random.default_rng(0)),
    "random_sud d": lambda v: random_sud(v, np.random.default_rng(0)),
    "InvarianceReport trials": lambda v: InvarianceReport("norm", v, 0.0, 0.0, 0),
    "SpherePoint multiplicity": lambda v: SpherePoint(0.1, 0.2, v),
}


@pytest.mark.parametrize("bad", [2.0, 2.7, 3.9, "2", True, None])
@pytest.mark.parametrize("call", INTEGER_PARAMETERS.values(), ids=INTEGER_PARAMETERS.keys())
def test_integer_parameters_reject_non_integers(call, bad):
    with pytest.raises(ValidationError, match="must be an integer"):
        call(bad)
    for v in (2, np.int64(2), np.uint8(2)):
        call(v)


# each call raised a bare AttributeError, TypeError or ValueError from the
# conversion of a string, None or a scalar before it was checked, or, for a
# polynomial that is not 1-D, raised NumericError or returned a value
@pytest.mark.parametrize(
    "call",
    [
        lambda: bell_state(1),
        lambda: pauli(None),
        lambda: NormalFormCoefficients(None, 1, 1),
        lambda: NormalFormCoefficients("x", 1, 1),
        lambda: phi_family("x", 1),
        lambda: make_state([2, 2], {(0, 0): None}),
        lambda: make_state([2, 2], {(0, 0): "x"}),
        lambda: coherent_state((None, 0.2), 3),
        lambda: coherent_state(("x", 0.2), 3),
        lambda: SpherePoint("x", 0.2),
        lambda: DickeExpansion(2, "abc"),
        lambda: make_state(2, {(0,): 1.0}),
        lambda: LocalUnitary(5),
        lambda: LocalUnitary((np.zeros((0, 0)),)),
        lambda: apply_local_unitary(ghz_state(3), 5),
        lambda: find_stars(["x"], 1),
        lambda: find_stars(None, 1),
        lambda: find_stars([[1, 2]], 1),
        lambda: binary_discriminant(["x"], 1),
        lambda: binary_discriminant(None, 1),
        lambda: binary_discriminant(5, 1),
        lambda: majorana_polynomial(5),
        lambda: state_to_json(5),
        lambda: coherent_state(5, 3),
        lambda: MajoranaConstellation(2, (5,), 1, (2,), 0j),
        lambda: MajoranaConstellation(2, None, 1, (2,), 0j),
        lambda: QutritInvariantReport("x", 0j, 0j, 0j, 0j),
        lambda: QutritInvariantReport(0j, 0j, 0j, 0j, None),
        lambda: classify_symmetric(bell_state("phi+")).precedes(3),
    ],
    ids=[
        "bell_state(1)",
        "pauli(None)",
        "NormalFormCoefficients(None)",
        "NormalFormCoefficients('x')",
        "phi_family('x')",
        "make_state(None)",
        "make_state('x')",
        "coherent_state(None)",
        "coherent_state('x')",
        "SpherePoint('x')",
        "DickeExpansion('abc')",
        "make_state dims 2",
        "LocalUnitary(5)",
        "LocalUnitary(0x0)",
        "apply_local_unitary(ghz, 5)",
        "find_stars(['x'])",
        "find_stars(None)",
        "find_stars([[1, 2]])",
        "binary_discriminant(['x'])",
        "binary_discriminant(None)",
        "binary_discriminant(5)",
        "majorana_polynomial(5)",
        "state_to_json(5)",
        "coherent_state(5)",
        "MajoranaConstellation(stars=(5,))",
        "MajoranaConstellation(stars=None)",
        "QutritInvariantReport('x')",
        "QutritInvariantReport(delta=None)",
        "SymmetricClassification.precedes(3)",
    ],
)
def test_non_numbers_raise_validation_error(call):
    with pytest.raises(ValidationError):
        call()


# each call reads its argument as a state (dicke_state: as a Dicke
# expansion); a value of another kind raised a bare AttributeError
STATE_ARGUMENTS = {
    "schmidt_decompose": lambda v: schmidt_decompose(v, (0,)),
    "is_entangled_bipartite": lambda v: is_entangled_bipartite(v, (0,)),
    "is_product_multipartite": is_product_multipartite,
    "bipartite_determinant": bipartite_determinant,
    "det_squared": det_squared,
    "cayley_hyperdeterminant": cayley_hyperdeterminant,
    "classify_three_qubit": classify_three_qubit,
    "symmetrize_check": symmetrize_check,
    "classify_symmetric": classify_symmetric,
    "dicke_state": dicke_state,
    "classify_state": classify_state,
    "inner_product a": lambda v: inner_product(v, bell_state("phi+")),
    "inner_product b": lambda v: inner_product(bell_state("phi+"), v),
    "fidelity": lambda v: fidelity(bell_state("phi+"), v),
    "invariance_suite": lambda v: invariance_suite(v, "norm", trials=2),
}

# the same for a qutrit coefficient triple or report and a random generator,
# with the class each call names
KIND_ARGUMENTS = {
    "build_normal_form_state": ("NormalFormCoefficients", build_normal_form_state),
    "fundamental_invariants": ("NormalFormCoefficients", fundamental_invariants),
    "hyperdeterminant_333": ("QutritInvariantReport", hyperdeterminant_333),
    "random_su2": ("Generator", random_su2),
    "haar_unitary rng": ("Generator", lambda v: haar_unitary(2, v)),
    "random_sud rng": ("Generator", lambda v: random_sud(2, v)),
}


@pytest.mark.parametrize("bad", [5, None, "x"])
@pytest.mark.parametrize("call", STATE_ARGUMENTS.values(), ids=STATE_ARGUMENTS.keys())
def test_state_arguments_reject_other_kinds(call, bad):
    with pytest.raises(ValidationError, match="must be a (StateVector|DickeExpansion)"):
        call(bad)


@pytest.mark.parametrize("bad", [5, None, "x"])
@pytest.mark.parametrize("kind,call", KIND_ARGUMENTS.values(), ids=KIND_ARGUMENTS.keys())
def test_other_arguments_reject_other_kinds(kind, call, bad):
    with pytest.raises(ValidationError, match=f"must be a {kind}, got"):
        call(bad)


class TestLocalUnitary:
    def test_pauli_x_on_phi_plus_gives_psi_plus(self):
        u = LocalUnitary(factors=(pauli("X"), np.eye(2)))
        out = apply_local_unitary(bell_state("phi+"), u)
        assert fidelity(out, bell_state("psi+")) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            LocalUnitary(factors=(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2)))

    def test_dims_mismatch(self):
        u = LocalUnitary(factors=(np.eye(2), np.eye(3)))
        with pytest.raises(ValidationError):
            apply_local_unitary(bell_state("phi+"), u)

    def test_preserves_norm_and_overlaps(self, rng):
        a = rand_state(rng, (3, 2, 2))
        b = rand_state(rng, (3, 2, 2))
        theta = 0.4
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        f3 = np.diag(np.exp(1j * np.array([0.1, 0.7, -0.3])))
        u = LocalUnitary(factors=(f3, rot, pauli("Y")))
        ua, ub = apply_local_unitary(a, u), apply_local_unitary(b, u)
        assert ua.norm() == pytest.approx(1.0, abs=1e-12)
        assert inner_product(ua, ub) == pytest.approx(inner_product(a, b), abs=1e-12)


class TestInnerProduct:
    def test_orthonormal_bells(self):
        kinds = ["phi+", "phi-", "psi+", "psi-"]
        for i, a in enumerate(kinds):
            for j, b in enumerate(kinds):
                want = 1.0 if i == j else 0.0
                got = inner_product(bell_state(a), bell_state(b))
                assert got == pytest.approx(want, abs=1e-12)

    def test_conjugates_first_argument(self):
        a = make_state([2], {(0,): 1.0})
        b = make_state([2], {(0,): 1j})
        assert inner_product(a, b) == pytest.approx(1j)

    def test_dims_mismatch(self):
        with pytest.raises(ValidationError):
            inner_product(bell_state("phi+"), ghz_state(3))

    def test_pauli_names(self):
        for name, trace in [("I", 2), ("X", 0), ("Y", 0), ("Z", 0)]:
            assert np.trace(pauli(name)) == pytest.approx(trace)
        np.testing.assert_allclose(pauli("X") @ pauli("X"), np.eye(2), atol=1e-15)
        with pytest.raises(ValidationError):
            pauli("Q")


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_random_states_are_normalized(seed):
    s = rand_state(np.random.default_rng(seed), (2, 3))
    assert s.norm() == pytest.approx(1.0, abs=1e-12)
    assert fidelity(s, s) == pytest.approx(1.0, abs=1e-12)


class TestRealParameters:
    """Tolerances and ``cluster_tol`` are finite real numbers, checked before any array work."""

    ASYMMETRIC = make_state((2, 2, 2), {(0, 0, 1): 1, (1, 0, 0): 2})
    # (parameter named in the error, call with the value)
    ENTRY_POINTS = {
        "schmidt_decompose": ("tolerance", lambda v: schmidt_decompose(ghz_state(3), (0,), v)),
        "classify_state": ("tolerance", lambda v: classify_state(ghz_state(3), tolerance=v)),
        "is_product_multipartite": (
            "tolerance", lambda v: is_product_multipartite(ghz_state(3), tolerance=v)
        ),
        "symmetrize_check": ("tolerance", lambda v: symmetrize_check(ghz_state(3), v)),
        # at -1 the W state fell in the GHZ class; at NaN every state fell outside it
        "classify_three_qubit": ("tolerance", lambda v: classify_three_qubit(w_state(), v)),
        # NaN kept no amplitude, and read_state rejected the document
        "state_to_json": ("threshold", lambda v: state_to_json(ghz_state(3), v)),
        # the non-finite coefficient would raise NumericError if read first
        "find_stars": ("cluster_tol", lambda v: find_stars([1.0, math.nan], 1, cluster_tol=v)),
        "classify_symmetric": (
            "cluster_tol", lambda v: classify_symmetric(ghz_state(3), cluster_tol=v)
        ),
        # a NotSymmetricError here would mean the state was read first
        "classify_symmetric_asymmetric": (
            "cluster_tol",
            lambda v: classify_symmetric(TestRealParameters.ASYMMETRIC, cluster_tol=v),
        ),
    }

    @pytest.mark.parametrize(
        "value",
        [None, "1e-6", True, math.nan, -1, pytest.param(10**400, id="10**400")],
        ids=repr,
    )
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_rejected_as_validation_error(self, entry, value):
        name, call = self.ENTRY_POINTS[entry]
        with pytest.raises(ValidationError, match=name) as info:
            call(value)
        assert info.type is ValidationError
