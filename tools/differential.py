"""Record entkit's results on a fixed, seeded corpus, and diff two records.

``record OUT`` evaluates every case of the corpus against the ``entkit``
found on the import path and writes one JSON line per case,
``{"id": ..., "result": ...}``.  Floats are written by ``float.hex``,
arrays by dtype, shape and the SHA-256 of their bytes, records by their
type and fields, and an exception by its type and message, so two
records are equal exactly when every result is equal bit for bit.
``RuntimeWarning`` is raised as an error, as tier-1 raises it.

``diff A B`` prints every case whose result differs, or that only one
file holds, and exits 1 if any does, 0 otherwise.

The corpus covers the three unitary samplers, ``invariance_suite`` over
seven dims, three group descriptors, every registry invariant, two
seeds and three trial counts, ``classify_state`` and
``classify_symmetric`` on seeded states of 2 to 8 qubits,
``find_stars``, the qutrit invariants, a state-file round trip, every
CLI subcommand run in-process by ``cli.main`` (file and ``--svg`` errors
included), and hostile arguments at each sampler and state constructor.
A run takes about 10 s.  To compare a checkout with its parent commit::

    git worktree add --detach /tmp/parent HEAD^
    PYTHONPATH=/tmp/parent/src python tools/differential.py record parent.jsonl
    PYTHONPATH=src python tools/differential.py record head.jsonl
    python tools/differential.py diff parent.jsonl head.jsonl
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import enum
import functools
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

#: seeds and counters of the sampler cases, both ends of the key range included
SEEDS = (0, 1, 2**64 - 1)
COUNTERS = (0, 7, 2**64 - 1)

#: dims of the invariance cases: qubits, a qutrit triple, a party above the
#: kernels' dimension cut of 4, and mixed dimensions
SUITE_DIMS = ((2, 2), (2, 2, 2), (3, 3, 3), (4, 4), (2, 3, 4), (2, 5), (6, 2))

#: values every argument check must reject with a ValidationError
HOSTILE = {
    "None": None,
    "'x'": "x",
    "nan": float("nan"),
    "inf": float("inf"),
    "True": True,
    "[]": [],
    "10**5000": 10**5000,
}


def encode(value):
    """``value`` as JSON data that is equal for two values exactly when they are."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value).tobytes()
        return {
            "dtype": str(value.dtype),
            "shape": list(value.shape),
            "sha256": hashlib.sha256(data).hexdigest(),
        }
    if isinstance(value, np.generic):  # before float: np.float64 is a float
        return {"numpy": str(value.dtype), "value": encode(value.item())}
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, complex):
        return [float.hex(value.real), float.hex(value.imag)]
    if isinstance(value, enum.Enum):
        return {"enum": type(value).__name__, "value": encode(value.value)}
    if dataclasses.is_dataclass(value):
        fields = {f.name: encode(getattr(value, f.name)) for f in dataclasses.fields(value)}
        return {"type": type(value).__name__, **fields}
    if isinstance(value, tuple) and hasattr(value, "_fields"):  # a NamedTuple
        return {"type": type(value).__name__, **{k: encode(v) for k, v in value._asdict().items()}}
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    if isinstance(value, dict):
        return {str(k): encode(v) for k, v in value.items()}
    return {"type": type(value).__name__}


def evaluate(thunk):
    """``encode(thunk())``, or the type and message of the exception it raises."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return encode(thunk())
    except Exception as exc:
        return {"raises": type(exc).__name__, "message": str(exc)}


def record(out, cases) -> int:
    """Write one line per ``(id, thunk)`` in ``cases`` to the file ``out``; return the count."""
    count = 0
    with open(out, "w", encoding="utf-8") as fh:
        for case_id, thunk in cases:
            fh.write(json.dumps({"id": case_id, "result": evaluate(thunk)}) + "\n")
            count += 1
    return count


def _read(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    return {row["id"]: row["result"] for row in rows}


def diff(a, b) -> int:
    """Print every case whose result differs between the records ``a`` and ``b``; 1 if any."""
    old, new = _read(a), _read(b)
    changed = 0
    for case_id in list(old) + [k for k in new if k not in old]:
        if old.get(case_id, "<missing>") == new.get(case_id, "<missing>"):
            continue
        changed += 1
        print(case_id)
        print(f"  - {json.dumps(old.get(case_id, '<missing>'))}")
        print(f"  + {json.dumps(new.get(case_id, '<missing>'))}")
    print(f"{changed} of {len(set(old) | set(new))} records differ")
    return 1 if changed else 0


# -- the corpus ---------------------------------------------------------------


def _draw(ek, sampler: str, seed: int, counter: int, *args):
    return getattr(ek, sampler)(*args, ek.trial_rng(seed, counter))


def _sampler_cases(ek):
    for seed in SEEDS:
        for counter in COUNTERS:
            key = f"seed={seed} counter={counter}"
            yield f"trial_rng {key}", lambda s=seed, c=counter: ek.trial_rng(s, c).standard_normal(4)
            yield f"random_su2 {key}", functools.partial(_draw, ek, "random_su2", seed, counter)
            for d in range(1, 9):
                for sampler in ("haar_unitary", "random_sud"):
                    draw = functools.partial(_draw, ek, sampler, seed, counter, d)
                    yield f"{sampler} d={d} {key}", draw


def _random_state(ek, dims, seed: int):
    rng = np.random.default_rng([seed, *dims])
    v = rng.standard_normal(int(np.prod(dims))) + 1j * rng.standard_normal(int(np.prod(dims)))
    return ek.StateVector(dims, v / np.linalg.norm(v))


def _suite_cases(ek):
    names = ("norm", "det", "hyperdet3q", "schmidt-rank", "amp00")
    for dims in SUITE_DIMS:
        state = _random_state(ek, dims, 0)
        per_party = tuple(("su", "u")[k % 2] + str(d) for k, d in enumerate(dims))
        for group in ("su", "u", per_party):
            for name in names:
                for seed in (0, 2**64 - 1):
                    for trials in (1, 7, 1000):
                        run = functools.partial(
                            ek.invariance_suite, state, name, group, trials, seed
                        )
                        yield f"invariance_suite {dims} {group} {name} {seed} {trials}", run
    bell = ek.bell_state("phi+")
    for label, kwargs in {
        "group 'x'": {"group": "x"},
        "group su3 on qubits": {"group": ("su3", "su2")},
        "group of one token": {"group": ("su2",)},
        "invariant 'nope'": {"invariant": "nope"},
        "trials 0": {"trials": 0},
        "seed -1": {"seed": -1},
        "custom drift overflow": {"invariant": ("h", lambda s: 1e308 * s.amplitudes[0].real)},
    }.items():
        args = {"invariant": "det", "trials": 20, "seed": 1, **kwargs}
        yield f"invariance_suite error {label}", functools.partial(ek.invariance_suite, bell, **args)


def _qubit_states(ek, n: int):
    rng = np.random.default_rng([7, n])
    c = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    dicke = ek.dicke_state(ek.DickeExpansion(n, c / np.linalg.norm(c)))
    near = dicke.amplitudes + 1e-7 * rng.standard_normal(2**n)
    factors = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(n)]
    product = functools.reduce(np.kron, factors)
    return {
        "dicke": dicke,
        "near-symmetric": ek.StateVector((2,) * n, near / np.linalg.norm(near)),
        "haar": _random_state(ek, (2,) * n, 7),
        "product": ek.StateVector((2,) * n, product / np.linalg.norm(product)),
    }


def _classify_cases(ek):
    for n in range(2, 9):
        for kind, state in _qubit_states(ek, n).items():
            yield f"classify_state {kind} n={n}", functools.partial(ek.classify_state, state)
            yield f"classify_symmetric {kind} n={n}", functools.partial(
                ek.classify_symmetric, state
            )


def _stars_and_qutrit_cases(ek):
    for n in range(1, 13):
        rng = np.random.default_rng([11, n])
        c = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        exp = ek.DickeExpansion(n, c / np.linalg.norm(c))
        yield f"find_stars gaussian n={n}", lambda e=exp: ek.find_stars(
            ek.majorana_polynomial(e), e.n
        )
    rng = np.random.default_rng(13)
    triples = [(1, 0, 0), (1, 1, 0), (2, 1, 1), (1e-200, 1e100, 0)]
    triples += [tuple(complex(*rng.standard_normal(2)) for _ in range(3)) for _ in range(6)]
    for k, t in enumerate(triples):
        coeffs = ek.NormalFormCoefficients(*t)
        yield f"fundamental_invariants {k}", functools.partial(ek.fundamental_invariants, coeffs)
        yield f"hyperdeterminant_333 {k}", lambda c=coeffs: ek.hyperdeterminant_333(
            ek.fundamental_invariants(c)
        )
    for alpha, beta in ((1, 1), (0.5, 2j), (1e-200, 1e100)):
        yield f"phi_family {alpha} {beta}", functools.partial(ek.phi_family, alpha, beta)


def _round_trip_cases(ek):
    states = {"bell": ek.bell_state("psi-"), "w": ek.w_state(), "mixed": _random_state(ek, (2, 3, 4), 3)}
    for label, state in states.items():
        yield f"state json round trip {label}", lambda s=state: ek.state_from_json(
            json.loads(json.dumps(ek.state_to_json(s)))
        )


def _cli_run(cli, argv):
    """``cli.main(argv)`` with its exit code, its printed output and any file it wrote."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a command line this way
            code = exc.code
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _cli_cases(ek):
    """CLI runs in a temporary directory, by relative names, so that no output holds its path."""
    import entkit.cli as cli

    gens = {
        "bell": ["bell", "--which", "psi-"],
        "ghz": ["ghz", "--n", "3"],
        "w": ["w"],
        "coherent": ["coherent", "--theta", "0.7", "--phi", "1.1", "--n", "4"],
        "qutrit": ["qutrit-nf", "2", "1", "1"],
        "phi": ["phi", "--alpha", "1", "--beta", "0.5j"],
    }
    runs = [[f"gen {kind}", ["gen", *argv, "--out", f"{kind}.json"]] for kind, argv in gens.items()]
    subcommands = {
        "schmidt": [],
        "det": [],
        "hyperdet3q": [],
        "majorana": [],
        "check-invariance": ["--invariant", "norm", "--trials", "50"],
        "classify": [],
    }
    for kind in gens:
        for command, extra in subcommands.items():
            for fmt in ([], ["--json"]):
                argv = [command, f"{kind}.json", *extra, *fmt]
                runs.append([" ".join(argv), argv])
    runs += [
        ["qutrit-inv", ["qutrit-inv", "2", "1", "1", "--json"]],
        ["schmidt --cut 1 2 ghz", ["schmidt", "ghz.json", "--cut", "1", "2"]],
        ["check-invariance per-party", ["check-invariance", "phi.json", "--invariant", "amp00",
                                        "--group", "su3,u3,su3", "--trials", "30", "--seed", "5"]],
        ["majorana svg file", ["majorana", "w.json", "--svg", "w.svg"]],
        ["majorana svg directory", ["majorana", "w.json", "--svg", "."]],
        ["majorana svg missing directory", ["majorana", "w.json", "--svg", "missing/w.svg"]],
        ["majorana svg long path", ["majorana", "w.json", "--svg", "s" * 5000 + ".svg"]],
        ["missing input", ["det", "missing.json"]],
        ["unwritable out", ["gen", "w", "--out", "."]],
        ["out in missing directory", ["gen", "w", "--out", "missing/w.json"]],
        ["bad argument", ["check-invariance", "bell.json", "--invariant", "norm", "--trials", "x"]],
    ]

    def run_all():
        results = {}
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                for label, argv in runs:
                    results[label] = _cli_run(cli, argv)
                results["svg text"] = encode(Path("w.svg").read_bytes().decode("utf-8"))
            finally:
                os.chdir(cwd)
        return results

    # one run in order, since each subcommand reads a file that gen wrote;
    # each command is then its own record
    results = functools.lru_cache(maxsize=None)(run_all)
    for label in [label for label, _ in runs] + ["svg text"]:
        yield f"cli {label}", lambda k=label: results()[k]


def _hostile_cases(ek):
    bell = ek.bell_state("phi+")
    rng = functools.partial(ek.trial_rng, 0, 0)
    sites = {
        "trial_rng seed": lambda v: ek.trial_rng(v),
        "trial_rng counter": lambda v: ek.trial_rng(0, v),
        "random_su2 rng": lambda v: ek.random_su2(v),
        "haar_unitary d": lambda v: ek.haar_unitary(v, rng()),
        "haar_unitary rng": lambda v: ek.haar_unitary(2, v),
        "random_sud d": lambda v: ek.random_sud(v, rng()),
        "random_sud rng": lambda v: ek.random_sud(3, v),
        "StateVector dims": lambda v: ek.StateVector(v, [1.0, 0.0]),
        "StateVector amplitudes": lambda v: ek.StateVector((2,), v),
        "make_state dims": lambda v: ek.make_state(v, {(0,): 1.0}),
        "make_state entries": lambda v: ek.make_state((2,), v),
        "make_state amplitude": lambda v: ek.make_state((2,), {(0,): v}),
        "bell_state": lambda v: ek.bell_state(v),
        "ghz_state": lambda v: ek.ghz_state(v),
        "LocalUnitary": lambda v: ek.LocalUnitary(v),
        "LocalUnitary factor": lambda v: ek.LocalUnitary((v,)),
        "DickeExpansion n": lambda v: ek.DickeExpansion(v, [1.0, 0.0]),
        "DickeExpansion coeffs": lambda v: ek.DickeExpansion(1, v),
        "coherent_state direction": lambda v: ek.coherent_state(v, 2),
        "coherent_state n": lambda v: ek.coherent_state((0.1, 0.2), v),
        "NormalFormCoefficients": lambda v: ek.NormalFormCoefficients(v, 1, 1),
        "invariance_suite trials": lambda v: ek.invariance_suite(bell, "det", trials=v),
        "invariance_suite seed": lambda v: ek.invariance_suite(bell, "det", trials=3, seed=v),
        "invariance_suite group": lambda v: ek.invariance_suite(bell, "det", v, trials=3),
        "invariance_suite invariant": lambda v: ek.invariance_suite(bell, v, trials=3),
    }
    for site, call in sites.items():
        for label, value in HOSTILE.items():
            yield f"hostile {site} {label}", functools.partial(call, value)


def corpus():
    """The ``(id, thunk)`` pairs of the full corpus, against the ``entkit`` on the import path."""
    import entkit as ek

    for section in (
        _sampler_cases,
        _suite_cases,
        _classify_cases,
        _stars_and_qutrit_cases,
        _round_trip_cases,
        _cli_cases,
        _hostile_cases,
    ):
        yield from section(ek)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("record", help="evaluate the corpus and write one JSON line per case")
    p.add_argument("out")
    p = sub.add_parser("diff", help="print the cases whose results differ; exit 1 if any do")
    p.add_argument("a")
    p.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "diff":
        return diff(args.a, args.b)
    print(f"{record(args.out, corpus())} records written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
