"""The four workloads: how their inputs are built and what one round runs.

A workload has ``build(seed, work)``, which makes the program's inputs
through entkit's public constructors (this is what ``setup_s`` times);
``expect(inputs)``, which works out the right answers (untimed); and
``ops(inputs, expect, r)``, which lists the operations of round ``r``.
Every round runs the same operations in the same order, so the share of
failed operations is the same in every run.  An operation is an
:class:`Op`: a call into entkit, a check of its answer (see
:mod:`checks`), and whether it exercises the known ``find_stars`` fault.
"""

from __future__ import annotations

import cmath
import contextlib
import dataclasses
import io
import json
import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import entkit as ek
import entkit.cli
import checks

TRIALS = 1000
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]
    known_fault: bool = False
    n: int = 0


# -- shared input makers ---------------------------------------------------


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _haar_vector(rng, size: int) -> np.ndarray:
    return _unit(rng.standard_normal(size) + 1j * rng.standard_normal(size))


def _product_vector(rng, n: int) -> np.ndarray:
    out = np.ones(1, dtype=complex)
    for _ in range(n):
        out = np.kron(out, _haar_vector(rng, 2))
    return out


def _random_direction(rng, margin: float = 0.0) -> tuple[float, float]:
    """Uniform on the sphere, polar angle within [margin, pi - margin]."""
    z = math.cos(margin) * (1.0 - 2.0 * rng.random())
    return math.acos(z), TWO_PI * rng.random()


def _direction(v: np.ndarray) -> tuple[float, float]:
    return math.acos(max(-1.0, min(1.0, float(v[2])))), math.atan2(v[1], v[0]) % TWO_PI


def spread_stars(rng, n: int, separation: float) -> list:
    """n random directions, pairwise chordal distance at least ``separation``."""
    pts: list[np.ndarray] = []
    while len(pts) < n:
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        if all(np.linalg.norm(v - q) >= separation for q in pts):
            pts.append(v)
    return [_direction(p) + (1,) for p in pts]


def tetrahedral_stars(rng, multiplicity: int) -> list:
    """Vertices of a randomly rotated regular tetrahedron, each m-fold."""
    q = _unit(rng.standard_normal(4))
    w, x, y, z = q
    rot = np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )
    verts = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / math.sqrt(3.0)
    return [_direction(rot @ v) + (multiplicity,) for v in verts]


def expansion_from_stars(stars: list) -> ek.DickeExpansion:
    """Dicke coefficients whose Majorana polynomial has the given roots.

    Star (theta, phi) is the root tan(theta/2) e^{i phi}; with
    prod_j (z - zeta_j) = sum_k a_k z^(n-k), c_k = (-1)^k a_k / sqrt(C(n, k)).
    """
    zeta = [math.tan(t / 2.0) * cmath.exp(1j * p) for t, p, m in stars for _ in range(m)]
    n = len(zeta)
    a = np.poly(zeta)
    c = np.array([(-1) ** k * a[k] / math.sqrt(math.comb(n, k)) for k in range(n + 1)])
    return ek.DickeExpansion(n, _unit(c))


def classification_doc(report) -> dict:
    """A ClassificationReport in the shape of ``entkit classify --json``."""
    return {
        "checks": [
            {"definition": c.definition, "verdict": c.verdict, "evidence": c.evidence}
            for c in report.checks
        ]
    }


def expect_entangled(tensor: np.ndarray, level=None, stars=None) -> dict:
    """What a classification of a generic entangled state must say.

    Every single-party cut has full rank; the Schmidt coefficients come
    from eigvalsh of the reduced density matrix.
    """
    lambdas = [checks.reduced_lambdas(tensor, k) for k in range(tensor.ndim)]
    return {"lambdas": lambdas, "product": False, "level": level, "stars": stars}


def expect_product(n: int) -> dict:
    return {"lambdas": [np.ones(1)] * n, "product": True, "level": None}


# -- invariance --------------------------------------------------------------


class Invariance:
    """``invariance_suite(..., trials=1000)`` over five state/invariant pairs.

    The time goes into per-trial work in ``sampling`` and ``states``; no
    large SVD and no root finding run.
    """

    name = "invariance"
    tail_q = 0.85

    @staticmethod
    def build(seed: int, work: Path) -> dict:
        rng = np.random.default_rng([seed, 1])
        return {
            "seed": seed,
            "ghz3": ek.ghz_state(3),
            "bell": ek.bell_state(ek.states.BELL_KINDS[int(rng.integers(4))]),
            "rand44": ek.StateVector((4, 4), _haar_vector(rng, 16)),
            "qutrit": ek.build_normal_form_state(ek.NormalFormCoefficients(2, 1, 1)),
        }

    @staticmethod
    def expect(inputs: dict) -> dict:
        # the check of Cayley(GHZ3) runs once, against the pencil oracle
        ghz = inputs["ghz3"]
        errors = checks.check_hyperdeterminant(ek.cayley_hyperdeterminant(ghz), ghz.tensor())
        if abs(checks.pencil_hyperdeterminant(ghz.tensor()) - 0.25) > 1e-12:
            errors.append("pencil oracle of GHZ3 is not 1/4")
        return {"errors": errors}

    @staticmethod
    def ops(inputs: dict, expect: dict, r: int) -> list:
        cases = [
            ("ghz3/hyperdet3q/su", inputs["ghz3"], "hyperdet3q", "su", False),
            ("bell/det/su", inputs["bell"], "det", "su", False),
            ("rand44/schmidt-rank/u", inputs["rand44"], "schmidt-rank", "u", False),
            ("qutrit211/norm/su", inputs["qutrit"], "norm", "su", False),
            ("ghz3/amp00/su", inputs["ghz3"], "amp00", "su", True),
        ]
        out = []
        for slot, (label, state, inv, group, control) in enumerate(cases):
            seed = (inputs["seed"] << 24) + r * len(cases) + slot

            def run(state=state, inv=inv, group=group, seed=seed):
                return dataclasses.asdict(
                    ek.invariance_suite(state, inv, group=group, trials=TRIALS, seed=seed)
                )

            def check(doc, inv=inv, seed=seed, control=control):
                return expect["errors"] + checks.check_invariance(
                    doc, invariant=inv, trials=TRIALS, seed=seed, control=control
                )

            out.append(Op(label, run, check))
        return out


# -- classify ----------------------------------------------------------------

CLASSIFY_N = 16
DICKE_K = (5, 8)


class Classify:
    """``classify_state`` on 16-qubit states: GHZ, Haar, product, Dicke.

    The single-cut SVDs dominate; ``sampling`` never runs and
    ``find_stars`` is a small share.
    """

    name = "classify"
    tail_q = 0.90

    @staticmethod
    def build(seed: int, work: Path) -> dict:
        rng = np.random.default_rng([seed, 2])
        n = CLASSIFY_N
        states = {
            "ghz16": ek.ghz_state(n),
            "haar16": ek.StateVector((2,) * n, _haar_vector(rng, 2**n)),
            "product16": ek.StateVector((2,) * n, _product_vector(rng, n)),
        }
        for k in DICKE_K:
            coeffs = np.zeros(n + 1)
            coeffs[k] = 1.0
            states[f"dicke16_{k}"] = ek.dicke_state(ek.DickeExpansion(n, coeffs))
        return states

    @staticmethod
    def expect(inputs: dict) -> dict:
        # GHZ, product and Dicke spectra are known from how the states were
        # built; only the Haar state needs eigvalsh
        n = CLASSIFY_N
        half = np.full(2, 1.0 / math.sqrt(2.0))
        ghz_stars = [(math.pi / 2, (2 * j + 1) * math.pi / n, 1) for j in range(n)]
        out = {
            "ghz16": {"lambdas": [half] * n, "product": False, "level": n, "stars": ghz_stars},
            "haar16": expect_entangled(inputs["haar16"].tensor()),
            "product16": expect_product(n),
        }
        for k in DICKE_K:
            lam = np.sqrt(np.array(sorted([(n - k) / n, k / n], reverse=True)))
            out[f"dicke16_{k}"] = {
                "lambdas": [lam] * n,
                "product": False,
                "level": 2,
                "stars": [(0.0, 0.0, n - k), (math.pi, 0.0, k)],
            }
        return out

    @staticmethod
    def ops(inputs: dict, expect: dict, r: int) -> list:
        order = ("dicke16_5", "ghz16", "haar16", "dicke16_8", "product16")
        out = []
        for key in order:
            state, want = inputs[key], expect[key]
            out.append(
                Op(
                    key,
                    lambda state=state, key=key: classification_doc(ek.classify_state(state, key)),
                    lambda doc, want=want: checks.check_classification(doc, want),
                )
            )
        return out


# -- stars -----------------------------------------------------------------

#: n of the seeded distinct and tetrahedral constellations; at n = 20 some
#: seeds already hit the find_stars fault, so they stop at 16
SEEDED_N = (4, 8, 12, 16)
FAULT_N = (24, 32, 48, 64, 80)
COHERENT_STARS_N = (4, 8, 12, 16, 20, 24, 32, 48, 64, 80)
#: coherent directions keep this far (rad) from the poles: at n = 80 a
#: coherent state within about 0.12 of a pole comes back split
POLE_MARGIN = 0.25
#: minimum chordal separation of distinct stars
SEP_SEEDED = 0.5
SEP_FIXED = 0.25
#: seed of the constellations at n >= 24, which must not depend on --seed
FIXED_SEED = 20240326


class Stars:
    """``find_stars(majorana_polynomial(e), n)`` for n from 4 to 80.

    Distinct stars, tetrahedral multiplets and coherent states; only the
    polynomial path runs.  The non-coherent constellations at n >= 24 are
    fixed (independent of --seed) and exercise a known fault:
    ``find_stars`` returns most of them as one n-fold star.
    """

    name = "stars"
    tail_q = 0.98

    @staticmethod
    def build(seed: int, work: Path) -> list:
        rng = np.random.default_rng([seed, 3])
        fixed = np.random.default_rng(FIXED_SEED)
        cases = []
        for n in SEEDED_N + FAULT_N:
            src, sep, fault = (fixed, SEP_FIXED, True) if n in FAULT_N else (rng, SEP_SEEDED, False)
            cases.append((f"distinct{n}", spread_stars(src, n, sep), fault))
            if n >= 8:
                cases.append((f"tetra{n}", tetrahedral_stars(src, n // 4), fault))
        for n in COHERENT_STARS_N:
            theta, phi = _random_direction(rng, POLE_MARGIN)
            cases.append((f"coherent{n}", [(theta, phi, n)], False))
        out = []
        for label, stars, fault in cases:
            if label.startswith("coherent"):
                theta, phi, n = stars[0]
                expansion = ek.coherent_state((theta, phi), n)
            else:
                expansion = expansion_from_stars(stars)
            out.append((label, expansion, stars, fault))
        return out

    @staticmethod
    def expect(inputs: list) -> None:
        return None

    @staticmethod
    def ops(inputs: list, expect, r: int) -> list:
        out = []
        for label, expansion, stars, fault in inputs:

            def run(e=expansion):
                con = ek.find_stars(ek.majorana_polynomial(e), e.n)
                return {
                    "partition": list(con.partition),
                    "stars": [
                        {"theta": s.theta, "phi": s.phi, "multiplicity": s.multiplicity}
                        for s in con.stars
                    ],
                }

            out.append(
                Op(label, run, lambda doc, stars=stars: checks.check_constellation(doc, stars),
                   known_fault=fault, n=expansion.n)
            )
        return out


# -- cli ---------------------------------------------------------------------

COHERENT_N = (12, 13, 14)
CLI_N = 12


def run_cli_subprocess(argv: list, work: Path, env: dict):
    proc = subprocess.run(
        [sys.executable, "-m", "entkit.cli", *argv],
        cwd=work, env=env, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout


def run_cli_inprocess(argv: list, work: Path, env=None):
    """``cli.main`` in this process, paths resolved against ``work``."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = entkit.cli.main([a if not a.endswith(".json") else str(work / a) for a in argv])
    return code, buf.getvalue()


def _json_result(check):
    """Exit code 0 and a --json document that passes ``check``."""

    def wrapped(result):
        code, stdout = result
        if code != 0:
            return [f"exit code {code}"]
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return [f"stdout is not JSON: {exc}"]
        return check(doc)

    return wrapped


def _coherent_amplitudes(theta: float, phi: float, n: int) -> np.ndarray:
    single = np.array([math.cos(theta / 2.0), cmath.exp(1j * phi) * math.sin(theta / 2.0)])
    out = np.ones(1, dtype=complex)
    for _ in range(n):
        out = np.kron(out, single)
    return out.reshape((2,) * n)


class Cli:
    """``python -m entkit.cli`` as a child process, one at a time.

    Interpreter start-up, imports, argparse and the JSON state-file
    paths dominate; ``gen`` writes files, the other subcommands read
    them.
    """

    name = "cli"
    tail_q = 0.75

    @staticmethod
    def build(seed: int, work: Path) -> dict:
        rng = np.random.default_rng([seed, 4])
        sym_stars = spread_stars(rng, 10, SEP_SEEDED)
        tet_stars = tetrahedral_stars(rng, CLI_N // 4)
        states = {
            "sym10.json": ek.dicke_state(expansion_from_stars(sym_stars)),
            "tet12.json": ek.dicke_state(expansion_from_stars(tet_stars)),
            "haar12.json": ek.StateVector((2,) * CLI_N, _haar_vector(rng, 2**CLI_N)),
            "prod12.json": ek.StateVector((2,) * CLI_N, _product_vector(rng, CLI_N)),
            "rand3.json": ek.StateVector((2, 2, 2), _haar_vector(rng, 8)),
        }
        for name, state in states.items():
            ek.write_state(state, work / name)
        return {
            "work": work,
            "states": states,
            "sym_stars": sym_stars,
            "tet_stars": tet_stars,
            "coherent": [_random_direction(rng) for _ in COHERENT_N],
            "cut": int(rng.integers(CLI_N)),
            "seed": seed,
        }

    @staticmethod
    def expect(inputs: dict) -> dict:
        st = inputs["states"]
        return {
            "sym10": expect_entangled(st["sym10.json"].tensor(), 10, inputs["sym_stars"]),
            "prod12": expect_product(CLI_N),
            "haar12": checks.reduced_lambdas(st["haar12.json"].tensor(), inputs["cut"]),
        }

    @staticmethod
    def ops(inputs: dict, expect: dict, r: int, runner=run_cli_subprocess, env=None) -> list:
        work = inputs["work"]

        def op(label, argv, check):
            return Op(label, lambda: runner(argv, work, env), _json_result(check))

        def state_file(name, want):
            def check(doc):
                if doc.get("dims") != list(want.shape):
                    return [f"gen reported dims {doc.get('dims')}"]
                with open(work / name, encoding="utf-8") as fh:
                    return checks.check_state_file(json.load(fh), want)

            return check

        ghz = np.zeros((2,) * CLI_N, dtype=complex)
        ghz[(0,) * CLI_N] = ghz[(1,) * CLI_N] = 1.0 / math.sqrt(2.0)
        out = [op("gen-ghz", ["gen", "ghz", "--n", str(CLI_N), "--out", "gen_ghz.json", "--json"],
                  state_file("gen_ghz.json", ghz))]
        for n, (theta, phi) in zip(COHERENT_N, inputs["coherent"]):
            name = f"gen_coherent{n}.json"
            argv = ["gen", "coherent", "--theta", repr(theta), "--phi", repr(phi),
                    "--n", str(n), "--out", name, "--json"]
            out.append(op(f"gen-coherent{n}", argv,
                          state_file(name, _coherent_amplitudes(theta, phi, n))))
        inv_seed = (inputs["seed"] << 16) + r
        out += [
            op("classify-sym10", ["classify", "sym10.json", "--json"],
               lambda doc: checks.check_classification(doc, expect["sym10"])),
            op("classify-prod12", ["classify", "prod12.json", "--json"],
               lambda doc: checks.check_classification(doc, expect["prod12"])),
            op("majorana-tet12", ["majorana", "tet12.json", "--json"],
               lambda doc: checks.check_constellation(doc, inputs["tet_stars"])),
            op("schmidt-haar12", ["schmidt", "haar12.json", "--cut", str(inputs["cut"]), "--json"],
               lambda doc: checks.check_schmidt(doc, expect["haar12"])),
            op("check-invariance-rand3",
               ["check-invariance", "rand3.json", "--invariant", "hyperdet3q",
                "--trials", str(TRIALS), "--seed", str(inv_seed), "--json"],
               lambda doc: checks.check_invariance(
                   doc, invariant="hyperdet3q", trials=TRIALS, seed=inv_seed, control=False)),
        ]
        return out


WORKLOADS = {w.name: w for w in (Invariance, Classify, Stars, Cli)}
