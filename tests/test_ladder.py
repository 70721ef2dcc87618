"""A known-answer ladder for Definition 4, from n = 2 up to the 24-qubit size cap.

Each state is built exactly as a Dicke expansion, so its Majorana stars
are known without a root finder:

- GHZ_n and the ring cos t |0...0> + sin t |1...1> have n distinct stars
  on one latitude (the n-th roots of a constant);
- the Dicke state D(n, k) has k stars at the south pole and n - k at the
  north pole, and D(n, 0), D(n, n) are coherent;
- D(n, k) + D(n, n - k) has k stars at each pole and n - 2k distinct
  stars on the equator;
- a coherent state has one n-fold star, at the poles too.

The cases that ``find_stars`` gets wrong are strict xfails: its
clustering merges a ring of 22 or more stars into one n-fold star
(ROADMAP item 1), so a fix of that fault turns them into failures here
until the marks are removed.
"""

import json
import math

import numpy as np
import pytest

from entkit import DickeExpansion, coherent_state, find_stars, majorana_polynomial
from entkit.cli import main

N_RANGE = range(2, 25)
RING_T = (0.3, 0.6, 0.785398, 1.0, 1.3)
COHERENT_DIRECTIONS = ((0.0, 0.0), (math.pi, 0.0), (0.7, 1.9), (math.pi / 2, 0.0), (2.4, 5.5))

#: (family, n, t) of the ring cases whose n stars come back as one n-fold star
MERGED_RINGS = {("ghz", 23, None), ("ghz", 24, None), ("ring", 22, 1.3)}
MERGED_RINGS |= {("ring", 23, t) for t in RING_T if t <= 0.785398}
MERGED_RINGS |= {("ring", 24, t) for t in RING_T}

MERGED = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: the clustering merges a ring of 22 or more stars into one star",
)


def expansion(n: int, coeffs: dict) -> DickeExpansion:
    """The Dicke expansion with coefficients ``{k: c_k}``, normalized."""
    c = np.zeros(n + 1, dtype=complex)
    for k, v in coeffs.items():
        c[k] += v
    return DickeExpansion(n, c / np.linalg.norm(c))


def partition(e: DickeExpansion) -> tuple:
    return find_stars(majorana_polynomial(e), e.n).partition


def ring_cases():
    for n in N_RANGE:
        yield "ghz", n, None
        yield from (("ring", n, t) for t in RING_T)


def ring_param(family, n, t):
    marks = [MERGED] if (family, n, t) in MERGED_RINGS else []
    return pytest.param(family, n, t, marks=marks, id=f"{family}{n}" + (f"-{t}" if t else ""))


@pytest.mark.parametrize("family,n,t", [ring_param(*case) for case in ring_cases()])
def test_ring_has_n_distinct_stars(family, n, t):
    c0, cn = (1.0, 1.0) if family == "ghz" else (math.cos(t), math.sin(t))
    assert partition(expansion(n, {0: c0, n: cn})) == (1,) * n


@pytest.mark.parametrize("n,k", [(n, k) for n in N_RANGE for k in range(n + 1)])
def test_dicke_stars_sit_at_the_poles(n, k):
    want = (n,) if k in (0, n) else tuple(sorted((n - k, k), reverse=True))
    assert partition(expansion(n, {k: 1.0})) == want


@pytest.mark.parametrize("n,k", [(n, k) for n in N_RANGE for k in range(1, (n + 1) // 2)])
def test_dicke_pair_has_two_pole_multiplets(n, k):
    assert partition(expansion(n, {k: 1.0, n - k: 1.0})) == (k, k) + (1,) * (n - 2 * k)


@pytest.mark.parametrize("n", N_RANGE)
@pytest.mark.parametrize("direction", COHERENT_DIRECTIONS, ids=str)
def test_coherent_state_is_one_star(direction, n):
    assert partition(coherent_state(direction, n)) == (n,)


@MERGED
def test_cli_classifies_ghz23_at_level_23(tmp_path, capsys):
    # GHZ_23 has the same false merge as the expansion above; its 2^23
    # amplitudes take about 0.7 s to write and classify, at 286 MB peak
    path = tmp_path / "ghz23.json"
    assert main(["gen", "ghz", "--n", "23", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["classify", str(path), "--json"]) == 0
    checks = {c["definition"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks[1]["verdict"] == "entangled"
    assert checks[4]["verdict"] == "level-23"
