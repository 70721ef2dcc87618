"""Each check of the benchmark accepts a right answer and rejects a wrong one.

Run with ``python3 -m pytest perfbench/test_checks.py``.  The right
answers are built here from closed forms, without entkit.
"""

from __future__ import annotations

import copy
import math

import numpy as np
import pytest

import checks

R = 1.0 / math.sqrt(2.0)


def ghz_tensor(n: int) -> np.ndarray:
    t = np.zeros((2,) * n, dtype=complex)
    t[(0,) * n] = t[(1,) * n] = R
    return t


def invariance_doc(drift: float, **over) -> dict:
    doc = {
        "invariant_name": "hyperdet3q",
        "trials": 1000,
        "max_abs_drift": drift,
        "mean_abs_drift": drift / 2,
        "seed": 7,
    }
    doc.update(over)
    return doc


def check_inv(doc, control=False, invariant="hyperdet3q"):
    return checks.check_invariance(doc, invariant=invariant, trials=1000, seed=7, control=control)


def test_invariance_accepts_rounding_drift():
    assert check_inv(invariance_doc(4e-16)) == []
    assert check_inv(invariance_doc(1.3, invariant_name="amp00"), True, "amp00") == []


@pytest.mark.parametrize(
    "doc, control",
    [
        (invariance_doc(2e-9), False),  # drift above the threshold
        (invariance_doc(0.005, invariant_name="amp00"), True),  # control did not move
        (invariance_doc(1e-16, trials=999), False),
        (invariance_doc(1e-16, seed=8), False),
        (invariance_doc(1e-16, mean_abs_drift=1e-15), False),  # mean above max
        (invariance_doc(1e-16, invariant_name="det"), False),
    ],
)
def test_invariance_rejects(doc, control):
    inv = "amp00" if control else "hyperdet3q"
    assert check_inv(doc, control, inv)


def test_pencil_oracle_ghz_and_w():
    assert abs(checks.pencil_hyperdeterminant(ghz_tensor(3)) - 0.25) < 1e-15
    w = np.zeros((2, 2, 2), dtype=complex)
    w[0, 0, 1] = w[0, 1, 0] = w[1, 0, 0] = 1 / math.sqrt(3)
    assert abs(checks.pencil_hyperdeterminant(w)) < 1e-15
    assert checks.check_hyperdeterminant(0.25, ghz_tensor(3)) == []
    assert checks.check_hyperdeterminant(0.25 + 1e-9, ghz_tensor(3))


def test_reduced_lambdas_of_ghz_and_dicke():
    lam = checks.reduced_lambdas(ghz_tensor(5), 3)
    assert np.allclose(lam, [R, R], atol=1e-15)
    # D(3, 1): one excitation among three qubits
    d = np.zeros((2, 2, 2), dtype=complex)
    d[0, 0, 1] = d[0, 1, 0] = d[1, 0, 0] = 1 / math.sqrt(3)
    assert np.allclose(checks.reduced_lambdas(d, 0), np.sqrt([2 / 3, 1 / 3]), atol=1e-15)


TETRA = [
    (math.acos(1 / math.sqrt(3)), math.pi / 4, 2),
    (math.acos(-1 / math.sqrt(3)), 7 * math.pi / 4, 2),
    (math.acos(-1 / math.sqrt(3)), 3 * math.pi / 4, 2),
    (math.acos(1 / math.sqrt(3)), 5 * math.pi / 4, 2),
]


def constellation_doc(stars) -> dict:
    return {
        "partition": sorted((m for _, _, m in stars), reverse=True),
        "stars": [{"theta": t, "phi": p, "multiplicity": m} for t, p, m in stars],
    }


def test_constellation_accepts_exact_and_near_stars():
    assert checks.check_constellation(constellation_doc(TETRA), TETRA) == []
    near = [(t + 1e-8, p, m) for t, p, m in TETRA]
    assert checks.check_constellation(constellation_doc(near), TETRA) == []


def test_constellation_rejects_merged_partition():
    merged = [(0.5, 0.5, 8)]
    assert checks.check_constellation(constellation_doc(merged), TETRA)


def test_constellation_rejects_split_multiplet():
    split = TETRA[:3] + [(TETRA[3][0], TETRA[3][1], 1), (TETRA[3][0] + 1e-3, TETRA[3][1], 1)]
    assert checks.check_constellation(constellation_doc(split), TETRA)


def test_constellation_rejects_moved_star():
    moved = TETRA[:3] + [(TETRA[3][0] + 1e-5, TETRA[3][1], 2)]
    assert checks.check_constellation(constellation_doc(moved), TETRA)


def test_constellation_rejects_partition_that_disagrees_with_stars():
    doc = constellation_doc(TETRA)
    doc["partition"] = [2, 2, 2, 1, 1]
    assert checks.check_constellation(doc, TETRA)


def classification_doc(n: int, ranks, lambdas, product: bool, d4_verdict: str, d4_evidence=None):
    verdict = "product" if product else "entangled"
    return {
        "checks": [
            {"definition": 1, "verdict": verdict,
             "evidence": {"single_cut_ranks": list(ranks), "is_product": product}},
            {"definition": 2, "verdict": verdict,
             "evidence": {"ranks": {f"cut_{k}": ranks[k] for k in range(n)},
                          "schmidt_coefficients": {f"cut_{k}": list(lambdas[k]) for k in range(n)}}},
            {"definition": 3, "verdict": "not-evaluated", "evidence": {"note": "-"}},
            {"definition": 4, "verdict": d4_verdict, "evidence": d4_evidence or {"note": "-"}},
        ]
    }


def ghz4_case():
    n = 4
    stars = [(math.pi / 2, (2 * j + 1) * math.pi / n, 1) for j in range(n)]
    expect = {"lambdas": [np.array([R, R])] * n, "product": False, "level": n, "stars": stars}
    doc = classification_doc(n, [2] * n, [[R, R]] * n, False, "level-4", constellation_doc(stars))
    return doc, expect


def test_classification_accepts_ghz():
    doc, expect = ghz4_case()
    assert checks.check_classification(doc, expect) == []


def test_classification_rejects_off_by_one_rank():
    doc, expect = ghz4_case()
    doc["checks"][0]["evidence"]["single_cut_ranks"][2] = 3
    assert checks.check_classification(doc, expect)
    doc, expect = ghz4_case()
    doc["checks"][1]["evidence"]["ranks"]["cut_1"] = 1
    assert checks.check_classification(doc, expect)


def test_classification_rejects_wrong_coefficient_and_level():
    doc, expect = ghz4_case()
    doc["checks"][1]["evidence"]["schmidt_coefficients"]["cut_0"] = [R + 1e-8, R - 1e-8]
    assert checks.check_classification(doc, expect)
    doc, expect = ghz4_case()
    doc["checks"][3]["verdict"] = "level-3"
    assert checks.check_classification(doc, expect)


def test_classification_rejects_wrong_verdicts():
    n = 3
    expect = {"lambdas": [np.ones(1)] * n, "product": True, "level": None}
    good = classification_doc(n, [1] * n, [[1.0]] * n, True, "not-applicable")
    assert checks.check_classification(good, expect) == []
    bad = copy.deepcopy(good)
    bad["checks"][0]["verdict"] = "entangled"
    assert checks.check_classification(bad, expect)
    bad = copy.deepcopy(good)
    bad["checks"][3]["verdict"] = "level-1"
    assert checks.check_classification(bad, expect)
    assert checks.check_classification({"checks": good["checks"][:3]}, expect)


def test_schmidt_report():
    want = np.array([0.8, 0.6])
    assert checks.check_schmidt({"rank": 2, "lambdas": [0.8, 0.6]}, want) == []
    assert checks.check_schmidt({"rank": 1, "lambdas": [0.8]}, want)
    assert checks.check_schmidt({"rank": 2, "lambdas": [0.8, 0.6 + 1e-7]}, want)


def test_state_file():
    t = ghz_tensor(3)
    doc = {"dims": [2, 2, 2], "amplitudes": [
        {"index": [0, 0, 0], "re": R}, {"index": [1, 1, 1], "re": R, "im": 0.0}]}
    assert checks.check_state_file(doc, t) == []
    wrong = copy.deepcopy(doc)
    wrong["amplitudes"][1]["im"] = 1e-9
    assert checks.check_state_file(wrong, t)
    assert checks.check_state_file(dict(doc, dims=[2, 2]), t)
    missing = dict(doc, amplitudes=doc["amplitudes"][:1])
    assert checks.check_state_file(missing, t)
