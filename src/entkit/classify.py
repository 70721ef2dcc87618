"""Classification of a pure state under the four entanglement definitions.

The four checks ask progressively finer questions:

1. product test: does the state factorize at all;
2. Schmidt test: the rank across every single-party cut;
3. invariant test: a local-unitary invariant when one is available in
   closed form (two-qubit determinant, three-qubit hyperdeterminant);
4. stellar test: the distinct-star count for permutation-symmetric
   qubit states.

Each check carries the numbers its verdict rests on, and checks that
do not apply to the given shape say so instead of guessing.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .hyperdet import _class_of, cayley_hyperdeterminant
from .majorana import NotSymmetricError, classify_symmetric
from .schmidt import bipartite_determinant, schmidt_decompose
from .states import StateVector, ValidationError, _as_instance

__all__ = ["DefinitionCheck", "ClassificationReport", "classify_state"]

_DET_WARNING = (
    "two-qubit determinant is reported for unit-norm amplitudes, where Bell "
    "states score +/-1/2; the conventional +/-1 normalization is the rescaled "
    "value 2*det, reported alongside it"
)


@dataclass(frozen=True)
class DefinitionCheck:
    """Verdict of one definition, with the evidence that produced it."""

    definition: int
    verdict: str
    evidence: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.definition not in (1, 2, 3, 4):
            raise ValidationError(f"definition number must be 1-4, got {self.definition}")
        if not self.evidence:
            raise ValidationError("a verdict must cite its evidence")


@dataclass(frozen=True)
class ClassificationReport:
    state_id: str
    checks: tuple[DefinitionCheck, ...]
    warnings: tuple[str, ...] = ()


def _definition_1(lambdas: list[np.ndarray]) -> DefinitionCheck:
    ranks = [cut.size for cut in lambdas]
    product = all(r == 1 for r in ranks)
    return DefinitionCheck(
        definition=1,
        verdict="product" if product else "entangled",
        evidence={"single_cut_ranks": ranks, "is_product": product},
    )


def _definition_2(lambdas: list[np.ndarray]) -> DefinitionCheck:
    ranks = {f"cut_{k}": cut.size for k, cut in enumerate(lambdas)}
    coeffs = {f"cut_{k}": [float(v) for v in cut] for k, cut in enumerate(lambdas)}
    entangled = any(r > 1 for r in ranks.values())
    return DefinitionCheck(
        definition=2,
        verdict="entangled" if entangled else "product",
        evidence={"ranks": ranks, "schmidt_coefficients": coeffs},
    )


def _definition_3(state: StateVector, lambdas: list[np.ndarray], tolerance: float):
    """Closed-form LU invariant where one exists; extra warnings second."""
    dims = state.dims
    if dims == (2, 2):
        det = bipartite_determinant(state)
        check = DefinitionCheck(
            definition=3,
            verdict="entangled" if abs(det) > tolerance else "product",
            evidence={"det": det, "det_squared": det**2, "two_det": 2.0 * det},
        )
        return check, [_DET_WARNING]
    if dims == (2, 2, 2):
        det = cayley_hyperdeterminant(state)
        return (
            DefinitionCheck(
                definition=3,
                verdict=_class_of(det).value,
                evidence={"hyperdeterminant": det, "abs_hyperdeterminant": abs(det)},
            ),
            [],
        )
    if state.n_parties == 2:
        return (
            DefinitionCheck(
                definition=3,
                verdict="entangled" if lambdas[0].size > 1 else "product",
                evidence={
                    "schmidt_coefficients": [float(v) for v in lambdas[0]],
                    "note": "the Schmidt multiset is the complete LU invariant "
                    "for two parties",
                },
            ),
            [],
        )
    return (
        DefinitionCheck(
            definition=3,
            verdict="not-evaluated",
            evidence={
                "note": f"no closed-form invariant implemented for dims {list(dims)}"
            },
        ),
        [],
    )


def _definition_4(state: StateVector, tolerance: float) -> DefinitionCheck:
    if any(d != 2 for d in state.dims):
        return DefinitionCheck(
            definition=4,
            verdict="not-applicable",
            evidence={"note": "stellar classification needs qubit parties"},
        )
    try:
        cls = classify_symmetric(state, tolerance)
    except NotSymmetricError as exc:
        return DefinitionCheck(
            definition=4,
            verdict="not-applicable",
            evidence={"note": f"not permutation-symmetric: {exc}"},
        )
    con = cls.constellation
    return DefinitionCheck(
        definition=4,
        verdict=f"level-{cls.onion_level}",
        evidence={
            "distinct_stars": con.distinct_count,
            "partition": list(con.partition),
            "stars": [asdict(s) for s in con.stars],
            "abs_discriminant": abs(con.discriminant),
        },
    )


def classify_state(
    state: StateVector, state_id: str = "state", tolerance: float = 1e-9
) -> ClassificationReport:
    """Run all four definitional checks on one state.

    Parameters
    ----------
    state : StateVector
        At least two parties.
    state_id : str, optional
        Label copied into the report.
    tolerance : float, optional
        Rank and symmetry threshold shared by the checks.

    Returns
    -------
    ClassificationReport
    """
    if _as_instance(state, StateVector, "the state").n_parties < 2:
        raise ValidationError("classification needs at least two parties")
    # one decomposition per single-party cut; keep only its coefficients.
    # The bases are never read, so the long singular vectors are never
    # formed, and no cut matrix outlives its decomposition
    lambdas = [
        schmidt_decompose(state, (k,), tolerance).lambdas for k in range(state.n_parties)
    ]
    d3, warnings = _definition_3(state, lambdas, tolerance)
    d1, d4 = _definition_1(lambdas), _definition_4(state, tolerance)
    # for a symmetric state, level-1 (one distinct star) means product
    if d4.verdict.startswith("level-") and (d4.verdict == "level-1") != (d1.verdict == "product"):
        warnings.append(
            f"definitions disagree: Definition 1 finds the state {d1.verdict} but "
            f"Definition 4 gives {d4.verdict}; the stellar decomposition may have "
            "merged or split stars"
        )
    checks = (d1, _definition_2(lambdas), d3, d4)
    return ClassificationReport(
        state_id=state_id, checks=checks, warnings=tuple(warnings)
    )
