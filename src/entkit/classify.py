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

A qubit state gets one symmetry pass, whose Dicke expansion Definition
4 reuses.  When that pass finds the state exactly permutation-symmetric
(every adjacent-transposition drift 0.0), every single-party cut matrix
is an exact column permutation of the cut-0 matrix, so cut 0 is the one
Schmidt factorization and its coefficients serve all n cuts.  Any other
state has each cut factored as given.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import majorana
from .hyperdet import _class_of, cayley_hyperdeterminant
from .majorana import DickeExpansion, NotSymmetricError
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
        _as_instance(self.verdict, str, "the verdict")
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
    dims, warnings = state.dims, []
    if dims == (2, 2):
        det = bipartite_determinant(state)
        verdict = "entangled" if abs(det) > tolerance else "product"
        evidence = {"det": det, "det_squared": det**2, "two_det": 2.0 * det}
        warnings.append(_DET_WARNING)
    elif dims == (2, 2, 2):
        det = cayley_hyperdeterminant(state)
        verdict = _class_of(det).value
        evidence = {"hyperdeterminant": det, "abs_hyperdeterminant": abs(det)}
    elif state.n_parties == 2:
        verdict = "entangled" if lambdas[0].size > 1 else "product"
        evidence = {
            "schmidt_coefficients": [float(v) for v in lambdas[0]],
            "note": "the Schmidt multiset is the complete LU invariant for two parties",
        }
    else:
        verdict = "not-evaluated"
        evidence = {"note": f"no closed-form invariant implemented for dims {list(dims)}"}
    return DefinitionCheck(definition=3, verdict=verdict, evidence=evidence), warnings


def _symmetry(state: StateVector, tolerance: float) -> tuple[DickeExpansion | str, bool]:
    """One symmetry pass: ``(expansion, exact)``, a note in place of a missing expansion.

    The pass runs at tolerance 0, so it returns an expansion only when
    every transposition drift is 0.0.  Where it stops at a drift above
    ``tolerance``, every earlier drift was 0, so a pass at ``tolerance``
    would stop there with the same error; only a first drift in
    (0, tolerance] needs that second pass.
    """
    if any(d != 2 for d in state.dims):
        return "stellar classification needs qubit parties", False
    try:
        return majorana.symmetrize_check(state, 0.0), True
    except NotSymmetricError as exc:
        if exc.drift > tolerance:
            return f"not permutation-symmetric: {exc}", False
    try:
        return majorana.symmetrize_check(state, tolerance), False
    except NotSymmetricError as exc:
        return f"not permutation-symmetric: {exc}", False


def _definition_4(expansion: DickeExpansion | str) -> DefinitionCheck:
    if isinstance(expansion, str):
        return DefinitionCheck(
            definition=4, verdict="not-applicable", evidence={"note": expansion}
        )
    cls = majorana._classify_expansion(expansion)
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

    A qubit state gets one permutation-symmetry pass, which Definition
    4 reuses.  An exactly symmetric state (every transposition drift
    0.0) is factored at cut 0 only, and those coefficients stand for
    every cut; any other state is factored at each single-party cut.

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
    # formed, and no cut matrix outlives its decomposition.  Cut 0 comes
    # first, so the tolerance is checked before the symmetry pass reads it
    lambdas = [schmidt_decompose(state, (0,), tolerance).lambdas]
    expansion, exact = _symmetry(state, tolerance)
    if exact:
        lambdas *= state.n_parties
    else:
        lambdas += [
            schmidt_decompose(state, (k,), tolerance).lambdas for k in range(1, state.n_parties)
        ]
    d3, warnings = _definition_3(state, lambdas, tolerance)
    d1, d4 = _definition_1(lambdas), _definition_4(expansion)
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
