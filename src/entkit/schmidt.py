"""Schmidt decomposition, Schmidt rank and the bipartite determinant.

Any bipartition of the parties is supported: the amplitude tensor is
permuted so the chosen parties come first, reshaped to a matrix and run
through the SVD.  The Schmidt rank uses a relative singular value cutoff
``sigma > tolerance * sigma_max``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import StateVector, ValidationError

__all__ = [
    "SchmidtDecomposition",
    "schmidt_decompose",
    "is_entangled_bipartite",
    "is_product_multipartite",
    "bipartite_determinant",
    "det_squared",
]


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Result of a Schmidt decomposition across one bipartition.

    Attributes
    ----------
    lambdas : numpy.ndarray
        Schmidt coefficients, descending, all above
        ``tolerance_used * lambdas[0]``; their squares sum to 1.
    rank : int
        Number of retained coefficients.
    left_basis : numpy.ndarray
        Shape ``(rank, dim_A)``; row k is the left Schmidt vector u_k.
    right_basis : numpy.ndarray
        Shape ``(rank, dim_B)``; row k is the right Schmidt vector v_k.
        The state reconstructs as ``sum_k lambdas[k] u_k (x) v_k``.
    cut : tuple of int
        Party indices on the left side, sorted.
    tolerance_used : float
        The relative rank cutoff that was applied.
    """

    lambdas: np.ndarray
    rank: int
    left_basis: np.ndarray
    right_basis: np.ndarray
    cut: tuple[int, ...]
    tolerance_used: float

    def reconstruct(self) -> np.ndarray:
        """The ``dim_A x dim_B`` matrix ``sum_k lambda_k u_k v_k^T``."""
        return (self.left_basis.T * self.lambdas) @ self.right_basis


def _normalize_cut(state: StateVector, cut) -> tuple[int, ...]:
    parties = set(range(state.n_parties))
    cut = tuple(sorted(int(p) for p in cut))
    if len(set(cut)) != len(cut) or not set(cut) <= parties:
        raise ValidationError(f"cut {cut} is not a subset of parties {sorted(parties)}")
    if len(cut) == 0 or len(cut) == state.n_parties:
        raise ValidationError("cut must be a nonempty proper subset of the parties")
    return cut


def bipartition_matrix(state: StateVector, cut) -> tuple[np.ndarray, tuple[int, ...]]:
    """Amplitudes as a matrix with the cut parties flattened on the left."""
    cut = _normalize_cut(state, cut)
    rest = tuple(p for p in range(state.n_parties) if p not in cut)
    t = np.transpose(state.tensor(), cut + rest)
    d_left = math.prod(state.dims[p] for p in cut)
    return t.reshape(d_left, -1), cut


def schmidt_decompose(
    state: StateVector, cut, tolerance: float = 1e-9
) -> SchmidtDecomposition:
    """Schmidt decomposition of ``state`` across ``cut``.

    Parameters
    ----------
    state : StateVector
        At least two parties.
    cut : iterable of int
        Party indices forming the left side; nonempty proper subset.
    tolerance : float, optional
        Relative cutoff for the rank: singular values at or below
        ``tolerance * sigma_max`` are discarded.

    Returns
    -------
    SchmidtDecomposition

    Examples
    --------
    >>> from entkit.states import bell_state
    >>> d = schmidt_decompose(bell_state("phi+"), cut=[0])
    >>> d.rank
    2
    """
    if state.n_parties < 2:
        raise ValidationError("schmidt_decompose needs at least two parties")
    if not 0 < tolerance < 1:
        raise ValidationError(f"tolerance must lie in (0, 1), got {tolerance}")
    m, cut = bipartition_matrix(state, cut)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    rank = int(_ranks(s, tolerance))
    return SchmidtDecomposition(
        lambdas=s[:rank].copy(),
        rank=rank,
        left_basis=u[:, :rank].T.copy(),
        right_basis=vh[:rank].copy(),
        cut=cut,
        tolerance_used=float(tolerance),
    )


def _ranks(s: np.ndarray, tolerance: float = 1e-9) -> np.ndarray:
    """Count of descending singular values ``s[..., k] > tolerance * s[..., 0]``."""
    return np.sum(s > tolerance * s[..., :1], axis=-1)


def is_entangled_bipartite(state: StateVector, cut, tolerance: float = 1e-9) -> bool:
    """True iff the Schmidt rank across ``cut`` is at least 2."""
    return schmidt_decompose(state, cut, tolerance).rank >= 2


def is_product_multipartite(state: StateVector, tolerance: float = 1e-9) -> bool:
    """True iff the state factorizes across every single-party cut.

    For pure states, Schmidt rank 1 on each cut ``{k}`` is equivalent to
    a full tensor product factorization.
    """
    if state.n_parties < 2:
        return True
    return all(
        schmidt_decompose(state, (k,), tolerance).rank == 1
        for k in range(state.n_parties)
    )


def bipartite_determinant(state: StateVector, rescale: bool = False) -> complex:
    """Determinant c00*c11 - c01*c10 of a two-qubit state.

    Parameters
    ----------
    state : StateVector
        Dims must be exactly (2, 2).
    rescale : bool, optional
        When true, return ``2 * det``.  The determinant of unit-norm
        amplitudes scores maximally entangled states at 1/2 in
        magnitude; the rescaled convention scores them at 1.

    Returns
    -------
    complex
    """
    if state.dims != (2, 2):
        raise ValidationError(f"bipartite_determinant needs dims (2, 2), got {state.dims}")
    det = complex(_det2(state.tensor()[None])[0])
    return 2.0 * det if rescale else det


def _det2(c):
    """``c00 c11 - c01 c10`` on amplitudes ``c[..., i, j]``; leading axes are a batch."""
    return c[..., 0, 0] * c[..., 1, 1] - c[..., 0, 1] * c[..., 1, 0]


def det_squared(state: StateVector) -> complex:
    """Square of :func:`bipartite_determinant`; phase-insensitive measure."""
    return bipartite_determinant(state) ** 2
