"""Schmidt decomposition, Schmidt rank and the bipartite determinant.

Any bipartition of the parties is supported: the amplitude tensor is
permuted so the chosen parties come first and reshaped to a matrix.
The Schmidt coefficients of a non-square matrix are the singular
values of the triangular factor of an R-only QR of its tall orientation
(Chan's R-SVD), so the long singular vectors are never formed unless
the Schmidt bases are read; a square matrix goes to the SVD directly.
The Schmidt rank uses a relative singular value cutoff
``sigma > tolerance * sigma_max``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property

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

    The result holds the read-only cut matrix it was computed from (the
    amplitudes with the cut parties flattened on the left).  The
    coefficients are computed up front; the Schmidt bases are computed
    from that matrix on first read, by a thin SVD, and cached.  Reading
    them costs a second factorization, which callers that need only the
    coefficients never pay.

    Attributes
    ----------
    lambdas : numpy.ndarray
        Schmidt coefficients, descending, all above
        ``tolerance_used * lambdas[0]``; their squares sum to 1.
    rank : int
        Number of retained coefficients.
    cut : tuple of int
        Party indices on the left side, sorted.
    tolerance_used : float
        The relative rank cutoff that was applied.
    left_basis : numpy.ndarray
        Read-only, shape ``(rank, dim_A)``; row k is the left Schmidt
        vector u_k.
    right_basis : numpy.ndarray
        Read-only, shape ``(rank, dim_B)``; row k is the right Schmidt
        vector v_k.  The state reconstructs as
        ``sum_k lambdas[k] u_k (x) v_k``.
    """

    lambdas: np.ndarray
    rank: int
    cut: tuple[int, ...]
    tolerance_used: float
    _matrix: np.ndarray = field(repr=False)

    @cached_property
    def _bases(self) -> tuple[np.ndarray, np.ndarray]:
        u, _, vh = np.linalg.svd(self._matrix, full_matrices=False)
        left, right = u[:, : self.rank].T.copy(), vh[: self.rank].copy()
        left.setflags(write=False)
        right.setflags(write=False)
        return left, right

    @property
    def left_basis(self) -> np.ndarray:
        return self._bases[0]

    @property
    def right_basis(self) -> np.ndarray:
        return self._bases[1]

    def reconstruct(self) -> np.ndarray:
        """The ``dim_A x dim_B`` matrix ``sum_k lambda_k u_k v_k^T``."""
        return (self.left_basis.T * self.lambdas) @ self.right_basis


def _normalize_cut(state: StateVector, cut) -> tuple[int, ...]:
    parties = set(range(state.n_parties))
    try:
        entries = tuple(cut)
        if any(isinstance(p, bool) for p in entries):
            raise TypeError
        cut = tuple(sorted(operator.index(p) for p in entries))
    except TypeError:
        raise ValidationError(
            f"cut must be a collection of integer party indices, got {cut!r}"
        ) from None
    if len(set(cut)) != len(cut) or not set(cut) <= parties:
        raise ValidationError(f"cut {cut} is not a subset of parties {sorted(parties)}")
    if len(cut) == 0 or len(cut) == state.n_parties:
        raise ValidationError("cut must be a nonempty proper subset of the parties")
    return cut


def bipartition_matrix(state: StateVector, cut) -> tuple[np.ndarray, tuple[int, ...]]:
    """Amplitudes as a read-only matrix with the cut parties flattened on the left."""
    cut = _normalize_cut(state, cut)
    rest = tuple(p for p in range(state.n_parties) if p not in cut)
    t = np.transpose(state.tensor(), cut + rest)
    d_left = math.prod(state.dims[p] for p in cut)
    m = t.reshape(d_left, -1)
    m.setflags(write=False)
    return m, cut


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
        Entries must be integers (``operator.index``); bools, floats
        and strings raise ``ValidationError``.
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
    s = _singular_values(m)
    rank = int(_ranks(s, tolerance))
    return SchmidtDecomposition(
        lambdas=s[:rank].copy(),
        rank=rank,
        cut=cut,
        tolerance_used=float(tolerance),
        _matrix=m,
    )


def _singular_values(m: np.ndarray) -> np.ndarray:
    """Descending singular values of each matrix ``m[..., i, j]`` of a stack.

    A matrix that is not square is taken in its tall orientation, and
    its values are those of the triangular factor of an R-only QR: the
    QR touches the long side once and leaves a short-side square for
    the SVD.  A square matrix goes to the SVD as it is, since its R
    factor would be as large.
    """
    if m.shape[-2] < m.shape[-1]:
        m = np.swapaxes(m, -1, -2)
    if m.shape[-2] > m.shape[-1]:
        m = np.linalg.qr(m, mode="r")
    return np.linalg.svd(m, compute_uv=False)


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
