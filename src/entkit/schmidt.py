"""Schmidt decomposition, Schmidt rank and the bipartite determinant.

Any bipartition of the parties is supported.  The Schmidt coefficients
of a non-square cut matrix are the singular values of a small
triangular factor of it (Chan's R-SVD), so the long singular vectors
are never formed unless the Schmidt bases are read.  Which factor
depends on the cut:

- one qubit party against a longer side (every single-qubit cut of
  three or more qubits): one modified Gram-Schmidt step on its two
  rows, read in place.  For party k of n, the rows are ``[:, 0]`` and
  ``[:, 1]`` of an (A, 2, B) view of the amplitude tensor when
  k < n // 2, and of one copy of the tensor with its axes reversed
  otherwise, where the party sits at n - 1 - k.  Each row is then A
  runs of B contiguous entries, with B >= 2**(n // 2) for n qubits, and
  no cut matrix is gathered;
- any other cut: the tensor is permuted so the chosen parties come
  first and reshaped to a matrix.  A short side of 2 gets the same
  Gram-Schmidt step, a short side above 2 the R factor of an R-only QR
  of the tall orientation, and a square matrix the SVD directly, since
  its R factor would be as large.

One private kernel factors the cuts of a state, and every caller
uses it: ``schmidt_decompose`` passes its one cut,
``is_product_multipartite`` cut 0 and then every single-party cut, and
classification every single-party cut.  The cuts of one call share the
one reversed copy, one stacked 2 x 2 SVD and one rank count, so a cut's
coefficients are the same bits whichever of them asks.

The Schmidt rank uses a relative singular value cutoff
``sigma > tolerance * sigma_max``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .states import StateVector, ValidationError, _as_instance, _as_int, _as_real, _as_tuple

__all__ = [
    "SchmidtDecomposition",
    "schmidt_decompose",
    "is_entangled_bipartite",
    "is_product_multipartite",
    "bipartite_determinant",
    "det_squared",
]


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition:
    """Result of a Schmidt decomposition across one bipartition.

    The result holds the state it was computed from.  The coefficients
    are computed up front; the Schmidt bases are computed on first read,
    by gathering the cut matrix (the amplitudes with the cut parties
    flattened on the left) and a thin SVD of it, and cached.  Reading
    them costs a gather and a second factorization, which callers that
    need only the coefficients never pay.  Compared and hashed by
    identity, like any object; compare content with ``np.array_equal``
    on ``lambdas``.

    Attributes
    ----------
    lambdas : numpy.ndarray
        Schmidt coefficients, descending, all above
        ``tolerance_used * lambdas[0]``; their squares sum to 1.
    rank : int
        Number of retained coefficients, ``len(lambdas)``; set on
        construction, not passed.
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
    rank: int = field(init=False)
    cut: tuple[int, ...]
    tolerance_used: float
    _state: StateVector = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rank", len(self.lambdas))

    @cached_property
    def _bases(self) -> tuple[np.ndarray, np.ndarray]:
        u, _, vh = np.linalg.svd(_cut_matrix(self._state, self.cut), full_matrices=False)
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
    """``cut`` as a sorted tuple of distinct party indices, a nonempty proper subset.

    A value that is not a collection (:func:`~entkit.states._as_tuple`),
    an entry that is not an integer in ``[0, n_parties)``, a repeated
    entry and an empty or full cut raise ``ValidationError``.
    """
    entries = _as_tuple(cut, "cut must be a collection of party indices")
    last = state.n_parties - 1
    cut = tuple(sorted(_as_int(p, "a party index", lo=0, hi=last) for p in entries))
    if len(set(cut)) != len(cut):
        raise ValidationError(f"cut {cut} lists a party twice")
    if len(cut) == 0 or len(cut) == state.n_parties:
        raise ValidationError("cut must be a nonempty proper subset of the parties")
    return cut


def bipartition_matrix(state: StateVector, cut) -> tuple[np.ndarray, tuple[int, ...]]:
    """Amplitudes as a read-only matrix with the cut parties flattened on the left."""
    cut = _normalize_cut(_as_instance(state, StateVector, "the state"), cut)
    return _cut_matrix(state, cut), cut


def _cut_matrix(state: StateVector, cut: tuple[int, ...]) -> np.ndarray:
    """Read-only ``dim_A x dim_B`` matrix of a normalized ``cut``, gathered by one transpose."""
    rest = tuple(p for p in range(state.n_parties) if p not in cut)
    t = np.transpose(state.tensor(), cut + rest)
    d_left = math.prod(state.dims[p] for p in cut)
    m = t.reshape(d_left, -1)
    m.setflags(write=False)
    return m


def _as_tolerance(tolerance) -> float:
    """``tolerance`` as a float in (0, 1), else ``ValidationError``."""
    tolerance = _as_real(tolerance, "tolerance")
    if not 0 < tolerance < 1:
        raise ValidationError(f"tolerance must lie in (0, 1), got {tolerance!r}")
    return tolerance


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
        ``tolerance * sigma_max`` are discarded.  A real number in
        (0, 1); bools, strings and None raise ``ValidationError``.

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
    if _as_instance(state, StateVector, "the state").n_parties < 2:
        raise ValidationError("schmidt_decompose needs at least two parties")
    tolerance = _as_tolerance(tolerance)
    cut = _normalize_cut(state, cut)
    return SchmidtDecomposition(
        lambdas=_cut_lambdas(state, [cut], tolerance)[0],
        cut=cut,
        tolerance_used=tolerance,
        _state=state,
    )


def _cut_lambdas(state: StateVector, cuts, tolerance: float) -> list[np.ndarray]:
    """Schmidt coefficients above ``tolerance`` of each normalized cut, in order.

    The one place that picks a cut's factor, as the module docstring
    sets out.  A qubit party k against a longer side is read in place,
    from the tensor when k < n // 2 and otherwise from one copy with its
    axes reversed, made once per call; the 2 x 2 factors of all such
    cuts, from :func:`_two_row_factor`, go through one stacked SVD and
    one rank count.  Any other cut is gathered and goes to
    :func:`_singular_values`.
    """
    t, n, dims = state.tensor(), state.n_parties, state.dims
    rev, rows, factors, lambdas = None, [], [], [None] * len(cuts)
    for i, cut in enumerate(cuts):
        if len(cut) == 1 and dims[cut[0]] == 2 < math.prod(dims) // 2:
            k = cut[0]
            if k >= n // 2:
                if rev is None:
                    rev = t.T.copy()
                view = rev.reshape(1, math.prod(rev.shape[: n - 1 - k]), 2, -1)
            else:
                view = t.reshape(1, math.prod(t.shape[:k]), 2, -1)
            factors.append(_two_row_factor(view))
            rows.append(i)
        else:
            s = _singular_values(_cut_matrix(state, cut))
            lambdas[i] = s[: _ranks(s, tolerance)]
    if factors:
        s = np.linalg.svd(np.concatenate(factors), compute_uv=False)
        for i, si, r in zip(rows, s, _ranks(s, tolerance)):
            lambdas[i] = si[:r]
    return lambdas


def _singular_values(m: np.ndarray) -> np.ndarray:
    """Descending singular values of each matrix ``m[..., i, j]`` of a stack.

    A matrix whose short side is 2 and whose long side is longer gets
    its 2 x 2 triangular factor from :func:`_two_row_factor`, a few
    passes over the two rows.  One whose short side is above 2 is taken
    in its tall orientation, and its values are those of the triangular
    factor of an R-only QR, which touches the long side once.  Either
    way the SVD runs on a short-side square only.  A square matrix goes
    to the SVD as it is, since its R factor would be as large.
    """
    if m.shape[-2] > m.shape[-1]:
        m = np.swapaxes(m, -1, -2)
    if m.shape[-2] == 2 < m.shape[-1]:
        lead = m.shape[:-2]
        m = _two_row_factor(m.reshape(-1, 1, 2, m.shape[-1])).reshape(lead + (2, 2))
    elif m.shape[-2] < m.shape[-1]:
        m = np.linalg.qr(np.swapaxes(m, -1, -2), mode="r")
    return np.linalg.svd(m, compute_uv=False)


#: a squared row norm below this may have lost digits to underflow
_TINY = 2.0**-600


def _two_row_factor(m: np.ndarray) -> np.ndarray:
    """Upper triangular 2 x 2 factor R of each matrix of a stack ``m[S, A, 2, B]``.

    Matrix s has the two rows ``x = m[s, :, 0]`` and ``y = m[s, :, 1]``,
    each read as one vector of A blocks of B entries; ``m`` may be a
    strided view, and neither row is copied.  One modified Gram-Schmidt
    step on them: ``R = [[|x|, |c|], [0, |r|]]`` with ``c = q^H y``,
    ``r = y - c q`` and ``q = x / |x|`` (``q = 0`` for ``x = 0``), so
    that the matrix is ``R`` times two orthonormal rows up to phases and
    has its singular values.  The residual is formed as
    ``y - (c / |x|) x``, which is ``y - c q`` without a pass to form q.
    The R factor of modified Gram-Schmidt is backward stable, as
    Householder's is (Bjorck and Paige 1992).  Every inner product is
    a blocked sum (Higham 2002, ch. 4): one sum per block of B entries,
    then a sum over the A blocks, whose error bound grows as B + A at
    worst rather than as A B.  A = 1 is one plain sum.
    """
    x, nx, ex = _scaled_norms(m[:, :, 0])
    y = m[:, :, 1]
    nz = np.where(nx > 0, nx, 1.0)
    c = _blocked_dot(x, y) / nz
    r = x * (-c / nz)[:, None, None]
    r += y
    _, nr, er = _scaled_norms(r)
    factor = np.zeros((len(m), 2, 2))
    factor[:, 0, 0] = np.ldexp(nx, ex)
    factor[:, 0, 1] = np.abs(c)
    factor[:, 1, 1] = np.ldexp(nr, er)
    return factor


def _blocked_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``sum(conj(x) * y)`` over the last two axes: a sum per row, then over the rows."""
    return np.vecdot(x, y).sum(axis=-1)


def _scaled_norms(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectors ``w``, norms ``|w|`` and exponents ``e`` with ``v = 2**e w``, one per ``v[s]``.

    A vector ``v[s, :, :]`` of a stack ``v[S, A, B]`` whose squared norm
    is below ``_TINY`` (squares of entries below about 1e-154 vanish) is
    multiplied by the power of two that brings its largest component
    into [0.5, 1), which is exact, and its norm is taken from the scaled
    copy.  Every other vector is returned as it is, with ``e = 0``.
    """
    n2 = _blocked_dot(v, v).real
    e = np.zeros(n2.shape, dtype=np.intc)
    low = n2 < _TINY
    if low.any():
        f = v[low].view(np.float64)
        _, e[low] = np.frexp(np.max(np.abs(f), axis=(-2, -1)))
        v = v.copy()
        v[low] = np.ldexp(f, -e[low][:, None, None]).view(np.complex128)
        n2[low] = _blocked_dot(v[low], v[low]).real
    return v, np.sqrt(n2), e


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
    _as_instance(state, StateVector, "the state")
    tolerance = _as_tolerance(tolerance)
    if state.n_parties < 2:
        return True
    cuts = [(k,) for k in range(state.n_parties)]
    # cut 0 alone first, read in place: an entangled state usually stops there
    if _cut_lambdas(state, cuts[:1], tolerance)[0].size > 1:
        return False
    return all(lam.size == 1 for lam in _cut_lambdas(state, cuts, tolerance))


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
    if _as_instance(state, StateVector, "the state").dims != (2, 2):
        raise ValidationError(f"bipartite_determinant needs dims (2, 2), got {state.dims}")
    det = complex(_det2(state.tensor()[None])[0])
    return 2.0 * det if rescale else det


def _det2(c):
    """``c00 c11 - c01 c10`` on amplitudes ``c[..., i, j]``; leading axes are a batch."""
    return c[..., 0, 0] * c[..., 1, 1] - c[..., 0, 1] * c[..., 1, 0]


def det_squared(state: StateVector) -> complex:
    """Square of :func:`bipartite_determinant`; phase-insensitive measure."""
    return bipartite_determinant(state) ** 2
