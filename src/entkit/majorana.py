"""Majorana stellar representation of permutation-symmetric qubit states.

A symmetric state of n qubits expands in the Dicke basis with
coefficients c_0 ... c_n and maps to the polynomial

    p(z) = sum_k (-1)^k sqrt(C(n, k)) c_k z^(n - k).

Its roots, stereographically lifted to the unit sphere through
zeta = tan(theta/2) e^(i phi), are the Majorana stars; a degree deficit
of d places d stars at the south pole (theta = pi, the image of
infinity).  Root multiplicities partition n, and the number of distinct
stars grades symmetric states from coherent (one star) to fully
non-degenerate (n stars).

Root finding uses companion-matrix eigenvalues on a geometrically
scaled copy of the polynomial and a residual-guarded Newton polish of
the roots whose residual stands above rounding noise.
Every star is then one member of a single array of chart values
u = z / s: a polished root, ``inf`` for a star at the south pole (a
degree deficit, a coefficient that underflows in the rescale, or a
root that overflows) and ``0`` for one at the north pole.  The members
are clustered by splitting their minimum spanning tree in chordal
metric at its longest edge until every part is accepted, which is the
top-down cut of the single-linkage dendrogram.  A part is
accepted when its diameter fits an acceptance radius that adapts to
the local root multiplicity m: the rounding floor over the m-th Taylor
coefficient at the part's mean, to the power 1/m.  One chart routine
serves both hemispheres, the southern one through the chart of 1/z.
The defaults recover the exact multiplicity partition for states built
with repeated stars and keep genuinely distinct stars separate down to
separations near the ``cluster_tol`` floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .states import MAX_ENTRIES, NumericError, StateVector, ValidationError, _check_qubit_count
from .states import _as_tuple, _normalized, _shown
from .states import _as_complex, _as_instance, _as_int, _as_real, _complex_array, _unit_vector

__all__ = [
    "NotSymmetricError",
    "DickeExpansion",
    "SpherePoint",
    "MajoranaConstellation",
    "SymmetricClassification",
    "symmetrize_check",
    "dicke_state",
    "majorana_polynomial",
    "find_stars",
    "binary_discriminant",
    "coherent_state",
    "classify_symmetric",
]

_EPS = np.finfo(float).eps
_TWO_PI = 2.0 * math.pi


def _wrap_phi(x: float, n: int) -> float:
    """Reduce an azimuth to [0, 2 pi), reporting the band just below 2 pi as 0.

    The averaged root of a star at azimuth 0 comes back with an angle a
    little either side of 0.  ``np.mod`` maps a negative one to
    2 pi - |x|, which stays below 2 pi once |x| exceeds half an ulp of
    2 pi (about 4.4e-16).  For coherent states of n <= 40 qubits the
    angle error of the averaged root measured at most 0.21 n^2 eps 2 pi,
    so azimuths within n^2 eps 2 pi of 2 pi fold to 0.  At n = 40 the
    band is 2.2e-12 rad, far below any resolvable star separation.
    """
    w = float(np.mod(x, _TWO_PI))
    return 0.0 if w >= _TWO_PI - n * n * _EPS * _TWO_PI else w

# acceptance multiplier on the multiplicity-aware noise radius
_GAMMA = 4.0
# scale of the polynomial evaluation noise floor
_FLOOR_C = 4.0
# the exact symmetry test reads the amplitudes in blocks of 2**_BLOCK_BITS
_BLOCK_BITS = 12
# largest degree n of a polynomial: its (2n - 2) x (2n - 2) Sylvester matrix fits MAX_ENTRIES
_MAX_DEGREE = (math.isqrt(MAX_ENTRIES) + 2) // 2


class NotSymmetricError(ValidationError):
    """The state is not invariant under qubit permutations.

    ``drift`` is the amplitude move of the transposition that failed
    the check, NaN where none was measured.
    """

    def __init__(self, message: str, drift: float = math.nan):
        super().__init__(message)
        self.drift = drift


@dataclass(frozen=True, eq=False)
class DickeExpansion:
    """Symmetric-basis coefficients c_0 ... c_n of an n-qubit state.

    Compared and hashed by identity, like any object; compare content
    with ``np.array_equal`` on ``coeffs``.
    """

    n: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        n = _as_int(self.n, "the qubit count n", lo=1)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", _unit_vector(self.coeffs, n + 1, "Dicke coefficients"))


@dataclass(frozen=True)
class SpherePoint:
    """A point on the unit sphere with a star multiplicity.

    ``theta`` lies in [0, pi] and the azimuth ``phi`` in [0, 2 pi).
    Stars found by :func:`find_stars` whose azimuth lies within rounding
    of 2 pi are reported with ``phi = 0``.

    Raises
    ------
    ValidationError
        If ``theta`` or ``phi`` is not a finite real number or lies
        outside its range, or ``multiplicity`` is not an integer >= 1
        (bools are rejected).  ``theta`` and ``multiplicity`` are checked
        by the rules of ``states`` ("theta must be <= 3.141592653589793,
        got 4.0"); the half-open range of ``phi`` has its own message.
    """

    theta: float
    phi: float
    multiplicity: int = 1

    def __post_init__(self) -> None:
        theta = _as_real(self.theta, "theta", lo=0.0, hi=math.pi)
        phi = _as_real(self.phi, "phi")
        if not 0.0 <= phi < _TWO_PI:
            raise ValidationError(f"phi {phi} outside [0, 2 pi)")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "multiplicity", _as_int(self.multiplicity, "multiplicity", lo=1))

    def xyz(self) -> np.ndarray:
        st = math.sin(self.theta)
        return np.array(
            [st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta)]
        )


@dataclass(frozen=True)
class MajoranaConstellation:
    """The stars of one symmetric state.

    Built from ``stars`` and ``discriminant``; the other fields are read
    off the stars.  ``n`` is the sum of the multiplicities,
    ``distinct_count`` the number of stars, and ``partition`` the
    multiplicities in descending order.  ``discriminant`` is the
    normalized binary-form discriminant of the defining polynomial (see
    :func:`binary_discriminant`); it vanishes when some star is
    repeated, and it underflows to 0 for large n, so there 0 does not
    mean a repeated star.

    Raises
    ------
    ValidationError
        If ``stars`` is not a nonempty sequence of :class:`SpherePoint`
        or ``discriminant`` is not a finite number.
    """

    n: int = field(init=False)
    stars: tuple[SpherePoint, ...]
    distinct_count: int = field(init=False)
    partition: tuple[int, ...] = field(init=False)
    discriminant: complex

    def __post_init__(self) -> None:
        what = "stars must be a sequence"
        stars = _as_tuple(self.stars, what, lambda s: _as_instance(s, SpherePoint, "a star"))
        if not stars:
            raise ValidationError("a constellation needs at least one star")
        _as_complex(self.discriminant, "the discriminant")
        partition = tuple(sorted((s.multiplicity for s in stars), reverse=True))
        object.__setattr__(self, "stars", stars)
        object.__setattr__(self, "n", sum(partition))
        object.__setattr__(self, "distinct_count", len(stars))
        object.__setattr__(self, "partition", partition)


@dataclass(frozen=True)
class SymmetricClassification:
    """Constellation plus its onion level, set to the distinct star count."""

    constellation: MajoranaConstellation
    onion_level: int = field(init=False)

    def __post_init__(self) -> None:
        con = _as_instance(self.constellation, MajoranaConstellation, "the constellation")
        object.__setattr__(self, "onion_level", con.distinct_count)

    @property
    def n(self) -> int:
        return self.constellation.n

    def precedes(self, other: "SymmetricClassification") -> bool:
        """Strict onion order; defined only between equal qubit counts."""
        other = _as_instance(other, SymmetricClassification, "the other classification")
        if self.n != other.n:
            raise ValidationError(
                f"onion order is defined only for equal qubit counts "
                f"({self.n} vs {other.n})"
            )
        return self.onion_level < other.onion_level


def _dicke_weights(n: int) -> np.ndarray:
    """sqrt(C(n, k)) for k = 0 .. n: the norm of the unnormalized Dicke state |D_n^k>.

    Raises NumericError once some C(n, k) leaves the float range (n >= 1030).
    """
    try:
        return np.array([math.sqrt(math.comb(n, k)) for k in range(n + 1)])
    except OverflowError:
        raise NumericError(f"binomial C({_shown(n)}, k) exceeds the float range") from None


def _popcount(bits: int) -> np.ndarray:
    """Hamming weights of the indices 0 .. 2**bits - 1, as uint8."""
    return np.bitwise_count(np.arange(2**bits, dtype=np.uint32))


def _exactly_symmetric(flat: np.ndarray, rep: np.ndarray) -> bool:
    """Whether every amplitude equals ``rep[k]``, k its index's Hamming weight.

    ``rep`` holds the amplitudes at the representative indices 2^k - 1.
    Indices 1 and 2, the first two of one weight, are compared as
    scalars first, so a state that is not symmetric usually fails at
    the cost of one comparison.  Then the amplitudes are read in blocks
    of ``2**_BLOCK_BITS``: a block's indices share their high bits, so
    the amplitudes it must hold are one row, picked by the weight of
    those bits, of a table built from the low bits' popcounts.  No
    temporary has 2^n entries.
    """
    n = len(rep) - 1
    if n > 1 and flat[1] != flat[2]:
        return False
    b = min(n, _BLOCK_BITS)
    low = _popcount(b)
    # row w: the block whose high bits weigh w
    table = rep[np.arange(n - b + 1)[:, None] + low]
    for w, block in zip(_popcount(n - b), flat.reshape(-1, low.size)):
        if not (block == table[w]).all():
            return False
    return True


def symmetrize_check(state: StateVector, tolerance: float = 1e-9) -> DickeExpansion:
    """Verify permutation symmetry and project onto the Dicke basis.

    Invariance is checked on the adjacent transpositions, which
    generate the full symmetric group.  Swapping qubits k and k + 1
    exchanges only the 2^(n-2) amplitude pairs whose bits k, k + 1 read
    (0, 1) and (1, 0) and fixes every other amplitude, so each
    transposition is checked on those pairs alone.  The other entries
    of swap(t) - t are exact zeros and the two entries of a pair are
    exact negatives, so the reported drift equals max |swap(t) - t|
    exactly.  The
    coefficient c_k is read from the representative index
    (0, ..., 0, 1, ..., 1) = 2^k - 1 with k trailing ones, scaled by
    sqrt(C(n, k)), then the vector is renormalized.

    The n + 1 representative amplitudes are gathered once.  One exact
    test runs on them before the transpositions: whether every
    amplitude equals the one at its Hamming weight's representative
    index.  When it holds, the transposition loop is skipped.  The
    orbits of the symmetric group on bit strings are the Hamming-weight
    classes, and a - b is exactly 0 for finite floats iff a == b (0.0
    and -0.0 included), so the test holds exactly when every
    transposition drift is 0.0.  Every result, drift and message is
    therefore the loop's own; the test only spares an exactly
    symmetric state the n - 1 passes.

    Raises
    ------
    ValidationError
        If ``tolerance`` is not a real, finite number >= 0, or the
        state is not made of qubits.
    NotSymmetricError
        If some transposition moves the amplitudes by more than
        ``tolerance``; the first such move is its ``drift``.
    """
    tolerance = _as_real(tolerance, "tolerance", lo=0)
    if any(d != 2 for d in _as_instance(state, StateVector, "the state").dims):
        raise ValidationError(f"symmetrize_check needs qubits, got dims {state.dims}")
    n = state.n_parties
    flat = state.amplitudes
    rep = flat[(1 << np.arange(n + 1)) - 1]
    if not _exactly_symmetric(flat, rep):
        for k in range(n - 1):
            p = flat.reshape(2**k, 2, 2, -1)
            drift = float(np.max(np.abs(p[:, 0, 1] - p[:, 1, 0])))
            if drift > tolerance:
                raise NotSymmetricError(
                    f"swap of qubits {k} and {k + 1} moves amplitudes by {drift:.3e}", drift
                )
    coeffs = _dicke_weights(n) * rep
    norm = np.linalg.norm(coeffs)
    if norm == 0.0:
        raise NumericError("symmetric projection vanished")
    return DickeExpansion(n=n, coeffs=coeffs / norm)


def dicke_state(expansion: DickeExpansion) -> StateVector:
    """Full n-qubit state with the given Dicke coefficients.

    Basis index i carries c_k / sqrt(C(n, k)) with k the popcount of i.
    """
    n = _as_instance(expansion, DickeExpansion, "the expansion").n
    _check_qubit_count(n)
    weights = expansion.coeffs / _dicke_weights(n)
    return StateVector((2,) * n, _normalized(weights[_popcount(n)])[0])


def majorana_polynomial(expansion: DickeExpansion) -> np.ndarray:
    """Ascending coefficients of p(z) = sum_k (-1)^k sqrt(C(n,k)) c_k z^(n-k).

    Index j of the output is the coefficient of z^j.
    """
    n = _as_instance(expansion, DickeExpansion, "the expansion").n
    k = np.arange(n, -1, -1)  # the exponent of z is n - k
    return (-1.0) ** k * _dicke_weights(n)[k] * expansion.coeffs[k]


def coherent_state(direction, n: int) -> DickeExpansion:
    """Spin coherent state pointing along ``direction``.

    All n stars coincide at the direction; the round trip through
    :func:`find_stars` recovers partition ``{n}``.

    Parameters
    ----------
    direction : SpherePoint or (theta, phi) pair
        Angles in radians.  A pair's angles may be any finite real
        numbers, theta checked before phi ("theta must be a finite real
        number, got nan").
    n : int
        Qubit count, at least 1.
    """
    n = _as_int(n, "the qubit count n", lo=1)
    if isinstance(direction, SpherePoint):
        theta, phi = direction.theta, direction.phi
    else:
        try:
            theta, phi = direction
        except (TypeError, ValueError):
            raise ValidationError(
                f"direction must be a SpherePoint or a (theta, phi) pair, got {_shown(direction)}"
            ) from None
    theta, phi = _as_real(theta, "theta"), _as_real(phi, "phi")
    half = theta / 2.0
    # one power per k: an array power rounds differently at large n
    c = np.array(
        [
            w * math.cos(half) ** (n - k) * (np.exp(1j * phi) * math.sin(half)) ** k
            for k, w in enumerate(_dicke_weights(n))
        ]
    )
    return DickeExpansion(n=n, coeffs=c / np.linalg.norm(c))


# -- root finding ----------------------------------------------------------


def _padded(poly, n: int) -> np.ndarray:
    """Ascending 1-D finite coefficients of degree at most n, zero-padded to length n + 1.

    n lies in [1, ``_MAX_DEGREE``] = [1, 2049], checked before anything
    is allocated.  Coefficients that are not finite raise ``NumericError``.
    """
    n = _as_int(n, "the qubit count n", lo=1, hi=_MAX_DEGREE)
    a = _complex_array(poly, "the polynomial coefficients")
    if a.ndim != 1:
        raise ValidationError(f"the polynomial coefficients must be 1-D, got shape {a.shape}")
    if a.size > n + 1:
        raise ValidationError(f"polynomial degree {a.size - 1} exceeds qubit count {n}")
    if not np.all(np.isfinite(a)):
        raise NumericError("polynomial coefficients are not finite")
    return np.concatenate([a, np.zeros(n + 1 - a.size, dtype=np.complex128)])


def _scaled_core(a: np.ndarray) -> tuple[np.ndarray, float, int, int]:
    """Rescale z = s u so the polynomial's nonzero core has balanced end coefficients.

    The scale satisfies s^d = |a_lo / a_hi| over the outermost nonzero
    coefficients a_lo, a_hi (d = hi - lo), clamped to [e^-708, e^708],
    and is applied in log space.  One trim of the scaled coefficients
    then strips the ends below the smallest normal float: the exact
    zeros, the coefficients that underflow in the rescale and the
    subnormal ones, whose reciprocals would overflow the companion
    matrix.  Each stripped coefficient is one star at the corresponding
    pole.  Returns the scaled coefficients (max modulus 1), the scale
    s, and the star counts at the south pole (infinity) and the north
    pole (zero).
    """
    nz = np.flatnonzero(a)
    lo, hi = int(nz[0]), int(nz[-1])
    logs = (math.log(abs(a[lo])) - math.log(abs(a[hi]))) / max(hi - lo, 1)
    # s and 1/s stay normal floats; a star beyond that range is a pole star to rounding
    logs = min(max(logs, -708.0), 708.0)
    c = a[nz]
    logb = np.log(np.abs(c)) + (nz - lo) * logs
    # each phase is taken after an exact scaling to modulus [0.5, 1):
    # numpy's complex division by a subnormal modulus overflows
    c = np.ldexp(c.view(np.float64), -np.repeat(np.frexp(np.abs(c))[1], 2)).view(np.complex128)
    b = np.zeros(len(a), dtype=np.complex128)
    b[nz] = np.exp(logb - np.max(logb)) * (c / np.abs(c))
    kept = np.flatnonzero(np.abs(b) >= np.finfo(float).tiny)
    return b[kept[0] : kept[-1] + 1], math.exp(logs), len(a) - 1 - kept[-1], kept[0]


def _floor(coeffs: np.ndarray, c, n: int):
    """Rounding floor of evaluating the chart polynomial at c (elementwise)."""
    abs_value = np.polynomial.polynomial.polyval(np.abs(c), np.abs(coeffs))
    return _FLOOR_C * n * _EPS * abs_value


def _taylor(coeffs: np.ndarray, c, m: int):
    """T_m(c) / C(d, m) for the m-th Taylor coefficient at c (elementwise).

    T_m(c) = sum_j C(j, m) b_j c^(j - m) = p^(m)(c) / m!.  The weights
    C(j, m) / C(d, m), a descending product of (j - m) / j, lie in
    (0, 1], so no degree overflows them.
    """
    j = np.arange(len(coeffs) - 1, m, -1.0)
    w = np.cumprod(np.concatenate(([1.0], (j - m) / j)))[::-1]
    return np.polynomial.polynomial.polyval(c, w * coeffs[m:])


def _polish(u_roots: np.ndarray, bb: np.ndarray, n: int) -> np.ndarray:
    """Newton-correct roots whose residual clearly exceeds rounding noise.

    Works in the u chart of the scaled coefficients ``bb``.  The
    residual check runs on all roots at once, and only the roots that
    fail it take Newton steps.  A non-finite root is a star at infinity
    and comes back as ``inf``.
    """
    d = len(bb) - 1
    # a far root overflows p(z); the finiteness checks stop its step
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.where(np.isfinite(np.abs(u_roots)), u_roots, np.inf)
        residual = np.abs(_taylor(bb, out, 0))
        noisy = np.isfinite(residual) & (residual > 8.0 * _floor(bb, out, n))
        for i in np.flatnonzero(noisy):
            z = complex(out[i])
            for _ in range(3):
                pz = complex(_taylor(bb, z, 0))
                if not np.isfinite(abs(pz)) or abs(pz) <= 8.0 * _floor(bb, z, n):
                    break
                dpz = d * complex(_taylor(bb, z, 1))
                if dpz == 0:
                    break
                znew = z - pz / dpz
                if not np.isfinite(abs(znew)) or abs(_taylor(bb, znew, 0)) >= abs(pz):
                    break
                z = znew
            out[i] = z
    return out


# A cluster of stars is given by the u-chart values of its members (z = s u):
# a root, ``inf`` for a star at the south pole or ``0`` for one at the north
# pole.  It is read in the u chart (bb, s) or in the v chart (bb[::-1], 1/s)
# of v = 1/u, the u chart mirrored through the equator (theta -> pi - theta,
# phi -> -phi).  A degree-0 ``bb`` serves polynomials whose stars all sit at
# the poles.


def _chart(u: np.ndarray, bb: np.ndarray, s: float):
    """(coeffs, scale, mirrored, chart values, root count) of a cluster's chart.

    South-pole members pick the v chart and north-pole members the u
    chart; otherwise the chart is the one where the roots' mean modulus
    is at most 1.  The chart values are the roots in member order, then
    a 0 for each star at the near pole; the far pole is dropped.
    """
    south, north = np.isinf(u), u == 0
    roots = u[~(south | north)]
    mirrored = south.any() or (not north.any() and np.mean(np.abs(roots)) > 1.0)
    coeffs, scale = (bb[::-1], 1.0 / s) if mirrored else (bb, s)
    near_pole = np.zeros(np.count_nonzero(south if mirrored else north))
    values = np.concatenate((1.0 / roots if mirrored else roots, near_pole))
    return coeffs, scale, mirrored, values, len(roots)


def _noise_radius(u: np.ndarray, bb: np.ndarray, s: float, n: int) -> float:
    """Chordal radius a cluster of this size could owe to rounding.

    For a candidate m-fold root near c the perturbation delta moves
    roots by about (delta / |T_m(c)|)^(1/m); evaluating that at the
    polynomial's rounding floor bounds the ring a true multiplet can
    spread into.  The m-th root makes the bound insensitive to the
    floor estimate.  Here m counts the cluster's roots; a cluster with
    no root, or with stars at both poles, gets radius 0.
    """
    coeffs, scale, _, values, m = _chart(u, bb, s)
    if m == 0 or len(values) < len(u):  # fewer values: the far pole was dropped
        return 0.0
    c = complex(np.mean(values))
    t = complex(_taylor(coeffs, c, m))
    if t == 0:
        return math.inf
    # (floor / |T_m|)^(1/m), with T_m = C(d, m) t taken apart so it cannot overflow
    log_binom = math.log(math.comb(len(coeffs) - 1, m))
    r_plane = (_floor(coeffs, c, n) / abs(t)) ** (1.0 / m) * math.exp(-log_binom / m)
    x = scale * abs(c)
    return 2.0 * scale * r_plane / (1.0 + x * x)


def _representative(u: np.ndarray, bb: np.ndarray, s: float, n: int) -> tuple[float, float]:
    """(theta, phi) of a cluster, averaged in its chart.

    Averaging the full multiplet cancels the symmetric part of the root
    perturbation, so repeated stars come back far more accurately than
    any single root.
    """
    _, scale, mirrored, values, _ = _chart(u, bb, s)
    c = complex(np.mean(values))
    theta = 2.0 * math.atan(scale * abs(c))
    phi = float(np.angle(c))
    if mirrored:
        theta, phi = math.pi - theta, -phi
    return theta, _wrap_phi(phi, n)


def _single_linkage_clusters(dist: np.ndarray, accept) -> list[list[int]]:
    """Single-linkage clusters of a distance matrix, cut top-down at ``accept``.

    A single-linkage dendrogram is the minimum spanning tree with its
    edges sorted (Gower and Ross 1969), so the cut splits every part
    that ``accept`` rejects at its longest tree edge.  Prim's method
    grows the tree in O(m^2); ``order`` lists the nodes as they join,
    each after its ``parent``, so a part kept in that order starts with
    the node whose tree edge leaves the part.
    """
    m = len(dist)
    order = [0]
    parent = np.zeros(m, dtype=int)
    weight = np.zeros(m)
    best = dist[0].copy()
    free = np.ones(m, dtype=bool)
    free[0] = False
    for _ in range(m - 1):
        j = int(np.argmin(np.where(free, best, np.inf)))
        free[j] = False
        order.append(j)
        weight[j] = best[j]
        closer = free & (dist[j] < best)
        best[closer] = dist[j, closer]
        parent[closer] = j
    clusters = []
    parts = [order]
    while parts:
        part = parts.pop()
        if len(part) == 1 or accept(part):
            clusters.append(part)
            continue
        k = max(range(1, len(part)), key=lambda i: weight[part[i]])
        side = {part[k]}
        for i in part[k + 1 :]:
            if parent[i] in side:
                side.add(i)
        parts.append([i for i in part if i not in side])
        parts.append([i for i in part if i in side])
    return clusters


def find_stars(poly, n: int, cluster_tol: float = 1e-6) -> MajoranaConstellation:
    """Locate the Majorana stars of a degree-n polynomial.

    Parameters
    ----------
    poly : array-like
        Ascending coefficients from :func:`majorana_polynomial`; may be
        shorter than n + 1, the deficit counting as stars at infinity.
    n : int
        Qubit count; star multiplicities sum to n.  At most 2049, the
        largest n whose (2n - 2) x (2n - 2) Sylvester matrix in
        :func:`binary_discriminant` fits ``states.MAX_ENTRIES``.
    cluster_tol : float, optional
        Chordal floor below which roots always merge.  The effective
        merge radius additionally adapts to the local multiplicity, so
        repeated roots whose numerical ring is wider than this floor
        are still gathered into one star.  Must be a real, finite
        number >= 0.

    Returns
    -------
    MajoranaConstellation

    Raises
    ------
    ValidationError
        If ``cluster_tol`` is not a real, finite number >= 0 (bools
        are rejected), before the coefficients are read; if ``n`` is
        not an integer in [1, 2049]; or if a coefficient is an int
        beyond the float range.
    NumericError
        If a coefficient is not finite, or every coefficient is below
        1e-14 in magnitude.
    """
    cluster_tol = _as_real(cluster_tol, "cluster_tol", lo=0)
    a = _padded(poly, n)
    if float(np.max(np.abs(a))) < 1e-14:
        raise NumericError("degenerate polynomial: all coefficients below 1e-14")

    bb, s, south, north = _scaled_core(a)
    # members: the roots in the u chart, then the stars at the south and north poles
    roots = _polish(np.polynomial.polynomial.polyroots(bb), bb, n)
    u = np.concatenate((roots, np.full(south, np.inf), np.zeros(north)))
    with np.errstate(over="ignore"):
        theta = 2.0 * np.arctan(s * np.abs(u))
    azimuth = np.angle(u)
    pts = np.column_stack(
        (np.sin(theta) * np.cos(azimuth), np.sin(theta) * np.sin(azimuth), np.cos(theta))
    )
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)

    def accept(mem: list[int]) -> bool:
        diam = float(dist[np.ix_(mem, mem)].max())
        return diam <= max(cluster_tol, _GAMMA * _noise_radius(u[mem], bb, s, n))

    stars = [
        SpherePoint(*_representative(u[mem], bb, s, n), multiplicity=len(mem))
        for mem in _single_linkage_clusters(dist, accept)
    ]
    stars.sort(key=lambda sp: (-sp.multiplicity, sp.theta, sp.phi))
    return MajoranaConstellation(stars, binary_discriminant(a, n))


def binary_discriminant(poly, n: int) -> complex:
    """Discriminant of the homogenized degree-n binary form.

    The form F(z, w) = sum_j a_j z^j w^(n-j) is scaled to unit
    coefficient norm, and the discriminant is computed from the
    Sylvester resultant of the two partial derivatives:

        disc = (-1)^(n(n-1)/2) Res(F_z, F_w) / n^(n-2).

    Repeated roots, including repeated roots at infinity, make it
    vanish.  For n = 1 there are no root pairs and the value is 1 by
    convention.

    The normalized value shrinks fast with n and underflows: generic
    states with distinct stars give about 1e-107 at n = 40 and exactly
    0 at n = 100.  For large n a value of 0 therefore does not mean a
    repeated star.  The coefficients are scaled by a power of two before
    the norm is taken, so forms with coefficients near 1e300 or 1e-300
    give the value of the same form rescaled.

    ``n`` is an integer in [1, 2049], as in :func:`find_stars`: the
    Sylvester matrix has (2n - 2)^2 entries, which must fit
    ``states.MAX_ENTRIES``.

    Raises
    ------
    ValidationError
        If ``n`` is out of that range, or a coefficient is an int
        beyond the float range.
    NumericError
        If a coefficient is not finite, or every coefficient is zero.
    """
    a = _padded(poly, n)
    if n == 1:
        return 1.0 + 0j
    # an exact power of two brings the peak part into [0.5, 1) first, so the
    # norm neither overflows nor underflows and a normal-range norm keeps its bits
    parts = a.view(np.float64)
    a = np.ldexp(parts, -math.frexp(float(np.max(np.abs(parts))))[1]).view(np.complex128)
    norm = float(np.linalg.norm(a))
    if norm == 0.0:
        raise NumericError("zero polynomial has no discriminant")
    a = a / norm
    fz = np.array([(j + 1) * a[j + 1] for j in range(n)])  # degree n-1 form
    fw = np.array([(n - j) * a[j] for j in range(n)])
    m = n - 1
    syl = np.zeros((2 * m, 2 * m), dtype=np.complex128)
    p_desc = fz[::-1]
    q_desc = fw[::-1]
    for i in range(m):
        syl[i, i : i + m + 1] = p_desc
        syl[m + i, i : i + m + 1] = q_desc
    # the determinant and n^(n-2) are combined in log space; both overflow near n = 171
    phase, log_abs = np.linalg.slogdet(syl)
    if phase == 0:
        return 0j
    sign = -1.0 if (n * (n - 1) // 2) % 2 else 1.0
    return sign * complex(phase) * math.exp(log_abs - (n - 2) * math.log(n))


def classify_symmetric(
    state: StateVector, tolerance: float = 1e-9, cluster_tol: float = 1e-6
) -> SymmetricClassification:
    """Constellation and onion level of a symmetric state.

    The onion level equals the number of distinct stars: level 1 is the
    coherent (product) extreme, level n the fully non-degenerate top.
    Use :meth:`SymmetricClassification.precedes` to compare two states
    of the same qubit count.  ``cluster_tol`` is checked as in
    :func:`find_stars` before the state is read; then the state's
    :func:`symmetrize_check` expansion goes through
    :func:`majorana_polynomial` to :func:`find_stars`, the path
    Definition 4 of ``classify_state`` takes at ``cluster_tol = 1e-6``.
    """
    _as_real(cluster_tol, "cluster_tol", lo=0)
    expansion = symmetrize_check(state, tolerance)
    con = find_stars(majorana_polynomial(expansion), expansion.n, cluster_tol)
    return SymmetricClassification(con)
