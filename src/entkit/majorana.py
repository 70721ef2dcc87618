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
scaled copy of the polynomial, a residual-guarded Newton polish, and
single-linkage clustering in chordal metric whose acceptance radius
adapts to the local root multiplicity.  The defaults recover the exact
multiplicity partition for states built with repeated stars and keep
genuinely distinct stars separate down to separations near the
``cluster_tol`` floor.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .states import NumericError, StateVector, ValidationError, _check_size

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


class NotSymmetricError(ValidationError):
    """The state is not invariant under qubit permutations."""


@dataclass(frozen=True)
class DickeExpansion:
    """Symmetric-basis coefficients c_0 ... c_n of an n-qubit state."""

    n: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValidationError(f"need at least one qubit, got n={self.n}")
        c = np.asarray(self.coeffs, dtype=np.complex128).reshape(-1)
        if c.size != self.n + 1:
            raise ValidationError(f"need {self.n + 1} Dicke coefficients, got {c.size}")
        if not np.all(np.isfinite(c.view(np.float64))):
            raise ValidationError("Dicke coefficients contain non-finite entries")
        if abs(np.linalg.norm(c) - 1.0) > 1e-9:
            raise ValidationError("Dicke coefficients are not normalized")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)


@dataclass(frozen=True)
class SpherePoint:
    """A point on the unit sphere with a star multiplicity.

    ``theta`` lies in [0, pi] and the azimuth ``phi`` in [0, 2 pi).
    Stars found by :func:`find_stars` whose azimuth lies within rounding
    of 2 pi are reported with ``phi = 0``.
    """

    theta: float
    phi: float
    multiplicity: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta <= math.pi:
            raise ValidationError(f"theta {self.theta} outside [0, pi]")
        if not 0.0 <= self.phi < _TWO_PI:
            raise ValidationError(f"phi {self.phi} outside [0, 2 pi)")
        if self.multiplicity < 1:
            raise ValidationError("multiplicity must be at least 1")

    def xyz(self) -> np.ndarray:
        st = math.sin(self.theta)
        return np.array(
            [st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta)]
        )


@dataclass(frozen=True)
class MajoranaConstellation:
    """The stars of one symmetric state.

    ``partition`` lists the multiplicities in descending order; it sums
    to ``n`` and has one entry per distinct star.  ``discriminant`` is
    the normalized binary-form discriminant of the defining polynomial;
    it vanishes exactly when some star is repeated.
    """

    n: int
    stars: tuple[SpherePoint, ...]
    distinct_count: int
    partition: tuple[int, ...]
    discriminant: complex

    def __post_init__(self) -> None:
        if sum(s.multiplicity for s in self.stars) != self.n:
            raise ValidationError("star multiplicities must sum to n")
        if not (
            self.distinct_count == len(self.stars) == len(self.partition)
        ):
            raise ValidationError("distinct_count must match stars and partition")


@dataclass(frozen=True)
class SymmetricClassification:
    """Constellation plus the onion level (= distinct star count)."""

    constellation: MajoranaConstellation
    onion_level: int

    @property
    def n(self) -> int:
        return self.constellation.n

    def precedes(self, other: "SymmetricClassification") -> bool:
        """Strict onion order; defined only between equal qubit counts."""
        if self.n != other.n:
            raise ValidationError(
                f"onion order is defined only for equal qubit counts "
                f"({self.n} vs {other.n})"
            )
        return self.onion_level < other.onion_level


def symmetrize_check(state: StateVector, tolerance: float = 1e-9) -> DickeExpansion:
    """Verify permutation symmetry and project onto the Dicke basis.

    Invariance is checked on the adjacent transpositions, which
    generate the full symmetric group.  The coefficient c_k is read
    from the representative index (0, ..., 0, 1, ..., 1) with k trailing
    ones, scaled by sqrt(C(n, k)), then the vector is renormalized.

    Raises
    ------
    NotSymmetricError
        If some transposition moves the amplitudes by more than
        ``tolerance``.
    """
    if any(d != 2 for d in state.dims):
        raise ValidationError(f"symmetrize_check needs qubits, got dims {state.dims}")
    n = state.n_parties
    t = state.tensor()
    for k in range(n - 1):
        drift = float(np.max(np.abs(np.swapaxes(t, k, k + 1) - t)))
        if drift > tolerance:
            raise NotSymmetricError(
                f"swap of qubits {k} and {k + 1} moves amplitudes by {drift:.3e}"
            )
    flat = state.amplitudes
    coeffs = np.array(
        [math.sqrt(math.comb(n, k)) * flat[2**k - 1] for k in range(n + 1)]
    )
    norm = np.linalg.norm(coeffs)
    if norm == 0.0:
        raise NumericError("symmetric projection vanished")
    return DickeExpansion(n=n, coeffs=coeffs / norm)


def dicke_state(expansion: DickeExpansion) -> StateVector:
    """Full n-qubit state with the given Dicke coefficients.

    Basis index i carries c_k / sqrt(C(n, k)) with k the popcount of i.
    """
    n = expansion.n
    _check_size(2**n)
    weights = expansion.coeffs / np.array([math.sqrt(math.comb(n, k)) for k in range(n + 1)])
    # popcount of 0 .. 2**n - 1: setting the next high bit adds one to every count
    popcount = np.zeros(1, dtype=np.uint8)
    for _ in range(n):
        popcount = np.concatenate((popcount, popcount + 1))
    amps = weights[popcount]
    return StateVector((2,) * n, amps / np.linalg.norm(amps))


def majorana_polynomial(expansion: DickeExpansion) -> np.ndarray:
    """Ascending coefficients of p(z) = sum_k (-1)^k sqrt(C(n,k)) c_k z^(n-k).

    Index j of the output is the coefficient of z^j.
    """
    n = expansion.n
    a = np.zeros(n + 1, dtype=np.complex128)
    for k in range(n + 1):
        a[n - k] = (-1) ** k * math.sqrt(math.comb(n, k)) * expansion.coeffs[k]
    return a


def coherent_state(direction, n: int) -> DickeExpansion:
    """Spin coherent state pointing along ``direction``.

    All n stars coincide at the direction; the round trip through
    :func:`find_stars` recovers partition ``{n}``.

    Parameters
    ----------
    direction : SpherePoint or (theta, phi) pair
    n : int
        Qubit count, at least 1.
    """
    if n < 1:
        raise ValidationError(f"coherent_state needs n >= 1, got {n}")
    if isinstance(direction, SpherePoint):
        theta, phi = direction.theta, direction.phi
    else:
        theta, phi = float(direction[0]), float(direction[1])
    half = theta / 2.0
    c = np.array(
        [
            math.sqrt(math.comb(n, k))
            * math.cos(half) ** (n - k)
            * (np.exp(1j * phi) * math.sin(half)) ** k
            for k in range(n + 1)
        ]
    )
    return DickeExpansion(n=n, coeffs=c / np.linalg.norm(c))


# -- root finding ----------------------------------------------------------


def _trim_exact(a: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Strip exact-zero ends; returns (core, leading_zeros, trailing_zeros)."""
    hi = len(a) - 1
    while hi > 0 and a[hi] == 0:
        hi -= 1
    lo = 0
    while lo < hi and a[lo] == 0:
        lo += 1
    return a[lo : hi + 1], len(a) - 1 - hi, lo


def _scaled_core(core: np.ndarray) -> tuple[np.ndarray, float, int, int]:
    """Rescale z = s u so the core polynomial has balanced end coefficients.

    The scale satisfies s^d = |core_0 / core_d| and is applied in log
    space; coefficients that underflow after the rescale are treated as
    additional stars at the corresponding pole.  Returns the scaled
    coefficients (max modulus 1), the scale s, and the extra
    (infinity, zero) star counts shed by the rescale.
    """
    d = len(core) - 1
    logs = (math.log(abs(core[0])) - math.log(abs(core[d]))) / d
    s = math.exp(logs)
    logb = np.full(d + 1, -np.inf)
    nz = core != 0
    logb[nz] = np.log(np.abs(core[nz])) + np.arange(d + 1)[nz] * logs
    shift = float(np.max(logb))
    mags = np.where(np.isfinite(logb), np.exp(logb - shift), 0.0)
    phases = np.ones(d + 1, dtype=np.complex128)
    phases[nz] = core[nz] / np.abs(core[nz])
    b = mags * phases
    bb, extra_inf, extra_zero = _trim_exact(b)
    return bb, s, extra_inf, extra_zero


def _polish(u_roots, poly, dpoly, abspoly, n: int):
    """Newton-correct roots whose residual clearly exceeds rounding noise."""
    out = []
    overflow = 0
    for z in u_roots:
        if not np.isfinite(abs(z)):
            overflow += 1
            continue
        for _ in range(3):
            pz = poly(z)
            floor = _FLOOR_C * n * _EPS * abspoly(abs(z))
            if not np.isfinite(abs(pz)) or abs(pz) <= 8.0 * floor:
                break
            dpz = dpoly(z)
            if dpz == 0:
                break
            znew = z - pz / dpz
            if not np.isfinite(abs(znew)) or abs(poly(znew)) >= abs(pz):
                break
            z = znew
        out.append(complex(z))
    return out, overflow


def _chordal_xyz(zeta_abs: float, zeta_angle: float) -> np.ndarray:
    theta = 2.0 * math.atan(zeta_abs)
    st = math.sin(theta)
    return np.array(
        [st * math.cos(zeta_angle), st * math.sin(zeta_angle), math.cos(theta)]
    )


class _ClusterGeometry:
    """Noise radii and representatives for clusters of scaled roots.

    Kinds: 'u' roots carry a value in the scaled chart (z = s u); 'inf'
    and 'zero' members are exact pole stars shed by trimming.
    """

    def __init__(self, bb: np.ndarray, s: float, n: int):
        self.s = s
        self.n = n
        self.deg = len(bb) - 1
        self.fwd = [np.polynomial.Polynomial(bb)]
        self.rev = [np.polynomial.Polynomial(bb[::-1].copy())]
        for _ in range(self.deg):
            self.fwd.append(self.fwd[-1].deriv())
            self.rev.append(self.rev[-1].deriv())
        self.abs_fwd = np.polynomial.Polynomial(np.abs(bb))
        self.abs_rev = np.polynomial.Polynomial(np.abs(bb[::-1]))

    def noise_radius(self, kinds, values) -> float:
        """Chordal radius a cluster of this size could owe to rounding.

        For a candidate m-fold root near c the perturbation delta moves
        roots by about (m! delta / |p^(m)(c)|)^(1/m); evaluating that at
        the polynomial's rounding floor bounds the ring a true multiplet
        can spread into.  The m-th root makes the bound insensitive to
        the floor estimate.
        """
        us = [v for k, v in zip(kinds, values) if k == "u"]
        m = len(us)
        if m == 0:
            return 0.0
        has_inf = "inf" in kinds
        has_zero = "zero" in kinds
        if has_inf and has_zero:
            return 0.0
        if has_inf:
            chart = "v"
        elif has_zero:
            chart = "u"
        else:
            chart = "u" if np.mean([abs(u) for u in us]) <= 1.0 else "v"
        if m > self.deg:
            return math.inf
        if chart == "v":
            vals = [0.0 if k == "inf" else 1.0 / v for k, v in zip(kinds, values) if k != "zero"]
            if not all(np.isfinite(abs(v)) for v in vals):
                return 0.0
            cbar = np.mean(vals)
            floor = _FLOOR_C * self.n * _EPS * self.abs_rev(abs(cbar))
            dm = abs(self.rev[m](cbar))
            if dm == 0.0:
                return math.inf
            r_plane = (math.factorial(m) * floor / dm) ** (1.0 / m)
            wbar = abs(cbar) / self.s
            return 2.0 * (r_plane / self.s) / (1.0 + wbar**2)
        vals = [0.0 if k == "zero" else v for k, v in zip(kinds, values) if k != "inf"]
        cbar = np.mean(vals)
        floor = _FLOOR_C * self.n * _EPS * self.abs_fwd(abs(cbar))
        dm = abs(self.fwd[m](cbar))
        if dm == 0.0:
            return math.inf
        r_plane = (math.factorial(m) * floor / dm) ** (1.0 / m)
        zbar = self.s * abs(cbar)
        return 2.0 * (self.s * r_plane) / (1.0 + zbar**2)

    def representative(self, kinds, values) -> tuple[float, float]:
        """(theta, phi) of a cluster, averaged in the better chart.

        Averaging the full multiplet cancels the symmetric part of the
        root perturbation, so repeated stars come back far more
        accurately than any single root.
        """
        if all(k == "inf" for k in kinds):
            return math.pi, 0.0
        if all(k == "zero" for k in kinds):
            return 0.0, 0.0
        us = [v for k, v in zip(kinds, values) if k == "u"]
        if "inf" in kinds or np.mean([abs(u) for u in us]) > 1.0:
            vals = [0.0 if k == "inf" else 1.0 / v for k, v in zip(kinds, values) if k != "zero"]
            vbar = complex(np.mean(vals))
            if vbar == 0 or not np.isfinite(abs(vbar)):
                return math.pi, 0.0
            theta = math.pi - 2.0 * math.atan(abs(vbar) / self.s)
            return theta, _wrap_phi(-float(np.angle(vbar)), self.n)
        vals = [0.0 if k == "zero" else v for k, v in zip(kinds, values) if k != "inf"]
        ubar = complex(np.mean(vals))
        theta = 2.0 * math.atan(self.s * abs(ubar))
        return theta, _wrap_phi(float(np.angle(ubar)), self.n) if ubar != 0 else 0.0


def _single_linkage_clusters(pts, accept) -> list[list[int]]:
    """Single-linkage merge tree, cut top-down at the accept predicate."""
    m = len(pts)
    if m == 1:
        return [[0]]
    dist = {}
    for i, j in itertools.combinations(range(m), 2):
        dist[(i, j)] = dist[(j, i)] = float(np.linalg.norm(pts[i] - pts[j]))
    members = {i: [i] for i in range(m)}
    children: dict[int, tuple[int, int]] = {}
    active = list(range(m))
    nid = m
    while len(active) > 1:
        best = min(
            ((dist[(x, y)], x, y) for x, y in itertools.combinations(active, 2)),
            key=lambda t: t[0],
        )
        _, x, y = best
        members[nid] = members[x] + members[y]
        children[nid] = (x, y)
        for w in active:
            if w not in (x, y):
                dv = min(dist[(x, w)], dist[(y, w)])
                dist[(nid, w)] = dist[(w, nid)] = dv
        active = [w for w in active if w not in (x, y)]
        active.append(nid)
        nid += 1
    out: list[list[int]] = []

    def descend(cid: int) -> None:
        mem = members[cid]
        if len(mem) == 1 or accept(mem):
            out.append(mem)
            return
        cx, cy = children[cid]
        descend(cx)
        descend(cy)

    descend(nid - 1)
    return out


def find_stars(poly, n: int, cluster_tol: float = 1e-6) -> MajoranaConstellation:
    """Locate the Majorana stars of a degree-n polynomial.

    Parameters
    ----------
    poly : array-like
        Ascending coefficients from :func:`majorana_polynomial`; may be
        shorter than n + 1, the deficit counting as stars at infinity.
    n : int
        Qubit count; star multiplicities sum to n.
    cluster_tol : float, optional
        Chordal floor below which roots always merge.  The effective
        merge radius additionally adapts to the local multiplicity, so
        repeated roots whose numerical ring is wider than this floor
        are still gathered into one star.

    Returns
    -------
    MajoranaConstellation

    Raises
    ------
    NumericError
        If every coefficient is below 1e-14 in magnitude.
    """
    a = np.asarray(poly, dtype=np.complex128).reshape(-1)
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    if a.size > n + 1:
        raise ValidationError(f"polynomial degree {a.size - 1} exceeds qubit count {n}")
    if a.size < n + 1:
        a = np.concatenate([a, np.zeros(n + 1 - a.size, dtype=np.complex128)])
    if not np.all(np.isfinite(a.view(np.float64))):
        raise NumericError("polynomial coefficients are not finite")
    if float(np.max(np.abs(a))) < 1e-14:
        raise NumericError("degenerate polynomial: all coefficients below 1e-14")

    core, n_inf, n_zero = _trim_exact(a)
    if len(core) == 1:
        kinds = ["inf"] * n_inf + ["zero"] * n_zero
        values: list[complex] = [0j] * (n_inf + n_zero)
        geom = None
        s = 1.0
    else:
        bb, s, extra_inf, extra_zero = _scaled_core(core)
        n_inf += extra_inf
        n_zero += extra_zero
        if len(bb) > 1:
            raw = np.polynomial.Polynomial(bb).roots()
        else:
            raw = np.array([], dtype=np.complex128)
        poly_b = np.polynomial.Polynomial(bb)
        roots, overflow = _polish(
            raw, poly_b, poly_b.deriv(), np.polynomial.Polynomial(np.abs(bb)), n
        )
        n_inf += overflow
        kinds = ["u"] * len(roots) + ["inf"] * n_inf + ["zero"] * n_zero
        values = list(roots) + [0j] * (n_inf + n_zero)
        geom = _ClusterGeometry(bb, s, n)
    if len(kinds) != n:
        raise NumericError(f"recovered {len(kinds)} roots for degree {n}")

    pts = []
    for k, v in zip(kinds, values):
        if k == "u":
            zu = s * abs(v)
            pts.append(_chordal_xyz(zu if np.isfinite(zu) else math.inf, float(np.angle(v))))
        elif k == "inf":
            pts.append(np.array([0.0, 0.0, -1.0]))
        else:
            pts.append(np.array([0.0, 0.0, 1.0]))

    def accept(mem: list[int]) -> bool:
        diam = max(
            float(np.linalg.norm(pts[i] - pts[j]))
            for i, j in itertools.combinations(mem, 2)
        )
        radius = (
            geom.noise_radius([kinds[i] for i in mem], [values[i] for i in mem])
            if geom is not None
            else 0.0
        )
        return diam <= max(cluster_tol, _GAMMA * radius)

    groups = _single_linkage_clusters(pts, accept)

    stars = []
    for mem in groups:
        ks = [kinds[i] for i in mem]
        vs = [values[i] for i in mem]
        if geom is None:
            theta, phi = (math.pi, 0.0) if ks[0] == "inf" else (0.0, 0.0)
        else:
            theta, phi = geom.representative(ks, vs)
        stars.append(SpherePoint(theta=theta, phi=phi, multiplicity=len(mem)))
    stars.sort(key=lambda sp: (-sp.multiplicity, sp.theta, sp.phi))
    partition = tuple(sorted((sp.multiplicity for sp in stars), reverse=True))
    return MajoranaConstellation(
        n=n,
        stars=tuple(stars),
        distinct_count=len(stars),
        partition=partition,
        discriminant=binary_discriminant(a, n),
    )


def binary_discriminant(poly, n: int) -> complex:
    """Discriminant of the homogenized degree-n binary form.

    The form F(z, w) = sum_j a_j z^j w^(n-j) is scaled to unit
    coefficient norm, and the discriminant is computed from the
    Sylvester resultant of the two partial derivatives:

        disc = (-1)^(n(n-1)/2) Res(F_z, F_w) / n^(n-2).

    Repeated roots, including repeated roots at infinity, make it
    vanish.  For n = 1 there are no root pairs and the value is 1 by
    convention.
    """
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    a = np.asarray(poly, dtype=np.complex128).reshape(-1)
    if a.size > n + 1:
        raise ValidationError(f"polynomial degree {a.size - 1} exceeds qubit count {n}")
    if a.size < n + 1:
        a = np.concatenate([a, np.zeros(n + 1 - a.size, dtype=np.complex128)])
    if n == 1:
        return 1.0 + 0j
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
    resultant = complex(np.linalg.det(syl))
    sign = -1.0 if (n * (n - 1) // 2) % 2 else 1.0
    return sign * resultant / float(n) ** (n - 2)


def classify_symmetric(
    state: StateVector, tolerance: float = 1e-9, cluster_tol: float = 1e-6
) -> SymmetricClassification:
    """Constellation and onion level of a symmetric state.

    The onion level equals the number of distinct stars: level 1 is the
    coherent (product) extreme, level n the fully non-degenerate top.
    Use :meth:`SymmetricClassification.precedes` to compare two states
    of the same qubit count.
    """
    expansion = symmetrize_check(state, tolerance)
    constellation = find_stars(
        majorana_polynomial(expansion), expansion.n, cluster_tol
    )
    return SymmetricClassification(
        constellation=constellation, onion_level=constellation.distinct_count
    )
