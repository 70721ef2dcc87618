"""Three-qutrit normal-form states and their polynomial invariants.

The three-parameter normal form places a1 on the diagonal triples,
a2 on the cyclic triples and a3 on the anti-cyclic triples of a
3 x 3 x 3 amplitude tensor.  The invariants

    I6  = a1^6 + a2^6 + a3^6 - 10 (a1^3 a2^3 + a1^3 a3^3 + a2^3 a3^3)
    I9  = -(a1^3 - a2^3)(a1^3 - a3^3)(a2^3 - a3^3)
    I12 = -(a1^3 + a2^3 + a3^3) [ (a1^3 + a2^3 + a3^3)^3 + (6 a1 a2 a3)^3 ]
    J12 = (-I12 - I6^2) / 24 = e2 p2 - 3 q2

where, over the cubes x, y, z of a1, a2, a3, e2 = xy + xz + yz,
p2 = [(x - y)^2 + (y - z)^2 + (z - x)^2] / 2 and
q2 = [(xy - yz)^2 + (yz - zx)^2 + (zx - xy)^2] / 2.  They combine into
the degree-36 hyperdeterminant

    Delta = I6^3 I9^2 - I6^2 J12^2 + 36 I6 I9^2 J12 + 108 I9^4 - 32 J12^3.

All invariants are evaluated on the coefficients exactly as given, not
on the normalized state; normalizing rescales Delta by the 36th power
of the normalization factor.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import NamedTuple

from .states import NumericError, StateVector, ValidationError, make_state

__all__ = [
    "NormalFormCoefficients",
    "QutritInvariantReport",
    "PhiFamilyResult",
    "build_normal_form_state",
    "fundamental_invariants",
    "hyperdeterminant_333",
    "phi_family",
]

# one-based slot labels {1,2,3} map to indices {0,1,2}
_DIAGONAL = ((0, 0, 0), (1, 1, 1), (2, 2, 2))
_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
_ANTI_CYCLIC = ((0, 2, 1), (1, 0, 2), (2, 1, 0))

_PHI_ALPHA = ((2, 1, 0), (0, 1, 2))
_PHI_BETA = ((2, 0, 1), (0, 2, 1), (1, 2, 0), (1, 0, 2))

#: real and imaginary parts of w**j, w = exp(2 pi i / 3), for j = 0, 1, 2;
#: the real parts are exact, so forms that vanish at equal coefficients
#: come out as exact zeros
_OMEGA_RE = (1.0, -0.5, -0.5)
_OMEGA_IM = (0.0, math.sqrt(3.0) / 2, -math.sqrt(3.0) / 2)


@dataclass(frozen=True)
class NormalFormCoefficients:
    """Weights (a1, a2, a3) of the three-qutrit normal form."""

    a1: complex
    a2: complex
    a3: complex

    def __post_init__(self) -> None:
        vals = []
        for name in ("a1", "a2", "a3"):
            v = complex(getattr(self, name))
            if not (cmath.isfinite(v)):
                raise ValidationError(f"{name} is not finite")
            vals.append(v)
            object.__setattr__(self, name, v)
        if all(v == 0 for v in vals):
            raise ValidationError("at least one of a1, a2, a3 must be nonzero")

    def as_tuple(self) -> tuple[complex, complex, complex]:
        return (self.a1, self.a2, self.a3)


@dataclass(frozen=True)
class QutritInvariantReport:
    """Invariants of one coefficient triple.

    ``delta`` is evaluated directly from the coefficients in a factored
    form that is numerically stable; the expanded combination of the
    other fields loses up to twelve digits to cancellation in double
    precision.  The J12 relation -I12 - I6^2 = 24 J12 holds to
    rounding.  Every field must be finite.
    """

    i6: complex
    i9: complex
    i12: complex
    j12: complex
    delta: complex

    def __post_init__(self) -> None:
        for f in fields(self):
            if not cmath.isfinite(getattr(self, f.name)):
                raise ValidationError(f"{f.name} is not finite")


class PhiFamilyResult(NamedTuple):
    state: StateVector
    report: QutritInvariantReport
    delta: complex


def _slot_state(groups) -> StateVector:
    """Normalized 3 x 3 x 3 state with each value on its triples; zero values are dropped."""
    return make_state((3, 3, 3), {idx: v for slots, v in groups for idx in slots if v != 0})


def build_normal_form_state(coeffs: NormalFormCoefficients) -> StateVector:
    """Normalized 3 x 3 x 3 state carrying the normal-form weights.

    a1 multiplies the diagonal triples, a2 the cyclic triples
    (1,2,3), (2,3,1), (3,1,2) and a3 the anti-cyclic triples
    (1,3,2), (2,1,3), (3,2,1), in 1-based labels.
    """
    return _slot_state(zip((_DIAGONAL, _CYCLIC, _ANTI_CYCLIC), coeffs.as_tuple()))


# -- scaled pairs -----------------------------------------------------------
# A product form is carried as a pair (m, e) meaning m * 2**e, with the
# larger part of m in [0.5, 1) (or m = 0), renormalized after every
# operation.  No partial product can then overflow, nor its larger part
# go subnormal, and since a power-of-two scale commutes with rounding, each
# operation on the mantissas rounds exactly as the same operation on the
# unscaled floats does wherever those stay in the normal range.

_Pair = tuple[complex, int]


def _ldexp(z: complex, e: int) -> complex:
    """``z * 2**e``, part by part; raises OverflowError past the float range."""
    return complex(math.ldexp(z.real, e), math.ldexp(z.imag, e))


def _scaled(z: complex, e: int = 0) -> _Pair:
    """``z * 2**e`` as a scaled pair; a zero keeps its sign and the exponent ``e``."""
    k = math.frexp(max(abs(z.real), abs(z.imag)))[1]
    return _ldexp(z, -k), e + k


def _mul(*pairs: _Pair) -> _Pair:
    """Product of scaled pairs, left to right; the first mantissa may be a float constant."""
    (m, e), *rest = pairs
    for fm, fe in rest:
        m, e = _scaled(m * fm, e + fe)
    return m, e


def _pow(x: _Pair, n: int) -> _Pair:
    """``x ** n`` for a scaled pair and a small positive integer ``n``."""
    return _scaled(x[0] ** n, n * x[1])


def _sub(x: _Pair, y: _Pair) -> _Pair:
    """``x - y``, aligned at the larger exponent of the nonzero operands."""
    (xm, xe), (ym, ye) = x, y
    e = max(xe if xm else ye, ye if ym else xe)
    return _scaled(_ldexp(xm, xe - e) - _ldexp(ym, ye - e), e)


def _in_range(value: complex, shift: int) -> complex:
    """``value * 2**shift``, checked against the float range.

    Raises
    ------
    NumericError
        If the value overflows, or a nonzero one lands below the
        smallest normal float.
    """
    try:
        out = _ldexp(value, shift)
    except OverflowError as exc:
        raise NumericError(f"invariants overflowed; rescale the coefficients ({exc})") from None
    if value != 0 and max(abs(out.real), abs(out.imag)) < sys.float_info.min:
        raise NumericError("invariants underflowed; rescale the coefficients")
    return out


def _delta_factored(pairs: list[_Pair], a: tuple[complex, ...], e: int) -> _Pair:
    """Delta on this family as a scaled pair.

    ``pairs`` holds the coefficient triple as scaled pairs, ``a`` the
    triple times 2**-e.
    """
    # Delta restricted to this family factors into the twelve linear
    # forms a1, a2, a3 and a1 + w^j a2 + w^k a3 (w a primitive cube
    # root of unity), each cubed, with overall constant -4.  The
    # product form is exact algebra and avoids the catastrophic
    # cancellation of the expanded combination.  The sums are taken on
    # the scaled triple, the single factors on the unscaled one.
    a1, a2, a3 = a
    forms = (
        _scaled(
            a1
            + (_OMEGA_RE[j] * a2 + _OMEGA_RE[k] * a3)
            + 1j * (_OMEGA_IM[j] * a2 + _OMEGA_IM[k] * a3),
            e,
        )
        for j in range(3)
        for k in range(3)
    )
    prod = _pow(_mul(*pairs), 3)
    return _mul(prod, *(_pow(f, 3) for f in forms), (-4.0, 0))


def fundamental_invariants(coeffs: NormalFormCoefficients) -> QutritInvariantReport:
    """Evaluate I6, I9, I12, J12 and Delta for a coefficient triple.

    Parameters
    ----------
    coeffs : NormalFormCoefficients

    Returns
    -------
    QutritInvariantReport

    Raises
    ------
    NumericError
        If an invariant overflows, or a nonzero one underflows below the
        smallest normal float.

    Examples
    --------
    >>> r = fundamental_invariants(NormalFormCoefficients(1, 0, 0))
    >>> (r.i6, r.i9, r.i12, r.j12)
    ((1+0j), -0j, (-1-0j), 0j)
    """
    # I6, I12 and J12 are sums: each is homogeneous (degree 6, 12, 12), so
    # evaluate it on the triple divided by the power of two 2**e just above
    # its largest part, then multiply by 2**(degree * e).  Both scalings are
    # exact, so the values are those of the unscaled triple, and an
    # underflow is caught instead of read as a vanishing invariant.  I9 and
    # Delta are product forms, carried as scaled pairs throughout.
    pairs = [_scaled(v) for v in coeffs.as_tuple()]
    e = max(k for m, k in pairs if m)
    a = a1, a2, a3 = tuple(_ldexp(v, -e) for v in coeffs.as_tuple())
    c1, c2, c3 = a1**3, a2**3, a3**3
    e2 = c1 * c2 + c1 * c3 + c2 * c3
    i6 = a1**6 + a2**6 + a3**6 - 10.0 * e2
    s = c1 + c2 + c3
    i12 = -s * (s**3 + (6.0 * a1 * a2 * a3) ** 3)
    # J12 = e2 p2 - 3 q2 in the cubes (module docstring), not the
    # cancelling (-I12 - I6^2) / 24: its differences are exact zeros at
    # equal cubes and its products exact zeros at two zero cubes, the
    # triples where J12 vanishes
    j12 = e2 * ((c1 - c2) ** 2 + (c2 - c3) ** 2 + (c3 - c1) ** 2) / 2.0 - 1.5 * (
        (c1 * c2 - c2 * c3) ** 2 + (c2 * c3 - c3 * c1) ** 2 + (c3 * c1 - c1 * c2) ** 2
    )
    p1, p2, p3 = (_pow(p, 3) for p in pairs)
    d12, d13, d23 = _sub(p1, p2), _sub(p1, p3), _sub(p2, p3)
    i9 = _mul((-d12[0], d12[1]), d13, d23)
    return QutritInvariantReport(
        i6=_in_range(i6, 6 * e),
        i9=_in_range(*i9),
        i12=_in_range(i12, 12 * e),
        j12=_in_range(j12, 12 * e),
        delta=_in_range(*_delta_factored(pairs, a, e)),
    )


# -- exact-rational helpers for the Delta combination ----------------------
# Each float is an exact dyadic rational, so evaluating the combination
# with Fraction arithmetic rounds exactly once, at the end.

_FC = tuple[Fraction, Fraction]


def _fc(z: complex) -> _FC:
    return (Fraction(z.real), Fraction(z.imag))


def _fc_mul(*factors: _FC) -> _FC:
    """Exact product of any number of complex rationals."""
    re, im = Fraction(1), Fraction(0)
    for x, y in factors:
        re, im = re * x - im * y, re * y + im * x
    return re, im


def hyperdeterminant_333(report: QutritInvariantReport) -> complex:
    """Evaluate Delta from a report's I6, I9 and J12.

    The combination
    ``I6^3 I9^2 - I6^2 J12^2 + 36 I6 I9^2 J12 + 108 I9^4 - 32 J12^3``
    is evaluated in exact rational arithmetic on the stored values and
    rounded once, so no precision is lost beyond what the inputs carry.

    Raises
    ------
    ValidationError
        If the report violates -I12 - I6^2 = 24 J12 beyond relative
        1e-9.
    NumericError
        If that check or the rounded combination lies beyond the float
        range.
    """
    try:
        resid = abs(-report.i12 - report.i6**2 - 24.0 * report.j12)
        scale = max(abs(report.i12), abs(report.i6) ** 2, 24.0 * abs(report.j12))
    except OverflowError:
        resid = math.inf
    if not math.isfinite(resid):
        raise NumericError("the J12 relation check overflowed; rescale the coefficients")
    if resid > 1e-9 * max(scale, 1.0e-300):
        raise ValidationError(
            f"inconsistent report: J12 relation residual {resid:.3e} "
            f"exceeds relative 1e-9"
        )
    i6, i9, j12 = _fc(report.i6), _fc(report.i9), _fc(report.j12)
    terms = (
        (1, _fc_mul(i6, i6, i6, i9, i9)),
        (-1, _fc_mul(i6, i6, j12, j12)),
        (36, _fc_mul(i6, i9, i9, j12)),
        (108, _fc_mul(i9, i9, i9, i9)),
        (-32, _fc_mul(j12, j12, j12)),
    )
    total = [sum(k * t[part] for k, t in terms) for part in (0, 1)]
    try:
        return complex(float(total[0]), float(total[1]))
    except OverflowError as exc:
        raise NumericError(f"the Delta combination overflowed; rescale the coefficients ({exc})")


def _phi_state(alpha: complex, beta: complex) -> StateVector:
    """The normalized six-term state of :func:`phi_family`."""
    if alpha == 0 and beta == 0:
        raise ValidationError("alpha and beta cannot both be zero")
    return _slot_state(((_PHI_ALPHA, alpha), (_PHI_BETA, beta)))


def phi_family(alpha: complex, beta: complex) -> PhiFamilyResult:
    """The two-parameter six-term family and its invariants.

    The state places alpha on the triples (3,2,1), (1,2,3) and beta on
    (3,1,2), (1,3,2), (2,3,1), (2,1,3), then normalizes.  For the raw
    coefficients the invariants are I6 = -8 alpha^2 beta^4 and
    I9 = I12 = 0, and the hyperdeterminant has the closed form
    Delta = (4096/27) (alpha beta^2)^12.

    Returns
    -------
    PhiFamilyResult
        ``state``, the invariant ``report`` (whose ``delta`` runs
        through the combination of :func:`hyperdeterminant_333`), and
        the closed-form ``delta``.  The two delta routes agree to
        rounding.

    Raises
    ------
    NumericError
        If an invariant or the closed form overflows, or a nonzero one
        underflows below the smallest normal float.

    Examples
    --------
    Only the monomials have to lie in the float range, not the powers
    of alpha and beta:

    >>> res = phi_family(1e-200, 1e100)
    >>> [round(v.real, 12) for v in (res.report.i6, res.report.j12, res.delta)]
    [-8.0, -2.666666666667, 151.703703703704]
    """
    alpha, beta = complex(alpha), complex(beta)
    state = _phi_state(alpha, beta)
    # I6 = -8 alpha^2 beta^4, J12 = -I6^2 / 24 and the closed form
    a, b = _scaled(alpha), _scaled(beta)
    i6 = _mul((-8.0, 0), _pow(a, 2), _pow(b, 4))
    m, e = _pow(i6, 2)
    j12 = _scaled(-m / 24.0, e)
    closed = _mul((4096.0 / 27.0, 0), _pow(_mul(a, _pow(b, 2)), 12))
    i6, j12, closed = (_in_range(*v) for v in (i6, j12, closed))
    report = QutritInvariantReport(i6=i6, i9=0j, i12=0j, j12=j12, delta=0j)
    report = replace(report, delta=hyperdeterminant_333(report))
    return PhiFamilyResult(state=state, report=report, delta=closed)
