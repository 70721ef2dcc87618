"""Three-qutrit normal-form states and their polynomial invariants.

The three-parameter normal form places a1 on the diagonal triples,
a2 on the cyclic triples and a3 on the anti-cyclic triples of a
3 x 3 x 3 amplitude tensor.  The invariants

    I6  = a1^6 + a2^6 + a3^6 - 10 (a1^3 a2^3 + a1^3 a3^3 + a2^3 a3^3)
    I9  = -(a1^3 - a2^3)(a1^3 - a3^3)(a2^3 - a3^3)
    I12 = -(a1^3 + a2^3 + a3^3) [ (a1^3 + a2^3 + a3^3)^3 + (6 a1 a2 a3)^3 ]
    J12 = (-I12 - I6^2) / 24 = e2 p2 - 3 q2

where, over the cubes x, y, z of a1, a2, a3, e2 = xy + xz + yz,
p2 = [(x - y)^2 + (y - z)^2 + (z - x)^2] / 2 = x^2 + y^2 + z^2 - e2 and
q2 = [(xy - yz)^2 + (yz - zx)^2 + (zx - xy)^2] / 2
   = (xy)^2 + (yz)^2 + (zx)^2 - xyz (x + y + z).  They combine into
the degree-36 hyperdeterminant

    Delta = I6^3 I9^2 - I6^2 J12^2 + 36 I6 I9^2 J12 + 108 I9^4 - 32 J12^3.

All invariants are evaluated on the coefficients exactly as given, not
on the normalized state; normalizing rescales Delta by the 36th power
of the normalization factor.  Every float is a dyadic rational, so the
polynomials above are evaluated exactly, in integers, and each value is
rounded once to the nearest float: an invariant that vanishes comes out
as an exact 0, and no intermediate can overflow or lose bits.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

from .states import NumericError, StateVector, ValidationError, _as_complex, _as_instance
from .states import make_state

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


@dataclass(frozen=True)
class NormalFormCoefficients:
    """Weights (a1, a2, a3) of the three-qutrit normal form."""

    a1: complex
    a2: complex
    a3: complex

    def __post_init__(self) -> None:
        for name in ("a1", "a2", "a3"):
            object.__setattr__(self, name, _as_complex(getattr(self, name), name))
        if not any(self.as_tuple()):
            raise ValidationError("at least one of a1, a2, a3 must be nonzero")

    def as_tuple(self) -> tuple[complex, complex, complex]:
        return (self.a1, self.a2, self.a3)


@dataclass(frozen=True)
class QutritInvariantReport:
    """Invariants of one coefficient triple.

    In a report from :func:`fundamental_invariants` every field is the
    exact value of its polynomial on the given coefficients, rounded
    once to the nearest float in each of its real and imaginary parts;
    ``delta`` is therefore the correctly rounded hyperdeterminant, where
    the combination of the other (rounded) fields can lose up to twelve
    digits to cancellation.  The J12 relation -I12 - I6^2 = 24 J12 holds
    to rounding.  Every field must be a finite number and is stored as a complex.
    """

    i6: complex
    i9: complex
    i12: complex
    j12: complex
    delta: complex

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name, _as_complex(getattr(self, f.name), f.name))


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
    coeffs = _as_instance(coeffs, NormalFormCoefficients, "the coefficients")
    return _slot_state(zip((_DIAGONAL, _CYCLIC, _ANTI_CYCLIC), coeffs.as_tuple()))


class _Exact:
    """Exact complex dyadic rational ``(re + i im) * 2**exp`` with integer parts.

    Sums, differences and products are exact integer operations; a sum
    aligns its operands at the smaller exponent by a shift, so no gcd is
    ever taken.  An integer may multiply from either side.
    """

    __slots__ = ("re", "im", "exp")

    def __init__(self, re: int, im: int = 0, exp: int = 0) -> None:
        self.re, self.im, self.exp = re, im, exp

    @classmethod
    def of(cls, z: complex) -> _Exact:
        """The exact value of a complex float."""
        (a, da), (b, db) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
        d = max(da, db)  # both are powers of two
        return cls(a * (d // da), b * (d // db), 1 - d.bit_length())

    def __neg__(self) -> _Exact:
        return _Exact(-self.re, -self.im, self.exp)

    def __add__(self, other: _Exact) -> _Exact:
        lo, hi = (self, other) if self.exp <= other.exp else (other, self)
        k = hi.exp - lo.exp
        return _Exact(lo.re + (hi.re << k), lo.im + (hi.im << k), lo.exp)

    def __sub__(self, other: _Exact) -> _Exact:
        return self + -other

    def __mul__(self, other: _Exact | int) -> _Exact:
        if isinstance(other, int):
            return _Exact(self.re * other, self.im * other, self.exp)
        a, b, c, d = self.re, self.im, other.re, other.im
        return _Exact(a * c - b * d, a * d + b * c, self.exp + other.exp)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> _Exact:
        out = self
        for _ in range(n - 1):
            out = out * self
        return out


def _invariant(x: _Exact, den: int = 1, what: str = "invariants") -> complex:
    """``x / den`` for a positive integer ``den``, each part rounded once to the nearest float.

    Raises
    ------
    NumericError
        If a part overflows, or a nonzero ``x`` lands below the smallest
        normal float; the message names ``what``.
    """
    # Python's int / int true division is correctly rounded
    up, down = max(x.exp, 0), max(-x.exp, 0)
    try:
        out = complex(*((n << up) / (den << down) for n in (x.re, x.im)))
    except OverflowError as exc:
        raise NumericError(f"{what} overflowed; rescale the coefficients ({exc})") from None
    if (x.re or x.im) and max(abs(out.real), abs(out.imag)) < sys.float_info.min:
        raise NumericError(f"{what} underflowed; rescale the coefficients")
    return out


def _combination(i6: _Exact, i9: _Exact, j12: _Exact) -> _Exact:
    """``I6^3 I9^2 - I6^2 J12^2 + 36 I6 I9^2 J12 + 108 I9^4 - 32 J12^3``, exactly."""
    q = i9 * i9
    return i6**3 * q - i6**2 * j12**2 + 36 * i6 * q * j12 + 108 * q * q - 32 * j12**3


def fundamental_invariants(coeffs: NormalFormCoefficients) -> QutritInvariantReport:
    """Evaluate I6, I9, I12, J12 and Delta for a coefficient triple.

    Each is the exact value of its polynomial (module docstring) on the
    given coefficients, rounded once.

    Parameters
    ----------
    coeffs : NormalFormCoefficients

    Returns
    -------
    QutritInvariantReport

    Raises
    ------
    ValidationError
        If ``coeffs`` is not a :class:`NormalFormCoefficients`.
    NumericError
        If an invariant overflows, or a nonzero one underflows below the
        smallest normal float.

    Examples
    --------
    >>> r = fundamental_invariants(NormalFormCoefficients(1, 0, 0))
    >>> (r.i6, r.i9, r.i12, r.j12)
    ((1+0j), 0j, (-1+0j), 0j)
    """
    coeffs = _as_instance(coeffs, NormalFormCoefficients, "the coefficients")
    a1, a2, a3 = (_Exact.of(v) for v in coeffs.as_tuple())
    x, y, z = a1**3, a2**3, a3**3
    xy, yz, zx = x * y, y * z, z * x
    e2, p, s = xy + yz + zx, x * x + y * y + z * z, x + y + z
    i6 = p - 10 * e2
    i9 = -((x - y) * (x - z) * (y - z))
    i12 = -(s * (s**3 + 216 * xy * z))
    j12 = e2 * (p - e2) - 3 * (xy * xy + yz * yz + zx * zx - xy * z * s)
    # Delta, of degree 36, is formed only after the others pass the range
    # check, which spares its cost where they already overflow
    rounded = [_invariant(v) for v in (i6, i9, i12, j12)]
    return QutritInvariantReport(*rounded, delta=_invariant(_combination(i6, i9, j12)))


def hyperdeterminant_333(report: QutritInvariantReport) -> complex:
    """Evaluate Delta from a report's I6, I9 and J12.

    The combination
    ``I6^3 I9^2 - I6^2 J12^2 + 36 I6 I9^2 J12 + 108 I9^4 - 32 J12^3``
    is evaluated exactly on the stored values and rounded once, so no
    precision is lost beyond what the inputs carry.

    Raises
    ------
    ValidationError
        If ``report`` is not a :class:`QutritInvariantReport`, or it
        violates -I12 - I6^2 = 24 J12 beyond relative 1e-9.
    NumericError
        If that check or the rounded combination overflows, or a
        nonzero combination underflows below the smallest normal float.
    """
    report = _as_instance(report, QutritInvariantReport, "the report")
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
    values = (_Exact.of(v) for v in (report.i6, report.i9, report.j12))
    return _invariant(_combination(*values), what="the Delta combination")


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
        the closed-form ``delta``.  I6, J12 = -I6^2 / 24 and the closed
        form are exact values rounded once; the two delta routes agree
        to rounding.

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
    alpha, beta = _as_complex(alpha, "alpha"), _as_complex(beta, "beta")
    state = _phi_state(alpha, beta)
    a, b = _Exact.of(alpha), _Exact.of(beta)
    i6 = -8 * a * a * b**4
    report = QutritInvariantReport(
        i6=_invariant(i6),
        i9=0j,
        i12=0j,
        j12=_invariant(-(i6 * i6), den=24),
        delta=0j,
    )
    closed = _invariant(4096 * (a * b * b) ** 12, den=27)
    report = replace(report, delta=hyperdeterminant_333(report))
    return PhiFamilyResult(state=state, report=report, delta=closed)
