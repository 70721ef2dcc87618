"""Three-qutrit normal-form states and their polynomial invariants.

The three-parameter normal form places a1 on the diagonal triples,
a2 on the cyclic triples and a3 on the anti-cyclic triples of a
3 x 3 x 3 amplitude tensor.  The invariants

    I6  = a1^6 + a2^6 + a3^6 - 10 (a1^3 a2^3 + a1^3 a3^3 + a2^3 a3^3)
    I9  = -(a1^3 - a2^3)(a1^3 - a3^3)(a2^3 - a3^3)
    I12 = -(a1^3 + a2^3 + a3^3) [ (a1^3 + a2^3 + a3^3)^3 + (6 a1 a2 a3)^3 ]
    J12 = (-I12 - I6^2) / 24

combine into the degree-36 hyperdeterminant

    Delta = I6^3 I9^2 - I6^2 J12^2 + 36 I6 I9^2 J12 + 108 I9^4 - 32 J12^3.

All invariants are evaluated on the coefficients exactly as given, not
on the normalized state; normalizing rescales Delta by the 36th power
of the normalization factor.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, replace
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

#: a primitive cube root of unity
_OMEGA = cmath.exp(2j * cmath.pi / 3)


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
    precision.  The J12 relation -I12 - I6^2 = 24 J12 holds by
    construction.
    """

    i6: complex
    i9: complex
    i12: complex
    j12: complex
    delta: complex


class PhiFamilyResult(NamedTuple):
    state: StateVector
    report: QutritInvariantReport
    delta: complex


def build_normal_form_state(coeffs: NormalFormCoefficients) -> StateVector:
    """Normalized 3 x 3 x 3 state carrying the normal-form weights.

    a1 multiplies the diagonal triples, a2 the cyclic triples
    (1,2,3), (2,3,1), (3,1,2) and a3 the anti-cyclic triples
    (1,3,2), (2,1,3), (3,2,1), in 1-based labels.
    """
    entries = {}
    for idx in _DIAGONAL:
        entries[idx] = coeffs.a1
    for idx in _CYCLIC:
        entries[idx] = coeffs.a2
    for idx in _ANTI_CYCLIC:
        entries[idx] = coeffs.a3
    entries = {k: v for k, v in entries.items() if v != 0}
    return make_state((3, 3, 3), entries)


def _delta_factored(a1: complex, a2: complex, a3: complex) -> tuple[complex, list[complex]]:
    """Delta on this family and the twelve linear forms whose cubes it multiplies."""
    # Delta restricted to this family factors into the twelve linear
    # forms a1, a2, a3 and a1 + w^j a2 + w^k a3 (w a primitive cube
    # root of unity), each cubed, with overall constant -4.  The
    # product form is exact algebra and avoids the catastrophic
    # cancellation of the expanded combination.
    forms = [a1 + _OMEGA**j * a2 + _OMEGA**k * a3 for j in range(3) for k in range(3)]
    prod = (a1 * a2 * a3) ** 3
    for f in forms:
        prod *= f**3
    return -4.0 * prod, [a1, a2, a3] + forms


def _ldexp(z: complex, e: int) -> complex:
    """``z * 2**e``, part by part; raises OverflowError past the float range."""
    return complex(math.ldexp(z.real, e), math.ldexp(z.imag, e))


def _exponent(z: complex) -> int:
    """The e with 2**(e-1) <= max(|Re z|, |Im z|) < 2**e; 0 for z = 0."""
    return math.frexp(max(abs(z.real), abs(z.imag)))[1]


def _in_range(value: complex, shift: int = 0, factors=None) -> complex:
    """``value * 2**shift``, checked against the float range.

    ``factors``, when given, are numbers whose product times ``2**shift``
    is ``value`` in exact algebra.  A product of nonzero factors is not
    0, so when ``value`` rounded to 0 (a partial product underflowed)
    it is recomputed as that product with the power of two carried
    apart.  Other zeros are kept: an exact zero factor, or a difference
    that cancels.

    Raises
    ------
    NumericError
        If the value overflows, or a nonzero one lands below the
        smallest normal float.
    """
    if value == 0 and factors is not None and all(factors):
        value = 1 + 0j
        for f in factors:
            k = _exponent(f)
            value *= _ldexp(f, -k)
            j = _exponent(value)
            value, shift = _ldexp(value, -j), shift + k + j
    try:
        out = _ldexp(value, shift)
    except OverflowError as exc:
        raise NumericError(f"invariants overflowed; rescale the coefficients ({exc})") from None
    if not cmath.isfinite(out):
        raise NumericError("invariants overflowed; rescale the coefficients")
    if value != 0 and max(abs(out.real), abs(out.imag)) < sys.float_info.min:
        raise NumericError("invariants underflowed; rescale the coefficients")
    return out


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
    # each invariant is homogeneous (degrees 6, 9, 12, 12, 36): evaluate it
    # on the triple divided by the power of two 2**e just above its largest
    # part, then multiply by 2**(degree * e).  Both scalings are exact, so
    # the values are those of the unscaled triple, and an underflow is
    # caught instead of read as a vanishing invariant.  I9 and Delta are
    # product forms: I9 = -prod_{i<j} prod_k (a_i - w^k a_j).
    e = math.frexp(max(max(abs(v.real), abs(v.imag)) for v in coeffs.as_tuple()))[1]
    a1, a2, a3 = (_ldexp(v, -e) for v in coeffs.as_tuple())
    c1, c2, c3 = a1**3, a2**3, a3**3
    i6 = a1**6 + a2**6 + a3**6 - 10.0 * (c1 * c2 + c1 * c3 + c2 * c3)
    i9 = -(c1 - c2) * (c1 - c3) * (c2 - c3)
    i9_forms = [x - _OMEGA**k * y for x, y in ((a1, a2), (a1, a3), (a2, a3)) for k in range(3)]
    s = c1 + c2 + c3
    i12 = -s * (s**3 + (6.0 * a1 * a2 * a3) ** 3)
    j12 = (-i12 - i6**2) / 24.0
    delta, delta_forms = _delta_factored(a1, a2, a3)
    return QutritInvariantReport(
        i6=_in_range(i6, 6 * e),
        i9=_in_range(i9, 9 * e, [-1.0] + i9_forms),
        i12=_in_range(i12, 12 * e),
        j12=_in_range(j12, 12 * e),
        delta=_in_range(delta, 36 * e, [-4.0] + 3 * delta_forms),
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
        If the rounded combination lies beyond the float range.
    """
    resid = abs(-report.i12 - report.i6**2 - 24.0 * report.j12)
    scale = max(abs(report.i12), abs(report.i6) ** 2, 24.0 * abs(report.j12))
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
    """
    alpha = complex(alpha)
    beta = complex(beta)
    if alpha == 0 and beta == 0:
        raise ValidationError("alpha and beta cannot both be zero")
    entries = {}
    for idx in _PHI_ALPHA:
        entries[idx] = alpha
    for idx in _PHI_BETA:
        entries[idx] = beta
    entries = {k: v for k, v in entries.items() if v != 0}
    state = make_state((3, 3, 3), entries)
    try:
        i6 = -8.0 * alpha**2 * beta**4
        j12 = -(i6**2) / 24.0
        closed = complex((4096.0 / 27.0) * (alpha * beta**2) ** 12)
    except OverflowError:
        raise NumericError("invariants overflowed; rescale the coefficients") from None
    # I6, J12 = -(8/3) alpha^4 beta^8 and the closed form: monomials c alpha^p beta^q
    i6, j12, closed = (
        _in_range(v, factors=[c] + p * [alpha] + q * [beta])
        for v, c, p, q in ((i6, -8.0, 2, 4), (j12, -8.0 / 3.0, 4, 8), (closed, 4096.0 / 27.0, 12, 24))
    )
    report = QutritInvariantReport(i6=i6, i9=0j, i12=0j, j12=j12, delta=0j)
    report = replace(report, delta=hyperdeterminant_333(report))
    return PhiFamilyResult(state=state, report=report, delta=closed)
