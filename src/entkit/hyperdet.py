"""The 2x2x2 hyperdeterminant and the three-qubit class split.

``cayley_hyperdeterminant`` evaluates the degree-4 polynomial in the
eight amplitudes c_ijk as the discriminant of the slice pencil.  With
the slices A = c_0jk and B = c_1jk along the first party,

    det(A + t B) = det A + m t + det B t^2,
    m = A00 B11 + B00 A11 - A01 B10 - B01 A10,

and Det = m^2 - 4 det A det B (Gelfand, Kapranov and Zelevinsky 1994,
ch. 14), so only the two-qubit determinant kernel and one mixed term
enter.  Written out term by term, this is Cayley's quartic

    Det =   c000^2 c111^2 + c001^2 c110^2 + c010^2 c101^2 + c100^2 c011^2
          - 2 (c000 c001 c110 c111 + c000 c010 c101 c111 + c000 c100 c011 c111
               + c001 c010 c101 c110 + c001 c100 c011 c110 + c010 c100 c011 c101)
          + 4 (c000 c011 c101 c110 + c001 c010 c100 c111)

It vanishes on product states and on the W orbit and is nonzero on the
GHZ orbit, where |Det(GHZ)| = 1/4.
"""

from __future__ import annotations

from enum import Enum

from .schmidt import _det2
from .states import StateVector, ValidationError, _as_instance, _as_real

__all__ = ["ThreeQubitClass", "cayley_hyperdeterminant", "classify_three_qubit"]

#: |Det| above this puts a three-qubit state in the GHZ class
_GHZ_TOLERANCE = 1e-10


class ThreeQubitClass(Enum):
    GHZ = "GHZClass"
    DEGENERATE = "DegenerateClass"


def cayley_hyperdeterminant(state: StateVector) -> complex:
    """Degree-4 hyperdeterminant of a three-qubit state.

    Parameters
    ----------
    state : StateVector
        Dims must be exactly (2, 2, 2).

    Returns
    -------
    complex
        The polynomial above evaluated on the normalized amplitudes.
    """
    if _as_instance(state, StateVector, "the state").dims != (2, 2, 2):
        raise ValidationError(
            f"cayley_hyperdeterminant needs dims (2, 2, 2), got {state.dims}"
        )
    return complex(_cayley(state.tensor()[None])[0])


def _cayley(c):
    """The pencil discriminant on amplitudes ``c[..., i, j, k]``; leading axes are a batch."""
    a, b = c[..., 0, :, :], c[..., 1, :, :]
    m = a[..., 0, 0] * b[..., 1, 1] + b[..., 0, 0] * a[..., 1, 1]
    m = m - a[..., 0, 1] * b[..., 1, 0] - b[..., 0, 1] * a[..., 1, 0]
    return m * m - 4.0 * _det2(a) * _det2(b)


def classify_three_qubit(
    state: StateVector, tolerance: float = _GHZ_TOLERANCE
) -> ThreeQubitClass:
    """Split three-qubit states by whether the hyperdeterminant vanishes.

    GHZ class when |Det| exceeds ``tolerance``; otherwise the degenerate
    stratum, which contains the W orbit and every product state.  Finer
    separation inside the stratum is the job of
    :func:`entkit.schmidt.is_product_multipartite`.

    Raises
    ------
    ValidationError
        If ``tolerance`` is not a finite real number >= 0 (bools are
        rejected), or the state's dims are not (2, 2, 2).
    """
    tolerance = _as_real(tolerance, "tolerance", lo=0)
    return _class_of(cayley_hyperdeterminant(state), tolerance)


def _class_of(det: complex, tolerance: float = _GHZ_TOLERANCE) -> ThreeQubitClass:
    """The class split of :func:`classify_three_qubit` for a known ``det``."""
    return ThreeQubitClass.GHZ if abs(det) > tolerance else ThreeQubitClass.DEGENERATE
