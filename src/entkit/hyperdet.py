"""The 2x2x2 hyperdeterminant and the three-qubit class split.

``cayley_hyperdeterminant`` evaluates the degree-4 polynomial in the
eight amplitudes c_ijk term by term:

    Det =   c000^2 c111^2 + c001^2 c110^2 + c010^2 c101^2 + c100^2 c011^2
          - 2 (c000 c001 c110 c111 + c000 c010 c101 c111 + c000 c100 c011 c111
               + c001 c010 c101 c110 + c001 c100 c011 c110 + c010 c100 c011 c101)
          + 4 (c000 c011 c101 c110 + c001 c010 c100 c111)

It vanishes on product states and on the W orbit and is nonzero on the
GHZ orbit, where |Det(GHZ)| = 1/4.
"""

from __future__ import annotations

from enum import Enum

from .states import StateVector, ValidationError

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
    if state.dims != (2, 2, 2):
        raise ValidationError(
            f"cayley_hyperdeterminant needs dims (2, 2, 2), got {state.dims}"
        )
    return complex(_cayley(state.tensor()[None])[0])


def _cayley(c):
    """The polynomial on amplitudes ``c[..., i, j, k]``; leading axes are a batch."""
    squares = (
        (c[..., 0, 0, 0] * c[..., 1, 1, 1]) ** 2
        + (c[..., 0, 0, 1] * c[..., 1, 1, 0]) ** 2
        + (c[..., 0, 1, 0] * c[..., 1, 0, 1]) ** 2
        + (c[..., 1, 0, 0] * c[..., 0, 1, 1]) ** 2
    )
    pairs = (
        c[..., 0, 0, 0] * c[..., 0, 0, 1] * c[..., 1, 1, 0] * c[..., 1, 1, 1]
        + c[..., 0, 0, 0] * c[..., 0, 1, 0] * c[..., 1, 0, 1] * c[..., 1, 1, 1]
        + c[..., 0, 0, 0] * c[..., 1, 0, 0] * c[..., 0, 1, 1] * c[..., 1, 1, 1]
        + c[..., 0, 0, 1] * c[..., 0, 1, 0] * c[..., 1, 0, 1] * c[..., 1, 1, 0]
        + c[..., 0, 0, 1] * c[..., 1, 0, 0] * c[..., 0, 1, 1] * c[..., 1, 1, 0]
        + c[..., 0, 1, 0] * c[..., 1, 0, 0] * c[..., 0, 1, 1] * c[..., 1, 0, 1]
    )
    quads = (
        c[..., 0, 0, 0] * c[..., 0, 1, 1] * c[..., 1, 0, 1] * c[..., 1, 1, 0]
        + c[..., 0, 0, 1] * c[..., 0, 1, 0] * c[..., 1, 0, 0] * c[..., 1, 1, 1]
    )
    return squares - 2.0 * pairs + 4.0 * quads


def classify_three_qubit(
    state: StateVector, tolerance: float = _GHZ_TOLERANCE
) -> ThreeQubitClass:
    """Split three-qubit states by whether the hyperdeterminant vanishes.

    GHZ class when |Det| exceeds ``tolerance``; otherwise the degenerate
    stratum, which contains the W orbit and every product state.  Finer
    separation inside the stratum is the job of
    :func:`entkit.schmidt.is_product_multipartite`.
    """
    return _class_of(cayley_hyperdeterminant(state), tolerance)


def _class_of(det: complex, tolerance: float = _GHZ_TOLERANCE) -> ThreeQubitClass:
    """The class split of :func:`classify_three_qubit` for a known ``det``."""
    return ThreeQubitClass.GHZ if abs(det) > tolerance else ThreeQubitClass.DEGENERATE
