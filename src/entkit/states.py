"""Dense multipartite state vectors and the package's argument rules.

A pure state of N parties with local dimensions ``dims = (d_1, ..., d_N)``
is stored as a dense complex array of length ``prod(dims)``, indexed in
row-major order by the multi-index ``(i_1, ..., i_N)``.  Constructors
normalize; the raw variant :func:`make_state_raw` is the single explicit
exception.  All public types are immutable and safe to share between
threads.
"""

from __future__ import annotations

import cmath
import math
import numbers
import operator
from collections.abc import Mapping, Set
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ValidationError",
    "NumericError",
    "StateVector",
    "make_state",
    "make_state_raw",
    "bell_state",
    "ghz_state",
    "w_state",
    "inner_product",
    "fidelity",
    "pauli",
    "BELL_KINDS",
]

#: absolute tolerance for normalization and unitarity checks
ATOL = 1e-9

#: soft cap on dense amplitude storage
MAX_ENTRIES = 2**24

#: longest text an error message shows for one value
_SHOWN_CHARS = 500

BELL_KINDS = ("phi+", "psi+", "phi-", "psi-")


class ValidationError(ValueError):
    """Raised when inputs violate a documented precondition."""


class NumericError(ArithmeticError):
    """Raised when a computation fails numerically (non-finite data, no
    usable result at working precision)."""


def _shown(value) -> str:
    """``repr(value)`` for an error message, at most ``_SHOWN_CHARS`` characters long.

    An int of more than ``3 * _SHOWN_CHARS`` bits (at most 0.91
    ``_SHOWN_CHARS`` digits) is shown by its bit length, the way
    :func:`_check_size` shows a count: Python refuses to turn an int of
    more than 4300 digits into text at all.  A value whose repr fails
    that way, such as a list holding such an int, is shown by its type;
    any other repr past the bound is cut.

    >>> _shown(10**5000)
    'an int of 16610 bits'
    >>> _shown([10**5000])
    'a list holding an int too long to print'
    """
    if isinstance(value, int) and value.bit_length() > 3 * _SHOWN_CHARS:
        return f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits"
    try:
        text = repr(value)
    except ValueError:
        return f"a {type(value).__name__} holding an int too long to print"
    return text if len(text) <= _SHOWN_CHARS else text[: _SHOWN_CHARS - 3] + "..."


def _check_size(size: int) -> None:
    """Reject a dense amplitude count above ``MAX_ENTRIES``; call before allocating.

    The message gives the count's power of two: the decimal digits of a
    huge count exceed Python's integer-to-string limit.
    """
    if size > MAX_ENTRIES:
        raise ValidationError(
            f"state size of at least 2**{size.bit_length() - 1} amplitudes exceeds "
            f"the dense storage cap {MAX_ENTRIES}"
        )


def _check_qubit_count(n: int) -> None:
    """Reject n qubits whose 2**n amplitudes exceed ``MAX_ENTRIES``, without forming 2**n."""
    if n >= MAX_ENTRIES.bit_length():
        raise ValidationError(
            f"{_shown(n)} qubits need 2**n amplitudes, above the dense storage cap {MAX_ENTRIES}"
        )


def _bounded(value, what: str, lo, hi):
    """``value`` unless it lies outside ``[lo, hi]``; a bound of None is open."""
    if lo is not None and value < lo:
        raise ValidationError(f"{what} must be >= {lo}, got {_shown(value)}")
    if hi is not None and value > hi:
        raise ValidationError(f"{what} must be <= {hi}, got {_shown(value)}")
    return value


def _as_int(value, what: str, lo: int | None = None, hi: int | None = None) -> int:
    """``value`` as an int in ``[lo, hi]``, both bounds inclusive; None leaves a side open.

    Numpy integers pass; bools, floats, strings and None raise
    ``ValidationError`` ("trials must be an integer, got 2.5"), and so
    does a value out of bounds ("the qubit count n must be >= 1, got 0").
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ValidationError(f"{what} must be an integer, got {_shown(value)}") from None
    return _bounded(value, what, lo, hi)


def _as_real(value, what: str, lo: float | None = None, hi: float | None = None) -> float:
    """``value`` as a finite float in ``[lo, hi]``, both bounds inclusive; None leaves a side open.

    Numpy reals pass; bools, complex numbers, strings, None, NaN, inf and
    ints beyond the float range raise ``ValidationError`` ("tolerance
    must be a finite real number, got nan"), and so does a value out of
    bounds ("tolerance must be >= 0, got -1.0").
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            real = float(value)
        except OverflowError:
            real = math.inf
        if math.isfinite(real):
            return _bounded(real, what, lo, hi)
    raise ValidationError(f"{what} must be a finite real number, got {_shown(value)}")


def _as_complex(value, what: str) -> complex:
    """``complex(value)`` of a finite number.

    Numpy numbers pass; bools, strings, None and NaN or infinite values
    raise ``ValidationError``, the kind rule of :func:`_as_real`.
    """
    try:
        # the builtin types first: isinstance stops at the first match, before the ABC
        if isinstance(value, bool) or not isinstance(value, (complex, float, int, numbers.Number)):
            raise TypeError
        z = complex(value)
    except OverflowError:  # an int beyond the float range
        z = complex(math.inf)
    except (TypeError, ValueError):  # ValueError: Decimal("sNaN") has no complex value
        raise ValidationError(f"{what} must be a number, got {_shown(value)}") from None
    if not cmath.isfinite(z):
        raise ValidationError(f"{what} is not finite")
    return z


def _as_index(index, dims: tuple[int, ...]) -> tuple[int, ...]:
    """``index`` as a tuple of ints, one per party, each in ``[0, d)`` for its ``d`` in ``dims``.

    Numpy integers pass; a value that is not a sequence of integers
    (bools are rejected), a wrong arity and an entry out of range raise
    ``ValidationError``.
    """
    try:
        if bool in map(type, index):
            raise TypeError
        index = tuple(map(operator.index, index))
    except TypeError:
        raise ValidationError(f"index {_shown(index)} is not a sequence of integers") from None
    if len(index) != len(dims) or min(index) < 0 or not all(map(operator.lt, index, dims)):
        raise ValidationError(f"index {_shown(index)} out of range for dims {dims}")
    return index


def _as_tuple(value, what: str, each=None) -> tuple:
    """``tuple(value)``, each item mapped through ``each`` if given, as it is read.

    A value that is not iterable raises ``ValidationError`` with the
    message ``f"{what}, got {_shown(value)}"`` ("stars must be a
    sequence, got 5").  Checking items with ``each`` as they are read
    stops an iterator at its first bad item.
    """
    try:
        return tuple(value) if each is None else tuple(map(each, value))
    except TypeError:
        raise ValidationError(f"{what}, got {_shown(value)}") from None


def _as_dims(dims) -> tuple[int, ...]:
    """Local dimensions as a nonempty tuple of ints >= 2 whose product is within the cap.

    A value that is not a sequence (bytes, a mapping and a set are
    iterable but are not taken), an entry that :func:`_as_int` rejects,
    an empty sequence and a product above ``MAX_ENTRIES`` raise
    ``ValidationError``; entries are checked as they are read.
    """
    what = "dims must be a sequence of integers"
    if isinstance(dims, (bytes, bytearray, Mapping, Set)):
        raise ValidationError(f"{what}, got {_shown(dims)}")
    dims = _as_tuple(dims, what, lambda d: _as_int(d, "a local dimension", lo=2))
    if not dims:
        raise ValidationError("a state needs at least one party")
    _check_size(math.prod(dims))
    return dims


def _as_instance(value, kind, what: str):
    """``value`` if it is an instance of the class ``kind``, else ``ValidationError``.

    A module name bound to a wrapper of the class, one that keeps the
    class as ``__wrapped__`` the way :func:`functools.wraps` does, is
    checked against the class.
    """
    kind = getattr(kind, "__wrapped__", kind)
    if not isinstance(value, kind):
        raise ValidationError(f"{what} must be a {kind.__name__}, got {_shown(value)}")
    return value


def _complex_array(values, what: str) -> np.ndarray:
    """``values`` as a complex array; a value that is not an array of numbers raises.

    An int beyond the float range raises too, where numpy would raise
    ``OverflowError``.
    """
    try:
        return np.asarray(values, dtype=np.complex128)
    except (TypeError, ValueError):
        raise ValidationError(f"{what} must be an array of numbers") from None
    except OverflowError:
        raise ValidationError(f"an int in {what} is beyond the float range") from None


def _as_complex_array(values, what: str) -> np.ndarray:
    """``values`` as a complex array of finite numbers."""
    arr = _complex_array(values, what)
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{what} contains non-finite entries")
    return arr


def _check_unit_norm(amps: np.ndarray, what: str = "amplitudes") -> None:
    """Reject unless every row of C-contiguous ``amps`` has norm 1 within ATOL.

    A row with a NaN or infinite entry has a norm of NaN or inf and fails.
    """
    parts = amps.view(np.float64)  # (re, im) pairs: one pass and no temporary copy
    norms = np.sqrt(np.einsum("...i,...i->...", parts, parts)).reshape(-1)
    worst = float(norms[np.argmax(np.abs(norms - 1.0))])
    if not abs(worst - 1.0) <= ATOL:
        raise ValidationError(f"{what} have norm {worst:.6g}, not 1")


def _unit_vector(values, size: int, what: str) -> np.ndarray:
    """``values`` as a read-only flat complex copy of length ``size``, finite and of norm 1."""
    v = _as_complex_array(values, what).reshape(-1)
    if v.size != size:
        raise ValidationError(f"{what} have {v.size} entries, not {_shown(size)}")
    v = v.copy()
    _check_unit_norm(v, what)
    v.setflags(write=False)
    return v


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized pure state of one or more parties.

    Parameters
    ----------
    dims : tuple of int
        Local dimension of each party, every entry at least 2.
    amplitudes : numpy.ndarray
        Complex amplitudes of length ``prod(dims)`` in row-major
        multi-index order, with norm 1 within ``ATOL``.  Stored
        read-only.

    Notes
    -----
    Use :func:`make_state` or the named constructors instead of calling
    this class directly; they validate, normalize and freeze the array.
    States compare and hash by identity, like any object, so ``==``,
    ``in`` and sets never compare amplitudes; compare content with
    :func:`fidelity` or ``np.array_equal`` on the amplitudes.
    """

    dims: tuple[int, ...]
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        dims = _as_dims(self.dims)
        object.__setattr__(self, "dims", dims)
        amps = _unit_vector(self.amplitudes, math.prod(dims), "amplitudes")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per party."""
        return self.amplitudes.reshape(self.dims)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def amplitude(self, index: tuple[int, ...]) -> complex:
        """Amplitude at a multi-index, checked as the entries of :func:`make_state` are."""
        return complex(self.tensor()[_as_index(index, self.dims)])


def _dense(dims, entries) -> np.ndarray:
    """Amplitude array shaped ``dims`` from sparse ``(multi-index, amplitude)`` pairs, in one pass.

    Rejects an empty dims list, a local dimension that is not an integer
    or is below 2, entries that are not a mapping or a sequence of pairs,
    an index that :func:`_as_index` rejects or that repeats, a value
    that :func:`_as_complex` rejects, and an empty entry list.  It is
    the one check of ``dims`` and of each index for its callers, which
    read the checked dims from the array's shape.
    """
    dims = _as_dims(dims)
    arr = np.zeros(dims, dtype=np.complex128)
    try:
        items = [(i, v) for i, v in (entries.items() if hasattr(entries, "items") else entries)]
    except (TypeError, ValueError):
        raise ValidationError(
            f"entries must be (index, value) pairs, got {_shown(entries)}"
        ) from None
    seen = set()
    for index, value in items:
        index = _as_index(index, dims)
        if index in seen:
            raise ValidationError(f"amplitude index {list(index)} is listed twice")
        seen.add(index)
        try:
            arr[index] = _as_complex(value, "the amplitude")
        except ValidationError as exc:  # formatting the index per entry would slow file reads
            raise ValidationError(f"{exc} at index {index}") from None
    if not seen:
        raise ValidationError("no amplitude entries given")
    return arr


def make_state_raw(dims, entries) -> tuple[np.ndarray, float]:
    """Assemble an unnormalized amplitude array from sparse entries.

    Returns the dense array together with its Euclidean norm.  Most
    callers want :func:`make_state`, which normalizes.
    """
    arr = _dense(dims, entries).reshape(-1)
    return arr, _normalized(arr)[1]


def _normalized(arr: np.ndarray) -> tuple[np.ndarray, float]:
    """``(arr / ||arr||, ||arr||)`` of a nonzero array, computed through arr / peak.

    Dividing by the largest real or imaginary part first keeps the sum
    of squares finite and nonzero for amplitudes near 1e308 or 1e-320.
    """
    parts = np.ascontiguousarray(arr, dtype=np.complex128).reshape(-1).view(np.float64)
    peak = float(np.max(np.abs(parts)))
    if peak == 0.0:
        raise ValidationError("all amplitudes are zero")
    # real division: numpy's complex division by a subnormal overflows
    scaled = (parts / peak).view(np.complex128)
    ratio = float(np.linalg.norm(scaled))
    norm = peak * ratio
    if not math.isfinite(norm):
        raise ValidationError(f"the norm of the amplitudes, {ratio:.6g} x {peak:.6g}, overflows")
    return scaled / ratio, norm


def make_state(dims, entries) -> StateVector:
    """Build a normalized state from sparse ``(multi-index, amplitude)`` data.

    Parameters
    ----------
    dims : sequence of int
        Local dimensions, each at least 2.
    entries : mapping or iterable of pairs
        Multi-index to complex amplitude; omitted indices are zero and
        each index may appear once.

    Returns
    -------
    StateVector
        The normalized state.

    Examples
    --------
    >>> make_state([2, 2], {(0, 0): 1, (1, 1): 1}).amplitude((0, 0))
    (0.7071067811865475+0j)
    """
    arr = _dense(dims, entries)
    return StateVector(arr.shape, _normalized(arr)[0])


def bell_state(which: str) -> StateVector:
    """One of the four Bell states of two qubits.

    Parameters
    ----------
    which : {"phi+", "psi+", "phi-", "psi-"}
        phi+/- have support on 00 and 11, psi+/- on 01 and 10; the
        sign applies to the second term.
    """
    r = 1.0 / math.sqrt(2.0)
    table = {
        "phi+": {(0, 0): r, (1, 1): r},
        "phi-": {(0, 0): r, (1, 1): -r},
        "psi+": {(0, 1): r, (1, 0): r},
        "psi-": {(0, 1): r, (1, 0): -r},
    }
    key = which.lower() if isinstance(which, str) else None
    if key not in table:
        raise ValidationError(f"unknown Bell state {_shown(which)}; expected one of {BELL_KINDS}")
    return make_state((2, 2), table[key])


def ghz_state(n_parties: int) -> StateVector:
    """(|0...0> + |1...1>)/sqrt(2) on ``n_parties`` qubits (n >= 2)."""
    n = _as_int(n_parties, "the party count", lo=2)
    _check_qubit_count(n)
    return make_state((2,) * n, {(0,) * n: 1.0, (1,) * n: 1.0})


def w_state() -> StateVector:
    """The three-qubit W state (|001> + |010> + |100>)/sqrt(3)."""
    return make_state((2, 2, 2), {(0, 0, 1): 1.0, (0, 1, 0): 1.0, (1, 0, 0): 1.0})


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b> with conjugation on ``a``."""
    a = _as_instance(a, StateVector, "the first state")
    if a.dims != _as_instance(b, StateVector, "the second state").dims:
        raise ValidationError(f"dims differ: {a.dims} vs {b.dims}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2 for normalized states."""
    return abs(inner_product(a, b)) ** 2


def pauli(name: str) -> np.ndarray:
    """Single-qubit Pauli matrix by name ("I", "X", "Y" or "Z")."""
    table = {
        "I": np.eye(2, dtype=np.complex128),
        "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
        "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
        "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
    }
    key = name.upper() if isinstance(name, str) else None
    if key not in table:
        raise ValidationError(f"unknown Pauli {_shown(name)}")
    return table[key]
