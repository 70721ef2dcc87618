"""Dense multipartite state vectors and local unitary maps.

A pure state of N parties with local dimensions ``dims = (d_1, ..., d_N)``
is stored as a dense complex array of length ``prod(dims)``, indexed in
row-major order by the multi-index ``(i_1, ..., i_N)``.  Constructors
normalize; the raw variant :func:`make_state_raw` is the single explicit
exception.  All public types are immutable and safe to share between
threads.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ValidationError",
    "NumericError",
    "StateVector",
    "LocalUnitary",
    "make_state",
    "make_state_raw",
    "bell_state",
    "ghz_state",
    "w_state",
    "apply_local_unitary",
    "inner_product",
    "fidelity",
    "pauli",
    "BELL_KINDS",
]

#: absolute tolerance for normalization and unitarity checks
ATOL = 1e-9

#: soft cap on dense amplitude storage
MAX_ENTRIES = 2**24

BELL_KINDS = ("phi+", "psi+", "phi-", "psi-")


class ValidationError(ValueError):
    """Raised when inputs violate a documented precondition."""


class NumericError(ArithmeticError):
    """Raised when a computation fails numerically (non-finite data, no
    usable result at working precision)."""


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
            f"{n} qubits need 2**{n} amplitudes, above the dense storage cap {MAX_ENTRIES}"
        )


def _as_int(value, what: str) -> int:
    """``value`` through ``operator.index``: numpy integers pass, bools, floats and strings raise."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{what} must be an integer, got {value!r}") from None


def _as_complex_array(values, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128)
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{what} contains non-finite entries")
    return arr


def _check_unit_norm(amps: np.ndarray, what: str = "amplitudes") -> None:
    """Reject unless every row of finite, C-contiguous ``amps`` has norm 1 within ATOL."""
    parts = amps.view(np.float64)  # (re, im) pairs: one pass and no temporary copy
    norms = np.sqrt(np.einsum("...i,...i->...", parts, parts)).reshape(-1)
    worst = float(norms[np.argmax(np.abs(norms - 1.0))])
    if abs(worst - 1.0) > ATOL:
        raise ValidationError(f"{what} have norm {worst:.6g}, not 1")


def _check_unitary(m: np.ndarray, what: str) -> None:
    """Reject unless every square matrix in the stack ``m`` has max |U*U - I| <= ATOL."""
    resid = float(np.max(np.abs(np.swapaxes(m.conj(), -1, -2) @ m - np.eye(m.shape[-1]))))
    if not resid <= ATOL:
        raise ValidationError(f"{what} is not unitary: max |U*U - I| = {resid:.3e}")


@dataclass(frozen=True)
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
    """

    dims: tuple[int, ...]
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        dims = tuple(_as_int(d, "a local dimension") for d in self.dims)
        if len(dims) < 1 or any(d < 2 for d in dims):
            raise ValidationError(f"every local dimension must be >= 2, got {dims}")
        size = math.prod(dims)
        _check_size(size)
        amps = _as_complex_array(self.amplitudes, "amplitudes").reshape(-1)
        if amps.size != size:
            raise ValidationError(
                f"amplitude count {amps.size} does not match prod(dims) = {size}"
            )
        amps = amps.copy()
        _check_unit_norm(amps)
        amps.setflags(write=False)
        object.__setattr__(self, "dims", dims)
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
        """Amplitude at a multi-index."""
        if len(index) != len(self.dims):
            raise ValidationError(f"index {index} has wrong arity for dims {self.dims}")
        return complex(self.tensor()[tuple(index)])


@dataclass(frozen=True)
class LocalUnitary:
    """One unitary factor per party, applied as U_1 x U_2 x ... x U_N.

    Each factor k must be square, of size ``dims[k]``, and satisfy
    U U^dagger = I entrywise within 1e-9.
    """

    factors: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        checked = []
        for k, f in enumerate(self.factors):
            m = _as_complex_array(f, f"factor {k}")
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValidationError(f"factor {k} is not square: shape {m.shape}")
            _check_unitary(m, f"factor {k}")
            m = m.copy()
            m.setflags(write=False)
            checked.append(m)
        object.__setattr__(self, "factors", tuple(checked))

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.factors)


def _dense(dims, entries) -> np.ndarray:
    """Flat amplitude array from sparse ``(multi-index, amplitude)`` pairs, in one pass.

    Rejects a local dimension below 2, a wrong arity, an out-of-range or
    repeated index, a non-finite value and an empty entry list.
    """
    dims = tuple(_as_int(d, "a local dimension") for d in dims)
    if any(d < 2 for d in dims):
        raise ValidationError(f"every local dimension must be >= 2, got {dims}")
    _check_size(math.prod(dims))
    arr = np.zeros(dims, dtype=np.complex128)
    items = entries.items() if hasattr(entries, "items") else entries
    seen = set()
    for index, value in items:
        try:
            index = tuple(operator.index(i) for i in index)
        except TypeError:
            raise ValidationError(f"index {index!r} is not a sequence of integers") from None
        if len(index) != len(dims) or any(
            not 0 <= i < d for i, d in zip(index, dims)
        ):
            raise ValidationError(f"index {index} out of range for dims {dims}")
        if index in seen:
            raise ValidationError(f"amplitude index {list(index)} is listed twice")
        seen.add(index)
        value = complex(value)
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise ValidationError(f"non-finite amplitude at index {index}")
        arr[index] = value
    if not seen:
        raise ValidationError("no amplitude entries given")
    return arr.reshape(-1)


def make_state_raw(dims, entries) -> tuple[np.ndarray, float]:
    """Assemble an unnormalized amplitude array from sparse entries.

    Returns the dense array together with its Euclidean norm.  Most
    callers want :func:`make_state`, which normalizes.
    """
    arr = _dense(dims, entries)
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
    dims = tuple(dims)
    return StateVector(dims, _normalized(_dense(dims, entries))[0])


def bell_state(which: str) -> StateVector:
    """One of the four Bell states of two qubits.

    Parameters
    ----------
    which : {"phi+", "psi+", "phi-", "psi-"}
        phi+/- have support on 00 and 11, psi+/- on 01 and 10; the
        sign applies to the second term.
    """
    which = which.lower()
    r = 1.0 / math.sqrt(2.0)
    table = {
        "phi+": {(0, 0): r, (1, 1): r},
        "phi-": {(0, 0): r, (1, 1): -r},
        "psi+": {(0, 1): r, (1, 0): r},
        "psi-": {(0, 1): r, (1, 0): -r},
    }
    if which not in table:
        raise ValidationError(f"unknown Bell state {which!r}; expected one of {BELL_KINDS}")
    return make_state((2, 2), table[which])


def ghz_state(n_parties: int) -> StateVector:
    """(|0...0> + |1...1>)/sqrt(2) on ``n_parties`` qubits (n >= 2)."""
    n = _as_int(n_parties, "the party count")
    if n < 2:
        raise ValidationError(f"ghz_state needs at least 2 parties, got {n}")
    _check_qubit_count(n)
    return make_state((2,) * n, {(0,) * n: 1.0, (1,) * n: 1.0})


def w_state() -> StateVector:
    """The three-qubit W state (|001> + |010> + |100>)/sqrt(3)."""
    return make_state((2, 2, 2), {(0, 0, 1): 1.0, (0, 1, 0): 1.0, (1, 0, 0): 1.0})


def apply_local_unitary(state: StateVector, u: LocalUnitary) -> StateVector:
    """Apply U_1 x ... x U_N to a state, one factor per party.

    Parameters
    ----------
    state : StateVector
    u : LocalUnitary
        ``u.dims`` must equal ``state.dims``.

    Returns
    -------
    StateVector
        The transformed state; the norm is preserved by unitarity.  The
        contraction is that of the invariance suite's stacked trials,
        run on a stack of one, so the amplitudes equal the suite's bit
        for bit.
    """
    if u.dims != state.dims:
        raise ValidationError(
            f"factor dims {u.dims} do not match state dims {state.dims}"
        )
    return StateVector(state.dims, _apply_block(state.tensor(), [f[None] for f in u.factors])[0])


def _apply_block(tensor: np.ndarray, factors: list) -> np.ndarray:
    """``(U_1 x ... x U_N) tensor`` for each trial, stacked on a leading axis.

    ``factors`` holds one ``(trials, d, d)`` array per party; one state
    is the stack of one trial.
    """
    t = tensor.reshape(1, -1)
    left = 1
    for u in factors:
        d = u.shape[-1]
        # party k as the middle axis of (trial, parties before, d, parties after)
        t = u[:, None] @ t.reshape(len(t), left, d, -1)
        left *= d
    return t.reshape((len(t),) + tensor.shape)


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b> with conjugation on ``a``."""
    if a.dims != b.dims:
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
    try:
        return table[name.upper()].copy()
    except KeyError:
        raise ValidationError(f"unknown Pauli {name!r}") from None
