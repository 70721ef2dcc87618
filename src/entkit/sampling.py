"""Haar-random local unitaries and Monte-Carlo invariance checks.

Randomness comes from counter-based Philox streams keyed by
(seed, counter), so trial t of a run is reproducible in isolation and
disjoint counter ranges never collide.  The invariance suite applies a
fresh local unitary per trial and reports how far a chosen functional
drifts from its value on the untransformed state; genuine invariants
stay at rounding level while the negative control moves at order one.
Trials run in stacked blocks: each sampler below is the one-trial case
of a map on a leading trial axis, and the suite applies that map, the
unitarity and norm checks, the contraction and the functional once per
block.  The public single-state path runs the same kernels on a stack
of one trial: :func:`~entkit.states.apply_local_unitary` contracts with
the suite's contraction and :func:`named_invariant` evaluates the
suite's functional, so trial t replayed through :func:`trial_rng`, the
single-draw samplers, :class:`~entkit.states.LocalUnitary`,
:func:`~entkit.states.apply_local_unitary` and the invariant gives the
suite's value bit for bit.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import states
from .hyperdet import _cayley, cayley_hyperdeterminant

# LocalUnitary, apply_local_unitary and schmidt_decompose are unused here,
# but perfbench/tracing.py patches these names on this module
from .schmidt import (  # noqa: F401
    _det2,
    _ranks,
    _singular_values,
    bipartite_determinant,
    schmidt_decompose,
)
from .states import (  # noqa: F401
    LocalUnitary,
    StateVector,
    ValidationError,
    _apply_block,
    _as_complex_array,
    _check_unit_norm,
    _check_unitary,
    apply_local_unitary,
)

__all__ = [
    "InvarianceReport",
    "trial_rng",
    "random_su2",
    "haar_unitary",
    "random_sud",
    "named_invariant",
    "invariance_suite",
]

#: amplitudes held by one stacked block of trials, so memory stays bounded
#: for any trial count; a block holds at least one trial
_BLOCK_ENTRIES = 2**13


@dataclass(frozen=True)
class InvarianceReport:
    """Drift statistics of one functional over sampled local unitaries."""

    invariant_name: str
    trials: int
    max_abs_drift: float
    mean_abs_drift: float
    seed: int

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValidationError(f"need at least one trial, got {self.trials}")
        if not (self.max_abs_drift >= 0.0 and self.mean_abs_drift >= 0.0):  # NaN fails too
            raise ValidationError("drift statistics must be non-negative numbers")


def _philox_key(seed: int, counter: int) -> tuple[int, int]:
    """``(seed, counter)`` as ints; floats and values outside [0, 2**64) raise."""
    try:
        seed, counter = operator.index(seed), operator.index(counter)
    except TypeError:
        raise ValidationError(
            f"seed and counter must be integers, got {seed!r} and {counter!r}"
        ) from None
    if not (0 <= seed < 2**64 and 0 <= counter < 2**64):
        raise ValidationError(
            f"seed and counter must lie in [0, 2**64), got {seed} and {counter}"
        )
    return seed, counter


def trial_rng(seed: int, counter: int = 0) -> np.random.Generator:
    """Counter-based generator; identical (seed, counter) → identical stream.

    The 128-bit Philox key holds the seed in the high word and the
    counter in the low word, so trials drawn from distinct counters are
    independent and any single trial can be replayed alone.  Both must
    be integers in [0, 2**64).
    """
    seed, counter = _philox_key(seed, counter)
    return np.random.Generator(np.random.Philox(key=(seed << 64) | counter))


def _su2(q: np.ndarray) -> np.ndarray:
    """Rows of 4 normals → Haar SU(2) matrices, one uniform unit quaternion each."""
    w, x, y, z = np.moveaxis(q / np.linalg.norm(q, axis=-1, keepdims=True), -1, 0)
    entries = [w + 1j * z, y + 1j * x, -y + 1j * x, w - 1j * z]
    return np.stack(entries, axis=-1).reshape(q.shape[:-1] + (2, 2))


def _haar(g: np.ndarray, d: int) -> np.ndarray:
    """Rows of 2 d^2 normals (real parts, then imaginary) → :func:`haar_unitary` matrices."""
    z = (g[..., : d * d] + 1j * g[..., d * d :]).reshape(g.shape[:-1] + (d, d))
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def _sud(g: np.ndarray, d: int) -> np.ndarray:
    """:func:`_haar` divided by the principal d-th root of each determinant."""
    u = _haar(g, d)
    return u / np.exp(np.log(np.linalg.det(u)) / d)[..., None, None]


def random_su2(rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed SU(2) matrix from a uniform unit quaternion."""
    return _su2(rng.standard_normal((1, 4)))[0]


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed U(d) matrix.

    QR of a complex Ginibre matrix, with the R diagonal's phases folded
    into Q; without that correction QR is not Haar.
    """
    if d < 1:
        raise ValidationError(f"need d >= 1, got {d}")
    return _haar(rng.standard_normal((1, 2 * d * d)), d)[0]


def random_sud(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed SU(d) matrix for d >= 2.

    A Haar U(d) sample divided by the principal d-th root of its
    determinant; the principal branch keeps the construction
    deterministic.
    """
    if d < 2:
        raise ValidationError(f"need d >= 2, got {d}")
    return _sud(rng.standard_normal((1, 2 * d * d)), d)[0]


def _group_maps(state: StateVector, group):
    """Per-party ``(normals per trial, map to (trials, d, d))`` from a group descriptor.

    The descriptor is either a single token applied to every party ("su",
    "u") or a sequence of per-party tokens with explicit dimensions
    ("su2", "u3", ...), which must match the state's dims.
    """
    dims = state.dims
    if isinstance(group, str):
        tokens = [group] * len(dims)
    else:
        tokens = [str(t) for t in group]
    if len(tokens) != len(dims):
        raise ValidationError(
            f"group descriptor has {len(tokens)} factors for {len(dims)} parties"
        )
    maps = []
    for tok, d in zip(tokens, dims):
        base = tok.lower().strip()
        kind = base.rstrip("0123456789")
        if kind not in ("su", "u"):
            raise ValidationError(f"unknown group token {tok!r}")
        dim = int(base[len(kind):] or d)
        if dim != d:
            raise ValidationError(
                f"group token {tok!r} does not match party dimension {d}"
            )
        if kind == "su" and dim == 2:
            maps.append((4, _su2))
        elif kind == "su":
            maps.append((2 * d * d, lambda g, d=d: _sud(g, d)))
        else:
            maps.append((2 * d * d, lambda g, d=d: _haar(g, d)))
    return maps


def _draw_block(maps, seed: int, start: int, stop: int) -> list:
    """Factors of trials ``start..stop-1``: one ``(trials, d, d)`` array per party.

    Trial t reads one run of normals, covering every party in order,
    from the Philox stream of :func:`trial_rng` ``(seed, t)``; one bit
    generator is rekeyed per trial.  The stream is the one the
    single-draw functions read, so the factors are bit for bit theirs.
    """
    normals = np.empty((stop - start, sum(n for n, _ in maps)))
    bits = np.random.Philox(0)
    gen = np.random.Generator(bits)
    fresh = bits.state
    for row, t in enumerate(range(start, stop)):
        fresh["state"]["key"][:] = (t, seed)  # (low, high) words of (seed << 64) | t
        bits.state = fresh
        gen.standard_normal(out=normals[row])
    runs = np.split(normals, np.cumsum([n for n, _ in maps])[:-1], axis=1)
    return [to_unitary(g) for (_, to_unitary), g in zip(maps, runs)]


def _schmidt_ranks_first(t: np.ndarray) -> np.ndarray:
    if t.ndim < 3:
        raise ValidationError("schmidt-rank needs at least two parties")
    return _ranks(_singular_values(t.reshape(t.shape[0], t.shape[1], -1))).astype(float)


#: name -> the functional of a stack of amplitude tensors with a leading
#: trial axis; one state is the stack of one trial
_REGISTRY = {
    "norm": lambda t: np.linalg.norm(t.reshape(len(t), -1), axis=-1),
    "det": _det2,
    "hyperdet3q": _cayley,
    "schmidt-rank": _schmidt_ranks_first,
    "amp00": lambda t: t.reshape(len(t), -1)[:, 0],
}

#: registry names whose one-state functional is the public function, which
#: checks the state's dims first
_PUBLIC = {"det": bipartite_determinant, "hyperdet3q": cayley_hyperdeterminant}


def named_invariant(invariant):
    """Resolve an invariant descriptor to (label, callable).

    Accepts a registry name ("norm", "det", "hyperdet3q",
    "schmidt-rank", or the deliberately non-invariant control "amp00"),
    a (label, callable) pair, or a bare callable.  A registry name's
    callable evaluates the suite's stacked functional on one state as a
    one-trial stack; for "det" and "hyperdet3q" it is the public
    function, which checks the dims first.
    """
    if isinstance(invariant, str):
        key = invariant.lower()
        if key not in _REGISTRY:
            raise ValidationError(
                f"unknown invariant {invariant!r}; known: {sorted(_REGISTRY)}"
            )
        stacked = _REGISTRY[key]
        return key, _PUBLIC.get(key) or (lambda s: stacked(s.tensor()[None])[0].item())
    if callable(invariant):
        return getattr(invariant, "__name__", "custom"), invariant
    label, fn = invariant
    if not callable(fn):
        raise ValidationError("invariant descriptor must carry a callable")
    return str(label), fn


def _per_row(fn, dims):
    """A functional of one state, applied to each tensor of a stack as a StateVector."""
    return lambda t: np.array([fn(StateVector(dims, row)) for row in t])


def invariance_suite(
    state: StateVector,
    invariant,
    group="su",
    trials: int = 1000,
    seed: int = 0,
) -> InvarianceReport:
    """Monte-Carlo drift of a functional under random local unitaries.

    Each trial draws one fresh unitary per party from the group
    descriptor, transforms the state, and records
    |f(U state) - f(state)|.  Trials run in stacked blocks of bounded
    size; trial t still draws from the Philox stream keyed (seed, t),
    so any trial replays alone through :func:`trial_rng` and the
    single-draw functions, and the report does not depend on the block
    size.  The replayed trial's :func:`~entkit.states.apply_local_unitary`
    equals the suite's contraction bit for bit, and for a registry name
    so does its :func:`named_invariant` value: the suite and the
    single-state API run the same kernels, one state being a stack of
    one trial.  Runs with equal (seed, trials) are bitwise identical.
    Every block's factors must pass the unitarity check of
    :class:`~entkit.states.LocalUnitary` and its transformed states the
    finite-and-norm check of :class:`~entkit.states.StateVector`.
    Registry functionals are evaluated on the whole block; a custom
    callable sees each trial as a :class:`~entkit.states.StateVector`.

    Parameters
    ----------
    state : StateVector
    invariant : str, callable, or (label, callable)
        See :func:`named_invariant`.
    group : str or sequence of str, optional
        "su" (default) or "u" for every party, or per-party tokens
        like ("su2", "su2") / ("u3", "u3").
    trials : int, optional
        At least 1 and at most ``states.MAX_ENTRIES``.
    seed : int, optional
        An integer in [0, 2**64).

    Returns
    -------
    InvarianceReport
    """
    if trials < 1:
        raise ValidationError(f"need at least one trial, got {trials}")
    if trials > states.MAX_ENTRIES:
        raise ValidationError(f"trials {trials} exceeds the cap {states.MAX_ENTRIES}")
    label, fn = named_invariant(invariant)
    stacked = _REGISTRY[label] if isinstance(invariant, str) else _per_row(fn, state.dims)
    maps = _group_maps(state, group)
    baseline = fn(state)
    seed = _philox_key(seed, trials - 1)[0]
    tensor = state.tensor()
    block = max(1, _BLOCK_ENTRIES // tensor.size)
    drifts = np.empty(trials)
    for start in range(0, trials, block):
        stop = min(start + block, trials)
        factors = _draw_block(maps, seed, start, stop)
        for k, u in enumerate(factors):
            _check_unitary(u, f"factor {k}")
        out = _as_complex_array(_apply_block(tensor, factors), "amplitudes")
        _check_unit_norm(out.reshape(len(out), -1))
        drifts[start:stop] = np.abs(stacked(out) - baseline)
    return InvarianceReport(
        invariant_name=label,
        trials=trials,
        max_abs_drift=float(np.max(drifts)),
        mean_abs_drift=float(np.mean(drifts)),
        seed=seed,
    )
