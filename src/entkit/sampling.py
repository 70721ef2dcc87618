"""Local unitaries: random draws, their application, and Monte-Carlo invariance checks.

Randomness comes from counter-based Philox streams keyed by
(seed, counter), so trial t of a run is reproducible in isolation and
disjoint counter ranges never collide.  A :class:`LocalUnitary` holds
one checked unitary factor per party and :func:`apply_local_unitary`
applies it to a state.  The invariance suite applies a fresh local
unitary per trial and reports how far a chosen functional drifts from
its value on the untransformed state; genuine invariants stay at
rounding level while the negative control moves at order one.
Trials run in stacked blocks: each sampler below is the one-trial case
of a map on a leading trial axis, and the suite applies that map, the
unitarity and norm checks, the contraction and the functional once per
block.  The public single-state path runs the same kernels on a stack
of one trial: :func:`apply_local_unitary` contracts with the suite's
contraction and :func:`named_invariant` evaluates the suite's
functional, so trial t replayed through :func:`trial_rng`, the
single-draw samplers, :class:`LocalUnitary`, :func:`apply_local_unitary`
and the invariant gives the suite's value bit for bit.

The kernels on d x d matrices pick their body from the local dimension
d alone, never from the number of trials.  Up to a small cut
(``_SMALL_D``) they loop over the d columns or rows and run each step
on the whole trial axis: Haar draws orthonormalize the Ginibre columns
by Gram-Schmidt with one reorthogonalization, and the unitarity check
and the contraction add their products in a fixed order.  Above the
cut, LAPACK's QR and numpy's stacked matmul run one matrix at a time,
which is faster there.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass

import numpy as np

from . import states
from .hyperdet import _cayley, cayley_hyperdeterminant

# schmidt_decompose is unused here, but perfbench/tracing.py patches this
# name on this module
from .schmidt import (  # noqa: F401
    _det2,
    _ranks,
    _singular_values,
    bipartite_determinant,
    schmidt_decompose,
)
from .states import (
    ATOL,
    StateVector,
    ValidationError,
    _as_complex_array,
    _as_instance,
    _as_int,
    _check_unit_norm,
)

__all__ = [
    "InvarianceReport",
    "trial_rng",
    "random_su2",
    "haar_unitary",
    "random_sud",
    "LocalUnitary",
    "apply_local_unitary",
    "named_invariant",
    "invariance_suite",
]

#: largest local dimension d whose unitary kernels (the Haar draw, the
#: unitarity check and the contraction) loop over d columns or rows and
#: vectorize over a stack of trials; above it numpy's stacked matmul and
#: LAPACK are faster.  Chosen from d alone, never from the stack length,
#: so a replayed one-trial stack runs the same body as the engine
_SMALL_D = 4

#: amplitudes held by one stacked block of trials, so memory stays bounded
#: for any trial count; a block holds at least one trial
_BLOCK_ENTRIES = 2**13


@dataclass(frozen=True)
class InvarianceReport:
    """Drift statistics of one functional over sampled local unitaries.

    Raises
    ------
    ValidationError
        If ``invariant_name`` is not a string, ``trials`` not an integer
        >= 1, ``seed`` not an integer in [0, 2**64) (bools are rejected
        for both), or a drift statistic not a real number >= 0 (NaN is
        rejected).
    """

    invariant_name: str
    trials: int
    max_abs_drift: float
    mean_abs_drift: float
    seed: int

    def __post_init__(self) -> None:
        _as_instance(self.invariant_name, str, "the invariant name")
        object.__setattr__(self, "trials", _as_int(self.trials, "trials", lo=1))
        object.__setattr__(self, "seed", _as_int(self.seed, "seed", lo=0, hi=2**64 - 1))
        drifts = (self.max_abs_drift, self.mean_abs_drift)
        if not all(  # NaN fails the comparison too
            isinstance(v, numbers.Real) and not isinstance(v, bool) and v >= 0.0 for v in drifts
        ):
            raise ValidationError(f"drift statistics must be non-negative numbers, got {drifts}")


def _philox_key(seed: int, counter: int) -> tuple[int, int]:
    """``(seed, counter)`` as ints; bools, floats and values outside [0, 2**64) raise."""
    try:
        if isinstance(seed, bool) or isinstance(counter, bool):
            raise TypeError
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
    be integers in [0, 2**64); bools are rejected.
    """
    seed, counter = _philox_key(seed, counter)
    return np.random.Generator(np.random.Philox(key=(seed << 64) | counter))


def _su2(q: np.ndarray) -> np.ndarray:
    """Rows of 4 normals → Haar SU(2) matrices, one uniform unit quaternion each."""
    w, x, y, z = np.moveaxis(q / np.linalg.norm(q, axis=-1, keepdims=True), -1, 0)
    entries = [w + 1j * z, y + 1j * x, -y + 1j * x, w - 1j * z]
    return np.stack(entries, axis=-1).reshape(q.shape[:-1] + (2, 2))


def _haar(g: np.ndarray, d: int) -> np.ndarray:
    """Rows of 2 d^2 normals (real parts, then imaginary) → :func:`haar_unitary` matrices.

    Up to ``_SMALL_D`` the Ginibre columns are orthonormalized by
    Gram-Schmidt with one reorthogonalization, on a (column, row, trial)
    layout so every step is vectorized over the trials.  Each sum is
    taken one row or one column at a time, in an order that does not
    depend on the number of trials, so a stack of one gives the bits of
    the same trial in a larger stack.  Above the cut, LAPACK's QR runs
    and the R diagonal's phases are folded into Q.
    """
    if d > _SMALL_D:
        z = (g[..., : d * d] + 1j * g[..., d * d :]).reshape(g.shape[:-1] + (d, d))
        q, r = np.linalg.qr(z / np.sqrt(2.0))
        diag = np.diagonal(r, axis1=-2, axis2=-1)
        return q * (diag / np.abs(diag))[..., None, :]
    normals = g.reshape(-1, 2 * d * d).T
    cols = np.empty((d, d, normals.shape[1]), dtype=np.complex128)  # (column, row, trial)
    cols.real = normals[: d * d].reshape(d, d, -1).transpose(1, 0, 2)
    cols.imag = normals[d * d :].reshape(d, d, -1).transpose(1, 0, 2)
    q = np.empty_like(cols)
    q_conj = np.empty_like(cols)
    for c in range(d):
        v = cols[c]
        for _ in range(2 if c else 0):  # project out columns 0..c-1, then once more
            inner = q_conj[:c] * v
            proj = inner[:, 0]
            for r in range(1, d):
                proj = proj + inner[:, r]
            parts = q[:c] * proj[:, None]
            for k in range(c):
                v = v - parts[k]
        squares = v.view(np.float64) ** 2
        norm2 = squares[:, 0::2] + squares[:, 1::2]
        total = norm2[0]
        for r in range(1, d):
            total = total + norm2[r]
        # R's diagonal is this norm, real and positive, so Q needs no phase fold
        np.divide(v, np.sqrt(total), out=q[c])
        np.conjugate(q[c], out=q_conj[c])
    return np.ascontiguousarray(q.transpose(2, 1, 0)).reshape(g.shape[:-1] + (d, d))


def _sud(g: np.ndarray, d: int) -> np.ndarray:
    """:func:`_haar` divided by the principal d-th root of each determinant."""
    u = _haar(g, d)
    return u / np.exp(np.log(np.linalg.det(u)) / d)[..., None, None]


def random_su2(rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed SU(2) matrix from a uniform unit quaternion."""
    rng = _as_instance(rng, np.random.Generator, "the generator")
    return _su2(rng.standard_normal((1, 4)))[0]


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed U(d) matrix.

    The Q factor of a complex Ginibre matrix whose R factor has a
    positive real diagonal (Mezzadri 2007); an arbitrary QR is not Haar.
    For d up to ``_SMALL_D`` Q comes from Gram-Schmidt with one
    reorthogonalization, whose R diagonal is positive as it stands;
    above it from LAPACK's QR with the R diagonal's phases folded into
    Q.  The two agree to rounding.

    Raises
    ------
    ValidationError
        If ``d`` is not an integer >= 1 (bools are rejected), or
        ``rng`` is not a numpy ``Generator``.
    """
    d = _as_int(d, "the dimension d", lo=1)
    rng = _as_instance(rng, np.random.Generator, "the generator")
    return _haar(rng.standard_normal((1, 2 * d * d)), d)[0]


def random_sud(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed SU(d) matrix for d >= 2.

    A Haar U(d) sample divided by the principal d-th root of its
    determinant; the principal branch keeps the construction
    deterministic.

    Raises
    ------
    ValidationError
        If ``d`` is not an integer >= 2 (bools are rejected), or
        ``rng`` is not a numpy ``Generator``.
    """
    d = _as_int(d, "the dimension d", lo=2)
    rng = _as_instance(rng, np.random.Generator, "the generator")
    return _sud(rng.standard_normal((1, 2 * d * d)), d)[0]


def _check_unitary(m: np.ndarray, what: str) -> None:
    """Reject unless every square matrix in the stack ``m`` has max |U*U - I| <= ATOL.

    Up to ``_SMALL_D``, U*U is accumulated one row of U at a time on a
    (row, column, trial) layout, so each temporary is the size of the
    stack.
    """
    d = m.shape[-1]
    if d <= _SMALL_D:
        rows = np.ascontiguousarray(m.reshape(-1, d, d).transpose(1, 2, 0))
        gram = rows[0, :, None].conj() * rows[0, None, :]
        for r in range(1, d):
            gram += rows[r, :, None].conj() * rows[r, None, :]
        gram -= np.eye(d)[..., None]
    else:
        gram = np.swapaxes(m.conj(), -1, -2) @ m - np.eye(d)
    resid = float(np.max(np.abs(gram)))
    if not resid <= ATOL:
        raise ValidationError(f"{what} is not unitary: max |U*U - I| = {resid:.3e}")


@dataclass(frozen=True)
class LocalUnitary:
    """One unitary factor per party, applied as U_1 x U_2 x ... x U_N.

    Each factor k must be square and nonempty, of size ``dims[k]``,
    and satisfy U U^dagger = I entrywise within 1e-9.
    """

    factors: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        try:
            factors = tuple(self.factors)
        except TypeError:
            raise ValidationError(
                f"factors must be a sequence of square arrays, got {self.factors!r}"
            ) from None
        checked = []
        for k, f in enumerate(factors):
            m = _as_complex_array(f, f"factor {k}")
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValidationError(f"factor {k} is not square: shape {m.shape}")
            if m.size == 0:
                raise ValidationError(f"factor {k} is empty: shape {m.shape}")
            _check_unitary(m, f"factor {k}")
            m = m.copy()
            m.setflags(write=False)
            checked.append(m)
        object.__setattr__(self, "factors", tuple(checked))

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.factors)


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
    state = _as_instance(state, StateVector, "the state")
    u = _as_instance(u, LocalUnitary, "the local unitary")
    if u.dims != state.dims:
        raise ValidationError(
            f"factor dims {u.dims} do not match state dims {state.dims}"
        )
    return StateVector(state.dims, _apply_block(state.tensor(), [f[None] for f in u.factors])[0])


def _apply_block(tensor: np.ndarray, factors: list) -> np.ndarray:
    """``(U_1 x ... x U_N) tensor`` for each trial, stacked on a leading axis.

    ``factors`` holds one ``(trials, d, d)`` array per party; one state
    is the stack of one trial.  A party of dimension up to ``_SMALL_D``
    is contracted with the trial axis last, as a sum over the contracted
    index j added in order: one product of the output's size per j.
    Above it, numpy's stacked matmul contracts with the trial axis first.
    """
    t, last = tensor.reshape(1, -1), False  # trial axis first; one row serves every trial
    left = 1
    for u in factors:
        d = u.shape[-1]
        if (d <= _SMALL_D) != last:  # move the trial axis to the other end
            t = t.reshape(-1, t.shape[-1]) if last else t.reshape(len(t), -1)
            t, last = np.ascontiguousarray(t.T), not last
        if last:
            # party k as axis 1 of (parties before, d, parties after, trial)
            t = t.reshape(left, d, -1, t.shape[-1])
            ut = np.ascontiguousarray(u.transpose(1, 2, 0))  # (i, j, trial)
            out = ut[:, 0, None] * t[:, None, 0]
            for j in range(1, d):
                out += ut[:, j, None] * t[:, None, j]
            t = out
        else:
            # party k as the middle axis of (trial, parties before, d, parties after)
            t = u[:, None] @ t.reshape(len(t), left, d, -1)
        left *= d
    if last:
        t = np.ascontiguousarray(t.reshape(-1, t.shape[-1]).T)
    return t.reshape((len(t),) + tensor.shape)


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
        try:
            tokens = [str(t) for t in group]
        except TypeError:
            raise ValidationError(
                f"group must be a string or a sequence of tokens, got {group!r}"
            ) from None
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
    The rekeying state dict holds plain ints, not numpy's ``uint64``
    arrays: the ``Philox.state`` setter reads every word by indexing,
    and indexing an array makes a numpy scalar per word, which cost
    most of the loop.
    """
    normals = np.empty((stop - start, sum(n for n, _ in maps)))
    bits = np.random.Philox(0)
    draw = np.random.Generator(bits).standard_normal
    fresh = bits.state
    words = fresh["state"]
    words["counter"] = words["counter"].tolist()
    fresh["buffer"] = fresh["buffer"].tolist()
    key = words["key"] = [0, seed]  # (low, high) words of (seed << 64) | t
    for row, t in enumerate(range(start, stop)):
        key[0] = t
        bits.state = fresh
        draw(out=normals[row])
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
    try:
        label, fn = invariant
    except (TypeError, ValueError):
        fn = None
    if not callable(fn):
        raise ValidationError(
            "invariant must be a registry name, a callable or a (label, callable)"
            f" pair, got {invariant!r}"
        )
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
    size.  The replayed trial's :func:`apply_local_unitary` equals the
    suite's contraction bit for bit, and for a registry name so does its
    :func:`named_invariant` value: the suite and the single-state API
    run the same kernels, one state being a stack of one trial.  Runs
    with equal (seed, trials) are bitwise identical.  Every block's
    factors must pass the unitarity check of :class:`LocalUnitary` and
    its transformed states the norm check of
    :class:`~entkit.states.StateVector`, which rejects non-finite rows.
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
    trials = _as_int(trials, "trials", lo=1)
    if trials > states.MAX_ENTRIES:
        raise ValidationError(f"trials {trials} exceeds the cap {states.MAX_ENTRIES}")
    state = _as_instance(state, StateVector, "the state")
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
        out = _apply_block(tensor, factors)
        _check_unit_norm(out.reshape(len(out), -1))
        drifts[start:stop] = np.abs(stacked(out) - baseline)
    return InvarianceReport(
        invariant_name=label,
        trials=trials,
        max_abs_drift=float(np.max(drifts)),
        mean_abs_drift=float(np.mean(drifts)),
        seed=seed,
    )
