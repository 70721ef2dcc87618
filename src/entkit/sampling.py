"""Haar-random local unitaries and Monte-Carlo invariance checks.

Randomness comes from counter-based Philox streams keyed by
(seed, counter), so trial t of a run is reproducible in isolation and
disjoint counter ranges never collide.  The invariance suite applies a
fresh local unitary per trial and reports how far a chosen functional
drifts from its value on the untransformed state; genuine invariants
stay at rounding level while the negative control moves at order one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import states
from .hyperdet import cayley_hyperdeterminant
from .schmidt import bipartite_determinant, schmidt_decompose
from .states import LocalUnitary, StateVector, ValidationError, apply_local_unitary

__all__ = [
    "InvarianceReport",
    "trial_rng",
    "random_su2",
    "haar_unitary",
    "random_sud",
    "named_invariant",
    "invariance_suite",
]


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
        if self.max_abs_drift < 0.0 or self.mean_abs_drift < 0.0:
            raise ValidationError("drift statistics must be non-negative")


def trial_rng(seed: int, counter: int = 0) -> np.random.Generator:
    """Counter-based generator; identical (seed, counter) → identical stream.

    The 128-bit Philox key holds the seed in the high word and the
    counter in the low word, so trials drawn from distinct counters are
    independent and any single trial can be replayed alone.  Both must
    lie in [0, 2**64).
    """
    seed, counter = int(seed), int(counter)
    if not (0 <= seed < 2**64 and 0 <= counter < 2**64):
        raise ValidationError(
            f"seed and counter must lie in [0, 2**64), got {seed} and {counter}"
        )
    key = (seed << 64) | counter
    return np.random.Generator(np.random.Philox(key=key))


def random_su2(rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed SU(2) matrix from a uniform unit quaternion."""
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    return np.array(
        [
            [q[0] + 1j * q[3], q[2] + 1j * q[1]],
            [-q[2] + 1j * q[1], q[0] - 1j * q[3]],
        ]
    )


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed U(d) matrix.

    QR of a complex Ginibre matrix, with the R diagonal's phases folded
    into Q; without that correction QR is not Haar.
    """
    if d < 1:
        raise ValidationError(f"need d >= 1, got {d}")
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def random_sud(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed SU(d) matrix for d >= 2.

    A Haar U(d) sample divided by the principal d-th root of its
    determinant; the principal branch keeps the construction
    deterministic.
    """
    if d < 2:
        raise ValidationError(f"need d >= 2, got {d}")
    u = haar_unitary(d, rng)
    det = complex(np.linalg.det(u))
    return u / np.exp(np.log(det) / d)


def _group_factories(state: StateVector, group):
    """Per-party samplers from a group descriptor.

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
    factories = []
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
            factories.append(random_su2)
        elif kind == "su":
            factories.append(lambda rng, dd=dim: random_sud(dd, rng))
        else:
            factories.append(lambda rng, dd=dim: haar_unitary(dd, rng))
    return factories


def _schmidt_rank_first(state: StateVector) -> float:
    return float(schmidt_decompose(state, (0,)).rank)


_REGISTRY = {
    "norm": lambda s: s.norm(),
    "det": bipartite_determinant,
    "hyperdet3q": cayley_hyperdeterminant,
    "schmidt-rank": _schmidt_rank_first,
    "amp00": lambda s: complex(s.amplitudes[0]),
}


def named_invariant(invariant):
    """Resolve an invariant descriptor to (label, callable).

    Accepts a registry name ("norm", "det", "hyperdet3q",
    "schmidt-rank", or the deliberately non-invariant control "amp00"),
    a (label, callable) pair, or a bare callable.
    """
    if isinstance(invariant, str):
        key = invariant.lower()
        if key not in _REGISTRY:
            raise ValidationError(
                f"unknown invariant {invariant!r}; known: {sorted(_REGISTRY)}"
            )
        return key, _REGISTRY[key]
    if callable(invariant):
        return getattr(invariant, "__name__", "custom"), invariant
    label, fn = invariant
    if not callable(fn):
        raise ValidationError("invariant descriptor must carry a callable")
    return str(label), fn


def invariance_suite(
    state: StateVector,
    invariant,
    group="su",
    trials: int = 1000,
    seed: int = 0,
) -> InvarianceReport:
    """Monte-Carlo drift of a functional under random local unitaries.

    Each trial draws one fresh unitary per party from the group
    descriptor,
    transforms the state, and records |f(U state) - f(state)|.  Runs
    with equal (seed, trials) are bitwise identical.

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

    Returns
    -------
    InvarianceReport
    """
    if trials < 1:
        raise ValidationError(f"need at least one trial, got {trials}")
    if trials > states.MAX_ENTRIES:
        raise ValidationError(f"trials {trials} exceeds the cap {states.MAX_ENTRIES}")
    label, fn = named_invariant(invariant)
    factories = _group_factories(state, group)
    baseline = fn(state)
    drifts = np.empty(trials)
    for t in range(trials):
        rng = trial_rng(seed, t)
        lu = LocalUnitary(factors=tuple(f(rng) for f in factories))
        drifts[t] = abs(fn(apply_local_unitary(state, lu)) - baseline)
    return InvarianceReport(
        invariant_name=label,
        trials=trials,
        max_abs_drift=float(np.max(drifts)),
        mean_abs_drift=float(np.mean(drifts)),
        seed=int(seed),
    )
