"""State file serialization.

The on-disk format is a JSON document

    {"dims": [d1, ..., dN],
     "amplitudes": [{"index": [i1, ..., iN], "re": x, "im": y}, ...]}

with 0-based indices.  Omitted entries are zero.  The reader normalizes
and reports the pre-normalization norm, so files may store unnormalized
coefficients.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .states import StateVector, ValidationError, _as_instance, _as_real, _dense, _normalized

__all__ = ["LoadedState", "read_state", "write_state", "state_to_json", "state_from_json"]


@dataclass(frozen=True)
class LoadedState:
    """A state read from file plus its pre-normalization norm."""

    state: StateVector
    pre_norm: float


def state_to_json(state: StateVector, threshold: float = 0.0) -> dict:
    """JSON-ready dict for a state.

    Entries with |amplitude| <= threshold are omitted; the default keeps
    every nonzero entry.

    Raises
    ------
    ValidationError
        If ``threshold`` is not a finite real number >= 0 (bools are
        rejected).
    """
    state = _as_instance(state, StateVector, "the state")
    threshold = _as_real(threshold, "threshold", lo=0)
    amps = state.amplitudes
    keep = np.flatnonzero(np.abs(amps) > threshold)
    indices = np.column_stack(np.unravel_index(keep, state.dims)).tolist()
    entries = [
        {"index": index, "re": float(v.real), "im": float(v.imag)}
        for index, v in zip(indices, amps[keep])
    ]
    return {"dims": list(state.dims), "amplitudes": entries}


def _integer(value, what: str) -> int:
    """A JSON integer; floats, bools and strings raise instead of truncating."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be a JSON integer, got {value!r}")
    return value


def _number(value, what: str) -> float:
    """A JSON number as a float; bools and strings raise."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{what} must be a JSON number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise TypeError(f"{what} lies outside the float range") from None


def state_from_json(doc: dict) -> LoadedState:
    """Parse the state document; normalizes and records the input norm.

    ``dims`` and ``index`` entries must be JSON integers and ``re``/``im``
    JSON numbers; anything else raises :class:`ValidationError`.
    """
    if not isinstance(doc, dict):
        raise ValidationError("state document must be a JSON object")
    try:
        dims = [_integer(d, "dims entry") for d in doc["dims"]]
        raw_entries = doc["amplitudes"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed state document: {exc}") from None
    if not isinstance(raw_entries, list):
        raise ValidationError("'amplitudes' must be a list")
    entries = []
    for item in raw_entries:
        try:
            index = tuple(_integer(i, "index entry") for i in item["index"])
            value = complex(_number(item["re"], "re"), _number(item.get("im", 0.0), "im"))
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed amplitude entry {item!r}: {exc}") from None
        entries.append((index, value))
    amps, norm = _normalized(_dense(dims, entries))
    return LoadedState(StateVector(tuple(dims), amps), norm)


def _as_path(path):
    """``path`` as a str or bytes file name; ``open`` would take an int for a file descriptor."""
    try:
        return os.fspath(path)
    except TypeError:
        raise ValidationError(f"path must be a str or os.PathLike, got {path!r}") from None


def read_state(path) -> LoadedState:
    """Read a state file from ``path``."""
    try:
        with open(_as_path(path), "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise ValidationError(f"{path} is not valid JSON: {exc}") from None
    return state_from_json(doc)


def write_state(state: StateVector, path) -> None:
    """Write a state file to ``path`` as one line of compact JSON."""
    # json.dumps without indent runs the C encoder; json.dump to a file
    # and any indent fall back to the pure-Python one
    text = json.dumps(state_to_json(state))
    with open(_as_path(path), "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
