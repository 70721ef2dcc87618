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
from dataclasses import dataclass

import numpy as np

from .states import StateVector, ValidationError, _normalized, make_state_raw

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
    """
    t = state.tensor()
    entries = []
    for index in np.ndindex(*state.dims):
        v = t[index]
        if abs(v) > threshold:
            entries.append(
                {"index": [int(i) for i in index], "re": float(v.real), "im": float(v.imag)}
            )
    return {"dims": list(state.dims), "amplitudes": entries}


def state_from_json(doc: dict) -> LoadedState:
    """Parse the state document; normalizes and records the input norm."""
    if not isinstance(doc, dict):
        raise ValidationError("state document must be a JSON object")
    try:
        dims = [int(d) for d in doc["dims"]]
        raw_entries = doc["amplitudes"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed state document: {exc}") from None
    if not isinstance(raw_entries, list):
        raise ValidationError("'amplitudes' must be a list")
    entries = {}
    for item in raw_entries:
        try:
            index = tuple(int(i) for i in item["index"])
            value = complex(float(item["re"]), float(item.get("im", 0.0)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed amplitude entry {item!r}: {exc}") from None
        if index in entries:
            raise ValidationError(f"amplitude index {list(index)} is listed twice")
        entries[index] = value
    arr, norm = make_state_raw(dims, entries)
    return LoadedState(StateVector(tuple(dims), _normalized(arr)[0]), norm)


def read_state(path) -> LoadedState:
    """Read a state file from ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from None
    return state_from_json(doc)


def write_state(state: StateVector, path) -> None:
    """Write a state file to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_to_json(state), fh, indent=1)
        fh.write("\n")
