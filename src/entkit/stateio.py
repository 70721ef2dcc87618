"""State file serialization.

The on-disk format is a JSON document

    {"dims": [d1, ..., dN],
     "amplitudes": [{"index": [i1, ..., iN], "re": x, "im": y}, ...]}

with 0-based indices.  Omitted entries are zero.  The reader normalizes
and reports the pre-normalization norm, so files may store unnormalized
coefficients.  It checks only the document's structure and the ``re``
and ``im`` numbers itself; ``dims`` and the indices are checked by the
rules that :func:`~entkit.states.make_state` applies to its entries.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .states import StateVector, ValidationError, _as_instance, _as_real, _dense, _normalized
from .states import _shown

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


def state_from_json(doc: dict) -> LoadedState:
    """Parse the state document; normalizes and records the input norm.

    The reader checks the document's structure: an object with ``dims``
    and an ``amplitudes`` list whose items hold ``index`` and ``re``.
    ``re`` and ``im`` must be finite JSON numbers, not booleans or
    strings.  ``dims`` and each ``index`` are then checked once, by the
    rules of :func:`~entkit.states.make_state`: JSON integers, not
    booleans, floats or strings, each index in range and listed once.
    Any fault raises :class:`ValidationError`.
    """
    if not isinstance(doc, dict):
        raise ValidationError("state document must be a JSON object")
    try:
        dims, raw_entries = doc["dims"], doc["amplitudes"]
    except KeyError as exc:
        raise ValidationError(f"malformed state document: missing key {exc}") from None
    if not isinstance(raw_entries, list):
        raise ValidationError("'amplitudes' must be a list")
    entries = []
    for item in raw_entries:
        try:
            index, re, im = item["index"], item["re"], item.get("im", 0.0)
            entries.append((index, complex(_as_real(re, "re"), _as_real(im, "im"))))
        except (KeyError, TypeError, ValidationError) as exc:
            raise ValidationError(f"malformed amplitude entry {_shown(item)}: {exc}") from None
    arr = _dense(dims, entries)
    amps, norm = _normalized(arr)
    return LoadedState(StateVector(arr.shape, amps), norm)


def _as_path(path):
    """``path`` as a str or bytes file name; ``open`` would take an int for a file descriptor."""
    try:
        return os.fspath(path)
    except TypeError:
        raise ValidationError(f"path must be a str or os.PathLike, got {_shown(path)}") from None


def _os_failure(exc: OSError, verb: str, name) -> ValidationError:
    """``ValidationError`` for a failed file operation, the name at bounded length.

    The error is shown by its ``strerror``: its own text repeats the
    name whole.
    """
    return ValidationError(f"cannot {verb} {_shown(name)}: {exc.strerror}")


def read_state(path) -> LoadedState:
    """Read a state file from ``path``; a file that cannot be read raises ``ValidationError``."""
    name = _as_path(path)  # before the try: its ValidationError is a ValueError
    try:
        with open(name, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise _os_failure(exc, "read", name) from None
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise ValidationError(f"{_shown(name)} is not valid JSON: {exc}") from None
    return state_from_json(doc)


def write_state(state: StateVector, path) -> None:
    """Write a state file to ``path`` as one line of compact JSON.

    A file that cannot be written raises ``ValidationError``, as in
    :func:`read_state`.
    """
    # json.dumps without indent runs the C encoder; json.dump to a file
    # and any indent fall back to the pure-Python one
    _write_text(path, json.dumps(state_to_json(state)) + "\n")


def _write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` in UTF-8; a failed write raises ``ValidationError``."""
    name = _as_path(path)
    try:
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _os_failure(exc, "write", name) from None
