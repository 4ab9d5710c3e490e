"""Behavior-table files: reading and checking their JSON, and atomic report writes.

Format: {"round": k, "probs": {"xyz;abc": value, ...}} with one entry per
input/outcome combination, keys as two 3-bit strings.  "round" is optional
(default 1) and, when given, must be a positive integer; it names the table's
round and is otherwise unused.
"""

from __future__ import annotations

import errno
import json
import os
import tempfile

import numpy as np

from .engine import TABLE_KEYS, BehaviorTable

_KNOWN_KEYS = frozenset(TABLE_KEYS)


def atomic_write_text(path: str, text: str) -> None:
    """Write-then-rename so readers never observe a partial file; an error names path."""
    if os.path.isdir(path):  # os.replace would call a directory given as "d/" not a directory
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    directory, tmp_path = os.path.dirname(os.path.abspath(path)), None
    try:
        fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException as exc:
        if tmp_path is not None and os.path.exists(tmp_path):
            os.unlink(tmp_path)
        if isinstance(exc, OSError) and exc.strerror:
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict, refusing a key that it gives twice."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"duplicate key {key!r}")
        data[key] = value
    return data


def read_json(path: str):
    """json.load of a file, refusing by name bad, too deep or undecodable JSON or a repeated key."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle, object_pairs_hook=_unique_keys)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: {exc}") from None


def import_behavior(path: str) -> BehaviorTable:
    """Read a table file; BehaviorTable checks the values, and errors name the file."""
    data = read_json(path)
    if not isinstance(data, dict) or "probs" not in data:
        raise ValueError(f"{path}: expected an object with a 'probs' mapping")
    round_index = data.get("round", 1)
    if isinstance(round_index, bool) or not isinstance(round_index, int) or round_index < 1:
        raise ValueError(f"{path}: 'round' must be a positive integer, got {round_index!r}")
    probs = data["probs"]
    if not isinstance(probs, dict):
        raise ValueError(f"{path}: 'probs' must be a mapping")
    for key in probs:
        if key not in _KNOWN_KEYS:
            raise ValueError(f"{path}: unknown probability key {key!r}")
    values = []
    for key in TABLE_KEYS:
        if key not in probs:
            raise ValueError(f"{path}: missing probability for ({key})")
        value = probs[key]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(f"{path}: probability ({key}) is not a number: {value!r}")
        try:
            values.append(float(value))
        except OverflowError:  # an integer literal beyond the float range
            raise ValueError(f"{path}: probability ({key}) is too large for a float") from None
    try:
        return BehaviorTable(np.reshape(values, (2,) * 6))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
