"""Behavior-table files: reading and checking their JSON, and atomic report writes.

Format: {"round": k, "probs": {"xyz;abc": value, ...}} with one entry per
input/outcome combination, keys as two 3-bit strings.  "round" is optional
(default 1) and, when given, must be a positive integer; it names the table's
round and is otherwise unused.
"""

from __future__ import annotations

import json
import os
import tempfile

from .engine import TABLE_KEYS, BehaviorTable


def atomic_write_text(path: str, text: str) -> None:
    """Write-then-rename so readers never observe a partial file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def read_json(path: str):
    """json.load of a file; a malformed, too deep or undecodable file is refused by name."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
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
        if key not in TABLE_KEYS:
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
        return BehaviorTable.from_vector(values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
