import json
import re

import numpy as np
import pytest

from nsshare.behavior_io import import_behavior
from nsshare.engine import BehaviorTable, behavior
from nsshare.states import build_gghz

from conftest import signaling_probs, write_table


def ghz_probs():
    return behavior(build_gghz(np.pi / 4), np.pi / 4, 1.0).probs


def test_round_trip_values_identical(tmp_path):
    path = tmp_path / "table.json"
    write_table(str(path), ghz_probs(), round_index=3)
    loaded = import_behavior(str(path))
    assert isinstance(loaded, BehaviorTable)
    assert np.array_equal(loaded.probs, ghz_probs())


def test_round_trip_bytes_identical(tmp_path):
    # import hands back every float of the file unchanged
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    write_table(str(first), ghz_probs(), round_index=3)
    write_table(str(second), import_behavior(str(first)).probs, round_index=3)
    assert first.read_bytes() == second.read_bytes()


def test_import_refuses_signaling_table_by_name(tmp_path):
    path = tmp_path / "table.json"
    write_table(str(path), signaling_probs())
    message = f"{path}: table is signaling: P(ac|xz) vs y varies by 1.000e+00 (tolerance 1e-10)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        import_behavior(str(path))


def test_import_missing_key_named(tmp_path):
    path = tmp_path / "table.json"
    write_table(str(path), ghz_probs())
    data = json.loads(path.read_text())
    del data["probs"]["010;110"]
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=r"missing probability for \(010;110\)"):
        import_behavior(str(path))


def test_import_unknown_key_rejected(tmp_path):
    path = tmp_path / "table.json"
    write_table(str(path), ghz_probs())
    data = json.loads(path.read_text())
    data["probs"]["222;000"] = 0.1
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="unknown probability key"):
        import_behavior(str(path))


def test_import_non_normalized_block_located(tmp_path):
    path = tmp_path / "table.json"
    write_table(str(path), ghz_probs())
    data = json.loads(path.read_text())
    data["probs"]["101;000"] += 0.25
    path.write_text(json.dumps(data))
    pattern = rf"^{re.escape(str(path))}: block \(101;abc\) sums to 1\.25"
    with pytest.raises(ValueError, match=pattern):
        import_behavior(str(path))


def test_import_negative_entry_named(tmp_path):
    path = tmp_path / "table.json"
    write_table(str(path), ghz_probs())
    data = json.loads(path.read_text())
    key = "000;000"
    data["probs"][key] -= 0.5
    other = "000;111"
    data["probs"][other] += 0.5
    path.write_text(json.dumps(data))
    pattern = rf"^{re.escape(str(path))}: behavior entry \(000;000\) must be >= "
    with pytest.raises(ValueError, match=pattern):
        import_behavior(str(path))


def test_import_rejects_non_numeric(tmp_path):
    path = tmp_path / "table.json"
    write_table(str(path), ghz_probs())
    data = json.loads(path.read_text())
    data["probs"]["000;000"] = "big"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="not a number"):
        import_behavior(str(path))


def test_import_rejects_integer_beyond_float_range(tmp_path):
    path = tmp_path / "table.json"
    write_table(str(path), ghz_probs())
    data = json.loads(path.read_text())
    data["probs"]["000;001"] = 10 ** 400
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=r"probability \(000;001\) is too large for a float"):
        import_behavior(str(path))


def test_import_rejects_wrong_shape(tmp_path):
    path = tmp_path / "table.json"
    path.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(ValueError, match="probs"):
        import_behavior(str(path))


def test_import_non_finite_entry_named(tmp_path):
    path = tmp_path / "table.json"
    for key, value in (("000;000", float("nan")), ("011;101", float("nan")),
                       ("110;010", float("inf")), ("111;111", float("nan"))):
        write_table(str(path), ghz_probs())
        data = json.loads(path.read_text())
        data["probs"][key] = value
        path.write_text(json.dumps(data))  # writes the NaN / Infinity literals
        pattern = rf"^{re.escape(str(path))}: behavior entry \({key}\) must be finite"
        with pytest.raises(ValueError, match=pattern):
            import_behavior(str(path))


def test_import_rejects_boolean_round(tmp_path):
    path = tmp_path / "table.json"
    write_table(str(path), ghz_probs())
    data = json.loads(path.read_text())
    for value in (True, False, 0, -2, 1.5, "2", None):
        data["round"] = value
        path.write_text(json.dumps(data))
        message = f"{path}: 'round' must be a positive integer, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            import_behavior(str(path))
