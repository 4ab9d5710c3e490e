import json

import numpy as np
import pytest

from nsshare.behavior_io import export_behavior, import_behavior
from nsshare.engine import behavior
from nsshare.states import build_gghz


def ghz_table():
    return behavior(build_gghz(np.pi / 4), np.pi / 4, 1.0, round_index=3)


def test_round_trip_values_identical(tmp_path):
    path = tmp_path / "table.json"
    table = ghz_table()
    export_behavior(table, str(path))
    loaded = import_behavior(str(path))
    assert loaded.round_index == 3
    assert np.array_equal(loaded.probs, table.probs)


def test_round_trip_bytes_identical(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    table = ghz_table()
    export_behavior(table, str(first))
    export_behavior(import_behavior(str(first)), str(second))
    assert first.read_bytes() == second.read_bytes()


def test_import_missing_key_named(tmp_path):
    path = tmp_path / "table.json"
    export_behavior(ghz_table(), str(path))
    data = json.loads(path.read_text())
    del data["probs"]["010;110"]
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=r"missing probability for \(010;110\)"):
        import_behavior(str(path))


def test_import_unknown_key_rejected(tmp_path):
    path = tmp_path / "table.json"
    export_behavior(ghz_table(), str(path))
    data = json.loads(path.read_text())
    data["probs"]["222;000"] = 0.1
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="unknown probability key"):
        import_behavior(str(path))


def test_import_non_normalized_block_located(tmp_path):
    path = tmp_path / "table.json"
    export_behavior(ghz_table(), str(path))
    data = json.loads(path.read_text())
    data["probs"]["101;000"] += 0.25
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=r"block \(xyz\)=\(101\)"):
        import_behavior(str(path))


def test_import_negative_entry_named(tmp_path):
    path = tmp_path / "table.json"
    export_behavior(ghz_table(), str(path))
    data = json.loads(path.read_text())
    key = "000;000"
    data["probs"][key] -= 0.5
    other = "000;111"
    data["probs"][other] += 0.5
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=r"\(000;000\).*negative"):
        import_behavior(str(path))


def test_import_rejects_non_numeric(tmp_path):
    path = tmp_path / "table.json"
    export_behavior(ghz_table(), str(path))
    data = json.loads(path.read_text())
    data["probs"]["000;000"] = "big"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="not a number"):
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
        export_behavior(ghz_table(), str(path))
        data = json.loads(path.read_text())
        data["probs"][key] = value
        path.write_text(json.dumps(data))  # writes the NaN / Infinity literals
        with pytest.raises(ValueError, match=rf"{path}: probability \({key}\) is not finite"):
            import_behavior(str(path))
