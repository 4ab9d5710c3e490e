"""Report bytes pinned to the benchmark's reference, so byte drift fails here first.

perfbench/reference.json holds the sha256 of every audit row's and every
certified point's CSV and JSON reports (built by perfbench/make_reference.py).
These tests run a few of them through the same entry points and arguments as
perfbench/workloads.py and compare digests and LP verdicts.  The reference is
only read.
"""

import json
import os
import sys

import pytest

from nsshare import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import workloads  # noqa: E402

# one delta row of each 13-row stratum; rows 27 and 77 hold violations
AUDIT_ROWS = (0, 13, 27, 45, 58, 77)
POINTS_PER_N = 2


@pytest.fixture(scope="module")
def reference():
    with open(os.path.join(PERFBENCH, "reference.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_audit_rows_match_the_reference(reference, tmp_path, capsys):
    rows = reference["audit"]["rows"]
    csv_path, json_path = str(tmp_path / "audit.csv"), str(tmp_path / "audit.json")
    for i in AUDIT_ROWS:
        argv = workloads.Audit.argv(workloads.AUDIT_DELTAS[i], csv_path, json_path)
        assert cli.main(argv) == 0
        assert workloads.sha256(csv_path) == rows[i]["csv_sha256"], f"audit row {i} CSV"
        assert workloads.sha256(json_path) == rows[i]["json_sha256"], f"audit row {i} JSON"
    capsys.readouterr()


def test_certified_points_match_the_reference(reference, tmp_path):
    points = reference["point_certify"]["points"]
    csv_path, json_path = str(tmp_path / "point.csv"), str(tmp_path / "point.json")
    checked = 0
    for n in workloads.POINT_ROUNDS:
        for point in [p for p in points if p["n"] == n][:POINTS_PER_N]:
            summary = cli.run_experiment(
                workloads.PointCertify.config(cli, point, csv_path, json_path))
            for variant, want in point["verdicts"].items():
                verdicts = summary["variants"][variant]["certifier_verdicts"]
                assert [verdicts[str(k)] for k in range(1, n + 1)] == want, (n, variant)
            assert workloads.sha256(csv_path) == point["csv_sha256"], f"point {point} CSV"
            assert workloads.sha256(json_path) == point["json_sha256"], f"point {point} JSON"
            checked += 1
    assert checked == 16
