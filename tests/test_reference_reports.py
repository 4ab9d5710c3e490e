"""Report bytes pinned to the benchmark's reference, so byte drift fails here first.

perfbench/reference.json holds the sha256 of every audit row's and every
certified point's CSV and JSON reports (built by perfbench/make_reference.py).
These tests run a few of them through the same entry points and arguments as
perfbench/workloads.py and compare digests and LP verdicts, and run one seed's
--certify-table probes through the benchmark's own checks.  The reference and
the benchmark's modules are only read.
"""

import json
import os
import sys

import numpy as np
import pytest

import nsshare
from nsshare import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import layers  # noqa: E402
import physics  # noqa: E402
import workloads  # noqa: E402

# one delta row of each 13-row stratum; rows 27 and 77 hold violations
AUDIT_ROWS = (0, 13, 27, 45, 58, 77)
POINTS_PER_N = 2
PROBE_SEED = 1


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


def test_certify_table_probes_pass_the_benchmark_checks(reference, tmp_path):
    # near-boundary tables and tables with a NaN entry, which the benchmark
    # probes apart from its timed ops; drawn after the batches, as run.py does
    workload = workloads.CertifyTable(reference)
    rng = np.random.default_rng(PROBE_SEED)
    workload.generate(rng, str(tmp_path), cli)
    probes = workload.probes(rng, str(tmp_path))
    assert len(probes) == workloads.PROBE_NEAR_BOUNDARY + workloads.PROBE_NAN
    vertices = np.asarray(nsshare.hybrid_vertices().vectors)
    assert physics.same_row_set(vertices, physics.hybrid_vertex_rows())
    lp_calls = []
    with layers.capture_lp_results(lp_calls):
        for op in probes:
            del lp_calls[:]
            outcome = workload.execute(cli, op)
            assert workload.check(op, outcome, lp_calls, vertices) is None, op.key
            for path in op.outputs:
                if os.path.exists(path):
                    os.unlink(path)
