"""tools/time_run.py: one nsshare command in a child process, its cost and its reports."""

import hashlib
import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "time_run.py"


def run_tool(cwd, *argv):
    return subprocess.run([sys.executable, str(TOOL), *argv], cwd=cwd, capture_output=True,
                          text=True)


def test_time_run_prints_every_line_of_a_point_run(tmp_path):
    csv, out_json = tmp_path / "point.csv", tmp_path / "point.json"
    run = run_tool(tmp_path, "--n", "1", "--out-csv", str(csv), f"--out-json={out_json}")
    assert run.returncode == 0 and run.stderr == ""
    lines = run.stdout.splitlines()
    # the child's own output comes first, then the tool's lines in order
    assert lines[:3] == ["printed: max violating k = 1", f"wrote {csv}", f"wrote {out_json}"]
    assert lines[3] == "exit code: 0"
    cost = [re.fullmatch(pattern, line) for pattern, line in zip(
        (r"child cpu_s: (\d+\.\d\d)", r"child peak_rss_mb: (\d+\.\d)",
         r"child minor_faults: (\d+)"), lines[4:7])]
    assert all(cost) and all(float(match[1]) > 0.0 for match in cost)
    assert lines[7:] == [f"sha256 {path}: {hashlib.sha256(path.read_bytes()).hexdigest()}"
                         for path in (csv, out_json)]


def test_time_run_names_a_report_the_child_did_not_write(tmp_path):
    # a refused run leaves its report path as it was
    csv = tmp_path / "point.csv"
    run = run_tool(tmp_path, "--n", "0", "--out-csv", str(csv))
    lines = run.stdout.splitlines()
    assert run.stderr == "error: n must be at least 1, got 0\n"
    assert run.returncode == 1 and lines[0] == "exit code: 1"
    assert re.fullmatch(r"child minor_faults: \d+", lines[3])
    assert lines[4:] == [f"sha256 {csv}: (not written)"] and not csv.exists()
