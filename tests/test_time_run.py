"""tools/time_run.py: one nsshare command in a child process, its cost and its reports."""

import hashlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_time_run_repeats_the_child_and_prints_each_report_once(tmp_path):
    csv, out_json = tmp_path / "point.csv", tmp_path / "point.json"
    run = run_tool(tmp_path, "--repeat", "3", "--n", "1", "--out-csv", str(csv),
                   f"--out-json={out_json}")
    assert run.returncode == 0 and run.stderr == ""
    lines = run.stdout.splitlines()
    assert lines[:9] == ["printed: max violating k = 1", f"wrote {csv}", f"wrote {out_json}"] * 3
    runs = [re.fullmatch(rf"run {i}: exit code 0, cpu_s (\d+\.\d\d), minor_faults (\d+)", line)
            for i, line in enumerate(lines[9:12], start=1)]
    assert all(runs)
    cpus, faults = ([float(match[group]) for match in runs] for group in (1, 2))
    assert lines[12] == f"child cpu_s: median {sorted(cpus)[1]:.2f}"
    assert re.fullmatch(r"child peak_rss_mb: \d+\.\d", lines[13])
    assert lines[14] == f"child minor_faults: median {sorted(faults)[1]:.0f}"
    assert lines[15:] == [f"sha256 {path}: {hashlib.sha256(path.read_bytes()).hexdigest()}"
                          for path in (csv, out_json)]


def test_time_run_exits_1_when_repeated_runs_write_different_bytes(tmp_path, monkeypatch,
                                                                   capsys):
    spec = importlib.util.spec_from_file_location("time_run", TOOL)
    time_run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(time_run)
    csv, out_json = tmp_path / "a.csv", tmp_path / "a.json"
    written = []

    def child(command, env):
        # each run replaces both reports, as nsshare does: the CSV with the same
        # bytes, the JSON with the run's number
        for path, text in ((csv, "same\n"), (out_json, f"{len(written)}\n")):
            (tmp_path / "next").write_text(text)
            os.replace(tmp_path / "next", path)
        written.append(out_json.read_bytes())
        return subprocess.CompletedProcess(command, 0)

    monkeypatch.setattr(time_run.subprocess, "run", child)
    assert time_run.main(["--repeat", "2", "--out-csv", str(csv), "--out-json", str(out_json)]) == 1
    lines = capsys.readouterr().out.splitlines()
    same, *digests = (hashlib.sha256(data).hexdigest() for data in (b"same\n", *written))
    assert lines[-2:] == [f"sha256 {csv}: {same}",
                          f"sha256 {out_json}: differs between runs: {', '.join(digests)}"]


@pytest.mark.parametrize("count", ["0", "x", "-1", None])
def test_time_run_refuses_a_bad_repeat_count(tmp_path, count):
    run = run_tool(tmp_path, "--repeat", *([count, "--n", "1"] if count else []))
    shown = repr(count or "")
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr == f"error: --repeat needs a run count of at least 1, got {shown}\n"
