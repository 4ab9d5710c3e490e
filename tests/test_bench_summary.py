"""tools/bench_summary.py: the quartiles and pair counts of a BENCH_<n>.json."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_summary.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_summary", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_summary = load_tool()


def write_records(checkout: Path, values: list[float], sources=("x = 1\n",),
                  metric="batch_cpu_s", trace=0) -> None:
    """One audit record per seed, with metric = values[seed], traced or not,
    and one src/nsshare/ module per text in sources."""
    package = checkout / "src" / "nsshare"
    package.mkdir(parents=True)
    for i, text in enumerate(sources):
        (package / f"m{i}.py").write_text(text)
    results = checkout / ".perfbench_run" / "results"
    results.mkdir(parents=True)
    environment = {key: "test" for key in bench_summary.ENVIRONMENT_KEYS}
    for seed, value in enumerate(values):
        record = {
            "workload": "audit", "trace": trace, "seconds": 1,
            "environment": dict(environment, seed=seed),
            "metrics": {metric: {"value": value, "unit": "s"}},
            "failures": {"check": 0},
            "known_defects": {"failures": {}},
        }
        (results / f"audit-{seed}.json").write_text(json.dumps(record))


def test_summary_quartiles_and_pairs_won(tmp_path):
    write_records(tmp_path / "parent", [1.0, 2.0, 3.0, 4.0, 5.0])
    write_records(tmp_path / "change", [1.0, 1.0, 4.0, 3.0, 2.0])
    summary = bench_summary.summarise(str(tmp_path / "parent"), str(tmp_path / "change"))
    row = summary["workloads"]["audit"]["batch_cpu_s"]
    assert row["pairs"] == 5
    assert row["change_better_in"] == 3  # seed 0 ties, seed 2 is worse
    assert row["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert row["change"] == {"median": 2.0, "q1": 1.0, "q3": 3.0}
    assert summary["seeds"] == [0, 1, 2, 3, 4]
    assert summary["failed_ops"] == {"parent": 0, "change": 0}


@pytest.mark.parametrize("change, over", [([1.24, 1.25, 1.26], False), ([1.25, 1.26, 1.27], True)],
                         ids=["within", "over"])
def test_summary_marks_a_row_over_its_bound(tmp_path, capsys, change, over):
    # batch_cpu_s has bound 0.25: a median of 1.25 against 1.0 is at it, 1.26 past it
    write_records(tmp_path / "parent", [0.9, 1.0, 1.1])
    write_records(tmp_path / "change", change)
    out = tmp_path / "bench.json"
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--out", str(out)]
    assert bench_summary.main(argv) == 0
    row = json.loads(out.read_text())["workloads"]["audit"]["batch_cpu_s"]
    assert row["bound"] == 0.25 and row["over_bound"] is over
    assert capsys.readouterr().out.rstrip().endswith("OVER BOUND") is over


def test_summary_prints_source_lines_and_failed_ops_first(tmp_path, capsys):
    write_records(tmp_path / "parent", [1.0], sources=("a\nb\nc\n",))
    write_records(tmp_path / "change", [1.0], sources=("a\nb\n",))
    failing = tmp_path / "change" / ".perfbench_run" / "results" / "audit-0.json"
    failing.write_text(failing.read_text().replace('"check": 0', '"check": 2'))
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--out", str(tmp_path / "bench.json")]
    assert bench_summary.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["src lines: 3 -> 2", "failed ops: 0 -> 2"]
    assert lines[2].startswith("audit ") and len(lines) == 3


def test_summary_reports_the_traced_cli_main_self_time(tmp_path):
    # the layer in which argument parsing runs
    write_records(tmp_path / "parent", [0.06, 0.07, 0.05], metric="cli.main.self_s", trace=1)
    write_records(tmp_path / "change", [0.02, 0.01, 0.03], metric="cli.main.self_s", trace=1)
    summary = bench_summary.summarise(str(tmp_path / "parent"), str(tmp_path / "change"))
    row = summary["workloads"]["audit"]["cli.main.self_s (traced)"]
    assert row["pairs"] == 3 and row["change_better_in"] == 3 and row["better"] == "lower"
    assert row["parent"]["median"] == 0.06 and row["change"]["median"] == 0.02


def test_summary_records_source_line_counts(tmp_path):
    # wc -l counts newlines: a last line without one is not counted
    write_records(tmp_path / "parent", [1.0], sources=("a\nb\nc\n", "d\ne\n", ""))
    write_records(tmp_path / "change", [1.0], sources=("a\nb\n", "c\nd"))
    (tmp_path / "change" / "src" / "nsshare" / "notes.txt").write_text("x\n" * 50)
    summary = bench_summary.summarise(str(tmp_path / "parent"), str(tmp_path / "change"))
    assert summary["src_lines"] == {"parent": 5, "change": 3}


def test_summary_refuses_a_side_without_sources(tmp_path, capsys):
    write_records(tmp_path / "parent", [1.0])
    write_records(tmp_path / "change", [1.0], sources=())
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--out", str(tmp_path / "bench.json")]
    assert bench_summary.main(argv) == 1
    assert capsys.readouterr().err == f"error: {tmp_path / 'change'}: no src/nsshare/*.py\n"
    assert not (tmp_path / "bench.json").exists()


@pytest.mark.parametrize("empty_side", ["parent", "change"])
def test_summary_refuses_a_side_without_records(tmp_path, capsys, empty_side):
    for side in ("parent", "change"):
        if side == empty_side:
            (tmp_path / side).mkdir()
        else:
            write_records(tmp_path / side, [1.0])
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--out", str(tmp_path / "bench.json")]
    assert bench_summary.main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {tmp_path / empty_side}: no perfbench")
    assert not (tmp_path / "bench.json").exists()
