"""Summarise perfbench records of a parent and a change into one BENCH_<n>.json.

Each side is a checkout whose .perfbench_run/results/ holds the records that
`python3 perfbench/run.py --workload W --seed S --seconds T --trace {0|1}`
wrote there.  Untraced records (--trace 0) give, per workload and end-to-end
metric of BENCHMARK.json, each side's median, Q1 and Q3 over its seeds, and
how many seed pairs the change won (ties count for neither side), and
whether the change's median is worse than the parent's by more than the
metric's bound times the parent's median (over_bound).  Traced
records (--trace 1) give the same for the per-layer metrics in LAYER_METRICS.
Each side's src/nsshare/*.py line count is recorded as src_lines.  The
printout gives src_lines and failed_ops (parent -> change), then one line per
metric row.

    python3 tools/bench_summary.py --parent PARENT_DIR --change CHANGE_DIR --out BENCH_6.json
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# run_stack and its kernels are not wrapped, so the engine's time shows in
# cli.run_experiment.self_s; argument parsing shows in cli.main.self_s
LAYER_METRICS = ("certifier.lp_solves_per_verdict", "simplex.solve.calls",
                 "certifier.lp_feasible.calls", "simplex.iterations", "simplex.solve.self_s",
                 "simplex.solve.p50_ms", "cli.run_experiment.self_s", "cli.main.self_s",
                 "rounds_per_s")
ENVIRONMENT_KEYS = ("cpu_model", "nproc", "python", "numpy", "blas_threads_in_use")


def load_records(checkout: str) -> dict[tuple[str, int, int], dict]:
    """(workload, trace, seed) -> record, for every result file in a checkout.

    Raises ValueError, naming the checkout, when it holds no result file.
    """
    paths = sorted(glob.glob(os.path.join(checkout, ".perfbench_run", "results", "*.json")))
    if not paths:
        raise ValueError(f"{checkout}: no perfbench records in .perfbench_run/results/")
    records = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        key = (record["workload"], record["trace"], record["environment"]["seed"])
        records[key] = record
    return records


def src_lines(checkout: str) -> int:
    """Line count of the checkout's src/nsshare/*.py, as `wc -l` totals it.

    Raises ValueError, naming the checkout, when it holds no such file.
    """
    paths = glob.glob(os.path.join(checkout, "src", "nsshare", "*.py"))
    if not paths:
        raise ValueError(f"{checkout}: no src/nsshare/*.py")
    total = 0
    for path in paths:
        with open(path, "rb") as handle:
            total += handle.read().count(b"\n")
    return total


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(parent: dict, change: dict, workload: str, trace: int, name: str,
            better: str) -> dict | None:
    seeds = sorted(seed for (w, t, seed) in parent if w == workload and t == trace
                   and (w, t, seed) in change)
    pairs = [(parent[(workload, trace, s)]["metrics"], change[(workload, trace, s)]["metrics"])
             for s in seeds]
    pairs = [(p[name]["value"], c[name]["value"]) for p, c in pairs if name in p and name in c]
    if not pairs:
        return None
    sign = 1.0 if better == "lower" else -1.0
    return {
        "unit": parent[(workload, trace, seeds[0])]["metrics"][name]["unit"],
        "better": better,
        "pairs": len(pairs),
        "change_better_in": sum(1 for p, c in pairs if sign * (p - c) > 0),
        "parent": quartiles([p for p, _ in pairs]),
        "change": quartiles([c for _, c in pairs]),
    }


def summarise(parent_dir: str, change_dir: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    parent, change = load_records(parent_dir), load_records(change_dir)
    sides = (("parent", parent), ("change", change))
    layer_better = {m["name"]: m["better"] for m in benchmark["per_layer"]}
    workloads = {}
    for workload in (w["name"] for w in benchmark["workloads"]):
        rows = {}
        for metric in benchmark["end_to_end"]:
            row = compare(parent, change, workload, 0, metric["name"], metric["better"])
            if row is not None:
                sign = 1.0 if metric["better"] == "lower" else -1.0
                worse_by = sign * (row["change"]["median"] - row["parent"]["median"])
                over = worse_by > metric["bound"] * abs(row["parent"]["median"])
                rows[metric["name"]] = dict(row, bound=metric["bound"], over_bound=over)
        for name in LAYER_METRICS:
            row = compare(parent, change, workload, 1, name, layer_better[name])
            if row is not None:
                rows[name + " (traced)"] = row
        if rows:
            workloads[workload] = rows
    any_record = next(iter(change.values()))
    return {
        "environment": {k: any_record["environment"][k] for k in ENVIRONMENT_KEYS},
        "seconds": any_record["seconds"],
        "seeds": sorted({seed for (_, _, seed) in change}),
        "runs": {side: len(records) for side, records in sides},
        "src_lines": {"parent": src_lines(parent_dir), "change": src_lines(change_dir)},
        "failed_ops": {side: sum(sum(r["failures"].values()) for r in records.values())
                       for side, records in sides},
        "known_defect_failures": {
            side: sum(sum(r["known_defects"]["failures"].values()) for r in records.values())
            for side, records in sides},
        "workloads": workloads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    args = parser.parse_args(argv)
    try:
        summary = summarise(args.parent, args.change)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1, sort_keys=True)
        handle.write("\n")
    for name in ("src_lines", "failed_ops"):
        print(f"{name.replace('_', ' ')}: {summary[name]['parent']} -> {summary[name]['change']}")
    for workload, rows in summary["workloads"].items():
        for name, row in rows.items():
            p, c = row["parent"], row["change"]
            print(f"{workload:14s} {name:45s} {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]"
                  f" -> {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]"
                  f"  better in {row['change_better_in']}/{row['pairs']}"
                  + ("  OVER BOUND" if row.get("over_bound") else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
