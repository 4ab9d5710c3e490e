"""Run one nsshare command in a child process and report its cost and its reports.

The child runs `python3 -m nsshare.cli ARGS` from this checkout's src/ with one
BLAS thread.  Printed: its exit code, its CPU seconds (user + system), peak
RSS and minor page faults, all from RUSAGE_CHILDREN, and the sha256 of each
--out-csv / --out-json file it wrote (a file it left as it was is "not
written").  The child's own output goes to this process's stdout / stderr.

    python3 tools/time_run.py --n 5 --recursion both --certify ... --out-csv a.csv

A leading `--repeat K` runs the child K times and prints each run's exit code,
CPU seconds and minor faults, their medians and the peak RSS over all runs,
then each report's sha256 once; it exits 1 if the runs wrote different bytes.
"""

from __future__ import annotations

import hashlib
import os
import resource
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
REPORT_FLAGS = ("--out-csv", "--out-json")


def report_paths(args: list[str]) -> list[str]:
    """The report paths args name, in order, in both `--flag PATH` and `--flag=PATH` form."""
    paths = []
    for i, arg in enumerate(args):
        flag, equals, value = arg.partition("=")
        if flag in REPORT_FLAGS:
            if equals:
                paths.append(value)
            elif i + 1 < len(args):
                paths.append(args[i + 1])
    return paths


def stamp(path: str) -> tuple | None:
    """The file's identity and modification time, or None when there is no file."""
    try:
        status = os.stat(path)
    except OSError:
        return None
    return status.st_ino, status.st_mtime_ns, status.st_size


def sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def run_child(args: list[str], env: dict) -> tuple[int, float, int, dict]:
    """One child run: its exit code, CPU seconds, minor faults and {report: sha256}."""
    before = {path: stamp(path) for path in report_paths(args)}
    start = resource.getrusage(resource.RUSAGE_CHILDREN)
    code = subprocess.run([sys.executable, "-m", "nsshare.cli", *args], env=env).returncode
    end = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = end.ru_utime + end.ru_stime - start.ru_utime - start.ru_stime
    digests = {}
    for path, old in before.items():
        new = stamp(path)
        digests[path] = sha256(path) if new is not None and new != old else "(not written)"
    return code, cpu, end.ru_minflt - start.ru_minflt, digests


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    repeat = None
    if args[:1] == ["--repeat"]:
        count = args[1] if len(args) > 1 else ""
        if not (count.isdecimal() and int(count) >= 1):
            print(f"error: --repeat needs a run count of at least 1, got {count!r}",
                  file=sys.stderr)
            return 2
        repeat, args = int(count), args[2:]
    env = dict(os.environ, **{name: "1" for name in BLAS_THREAD_VARIABLES})
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    runs = [run_child(args, env) for _ in range(repeat or 1)]
    # ru_maxrss is the largest child's, in KiB on Linux
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    codes, cpus, faults, digests = zip(*runs)
    if repeat is None:
        print(f"exit code: {codes[0]}")
        print(f"child cpu_s: {cpus[0]:.2f}")
        print(f"child peak_rss_mb: {peak_rss_mb:.1f}")
        print(f"child minor_faults: {faults[0]}")
    else:
        for i, (code, cpu, fault) in enumerate(zip(codes, cpus, faults), start=1):
            print(f"run {i}: exit code {code}, cpu_s {cpu:.2f}, minor_faults {fault}")
        print(f"child cpu_s: median {statistics.median(cpus):.2f}")
        print(f"child peak_rss_mb: {peak_rss_mb:.1f}")
        print(f"child minor_faults: median {statistics.median(faults):.0f}")
    differ = False
    for path in digests[0]:
        seen = list(dict.fromkeys(run[path] for run in digests))
        differ |= len(seen) > 1
        print(f"sha256 {path}: " + (seen[0] if len(seen) == 1
                                    else "differs between runs: " + ", ".join(seen)))
    return 1 if differ else next((code for code in codes if code), 0)


if __name__ == "__main__":
    sys.exit(main())
