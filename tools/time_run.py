"""Run one nsshare command in a child process and report its cost and its reports.

The child runs `python3 -m nsshare.cli ARGS` from this checkout's src/ with one
BLAS thread.  Printed: its exit code, its CPU seconds (user + system), peak
RSS and minor page faults, all from RUSAGE_CHILDREN, and the sha256 of each
--out-csv / --out-json file it wrote (a file it left as it was is "not
written").  The child's own output goes to this process's stdout / stderr.

    python3 tools/time_run.py --n 5 --recursion both --certify ... --out-csv a.csv
"""

from __future__ import annotations

import hashlib
import os
import resource
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


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    env = dict(os.environ, **{name: "1" for name in BLAS_THREAD_VARIABLES})
    before = {path: stamp(path) for path in report_paths(args)}
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = subprocess.run([sys.executable, "-m", "nsshare.cli", *args], env=env).returncode
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    print(f"exit code: {code}")
    print(f"child cpu_s: {usage.ru_utime + usage.ru_stime:.2f}")
    print(f"child peak_rss_mb: {usage.ru_maxrss / 1024:.1f}")  # ru_maxrss is in KiB on Linux
    print(f"child minor_faults: {usage.ru_minflt}")
    for path, old in before.items():
        new = stamp(path)
        digest = sha256(path) if new is not None and new != old else "(not written)"
        print(f"sha256 {path}: {digest}")
    return code


if __name__ == "__main__":
    sys.exit(main())
