"""nsshare benchmark: one process, one BLAS thread, the package's public entry points.

Run from the root of a checkout (the package is imported from its ./src):

    python3 perfbench/run.py --workload audit --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): audit, point-certify, certify-table.  The
inputs come from the seed alone, as batches of equal make-up, and are made
before any timing.  The run times whole batches, op by op, until --seconds
have passed, and checks every op's outputs after its timed call.

Times are CPU seconds of this process (user + system).  The program is one
thread that computes and writes small files without fsync, so its CPU time is
its wall-clock time less what the host's scheduler takes away; on a shared
virtual machine that stolen time swings the wall clock by tens of percent from
one op to the next.  Short ops are timed by the least of a few passes spread
over the run (see Runner).  batch_cpu_s is the median batch time; op_cpu_p50_ms and
op_cpu_tail_ms are taken over all timed ops.  setup_s is the median, over
fresh interpreters, of the CPU time of `import nsshare` plus the first
hybrid_vertices().  The wall-clock figures go to the record and, traced, to
the wall.* metrics.

--trace 0 prints the end-to-end metrics.  --trace 1 runs every batch untraced
and then traced, and prints the per-layer metrics of the traced runs (per
batch), taken by wrapping the package's functions from outside (layers.py).  The last stdout
line is the JSON result.  Inputs on which the program is known to fail
(workloads.py, probes()) are checked once after the timing and reported on their
own line, in the record and, traced, as known_defects.failed; they are neither
timed nor counted in "failed".  A fuller record with the environment, sample counts
and failure reasons goes to .perfbench_run/results/, and traced spans to
.perfbench_run/spans/.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS  # before numpy loads its BLAS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(ROOT, ".perfbench_run")
SETUP_RUNS = 5
TAIL_LADDER = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND_TAIL = 10

SETUP_PROGRAM = """
import sys, time
start = time.process_time()
sys.path.insert(0, sys.argv[1])
import nsshare
nsshare.hybrid_vertices()
print(time.process_time() - start)
"""


def tail_percentile(samples) -> tuple[float, float]:
    """(p, value): the highest ladder percentile with >= 10 samples above its rank.

    Nearest-rank percentile: the value at 1-based rank ceil(p * n / 100).  With
    fewer than 20 samples no ladder step qualifies and the maximum is returned
    with p = 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = math.ceil(p * n / 100)
        if rank >= 1 and n - rank >= MIN_BEYOND_TAIL:
            return p, ordered[rank - 1]
    return 100.0, ordered[-1]


def measure_setup(runs: int = SETUP_RUNS) -> list[float]:
    times = []
    for _ in range(runs):
        done = subprocess.run([sys.executable, "-c", SETUP_PROGRAM, SRC], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def _blas_threads_in_use() -> int | None:
    """Ask numpy's bundled OpenBLAS how many threads it runs, when it can say."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    for lib in libs:
        getter = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.restype = ctypes.c_int
            return int(getter())
    return None


def _git_commit() -> str:
    """HEAD of a git checkout, read from .git without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:]), encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads_pinned": int(BLAS_THREADS),
        "blas_threads_in_use": _blas_threads_in_use(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


class Runner:
    """Runs whole batches of ops and keeps every measurement of the untraced ones.

    Untraced batches run in workload.repeats rounds: the first round runs new
    batches for its share of the time, and every later round runs the same
    batches again.  Each op is timed by the least of its passes: CPU time on a
    shared host only ever grows by what other tenants take from caches and
    cores, and that share changes from one stretch of seconds to the next, so
    the least over passes apart in time is the op's own cost.  Ops that take a
    fraction of a second would otherwise each carry a different share of that
    noise, and a tail percentile would pick out the ops that ran in the host's
    slowest seconds.  The passes repeat the same inputs: a cache inside the
    program keyed on them would make later passes cheaper, and would need
    repeats = 1 to be measured fairly.
    """

    def __init__(self, workload, cli, vertices):
        self.workload, self.cli, self.vertices = workload, cli, vertices
        self.latencies: list[float] = []       # CPU seconds of each untraced op
        self.wall_latencies: list[float] = []  # and its wall-clock seconds
        self.pass_cpu: list[float] = []        # CPU seconds of every untraced pass
        self.failures: Counter = Counter()
        self.attempted = 0
        self.rounds = 0      # behavior tables simulated in untraced batches
        self.verdicts = 0    # LP verdicts given in untraced batches

    def one_op(self, op, lp_calls: list, tracer=None):
        """Time one op, then check it.

        Returns (CPU seconds, wall seconds, behavior tables simulated, failure).
        """
        del lp_calls[:]
        if tracer is not None:
            tracer.op += 1
        rounds = 0
        start, cpu_start = perf_counter(), process_time()
        try:
            outcome = self.workload.execute(self.cli, op)
        except Exception as exc:  # a raising op is a failed op, not a crashed run
            cpu, wall = process_time() - cpu_start, perf_counter() - start
            failure = f"raised {type(exc).__name__}: {exc}"
        else:
            cpu, wall = process_time() - cpu_start, perf_counter() - start
            try:
                failure = self.workload.check(op, outcome, lp_calls, self.vertices)
                if not failure:
                    rounds = self.workload.rounds(op, outcome)
            except (KeyError, TypeError, ValueError, OSError) as exc:  # malformed output
                failure = f"output could not be checked: {type(exc).__name__}: {exc}"
        for path in op.outputs:
            if os.path.exists(path):
                os.unlink(path)
        return cpu, wall, rounds, failure

    def one_pass(self, batch, lp_calls: list, tracer=None) -> list[tuple[float, float]]:
        """Run every op of the batch once; returns each op's (CPU, wall) seconds."""
        times = []
        for op in batch:
            cpu, wall, rounds, failure = self.one_op(op, lp_calls, tracer)
            self.attempted += 1
            if failure:
                self.failures[f"{op.key}: {failure}"] += 1
            times.append((cpu, wall))
            if tracer is None:
                self.rounds += rounds
                self.verdicts += len(lp_calls)
        if tracer is None:
            self.pass_cpu.append(sum(cpu for cpu, _ in times))
        return times

    def least(self, passes) -> tuple[float, float]:
        """Keep each op's least time over the passes; returns the batch's (CPU, wall) seconds."""
        least = [(min(cpu for cpu, _ in op), min(wall for _, wall in op)) for op in zip(*passes)]
        self.latencies.extend(cpu for cpu, _ in least)
        self.wall_latencies.extend(wall for _, wall in least)
        return sum(cpu for cpu, _ in least), sum(wall for _, wall in least)


def traced_batch(runner: Runner, batch, lp_calls: list, tracer) -> float:
    """One traced pass over the batch; returns its CPU seconds."""
    with tracer.install():
        return sum(cpu for cpu, _ in runner.one_pass(batch, lp_calls, tracer))


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "nsshare", "__init__.py")):
        print(f"error: no nsshare package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy as np

    import nsshare
    import physics
    from layers import Tracer, capture_lp_results
    from nsshare import cli

    if not os.path.abspath(nsshare.__file__).startswith(SRC + os.sep):
        print(f"error: imported nsshare from {nsshare.__file__}, not {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
        reference = json.load(handle)
    for variant, totals in reference["audit"]["totals"].items():
        if sum(r["violations"][variant] for r in reference["audit"]["rows"]) != totals["violations"]:
            print(f"error: reference rows do not add up to the {variant} totals", file=sys.stderr)
            return 2

    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](reference)
        rng = np.random.default_rng(args.seed)
        batches = workload.generate(rng, os.path.relpath(workdir, ROOT), cli)
        probes = workload.probes(rng, os.path.relpath(workdir, ROOT))
        vertices = np.asarray(nsshare.hybrid_vertices().vectors)
        if not physics.same_row_set(vertices, physics.hybrid_vertex_rows()):
            vertices = None  # every "local" verdict then fails its certificate check
        setup = measure_setup() if not args.trace else []
        env = environment(args.seed)

        runner = Runner(workload, cli, vertices)
        lp_calls: list = []
        passes = []  # per untraced batch, the op times of each of its passes
        traced = []  # CPU seconds of each traced pass
        tracer = Tracer() if args.trace else None
        with capture_lp_results(lp_calls):
            runner.one_op(batches[0][0], lp_calls)  # warm-up: lazy imports and caches
            started = perf_counter()
            while perf_counter() - started < args.seconds / workload.repeats or not passes:
                index = len(passes)
                batch = batches[index % len(batches)]
                if tracer is not None and index % 2:  # same inputs traced, in alternating order
                    traced.append(traced_batch(runner, batch, lp_calls, tracer))
                passes.append([runner.one_pass(batch, lp_calls)])
                if tracer is not None and not index % 2:
                    traced.append(traced_batch(runner, batch, lp_calls, tracer))
            for _ in range(workload.repeats - 1):
                for index, times in enumerate(passes):
                    times.append(runner.one_pass(batches[index % len(batches)], lp_calls))
            untraced = [runner.least(times) for times in passes]
            known_defects = Counter()
            for op in probes:  # untimed, and apart from the timed ops' tally
                failure = runner.one_op(op, lp_calls)[3]
                if failure:
                    known_defects[f"{op.key}: {failure}"] += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    batch_cpu = statistics.median(cpu for cpu, _ in untraced)
    tail_p, tail_value = tail_percentile(runner.latencies)
    failed = sum(runner.failures.values())
    derived = {
        "rounds_per_s": runner.rounds / sum(runner.pass_cpu),
        "verdicts_per_s": runner.verdicts / sum(runner.pass_cpu),
        "fail_fraction": failed / runner.attempted,
        # the same figures in wall-clock time, which also counts the CPU time the host takes away
        "wall.batch_s": statistics.median(wall for _, wall in untraced),
        "wall.op_p50_ms": statistics.median(runner.wall_latencies) * 1e3,
        "wall.op_tail_ms": tail_percentile(runner.wall_latencies)[1] * 1e3,
    }
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "batch_cpu_s": (batch_cpu, "s"),
            "op_cpu_p50_ms": (statistics.median(runner.latencies) * 1e3, "ms"),
            "op_cpu_tail_ms": (tail_value * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        layer = tracer.layer_metrics(len(traced))
        layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(runner.pass_cpu)
        layer["known_defects.failed"] = sum(known_defects.values())
        layer.update(derived)
        metrics = {name: (value, _unit(name)) for name, value in layer.items()}
    samples = {
        "ops": len(runner.latencies), "repeats": workload.repeats,
        "batches_untraced": len(untraced),
        "batches_traced": len(traced), "ops_per_batch": len(batches[0]),
        "distinct_batches": len(batches), "setup_runs": len(setup),
        "op_tail_percentile": tail_p,
        "beyond_tail": sum(1 for v in runner.latencies if v > tail_value),
    }
    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "samples": samples, "derived": derived,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failures": dict(runner.failures.most_common(50)),
        "known_defects": {"probes": len(probes), "failures": dict(known_defects)},
        "setup_s": setup,
        "untraced_batch_cpu_wall_s": untraced, "traced_pass_cpu_s": traced,
        "untraced_pass_cpu_s": runner.pass_cpu,
        "untraced_op_cpu_s": runner.latencies,
        "unwrapped_targets": tracer.missing if tracer else [],
        "time_waited": "not applicable: one process, no queue or lock",
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    with open(os.path.join(OUT_DIR, "results", stem + ".json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    if tracer is not None:
        os.makedirs(os.path.join(OUT_DIR, "spans"), exist_ok=True)
        tracer.write_spans(os.path.join(OUT_DIR, "spans", stem + ".npz"))

    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"samples: {json.dumps(samples, sort_keys=True)}; "
          + ", ".join(f"{k} = {v:.6g}" for k, v in derived.items()))
    for reason, count in runner.failures.most_common(5):
        print(f"failed x{count}: {reason}")
    if probes:
        print(f"known defects, untimed and not counted as failed ops: "
              f"{sum(known_defects.values())} of {len(probes)} probes fail")
    for reason in sorted(known_defects)[:5]:
        print(f"known defect: {reason}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _unit(name: str) -> str:
    if name.endswith((".calls", ".failed")) or name == "simplex.iterations":
        return "count"
    if name.endswith("per_s"):
        return "1/s"
    for suffix, unit in (("_s", "s"), ("_us", "us"), ("_ms", "ms"), (".bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "ratio"


if __name__ == "__main__":
    sys.exit(main())
