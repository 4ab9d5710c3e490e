"""The three workloads: seeded inputs, one timed call per op, and the output checks.

Every workload draws its inputs from the seed with numpy's PCG64 generator and
hands the program only those inputs, through its public entry points
(nsshare.cli.main and nsshare.cli.run_experiment).  generate() returns a list
of batches: each batch has the same make-up (one delta row per stratum, the
same number of points per n, every table family once per side), so batch
times compare across seeds, and ops are distinct inputs until the list wraps.
The checks run after the timed call and compare against reference.json, which
make_reference.py builds.

An op fails when it raises, when an output differs from the reference, or when
a verdict's certificate does not hold (see certificate_failure).  probes()
returns further seeded inputs on which the program is known to fail; they go
through the same checks once per run, outside the timing, and are reported
apart from the timed ops.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from itertools import product

import numpy as np

import physics

EPSILON = 0.001
AUDIT_ALPHA = "pi/4"
AUDIT_THETA = "0.01:pi/2:0.01"
# the delta rows of the README's claim audit, --sweep-delta 0.01:pi/4:0.01
AUDIT_DELTAS = tuple(0.01 + i * 0.01 for i in range(78))
AUDIT_STRATA = 6          # a batch takes one row from each run of 13 consecutive deltas
POINT_ROUNDS = range(1, 9)
POINT_PER_N = 2           # points of each n in a batch
TABLE_DECADES = 8         # NS2 distances 1e-9 .. 1e-1, log-uniform within a decade
TABLE_SIGNALING = 4       # per batch
TABLE_NONFINITE = 4       # per batch, each with one infinite entry
TABLE_BATCHES = 12
# Known defects, probed once per run outside the timed batches (see CertifyTable.probes):
# violating tables closer than about 2.5e-10 to the bound are certified local with a
# negative weight, and a NaN entry is refused with a numpy message that names nothing.
PROBE_NEAR_BOUNDARY = 12  # violating tables at NS2 - 3 in 1e-10 .. 1e-9
PROBE_NAN = 4
VERTEX_NOISE_SHARE = 0.5  # vertex noise is this much vertex, the rest white noise

_TABLE_KEYS = tuple(f"{x}{y}{z};{a}{b}{c}" for x, y, z, a, b, c in product((0, 1), repeat=6))


@dataclass
class Op:
    key: str                  # names the input in failure reports
    args: object              # what the program receives
    expect: dict
    outputs: tuple = ()       # files the op writes, removed after its check
    table: np.ndarray | None = field(default=None, repr=False)


def sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def call_main(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def certificate_failure(lp_calls, vertices) -> str | None:
    """Check every verdict the program gave, using numpy only.

    "local" must come with weights that rebuild the table through the verified
    288x64 vertex matrix, and never for a table that violates the inequality.
    """
    for table, result in lp_calls:
        probs = np.asarray(table.probs, dtype=float)
        value = physics.ns2(probs)
        if not result.feasible:
            continue
        if physics.is_violation(value):
            return f"table with NS2 = 3 {value - 3:+.3e} reported feasible"
        if vertices is None:
            return "the program's vertex matrix is not the hybrid polytope's vertex set"
        error = physics.local_certificate_error(result.weights, vertices, probs)
        if error:
            return f"local certificate does not hold: {error}"
    return None


def _digest_failure(op: Op, paths: dict[str, str]) -> str | None:
    for label, path in paths.items():
        if not os.path.exists(path):
            return f"{label} report was not written"
        if sha256(path) != op.expect[f"{label}_sha256"]:
            return f"{label} report differs from the reference"
    return None


class Audit:
    """Claim-audit delta rows: n=5, both recursions, the full theta axis."""

    name = "audit"
    repeats = 1  # an op takes half a second, long enough to average the host's noise

    def __init__(self, reference: dict):
        self.rows = reference["audit"]["rows"]

    @staticmethod
    def argv(delta: float, csv_path: str, json_path: str) -> list[str]:
        return [
            "--n", "5", "--alpha", AUDIT_ALPHA, "--epsilon", repr(EPSILON),
            "--recursion", "both", "--delta", repr(delta), "--sweep-theta", AUDIT_THETA,
            "--out-csv", csv_path, "--out-json", json_path,
        ]

    def generate(self, rng, workdir: str, cli) -> list[list[Op]]:
        """13 batches covering all 78 rows, each with one row of every stratum."""
        per_stratum = len(AUDIT_DELTAS) // AUDIT_STRATA
        orders = [s * per_stratum + rng.permutation(per_stratum) for s in range(AUDIT_STRATA)]
        csv_path = os.path.join(workdir, "audit.csv")
        json_path = os.path.join(workdir, "audit.json")
        return [
            [Op(f"delta row {i}", self.argv(AUDIT_DELTAS[i], csv_path, json_path),
                self.rows[i], (csv_path, json_path))
             for i in (int(order[b]) for order in orders)]
            for b in range(per_stratum)
        ]

    @staticmethod
    def probes(rng, workdir: str) -> list[Op]:
        return []

    def execute(self, cli, op: Op):
        return call_main(cli, op.args)

    def check(self, op: Op, outcome, lp_calls, vertices) -> str | None:
        code, _, err = outcome
        if code != 0:
            return f"exit code {code}: {err.strip()}"
        if lp_calls:
            return "the audit asked for LP verdicts"
        csv_path, json_path = op.outputs
        failure = _digest_failure(op, {"csv": csv_path, "json": json_path})
        if failure and os.path.exists(json_path):
            with open(json_path, encoding="utf-8") as handle:
                variants = json.load(handle)["variants"]
            for variant, data in variants.items():
                got = (data["violations"], data["max_violating_k"])
                want = (op.expect["violations"][variant], op.expect["max_violating_k"][variant])
                if got != want:
                    return f"{variant}: (violations, max k) = {got}, reference {want}"
        return failure

    @staticmethod
    def rounds(op: Op, outcome) -> int:
        with open(op.outputs[0], "rb") as handle:
            return handle.read().count(b"\n") - 1


class PointCertify:
    """--n N --auto-delta --certify --recursion both at seeded theta and alpha."""

    name = "point-certify"
    repeats = 3  # ops take 7-110 ms, each timed by the least of three passes (run.Runner)

    def __init__(self, reference: dict):
        self.points = reference["point_certify"]["points"]

    @staticmethod
    def config(cli, point: dict, csv_path: str | None, json_path: str | None):
        return cli.ExperimentConfig(
            n=point["n"], alpha=point["alpha"], theta=point["theta"], epsilon=EPSILON,
            auto_delta=True, recursion="both", certify=True,
            out_csv=csv_path, out_json=json_path,
        )

    def generate(self, rng, workdir: str, cli) -> list[list[Op]]:
        """The whole pool in a seeded order, POINT_PER_N points of every n per batch."""
        csv_path = os.path.join(workdir, "point.csv")
        json_path = os.path.join(workdir, "point.json")
        orders = [rng.permutation([i for i, p in enumerate(self.points) if p["n"] == n])
                  for n in POINT_ROUNDS]
        batches = []
        for b in range(min(len(order) for order in orders) // POINT_PER_N):
            batch = []
            for order in orders:
                for i in order[b * POINT_PER_N:(b + 1) * POINT_PER_N]:
                    point = self.points[int(i)]
                    batch.append(Op(
                        f"point {i} (n={point['n']}, theta={point['theta']}, alpha={point['alpha']})",
                        self.config(cli, point, csv_path, json_path), point, (csv_path, json_path)))
            batches.append(batch)
        return batches

    @staticmethod
    def probes(rng, workdir: str) -> list[Op]:
        return []

    def execute(self, cli, op: Op):
        return cli.run_experiment(op.args)

    def check(self, op: Op, summary, lp_calls, vertices) -> str | None:
        failure = certificate_failure(lp_calls, vertices)
        if failure:
            return failure
        for variant, want in op.expect["verdicts"].items():
            verdicts = summary["variants"][variant]["certifier_verdicts"]
            got = [verdicts[str(k)] for k in range(1, len(verdicts) + 1)]
            if got != want:
                return f"{variant}: LP verdicts {got}, reference {want}"
        csv_path, json_path = op.outputs
        return _digest_failure(op, {"csv": csv_path, "json": json_path})

    @staticmethod
    def rounds(op: Op, summary) -> int:
        return sum(len(data["rounds"]) for data in summary["variants"].values())


def family_ends(family: dict, vertex_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(GHZ Born table, noise) of a family.

    The noise is white, or a hybrid vertex (own enumeration order) mixed half
    and half with white noise.
    """
    quantum = physics.born_table(family["alpha"], family["theta"], family["gamma"])
    noise = physics.white_noise()
    if family["vertex"] is not None:
        vertex = vertex_rows[family["vertex"]].reshape((2,) * 6)
        noise = VERTEX_NOISE_SHARE * vertex + (1.0 - VERTEX_NOISE_SHARE) * noise
    return quantum, noise


def mixture(ends: tuple[np.ndarray, np.ndarray], target_ns2: float) -> np.ndarray:
    """The point on the segment from the noise to the GHZ table where NS2 = target_ns2."""
    quantum, noise = ends
    q, w = physics.ns2(quantum), physics.ns2(noise)
    lam = (target_ns2 - w) / (q - w)
    return lam * quantum + (1.0 - lam) * noise


def write_table(path: str, probs) -> None:
    payload = {"round": 1, "probs": dict(zip(_TABLE_KEYS, (float(v) for v in np.ravel(probs))))}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)


class CertifyTable:
    """--certify-table on tables within 1e-9 .. 1e-1 of the bound, plus bad tables.

    Regular tables lie on a segment from local noise to a GHZ table that leaves
    the hybrid polytope through the inequality's own facet (make_reference.py
    checks that for every family), so the verdict is known on both sides:
    "local" below the bound, "nonlocal" above it.  Signaling and non-finite
    tables must be refused cleanly: a nonzero exit, no report, no verdict, and
    a message that names the file or the signaling.  The timed batches hold only
    inputs the program gets right; the known defects are probed by probes().
    """

    name = "certify-table"
    repeats = 3  # ops take 1-90 ms, each timed by the least of three passes (run.Runner)

    def __init__(self, reference: dict):
        rows = physics.hybrid_vertex_rows()
        self.ends = [family_ends(f, rows) for f in reference["certify_table"]["families"]]

    def _batch_specs(self, rng) -> list[tuple[str, np.ndarray]]:
        """Every family once on each side of the bound, decades spread evenly, plus bad tables."""
        specs = []
        for side in (1.0, -1.0):
            decades = rng.permutation(np.resize(np.arange(TABLE_DECADES), len(self.ends)))
            for ends, decade in zip(self.ends, decades):
                distance = 10.0 ** (decade - TABLE_DECADES - 1 + rng.random())
                specs.append(("regular", mixture(ends, 3.0 + side * distance)))
        for kind, count in (("signaling", TABLE_SIGNALING), ("nonfinite", TABLE_NONFINITE)):
            for _ in range(count):
                ends = self.ends[int(rng.integers(len(self.ends)))]
                table = mixture(ends, 3.0 - 10.0 ** (-1 - rng.random()))
                if kind == "signaling":  # move mass between Alice's outcomes in one block
                    block = tuple(int(v) for v in rng.integers(2, size=3))
                    cell = np.unravel_index(np.argmax(table[block][0]), (2, 2))
                    shift = 10.0 ** rng.uniform(-6, -2) * table[block][0][cell]
                    table[block][0][cell] -= shift
                    table[block][1][cell] += shift
                else:
                    table.reshape(64)[int(rng.integers(64))] = rng.choice([np.inf, -np.inf])
                specs.append((kind, table))
        return [specs[i] for i in rng.permutation(len(specs))]

    @staticmethod
    def _op(label: str, kind: str, table: np.ndarray, workdir: str) -> Op:
        path = os.path.join(workdir, f"table-{label}.json")
        write_table(path, table)
        if kind == "regular":
            expect = "nonlocal" if physics.is_violation(physics.ns2(table)) else "local"
        else:
            expect = "refused"
        report = os.path.join(workdir, "verdict.json")
        return Op(f"table {label} ({kind})", ["--certify-table", path, "--out-json", report],
                  {"verdict": expect}, (report,), table)

    def generate(self, rng, workdir: str, cli) -> list[list[Op]]:
        return [[self._op(f"{b}-{i}", kind, table, workdir)
                 for i, (kind, table) in enumerate(self._batch_specs(rng))]
                for b in range(TABLE_BATCHES)]

    def probes(self, rng, workdir: str) -> list[Op]:
        """Tables that show the known defects: checked like any op, but never timed."""
        ops = []
        for i in range(PROBE_NEAR_BOUNDARY + PROBE_NAN):
            ends = self.ends[int(rng.integers(len(self.ends)))]
            if i < PROBE_NEAR_BOUNDARY:
                kind, table = "regular", mixture(ends, 3.0 + 10.0 ** (-10 + rng.random()))
            else:
                kind, table = "nonfinite", mixture(ends, 3.0 - 10.0 ** (-1 - rng.random()))
                table.reshape(64)[int(rng.integers(64))] = np.nan
            ops.append(self._op(f"probe-{i}", kind, table, workdir))
        return ops

    def execute(self, cli, op: Op):
        return call_main(cli, op.args)

    def check(self, op: Op, outcome, lp_calls, vertices) -> str | None:
        code, out, err = outcome
        path, report_path = op.args[1], op.outputs[0]
        if op.expect["verdict"] == "refused":
            if code == 0:
                return "a table that must be refused was certified"
            if os.path.exists(report_path):
                return "a refused table got a report"
            if "verdict" in out:
                return "a refused table got a verdict"
            if path not in err and "signaling" not in err:
                return f"the refusal does not name the problem: {err.strip()!r}"
            return None
        if code != 0:
            return f"exit code {code}: {err.strip()}"
        failure = certificate_failure(lp_calls, vertices)
        if failure:
            return failure
        if len(lp_calls) != 1:
            return f"{len(lp_calls)} LP verdicts for one table"
        if not np.array_equal(lp_calls[0][0].probs.reshape(64), op.table.reshape(64)):
            return "the imported table differs from the file's values"
        if not os.path.exists(report_path):
            return "no report was written"
        with open(report_path, encoding="utf-8") as handle:
            report = json.load(handle)
        verdict = "local" if report["feasible"] else "nonlocal"
        if verdict != op.expect["verdict"]:
            return f"verdict {verdict}, expected {op.expect['verdict']}"
        if not math.isclose(report["ns2"], physics.ns2(op.table), rel_tol=0.0, abs_tol=1e-12):
            return f"reported NS2 {report['ns2']!r} differs from {physics.ns2(op.table)!r}"
        return None

    @staticmethod
    def rounds(op: Op, outcome) -> int:
        return 0


WORKLOADS = {cls.name: cls for cls in (Audit, PointCertify, CertifyTable)}
