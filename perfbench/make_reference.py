"""Build perfbench/reference.json, the outputs every benchmark op is checked against.

Run from the repository root, after a change that is meant to alter outputs:

    python3 perfbench/make_reference.py

It needs scipy (a test-only dependency of the package) as an LP solver that
shares no code with nsshare.  It records:

- audit: the CSV/JSON digests and per-variant counts of every claim-audit
  delta row, and checks that they add up to the published grid totals;
- point-certify: a pool of point runs (n, theta, alpha) with the LP verdict of
  every round, decided by the inequality when it is violated and otherwise by
  scipy's min-residual LP with a clear margin, plus the report digests;
- certify-table: mixture families whose segment from local noise to the GHZ
  table leaves the hybrid polytope through the inequality's facet, so that
  any table on it has a known verdict.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402
from scipy.optimize import linprog  # noqa: E402

import physics  # noqa: E402
import workloads  # noqa: E402
from layers import capture_lp_results  # noqa: E402
from nsshare import cli, hybrid_vertices  # noqa: E402

AUDIT_TOTALS = {  # the README's claim-audit outcome on the full grid
    "printed": {"rows": 29359, "violations": 360, "max_violating_k": 3},
    "normalized": {"rows": 61230, "violations": 0, "max_violating_k": None},
}
POINT_THETAS = tuple(0.1 * j for j in range(1, 16))
POINT_ALPHAS = tuple(math.pi * k / 16 for k in range(1, 5))
LOCAL_MAX_RESIDUAL = 1e-10
NONLOCAL_MIN_RESIDUAL = 1e-7
FAMILY_SEED = 20130114
FAMILIES_PER_NOISE = 24
MIN_QUANTUM_NS2 = 3.15  # keeps NS2 = 3 + 0.1 reachable with a mixing weight <= 1


def min_residual(vertices: np.ndarray, target: np.ndarray) -> float:
    """min over the weight simplex of max_i |(V^T w - p)_i|, by scipy's HiGHS."""
    n = vertices.shape[0]
    cost = np.zeros(n + 1)
    cost[n] = 1.0
    ones = np.ones((64, 1))
    a_ub = np.vstack([np.hstack([vertices.T, -ones]), np.hstack([-vertices.T, -ones])])
    b_ub = np.concatenate([target, -target])
    a_eq = np.zeros((1, n + 1))
    a_eq[0, :n] = 1.0
    result = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0], method="highs")
    if result.status != 0:
        raise RuntimeError(f"min-residual LP failed: {result.message}")
    return float(result.fun)


def true_verdict(vertices: np.ndarray, probs: np.ndarray) -> bool | None:
    """True for local, False for nonlocal, None when no margin decides it."""
    if physics.is_violation(physics.ns2(probs)):
        return False
    residual = min_residual(vertices, probs.reshape(64))
    if residual <= LOCAL_MAX_RESIDUAL:
        return True
    if residual >= NONLOCAL_MIN_RESIDUAL:
        return False
    return None


def digests(csv_path: str, json_path: str) -> dict:
    return {"csv_sha256": workloads.sha256(csv_path), "json_sha256": workloads.sha256(json_path)}


def audit_rows(workdir: str) -> list[dict]:
    rows = []
    csv_path, json_path = os.path.join(workdir, "a.csv"), os.path.join(workdir, "a.json")
    for delta in workloads.AUDIT_DELTAS:
        code, _, err = workloads.call_main(cli, workloads.Audit.argv(delta, csv_path, json_path))
        if code != 0:
            raise RuntimeError(f"audit row {delta}: {err}")
        with open(json_path, encoding="utf-8") as handle:
            variants = json.load(handle)["variants"]
        rows.append({
            "delta": delta,
            **digests(csv_path, json_path),
            "rows": {v: d["rows"] for v, d in variants.items()},
            "violations": {v: d["violations"] for v, d in variants.items()},
            "max_violating_k": {v: d["max_violating_k"] for v, d in variants.items()},
        })
    for variant, want in AUDIT_TOTALS.items():
        got = {
            "rows": sum(r["rows"][variant] for r in rows),
            "violations": sum(r["violations"][variant] for r in rows),
            "max_violating_k": max((r["max_violating_k"][variant] or 0 for r in rows), default=0) or None,
        }
        if got != want:
            raise RuntimeError(f"audit totals for {variant}: {got}, published {want}")
    return rows


def point_pool(workdir: str, vertices: np.ndarray) -> list[dict]:
    points = []
    csv_path, json_path = os.path.join(workdir, "p.csv"), os.path.join(workdir, "p.json")
    for n in workloads.POINT_ROUNDS:
        for theta in POINT_THETAS:
            for alpha in POINT_ALPHAS:
                point = {"n": n, "theta": theta, "alpha": alpha}
                calls = []
                with capture_lp_results(calls):
                    summary = cli.run_experiment(
                        workloads.PointCertify.config(cli, point, csv_path, json_path))
                truths = [true_verdict(vertices, np.asarray(t.probs)) for t, _ in calls]
                program = [r.feasible for _, r in calls]
                if None in truths:
                    print(f"dropped {point}: a round has no clear verdict", file=sys.stderr)
                    continue
                if truths != program:
                    print(f"{point}: program verdicts {program}, reference {truths}", file=sys.stderr)
                verdicts, start = {}, 0
                for variant, data in summary["variants"].items():
                    verdicts[variant] = truths[start:start + len(data["rounds"])]
                    start += len(data["rounds"])
                points.append({**point, "verdicts": verdicts, **digests(csv_path, json_path)})
    return points


def families(vertices: np.ndarray, own_rows: np.ndarray) -> list[dict]:
    rng = np.random.default_rng(FAMILY_SEED)
    kept = {"white": [], "vertex": []}
    noisy_vertices = [i for i, row in enumerate(own_rows) if physics.ns2(row) <= 2.0]
    while min(len(v) for v in kept.values()) < FAMILIES_PER_NOISE:
        family = {
            "alpha": float(rng.uniform(0.3, math.pi / 4)),
            "theta": float(rng.uniform(0.2, 1.2)),
            "gamma": float(rng.uniform(0.6, 1.0)),
            "vertex": int(rng.choice(noisy_vertices)) if rng.random() < 0.5 else None,
        }
        kind = "white" if family["vertex"] is None else "vertex"
        quantum = physics.ns2(physics.born_table(family["alpha"], family["theta"], family["gamma"]))
        if quantum < MIN_QUANTUM_NS2 or len(kept[kind]) >= FAMILIES_PER_NOISE:
            continue
        exit_point = workloads.mixture(workloads.family_ends(family, own_rows), 3.0)
        if min_residual(vertices, exit_point.reshape(64)) <= LOCAL_MAX_RESIDUAL:
            kept[kind].append(family)
    return kept["white"] + kept["vertex"]


def main() -> int:
    vertices = np.asarray(hybrid_vertices().vectors)
    own_rows = physics.hybrid_vertex_rows()
    if not physics.same_row_set(vertices, own_rows):
        raise RuntimeError("the program's hybrid vertices differ from the independent enumeration")
    with tempfile.TemporaryDirectory(dir=HERE) as workdir:
        reference = {
            "audit": {"rows": audit_rows(workdir), "totals": AUDIT_TOTALS},
            "point_certify": {"points": point_pool(workdir, vertices)},
            "certify_table": {"families": families(vertices, own_rows)},
        }
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"points: {len(reference['point_certify']['points'])}, "
          f"families: {len(reference['certify_table']['families'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
