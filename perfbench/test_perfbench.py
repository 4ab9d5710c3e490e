"""Tests of the benchmark itself: seeded inputs, trace transparency, the tail rule.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layers  # noqa: E402
import physics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from nsshare import cli, hybrid_vertices  # noqa: E402


@pytest.fixture(scope="module")
def reference():
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _ops(workload, seed, workdir):
    batches = workload.generate(np.random.default_rng(seed), str(workdir), cli)
    return [op for batch in batches for op in batch]


def _inputs(workload, seed, workdir):
    rng = np.random.default_rng(seed)
    ops = [op for batch in workload.generate(rng, str(workdir), cli) for op in batch]
    ops += workload.probes(rng, str(workdir))
    files = {}
    for op in ops:
        if op.table is not None:
            with open(op.args[1], "rb") as handle:
                files[op.args[1]] = handle.read()
    return [(op.key, repr(op.args), op.expect) for op in ops], files


@pytest.fixture
def workdir(tmp_path):
    os.makedirs(tmp_path / "a", exist_ok=True)
    return tmp_path / "a"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name, reference, workdir):
    workload = workloads.WORKLOADS[name](reference)
    first = _inputs(workload, 11, workdir)
    assert _inputs(workload, 11, workdir) == first
    assert _inputs(workload, 12, workdir) != first


def _run_ops(workload, ops, tracer=None):
    """Outputs (bytes of every report) and LP verdicts of each op, traced or not."""
    results = []
    calls = []
    vertices = np.asarray(hybrid_vertices().vectors)
    with layers.capture_lp_results(calls):
        for op in ops:
            del calls[:]
            if tracer is None:
                outcome = workload.execute(cli, op)
            else:
                with tracer.install():
                    outcome = workload.execute(cli, op)
            failure = workload.check(op, outcome, calls, vertices)
            reports = []
            for path in op.outputs:
                if os.path.exists(path):
                    with open(path, "rb") as handle:
                        reports.append(handle.read())
                    os.unlink(path)
            verdicts = [bool(r.feasible) for _, r in calls]
            results.append((reports, verdicts, failure))
    return results


@pytest.mark.parametrize("name", ["point-certify", "certify-table"])
def test_traced_run_matches_untraced(name, reference, workdir):
    workload = workloads.WORKLOADS[name](reference)
    ops = _ops(workload, 5, workdir)[:12]
    tracer = layers.Tracer()
    untraced = _run_ops(workload, ops)
    traced = _run_ops(workload, ops, tracer)
    assert traced == untraced
    assert tracer.calls["certifier.lp_feasible"] == sum(len(v) for _, v, _ in traced)
    assert not tracer.missing


def test_traced_audit_row_matches_untraced(reference, workdir):
    workload = workloads.Audit(reference)
    ops = _ops(workload, 3, workdir)[:1]
    tracer = layers.Tracer()
    assert _run_ops(workload, ops, tracer) == _run_ops(workload, ops)
    assert tracer.calls["certifier.lp_feasible"] == 0
    assert tracer.calls["engine.behavior"] > 0


def test_wrappers_restore_the_originals():
    before = {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in layers.TARGETS}
    tracer = layers.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.install():
            assert all(getattr(importlib.import_module(m), a) is not f for (m, a), f in before.items())
            raise RuntimeError("leave the block early")
    assert all(getattr(importlib.import_module(m), a) is f for (m, a), f in before.items())


@pytest.mark.parametrize("n", [20, 21, 99, 100, 101, 199, 200, 1000, 1009, 10000, 10010, 25000])
def test_tail_percentile_keeps_ten_samples_beyond(n):
    samples = list(np.random.default_rng(n).permutation(n) * 1e-3)
    p, value = run.tail_percentile(samples)
    assert sum(1 for v in samples if v > value) >= run.MIN_BEYOND_TAIL
    higher = [q for q in run.TAIL_LADDER if q > p]
    for q in higher:  # no higher ladder step would still keep ten beyond it
        rank = int(np.ceil(q * n / 100))
        assert n - rank < run.MIN_BEYOND_TAIL


def test_independent_model_agrees_with_program():
    assert physics.same_row_set(np.asarray(hybrid_vertices().vectors), physics.hybrid_vertex_rows())
    from nsshare.engine import behavior
    from nsshare.states import build_gghz

    for alpha, theta, gamma in [(np.pi / 4, np.pi / 4, 0.41), (0.4, 1.1, 0.93)]:
        ours = physics.born_table(alpha, theta, gamma)
        theirs = behavior(build_gghz(alpha), theta, gamma).probs
        assert np.max(np.abs(ours - theirs)) < 1e-15
        assert abs(physics.ns2(ours) - cli.ns2_value(behavior(build_gghz(alpha), theta, gamma))) < 1e-15


def test_timed_tables_stay_clear_of_the_known_defects(reference, workdir):
    workload = workloads.CertifyTable(reference)
    rng = np.random.default_rng(7)
    timed = [op for batch in workload.generate(rng, str(workdir), cli) for op in batch]
    distances = [abs(physics.ns2(op.table) - 3.0) for op in timed if op.key.endswith("(regular)")]
    assert min(distances) >= 1e-9 * (1 - 1e-6) and max(distances) <= 1e-1
    assert not any(np.isnan(op.table).any() for op in timed)
    probes = workload.probes(rng, str(workdir))
    assert sum(np.isnan(op.table).any() for op in probes) == workloads.PROBE_NAN
