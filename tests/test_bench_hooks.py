"""The benchmark's per-layer tracer wraps package attributes by name.

perfbench/layers.py lists them in TARGETS; a target that no longer resolves
is silently left unwrapped, so a refactor of src/ must keep every one.
"""

import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = load_targets()


@pytest.mark.parametrize("module_name, attribute", [(m, a) for m, a, _ in TARGETS],
                         ids=[f"{m}.{a}" for m, a, _ in TARGETS])
def test_bench_target_resolves(module_name, attribute):
    assert callable(getattr(importlib.import_module(module_name), attribute, None))



def test_bench_reads_result_attributes():
    # layers.py reads LpResult.iterations and DecompositionResult.feasible;
    # workloads.py checks a local verdict's weights against the 288 vertices
    from nsshare import simplex
    from nsshare.certifier import lp_feasible
    from nsshare.engine import BehaviorTable

    lp = simplex.solve(np.array([[1.0, 1.0]]), np.array([1.0]))
    assert type(lp.iterations) is int
    result = lp_feasible(BehaviorTable(np.full((2,) * 6, 0.125)))
    assert type(result.feasible) is bool and result.feasible
    assert result.weights.shape == (288,)


def test_bench_calls_the_one_state_api():
    # perfbench's model test calls behavior on build_gghz's state and hands
    # the table to cli.ns2_value; the tracer wraps cli.run_sequence and
    # cli.build_gghz, which must still run one on the other's state
    from nsshare import cli
    from nsshare.engine import behavior
    from nsshare.states import build_gghz

    for alpha, theta, gamma in [(np.pi / 4, np.pi / 4, 0.41), (0.4, 1.1, 0.93)]:
        table = behavior(build_gghz(alpha), theta, gamma)
        assert table.probs.shape == (2,) * 6
        assert isinstance(cli.ns2_value(table), float)
    schedule = cli.gamma_sequence(np.pi / 4, 0.001, 2)
    tables = cli.run_sequence(cli.build_gghz(0.4), 1.1, schedule, 2)
    assert len(tables) == 2 and all(t.probs.shape == (2,) * 6 for t in tables)


def test_bench_reads_the_certified_tables_in_place(monkeypatch):
    # workloads.py reads .probs, and .probs.reshape(64), from each table that
    # it sees through cli.lp_feasible: in a certified run every one is the
    # engine's table, read-only and of shape (2,)*6
    from nsshare import cli
    from nsshare.engine import run_stack
    from nsshare.states import gghz_densities

    seen = []
    original = cli.lp_feasible

    def recording(table, **kwargs):
        seen.append(table)
        return original(table, **kwargs)

    monkeypatch.setattr(cli, "lp_feasible", recording)
    config = cli.ExperimentConfig(n=2, certify=True, sweep_theta=(0.5, 0.7, 0.2))
    cli.run_experiment(config)
    thetas = list(cli.sweep_values(config.sweep_theta))
    schedule = cli.gamma_sequence(config.delta, config.epsilon, config.n)
    rounds = list(run_stack(gghz_densities([config.alpha] * len(thetas)), thetas, schedule, 2))
    # the run certifies member by member, rounds 1..n each
    expected = [tables[member] for member in range(len(thetas)) for tables in rounds]
    assert len(seen) == len(expected) == 4
    for table, probs in zip(seen, expected):
        assert table.probs.shape == (2,) * 6 and not table.probs.flags.writeable
        assert np.array_equal(table.probs, probs)


# an audit row no longer calls engine.behavior, which this perfbench test
# counts; it is mended with the N = 1 wrappers (ROADMAP item 9)
KNOWN_PERFBENCH_FAILURE = "perfbench/test_perfbench.py::test_traced_audit_row_matches_untraced"


def test_perfbench_own_tests_pass_but_the_known_failure():
    root = LAYERS.parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(root / "src"), env.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, "-m", "pytest", "perfbench", "-q", "-p",
                          "no:cacheprovider"], cwd=root, env=env, capture_output=True, text=True)
    failing = re.findall(r"^(?:FAILED|ERROR) (\S+)", run.stdout, re.MULTILINE)
    assert set(failing) <= {KNOWN_PERFBENCH_FAILURE}, run.stdout
    assert run.returncode == (1 if failing else 0), run.stdout + run.stderr
    passed = re.search(r"\b(\d+) passed\b", run.stdout)
    assert passed and int(passed[1]) >= 20, run.stdout
