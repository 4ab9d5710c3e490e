"""The benchmark's per-layer tracer wraps package attributes by name.

perfbench/layers.py lists them in TARGETS; a target that no longer resolves
is silently left unwrapped, so a refactor of src/ must keep every one.
"""

import importlib
import importlib.util
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
