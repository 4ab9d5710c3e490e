import numpy as np
import pytest

from nsshare.engine import (
    TABLE_KEYS,
    BehaviorTable,
    SequentialScenario,
    behavior,
    luders_update,
    no_signaling_residual,
    run_sequence,
    run_stack,
)
from nsshare.inequality import ns2_value, ns2_values
from nsshare.linalg import PAULI_X, kron
from nsshare.measurements import gamma_sequence
from nsshare.states import TripartiteState, build_gghz, expectation, maximally_mixed

from conftest import bf_behavior, bf_luders, random_density


def quantum_table(alpha, theta, gamma):
    return behavior(build_gghz(alpha), theta, gamma)


def signaling_table():
    """a copies Bob's input: normalized but signaling."""
    probs = np.zeros((2, 2, 2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            for z in range(2):
                probs[x, y, z, y, 0, 0] = 1.0
    return BehaviorTable(probs)


def test_behavior_product_state_sharp():
    table = behavior(build_gghz(0.0), 0.0, 1.0)
    block = table.probs[0, 0, 0]
    assert block[0, 0, 0] == pytest.approx(1.0, abs=1e-14)
    assert np.sum(np.abs(block)) == pytest.approx(1.0, abs=1e-14)


def test_behavior_maximally_mixed_uniform():
    table = behavior(maximally_mixed(), np.pi / 4, 1.0)
    assert np.max(np.abs(table.probs - 0.125)) < 1e-14


def test_behavior_matches_bruteforce(rng):
    for _ in range(50):
        alpha = rng.uniform(0, np.pi / 2)
        theta = rng.uniform(0, np.pi / 2)
        gamma = rng.uniform(0, 1)
        ours = behavior(build_gghz(alpha), theta, gamma).probs
        reference = bf_behavior(build_gghz(alpha).rho, theta, gamma)
        assert np.max(np.abs(ours - reference)) < 1e-13


def test_behavior_bruteforce_on_mixed_states(rng):
    for _ in range(10):
        rho = random_density(rng)
        state = TripartiteState(rho)
        theta = rng.uniform(0, np.pi / 2)
        gamma = rng.uniform(0, 1)
        ours = behavior(state, theta, gamma).probs
        reference = bf_behavior(rho, theta, gamma)
        assert np.max(np.abs(ours - reference)) < 1e-13


def test_luders_gamma_zero_halves_coherence():
    # the unsharp branch is the identity channel at gamma=0; only the sharp
    # branch disturbs, and trace is preserved exactly
    state = build_gghz(np.pi / 4)
    for theta in (0.2, np.pi / 4, 1.3):
        updated = luders_update(state, theta, 0.0)
        assert abs(np.trace(updated.rho) - 1.0) < 1e-12


def test_luders_commuting_case_fixed_point():
    state = build_gghz(0.0)  # |000><000|, diagonal in sigma_3
    for gamma in (0.0, 0.5, 1.0):
        updated = luders_update(state, 0.0, gamma)
        assert np.max(np.abs(updated.rho - state.rho)) < 1e-14


def test_luders_sharp_theta_zero_idempotent(rng):
    rho = random_density(rng)
    once = luders_update(TripartiteState(rho), 0.0, 1.0)
    twice = luders_update(once, 0.0, 1.0)
    assert np.max(np.abs(twice.rho - once.rho)) < 1e-13


def test_luders_matches_bruteforce(rng):
    for _ in range(25):
        rho = random_density(rng)
        theta = rng.uniform(0, np.pi / 2)
        gamma = rng.uniform(0, 1)
        ours = luders_update(TripartiteState(rho), theta, gamma).rho
        reference = bf_luders(rho, theta, gamma)
        assert np.max(np.abs(ours - reference)) < 5e-9  # eigh-sqrt reference is less exact


def test_luders_xxx_shrink_matches_heisenberg_form():
    # <sigma1 sigma1 sigma1> contracts by the averaged channel's x-component:
    # 1/2[(n0.ex)n0 + s ex + (1-s)(n1.ex)n1], s = sqrt(1-gamma^2)
    theta = np.pi / 4
    gamma = gamma_sequence(np.pi / 4, 0.001, 1).gammas[0]
    state = build_gghz(np.pi / 4)
    xxx = kron(PAULI_X, PAULI_X, PAULI_X)
    before = expectation(state, xxx)
    assert abs(before - 1.0) < 1e-12
    after = expectation(luders_update(state, theta, gamma), xxx)

    n0 = np.array([-np.sin(theta), 0.0, np.cos(theta)])
    n1 = np.array([np.sin(theta), 0.0, np.cos(theta)])
    s = np.sqrt(1 - gamma**2)
    ex = np.array([1.0, 0.0, 0.0])
    w = 0.5 * (np.dot(n0, ex) * n0 + s * ex + (1 - s) * np.dot(n1, ex) * n1)
    # only the x component couples to <XXX> on the maximal state
    assert abs(after - w[0]) < 1e-12
    assert abs(after - 0.7274977757340168) < 1e-12


def test_luders_preserves_trace_and_positivity(rng):
    for _ in range(1000):
        rho = random_density(rng)
        theta = rng.uniform(0, np.pi / 2)
        gamma = rng.uniform(0, 1)
        updated = luders_update(TripartiteState(rho), theta, gamma).rho
        assert abs(np.trace(updated).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(updated).min() > -1e-10


def test_behavior_tables_nonsignaling(rng):
    for _ in range(25):
        table = quantum_table(rng.uniform(0, np.pi / 2), rng.uniform(0, np.pi / 2),
                              rng.uniform(0, 1))
        residual, _ = no_signaling_residual(table)
        assert residual < 1e-10


def test_run_sequence_single_round_is_behavior():
    schedule = gamma_sequence(np.pi / 4, 0.001, 1)
    scenario = SequentialScenario(build_gghz(np.pi / 4), np.pi / 4, schedule, 1)
    tables = run_sequence(scenario)
    direct = behavior(build_gghz(np.pi / 4), np.pi / 4, schedule.gammas[0])
    assert len(tables) == 1
    assert np.max(np.abs(tables[0].probs - direct.probs)) < 1e-15


def test_run_sequence_rounds_and_labels():
    schedule = gamma_sequence(np.pi / 4, 0.001, 2)
    scenario = SequentialScenario(build_gghz(np.pi / 4), np.pi / 4, schedule, 2)
    tables = run_sequence(scenario)
    assert [t.round_index for t in tables] == [1, 2]


def test_run_sequence_rejects_truncated_schedule():
    schedule = gamma_sequence(np.pi / 4, 0.001, 3)  # valid_upto == 2
    with pytest.raises(ValueError, match="valid"):
        SequentialScenario(build_gghz(np.pi / 4), np.pi / 4, schedule, 3)


def test_scenario_rejects_bad_theta():
    schedule = gamma_sequence(np.pi / 4, 0.001, 1)
    for theta in (0.0, np.pi / 2, -0.3):
        with pytest.raises(ValueError, match="theta"):
            SequentialScenario(build_gghz(np.pi / 4), theta, schedule, 1)


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


@pytest.mark.parametrize("variant", ["printed", "normalized"])
def test_stack_equals_single_runs_bitwise(variant):
    # a stacked run must reproduce every N=1 run exactly, not just closely:
    # reports print values whose last bits would change under reordering
    thetas = (1e-12, 1e-6, 0.01, 0.33, np.pi / 4, 1.3, np.pi / 2 - 1e-6, np.pi / 2 - 1e-12)
    for delta in (0.01, 0.2825, 0.5, np.pi / 4):
        schedule = gamma_sequence(delta, 0.001, 5, variant)
        rounds = min(5, schedule.valid_upto)
        for alpha in (np.pi / 8, np.pi / 4, 3 * np.pi / 8):
            tables = list(run_stack(build_gghz(alpha), thetas, schedule, rounds))
            assert len(tables) == rounds
            assert all(t.shape == (len(thetas),) + (2,) * 6 for t in tables)
            values = [ns2_values(t) for t in tables]
            for n, theta in enumerate(thetas):
                scenario = SequentialScenario(build_gghz(alpha), theta, schedule, rounds)
                for k, single in enumerate(run_sequence(scenario)):
                    assert np.array_equal(bits(tables[k][n]), bits(single.probs))
                    assert bits(values[k][n]) == bits(ns2_value(single))


def test_stack_refuses_theta_axis_touching_the_ends():
    schedule = gamma_sequence(np.pi / 4, 0.001, 2)
    state = build_gghz(np.pi / 4)
    for thetas in ((0.0, 0.5, 1.0), (0.5, 1.0, np.pi / 2)):
        bad = thetas[0] if thetas[0] == 0.0 else thetas[-1]
        with pytest.raises(ValueError) as single:
            SequentialScenario(state, bad, schedule, 2)
        with pytest.raises(ValueError) as stacked:
            next(run_stack(state, thetas, schedule, 2))
        assert str(stacked.value) == str(single.value) == f"theta must lie in (0, pi/2), got {bad!r}"


def test_alice_bob_marginals_round_invariant():
    schedule = gamma_sequence(np.pi / 4, 0.001, 2)
    scenario = SequentialScenario(build_gghz(np.pi / 3), 0.9, schedule, 2)
    tables = run_sequence(scenario)
    # P(ab|xy) must be untouched by Charlie's rounds
    first = tables[0].probs.sum(axis=5)[:, :, 0]
    for table in tables[1:]:
        current = table.probs.sum(axis=5)[:, :, 0]
        assert np.max(np.abs(current - first)) < 1e-10


def test_no_signaling_residual_uniform_zero():
    table = BehaviorTable(np.full((2, 2, 2, 2, 2, 2), 0.125))
    residual, _ = no_signaling_residual(table)
    assert residual == 0.0


def test_no_signaling_residual_flags_signaling():
    residual, label = no_signaling_residual(signaling_table())
    assert residual == pytest.approx(1.0)
    assert "vs y" in label or "vs y,z" in label


def test_behavior_table_rejects_negative_entries():
    probs = np.full((2, 2, 2, 2, 2, 2), 0.125)
    probs[0, 0, 0, 0, 0, 0] = -1e-3
    probs[0, 0, 0, 1, 1, 1] += 1e-3
    with pytest.raises(ValueError, match=">="):
        BehaviorTable(probs)


def test_behavior_table_rejects_non_finite_entries():
    for position, value in ((0, np.nan), (21, np.nan), (42, np.inf), (63, np.nan)):
        probs = np.full(64, 0.125)
        probs[position] = value
        with pytest.raises(ValueError, match=rf"\({TABLE_KEYS[position]}\) must be finite"):
            BehaviorTable.from_vector(probs)


def test_behavior_table_rejects_bad_normalization():
    probs = np.full((2, 2, 2, 2, 2, 2), 0.125)
    probs[1, 0, 1] *= 0.9
    with pytest.raises(ValueError, match="sums to"):
        BehaviorTable(probs)


def test_behavior_table_vector_round_trip(rng):
    table = quantum_table(0.7, 0.4, 0.8)
    rebuilt = BehaviorTable.from_vector(table.as_vector(), table.round_index)
    assert np.array_equal(rebuilt.probs, table.probs)


def test_flip_outcomes_involution():
    table = quantum_table(np.pi / 4, np.pi / 4, 0.7)
    flipped = table.flip_outcomes(True, True, True)
    assert np.max(np.abs(flipped.flip_outcomes(True, True, True).probs - table.probs)) == 0
    assert not np.allclose(flipped.probs, table.probs)
