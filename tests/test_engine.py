import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsshare import engine
from nsshare.engine import (
    TABLE_KEYS,
    BehaviorTable,
    behavior,
    luders_update,
    no_signaling_residual,
    no_signaling_residuals,
    run_sequence,
    run_stack,
)
from nsshare.inequality import ns2_value, ns2_values
from nsshare.measurements import charlie_setting, gamma_sequence
from nsshare.states import build_gghz, gghz_densities

from conftest import (
    BF_MARGINAL_FAMILIES,
    KERNEL_SIZES,
    SX,
    bf_behavior,
    bf_behavior_stack,
    bf_family_residuals,
    bf_gghz,
    bf_luders,
    bf_no_signaling_residuals,
    random_density,
    signaling_probs,
)


def quantum_table(alpha, theta, gamma):
    return behavior(build_gghz(alpha), theta, gamma)


def test_behavior_product_state_sharp():
    table = behavior(build_gghz(0.0), 0.0, 1.0)
    block = table.probs[0, 0, 0]
    assert block[0, 0, 0] == pytest.approx(1.0, abs=1e-14)
    assert np.sum(np.abs(block)) == pytest.approx(1.0, abs=1e-14)


def test_behavior_maximally_mixed_uniform():
    table = behavior(np.eye(8) / 8, np.pi / 4, 1.0)
    assert np.max(np.abs(table.probs - 0.125)) < 1e-14


def test_behavior_matches_bruteforce(rng):
    for _ in range(50):
        alpha = rng.uniform(0, np.pi / 2)
        theta = rng.uniform(0, np.pi / 2)
        gamma = rng.uniform(0, 1)
        ours = behavior(build_gghz(alpha), theta, gamma).probs
        reference = bf_behavior(build_gghz(alpha), theta, gamma)
        assert np.max(np.abs(ours - reference)) < 1e-13


def test_behavior_bruteforce_on_mixed_states(rng):
    for _ in range(10):
        rho = random_density(rng)
        theta = rng.uniform(0, np.pi / 2)
        gamma = rng.uniform(0, 1)
        ours = behavior(rho, theta, gamma).probs
        reference = bf_behavior(rho, theta, gamma)
        assert np.max(np.abs(ours - reference)) < 1e-13


def test_luders_gamma_zero_halves_coherence():
    # the unsharp branch is the identity channel at gamma=0; only the sharp
    # branch disturbs, and trace is preserved exactly
    state = build_gghz(np.pi / 4)
    for theta in (0.2, np.pi / 4, 1.3):
        updated = luders_update(state, theta, 0.0)
        assert abs(np.trace(updated) - 1.0) < 1e-12


def test_luders_commuting_case_fixed_point():
    state = build_gghz(0.0)  # |000><000|, diagonal in sigma_3
    for gamma in (0.0, 0.5, 1.0):
        updated = luders_update(state, 0.0, gamma)
        assert np.max(np.abs(updated - state)) < 1e-14


def test_luders_sharp_theta_zero_idempotent(rng):
    rho = random_density(rng)
    once = luders_update(rho, 0.0, 1.0)
    twice = luders_update(once, 0.0, 1.0)
    assert np.max(np.abs(twice - once)) < 1e-13


def test_luders_matches_bruteforce(rng):
    for _ in range(25):
        rho = random_density(rng)
        theta = rng.uniform(0, np.pi / 2)
        gamma = rng.uniform(0, 1)
        ours = luders_update(rho, theta, gamma)
        assert type(ours) is np.ndarray and ours.shape == (8, 8) and ours.dtype == np.float64
        reference = bf_luders(rho, theta, gamma)
        assert np.max(np.abs(ours - reference)) < 5e-9  # eigh-sqrt reference is less exact


def test_luders_xxx_shrink_matches_heisenberg_form():
    # <sigma1 sigma1 sigma1> contracts by the averaged channel's x-component:
    # 1/2[(n0.ex)n0 + s ex + (1-s)(n1.ex)n1], s = sqrt(1-gamma^2)
    theta = np.pi / 4
    gamma = gamma_sequence(np.pi / 4, 0.001, 1).gammas[0]
    state = build_gghz(np.pi / 4)
    xxx = np.kron(np.kron(SX, SX), SX)
    before = np.trace(state @ xxx).real
    assert abs(before - 1.0) < 1e-12
    after = np.trace(luders_update(state, theta, gamma) @ xxx).real

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
        updated = luders_update(rho, theta, gamma)
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
    tables = run_sequence(build_gghz(np.pi / 4), np.pi / 4, schedule, 1)
    direct = behavior(build_gghz(np.pi / 4), np.pi / 4, schedule.gammas[0])
    assert len(tables) == 1
    assert np.max(np.abs(tables[0].probs - direct.probs)) < 1e-15


def test_run_sequence_rounds():
    schedule = gamma_sequence(np.pi / 4, 0.001, 2)
    initial = build_gghz(np.pi / 4)
    tables = run_sequence(initial, np.pi / 4, schedule, 2)
    updated = luders_update(initial, np.pi / 4, schedule.gammas[0])
    assert len(tables) == 2
    assert np.array_equal(tables[1].probs,
                          behavior(updated, np.pi / 4, schedule.gammas[1]).probs)


def test_run_sequence_checks_each_round_once(monkeypatch):
    # run_stack checks each round's stack; wrapping its tables checks nothing again
    calls = []
    original = engine.no_signaling_residuals

    def counting(probs):
        calls.append(len(probs))
        return original(probs)

    monkeypatch.setattr(engine, "no_signaling_residuals", counting)
    schedule = gamma_sequence(np.pi / 4, 0.001, 3, "normalized")
    tables = run_sequence(build_gghz(np.pi / 4), 0.6, schedule, 3)
    assert calls == [1, 1, 1]
    for table in tables:
        assert not table.probs.flags.writeable and table.probs.flags.c_contiguous


def test_run_sequence_rejects_truncated_schedule():
    schedule = gamma_sequence(np.pi / 4, 0.001, 3)  # valid_upto == 2
    with pytest.raises(ValueError, match="valid"):
        run_sequence(build_gghz(np.pi / 4), np.pi / 4, schedule, 3)
    # a count of rounds that is no integer is refused by the same rule as 0
    for rounds in (0, 1.5, True, "2"):
        with pytest.raises(ValueError, match=f"^rounds must be an integer of at least 1, "
                                             f"got {re.escape(repr(rounds))}$"):
            run_sequence(build_gghz(np.pi / 4), np.pi / 4, schedule, rounds)
    assert len(run_sequence(build_gghz(np.pi / 4), np.pi / 4, schedule, np.int64(2))) == 2


def test_scenario_rejects_bad_theta():
    schedule = gamma_sequence(np.pi / 4, 0.001, 1)
    for theta in (0.0, np.pi / 2, -0.3):
        with pytest.raises(ValueError, match="theta"):
            run_sequence(build_gghz(np.pi / 4), theta, schedule, 1)


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
            tables = list(run_stack(gghz_densities([alpha] * len(thetas)), thetas, schedule, rounds))
            assert len(tables) == rounds
            assert all(t.shape == (len(thetas),) + (2,) * 6 for t in tables)
            # numpy's sums follow the memory layout, so the layout is part of the bits
            assert all(t.flags.c_contiguous for t in tables)
            values = [ns2_values(t) for t in tables]
            for n, theta in enumerate(thetas):
                singles = run_sequence(build_gghz(alpha), theta, schedule, rounds)
                for k, single in enumerate(singles):
                    assert np.array_equal(bits(tables[k][n]), bits(single.probs))
                    assert bits(values[k][n]) == bits(ns2_value(single))


def same_bits(ours, oracle):
    """Equal bit for bit, signs of zero included, in the same C-contiguous shape."""
    return (ours.shape == oracle.shape and ours.flags.c_contiguous
            and np.array_equal(bits(ours), bits(oracle)))


@pytest.mark.parametrize("n", KERNEL_SIZES)
def test_behavior_kernel_matches_the_einsum_oracle_bit_for_bit(n):
    rng = np.random.default_rng(n)
    dense = rng.normal(size=(n, 8, 8))
    rhos = dense + dense.transpose(0, 2, 1)  # symmetric, not a state
    effects, _ = charlie_setting(rng.uniform(1e-6, np.pi / 2 - 1e-6, n), rng.uniform())
    for z in (effects, rng.normal(size=(n, 2, 2, 2, 2))):
        assert same_bits(engine._behavior_stack(rhos, z), bf_behavior_stack(rhos, z))


@pytest.mark.parametrize("n", KERNEL_SIZES)
def test_behavior_kernel_matches_the_oracle_on_run_states(monkeypatch, n):
    # every stack that run_stack hands the kernel, the product states at
    # alpha = 0 and pi/2 among them, whose tables hold exact zeros
    calls, kernel = [], engine._behavior_stack

    def recording(rhos, effects):
        tables = kernel(rhos, effects)
        calls.append((rhos.copy(), effects.copy(), tables))
        return tables

    monkeypatch.setattr(engine, "_behavior_stack", recording)
    rng = np.random.default_rng(100 + n)
    alphas = np.concatenate([[0.0, np.pi / 2], rng.uniform(0, np.pi / 2, n)])[:n]
    thetas = rng.uniform(1e-6, np.pi / 2 - 1e-6, n)
    schedule = gamma_sequence(0.02, 0.001, 4)
    list(run_stack(gghz_densities(alphas), thetas, schedule, 4))
    assert len(calls) == 4
    for rhos, effects, tables in calls:
        assert same_bits(tables, bf_behavior_stack(rhos, effects))
        assert not np.signbit(tables[tables == 0.0]).any()
    assert (calls[0][2] == 0.0).any()


def test_behavior_kernel_never_returns_negative_zero():
    # with a -0 state every term is a signed zero, and some entries get only
    # -0 terms; einsum's sums start at +0, so each entry is +0
    rhos = np.full((3, 8, 8), -0.0)
    effects, _ = charlie_setting((0.3, 0.7, 1.1), 0.5)
    tables = engine._behavior_stack(rhos, effects)
    assert same_bits(tables, bf_behavior_stack(rhos, effects))
    assert (tables == 0.0).all() and not np.signbit(tables).any()


def test_behavior_kernel_plans_only_the_terms_of_the_states_nonzeros(monkeypatch):
    # a GGHZ stack keeps 104 of the 1,600 terms in round 1 and 416 after each
    # Lüders round; a dense state keeps all of them and the zero state none
    sizes, plan = [], engine._behavior_plan

    def recording(mask):
        terms = plan(mask)
        sizes.append(len(terms[0]))
        return terms

    monkeypatch.setattr(engine, "_behavior_plan", recording)
    schedule = gamma_sequence(0.02, 0.001, 4)
    list(run_stack(gghz_densities([0.2, np.pi / 4, 1.1]), (0.3, 0.9, 1.4), schedule, 4))
    assert sizes == [104, 416, 416, 416]
    effects, _ = charlie_setting((0.5,), 0.5)
    for rho, terms in ((random_density(np.random.default_rng(3)), 1600), (np.zeros((8, 8)), 0)):
        engine._behavior_stack(rho[None], effects)
        assert sizes[-1] == terms


def test_behavior_kernel_gives_a_member_its_bits_under_any_plan():
    # a GGHZ member alone takes the 104-term plan, beside a dense random state
    # the full one; its table has the same bits in both
    rng = np.random.default_rng(7)
    ghz = gghz_densities([0.7])
    stack = np.concatenate([ghz, random_density(rng)[None]])
    effects, _ = charlie_setting((0.4, 1.2), 0.6)
    alone = engine._behavior_stack(ghz, effects[:1])
    beside = engine._behavior_stack(stack, effects)
    assert np.array_equal(bits(alone[0]), bits(beside[0]))
    assert same_bits(beside, bf_behavior_stack(stack, effects))


def test_behavior_kernel_matches_the_oracle_with_exact_zeros_and_negative_entries():
    # at theta = 1e-9 and gamma_k = 1, cos(theta) == 1.0: one diagonal of each
    # sharp Z is 0; one member has a minus sign on |111>, so a negative
    # coherence, and the Lüders-updated stack has more negative entries
    effects, roots = charlie_setting((1e-9, 0.5, 1e-9), 1.0)
    assert np.cos(1e-9) == 1.0 and (effects == 0.0).any()
    rhos = gghz_densities([0.3, 0.9, 1.2])
    rhos[1, 0, 7] = rhos[1, 7, 0] = -rhos[1, 0, 7]
    for stack in (rhos, engine._luders_stack(rhos, roots)):
        assert (stack < 0.0).any()
        tables = engine._behavior_stack(stack, effects)
        assert same_bits(tables, bf_behavior_stack(stack, effects))
        assert (tables == 0.0).any() and not np.signbit(tables[tables == 0.0]).any()


@pytest.mark.parametrize("seed", range(6))
def test_behavior_kernel_matches_the_oracle_on_sparse_stacks(seed):
    # symmetric stacks with +0 or -0 entries where a random pattern shared by
    # the stack says, which its plan skips, and more in some members only,
    # which it adds: each stack takes its own plan
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 70))
    dense = rng.normal(size=(n, 8, 8))
    zeros = (rng.random((8, 8)) < rng.uniform(0.3, 0.95)) | (rng.random((n, 8, 8)) < 0.3)
    rhos = np.where(zeros, np.copysign(0.0, dense), dense)
    rhos = np.where(np.tri(8, dtype=bool).T, rhos, rhos.transpose(0, 2, 1))
    assert np.signbit(rhos[rhos == 0.0]).any() and (rhos == 0.0).all(axis=0).any()
    effects, _ = charlie_setting(rng.uniform(1e-9, np.pi / 2 - 1e-6, n), rng.uniform())
    assert same_bits(engine._behavior_stack(rhos, effects), bf_behavior_stack(rhos, effects))


def test_run_stack_needs_one_initial_state_per_theta():
    schedule = gamma_sequence(np.pi / 4, 0.001, 1)
    with pytest.raises(ValueError, match="^run_stack needs one initial state per theta, "
                                         "got 1 states for 2 thetas$"):
        next(run_stack(gghz_densities([0.3]), (0.5, 0.6), schedule, 1))


def bad_stack(name):
    """(stack, its bad member, the message): one refused stack per rule of check_densities."""
    ghz = gghz_densities([0.3, 0.6])
    if name == "state objects":  # the states held as Python objects
        states = np.array([build_gghz(0.3), build_gghz(0.6)], dtype=object)
        return states, states[1], "density operator must be numeric, got dtype object"
    if name == "strings":
        return np.full((2, 8, 8), "a"), np.full((8, 8), "a"), (
            "density operator must be numeric, got dtype <U1")
    if name == "wrong shape":
        return np.stack([np.eye(4) / 4] * 2), np.eye(4) / 4, (
            "tripartite state must be 8x8, got (4, 4)")
    if name == "imaginary":
        ghz = ghz.astype(complex)
        ghz[1, 0, 7] += 2e-12j
        ghz[1, 7, 0] -= 2e-12j
        return ghz, ghz[1], ("density operator must be real, got imaginary parts up to "
                             "2e-12 (tolerance 1e-12)")
    if name == "nan":
        ghz[1, 2, 5] = ghz[1, 5, 2] = np.nan
        return ghz, ghz[1], "density operator entry (2, 5) must be finite, got nan"
    if name == "trace":
        ghz[1, 0, 0] += 1e-9
        return ghz, ghz[1], f"density operator must have unit trace, got {np.trace(ghz[1])}"
    assert name == "asymmetric"
    ghz[1, 0, 7] += 1e-9
    return ghz, ghz[1], "density operator must be Hermitian (real symmetric)"


@pytest.mark.parametrize("name", ["state objects", "strings", "wrong shape", "imaginary",
                                  "nan", "trace", "asymmetric"])
def test_run_stack_refuses_what_a_state_refuses(name):
    # the stack is checked once on entry, with the rules and messages of a
    # single state's check, and never meets a numpy error first
    stack, member, message = bad_stack(name)
    with pytest.raises(ValueError) as single:
        behavior(member, 0.5, 0.5)
    with pytest.raises(ValueError) as stacked:
        next(run_stack(stack, (0.5, 0.6), gamma_sequence(np.pi / 4, 0.001, 1), 1))
    assert str(stacked.value) == str(single.value) == message


SINGLE_STATE_CALLS = {
    "behavior": lambda rho: behavior(rho, 0.5, 0.5),
    "luders_update": lambda rho: luders_update(rho, 0.5, 0.5),
    "run_sequence": lambda rho: run_sequence(rho, 0.5, gamma_sequence(np.pi / 4, 0.001, 1), 1),
}


@pytest.mark.parametrize("call", SINGLE_STATE_CALLS)
@pytest.mark.parametrize("rho, message", [
    (np.zeros(8), "tripartite state must be 8x8, got (8,)"),
    (np.zeros((2, 8, 8)), "tripartite state must be 8x8, got (2, 8, 8)"),
    (np.full(8, "abc"), "density operator must be numeric, got dtype <U3"),
    (np.eye(4) / 4, "tripartite state must be 8x8, got (4, 4)"),
], ids=["1-D", "stack", "strings", "4x4"])
def test_single_state_calls_name_the_callers_shape(call, rho, message):
    # the N = 1 calls check a stack of one, but a refused shape is the caller's
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SINGLE_STATE_CALLS[call](rho)


def test_stack_members_keep_their_own_initial_states():
    # a stack of (state, theta) members gives each member's N = 1 tables, bit for bit
    schedule = gamma_sequence(0.1, 0.001, 3)
    alphas, thetas = (0.1, 0.7, 1.2), (1.0, 0.2, 0.6)
    stack = list(run_stack(gghz_densities(alphas), thetas, schedule, 3))
    for n, (alpha, theta) in enumerate(zip(alphas, thetas)):
        singles = run_sequence(build_gghz(alpha), theta, schedule, 3)
        for tables, single in zip(stack, singles):
            assert np.array_equal(bits(tables[n]), bits(single.probs))


def test_stack_refuses_theta_axis_touching_the_ends():
    schedule = gamma_sequence(np.pi / 4, 0.001, 2)
    state = build_gghz(np.pi / 4)
    for thetas in ((0.0, 0.5, 1.0), (0.5, 1.0, np.pi / 2)):
        bad = thetas[0] if thetas[0] == 0.0 else thetas[-1]
        with pytest.raises(ValueError) as single:
            run_sequence(state, bad, schedule, 2)
        # a theta from an array is named as a float, as one from a tuple is
        for given in (thetas, np.array(thetas)):
            with pytest.raises(ValueError) as stacked:
                next(run_stack(np.stack([state] * 3), given, schedule, 2))
            assert str(stacked.value) == str(single.value) == (
                f"theta must lie in (0, pi/2), got {bad!r}")


def test_alice_bob_marginals_round_invariant():
    schedule = gamma_sequence(np.pi / 4, 0.001, 2)
    tables = run_sequence(build_gghz(np.pi / 3), 0.9, schedule, 2)
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
    residuals, labels = no_signaling_residuals(signaling_probs()[None])
    assert residuals[0] == pytest.approx(1.0)
    assert "vs y" in labels[0] or "vs y,z" in labels[0]


def test_behavior_table_rejects_signaling():
    message = "table is signaling: P(ac|xz) vs y varies by 1.000e+00 (tolerance 1e-10)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        BehaviorTable(signaling_probs())
    # below the tolerance a table passes; at it, it is refused
    for shift, passes in ((0.99e-10, True), (1.01e-10, False)):
        probs = np.full((2,) * 6, 0.125)
        probs[0, 0, 0, 0, 0, 0] += shift
        probs[0, 0, 0, 1, 0, 0] -= shift
        if passes:
            BehaviorTable(probs)
        else:
            with pytest.raises(ValueError, match="^table is signaling: P"):
                BehaviorTable(probs)


# family label -> the parties whose outcomes its marginals keep
FAMILY_PARTIES = {label: tuple(sorted({0, 1, 2} - {o - 3 for o in outcome_axes}))
                  for outcome_axes, _, label in BF_MARGINAL_FAMILIES}


@pytest.mark.parametrize("label, forbidden", [
    (label, axis) for _, input_axes, label in BF_MARGINAL_FAMILIES for axis in input_axes])
def test_signaling_gate_holds_for_every_family(label, forbidden):
    # at input `forbidden` = 0, the family's parties' outcome parity gains mass
    # spread evenly over the other outcomes: its marginal moves by the shift,
    # a pair family's single-party ones stay put and a single-party family's
    # pair ones move by half the shift, so the family is the worst one
    parties = FAMILY_PARTIES[label]
    index = np.indices((2,) * 6)
    parity = (-1.0) ** sum(index[3 + party] for party in parties)
    pattern = np.where(index[forbidden] == 0, parity, 0.0) / 2 ** (3 - len(parties))
    for shift, passes in ((0.99e-10, True), (1.01e-10, False)):
        probs = np.full((2,) * 6, 0.125) + shift * pattern
        if passes:
            BehaviorTable(probs)
        else:
            message = f"table is signaling: {label} varies by 1.010e-10 (tolerance 1e-10)"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                BehaviorTable(probs)


def assert_residuals_match_the_oracle(probs):
    residuals, labels = no_signaling_residuals(probs)
    expected, expected_labels = bf_no_signaling_residuals(probs)
    assert np.max(np.abs(residuals - expected), initial=0.0) <= 1e-15
    families = np.sort(bf_family_residuals(probs), axis=0)
    clear = families[-1] - families[-2] > 1e-12
    assert [label for label, c in zip(labels, clear) if c] == [
        label for label, c in zip(expected_labels, clear) if c]
    # every table gets the same bits alone as in the stack
    singles = np.array([no_signaling_residuals(probs[n:n + 1])[0][0] for n in range(len(probs))])
    assert np.array_equal(singles.view(np.int64), residuals.view(np.int64))


NS_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


@NS_SETTINGS
@given(st.integers(1, 300), st.integers(0, 2**32 - 1))
def test_no_signaling_residuals_match_the_oracle_on_random_stacks(n, seed):
    # each block a random distribution over its 8 outcomes: signaling at random
    rng = np.random.default_rng(seed)
    assert_residuals_match_the_oracle(
        rng.dirichlet(np.ones(8), size=(n, 8)).reshape((n,) + (2,) * 6))


@NS_SETTINGS
@given(st.floats(0.0, np.pi / 2), st.floats(0.01, np.pi / 2 - 0.01), st.floats(0.0, 1.0),
       st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7),
                          st.floats(-14.0, -2.0)), min_size=1, max_size=4))
def test_no_signaling_residuals_match_the_oracle_on_shifted_ghz_tables(alpha, theta, gamma,
                                                                        shifts):
    # a GHZ table, then tables that each move mass 10**power from one entry of
    # a block to another
    base = bf_behavior(bf_gghz(alpha), theta, gamma).reshape(8, 8)
    stack = [base.copy()]
    for block, source, target, power in shifts:
        shifted = base.copy()
        shifted[block, source] -= 10.0 ** power
        shifted[block, target] += 10.0 ** power
        stack.append(shifted)
    assert_residuals_match_the_oracle(np.array(stack).reshape((-1,) + (2,) * 6))


def test_run_stack_refuses_a_signaling_stack(monkeypatch):
    # the engine's own tables are non-signaling by physics; a signaling one
    # planted in the stack stops the run before it is yielded
    planted = np.stack([np.full((2,) * 6, 0.125), signaling_probs()])
    monkeypatch.setattr(engine, "_behavior_stack", lambda rhos, effects: planted)
    schedule = gamma_sequence(np.pi / 4, 0.001, 1)
    with pytest.raises(ValueError, match="^table is signaling: P"):
        next(run_stack(gghz_densities([np.pi / 4] * 2), (0.5, 0.6), schedule, 1))


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
            BehaviorTable(probs.reshape((2,) * 6))


def test_behavior_table_rejects_bad_normalization():
    probs = np.full((2, 2, 2, 2, 2, 2), 0.125)
    probs[1, 0, 1] *= 0.9
    with pytest.raises(ValueError, match="sums to"):
        BehaviorTable(probs)


def test_behavior_table_vector_round_trip():
    # probs.reshape(64), which the certifier reads, is a view of the table's
    # read-only entries, and the constructor refuses a table of any other shape
    table = quantum_table(0.7, 0.4, 0.8)
    vector = table.probs.reshape(64)
    assert np.shares_memory(vector, table.probs) and not vector.flags.writeable
    assert np.array_equal(BehaviorTable(vector.reshape((2,) * 6)).probs, table.probs)
    for shape in ((64,), (2,) * 5, (1,) + (2,) * 6):
        with pytest.raises(ValueError, match=re.escape(
                f"behavior table must have shape (2,)*6, got {shape}")):
            BehaviorTable(np.full(shape, 0.125))

