import hashlib
from itertools import product

import numpy as np
import pytest

from nsshare.certifier import hybrid_vertices
from nsshare.cli import ConfigError, ExperimentConfig, run_experiment, sweep_values
from nsshare.engine import BehaviorTable, behavior, run_stack
from nsshare.inequality import (
    NS2_BOUND,
    closed_form_ns2,
    is_violation,
    ns2_value,
    ns2_values,
    symmetry_name,
    symmetry_orbit,
)
from nsshare.measurements import gamma_sequence, validity_region
from nsshare.states import build_gghz, gghz_densities

from conftest import (
    BF_SIGNS,
    I2,
    KERNEL_SIZES,
    SX,
    SZ,
    bf_behavior,
    bf_bloch_ns2,
    bf_closed_form,
    bf_ns2,
    bf_ns2_values,
    bf_relabel,
    signaling_probs,
)

# frozen oracle values for delta = theta = alpha-parameter pi/4, epsilon = 0.001
NS2_ROUND_1 = 3.00058578643762690
NS2_ROUND_2 = 3.00064943233910793
NS2_SHARP_MAX = 3.82842712474619010   # = 1 + 2 sqrt(2)
# theta = pi/8 with the same schedule
NS2_ROUND_2_PI8 = 3.04149237884597084
CLOSED_2_PI8 = 2.84835906226842626
DISCREPANCY_PI8 = 0.19313331657754458


def uniform_table():
    return BehaviorTable(np.full((2, 2, 2, 2, 2, 2), 0.125))


def deterministic_zero_table():
    probs = np.zeros((2, 2, 2, 2, 2, 2))
    probs[:, :, :, 0, 0, 0] = 1.0
    return BehaviorTable(probs)


def point_rounds(**params):
    """The per-round rows of a point run (delta = pi/4, epsilon = 0.001 unless given)."""
    return run_experiment(ExperimentConfig(**params))["variants"]["printed"]["rounds"]


def test_ns2_sharp_against_trace_oracle(rng):
    # on the sharp table NS2 equals tr[rho W] for the five-term operator W;
    # its term <X1 Y1 Z1> is tr[rho sigma1 (x) sigma1 (x) n1.sigma]
    for _ in range(20):
        alpha = rng.uniform(0, np.pi / 2)
        theta = rng.uniform(0, np.pi / 2)
        rho = build_gghz(alpha)
        n0_sigma = -np.sin(theta) * SX + np.cos(theta) * SZ
        n1_sigma = np.sin(theta) * SX + np.cos(theta) * SZ
        xxx = np.kron(np.kron(SX, SX), n1_sigma)
        w = (np.kron(np.kron(SZ, SZ), I2) + np.kron(np.kron(SZ, I2), n0_sigma)
             + np.kron(np.kron(I2, SZ), n1_sigma) - np.kron(np.kron(SX, SX), n0_sigma) + xxx)
        reference = np.trace(rho @ w).real
        assert ns2_value(behavior(rho, theta, 1.0)) == pytest.approx(reference, abs=1e-12)
        assert np.trace(rho @ xxx).real == pytest.approx(np.sin(2 * alpha) * np.sin(theta),
                                                         abs=1e-12)


def test_ns2_rejects_signaling_table():
    # ns2_value takes a BehaviorTable, and a signaling one cannot be built
    with pytest.raises(ValueError, match="^table is signaling: "):
        ns2_value(BehaviorTable(signaling_probs()))


def test_ns2_uniform_zero():
    assert ns2_value(uniform_table()) == pytest.approx(0.0, abs=1e-15)


def test_ns2_deterministic_boundary():
    assert ns2_value(deterministic_zero_table()) == pytest.approx(3.0, abs=1e-15)
    assert not is_violation(3.0)


def test_ns2_sharp_maximum():
    table = behavior(build_gghz(np.pi / 4), np.pi / 4, 1.0)
    value = ns2_value(table)
    assert value == pytest.approx(NS2_SHARP_MAX, abs=1e-9)
    assert value == pytest.approx(1 + 2 * np.sqrt(2), abs=1e-12)


def test_ns2_matches_bruteforce(rng):
    for _ in range(25):
        alpha = rng.uniform(0, np.pi / 2)
        theta = rng.uniform(0, np.pi / 2)
        gamma = rng.uniform(0, 1)
        table = behavior(build_gghz(alpha), theta, gamma)
        reference = bf_ns2(bf_behavior(build_gghz(alpha), theta, gamma))
        assert ns2_value(table) == pytest.approx(reference, abs=1e-12)


@pytest.mark.parametrize("n", KERNEL_SIZES)
def test_ns2_values_match_the_fancy_index_oracle_bit_for_bit(n):
    # unnormalized entries over many scales, and exact zeros of both signs
    rng = np.random.default_rng(n)
    shape = (n,) + (2,) * 6
    probs = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
    probs[rng.uniform(size=shape) < 0.2] = -0.0
    probs[rng.uniform(size=shape) < 0.1] = 0.0
    probs[0] = -0.0
    if n > 1:  # -0 where a three-party sign is +1: those correlators sum to -0
        probs[1] = np.copysign(0.0, -BF_SIGNS["ABC"])
    values, expected = ns2_values(probs), bf_ns2_values(probs)
    assert values.shape == expected.shape == (n,)
    assert np.array_equal(values.view(np.int64), expected.view(np.int64))


def test_closed_form_examples():
    assert closed_form_ns2(1, np.pi / 4, np.pi / 4, [1.0]) == pytest.approx(
        1 + 2 * np.sqrt(2), abs=1e-12)
    schedule = gamma_sequence(np.pi / 4, 0.001, 2)
    assert closed_form_ns2(1, np.pi / 4, np.pi / 4, schedule.gammas) == pytest.approx(
        NS2_ROUND_1, abs=1e-12)
    assert closed_form_ns2(2, np.pi / 4, np.pi / 4, schedule.gammas) == pytest.approx(
        NS2_ROUND_2, abs=1e-12)


@pytest.mark.parametrize("variant", ["printed", "normalized"])
def test_closed_form_over_a_theta_axis_is_the_per_theta_value(variant, rng):
    # a run evaluates the closed form once per round over its whole theta axis;
    # each entry must carry the bits of the scalar call the reports used to make
    thetas = sweep_values((0.01, np.pi / 2, 0.01))
    assert len(thetas) == 157
    schedule = gamma_sequence(validity_region(5, 0.001, variant), 0.001, 5, variant)
    assert schedule.valid_upto == 5
    for alpha in (np.pi / 8, np.pi / 4, 0.6):
        for k in range(1, 6):
            values = closed_form_ns2(k, alpha, thetas, schedule.gammas)
            singles = [closed_form_ns2(k, alpha, theta, schedule.gammas) for theta in thetas]
            assert values.shape == (157,)
            assert np.array_equal(values, singles)
            oracle = [bf_closed_form(k, alpha, theta, schedule.gammas) for theta in thetas]
            assert np.max(np.abs(values - oracle)) < 1e-12
    # round 1 takes the general form with an empty product: the bits of
    # 1 + (1 + gamma_1) base on seeded (alpha, theta) arrays
    alphas, angles = rng.uniform(0, np.pi / 2, (2, 20000))
    base = np.cos(angles) + np.sin(angles) * np.sin(2 * alphas)
    for g in (schedule.gammas[0], *rng.uniform(0, 1, 5)):
        assert np.array_equal(closed_form_ns2(1, alphas, angles, [g]), 1 + (1 + g) * base)


@pytest.mark.parametrize("variant", ["printed", "normalized"])
def test_bloch_plane_oracle_is_the_engine_ns2(variant, rng):
    # the exact round-k value of a GGHZ run, from 2x2 Bloch-plane maps, on
    # seeded (alpha, theta) and deltas inside each n's validity region
    gaps = []
    for n in range(1, 11):
        top = validity_region(n, 0.001, variant)
        for delta in (top, *top * rng.uniform(0.5, 1.0, 2)):
            schedule = gamma_sequence(delta, 0.001, n, variant)
            assert schedule.valid_upto >= n
            alphas, thetas = rng.uniform(0.0, np.pi / 2, (2, 8))
            stack = run_stack(gghz_densities(alphas), thetas, schedule, n)
            for k, tables in enumerate(stack, start=1):
                oracle = [bf_bloch_ns2(k, alpha, theta, schedule.gammas)
                          for alpha, theta in zip(alphas, thetas)]
                gaps.append(np.max(np.abs(ns2_values(tables) - oracle)))
    assert max(gaps) < 1e-14


@pytest.mark.parametrize("variant", ["printed", "normalized"])
def test_bloch_plane_oracle_is_the_closed_form_at_theta_pi_4(variant, rng):
    for n in range(1, 11):
        schedule = gamma_sequence(validity_region(n, 0.001, variant), 0.001, n, variant)
        for alpha in rng.uniform(0.0, np.pi / 2, 4):
            for k in range(1, n + 1):
                assert bf_bloch_ns2(k, alpha, np.pi / 4, schedule.gammas) == pytest.approx(
                    closed_form_ns2(k, alpha, np.pi / 4, schedule.gammas), abs=1e-14)


def test_closed_form_validates():
    with pytest.raises(ValueError):
        closed_form_ns2(2, 0.5, 0.5, [0.4])
    with pytest.raises(ValueError):
        closed_form_ns2(1, 0.5, 0.5, [1.4])
    with pytest.raises(ValueError):
        closed_form_ns2(0, 0.5, 0.5, [0.4])


def test_compare_round1_exact(rng):
    for _ in range(50):
        alpha = rng.uniform(0, np.pi / 2)
        theta = rng.uniform(0.01, np.pi / 2 - 0.01)
        (row,) = point_rounds(n=1, alpha=alpha, theta=theta)
        assert row["discrepancy"] < 1e-10


def test_compare_round2_exact_at_pi_quarter():
    row = point_rounds(n=2)[1]
    assert row["ns2_oracle"] == pytest.approx(NS2_ROUND_2, abs=1e-12)
    assert row["discrepancy"] < 1e-10
    assert row["violated"]


def test_compare_round2_discrepancy_at_pi_eighth():
    summary = run_experiment(ExperimentConfig(n=2, theta=np.pi / 8))
    row = summary["variants"]["printed"]["rounds"][1]
    assert row["ns2_oracle"] == pytest.approx(NS2_ROUND_2_PI8, abs=1e-9)
    assert row["ns2_closed_form"] == pytest.approx(CLOSED_2_PI8, abs=1e-9)
    assert row["discrepancy"] == pytest.approx(DISCREPANCY_PI8, abs=1e-9)
    assert summary["params"]["theta"] == pytest.approx(np.pi / 8)
    assert len(summary["variants"]["printed"]["gammas"]) == 2


def test_compare_validates_round():
    # delta = pi/4 keeps only gamma_1, gamma_2 in [0, 1]: a third round is refused
    with pytest.raises(ConfigError, match="schedule truncated: gamma_3"):
        point_rounds(n=3)


def test_report_violation_flag_guard():
    assert not is_violation(NS2_BOUND)
    assert not is_violation(NS2_BOUND + 5e-13)
    assert is_violation(NS2_BOUND + 1e-11)


def test_ns2_linearity(rng):
    t1 = behavior(build_gghz(np.pi / 4), np.pi / 4, 1.0)
    t2 = uniform_table()
    v1, v2 = ns2_value(t1), ns2_value(t2)
    for lam in rng.uniform(0, 1, size=25):
        mix = BehaviorTable(lam * t1.probs + (1 - lam) * t2.probs)
        assert ns2_value(mix) == pytest.approx(lam * v1 + (1 - lam) * v2, abs=1e-12)


def test_ns2_bounded_on_vertex_mixtures(rng):
    vertices = hybrid_vertices()
    vertex_values = np.array([ns2_value(BehaviorTable(v.reshape((2,) * 6)))
                              for v in vertices.vectors])
    assert vertex_values.max() <= 3.0 + 1e-12
    for _ in range(1000):
        weights = rng.random(len(vertices.vectors))
        weights /= weights.sum()
        # by linearity the mixture's value is the weighted vertex value
        assert float(weights @ vertex_values) <= 3.0 + 1e-9
    # spot-check linearity on actual mixed tables
    for _ in range(10):
        weights = rng.random(len(vertices.vectors))
        weights /= weights.sum()
        mixed = BehaviorTable((weights @ vertices.vectors).reshape((2,) * 6))
        assert ns2_value(mixed) <= 3.0 + 1e-9
        assert ns2_value(mixed) == pytest.approx(float(weights @ vertex_values), abs=1e-10)


def test_ns2_relabelings_count_and_bound(rng):
    table = uniform_table()
    values = symmetry_orbit()[0] @ table.probs.reshape(64)
    assert values.shape == (768,)
    assert np.max(np.abs(values)) < 1e-12
    # polytope members stay below the bound in every image of the inequality
    vertices = hybrid_vertices()
    for index in rng.integers(0, len(vertices.vectors), size=10):
        vertex = BehaviorTable(vertices.vectors[index].reshape((2,) * 6))
        assert (symmetry_orbit()[0] @ vertex.probs.reshape(64)).max() <= 3.0 + 1e-12
    # as functionals of the 64 entries the images are distinct, and each
    # attains exactly 3 on the vertices
    functionals, symmetries = symmetry_orbit()
    assert functionals.shape == (768, 64) and len(symmetries) == 768
    assert len(np.unique(functionals, axis=0)) == 768
    maxima = (vertices.vectors @ functionals.T).max(axis=0)
    assert np.array_equal(maxima, np.full(768, 3.0))
    names = [symmetry_name(symmetry) for symmetry in symmetries]
    assert names[0] == "identity" and len(set(names)) == 768


def test_symmetry_orbit_bytes_are_pinned():
    # the orbit's images and their symmetries, as built when the inequality's
    # coefficients came from a loop over its five correlators
    functionals, symmetries = symmetry_orbit()
    assert hashlib.sha256(functionals.tobytes()).hexdigest() == (
        "f169e4c75dfdf99581a5a721b45a989981a137a070cbfd429a0a45d0482b436a")
    assert hashlib.sha256(symmetries.tobytes()).hexdigest() == (
        "d97146d2b9ce86ff1975949120d3cd04f714c1e07b7dfe5bc755d1e65cfc5630")


def test_ns2_relabelings_match_flipped_tables(rng):
    # each image's value is ns2_value of the table relabeled by its symmetry,
    # and image 0 is the inequality itself
    functionals, symmetries = symmetry_orbit()
    for _ in range(25):
        table = behavior(build_gghz(rng.uniform(0, np.pi / 2)), rng.uniform(0, np.pi / 2),
                         rng.uniform(0, 1))
        values = symmetry_orbit()[0] @ table.probs.reshape(64)
        assert values[0] == pytest.approx(ns2_value(table), abs=1e-14)
        for r in rng.integers(0, len(symmetries), size=40):
            order, local = symmetries[r][:3], symmetries[r][3:]
            relabeled = BehaviorTable(bf_relabel(table.probs, order, local))
            assert values[r] == pytest.approx(ns2_value(relabeled), abs=1e-14)
        # the 8 outcome flips of the whole table are among the images
        for flips in product((0, 3), repeat=3):  # code 3 flips a party's outcome at both inputs
            flipped = ns2_value(BehaviorTable(bf_relabel(table.probs, (0, 1, 2), flips)))
            assert np.min(np.abs(values - flipped)) < 1e-14
