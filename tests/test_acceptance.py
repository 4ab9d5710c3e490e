"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Expected values are frozen from independent oracle runs (brute-force
density-matrix evaluation cross-checked against 40-digit arithmetic).
"""

import hashlib
import json
import time

import numpy as np
import pytest

from nsshare.certifier import hybrid_vertices, lp_feasible
from nsshare.cli import ExperimentConfig, run_experiment
from nsshare.engine import (
    BehaviorTable,
    behavior,
    luders_update,
    no_signaling_residual,
    run_sequence,
    run_stack,
)
from nsshare.inequality import (
    closed_form_ns2,
    is_violation,
    ns2_value,
    ns2_values,
    symmetry_orbit,
)
from nsshare.measurements import gamma_sequence, validity_region
from nsshare.states import build_gghz, gghz_densities

# frozen oracle values for delta = theta = pi/4, epsilon = 0.001, alpha = pi/4
GAMMA_1 = 0.41462777593546814
GAMMA_2 = 0.91935445783192908
GAMMA_3 = 2.99841023752770529
NS2_ROUND_1 = 3.00058578643762690
NS2_ROUND_2 = 3.00064943233910793
SHARP_MAX = 1 + 2 * np.sqrt(2)


def _passed(number: int, message: str) -> None:
    print(f"ACCEPTANCE {number} PASS: {message}")


def test_criterion_01_round1_closed_form_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    schedule_cache = {}
    worst = 0.0
    for _ in range(100):
        alpha = rng.uniform(0.0, np.pi / 2)
        theta = rng.uniform(0.01, np.pi / 2 - 0.01)
        gamma_1 = rng.uniform(0.0, 1.0)
        table = behavior(build_gghz(alpha), theta, gamma_1)
        difference = abs(ns2_value(table) - closed_form_ns2(1, alpha, theta, [gamma_1]))
        worst = max(worst, difference)
        assert difference < 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(1, f"round-1 closed form matches oracle over 100 draws "
               f"(worst {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_02_sharp_measurement_maximum():
    table = behavior(build_gghz(np.pi / 4), np.pi / 4, 1.0)
    value = ns2_value(table)
    assert abs(value - SHARP_MAX) < 1e-9
    assert abs(value - 3.828427124746190) < 1e-9
    assert abs(closed_form_ns2(1, np.pi / 4, np.pi / 4, [1.0]) - SHARP_MAX) < 1e-12
    _passed(2, f"sharp maximum 1 + 2*sqrt(2) reproduced ({value:.12f})")


def test_criterion_03_two_round_violation_point():
    start = time.perf_counter()
    schedule = gamma_sequence(np.pi / 4, 0.001, 3)
    assert abs(schedule.gammas[0] - GAMMA_1) < 1e-6
    assert abs(schedule.gammas[1] - GAMMA_2) < 1e-6
    assert len(schedule.gammas) == 3
    assert not 0.0 <= schedule.gammas[2] <= 1.0  # gamma_3 ~ 2.9984 leaves [0, 1]
    assert abs(schedule.gammas[2] - GAMMA_3) < 1e-6
    assert schedule.valid_upto == 2

    values = [ns2_value(table) for table in run_sequence(build_gghz(np.pi / 4), np.pi / 4,
                                                         schedule, 2)]
    assert abs(values[0] - NS2_ROUND_1) < 1e-6
    assert abs(values[1] - NS2_ROUND_2) < 1e-6
    assert values[0] > 3.0 and values[1] > 3.0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(3, f"two-round point: gammas ({schedule.gammas[0]:.6f}, "
               f"{schedule.gammas[1]:.6f}), values ({values[0]:.6f}, {values[1]:.6f}), "
               f"both > 3, valid_upto=2 ({elapsed:.2f}s)")


def test_criterion_04_closed_form_audit():
    exact = []
    for k in (1, 2):
        summary = run_experiment(ExperimentConfig(n=k, epsilon=0.001))
        row = summary["variants"]["printed"]["rounds"][k - 1]
        assert row["discrepancy"] < 1e-10
        exact.append(row["discrepancy"])

    summary = run_experiment(ExperimentConfig(n=2, theta=np.pi / 8, epsilon=0.001))
    row = summary["variants"]["printed"]["rounds"][1]
    # away from theta = pi/4 the closed form misses the cross terms: the gap is
    # real, reported with both values, and never asserted away
    assert row["discrepancy"] > 1e-3
    assert abs(row["discrepancy"] - 0.19313331657754458) < 1e-9
    assert abs(row["ns2_oracle"] - 3.04149237884597084) < 1e-9
    assert abs(row["ns2_closed_form"] - 2.84835906226842626) < 1e-9
    assert row["violated"]
    _passed(4, f"closed form exact at theta=pi/4 (gaps {exact[0]:.1e}, {exact[1]:.1e}); "
               f"theta=pi/8 gap {row['discrepancy']:.6f} logged with both values")


def test_criterion_05_validity_region_property():
    start = time.perf_counter()
    previous = None
    found = []
    for n in range(1, 9):
        delta = validity_region(n, 0.001)
        assert delta is not None and delta > 0.0
        schedule = gamma_sequence(delta, 0.001, n)
        assert schedule.valid_upto >= n
        assert all(0.0 <= g <= 1.0 for g in schedule.gammas[:n])
        if previous is not None:
            assert delta <= previous + 1e-6
        previous = delta
        found.append(delta)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    assert found[0] == pytest.approx(np.pi / 4)
    _passed(5, f"validity region positive and nonincreasing for n=1..8 "
               f"(from {found[0]:.3f} down to {found[-1]:.2e}, {elapsed:.2f}s)")


def test_criterion_06_certifier_soundness_suite():
    start = time.perf_counter()
    vertices = hybrid_vertices()
    assert len(vertices.vectors) == 288

    for i in range(len(vertices.vectors)):
        result = lp_feasible(BehaviorTable(vertices.vectors[i].reshape((2,) * 6)))
        assert result.feasible and result.residual < 1e-9, i

    uniform = BehaviorTable(np.full((2, 2, 2, 2, 2, 2), 0.125))
    result = lp_feasible(uniform)
    assert result.feasible and result.residual < 1e-9

    violating = 0
    checked = 0
    for alpha in np.linspace(0.05, np.pi / 2 - 0.05, 10):
        state = build_gghz(float(alpha))
        for theta in np.linspace(0.05, np.pi / 2 - 0.05, 10):
            for gamma in np.linspace(0.0, 1.0, 10):
                checked += 1
                table = behavior(state, float(theta), float(gamma))
                if (symmetry_orbit()[0] @ table.probs.reshape(64)).max() > 3.0 + 1e-12:
                    violating += 1
                    result = lp_feasible(table)
                    assert not result.feasible, (alpha, theta, gamma)
    assert checked == 1000
    assert violating > 50  # the scan must actually exercise the soundness link
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _passed(6, f"288 vertices + uniform feasible; all {violating} violating scan "
               f"points LP-infeasible out of {checked} ({elapsed:.1f}s)")


def test_criterion_07_physicality_suite():
    runs = [
        ("printed", np.pi / 4, 2),
        ("printed", validity_region(4, 0.001), 4),
        ("normalized", np.pi / 4, 8),
    ]
    states_checked = 0
    tables_checked = 0
    for variant, delta, rounds in runs:
        schedule = gamma_sequence(delta, 0.001, rounds, variant)
        assert schedule.valid_upto >= rounds
        state = build_gghz(np.pi / 4)
        reference_ab = None
        for k in range(1, rounds + 1):
            # positivity is the one property check_densities does not check
            assert abs(np.trace(state) - 1.0) < 1e-12
            assert np.linalg.eigvalsh(state)[0] >= -1e-10
            states_checked += 1

            table = behavior(state, np.pi / 4, schedule.gammas[k - 1])
            sums = table.probs.sum(axis=(3, 4, 5))
            assert np.max(np.abs(sums - 1.0)) < 1e-12
            residual, _ = no_signaling_residual(table)
            assert residual < 1e-10
            ab_marginal = table.probs.sum(axis=5)[:, :, 0]
            if reference_ab is None:
                reference_ab = ab_marginal
            else:
                assert np.max(np.abs(ab_marginal - reference_ab)) < 1e-10
            tables_checked += 1

            if k < rounds:
                state = luders_update(state, np.pi / 4, schedule.gammas[k - 1])
    _passed(7, f"{states_checked} sequential states and {tables_checked} tables pass "
               f"trace/PSD/normalization/no-signaling/marginal-invariance checks")


def audit_config(base_dir, tag):
    return ExperimentConfig(
        n=5,
        alpha=np.pi / 4,
        epsilon=0.001,
        recursion="both",
        sweep_delta=(0.01, np.pi / 4, 0.01),
        sweep_theta=(0.01, np.pi / 2, 0.01),
        out_csv=str(base_dir / f"audit-{tag}.csv"),
        out_json=str(base_dir / f"audit-{tag}.json"),
    )


def test_criterion_08_claim_audit_deliverable(tmp_path):
    start = time.perf_counter()
    summaries = []
    outputs = []
    for tag in ("one", "two"):
        config = audit_config(tmp_path, tag)
        summaries.append(run_experiment(config))
        outputs.append((
            (tmp_path / f"audit-{tag}.csv").read_bytes(),
            (tmp_path / f"audit-{tag}.json").read_bytes(),
        ))
    assert outputs[0][0] == outputs[1][0], "CSV reports differ between runs"
    assert outputs[0][1] == outputs[1][1], "JSON reports differ between runs"
    # the reports' bytes, including the summary's tie-breaking across delta rows
    assert hashlib.sha256(outputs[0][0]).hexdigest() == (
        "215ab7f8b94a8230bf9acec64823961844957c58120c452be119e802ec925382")
    assert hashlib.sha256(outputs[0][1]).hexdigest() == (
        "23a1a5f2172c8d403ab8b7729ebbd5e27c911b15e5b9bb9b532b3bae77c3cb29")

    data = json.loads(outputs[0][1].decode())
    printed = data["variants"]["printed"]
    normalized = data["variants"]["normalized"]
    assert printed["points"] == 12246 and normalized["points"] == 12246
    # the audited claim promises violations for every round count; the grid
    # documents what actually happens under each recursion variant
    assert printed["max_violating_k"] == 3
    assert printed["violations"] == 360
    assert normalized["max_violating_k"] is None
    assert normalized["violations"] == 0
    elapsed = time.perf_counter() - start
    _passed(8, f"n=5 audit over {printed['points']} grid points, both variants: "
               f"byte-identical reports; max violating k: printed={printed['max_violating_k']}, "
               f"normalized={normalized['max_violating_k']} ({elapsed:.0f}s)")


def test_claim_audit_scan_soundness():
    # every violating behavior in the claim-audit grid (printed variant; the
    # normalized variant produces none) must be certified outside the polytope
    deltas = [0.01 + i * 0.01 for i in range(78)]
    thetas = [0.01 + i * 0.01 for i in range(157)]
    initials = gghz_densities([np.pi / 4] * len(thetas))
    violating_tables = []
    for delta in deltas:
        schedule = gamma_sequence(delta, 0.001, 5)
        rounds = min(5, schedule.valid_upto)
        for tables in run_stack(initials, thetas, schedule, rounds):
            for probs, value in zip(tables, ns2_values(tables)):
                if is_violation(value):
                    violating_tables.append(BehaviorTable(probs))
    assert len(violating_tables) == 360
    for table in violating_tables:
        result = lp_feasible(table)
        assert not result.feasible
    print(f"claim-audit soundness: all {len(violating_tables)} violating grid "
          f"behaviors are LP-infeasible")
