import re

import mpmath as mp
import numpy as np
import pytest

from nsshare.engine import _AB_EFFECTS
from nsshare.measurements import (
    DELTA_MAX,
    DELTA_SEARCH_FLOOR,
    RECURSION_VARIANTS,
    charlie_setting,
    gamma_sequence,
    validity_region,
)

from conftest import SX, SZ, bf_ab_effect, bf_charlie_effect, bf_gamma_recursion

# frozen from the recursion at delta=pi/4, epsilon=0.001 (cross-checked below
# against a 60-digit evaluation of the raw formula)
GAMMA_1 = 0.41462777593546814
GAMMA_2 = 0.91935445783192908
GAMMA_3 = 2.99841023752770529


def mp_gamma_sequence(delta, epsilon, n, variant="printed", dps=60):
    """Independent oracle: the recursion exactly as written, in mpmath."""
    with mp.workdps(dps):
        delta = mp.mpf(delta)
        epsilon = mp.mpf(epsilon)
        gammas = []
        sqrts = []
        for k in range(1, n + 1):
            prod = mp.mpf(1)
            for s in sqrts:
                prod *= 1 + s
            g = (1 + epsilon) * (2 ** (k - 1) - mp.cos(delta) * prod) / mp.sin(delta)
            if variant == "normalized":
                g /= 2 ** (k - 1)
            gammas.append(g)
            if not 0 <= g <= 1:
                break
            sqrts.append(mp.sqrt(1 - g * g))
        valid = 0
        for g in gammas:
            if 0 <= g <= 1:
                valid += 1
            else:
                break
        return [float(g) for g in gammas], valid


def charlie_effects(theta, gamma, z):
    effects, _ = charlie_setting((theta,), gamma)
    return effects[0, z]


def test_alice_setting_input0():
    assert np.allclose(_AB_EFFECTS[0, 0], np.diag([1.0, 0.0]))


def test_bob_setting_input1():
    assert np.allclose(_AB_EFFECTS[1, 0], (np.eye(2) + SX) / 2)


def test_alice_bob_completeness():
    for input_bit in (0, 1):
        m0, m1 = _AB_EFFECTS[input_bit]
        assert np.max(np.abs(m0 + m1 - np.eye(2))) < 1e-15
        for outcome in (0, 1):
            assert np.array_equal(_AB_EFFECTS[input_bit, outcome], bf_ab_effect(input_bit, outcome))


def test_charlie_theta_zero_sharp():
    assert np.allclose(charlie_effects(0.0, 1.0, 0)[0], np.diag([1.0, 0.0]))


def test_charlie_unsharp_branch():
    expected = (np.eye(2) + (SZ + SX) / np.sqrt(2)) / 2
    assert np.max(np.abs(charlie_effects(np.pi / 4, 1.0, 1)[0] - expected)) < 1e-15


def test_charlie_fully_unsharp():
    assert np.allclose(charlie_effects(np.pi / 4, 0.0, 1)[0], np.eye(2) / 2)


def test_charlie_sharp_branch_ignores_gamma():
    # input 0 is projective regardless of the round's sharpness
    for gamma in (0.0, 0.3, 1.0):
        vals = np.sort(np.linalg.eigvalsh(charlie_effects(0.7, gamma, 0)[0]))
        assert np.allclose(vals, [0.0, 1.0])


def test_charlie_rejects_bad_gamma():
    with pytest.raises(ValueError, match="gamma"):
        charlie_setting((np.pi / 4,), 1.5)


def test_charlie_completeness(rng):
    for _ in range(100):
        theta = rng.uniform(0, np.pi / 2)
        gamma = rng.uniform(0, 1)
        for z in (0, 1):
            m0, m1 = charlie_effects(theta, gamma, z)
            assert np.max(np.abs(m0 + m1 - np.eye(2))) < 1e-12


def test_setting_effects_match_effect_matrix(rng):
    for _ in range(20):
        thetas = rng.uniform(0, np.pi / 2, size=6)
        gamma = rng.uniform(0, 1)
        effects, _ = charlie_setting(thetas, gamma)
        for n, theta in enumerate(thetas):
            for z in (0, 1):
                for c in (0, 1):
                    reference = bf_charlie_effect(theta, gamma, z, c)
                    assert np.max(np.abs(effects[n, z, c] - reference)) < 1e-15


def test_gamma_sequence_frozen_point():
    schedule = gamma_sequence(np.pi / 4, 0.001, 3)
    assert len(schedule.gammas) == 3
    assert abs(schedule.gammas[0] - GAMMA_1) < 1e-12
    assert abs(schedule.gammas[1] - GAMMA_2) < 1e-12
    assert abs(schedule.gammas[2] - GAMMA_3) < 1e-11
    assert schedule.valid_upto == 2


def test_gamma_sequence_stops_after_first_invalid():
    schedule = gamma_sequence(np.pi / 4, 0.001, 6)
    # gamma_3 leaves [0, 1]; nothing past it is computed
    assert len(schedule.gammas) == 3
    assert schedule.valid_upto == 2


def test_gamma1_closed_form_small_delta():
    schedule = gamma_sequence(0.05, 0.001, 1)
    assert abs(schedule.gammas[0] - 1.001 * np.tan(0.025)) < 1e-15


def test_gamma1_approaches_tan_pi_eighth():
    schedule = gamma_sequence(np.pi / 4, 1e-12, 1)
    assert abs(schedule.gammas[0] - np.tan(np.pi / 8)) < 1e-11


def test_gamma1_closed_form_random(rng):
    for _ in range(1000):
        delta = rng.uniform(1e-3, np.pi / 4)
        epsilon = rng.uniform(1e-6, 0.5)
        g1 = gamma_sequence(delta, epsilon, 1).gammas[0]
        reference = (1 + epsilon) * (1 - np.cos(delta)) / np.sin(delta)
        assert abs(g1 - reference) < 1e-12


def test_gamma_sequence_matches_highprecision_oracle():
    for delta in (np.pi / 4, 0.3, 0.01, 1e-4, 1e-8, 1e-12):
        ours = gamma_sequence(delta, 0.001, 8)
        ref_gammas, ref_valid = mp_gamma_sequence(delta, "0.001", 8)
        assert ours.valid_upto == ref_valid, delta
        assert len(ours.gammas) == len(ref_gammas), delta
        for mine, ref in zip(ours.gammas, ref_gammas):
            assert abs(mine - ref) <= 1e-13 * max(1.0, abs(ref)), delta


def test_gamma_sequence_has_the_bits_of_the_numpy_scalar_loop():
    # seeded schedules of both variants, deltas log-uniform from pi/4 down to
    # 1e-150 and each validity boundary: every gamma keeps its bits
    rng = np.random.default_rng(26)
    deltas = list(DELTA_MAX * 10.0 ** rng.uniform(-150, 0, 2000))
    deltas += [validity_region(n, 0.001, variant) for n in range(1, 9)
               for variant in RECURSION_VARIANTS]
    epsilons = 10.0 ** rng.uniform(-12, -0.5, len(deltas))
    for delta, epsilon in zip(deltas, epsilons):
        for variant in RECURSION_VARIANTS:
            ours = gamma_sequence(float(delta), float(epsilon), 12, variant).gammas
            oracle = bf_gamma_recursion(float(delta), float(epsilon), 12, variant)
            assert all(type(g) is float for g in ours)
            assert np.array_equal(np.array(ours).view(np.int64),
                                  np.array(oracle).view(np.int64)), (delta, epsilon, variant)


def test_gamma_sequence_normalized_variant():
    schedule = gamma_sequence(np.pi / 4, 0.001, 8, variant="normalized")
    assert schedule.valid_upto == 8
    ref_gammas, ref_valid = mp_gamma_sequence(np.pi / 4, "0.001", 8, variant="normalized")
    assert ref_valid == 8
    for mine, ref in zip(schedule.gammas, ref_gammas):
        assert abs(mine - ref) < 1e-13
    # both variants share gamma_1
    printed = gamma_sequence(np.pi / 4, 0.001, 1)
    assert abs(schedule.gammas[0] - printed.gammas[0]) < 1e-15


def test_gamma_sequence_validates_arguments():
    with pytest.raises(ValueError):
        gamma_sequence(0.0, 0.001, 1)
    with pytest.raises(ValueError):
        gamma_sequence(np.pi / 2, 0.001, 1)
    with pytest.raises(ValueError):
        gamma_sequence(0.3, 0.0, 1)
    with pytest.raises(ValueError):
        gamma_sequence(0.3, 0.001, 0)
    with pytest.raises(ValueError):
        gamma_sequence(0.3, 0.001, 1, variant="other")


def test_gamma_sequence_refuses_deltas_below_the_normal_float_range():
    # t = sin(delta/2)**2 is a normal float exactly down to DELTA_SEARCH_FLOOR
    assert np.sin(DELTA_SEARCH_FLOOR / 2) ** 2 >= np.finfo(float).tiny
    assert gamma_sequence(DELTA_SEARCH_FLOOR, 0.001, 3).gammas[0] > 0.0
    for delta in (np.nextafter(DELTA_SEARCH_FLOOR, 0.0), 1e-160, 1e-300, 5e-324):
        message = f"delta must be at least {DELTA_SEARCH_FLOOR!r}, got {delta!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}: "):
            gamma_sequence(delta, 0.001, 3)


def test_validity_region_ends_at_the_normal_float_range():
    # n = 10 still has a valid delta, bit for bit as before the floor moved;
    # from n = 11 on the boundary lies below the floor, where every gamma read 0
    assert validity_region(10, 0.001) == 1.499588380742918e-152
    for n in (11, 12, 13):
        assert validity_region(n, 0.001) is None
    assert validity_region(11, 0.001, variant="normalized") == 0.1065171953601653


def test_validity_region_endpoint_cases():
    assert validity_region(1, 0.001) == pytest.approx(np.pi / 4, abs=0)
    assert validity_region(2, 0.001) == pytest.approx(np.pi / 4, abs=0)


def test_validity_region_n3():
    delta = validity_region(3, 0.001)
    assert 0.28 < delta < np.pi / 4
    assert gamma_sequence(delta, 0.001, 3).valid_upto == 3
    # just past the boundary the schedule must fail
    assert gamma_sequence(min(delta + 1e-3, np.pi / 4), 0.001, 3).valid_upto < 3


def test_validity_region_nonincreasing_and_valid():
    previous = None
    for n in range(1, 9):
        delta = validity_region(n, 0.001)
        assert delta is not None and delta > 0
        schedule = gamma_sequence(delta, 0.001, n)
        assert schedule.valid_upto >= n
        assert all(0.0 <= g <= 1.0 for g in schedule.gammas[:n])
        if previous is not None:
            assert delta <= previous + 1e-6
        previous = delta


def test_validity_region_tiny_deltas_verified_by_mp():
    # the deep end of the search: deltas near 1e-18 and 1e-37 remain valid
    # under a 120-digit evaluation of the raw recursion
    for n in (6, 7, 8):
        delta = validity_region(n, 0.001)
        assert delta is not None and 0 < delta < 1e-6
        _, valid = mp_gamma_sequence(delta, "0.001", n, dps=120)
        assert valid >= n
    # and the cancellation-free recursion matches it value by value at every
    # searched delta (worst relative error 1.2e-14, printed variant at n = 8)
    for variant in RECURSION_VARIANTS:
        for n in range(1, 9):
            delta = validity_region(n, 0.001, variant)
            reference, valid = mp_gamma_sequence(delta, 0.001, n, variant, dps=120)
            assert valid >= n
            gammas = gamma_sequence(delta, 0.001, n, variant).gammas
            np.testing.assert_allclose(gammas, reference, rtol=1e-12, atol=0)


def test_validity_region_bisects_to_adjacent_floats():
    # a resolution finer than one ulp of delta ends the search at adjacent
    # floats: the returned delta is valid, the next float up is not
    delta = validity_region(3, 1e-3, resolution=1e-30)
    assert gamma_sequence(delta, 1e-3, 3).valid_upto >= 3
    assert gamma_sequence(np.nextafter(delta, np.inf), 1e-3, 3).valid_upto < 3
    assert abs(delta - validity_region(3, 1e-3)) < 1e-6


def test_validity_region_normalized_variant():
    for n in (1, 4, 8):
        assert validity_region(n, 0.001, variant="normalized") == pytest.approx(np.pi / 4, abs=0)
