import re

import numpy as np
import pytest

from nsshare.engine import behavior, luders_update, run_stack
from nsshare.measurements import gamma_sequence
from nsshare.states import build_gghz, check_densities, gghz_densities

from conftest import SX, SZ, bf_gghz, random_density


def test_gghz_alpha_zero():
    rho = build_gghz(0.0)
    assert type(rho) is np.ndarray and rho.shape == (8, 8) and rho.dtype == np.float64
    expected = np.zeros((8, 8))
    expected[0, 0] = 1.0
    assert np.allclose(rho, expected)


def test_gghz_maximal():
    rho = build_gghz(np.pi / 4)
    expected = np.zeros((8, 8))
    for i in (0, 7):
        for j in (0, 7):
            expected[i, j] = 0.5
    assert np.max(np.abs(rho - expected)) < 1e-15


def test_gghz_pi_over_six():
    rho = build_gghz(np.pi / 6)
    assert abs(rho[0, 0] - 0.75) < 1e-15
    assert abs(rho[7, 7] - 0.25) < 1e-15
    assert abs(rho[0, 7] - np.sqrt(3) / 4) < 1e-15
    assert abs(rho[7, 0] - np.sqrt(3) / 4) < 1e-15
    mask = np.ones((8, 8), dtype=bool)
    mask[np.ix_((0, 7), (0, 7))] = False
    assert np.max(np.abs(rho[mask])) == 0.0


def test_gghz_matches_outer_product_oracle(rng):
    for _ in range(25):
        alpha = rng.uniform(0.0, np.pi / 2)
        assert np.max(np.abs(build_gghz(alpha) - bf_gghz(alpha))) < 1e-15


def test_gghz_alpha_out_of_range():
    for alpha in (-0.1, np.pi / 2 + 0.1):
        with pytest.raises(ValueError, match="alpha"):
            build_gghz(alpha)


def test_gghz_densities_are_the_states_of_build_gghz_bit_for_bit(rng):
    alphas = np.concatenate([[0.0, np.pi / 2, 1e-300], rng.uniform(0.0, np.pi / 2, 1000)])
    stack = gghz_densities(alphas)
    assert stack.shape == (len(alphas), 8, 8) and stack.flags.c_contiguous
    singles = np.array([build_gghz(float(alpha)) for alpha in alphas])
    oracle = np.array([bf_gghz(float(alpha)).real for alpha in alphas])
    # the stack is left unchecked because it passes the check, which returns it unchanged
    checked = check_densities(gghz_densities(alphas))
    for reference in (singles, oracle, checked):
        assert np.array_equal(stack.view(np.int64), reference.view(np.int64))


def test_gghz_densities_refuse_what_build_gghz_refuses():
    for alpha in (np.nan, -0.1, np.pi / 2 + 1e-12, np.inf, -1e-300):
        with pytest.raises(ValueError) as single:
            build_gghz(alpha)
        with pytest.raises(ValueError) as stacked:
            gghz_densities([0.3, alpha, -1.0])
        assert str(stacked.value) == str(single.value) == (
            f"alpha must lie in [0, pi/2], got {alpha!r}")


def test_check_densities_returns_a_float_stack_without_copying_it(rng):
    rhos = np.array([random_density(rng) for _ in range(3)])
    assert np.shares_memory(check_densities(rhos), rhos)
    for given in (rhos.astype(complex), np.asfortranarray(rhos)):
        checked = check_densities(given)
        assert checked.dtype == np.float64 and checked.flags.c_contiguous
        assert np.array_equal(checked, rhos)


def test_gghz_purity(rng):
    for _ in range(50):
        rho = build_gghz(rng.uniform(0.0, np.pi / 2))
        assert abs(np.trace(rho @ rho).real - 1.0) < 1e-12


def test_gghz_zz_correlation_is_one(rng):
    zz1 = np.kron(np.kron(SZ, SZ), np.eye(2))
    for alpha in rng.uniform(0.0, np.pi / 2, size=20):
        assert abs(np.trace(build_gghz(alpha) @ zz1).real - 1.0) < 1e-12


def test_gghz_xxx_correlation_is_sin_two_alpha(rng):
    xxx = np.kron(np.kron(SX, SX), SX)
    for alpha in rng.uniform(0.0, np.pi / 2, size=20):
        value = np.trace(build_gghz(alpha) @ xxx).real
        assert abs(value - np.sin(2 * alpha)) < 1e-12


def check_one(rho):
    return check_densities(np.asarray(rho)[None])[0]


def refusal(rho) -> str:
    """The one ValueError message with which check_densities, behavior and luders_update refuse rho."""
    messages = set()
    for call in (check_one, lambda r: behavior(r, 0.5, 0.5), lambda r: luders_update(r, 0.5, 0.5)):
        with pytest.raises(ValueError) as error:
            call(rho)
        messages.add(str(error.value))
    assert len(messages) == 1, messages
    return messages.pop()


def test_state_rejects_bad_trace():
    assert re.search("trace", refusal(np.eye(8) / 7))


def test_state_rejects_non_hermitian():
    rho = np.eye(8, dtype=complex) / 8
    rho[0, 1] = 0.3
    assert re.search("Hermitian", refusal(rho))


def test_state_refuses_imaginary_parts():
    # Hermitian, but no state of the scenario has an imaginary part to carry
    for imag in (0.3, 2e-12):
        rho = np.eye(8, dtype=complex) / 8
        rho[0, 1], rho[1, 0] = 1j * imag, -1j * imag
        message = (f"density operator must be real, got imaginary parts up to {imag!r} "
                   "(tolerance 1e-12)")
        assert refusal(rho) == message


def test_state_takes_complex_input_without_imaginary_part_as_real(rng):
    for rho in (np.eye(8) / 8, random_density(rng), bf_gghz(0.3).real):
        state = check_one(rho.astype(complex))
        assert state.dtype == np.float64
        assert np.array_equal(state, check_one(rho))
        assert np.array_equal(behavior(rho.astype(complex), 0.5, 0.5).probs,
                              behavior(rho, 0.5, 0.5).probs)
        assert np.array_equal(luders_update(rho.astype(complex), 0.5, 0.5),
                              luders_update(rho, 0.5, 0.5))
    assert np.array_equal(check_one(bf_gghz(0.3)), build_gghz(0.3))


def test_state_refuses_non_finite_entries():
    # NaN and inf slip through the trace and symmetry comparisons, so they are refused first
    for value in (np.nan, np.inf, -np.inf):
        rho = np.eye(8) / 8
        rho[2, 5] = rho[5, 2] = value
        assert refusal(rho) == f"density operator entry (2, 5) must be finite, got {value!r}"
    assert refusal(np.full((8, 8), np.nan)).startswith("density operator entry (0, 0) must be finite")


def test_state_refuses_non_numeric_entries():
    # strings would meet numpy's own ufunc error, None would pass as a NaN entry
    for entries, dtype in (([["a"] * 8] * 8, "<U1"), ([[None] * 8] * 8, "object"),
                           (np.eye(8, dtype=bool), "bool")):
        assert refusal(entries) == f"density operator must be numeric, got dtype {dtype}"


def test_state_rejects_wrong_shape():
    assert re.search("8x8", refusal(np.eye(4) / 4))


def test_a_single_state_is_not_a_stack():
    # one state passed where a stack belongs is named by its own shape
    message = "density stack must have shape (N, 8, 8), got (8, 8)"
    with pytest.raises(ValueError) as checked:
        check_densities(build_gghz(0.3))
    with pytest.raises(ValueError) as run:
        next(run_stack(build_gghz(0.3), (0.5,), gamma_sequence(np.pi / 4, 0.001, 1), 1))
    assert str(checked.value) == str(run.value) == message


def test_gghz_densities_refuse_alphas_that_are_not_one_dimensional():
    for alphas, shape in ((0.3, "()"), ([[0.3, 0.6]], "(1, 2)")):
        with pytest.raises(ValueError) as error:
            gghz_densities(alphas)
        assert str(error.value) == f"alphas must be a 1-D sequence, got shape {shape}"
