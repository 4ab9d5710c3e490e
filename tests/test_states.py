import re

import numpy as np
import pytest

from nsshare.states import TripartiteState, build_gghz

from conftest import SX, SZ, bf_gghz, random_density


def test_gghz_alpha_zero():
    rho = build_gghz(0.0).rho
    expected = np.zeros((8, 8))
    expected[0, 0] = 1.0
    assert np.allclose(rho, expected)


def test_gghz_maximal():
    rho = build_gghz(np.pi / 4).rho
    expected = np.zeros((8, 8))
    for i in (0, 7):
        for j in (0, 7):
            expected[i, j] = 0.5
    assert np.max(np.abs(rho - expected)) < 1e-15


def test_gghz_pi_over_six():
    rho = build_gghz(np.pi / 6).rho
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
        assert np.max(np.abs(build_gghz(alpha).rho - bf_gghz(alpha))) < 1e-15


def test_gghz_alpha_out_of_range():
    for alpha in (-0.1, np.pi / 2 + 0.1):
        with pytest.raises(ValueError, match="alpha"):
            build_gghz(alpha)


def test_gghz_purity(rng):
    for _ in range(50):
        rho = build_gghz(rng.uniform(0.0, np.pi / 2)).rho
        assert abs(np.trace(rho @ rho).real - 1.0) < 1e-12


def test_gghz_zz_correlation_is_one(rng):
    zz1 = np.kron(np.kron(SZ, SZ), np.eye(2))
    for alpha in rng.uniform(0.0, np.pi / 2, size=20):
        assert abs(np.trace(build_gghz(alpha).rho @ zz1).real - 1.0) < 1e-12


def test_gghz_xxx_correlation_is_sin_two_alpha(rng):
    xxx = np.kron(np.kron(SX, SX), SX)
    for alpha in rng.uniform(0.0, np.pi / 2, size=20):
        value = np.trace(build_gghz(alpha).rho @ xxx).real
        assert abs(value - np.sin(2 * alpha)) < 1e-12


def test_state_rejects_bad_trace():
    with pytest.raises(ValueError, match="trace"):
        TripartiteState(np.eye(8) / 7)


def test_state_rejects_non_hermitian():
    rho = np.eye(8, dtype=complex) / 8
    rho[0, 1] = 0.3
    with pytest.raises(ValueError, match="Hermitian"):
        TripartiteState(rho)


def test_state_refuses_imaginary_parts():
    # Hermitian, but no state of the scenario has an imaginary part to carry
    for imag in (0.3, 2e-12):
        rho = np.eye(8, dtype=complex) / 8
        rho[0, 1], rho[1, 0] = 1j * imag, -1j * imag
        message = (f"density operator must be real, got imaginary parts up to {imag!r} "
                   "(tolerance 1e-12)")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TripartiteState(rho)


def test_state_takes_complex_input_without_imaginary_part_as_real(rng):
    for rho in (np.eye(8) / 8, random_density(rng), bf_gghz(0.3).real):
        state = TripartiteState(rho.astype(complex))
        assert state.rho.dtype == np.float64
        assert np.array_equal(state.rho, TripartiteState(rho).rho)
    assert np.array_equal(TripartiteState(bf_gghz(0.3)).rho, build_gghz(0.3).rho)


def test_state_refuses_non_finite_entries():
    # NaN and inf slip through the trace and symmetry comparisons, so they are refused first
    for value in (np.nan, np.inf, -np.inf):
        rho = np.eye(8) / 8
        rho[2, 5] = rho[5, 2] = value
        message = rf"^density operator entry \(2, 5\) must be finite, got {value!r}$"
        with pytest.raises(ValueError, match=message):
            TripartiteState(rho)
    with pytest.raises(ValueError, match=r"^density operator entry \(0, 0\) must be finite"):
        TripartiteState(np.full((8, 8), np.nan))


def test_state_refuses_non_numeric_entries():
    # strings would meet numpy's own ufunc error, None would pass as a NaN entry
    for entries, dtype in (([["a"] * 8] * 8, "<U1"), ([[None] * 8] * 8, "object"),
                           (np.eye(8, dtype=bool), "bool")):
        message = rf"^density operator must be numeric, got dtype {re.escape(dtype)}$"
        with pytest.raises(ValueError, match=message):
            TripartiteState(entries)


def test_state_rejects_wrong_shape():
    with pytest.raises(ValueError, match="8x8"):
        TripartiteState(np.eye(4) / 4)
