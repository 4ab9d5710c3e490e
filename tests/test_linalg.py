"""Qubit effect algebra: the effect and square-root arrays that charlie_setting builds.

Each matrix is checked against a hand-written value or the defining
identities of an effect and its principal root; test_measurements compares
the effects with the trigonometric oracle in conftest.
"""

import numpy as np
import pytest

from nsshare.measurements import charlie_setting

from conftest import SX, SZ


def effect(theta, gamma, z, c=0):
    return charlie_setting((theta,), gamma)[0][0, z, c]


def root(theta, gamma, z, c=0):
    return charlie_setting((theta,), gamma)[1][0, z, c]


def test_effect_matrix_projector():
    assert np.allclose(effect(0.0, 0.5, 0), np.diag([1.0, 0.0]))


def test_effect_matrix_unsharp_diagonal():
    assert np.allclose(effect(0.0, 0.6, 1), np.diag([0.8, 0.2]))


def test_effect_matrix_tilted_sharp():
    expected = (np.eye(2) + (SZ - SX) / np.sqrt(2)) / 2
    assert np.max(np.abs(effect(np.pi / 4, 0.5, 0) - expected)) < 1e-15


def test_effect_rejects_bad_sharpness():
    for gamma in (-0.1, 1.2):
        with pytest.raises(ValueError, match="gamma_k must lie in"):
            charlie_setting((0.3, 0.7), gamma)


def test_effect_sqrt_projector_idempotent(rng):
    # input 0 is sharp: its effects are projectors, so each is its own root
    effects, roots = charlie_setting(rng.uniform(0, np.pi / 2, size=50), rng.uniform(0, 1))
    sharp = roots[:, 0]
    assert np.max(np.abs(sharp - effects[:, 0])) < 1e-15
    assert np.max(np.abs(sharp @ sharp - sharp)) < 1e-15


def test_effect_sqrt_fully_unsharp():
    _, roots = charlie_setting(np.linspace(0.1, 1.5, 8), 0.0)
    assert np.allclose(roots[:, 1], np.eye(2) / np.sqrt(2))


def test_effect_sqrt_diagonal_case():
    assert np.allclose(root(0.0, 0.6, 1), np.diag([np.sqrt(0.8), np.sqrt(0.2)]))
    assert np.allclose(root(0.0, 0.6, 1, c=1), np.diag([np.sqrt(0.2), np.sqrt(0.8)]))


def test_effect_sqrt_squares_to_effect(rng):
    for gamma in rng.uniform(0.0, 1.0, size=20):
        effects, roots = charlie_setting(rng.uniform(0, np.pi / 2, size=25), gamma)
        assert np.max(np.abs(roots @ roots - effects)) < 1e-12
        # the roots are the principal ones: positive semidefinite
        assert np.linalg.eigvalsh(roots).min() >= -1e-15


def test_effect_completeness(rng):
    for gamma in rng.uniform(0.0, 1.0, size=20):
        effects, _ = charlie_setting(rng.uniform(0, np.pi / 2, size=10), gamma)
        # each input's two outcomes sum to I
        assert np.max(np.abs(effects.sum(axis=2) - np.eye(2))) < 1e-12


def test_effect_eigenvalues(rng):
    for _ in range(50):
        gamma = rng.uniform(0.0, 1.0)
        effects, _ = charlie_setting((rng.uniform(0, np.pi / 2),), gamma)
        vals = np.linalg.eigvalsh(effects[0])  # [z, c, ascending]
        assert vals.min() >= -1e-15 and vals.max() <= 1.0 + 1e-15
        assert np.allclose(vals[0], [[0.0, 1.0], [0.0, 1.0]])
        assert np.allclose(vals[1], [[(1 - gamma) / 2, (1 + gamma) / 2]] * 2)


def test_bloch_operator_is_hermitian_unit_trace_free(rng):
    # F_{c|z} - I/2 = +-gamma_z (n_z . sigma) / 2 is Hermitian and trace-free,
    # so every effect is Hermitian with unit trace; the roots are Hermitian too
    effects, roots = charlie_setting(rng.uniform(0, np.pi / 2, size=25), rng.uniform(0, 1))
    bloch = effects - np.eye(2) / 2
    assert np.max(np.abs(bloch - bloch.conj().swapaxes(-1, -2))) <= 1e-15
    assert np.max(np.abs(np.trace(bloch, axis1=-2, axis2=-1))) < 1e-15
    assert np.max(np.abs(roots - roots.conj().swapaxes(-1, -2))) <= 1e-15
