import numpy as np
import pytest

from nsshare.linalg import (
    BlochEffect,
    IDENTITY_2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    bloch_operator,
    effect_matrix,
    effect_sqrt,
    kron,
)

from conftest import SX, SZ


def test_kron_identity():
    assert np.allclose(kron(IDENTITY_2, IDENTITY_2), np.eye(4))


def test_kron_sigma3_sigma3():
    assert np.allclose(kron(PAULI_Z, PAULI_Z), np.diag([1, -1, -1, 1]))


def test_kron_block_structure(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    out = kron(a, b)
    assert out.shape == (8, 8)
    for i in range(2):
        for j in range(2):
            assert np.allclose(out[4 * i:4 * i + 4, 4 * j:4 * j + 4], a[i, j] * b)


def test_kron_associativity(rng):
    for _ in range(100):
        mats = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3)]
        left = kron(kron(mats[0], mats[1]), mats[2])
        right = kron(mats[0], kron(mats[1], mats[2]))
        assert np.max(np.abs(left - right)) < 1e-12


def test_trace_identity():
    assert np.trace(kron(IDENTITY_2, IDENTITY_2, IDENTITY_2)) == 8


def test_adjoint_hermitian_pauli():
    assert np.allclose(PAULI_Y.conj().T, PAULI_Y)


def test_pauli_orthogonality():
    assert abs(np.trace(PAULI_X @ PAULI_Z)) < 1e-15


def test_trace_cyclicity(rng):
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    b = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    assert abs(np.trace(a @ b) - np.trace(b @ a)) < 1e-12


def test_effect_matrix_projector():
    m = effect_matrix(BlochEffect((0.0, 0.0, 1.0), 1.0))
    assert np.allclose(m, np.diag([1.0, 0.0]))


def test_effect_matrix_unsharp_diagonal():
    m = effect_matrix(BlochEffect((0.0, 0.0, 1.0), 0.6))
    assert np.allclose(m, np.diag([0.8, 0.2]))


def test_effect_matrix_tilted_sharp():
    theta = np.pi / 4
    m = effect_matrix(BlochEffect((-np.sin(theta), 0.0, np.cos(theta)), 1.0))
    expected = (np.eye(2) + (SZ - SX) / np.sqrt(2)) / 2
    assert np.max(np.abs(m - expected)) < 1e-15


def test_effect_rejects_non_unit_direction():
    with pytest.raises(ValueError, match="unit length"):
        BlochEffect((0.0, 0.0, 0.9), 1.0)


def test_effect_rejects_bad_sharpness():
    with pytest.raises(ValueError, match="sharpness"):
        BlochEffect((0.0, 0.0, 1.0), 1.2)


def test_effect_sqrt_projector_idempotent():
    e = BlochEffect((0.0, 1.0, 0.0), 1.0)
    assert np.allclose(effect_sqrt(e), effect_matrix(e))


def test_effect_sqrt_fully_unsharp():
    e = BlochEffect((0.0, 0.0, 1.0), 0.0)
    assert np.allclose(effect_sqrt(e), np.eye(2) / np.sqrt(2))


def test_effect_sqrt_diagonal_case():
    e = BlochEffect((0.0, 0.0, 1.0), 0.6)
    assert np.allclose(effect_sqrt(e), np.diag([np.sqrt(0.8), np.sqrt(0.2)]))


def test_effect_sqrt_squares_to_effect(rng):
    for _ in range(500):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        gamma = rng.uniform(0.0, 1.0)
        e = BlochEffect(tuple(direction), gamma)
        root = effect_sqrt(e)
        assert np.max(np.abs(root @ root - effect_matrix(e))) < 1e-12


def test_effect_completeness(rng):
    for _ in range(200):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        e = BlochEffect(tuple(direction), rng.uniform(0.0, 1.0))
        total = effect_matrix(e) + effect_matrix(e.complement())
        assert np.max(np.abs(total - np.eye(2))) < 1e-12


def test_effect_eigenvalues(rng):
    for _ in range(50):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        gamma = rng.uniform(0.0, 1.0)
        vals = np.linalg.eigvalsh(effect_matrix(BlochEffect(tuple(direction), gamma)))
        assert np.allclose(np.sort(vals), [(1 - gamma) / 2, (1 + gamma) / 2])


def test_bloch_operator_is_hermitian_unit_trace_free(rng):
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    op = bloch_operator(direction)
    assert np.max(np.abs(op - op.conj().T)) <= 1e-12
    assert abs(np.trace(op)) < 1e-15
