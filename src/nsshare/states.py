"""Generalized GHZ states and validation of three-qubit density operators.

Qubit ordering is fixed as A (most significant) -> B -> C (least significant),
so basis index abc maps to 4a + 2b + c and single-qubit operations on C embed
as I_4 (x) op.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DIM = 8
TRACE_ATOL = 1e-12
HERMITIAN_ATOL = 1e-12
MIN_EIGENVALUE_FLOOR = -1e-10


@dataclass(frozen=True)
class TripartiteState:
    """8x8 density operator for the A (x) B (x) C qubit triple."""

    rho: np.ndarray
    label: str = ""

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex).copy()
        if rho.shape != (DIM, DIM):
            raise ValueError(f"tripartite state must be {DIM}x{DIM}, got {rho.shape}")
        check_densities(rho[None])
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)

    def purity(self) -> float:
        return float(np.trace(self.rho @ self.rho).real)


def check_densities(rhos: np.ndarray) -> None:
    """TripartiteState's unit-trace and Hermiticity checks on a stack of shape (N, 8, 8).

    Raises for the first operator that fails.
    """
    traces = np.trace(rhos, axis1=1, axis2=2)
    bad = np.abs(traces - 1.0) > TRACE_ATOL
    if bad.any():
        raise ValueError(f"density operator must have unit trace, got {traces[bad.argmax()]!r}")
    if np.max(np.abs(rhos - rhos.conj().transpose(0, 2, 1))) > HERMITIAN_ATOL:
        raise ValueError("density operator must be Hermitian")


@dataclass(frozen=True)
class DensityReport:
    """Outcome of the physicality checks on a candidate density operator."""

    trace_deviation: float
    hermiticity_deviation: float
    min_eigenvalue: float
    passed: bool


def build_gghz(alpha: float, label: str = "gghz") -> TripartiteState:
    """Pure state cos(alpha)|000> + sin(alpha)|111> as a density operator."""
    if not 0.0 <= alpha <= np.pi / 2:
        raise ValueError(f"alpha must lie in [0, pi/2], got {alpha!r}")
    psi = np.zeros(DIM, dtype=complex)
    psi[0] = np.cos(alpha)
    psi[7] = np.sin(alpha)
    return TripartiteState(np.outer(psi, psi.conj()), label=label)


def maximally_mixed(label: str = "mixed") -> TripartiteState:
    return TripartiteState(np.eye(DIM, dtype=complex) / DIM, label=label)


def jacobi_eigenvalues(matrix: np.ndarray, tol: float = 1e-13, max_sweeps: int = 60) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix by cyclic complex Jacobi rotations.

    Each rotation G differs from the identity only in the (p, q) plane:
    G[pp] = G[qq] = c, G[pq] = s*phase, G[qp] = -s*conj(phase), chosen to zero
    A[p, q].  Returns eigenvalues sorted ascending.
    """
    a = np.array(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if np.max(np.abs(a - a.conj().T)) > 1e-9:
        raise ValueError("Jacobi diagonalization requires a Hermitian matrix")
    n = a.shape[0]
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.abs(a - np.diag(np.diag(a))) ** 2))
        if off <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                r = abs(a[p, q])
                if r <= tol / (n * n):
                    continue
                phase = a[p, q] / r
                tau = (a[q, q].real - a[p, p].real) / (2 * r)
                t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau)) if tau != 0 else 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                # A <- G^H A G via targeted column and row updates
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * np.conj(phase) * col_q
                a[:, q] = s * phase * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * phase * row_q
                a[q, :] = s * np.conj(phase) * row_p + c * row_q
    return np.sort(a.diagonal().real)


def validate_density(state_or_matrix) -> DensityReport:
    """Report trace, Hermiticity and minimum-eigenvalue deviations.

    Accepts a TripartiteState or a raw square matrix, so that deliberately
    broken inputs can be probed without constructing a state.
    """
    rho = state_or_matrix.rho if isinstance(state_or_matrix, TripartiteState) else state_or_matrix
    rho = np.asarray(rho, dtype=complex)
    trace_dev = abs(complex(np.trace(rho)) - 1.0)
    herm_dev = float(np.max(np.abs(rho - rho.conj().T)))
    hermitized = (rho + rho.conj().T) / 2
    min_eig = float(jacobi_eigenvalues(hermitized)[0])
    passed = (
        trace_dev <= TRACE_ATOL
        and herm_dev <= HERMITIAN_ATOL
        and min_eig >= MIN_EIGENVALUE_FLOOR
    )
    return DensityReport(trace_dev, herm_dev, min_eig, passed)


def expectation(state: TripartiteState, operator: np.ndarray) -> float:
    """<O> = tr(rho O) for a Hermitian observable O; returns the real part."""
    value = complex(np.trace(state.rho @ np.asarray(operator, dtype=complex)))
    return value.real
