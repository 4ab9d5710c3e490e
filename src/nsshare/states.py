"""Generalized GHZ states and validation of three-qubit density operators.

Qubit ordering is fixed as A (most significant) -> B -> C (least significant),
so basis index abc maps to 4a + 2b + c and single-qubit operations on C embed
as I_4 (x) op.  Every state of the scenario is real symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DIM = 8
TRACE_ATOL = 1e-12
HERMITIAN_ATOL = 1e-12


@dataclass(frozen=True)
class TripartiteState:
    """Real symmetric 8x8 density operator for the A (x) B (x) C qubit triple."""

    rho: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho)
        if not np.issubdtype(rho.dtype, np.number):
            raise ValueError(f"density operator must be numeric, got dtype {rho.dtype}")
        if rho.shape != (DIM, DIM):
            raise ValueError(f"tripartite state must be {DIM}x{DIM}, got {rho.shape}")
        # every effect and Kraus root is real symmetric, so tr[rho E] = tr[Re(rho) E] and the
        # Lüders map sends Re(rho) to Re(rho): an imaginary part could never show in a run
        imag = float(np.max(np.abs(np.imag(rho))))
        if imag > HERMITIAN_ATOL:
            raise ValueError(f"density operator must be real, got imaginary parts up to {imag!r} "
                             f"(tolerance {HERMITIAN_ATOL})")
        rho = np.array(np.real(rho), dtype=float)
        check_densities(rho[None])
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)


def check_densities(rhos: np.ndarray) -> None:
    """TripartiteState's finiteness, unit-trace and symmetry checks on a stack (N, 8, 8).

    Raises for the first operator that fails.
    """
    if not np.isfinite(rhos).all():
        n, i, j = np.argwhere(~np.isfinite(rhos))[0]
        raise ValueError(f"density operator entry ({i}, {j}) must be finite, got {rhos[n, i, j]}")
    traces = np.trace(rhos, axis1=1, axis2=2)
    bad = np.abs(traces - 1.0) > TRACE_ATOL
    if bad.any():
        raise ValueError(f"density operator must have unit trace, got {traces[bad.argmax()]}")
    if np.max(np.abs(rhos - rhos.transpose(0, 2, 1))) > HERMITIAN_ATOL:
        raise ValueError("density operator must be Hermitian (real symmetric)")


def build_gghz(alpha: float) -> TripartiteState:
    """Pure state cos(alpha)|000> + sin(alpha)|111> as a density operator."""
    if not 0.0 <= alpha <= np.pi / 2:
        raise ValueError(f"alpha must lie in [0, pi/2], got {alpha!r}")
    psi = np.zeros(DIM)
    psi[0] = np.cos(alpha)
    psi[7] = np.sin(alpha)
    return TripartiteState(np.outer(psi, psi))
