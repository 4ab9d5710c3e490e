"""Generalized GHZ states and validation of three-qubit density operators.

Qubit ordering is fixed as A (most significant) -> B -> C (least significant),
so basis index abc maps to 4a + 2b + c and single-qubit operations on C embed
as I_4 (x) op.  Every state of the scenario is real symmetric.
"""

from __future__ import annotations

import numpy as np

DIM = 8
TRACE_ATOL = 1e-12
HERMITIAN_ATOL = 1e-12


def check_densities(rhos) -> np.ndarray:
    """The stack rhos (N, 8, 8) of density operators as a C-contiguous real float array.

    The stack must be numeric and 3-D, and each operator 8x8, real (imaginary
    parts at most HERMITIAN_ATOL), finite, of unit trace and symmetric.  A
    single state is checked as rho[None].  Raises for the first rule that
    fails; an input that already is such an array is not copied.
    """
    rhos = np.asarray(rhos)
    if not np.issubdtype(rhos.dtype, np.number):
        raise ValueError(f"density operator must be numeric, got dtype {rhos.dtype}")
    if rhos.ndim != 3:
        raise ValueError(f"density stack must have shape (N, {DIM}, {DIM}), got {rhos.shape}")
    if rhos.shape[1:] != (DIM, DIM):
        raise ValueError(f"tripartite state must be {DIM}x{DIM}, got {rhos.shape[1:]}")
    # every effect and Kraus root is real symmetric, so tr[rho E] = tr[Re(rho) E] and the
    # Lüders map sends Re(rho) to Re(rho): an imaginary part could never show in a run
    if np.iscomplexobj(rhos):
        imag = float(np.max(np.abs(rhos.imag), initial=0.0))
        if imag > HERMITIAN_ATOL:
            raise ValueError(f"density operator must be real, got imaginary parts up to "
                             f"{imag!r} (tolerance {HERMITIAN_ATOL})")
    rhos = np.ascontiguousarray(rhos.real, dtype=float)
    if not np.isfinite(rhos).all():
        n, i, j = np.argwhere(~np.isfinite(rhos))[0]
        raise ValueError(f"density operator entry ({i}, {j}) must be finite, got {rhos[n, i, j]}")
    traces = np.trace(rhos, axis1=1, axis2=2)
    bad = np.abs(traces - 1.0) > TRACE_ATOL
    if bad.any():
        raise ValueError(f"density operator must have unit trace, got {traces[bad.argmax()]}")
    if np.max(np.abs(rhos - rhos.transpose(0, 2, 1)), initial=0.0) > HERMITIAN_ATOL:
        raise ValueError("density operator must be Hermitian (real symmetric)")
    return rhos


def gghz_densities(alphas) -> np.ndarray:
    """Pure states cos(alpha)|000> + sin(alpha)|111>, one per alpha, as a stack (N, 8, 8).

    Not checked here: the stack passes check_densities, which run_stack applies on entry.
    """
    alphas = np.asarray(alphas, dtype=float)
    if alphas.ndim != 1:
        raise ValueError(f"alphas must be a 1-D sequence, got shape {alphas.shape}")
    bad = ~((0.0 <= alphas) & (alphas <= np.pi / 2))
    if bad.any():
        raise ValueError(f"alpha must lie in [0, pi/2], got {float(alphas[bad][0])!r}")
    cos, sin = np.cos(alphas), np.sin(alphas)
    rhos = np.zeros((len(alphas), DIM, DIM))
    rhos[:, 0, 0], rhos[:, 7, 7] = cos * cos, sin * sin
    rhos[:, 0, 7] = rhos[:, 7, 0] = cos * sin
    return rhos


def build_gghz(alpha: float) -> np.ndarray:
    """Pure state cos(alpha)|000> + sin(alpha)|111> as an 8x8 density operator."""
    return gghz_densities([alpha])[0]
