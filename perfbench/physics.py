"""Independent numpy model of the tripartite scenario, used to make and check inputs.

Nothing here imports nsshare: the benchmark builds its behavior tables with the
Born rule, evaluates the five-correlator inequality and enumerates the hybrid
polytope's vertices on its own, so that a wrong answer from the program cannot
also hide in the check.

Tables are float arrays of shape (2,)*6 indexed [x, y, z, a, b, c]; vectors are
the same 64 numbers in C order.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

NS2_BOUND = 3.0
VIOLATION_GUARD = 1e-12   # same strictness as the program's is_violation
CERTIFICATE_TOL = 1e-9    # the program's documented LP residual tolerance

_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
_I = np.eye(2)


def _two_outcome(nx: float, nz: float, sharpness: float) -> np.ndarray:
    """Effects (I +- sharpness * n.sigma) / 2 for n = (nx, 0, nz), stacked over the outcome."""
    op = nx * _X + nz * _Z
    return np.stack([(_I + sharpness * op) / 2, (_I - sharpness * op) / 2])


def born_table(alpha: float, theta: float, gamma: float) -> np.ndarray:
    """P(abc|xyz) on cos(alpha)|000> + sin(alpha)|111> under the protocol's settings.

    Alice and Bob measure sigma_z (input 0) or sigma_x (input 1); Charlie measures
    sharply along (-sin t, 0, cos t) for input 0 and with sharpness gamma along
    (sin t, 0, cos t) for input 1.
    """
    psi = np.zeros((2, 2, 2))
    psi[0, 0, 0] = math.cos(alpha)
    psi[1, 1, 1] = math.sin(alpha)
    ab = np.stack([_two_outcome(0.0, 1.0, 1.0), _two_outcome(1.0, 0.0, 1.0)])
    c = np.stack([
        _two_outcome(-math.sin(theta), math.cos(theta), 1.0),
        _two_outcome(math.sin(theta), math.cos(theta), gamma),
    ])
    return np.einsum("pqr,xaps,ybqt,zcru,stu->xyzabc", psi, ab, ab, c, psi)


def white_noise() -> np.ndarray:
    return np.full((2,) * 6, 1.0 / 8.0)


def _parity_signs(parties: tuple[int, ...]) -> np.ndarray:
    signs = np.empty((2, 2, 2))
    for outcome in itertools.product((0, 1), repeat=3):
        signs[outcome] = (-1.0) ** sum(outcome[p] for p in parties)
    return signs


_AB, _AC, _BC, _ABC = (_parity_signs(p) for p in ((0, 1), (0, 2), (1, 2), (0, 1, 2)))


def ns2(table: np.ndarray) -> float:
    """<X0Y0> + <X0Z0> + <Y0Z1> - <X1Y1Z0> + <X1Y1Z1>, excluded inputs fixed to 0."""
    p = np.asarray(table, dtype=float).reshape((2,) * 6)
    return float(
        np.sum(p[0, 0, 0] * _AB) + np.sum(p[0, 0, 0] * _AC) + np.sum(p[0, 0, 1] * _BC)
        - np.sum(p[1, 1, 0] * _ABC) + np.sum(p[1, 1, 1] * _ABC)
    )


def is_violation(value: float) -> bool:
    return value > NS2_BOUND + VIOLATION_GUARD


def _functions():
    """The four maps {0,1} -> {0,1}, as tuples (f(0), f(1))."""
    return list(itertools.product((0, 1), repeat=2))


def _bipartite_extremes() -> list[np.ndarray]:
    """Extreme points of the two-party no-signaling polytope, indexed [x, y, a, b]."""
    boxes = []
    for fa, fb in itertools.product(_functions(), repeat=2):
        box = np.zeros((2, 2, 2, 2))
        for x, y in itertools.product((0, 1), repeat=2):
            box[x, y, fa[x], fb[y]] = 1.0
        boxes.append(box)
    for u, v, w in itertools.product((0, 1), repeat=3):
        box = np.zeros((2, 2, 2, 2))
        for x, y, a in itertools.product((0, 1), repeat=3):
            box[x, y, a, a ^ (x * y) ^ (u * x) ^ (v * y) ^ w] = 0.5
        boxes.append(box)
    return boxes


def hybrid_vertex_rows() -> np.ndarray:
    """All 288 vertices of the hybrid polytope as a (288, 64) matrix.

    For each split (pair | single) the vertex is an extreme two-party
    no-signaling box on the pair times a deterministic response of the single
    party.  The row order is this function's own; compare as sets.
    """
    rows = []
    layouts = {  # pair's (input, outcome) axes, single's (input, outcome) axes
        "AB|C": ((0, 1, 3, 4), (2, 5)),
        "AC|B": ((0, 2, 3, 5), (1, 4)),
        "BC|A": ((1, 2, 4, 5), (0, 3)),
    }
    for pair_axes, single_axes in layouts.values():
        for box in _bipartite_extremes():
            for f in _functions():
                table = np.zeros((2,) * 6)
                for idx in itertools.product((0, 1), repeat=6):
                    i, j, a, b = (idx[k] for k in pair_axes)
                    z, c = (idx[k] for k in single_axes)
                    if c == f[z]:
                        table[idx] = box[i, j, a, b]
                rows.append(table.reshape(64))
    return np.array(rows)


def same_row_set(left: np.ndarray, right: np.ndarray) -> bool:
    """True when two vertex matrices hold the same rows, in any order."""
    if left.shape != right.shape:
        return False
    return bool(np.array_equal(np.unique(left, axis=0), np.unique(right, axis=0)))


def local_certificate_error(weights, vertices: np.ndarray, target: np.ndarray,
                            tol: float = CERTIFICATE_TOL) -> str | None:
    """Why a "local" certificate fails, or None when it holds.

    The weights must be >= -tol, sum to 1 within tol, and rebuild the target
    table through the vertex matrix within tol in every entry.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (vertices.shape[0],) or not np.all(np.isfinite(w)):
        return f"weights have shape {w.shape} or non-finite entries"
    if w.min() < -tol:
        return f"weight {w.min():.3e} is negative beyond {tol}"
    if abs(w.sum() - 1.0) > tol:
        return f"weights sum to {float(w.sum())!r}"
    residual = float(np.max(np.abs(vertices.T @ w - np.asarray(target).reshape(64))))
    if residual > tol:
        return f"weights rebuild the table only to {residual:.3e}"
    return None
