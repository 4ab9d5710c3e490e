"""Dense phase-1 simplex: is  A x = b,  x >= 0  feasible?  With a certificate either way.

Every row gets an artificial column, and phase 1 drives their total mass to
its minimum in a single canonical tableau.  Entering columns follow Dantzig's
rule until the objective stalls, then Bland's rule (which cannot cycle) takes
over; the ratio test breaks ties on the smallest basis index.  A minimum
within tol gives x >= 0 (the right-hand side is clamped at zero after every
pivot).  A larger one gives the phase-1 duals y, read from the artificial
columns of the final tableau, which hold the inverse basis: A^T y <= 0 < b.y,
a Farkas certificate that no such x exists.  A pivot updates in place only the
rows its entering column reaches, a third of the rows at a time (einsum forms
the products without broadcast buffers), so its temporaries stay below the
tableau's size.  Next to a full update, that changes at most the sign of a zero
in the columns of A, which no comparison and no result reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-10
REDUCED_COST_TOL = 1e-10
STALL_LIMIT = 80


@dataclass
class LpResult:
    x: np.ndarray | None       # x >= 0 with A x = b up to the artificial mass; None if infeasible
    farkas: np.ndarray | None  # y with A^T y <= 0 < b.y; None if feasible
    infeasibility: float       # phase-1 optimum: the artificial mass left
    iterations: int

    @property
    def feasible(self) -> bool:
        return self.x is not None


def solve(a, b, tol: float = 1e-9) -> LpResult:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.shape != (a.shape[0],):
        raise ValueError(f"A has shape {a.shape} but b has shape {b.shape}")
    m, n = a.shape

    # sign-flip rows to make b >= 0; artificial i starts basic in row i
    signs = np.where(b < 0, -1.0, 1.0)
    tableau = np.zeros((m, n + m + 1))
    np.einsum("ij,i->ij", a, signs, out=tableau[:, :n])
    np.fill_diagonal(tableau[:, n:], 1.0)
    np.abs(b, out=tableau[:, -1])
    basis = np.arange(n, n + m)
    cost = np.repeat([0.0, 1.0], [n, m])
    max_iterations = 200 + 40 * (n + 2 * m)
    block_rows = max(1, m // 3)

    iterations, stall, bland, best_objective = 0, 0, False, np.inf
    while True:
        reduced = cost - cost[basis] @ tableau[:, :-1]
        candidates = (reduced[:n] < -REDUCED_COST_TOL).nonzero()[0]  # artificials never re-enter
        if candidates.size == 0:
            break
        if iterations >= max_iterations:
            raise RuntimeError(f"simplex did not terminate within {max_iterations} iterations")
        if bland:
            enter = int(candidates[0])
        else:
            enter = int(candidates[reduced[candidates].argmin()])

        column = tableau[:, enter]
        rows = (column > PIVOT_TOL).nonzero()[0]
        if rows.size == 0:  # a bounded objective leaves this only to rounding
            raise RuntimeError("simplex phase 1 found no pivot row")
        ratios = tableau[rows, -1] / column[rows]
        ties = rows[ratios <= ratios.min() + 1e-12]
        leave = int(ties[basis[ties].argmin()])

        row = tableau[leave]
        row /= row[enter]
        others = column.nonzero()[0]
        others = others[others != leave]
        for start in range(0, others.size, block_rows):
            block = others[start:start + block_rows]
            tableau[block] -= np.einsum("i,j->ij", column[block], row)
        tableau[:, enter] = 0.0
        tableau[leave, enter] = 1.0
        np.maximum(tableau[:, -1], 0.0, out=tableau[:, -1])
        basis[leave] = enter
        iterations += 1

        objective = float(cost[basis] @ tableau[:, -1])
        if objective < best_objective - 1e-12:
            best_objective, stall = objective, 0
        else:
            stall += 1
        bland = bland or stall >= STALL_LIMIT

    infeasibility = float(cost[basis] @ tableau[:, -1])
    if infeasibility > tol:
        farkas = signs * (cost[basis] @ tableau[:, n:n + m])
        return LpResult(None, farkas, infeasibility, iterations)
    x = np.zeros(n + m)
    x[basis] = tableau[:, -1]
    return LpResult(x[:n], None, infeasibility, iterations)
