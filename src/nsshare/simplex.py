"""Dense phase-1 simplex: is  A x = b,  x >= 0  feasible?  With a certificate either way.

Every row gets an artificial column, and phase 1 drives their total mass to
its minimum in a single canonical tableau.  Entering columns follow Dantzig's
rule until the objective stalls, then Bland's rule (which cannot cycle) takes
over; the ratio test breaks ties on the smallest basis index.  A minimum
within FEASIBILITY_TOL gives x >= 0 (the right-hand side is clamped at zero
after every pivot).  A larger one gives the phase-1 duals y, read from the artificial
columns of the final tableau, which hold the inverse basis: A^T y <= 0 < b.y,
a Farkas certificate that no such x exists.  A pivot updates in place only the
rows its entering column reaches, a third of the rows at a time (einsum forms
the products without broadcast buffers), so its temporaries stay below the
tableau's size.  Next to a full update, that changes at most the sign of a zero
in the columns of A, which no comparison and no result reads.

resolve solves for another b from a previous solve's final tableau.  That basis
is phase-1 optimal, so it stays dual feasible for any b once the right-hand
side is set to B^-1 (signs * b).  Dual-simplex pivots (the most negative row leaves; the dual
ratio test picks the entering column, ties going to the largest pivot) make it
>= 0, and the primal loop finishes.  It gives up (None) at a row that proves b
infeasible, and after DUAL_PIVOT_LIMIT dual pivots; it never raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

FEASIBILITY_TOL = 1e-9  # the most artificial mass a feasible result may leave
PIVOT_TOL = 1e-10
REDUCED_COST_TOL = 1e-10
STALL_LIMIT = 80
DUAL_PIVOT_LIMIT = 24


@dataclass
class LpResult:
    x: np.ndarray | None       # x >= 0 with A x = b up to the artificial mass; None if infeasible
    farkas: np.ndarray | None  # y with A^T y <= 0 < b.y; None if feasible
    infeasibility: float       # phase-1 optimum: the artificial mass left
    iterations: int
    # the final (tableau, basis, signs), which resolve continues from
    state: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def feasible(self) -> bool:
        return self.x is not None


def _pivot(tableau: np.ndarray, basis: np.ndarray, leave: int, enter: int) -> None:
    column = tableau[:, enter]
    row = tableau[leave]
    row /= row[enter]
    others = column.nonzero()[0]
    others = others[others != leave]
    block_rows = max(1, len(basis) // 3)
    for start in range(0, others.size, block_rows):
        block = others[start:start + block_rows]
        tableau[block] -= np.einsum("i,j->ij", column[block], row)
    tableau[:, enter] = 0.0
    tableau[leave, enter] = 1.0
    basis[leave] = enter


def _primal(tableau: np.ndarray, basis: np.ndarray, signs: np.ndarray,
            iterations: int = 0) -> LpResult:
    """Phase 1 from a tableau with right-hand side >= 0, to its result."""
    m, n = len(basis), tableau.shape[1] - len(basis) - 1
    cost = np.repeat([0.0, 1.0], [n, m])
    max_iterations = iterations + 200 + 40 * (n + 2 * m)

    stall, bland, best_objective = 0, False, np.inf
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

        _pivot(tableau, basis, leave, enter)
        np.maximum(tableau[:, -1], 0.0, out=tableau[:, -1])
        iterations += 1

        objective = float(cost[basis] @ tableau[:, -1])
        if objective < best_objective - 1e-12:
            best_objective, stall = objective, 0
        else:
            stall += 1
        bland = bland or stall >= STALL_LIMIT

    return _result(tableau, basis, signs, tableau[:, -1], iterations)


def _result(tableau: np.ndarray, basis: np.ndarray, signs: np.ndarray, rhs: np.ndarray,
            iterations: int) -> LpResult:
    """The result at a phase-1 optimal basis whose basic variables take the values rhs."""
    m, n = len(basis), tableau.shape[1] - len(basis) - 1
    basic_cost = (basis >= n).astype(float)  # cost[basis]
    infeasibility = float(basic_cost @ rhs)
    state = (tableau, basis, signs)
    if infeasibility > FEASIBILITY_TOL:
        farkas = signs * (basic_cost @ tableau[:, n:n + m])
        return LpResult(None, farkas, infeasibility, iterations, state)
    x = np.zeros(n + m)
    x[basis] = rhs
    return LpResult(x[:n], None, infeasibility, iterations, state)


def solve(a, b) -> LpResult:
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
    return _primal(tableau, np.arange(n, n + m), signs)


def resolve(start: LpResult, b) -> LpResult | None:
    """solve(a, b) for the a of start's solve, from its final tableau, or None."""
    tableau, basis, signs = start.state
    m, n = len(basis), tableau.shape[1] - len(basis) - 1
    rhs = tableau[:, n:n + m] @ (signs * np.asarray(b, dtype=float))
    for pivots in range(DUAL_PIVOT_LIMIT + 1):
        leave = int(rhs.argmin())
        if rhs[leave] >= -1e-12:  # rounding; clamping a real deficit would pass x the LP refutes
            break
        if pivots == DUAL_PIVOT_LIMIT:
            return None
        if pivots == 0:  # pivot a copy, so that start keeps its tableau
            tableau, basis = tableau.copy(), basis.copy()
            tableau[:, -1] = rhs
            rhs = tableau[:, -1]
        row = tableau[leave, :n]
        candidates = (row < -PIVOT_TOL).nonzero()[0]
        if candidates.size == 0:  # the row's x-terms are >= 0 but sum below 0: b is infeasible
            return None
        ratios = np.maximum(-((basis >= n) @ tableau[:, candidates]), 0.0) / -row[candidates]
        ties = candidates[ratios <= ratios.min() + 1e-12]
        _pivot(tableau, basis, leave, int(ties[row[ties].argmin()]))
    np.maximum(rhs, 0.0, out=rhs)
    if pivots == 0:  # start's basis, on which the primal loop ended
        return _result(tableau, basis, signs, rhs, 0)
    try:
        return _primal(tableau, basis, signs, pivots)
    except RuntimeError:
        return None
