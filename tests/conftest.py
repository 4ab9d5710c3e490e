"""Shared fixtures and independent brute-force oracles.

The helpers here deliberately avoid the package's own code paths: effects are
built from trigonometry, tables via explicit Kronecker products and traces,
and the state update via an eigendecomposition square root.  Tests compare
package output against these reference routes.
"""

import json
from dataclasses import dataclass
from itertools import product, takewhile

import numpy as np
import pytest

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


# stacks of one, around the behavior kernel's chunk of 32 states, an audit
# row, a large stack
KERNEL_SIZES = (1, 2, 31, 32, 33, 157, 2048)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def bf_nsigma(direction):
    nx, ny, nz = direction
    return nx * SX + ny * SY + nz * SZ


def bf_effect(direction, gamma):
    return (I2 + gamma * bf_nsigma(direction)) / 2


def bf_ab_effect(x, a):
    sigma = SZ if x == 0 else SX
    return (I2 + sigma) / 2 if a == 0 else (I2 - sigma) / 2


def bf_charlie_effect(theta, gamma, z, c):
    if z == 0:
        base = bf_effect((-np.sin(theta), 0.0, np.cos(theta)), 1.0)
    else:
        base = bf_effect((np.sin(theta), 0.0, np.cos(theta)), gamma)
    return base if c == 0 else I2 - base


def bf_gghz(alpha):
    psi = np.zeros(8, dtype=complex)
    psi[0] = np.cos(alpha)
    psi[7] = np.sin(alpha)
    return np.outer(psi, psi.conj())


def bf_behavior(rho, theta, gamma):
    """P(abc|xyz) by 64 explicit kron-and-trace evaluations."""
    probs = np.zeros((2, 2, 2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            for z in range(2):
                for a in range(2):
                    for b in range(2):
                        for c in range(2):
                            op = np.kron(
                                np.kron(bf_ab_effect(x, a), bf_ab_effect(y, b)),
                                bf_charlie_effect(theta, gamma, z, c),
                            )
                            probs[x, y, z, a, b, c] = np.trace(rho @ op).real
    return probs


# The behavior kernel as it stood before it skipped the effects' zeros: numpy's
# unoptimized einsum, kept verbatim (bar the names) as the oracle for its bits.
BF_AB_EFFECTS = np.ascontiguousarray(
    np.array([[(I2 + sigma) / 2, (I2 - sigma) / 2] for sigma in (SZ, SX)]).real)
BF_BEHAVIOR_SUBSCRIPTS = "npqrstu,xasp,ybtq,nzcur->nxyzabc"


def bf_behavior_stack(rhos, effects):
    """P(abc|xyz) for a stack of states (N, 8, 8) and Charlie effects (N, 2, 2, 2, 2)."""
    rho6 = rhos.reshape((len(rhos),) + (2,) * 6)
    return np.einsum(BF_BEHAVIOR_SUBSCRIPTS, rho6, BF_AB_EFFECTS, BF_AB_EFFECTS, effects,
                     optimize=False)


def bf_sqrtm_psd(matrix):
    """Eigendecomposition square root; eigenvalues below 1e-13 count as zero."""
    vals, vecs = np.linalg.eigh(matrix)
    vals = np.where(vals < 1e-13, 0.0, vals)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def bf_luders(rho, theta, gamma):
    out = np.zeros(rho.shape, dtype=complex)
    for z in range(2):
        for c in range(2):
            root = bf_sqrtm_psd(bf_charlie_effect(theta, gamma, z, c))
            k8 = np.kron(np.eye(4, dtype=complex), root)
            out += 0.5 * (k8 @ rho @ k8.conj().T)
    return out


def bf_corr2(probs, pair, i, j):
    total = 0.0
    for a in range(2):
        for b in range(2):
            for c in range(2):
                if pair == "AB":
                    total += (-1.0) ** (a + b) * probs[i, j, 0, a, b, c]
                elif pair == "AC":
                    total += (-1.0) ** (a + c) * probs[i, 0, j, a, b, c]
                elif pair == "BC":
                    total += (-1.0) ** (b + c) * probs[0, i, j, a, b, c]
    return total


def bf_corr3(probs, x, y, z):
    total = 0.0
    for a in range(2):
        for b in range(2):
            for c in range(2):
                total += (-1.0) ** (a + b + c) * probs[x, y, z, a, b, c]
    return total


def bf_ns2(probs):
    return (
        bf_corr2(probs, "AB", 0, 0)
        + bf_corr2(probs, "AC", 0, 0)
        + bf_corr2(probs, "BC", 0, 1)
        - bf_corr3(probs, 1, 1, 0)
        + bf_corr3(probs, 1, 1, 1)
    )


# The inequality's evaluation as it stood before it gathered a (5, 8) entry
# table: a fancy-indexed gather of sign-weighted blocks, kept (bar the names) as
# the oracle for the bits of ns2_values.
BF_PARTY_AXES = {"A": (0, 3), "B": (1, 4), "C": (2, 5)}  # (input axis, outcome axis)


def bf_sign_tensor(parties):
    signs = np.ones((2, 2, 2))
    for a, b, c in product((0, 1), repeat=3):
        parity = sum((a, b, c)[BF_PARTY_AXES[p][1] - 3] for p in parties)
        signs[a, b, c] = -1.0 if parity % 2 else 1.0
    return signs


BF_SIGNS = {parties: bf_sign_tensor(parties) for parties in ("AB", "AC", "BC", "ABC")}


def bf_gather(terms):
    """Block index and sign tensors that pick out the given (parties, inputs) correlators."""
    index = np.zeros((3, len(terms)), dtype=int)  # excluded parties' inputs fixed to 0
    for j, (parties, inputs) in enumerate(terms):
        for party, input_bit in zip(parties, inputs):
            index[BF_PARTY_AXES[party][0], j] = int(input_bit)
    return (slice(None), *index), np.stack([BF_SIGNS[parties] for parties, _ in terms])


def bf_correlators(probs, gather):
    """Correlators of every table in a stack (N, 2, 2, 2, 2, 2, 2): shape (N, terms)."""
    index, signs = gather
    blocks = probs[index] * signs  # shape (N, terms, 2, 2, 2) over (a, b, c)
    return blocks.reshape(len(probs), len(signs), 8).sum(axis=2)


BF_NS2_TERMS = bf_gather((("AB", (0, 0)), ("AC", (0, 0)), ("BC", (0, 1)),
                          ("ABC", (1, 1, 0)), ("ABC", (1, 1, 1))))


def bf_ns2_values(probs):
    """The five-term combination for every table in a stack (N, 2, 2, 2, 2, 2, 2)."""
    ab, ac, bc, abc0, abc1 = bf_correlators(probs, BF_NS2_TERMS).T
    return ab + ac + bc - abc0 + abc1


def bf_closed_form(k, alpha, theta, gammas):
    base = np.cos(theta) + np.sin(theta) * np.sin(2 * alpha)
    if k == 1:
        return 1 + (1 + gammas[0]) * base
    prod = 1.0
    for g in gammas[:k - 1]:
        prod *= 1 + np.sqrt(1 - g * g)
    return 1 + base * (prod + gammas[k - 1]) / 2 ** (k - 1)


def bf_bloch_ns2(k, alpha, theta, gammas):
    """NS2 of round k on the GGHZ input, from Charlie's effects pulled back to round 1.

    In the x-z Bloch plane Charlie's directions are n0 = (-sin theta, cos theta)
    and n1 = (sin theta, cos theta), input 0 sharp.  Round j's Lüders channel
    acts on an effect's Bloch vector as
        M_j = diag(sin^2 theta, cos^2 theta) + (s_j / 2)(I - n1 n1^T),
    s_j = sqrt(1 - gamma_j^2), and with M = M_1 M_2 ... M_(k-1)
        NS2_k = 1 + e_z . M (n0 + gamma_k n1) + sin 2alpha e_x . M (gamma_k n1 - n0).
    """
    n0 = np.array([-np.sin(theta), np.cos(theta)])
    n1 = np.array([np.sin(theta), np.cos(theta)])
    m = np.eye(2)
    for g in gammas[:k - 1]:
        m = m @ (np.diag([np.sin(theta) ** 2, np.cos(theta) ** 2])
                 + np.sqrt(1 - g * g) / 2 * (np.eye(2) - np.outer(n1, n1)))
    gamma = gammas[k - 1]
    return 1 + m[1] @ (n0 + gamma * n1) + np.sin(2 * alpha) * m[0] @ (gamma * n1 - n0)


# The sharpness recursion as it stood before it ran on Python floats: its loop
# on numpy scalars, kept verbatim (bar the names) as the oracle for its bits.
def bf_gamma_recursion(delta, epsilon, n, variant="printed"):
    """gamma_1..gamma_n of gamma_sequence, up to and including the first outside [0, 1]."""
    t = np.sin(delta / 2) ** 2
    sin_d = np.sin(delta)
    gammas = []
    q = 0.0
    for k in range(1, n + 1):
        bracket = q + 2.0 * t * (1.0 - q)
        scale = 2.0 ** (k - 1) if variant == "printed" else 1.0
        g = (1.0 + epsilon) * scale * bracket / sin_d
        gammas.append(float(g))
        if not 0.0 <= g <= 1.0:
            break
        s = np.sqrt((1.0 - g) * (1.0 + g))
        u = g * g / (2.0 * (1.0 + s))
        q = q + u - q * u
    return gammas


# The no-signaling check as it stood before it gathered fixed table entries:
# numpy reductions over each family's axes, kept (bar the names) as the oracle.
BF_MARGINAL_FAMILIES = (
    # (outcome axes summed out, input axes that must not matter, label)
    ((5,), (2,), "P(ab|xy) vs z"),
    ((4,), (1,), "P(ac|xz) vs y"),
    ((3,), (0,), "P(bc|yz) vs x"),
    ((4, 5), (1, 2), "P(a|x) vs y,z"),
    ((3, 5), (0, 2), "P(b|y) vs x,z"),
    ((3, 4), (0, 1), "P(c|z) vs x,y"),
)


def bf_family_residuals(probs):
    """Per family, a marginal's largest max - min over the inputs that must not matter: (6, N)."""
    residuals = np.empty((len(BF_MARGINAL_FAMILIES), len(probs)))
    for residual, (outcome_axes, input_axes, _) in zip(residuals, BF_MARGINAL_FAMILIES):
        marginal = probs.sum(axis=tuple(a + 1 for a in outcome_axes))
        axes = tuple(a + 1 for a in input_axes)
        spread = marginal.max(axis=axes) - marginal.min(axis=axes)
        residual[:] = spread.reshape(len(probs), -1).max(axis=1)
    return residuals


def bf_no_signaling_residuals(probs):
    """(residual, label of the worst family, the first on ties) per table of a stack."""
    residuals = bf_family_residuals(probs)
    worst = residuals.argmax(axis=0)
    return residuals[worst, np.arange(len(probs))], [BF_MARGINAL_FAMILIES[i][2] for i in worst]


def bf_sweep_values(spec):
    """A sweep axis as the list it once was: start + i * step while within the slack past stop."""
    start, stop, step = spec
    end = stop + min(1e-12, step / 2)
    values = (start + i * step for i in range(10**6 + 1))
    return list(takewhile(lambda v: v <= end, values))


def bf_csv_line(k, gamma, ns2_oracle, ns2_closed_form, discrepancy, violated, lp_feasible):
    """A report row's CSV line as the program once joined it, field by field."""
    def fmt(value):
        return f"{value:.9g}"

    def flag(value):
        if value is None:
            return ""
        return "true" if value else "false"

    return ",".join([str(k), fmt(gamma), fmt(ns2_oracle), fmt(ns2_closed_form),
                     fmt(discrepancy), flag(violated), flag(lp_feasible)])


# a certified (theta, alpha) grid, both recursions: its reports are pinned in
# test_cli.py and its LP calls in test_certifier.py
THETA_ALPHA_GRID = dict(n=2, certify=True, recursion="both", delta=0.78,
                        sweep_theta=(0.05, 1.5, 0.29), sweep_alpha=(0.1, 1.5, 0.35))


def record_lp_calls(monkeypatch) -> list:
    """Records (simplex function name, right-hand side bytes, iterations or "gave up")
    for every LP call."""
    from nsshare import simplex

    calls = []
    for name in ("solve", "resolve"):
        def recording(*args, name=name, original=getattr(simplex, name)):
            result = original(*args)
            calls.append((name, np.asarray(args[-1], dtype=float).tobytes(),
                          "gave up" if result is None else result.iterations))
            return result

        monkeypatch.setattr(simplex, name, recording)
    return calls


def signaling_probs():
    """Normalized but signaling: Alice's outcome copies Bob's input y."""
    probs = np.zeros((2,) * 6)
    for x, y, z in product((0, 1), repeat=3):
        probs[x, y, z, y, 0, 0] = 1.0
    return probs


def svetlichny_probs():
    """The Svetlichny box, a xor b xor c = xy xor yz xor xz: outside the hybrid
    polytope, yet every image of the inequality gives it at most 2."""
    probs = np.zeros((2,) * 6)
    for x, y, z, a, b, c in product((0, 1), repeat=6):
        if a ^ b ^ c == (x & y) ^ (y & z) ^ (x & z):
            probs[x, y, z, a, b, c] = 0.25
    return probs


def table_object(probs, round_index=1):
    """A behavior table's JSON object: {"round": k, "probs": {"xyz;abc": p}}."""
    keys = ["".join(map(str, bits[:3])) + ";" + "".join(map(str, bits[3:]))
            for bits in product((0, 1), repeat=6)]
    return {"round": round_index,
            "probs": {key: float(p) for key, p in zip(keys, np.ravel(probs))}}


def write_table(path, probs, round_index=1):
    """A behavior-table JSON file: table_object(probs, round_index), sorted keys."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(table_object(probs, round_index), indent=2, sort_keys=True) + "\n")


def random_density(rng, dim=8):
    """Real symmetric positive definite, unit trace: the scenario's states are real."""
    g = rng.normal(size=(dim, dim))
    rho = g @ g.T
    return rho / np.trace(rho)


def bf_relabel(probs, order, local):
    """Relabel a (2,)*6 table: per party p, flip its outcomes at input 0 if bit 1
    of local[p] is set and at input 1 if bit 0 is, swap its inputs if bit 2
    is; then new party i is old party order[i]."""
    probs = np.array(probs, dtype=float)
    for party, code in enumerate(local):
        for input_bit, mask in ((0, 2), (1, 1)):
            if code & mask:
                block = [slice(None)] * 6
                block[party] = input_bit
                probs[tuple(block)] = np.flip(probs[tuple(block)], axis=party + 2)
        if code & 4:
            probs = np.flip(probs, axis=party)
    return np.transpose(probs, tuple(order) + tuple(p + 3 for p in order)).copy()


# The dense phase-1 simplex as it stood before its pivots became row-sparse,
# kept verbatim (bar the result type's name) as the oracle that the sparse
# pivots leave every bit of a result unchanged.
PIVOT_TOL = 1e-10
REDUCED_COST_TOL = 1e-10
STALL_LIMIT = 80


@dataclass
class BfLpResult:
    x: np.ndarray | None
    farkas: np.ndarray | None
    infeasibility: float
    iterations: int


def bf_simplex_solve(a, b, tol: float = 1e-9) -> BfLpResult:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.shape != (a.shape[0],):
        raise ValueError(f"A has shape {a.shape} but b has shape {b.shape}")
    m, n = a.shape

    # sign-flip rows to make b >= 0; artificial i starts basic in row i
    signs = np.where(b < 0, -1.0, 1.0)
    tableau = np.hstack([a * signs[:, None], np.eye(m), np.abs(b)[:, None]])
    basis = np.arange(n, n + m)
    cost = np.zeros(n + m)
    cost[n:] = 1.0
    allowed = np.arange(n + m) < n  # artificials only leave, never re-enter
    max_iterations = 200 + 40 * (n + 2 * m)

    iterations = 0
    bland = False
    best_objective = np.inf
    stall = 0
    while True:
        reduced = cost - cost[basis] @ tableau[:, :-1]
        candidates = np.where(allowed & (reduced < -REDUCED_COST_TOL))[0]
        if candidates.size == 0:
            break
        if iterations >= max_iterations:
            raise RuntimeError(f"simplex did not terminate within {max_iterations} iterations")
        if bland:
            enter = int(candidates[0])
        else:
            enter = int(candidates[np.argmin(reduced[candidates])])

        column = tableau[:, enter]
        rows = np.where(column > PIVOT_TOL)[0]
        if rows.size == 0:  # a bounded objective leaves this only to rounding
            raise RuntimeError("simplex phase 1 found no pivot row")
        ratios = tableau[rows, -1] / column[rows]
        best = np.min(ratios)
        ties = rows[ratios <= best + 1e-12]
        leave = int(ties[np.argmin(basis[ties])])

        pivot = tableau[leave, enter]
        tableau[leave] /= pivot
        scale = tableau[:, enter].copy()
        scale[leave] = 0.0
        tableau -= np.outer(scale, tableau[leave])
        tableau[:, enter] = 0.0
        tableau[leave, enter] = 1.0
        np.maximum(tableau[:, -1], 0.0, out=tableau[:, -1])
        basis[leave] = enter
        iterations += 1

        objective = float(cost[basis] @ tableau[:, -1])
        if objective < best_objective - 1e-12:
            best_objective = objective
            stall = 0
        else:
            stall += 1
            if stall >= STALL_LIMIT:
                bland = True

    infeasibility = float(cost[basis] @ tableau[:, -1])
    if infeasibility > tol:
        farkas = signs * (cost[basis] @ tableau[:, n:n + m])
        return BfLpResult(None, farkas, infeasibility, iterations)
    x = np.zeros(n + m)
    x[basis] = tableau[:, -1]
    return BfLpResult(x[:n], None, infeasibility, iterations)
