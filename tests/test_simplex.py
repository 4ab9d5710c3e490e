import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linprog

import conftest
from conftest import bf_simplex_solve, svetlichny_probs
from nsshare import simplex
from nsshare.certifier import hybrid_vertices
from nsshare.simplex import resolve, solve


def assert_farkas(a, b, result):
    """The infeasibility certificate holds: A^T y <= 0 < b.y."""
    assert not result.feasible and result.x is None
    y = result.farkas
    assert np.max(np.asarray(a).T @ y) <= 1e-9
    assert np.asarray(b) @ y > 0


def test_equality_system():
    # x + y = 1, x - y = 0 -> x = y = 1/2
    result = solve(np.array([[1.0, 1.0], [1.0, -1.0]]), np.array([1.0, 0.0]))
    assert result.feasible and result.farkas is None
    assert np.allclose(result.x, [0.5, 0.5], atol=1e-10)


def test_infeasible_detected():
    # x >= 0 with x = -1
    a, b = np.array([[1.0]]), np.array([-1.0])
    result = solve(a, b)
    assert result.infeasibility == pytest.approx(1.0, abs=1e-9)
    assert_farkas(a, b, result)


def test_infeasible_pair():
    # x + y = 1 and x + y = 2 cannot both hold
    a, b = np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 2.0])
    result = solve(a, b)
    assert result.infeasibility > 0.5
    assert_farkas(a, b, result)


def beale_system(offset: float = 0.0):
    """Beale's cycling example as equalities with slacks, its objective pinned
    at the optimum plus offset: phase 1 walks the degenerate corner at offset
    0, and below the optimum the system is infeasible."""
    c = np.array([-0.75, 150.0, -0.02, 6.0])
    a_ub = np.array([
        [0.25, -60.0, -0.04, 9.0],
        [0.5, -90.0, -0.02, 3.0],
        [0.0, 0.0, 1.0, 0.0],
    ])
    b_ub = np.array([0.0, 0.0, 1.0])
    optimum = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs").fun
    a = np.vstack([np.hstack([a_ub, np.eye(3)]), np.append(c, np.zeros(3))])
    return a, np.append(b_ub, optimum + offset)


def test_degenerate_vertex():
    a, b = beale_system()
    result = solve(a, b)
    assert result.feasible
    assert np.max(np.abs(a @ result.x - b)) < 1e-9
    a, below = beale_system(-1e-3)
    assert_farkas(a, below, solve(a, below))


def test_redundant_equality_rows():
    # duplicated rows must not break phase 1
    a, b = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]]), np.array([1.0, 1.0, 2.0])
    result = solve(a, b)
    assert result.feasible
    assert result.x.min() >= 0.0
    assert np.allclose(a @ result.x, b, atol=1e-9)


def test_random_instances_match_scipy(rng):
    verdicts = {True: 0, False: 0}
    for trial in range(60):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, 5))
        a = rng.normal(size=(m, n))
        b = rng.normal(size=m)
        ours = solve(a, b)
        reference = linprog(np.zeros(n), A_eq=a, b_eq=b, bounds=(0, None), method="highs")
        assert reference.status in (0, 2), trial
        assert ours.feasible == (reference.status == 0), trial
        if ours.feasible:
            assert ours.x.min() >= 0.0 and np.max(np.abs(a @ ours.x - b)) < 1e-8, trial
        else:
            assert_farkas(a, b, ours)
        verdicts[ours.feasible] += 1
    assert min(verdicts.values()) > 10  # the sample must hold plenty of both verdicts


def test_convex_hull_membership():
    # the point (0.3, 0.2) lies in the simplex spanned by unit vectors and 0
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    a = np.vstack([vertices.T, np.ones(3)])
    result = solve(a, np.array([0.3, 0.2, 1.0]))
    assert result.feasible
    recon = vertices.T @ result.x
    assert np.allclose(recon, [0.3, 0.2], atol=1e-10)
    # outside point: the dual separates it from every vertex
    outside = np.array([0.8, 0.8, 1.0])
    result = solve(a, outside)
    assert_farkas(a, outside, result)
    s = result.farkas[:2]
    assert np.max(vertices @ s) < s @ outside[:2]


def test_solution_is_feasible(rng):
    for _ in range(20):
        n = 6
        a = rng.normal(size=(3, n))
        b = a @ rng.random(n)
        result = solve(a, b)
        assert result.feasible
        assert np.max(np.abs(a @ result.x - b)) < 1e-8
        assert result.x.min() >= 0.0


def test_requires_constraints():
    with pytest.raises(ValueError):
        solve(np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        solve(np.ones((2, 3)), np.ones(3))


def assert_same_bits(result, oracle):
    """Every field of the two results holds the same bits, signs of zero included."""
    for name in ("x", "farkas"):
        ours, theirs = getattr(result, name), getattr(oracle, name)
        assert (ours is None) == (theirs is None), name
        if ours is not None:
            assert ours.tobytes() == theirs.tobytes(), name
    assert np.float64(result.infeasibility).tobytes() == np.float64(oracle.infeasibility).tobytes()
    assert result.iterations == oracle.iterations


def membership_lps(rng, count: int):
    """Membership LPs [vertices^T; 1] w = (p, 1) over the 288 hybrid vertices.

    Even draws are vertex mixtures (feasible); odd draws mix the Svetlichny box
    at weight above 2/3 with a vertex mixture, which puts them outside the
    polytope, with a Farkas dual.
    """
    vectors = hybrid_vertices().vectors
    a = np.vstack([vectors.T, np.ones((1, len(vectors)))])
    for i in range(count):
        weights = np.zeros(len(vectors))
        support = rng.choice(len(vectors), size=int(rng.integers(1, 40)), replace=False)
        weights[support] = rng.dirichlet(np.ones(len(support)))
        table = vectors.T @ weights
        if i % 2:
            share = rng.uniform(0.7, 1.0)
            table = share * svetlichny_probs().reshape(64) + (1 - share) * table
        yield a, np.append(table, 1.0)


def random_lps(rng, count: int):
    """Small dense systems with zero entries and mixed-sign right-hand sides,
    so that sign-flipped rows carry zeros of both signs; about half are infeasible."""
    for i in range(count):
        m, n = int(rng.integers(1, 10)), int(rng.integers(2, 25))
        a = rng.normal(size=(m, n))
        a[rng.random((m, n)) < 0.4] = 0.0
        yield a, (a @ rng.random(n) if i % 2 else rng.normal(size=m))


def test_sparse_pivots_match_the_dense_oracle_bit_for_bit(rng):
    verdicts = {True: 0, False: 0}
    cases = [*membership_lps(rng, 24), *random_lps(rng, 120),
             beale_system(), beale_system(-1e-3)]
    for a, b in cases:
        result = solve(a, b)
        assert_same_bits(result, bf_simplex_solve(a, b))
        verdicts[result.feasible] += 1
    assert min(verdicts.values()) > 20  # plenty of Farkas duals and of solutions


def test_bland_fallback_matches_the_dense_oracle(rng, monkeypatch):
    # Beale ends in 8 pivots and never stalls for 80, so the fallback runs
    # only with the stall limit at 1 (in both solvers)
    cases = [beale_system(), beale_system(-1e-3), *membership_lps(rng, 6)]
    default = [solve(a, b).iterations for a, b in cases]
    monkeypatch.setattr(simplex, "STALL_LIMIT", 1)
    monkeypatch.setattr(conftest, "STALL_LIMIT", 1)
    bland = []
    for a, b in cases:
        result = solve(a, b)
        assert_same_bits(result, bf_simplex_solve(a, b))
        bland.append(result.iterations)
    assert bland != default  # Bland's rule took over somewhere


def test_solve_allocates_no_tableau_sized_temporary(rng):
    # the tableau is the one tableau-sized array of a solve: a pivot touches
    # only the rows its column reaches, so the peak stays below two tableaus
    for a, b in membership_lps(rng, 2):  # one feasible, one with a Farkas dual
        m, n = a.shape
        tableau_bytes = m * (n + m + 1) * 8
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = solve(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.iterations > 10
        assert peak - baseline < 2 * tableau_bytes


def assert_solution(a, b, result):
    assert result.feasible and result.farkas is None
    assert result.x.min() >= 0.0
    assert np.max(np.abs(a @ result.x - b)) < 1e-9


def test_resolve_from_another_feasible_lp_agrees_with_solve(rng, monkeypatch):
    # with the cap out of reach a re-solve gives a solution exactly when solve
    # finds one; otherwise None (a row proves b infeasible) or a Farkas dual
    monkeypatch.setattr(simplex, "DUAL_PIVOT_LIMIT", 10_000)
    cases = list(membership_lps(rng, 12))
    cold = [solve(a, b) for a, b in cases]
    starts = [result for result in cold if result.feasible]
    for start in starts:
        for (a, b), reference in zip(cases, cold):
            result = resolve(start, b)
            assert (result is not None and result.feasible) == reference.feasible
            if reference.feasible:
                assert_solution(a, b, result)
            elif result is not None:
                assert_farkas(a, b, result)
    assert len(starts) == 6 and not all(result.feasible for result in cold)


def test_resolve_at_its_cap_never_raises_and_never_errs(rng):
    # every start, infeasible ones too; a far or infeasible table may give
    # None (no verdict), but a verdict given is solve's and is certified
    cases = list(membership_lps(rng, 12))
    cold = [solve(a, b) for a, b in cases]
    outcomes = {None: 0, True: 0, False: 0}
    for start in cold:
        for (a, b), reference in zip(cases, cold):
            result = resolve(start, b)
            if result is None:
                outcomes[None] += 1
                continue
            assert result.feasible == reference.feasible
            if result.feasible:
                assert_solution(a, b, result)
            else:
                assert_farkas(a, b, result)
            outcomes[result.feasible] += 1
    assert min(outcomes.values()) > 0


def nearby_lp(rng):
    """A feasible membership LP, and the right-hand side of a table halfway
    to a vertex its solution leaves out, which takes dual pivots to reach."""
    a, b = next(membership_lps(rng, 1))
    start = solve(a, b)
    vertex = int(np.flatnonzero(start.x == 0.0)[0])
    return a, start, (b + a[:, vertex]) / 2


def test_resolve_leaves_its_start_as_it_was(rng):
    a, start, near = nearby_lp(rng)
    before = [array.copy() for array in start.state]
    assert_solution(a, near, resolve(start, near))
    again = resolve(start, a @ start.x)  # the start's own table: its basis needs no pivot
    assert again.iterations == 0
    assert np.allclose(again.x, start.x, rtol=0.0, atol=1e-12)
    for array, copy in zip(start.state, before):
        assert array.tobytes() == copy.tobytes()


def test_resolve_gives_none_at_a_cap_of_zero_dual_pivots(rng, monkeypatch):
    a, start, near = nearby_lp(rng)
    assert resolve(start, near).iterations > 0
    monkeypatch.setattr(simplex, "DUAL_PIVOT_LIMIT", 0)
    assert resolve(start, near) is None
    assert_solution(a, a @ start.x, resolve(start, a @ start.x))
