import numpy as np
import pytest
from scipy.optimize import linprog

from nsshare.simplex import solve


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


def test_degenerate_vertex():
    # Beale's cycling example as equalities with slacks; pinning its objective
    # at the optimum makes phase 1 walk its degenerate corner, and just below
    # the optimum the system is infeasible
    c = np.array([-0.75, 150.0, -0.02, 6.0])
    a_ub = np.array([
        [0.25, -60.0, -0.04, 9.0],
        [0.5, -90.0, -0.02, 3.0],
        [0.0, 0.0, 1.0, 0.0],
    ])
    b_ub = np.array([0.0, 0.0, 1.0])
    optimum = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs").fun
    a = np.vstack([np.hstack([a_ub, np.eye(3)]), np.append(c, np.zeros(3))])
    result = solve(a, np.append(b_ub, optimum))
    assert result.feasible
    assert np.max(np.abs(a @ result.x - np.append(b_ub, optimum))) < 1e-9
    below = np.append(b_ub, optimum - 1e-3)
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
