"""Property tests: symmetries of the hybrid polytope and the behavior JSON import.

The hybrid polytope is closed under per-party outcome relabelings and input
swaps and under permutations of the parties (the three bipartitions map onto
each other), so lp_feasible's verdict must not change under any of them.  Down
to 1e-11 from the inequality's crossing, well inside the LP's 1e-9
resolution, the verdict on GHZ noise and on each of its images must follow the
inequality, and its certificate must hold.
"""

import itertools
import os
import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nsshare.behavior_io import import_behavior
from nsshare.certifier import hybrid_vertices, lp_feasible
from nsshare.engine import BehaviorTable, behavior
from nsshare.inequality import is_violation, ns2_value
from nsshare.states import build_gghz

from conftest import bf_relabel, write_table

# per party, bf_relabel's code 3 flips its outcome at both inputs
FLIPS = list(itertools.product((0, 3), repeat=3))
PARTY_ORDERS = list(itertools.permutations(range(3)))
# lambda * sharp GHZ + (1 - lambda) * uniform has NS2 = lambda (1 + 2 sqrt 2)
CROSSING = 3.0 / (1 + 2 * np.sqrt(2))

PROPERTY_SETTINGS = settings(max_examples=6, deadline=None, derandomize=True)


def permute_parties(table: BehaviorTable, order) -> BehaviorTable:
    """New party i is old party order[i], for inputs and outcomes together."""
    axes = tuple(order) + tuple(p + 3 for p in order)
    return BehaviorTable(np.transpose(table.probs, axes).copy())


def relabeled_verdicts(table: BehaviorTable) -> set[bool]:
    verdicts = {lp_feasible(BehaviorTable(bf_relabel(table.probs, (0, 1, 2), flips))).feasible
                for flips in FLIPS}
    verdicts |= {lp_feasible(permute_parties(table, order)).feasible for order in PARTY_ORDERS}
    return verdicts


vertex_mixtures = st.lists(
    st.tuples(st.integers(0, 287), st.floats(0.01, 1.0)), min_size=1, max_size=6)


@PROPERTY_SETTINGS
@given(vertex_mixtures)
def test_vertex_mixture_verdict_is_symmetric(mixture):
    vectors = hybrid_vertices().vectors
    weights = np.array([w for _, w in mixture])
    vector = weights @ vectors[[i for i, _ in mixture]] / weights.sum()
    assert relabeled_verdicts(BehaviorTable(vector.reshape((2,) * 6))) == {True}


@PROPERTY_SETTINGS
@given(st.floats(0.0, 1.0).filter(lambda lam: abs(lam - CROSSING) >= 1e-6))
@example(CROSSING - 1e-6)
@example(CROSSING + 1e-6)
def test_ghz_noise_verdict_is_symmetric(lam):
    sharp = behavior(build_gghz(np.pi / 4), np.pi / 4, 1.0).probs
    table = BehaviorTable(lam * sharp + (1 - lam) * np.full((2,) * 6, 0.125))
    verdict = lp_feasible(table).feasible
    assert relabeled_verdicts(table) == {verdict}
    if is_violation(ns2_value(table)):
        assert not verdict


near_crossing = st.builds(lambda exponent, side: side * 10.0 ** exponent,
                          st.floats(-11.0, -6.0), st.sampled_from((-1.0, 1.0)))
# (party order, one relabeling code per party), as conftest.bf_relabel takes them
symmetries = st.tuples(st.sampled_from(PARTY_ORDERS), st.tuples(*[st.integers(0, 7)] * 3))
IDENTITY = ((0, 1, 2), (0, 0, 0))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(near_crossing, symmetries)
@example(1e-10, IDENTITY)
@example(-1e-10, IDENTITY)
@example(2e-10, IDENTITY)
@example(-2e-10, IDENTITY)
@example(1e-10, ((0, 1, 2), (0, 4, 0)))  # Bob's inputs swapped
@example(-1e-10, ((0, 1, 2), (0, 4, 0)))
@example(1e-11, ((2, 0, 1), (6, 0, 7)))
def test_near_boundary_verdict_matches_inequality_and_its_certificate_holds(distance, symmetry):
    # NS2 = 3 + distance, down to 1e-11 either side: well inside the LP's 1e-9
    # resolution, so only the inequality screen keeps the verdicts apart.  A
    # symmetry maps the polytope onto itself, so the image of the table is
    # nonlocal exactly when distance > 0
    sharp = behavior(build_gghz(np.pi / 4), np.pi / 4, 1.0).probs
    lam = (3.0 + distance) / (1 + 2 * np.sqrt(2))
    table = BehaviorTable(bf_relabel(lam * sharp + (1 - lam) * np.full((2,) * 6, 0.125),
                                     *symmetry))
    target, vectors = table.probs.reshape(64), hybrid_vertices().vectors
    result = lp_feasible(table)
    assert result.feasible is (distance < 0)
    if result.feasible:
        assert result.weights.min() >= 0.0
        assert abs(result.weights.sum() - 1.0) <= 1e-9
        assert np.max(np.abs(vectors.T @ result.weights - target)) <= 1e-9
    else:
        assert np.max(vectors @ result.functional) <= result.bound + 1e-12
        assert result.functional @ target - result.bound > 1e-12


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6), st.integers(1, 10**6))
def test_behavior_json_round_trip_is_byte_identical(marginals, round_index):
    # a product of single-party behaviors, P(a|x) P(b|y) P(c|z), is non-signaling;
    # import_behavior must hand back every float of the file unchanged
    (a0, a1, b0, b1, c0, c1), probs = marginals, np.empty((2,) * 6)
    for x, y, z, a, b, c in itertools.product((0, 1), repeat=6):
        pa, pb, pc = (a0, a1)[x], (b0, b1)[y], (c0, c1)[z]
        probs[x, y, z, a, b, c] = ((pa, 1 - pa)[a] * (pb, 1 - pb)[b] * (pc, 1 - pc)[c])
    with tempfile.TemporaryDirectory() as directory:
        first, second = os.path.join(directory, "a.json"), os.path.join(directory, "b.json")
        write_table(first, probs, round_index)
        write_table(second, import_behavior(first).probs, round_index)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()
