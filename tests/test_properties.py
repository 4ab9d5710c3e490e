"""Property tests: symmetries of the hybrid polytope and the behavior JSON round trip.

The hybrid polytope is closed under per-party outcome relabelings and under
permutations of the parties (the three bipartitions map onto each other), so
lp_feasible's verdict must not change under either.  Tables stay at least
1e-6 from the inequality's crossing, where the LP tolerances could decide the verdict.
"""

import itertools
import os
import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nsshare.behavior_io import export_behavior, import_behavior
from nsshare.certifier import hybrid_vertices, lp_feasible
from nsshare.engine import BehaviorTable, behavior
from nsshare.inequality import is_violation, ns2_value
from nsshare.states import build_gghz

FLIPS = list(itertools.product((False, True), repeat=3))
PARTY_ORDERS = list(itertools.permutations(range(3)))
# lambda * sharp GHZ + (1 - lambda) * uniform has NS2 = lambda (1 + 2 sqrt 2)
CROSSING = 3.0 / (1 + 2 * np.sqrt(2))

PROPERTY_SETTINGS = settings(max_examples=6, deadline=None, derandomize=True)


def permute_parties(table: BehaviorTable, order) -> BehaviorTable:
    """New party i is old party order[i], for inputs and outcomes together."""
    axes = tuple(order) + tuple(p + 3 for p in order)
    return BehaviorTable(np.transpose(table.probs, axes).copy(), table.round_index)


def relabeled_verdicts(table: BehaviorTable) -> set[bool]:
    verdicts = {lp_feasible(table.flip_outcomes(*flips)).feasible for flips in FLIPS}
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
    assert relabeled_verdicts(BehaviorTable.from_vector(vector)) == {True}


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


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.lists(st.floats(1e-300, 1.0), min_size=64, max_size=64), st.integers(1, 10**6))
def test_behavior_json_round_trip_is_byte_identical(entries, round_index):
    probs = np.array(entries).reshape((2,) * 6)
    probs /= probs.sum(axis=(3, 4, 5), keepdims=True)
    with tempfile.TemporaryDirectory() as directory:
        first, second = os.path.join(directory, "a.json"), os.path.join(directory, "b.json")
        export_behavior(BehaviorTable(probs, round_index), first)
        export_behavior(import_behavior(first), second)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()
