import numpy as np
import pytest
from scipy.optimize import linprog

from nsshare.certifier import BIPARTITIONS, hybrid_vertices, lp_feasible
from nsshare.engine import (
    NO_SIGNALING_ATOL,
    BehaviorTable,
    SequentialScenario,
    behavior,
    no_signaling_residual,
    run_sequence,
)
from nsshare.inequality import SignalingTableError, is_violation, ns2_relabelings, ns2_value
from nsshare.measurements import gamma_sequence
from nsshare.states import build_gghz


def uniform_table():
    return BehaviorTable(np.full((2, 2, 2, 2, 2, 2), 0.125))


def scipy_member(table_vector, vertices):
    a_eq = np.vstack([vertices.vectors.T, np.ones((1, len(vertices)))])
    b_eq = np.append(table_vector, 1.0)
    result = linprog(np.zeros(len(vertices)), A_eq=a_eq, b_eq=b_eq,
                     bounds=(0, None), method="highs")
    return result.status == 0


def test_vertex_count_is_288():
    assert len(hybrid_vertices()) == 288


def test_vertex_provenance_structure():
    vertices = hybrid_vertices()
    per_bipartition = {name: 0 for name in BIPARTITIONS}
    per_kind = {"deterministic": 0, "pr": 0}
    for prov in vertices.provenance:
        per_bipartition[prov.bipartition] += 1
        per_kind[prov.box_kind] += 1
    assert per_bipartition == {name: 96 for name in BIPARTITIONS}
    assert per_kind == {"deterministic": 3 * 16 * 4, "pr": 3 * 8 * 4}


def test_vertices_normalized_and_nonsignaling_exactly():
    vertices = hybrid_vertices()
    for vector in vertices.vectors:
        table = BehaviorTable.from_vector(vector)
        sums = table.probs.sum(axis=(3, 4, 5))
        assert np.array_equal(sums, np.ones((2, 2, 2)))
        residual, _ = no_signaling_residual(table)
        assert residual < NO_SIGNALING_ATOL
        assert residual == 0.0


def test_globally_deterministic_vertex_appears_in_all_bipartitions():
    vertices = hybrid_vertices()
    # a = b = c = 0 deterministically, as an AB|C vertex
    target = None
    for i, prov in enumerate(vertices.provenance):
        if (prov.bipartition == "AB|C" and prov.box_kind == "deterministic"
                and prov.box_id == 0 and prov.singleton_id == 0):
            target = vertices.vectors[i]
            break
    assert target is not None
    hosts = set()
    for i, prov in enumerate(vertices.provenance):
        if np.array_equal(vertices.vectors[i], target):
            hosts.add(prov.bipartition)
    assert hosts == set(BIPARTITIONS)


def test_check_no_signaling_quantum_table():
    table = behavior(build_gghz(1.1), 0.8, 0.6)
    residual, _ = no_signaling_residual(table)
    assert residual < NO_SIGNALING_ATOL
    assert residual < 1e-10


def test_check_no_signaling_flags_offender():
    probs = np.zeros((2, 2, 2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            for z in range(2):
                probs[x, y, z, y, 0, 0] = 1.0  # Alice's outcome copies y
    residual, label = no_signaling_residual(BehaviorTable(probs))
    assert not residual < NO_SIGNALING_ATOL
    assert residual == pytest.approx(1.0)
    assert "vs y" in label


def test_check_no_signaling_uniform():
    residual, _ = no_signaling_residual(uniform_table())
    assert residual == 0.0


def test_every_vertex_self_feasible():
    vertices = hybrid_vertices()
    for i in (0, 17, 42, 95, 96, 160, 191, 192, 230, 287):
        result = lp_feasible(BehaviorTable.from_vector(vertices.vectors[i]), vertices)
        assert result.feasible
        assert result.residual < 1e-12
        # the recovered mixture concentrates on copies of the same vertex
        same = [j for j in range(len(vertices))
                if np.array_equal(vertices.vectors[j], vertices.vectors[i])]
        assert result.weights[same].sum() == pytest.approx(1.0, abs=1e-9)


def test_uniform_feasible_with_group_structure():
    result = lp_feasible(uniform_table())
    assert result.feasible
    assert result.residual < 1e-9
    assert result.weights.min() > -1e-12
    assert result.weights.sum() == pytest.approx(1.0, abs=1e-9)
    assert sum(result.group_weights.values()) == pytest.approx(1.0, abs=1e-9)
    assert "nonsignal-local" in result.certificate


def test_deterministic_boundary_point_feasible():
    probs = np.zeros((2, 2, 2, 2, 2, 2))
    probs[:, :, :, 0, 0, 0] = 1.0
    table = BehaviorTable(probs)
    assert ns2_value(table) == pytest.approx(3.0)
    result = lp_feasible(table)
    assert result.feasible
    assert result.residual < 1e-9


def test_sharp_ghz_table_infeasible():
    table = behavior(build_gghz(np.pi / 4), np.pi / 4, 1.0)
    result = lp_feasible(table)
    assert not result.feasible
    assert result.residual > 1e-3
    assert "genuinely nonsignal nonlocal" in result.certificate
    assert not scipy_member(table.as_vector(), hybrid_vertices())


def test_two_round_tables_infeasible():
    schedule = gamma_sequence(np.pi / 4, 0.001, 2)
    scenario = SequentialScenario(build_gghz(np.pi / 4), np.pi / 4, schedule, 2)
    for table in run_sequence(scenario):
        result = lp_feasible(table)
        assert not result.feasible
        assert result.residual > 1e-6  # minimized residual stays clearly nonzero
        assert not scipy_member(table.as_vector(), hybrid_vertices())


def test_mixture_crossing_the_boundary():
    # lambda * sharp-GHZ + (1 - lambda) * uniform has value lambda (1 + 2 sqrt 2);
    # above 3 it must leave the polytope
    sharp = behavior(build_gghz(np.pi / 4), np.pi / 4, 1.0).probs
    uniform = np.full((2, 2, 2, 2, 2, 2), 0.125)
    for lam, expected in ((0.70, True), (0.79, False), (0.95, False)):
        table = BehaviorTable(lam * sharp + (1 - lam) * uniform)
        result = lp_feasible(table)
        assert result.feasible is expected, (lam, result.residual)


@pytest.mark.parametrize("distance", [1e-10, 2e-10])
def test_violation_just_above_the_bound_is_infeasible(distance):
    # at these distances the feasibility LP alone accepts the mixture with a
    # weight of about -distance / 4; the violated inequality must decide it
    sharp = behavior(build_gghz(np.pi / 4), np.pi / 4, 1.0).probs
    lam = (3.0 + distance) / (1 + 2 * np.sqrt(2))
    table = BehaviorTable(lam * sharp + (1 - lam) * np.full((2, 2, 2, 2, 2, 2), 0.125))
    assert is_violation(ns2_value(table))
    result = lp_feasible(table)
    assert not result.feasible
    assert result.certificate.startswith("genuinely nonsignal nonlocal: relabeling identity "
                                         f"gives NS2 = {ns2_value(table):.12g} > 3")
    # an outcome-flipped copy violates only its own relabeling, which is named
    flipped = table.flip_outcomes(flip_a=True, flip_c=True)
    assert not is_violation(ns2_value(flipped))
    assert is_violation(ns2_relabelings(flipped)[5])
    result = lp_feasible(flipped)
    assert not result.feasible
    assert "relabeling flip a,c gives NS2" in result.certificate


def test_input_relabeled_ghz_table_needs_the_lp():
    # with Bob's inputs swapped the sharp GHZ table obeys all 8 outcome
    # relabelings of the inequality, yet lies outside the polytope: the
    # feasibility LP alone must find that
    probs = behavior(build_gghz(np.pi / 4), np.pi / 4, 1.0).probs[:, ::-1]
    table = BehaviorTable(probs.copy())
    assert ns2_relabelings(table).max() < 3.0
    result = lp_feasible(table)
    assert not result.feasible
    assert "no decomposition within" in result.certificate
    assert not scipy_member(table.as_vector(), hybrid_vertices())


def test_feasibility_matches_scipy_on_random_mixtures(rng):
    vertices = hybrid_vertices()
    sharp = behavior(build_gghz(np.pi / 4), np.pi / 4, 1.0).probs
    for _ in range(15):
        if rng.random() < 0.5:
            weights = rng.random(len(vertices))
            weights /= weights.sum()
            probs = (weights @ vertices.vectors).reshape((2,) * 6)
        else:
            lam = rng.random()
            probs = lam * sharp + (1 - lam) * np.full((2, 2, 2, 2, 2, 2), 0.125)
        table = BehaviorTable(probs)
        ours = lp_feasible(table, vertices).feasible
        reference = scipy_member(table.as_vector(), vertices)
        assert ours == reference


def test_lp_feasible_rejects_signaling_input():
    probs = np.zeros((2, 2, 2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            for z in range(2):
                probs[x, y, z, y, 0, 0] = 1.0
    with pytest.raises(SignalingTableError):
        lp_feasible(BehaviorTable(probs))


def test_feasible_weights_reconstruct_table(rng):
    vertices = hybrid_vertices()
    weights = rng.random(len(vertices))
    weights /= weights.sum()
    table = BehaviorTable((weights @ vertices.vectors).reshape((2,) * 6))
    result = lp_feasible(table, vertices)
    assert result.feasible
    recon = vertices.vectors.T @ result.weights
    assert np.max(np.abs(recon - table.as_vector())) < 1e-9
