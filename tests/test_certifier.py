import hashlib
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linprog

from nsshare import simplex
from nsshare.certifier import BIPARTITIONS, WarmStart, hybrid_vertices, lp_feasible, seed_lp
from nsshare.cli import ExperimentConfig, run_experiment
from nsshare.engine import (
    NO_SIGNALING_ATOL,
    BehaviorTable,
    behavior,
    no_signaling_residual,
    no_signaling_residuals,
    run_sequence,
)
from nsshare.inequality import (
    is_violation,
    ns2_value,
    symmetry_name,
    symmetry_orbit,
)
from nsshare.measurements import gamma_sequence
from nsshare.states import build_gghz

from conftest import (
    THETA_ALPHA_GRID,
    bf_relabel,
    record_lp_calls,
    signaling_probs,
    svetlichny_probs,
)


def uniform_table():
    return BehaviorTable(np.full((2, 2, 2, 2, 2, 2), 0.125))


def svetlichny_table():
    return BehaviorTable(svetlichny_probs())


LOCAL_CERTIFICATE = re.compile(r"nonsignal-local: decomposition with residual \d\.\d{3}e[+-]\d+; "
                               r"AB\|C mass \d\.\d{6}, AC\|B mass \d\.\d{6}, BC\|A mass \d\.\d{6}")


def ghz_noise_table(distance: float) -> BehaviorTable:
    """Sharp GHZ mixed with white noise at NS2 = 3 + distance."""
    sharp = behavior(build_gghz(np.pi / 4), np.pi / 4, 1.0).probs
    lam = (3.0 + distance) / (1 + 2 * np.sqrt(2))
    return BehaviorTable(lam * sharp + (1 - lam) * np.full((2,) * 6, 0.125))


def scipy_member(table_vector, vertices):
    a_eq = np.vstack([vertices.vectors.T, np.ones((1, len(vertices.vectors)))])
    b_eq = np.append(table_vector, 1.0)
    result = linprog(np.zeros(len(vertices.vectors)), A_eq=a_eq, b_eq=b_eq,
                     bounds=(0, None), method="highs")
    return result.status == 0


def test_vertex_count_is_288():
    assert len(hybrid_vertices().vectors) == 288


def test_vertex_provenance_structure():
    vertices = hybrid_vertices()
    per_bipartition = np.bincount(vertices.bipartition_index, minlength=len(BIPARTITIONS))
    assert per_bipartition.tolist() == [96] * len(BIPARTITIONS)
    # a deterministic box makes a 0/1 vertex, a PR box one with entries 1/2
    largest = vertices.vectors.max(axis=1)
    assert np.count_nonzero(largest == 1.0) == 3 * 16 * 4
    assert np.count_nonzero(largest == 0.5) == 3 * 8 * 4


def test_vertex_matrix_is_pinned():
    # the simplex breaks ties by column index, so the vertex order fixes the
    # digits of LP certificates; these digests pin matrix and order
    vertices = hybrid_vertices()
    assert (hashlib.sha256(vertices.vectors.tobytes()).hexdigest()
            == "3d14fcf369e137c92f4595d822b6706856b99f704b4c1d75b2441cd873bd8772")
    index = np.asarray(vertices.bipartition_index, dtype=np.int64)
    assert (hashlib.sha256(index.tobytes()).hexdigest()
            == "98bb2006d4e89b7f9ef3bcbc736937dda01158af031c901ee87c2b7dc062765e")


def test_membership_constraints_are_built_once_and_read_only(monkeypatch):
    vertices = hybrid_vertices()
    constraints = vertices.constraints
    assert np.array_equal(constraints, np.vstack([vertices.vectors.T, np.ones((1, 288))]))
    assert not constraints.flags.writeable
    seen = []
    original = simplex.solve

    def recording(a, b):
        seen.append(a)
        return original(a, b)

    monkeypatch.setattr(simplex, "solve", recording)
    for table in (uniform_table(), svetlichny_table()):
        lp_feasible(table)
    assert len(seen) == 2 and all(a is constraints for a in seen)


def test_vertices_normalized_and_nonsignaling_exactly():
    vertices = hybrid_vertices()
    for vector in vertices.vectors:
        table = BehaviorTable(vector.reshape((2,) * 6))
        sums = table.probs.sum(axis=(3, 4, 5))
        assert np.array_equal(sums, np.ones((2, 2, 2)))
        residual, _ = no_signaling_residual(table)
        assert residual < NO_SIGNALING_ATOL
        assert residual == 0.0


def test_globally_deterministic_vertex_appears_in_all_bipartitions():
    vertices = hybrid_vertices()
    # a = b = c = 0 deterministically
    target = np.zeros((2,) * 6)
    target[:, :, :, 0, 0, 0] = 1.0
    hosts = np.flatnonzero((vertices.vectors == target.reshape(64)).all(axis=1))
    assert set(vertices.bipartition_index[hosts].tolist()) == set(range(len(BIPARTITIONS)))


def test_check_no_signaling_quantum_table():
    table = behavior(build_gghz(1.1), 0.8, 0.6)
    residual, _ = no_signaling_residual(table)
    assert residual < NO_SIGNALING_ATOL
    assert residual < 1e-10


def test_check_no_signaling_flags_offender():
    residuals, labels = no_signaling_residuals(signaling_probs()[None])
    assert not residuals[0] < NO_SIGNALING_ATOL
    assert residuals[0] == pytest.approx(1.0)
    assert "vs y" in labels[0]


def test_check_no_signaling_uniform():
    residual, _ = no_signaling_residual(uniform_table())
    assert residual == 0.0


def test_every_vertex_self_feasible():
    vertices = hybrid_vertices()
    for i in (0, 17, 42, 95, 96, 160, 191, 192, 230, 287):
        result = lp_feasible(BehaviorTable(vertices.vectors[i].reshape((2,) * 6)))
        assert result.feasible
        assert result.residual < 1e-12
        # the recovered mixture concentrates on copies of the same vertex
        same = [j for j in range(len(vertices.vectors))
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
    assert result.functional is None and result.bound is None and result.margin is None


def test_group_weights_are_the_mixture_mass_per_bipartition(rng):
    vertices = hybrid_vertices()
    weights = rng.random(len(vertices.vectors))
    table = BehaviorTable(((weights / weights.sum()) @ vertices.vectors).reshape((2,) * 6))
    result = lp_feasible(table)
    for position, name in enumerate(BIPARTITIONS):
        mass = 0.0  # reference: a plain loop in vertex order, so the sums agree bit for bit
        for weight, index in zip(result.weights, vertices.bipartition_index):
            if index == position:
                mass += float(weight)
        assert result.group_weights[name] == mass


def test_deterministic_boundary_point_feasible():
    probs = np.zeros((2, 2, 2, 2, 2, 2))
    probs[:, :, :, 0, 0, 0] = 1.0
    table = BehaviorTable(probs)
    assert ns2_value(table) == pytest.approx(3.0)
    result = lp_feasible(table)
    assert result.feasible
    assert result.residual < 1e-9


def assert_separates(result, table):
    """The nonlocal certificate holds: s.v <= bound on every vertex, s.p beyond it."""
    assert not result.feasible
    assert result.weights is None and result.residual is None and result.group_weights is None
    s, bound = result.functional, result.bound
    assert s.shape == (64,)
    assert np.max(hybrid_vertices().vectors @ s) <= bound + 1e-12
    assert s @ table.probs.reshape(64) - bound > 1e-12
    assert result.margin == pytest.approx(s @ table.probs.reshape(64) - bound, abs=1e-15)


def count_lp_solves(monkeypatch) -> list:
    calls = []
    original = simplex.solve

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(simplex, "solve", counting)
    return calls


def test_sharp_ghz_table_infeasible(monkeypatch):
    calls = count_lp_solves(monkeypatch)
    table = behavior(build_gghz(np.pi / 4), np.pi / 4, 1.0)
    result = lp_feasible(table)
    assert_separates(result, table)
    assert "genuinely nonsignal nonlocal: relabeling identity" in result.certificate
    assert result.bound == 3.0  # the inequality itself, unscaled
    assert not calls  # a violated relabeling decides without the LP
    assert not scipy_member(table.probs.reshape(64), hybrid_vertices())


def test_two_round_tables_infeasible():
    schedule = gamma_sequence(np.pi / 4, 0.001, 2)
    for table in run_sequence(build_gghz(np.pi / 4), np.pi / 4, schedule, 2):
        result = lp_feasible(table)
        assert_separates(result, table)
        assert not scipy_member(table.probs.reshape(64), hybrid_vertices())


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
    table = ghz_noise_table(distance)
    assert is_violation(ns2_value(table))
    result = lp_feasible(table)
    assert not result.feasible
    assert result.certificate.startswith("genuinely nonsignal nonlocal: relabeling identity "
                                         f"gives NS2 = {ns2_value(table):.12g} > 3")
    # an outcome-flipped copy violates only images of the inequality, by as much;
    # the certificate names one of them
    flipped = BehaviorTable(bf_relabel(table.probs, (0, 1, 2), (3, 0, 3)))  # flip a and c
    assert not is_violation(ns2_value(flipped))
    functionals, symmetries = symmetry_orbit()
    assert (functionals @ flipped.probs.reshape(64)).max() == pytest.approx(ns2_value(table),
                                                                             abs=1e-14)
    names = [symmetry_name(symmetry) for symmetry in symmetries]
    result = lp_feasible(flipped)
    assert not result.feasible
    source = result.certificate.split("relabeling ")[1].split(" gives NS2")[0]
    assert is_violation(functionals[names.index(source)] @ flipped.probs.reshape(64))


def test_input_relabeled_ghz_table_is_screened_by_its_orbit_image(monkeypatch):
    # with Bob's inputs swapped the GHZ table obeys the inequality and its 8
    # outcome relabelings, but its image under the input swap decides it
    # without an LP, also 1e-10 from the bound, where the LP alone accepts
    # it within its resolution
    sharp = behavior(build_gghz(np.pi / 4), np.pi / 4, 1.0).probs
    calls = count_lp_solves(monkeypatch)
    for probs in (sharp, ghz_noise_table(1e-10).probs):
        table = BehaviorTable(probs[:, ::-1].copy())
        assert not is_violation(ns2_value(table))
        result = lp_feasible(table)
        assert_separates(result, table)
        assert "relabeling swap y gives NS2" in result.certificate
        assert result.bound == 3.0
    assert not calls
    assert not scipy_member(sharp[:, ::-1].reshape(64), hybrid_vertices())


def test_svetlichny_box_needs_the_lp(monkeypatch):
    # no image of the inequality exceeds 2 on the Svetlichny box, which lies
    # outside the polytope: the feasibility LP alone must find that
    table = svetlichny_table()
    assert (symmetry_orbit()[0] @ table.probs.reshape(64)).max() == pytest.approx(2.0, abs=1e-12)
    calls = count_lp_solves(monkeypatch)
    result = lp_feasible(table)
    assert_separates(result, table)
    assert "LP Farkas dual" in result.certificate
    assert np.max(np.abs(result.functional)) == 1.0
    assert len(calls) == 1
    assert not scipy_member(table.probs.reshape(64), hybrid_vertices())


def warm_from(table: BehaviorTable) -> WarmStart:
    """The warm start a run holds after certifying table."""
    warm = WarmStart()
    lp_feasible(table, warm=warm)
    return warm


def tableau_digest(lp) -> str:
    return hashlib.sha256(b"".join(array.tobytes() for array in lp.state)).hexdigest()


def test_seed_lp_is_built_once_and_read_only(monkeypatch):
    seed_lp.cache_clear()
    calls = count_lp_solves(monkeypatch)
    tables = (uniform_table(), ghz_noise_table(-1e-3), svetlichny_table())
    assert WarmStart().lp is None and not calls  # built when a table first reaches the LP
    for table in tables[:2]:
        lp_feasible(table, warm=WarmStart())
    seed = seed_lp()
    assert len(calls) == 1  # both tables re-solved from the seed
    assert seed.feasible and seed.iterations == 38
    assert not any(array.flags.writeable for array in (seed.x, *seed.state))
    # the claim audit's first table (delta 0.01) takes a cold LP to the seed's basis
    first = run_sequence(build_gghz(np.pi / 4), 0.01, gamma_sequence(0.01, 1e-3, 1), 1)[0]
    cold = simplex.solve(hybrid_vertices().constraints, np.append(first.probs.reshape(64), 1.0))
    assert np.array_equal(cold.state[1], seed.state[1])
    assert len(calls) == 2
    digest = tableau_digest(seed)
    # the noisy GHZ table takes dual pivots from the seed, which pivot a copy
    b = np.append(tables[1].probs.reshape(64), 1.0)
    assert simplex.resolve(seed, b).iterations > 0
    for table in tables:
        lp_feasible(table, warm=WarmStart())
    assert len(calls) == 3  # and the Svetlichny box's cold LP
    assert tableau_digest(seed) == digest


def test_warm_support_decides_a_nearby_table_without_the_lp(monkeypatch):
    warm = warm_from(ghz_noise_table(-1e-3))
    start = warm.lp
    table = ghz_noise_table(-2e-3)
    calls = count_lp_solves(monkeypatch)
    result = lp_feasible(table, warm=warm)
    assert not calls
    assert result.feasible
    assert warm.lp is not start  # the re-solve is the run's latest local LP
    cold = lp_feasible(table)
    assert len(calls) == 1
    # the same certificate format as an LP-found one
    for verdict in (result, cold):
        assert LOCAL_CERTIFICATE.fullmatch(verdict.certificate), verdict.certificate
    assert result.weights.min() >= 0.0
    recon = hybrid_vertices().vectors.T @ result.weights
    assert np.max(np.abs(recon - table.probs.reshape(64))) < 1e-9
    assert np.flatnonzero(result.weights).size <= np.flatnonzero(start.x > 0).size


@pytest.mark.parametrize("table", [ghz_noise_table(-1e-3), svetlichny_table()],
                         ids=["local", "nonlocal"])
def test_warm_support_that_cannot_rebuild_the_table_falls_through_to_the_lp(
        monkeypatch, table):
    # a single deterministic vertex's final tableau reaches neither table
    # within the dual-pivot cap (the uniform table it reaches in a few)
    vertex = hybrid_vertices().vectors[0]
    warm = WarmStart(simplex.solve(hybrid_vertices().constraints, np.append(vertex, 1.0)))
    calls = count_lp_solves(monkeypatch)
    result = lp_feasible(table, warm=warm)
    assert len(calls) == 1
    cold = lp_feasible(table)
    assert result.feasible == cold.feasible
    assert result.certificate == cold.certificate
    # a nonlocal verdict leaves no LP, so the table re-solves from the seed LP,
    # which reaches the local table; the nonlocal one still takes the cold LP
    # and its Farkas dual
    warm = warm_from(svetlichny_table())
    assert warm.lp is None
    del calls[:]
    result = lp_feasible(table, warm=warm)
    assert len(calls) == (0 if cold.feasible else 1)
    assert result.feasible == cold.feasible
    if cold.feasible:
        assert LOCAL_CERTIFICATE.fullmatch(result.certificate), result.certificate
    else:
        assert result.certificate == cold.certificate


@pytest.mark.parametrize("table", [uniform_table(), ghz_noise_table(-1.0), svetlichny_table()],
                         ids=["uniform", "noisy-ghz", "nonlocal"])
def test_warm_start_at_a_cap_of_zero_dual_pivots_gives_the_cold_verdict(monkeypatch, table):
    # each table takes a dual pivot from this start (the nonlocal one cannot
    # be reached at all), so at a cap of 0 one cold LP decides: scipy's verdict
    warm = warm_from(ghz_noise_table(-5e-2))
    needs = simplex.resolve(warm.lp, np.append(table.probs.reshape(64), 1.0))
    assert needs is None or needs.iterations > 0
    monkeypatch.setattr(simplex, "DUAL_PIVOT_LIMIT", 0)
    calls = count_lp_solves(monkeypatch)
    result = lp_feasible(table, warm=warm)
    assert len(calls) == 1
    assert result.certificate == lp_feasible(table).certificate
    assert result.feasible == scipy_member(table.probs.reshape(64), hybrid_vertices())


def test_warm_weights_that_do_not_verify_fall_through_to_the_lp(monkeypatch):
    # the re-solve's weights go through the same check as the LP's: shifted
    # weights rebuild another table, so one cold LP decides and becomes the start
    warm = warm_from(ghz_noise_table(-1e-3))
    table = ghz_noise_table(-2e-3)
    tampered_solve(monkeypatch, lambda r: {"x": np.roll(r.x, 1)}, name="resolve")
    calls = count_lp_solves(monkeypatch)
    result = lp_feasible(table, warm=warm)
    assert len(calls) == 1
    assert result.certificate == lp_feasible(table).certificate
    assert np.array_equal(warm.lp.x, result.weights)


@pytest.mark.parametrize("excess", [1e-9, 3e-10, 1e-10, 5e-11, -1e-9])
def test_warm_verdict_is_the_cold_one_at_the_svetlichny_boundary(excess):
    # the Svetlichny box with white noise leaves the polytope at weight 1/2;
    # from 1e-10 past it the cold LP finds a Farkas dual, and a re-solve must
    # not clamp that deficit away into a local verdict
    def mixture(weight):
        return BehaviorTable(weight * svetlichny_probs() + (1 - weight) * uniform_table().probs)

    warm = warm_from(mixture(0.499))
    table = mixture(0.5 + excess)
    assert lp_feasible(table, warm=warm).feasible == lp_feasible(table).feasible


# the LP calls of THETA_ALPHA_GRID and of certified --auto-delta point runs at
# n = 4 and n = 8 (both recursions), after the seed LP: their count per kind
# and one sha256 over every call's kind, iterations and right-hand side.  Every
# table is decided by a re-solve (68 of them take dual pivots) or the orbit screen.
LP_CHAIN_COUNTS = {"resolve": 138}
LP_CHAIN_DIGEST = "e3fd6c77c098f8ede4e3e0535052f3c84f74814c34c12a35224002cf75141727"


def test_certified_runs_make_the_pinned_lp_chain(monkeypatch):
    seed_lp()
    calls = record_lp_calls(monkeypatch)
    for config in (ExperimentConfig(**THETA_ALPHA_GRID),
                   ExperimentConfig(n=4, auto_delta=True, certify=True, recursion="both"),
                   ExperimentConfig(n=8, auto_delta=True, certify=True, recursion="both")):
        run_experiment(config)
    digest = hashlib.sha256()
    for name, rhs, iterations in calls:
        digest.update(f"{name} {iterations}:".encode() + rhs)
    assert Counter(name for name, _, _ in calls) == LP_CHAIN_COUNTS
    assert digest.hexdigest() == LP_CHAIN_DIGEST


def tampered_solve(monkeypatch, tamper, name="solve"):
    original = getattr(simplex, name)

    def tampering(*args, **kwargs):
        result = original(*args, **kwargs)
        return replace(result, **tamper(result))

    monkeypatch.setattr(simplex, name, tampering)


def negative_weight(result):
    """Move 1e-6 of mass from an unused vertex onto its duplicate: same table, w_i < 0."""
    vectors = hybrid_vertices().vectors
    i, j = next((i, j) for i in range(len(vectors)) for j in range(len(vectors))
                if i != j and result.x[i] == 0.0 and np.array_equal(vectors[i], vectors[j]))
    x = result.x.copy()
    x[i] -= 1e-6
    x[j] += 1e-6
    return {"x": x}


@pytest.mark.parametrize("tamper", [
    lambda r: {"x": np.roll(r.x, 1)},                  # rebuilds another table
    negative_weight,
    lambda r: {"x": 1.001 * r.x},                      # not normalized
    lambda r: {"x": None, "farkas": np.eye(65)[0]},    # "infeasible" without a certificate
], ids=["shifted", "negative", "unnormalized", "fake-dual"])
def test_tampered_local_certificate_raises(monkeypatch, tamper):
    tampered_solve(monkeypatch, tamper)
    with pytest.raises(RuntimeError, match="undecided"):
        lp_feasible(uniform_table())


@pytest.mark.parametrize("tamper", [
    lambda r: {"farkas": -r.farkas},
    lambda r: {"farkas": np.zeros_like(r.farkas)},
    lambda r: {"farkas": np.full_like(r.farkas, np.nan)},
    lambda r: {"farkas": None, "x": np.full(288, 1 / 288)},  # "feasible" with other weights
], ids=["negated", "zero", "nan", "fake-weights"])
def test_tampered_nonlocal_certificate_raises(monkeypatch, tamper):
    table = svetlichny_table()
    tampered_solve(monkeypatch, tamper)
    with pytest.raises(RuntimeError, match="undecided"):
        lp_feasible(table)


def test_feasibility_matches_scipy_on_random_mixtures(rng):
    vertices = hybrid_vertices()
    sharp = behavior(build_gghz(np.pi / 4), np.pi / 4, 1.0).probs
    for _ in range(15):
        if rng.random() < 0.5:
            weights = rng.random(len(vertices.vectors))
            weights /= weights.sum()
            probs = (weights @ vertices.vectors).reshape((2,) * 6)
        else:
            lam = rng.random()
            probs = lam * sharp + (1 - lam) * np.full((2, 2, 2, 2, 2, 2), 0.125)
        table = BehaviorTable(probs)
        ours = lp_feasible(table).feasible
        reference = scipy_member(table.probs.reshape(64), vertices)
        assert ours == reference


def test_lp_feasible_rejects_signaling_input():
    # lp_feasible takes a BehaviorTable, and a signaling one cannot be built
    with pytest.raises(ValueError, match="^table is signaling: "):
        lp_feasible(BehaviorTable(signaling_probs()))


def test_feasible_weights_reconstruct_table(rng):
    vertices = hybrid_vertices()
    weights = rng.random(len(vertices.vectors))
    weights /= weights.sum()
    table = BehaviorTable((weights @ vertices.vectors).reshape((2,) * 6))
    result = lp_feasible(table)
    assert result.feasible
    recon = vertices.vectors.T @ result.weights
    assert np.max(np.abs(recon - table.probs.reshape(64))) < 1e-9
