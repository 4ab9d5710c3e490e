"""Membership certification in the hybrid local-nonlocal (nonsignal-local) polytope.

A behavior is nonsignal-local when it is a convex mixture, over the three
bipartitions AB|C, AC|B, BC|A, of products of a bipartite no-signaling
behavior with a single-party behavior.  In the 2-input/2-outcome scenario the
extreme points are products of bipartite no-signaling vertices (16 local
deterministic + 8 PR-type boxes) with deterministic single-party assignments
(4 per bipartition): 3 * 24 * 4 = 288 vertices in total.  Membership is then
a linear-programming feasibility question over those vertices; infeasibility
certifies genuine nonsignaling nonlocality.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from . import simplex
# no_signaling_residual stays importable from here: perfbench/layers.py wraps
# certifier.no_signaling_residual
from .engine import BehaviorTable, no_signaling_residual  # noqa: F401
from .inequality import is_violation, ns2_relabelings

RESIDUAL_ATOL = 1e-9

BIPARTITIONS = ("AB|C", "AC|B", "BC|A")


@dataclass(frozen=True)
class VertexProvenance:
    bipartition: str
    box_kind: str       # "deterministic" or "pr"
    box_id: int         # 0..15 deterministic, 0..7 pr
    singleton_id: int   # 0..3


@dataclass(frozen=True)
class VertexSet:
    """All 288 hybrid-polytope vertices as rows of a (288, 64) matrix."""

    vectors: np.ndarray
    provenance: tuple[VertexProvenance, ...]

    def __post_init__(self):
        vectors = np.asarray(self.vectors, dtype=float).copy()
        vectors.setflags(write=False)
        object.__setattr__(self, "vectors", vectors)

    def __len__(self) -> int:
        return self.vectors.shape[0]


def _bipartite_boxes() -> list[tuple[str, int, np.ndarray]]:
    """The 24 extreme points of the 2-input/2-outcome bipartite NS polytope."""
    boxes = []
    for bits in product((0, 1), repeat=4):  # a = a_slope*x ^ a_off, b likewise
        a_slope, a_off, b_slope, b_off = bits
        box = np.zeros((2, 2, 2, 2))
        for x, y in product((0, 1), repeat=2):
            box[x, y, (a_slope & x) ^ a_off, (b_slope & y) ^ b_off] = 1.0
        box_id = 8 * a_slope + 4 * a_off + 2 * b_slope + b_off
        boxes.append(("deterministic", box_id, box))
    for bits in product((0, 1), repeat=3):  # a ^ b = xy ^ beta*x ^ gamma*y ^ d
        beta, gamma, d = bits
        box = np.zeros((2, 2, 2, 2))
        for x, y, a in product((0, 1), repeat=3):
            b = a ^ (x & y) ^ (beta & x) ^ (gamma & y) ^ d
            box[x, y, a, b] = 0.5
        boxes.append(("pr", 4 * beta + 2 * gamma + d, box))
    return boxes


def _singleton_points() -> list[tuple[int, np.ndarray]]:
    """The 4 deterministic single-party behaviors c = slope*z ^ off."""
    points = []
    for slope, off in product((0, 1), repeat=2):
        point = np.zeros((2, 2))
        for z in (0, 1):
            point[z, (slope & z) ^ off] = 1.0
        points.append((2 * slope + off, point))
    return points


@lru_cache(maxsize=1)
def hybrid_vertices() -> VertexSet:
    """Enumerate all 288 vertices with their provenance tags."""
    vectors = []
    provenance = []
    boxes = _bipartite_boxes()
    singletons = _singleton_points()
    for bipartition in BIPARTITIONS:
        for box_kind, box_id, box in boxes:
            for singleton_id, single in singletons:
                if bipartition == "AB|C":
                    table = np.einsum("xyab,zc->xyzabc", box, single)
                elif bipartition == "AC|B":
                    table = np.einsum("xzac,yb->xyzabc", box, single)
                else:  # BC|A
                    table = np.einsum("yzbc,xa->xyzabc", box, single)
                vectors.append(table.reshape(64))
                provenance.append(
                    VertexProvenance(bipartition, box_kind, box_id, singleton_id)
                )
    return VertexSet(np.array(vectors), tuple(provenance))


@dataclass(frozen=True)
class DecompositionResult:
    """LP verdict for membership, with the mixture weights when one exists."""

    feasible: bool
    weights: np.ndarray        # per-vertex, >= 0, sums to 1
    residual: float            # max-abs reconstruction error (minimized when infeasible)
    certificate: str
    group_weights: dict[str, float]  # mixture mass per bipartition

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float).copy()
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)


def _group_weights(weights: np.ndarray, vertex_set: VertexSet) -> dict[str, float]:
    sums = {name: 0.0 for name in BIPARTITIONS}
    for weight, prov in zip(weights, vertex_set.provenance):
        sums[prov.bipartition] += float(weight)
    return sums


def _reconstruction_residual(vertex_set: VertexSet, weights: np.ndarray,
                             target: np.ndarray) -> float:
    return float(np.max(np.abs(vertex_set.vectors.T @ weights - target)))


def _min_linf_residual(vertex_set: VertexSet, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Minimize the max-abs reconstruction error over the weight simplex."""
    n = len(vertex_set)
    vt = vertex_set.vectors.T  # (64, n)
    c = np.zeros(n + 1)
    c[n] = 1.0
    a_eq = np.zeros((1, n + 1))
    a_eq[0, :n] = 1.0
    b_eq = np.array([1.0])
    ones = np.ones((64, 1))
    a_ub = np.vstack([np.hstack([vt, -ones]), np.hstack([-vt, -ones])])
    b_ub = np.concatenate([target, -target])
    result = simplex.solve(c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub)
    if result.status != "optimal":  # always feasible (w = e_1, t = 1) and bounded
        raise RuntimeError(f"residual LP ended with status {result.status!r}")
    return float(result.objective), result.x[:n]


def lp_feasible(table: BehaviorTable, vertex_set: VertexSet | None = None) -> DecompositionResult:
    """Decide membership of a behavior in the hybrid polytope by LP feasibility.

    Feasible: returns the mixture weights and their reconstruction residual
    (< 1e-9).  Infeasible: reports the minimal achievable max-abs residual so
    near-boundary verdicts stay auditable.  The inequality under its 8 outcome
    relabelings is a set of facets of the polytope, so a table that violates
    any of them is infeasible without the feasibility LP, and its certificate
    names the relabeling.  A signaling table raises SignalingTableError.
    """
    if vertex_set is None:
        vertex_set = hybrid_vertices()
    relabelings = ns2_relabelings(table)
    target = table.as_vector()
    worst = int(np.argmax(relabelings))
    if is_violation(relabelings[worst]):
        flipped = ",".join(party for party, bit in zip("abc", f"{worst:03b}") if bit == "1")
        reason = (f"relabeling {'flip ' + flipped if flipped else 'identity'} gives "
                  f"NS2 = {relabelings[worst]:.12g} > 3")
    else:
        n = len(vertex_set)
        a_eq = np.vstack([vertex_set.vectors.T, np.ones((1, n))])
        b_eq = np.append(target, 1.0)
        result = simplex.solve(np.zeros(n), a_eq=a_eq, b_eq=b_eq, tol=RESIDUAL_ATOL)
        if result.status == "optimal":
            weights = result.x
            residual = _reconstruction_residual(vertex_set, weights, target)
            if residual < RESIDUAL_ATOL:
                groups = _group_weights(weights, vertex_set)
                certificate = (
                    f"nonsignal-local: decomposition with residual {residual:.3e}; "
                    + ", ".join(f"{k} mass {v:.6f}" for k, v in groups.items())
                )
                return DecompositionResult(True, weights, residual, certificate, groups)
        reason = f"no decomposition within {RESIDUAL_ATOL}"

    min_residual, weights = _min_linf_residual(vertex_set, target)
    residual = _reconstruction_residual(vertex_set, weights, target)
    certificate = (
        f"genuinely nonsignal nonlocal: {reason}; "
        f"minimal max-abs residual {min_residual:.6e}"
    )
    return DecompositionResult(False, weights, residual, certificate,
                               _group_weights(weights, vertex_set))
