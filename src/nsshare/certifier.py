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
from .inequality import VIOLATION_GUARD, is_violation, symmetry_name, symmetry_orbit

RESIDUAL_ATOL = 1e-9

BIPARTITIONS = ("AB|C", "AC|B", "BC|A")


@dataclass(frozen=True)
class VertexSet:
    """All 288 hybrid-polytope vertices as rows of a (288, 64) matrix.

    bipartition_index[i] is the position of vertex i's bipartition in BIPARTITIONS;
    constraints is [vectors.T; 1], the (65, 288) matrix of the membership LP.
    """

    vectors: np.ndarray
    bipartition_index: np.ndarray
    constraints: np.ndarray


def _bipartite_boxes(responses: np.ndarray) -> np.ndarray:
    """The 24 extreme points of the 2-input/2-outcome bipartite NS polytope, as [n, x, y, a, b].

    The 16 deterministic boxes are products of two single-party responses;
    the 8 PR-type boxes give a ^ b = xy ^ beta*x ^ gamma*y ^ d weight 1/2.
    """
    deterministic = np.einsum("ixa,jyb->ijxyab", responses, responses).reshape(16, 2, 2, 2, 2)
    x, y, a, b = np.indices((2,) * 4)
    pr = [0.5 * (a ^ b == (x & y) ^ (beta & x) ^ (gamma & y) ^ d)
          for beta, gamma, d in product((0, 1), repeat=3)]
    return np.concatenate([deterministic, pr])


@lru_cache(maxsize=1)
def hybrid_vertices() -> VertexSet:
    """All 288 vertices, ordered by bipartition, then box, then single-party response.

    The simplex breaks ties by column index, so this order fixes the digits of
    LP certificates.
    """
    z, c = np.indices((2, 2))
    # the 4 deterministic single-party responses c = slope*z ^ off, indexed [n, z, c]
    responses = np.array([c == (slope & z) ^ off for slope, off in product((0, 1), repeat=2)],
                         dtype=float)
    boxes = _bipartite_boxes(responses)
    products = (np.einsum("nxyab,mzc->nmxyzabc", boxes, responses),   # AB|C
                np.einsum("nxzac,myb->nmxyzabc", boxes, responses),   # AC|B
                np.einsum("nyzbc,mxa->nmxyzabc", boxes, responses))   # BC|A
    vectors = np.concatenate(products).reshape(-1, 64)
    index = np.repeat(np.arange(len(BIPARTITIONS)), len(vectors) // len(BIPARTITIONS))
    constraints = np.vstack([vectors.T, np.ones((1, len(vectors)))])
    for array in (vectors, index, constraints):
        array.setflags(write=False)
    return VertexSet(vectors, index, constraints)


@dataclass(frozen=True)
class DecompositionResult:
    """A membership verdict, returned only after its evidence was checked.

    Local (feasible): mixture weights over the vertices (>= 0, summing to 1)
    and their max-abs reconstruction residual (< RESIDUAL_ATOL).  Nonlocal: a
    functional s over the 64 table entries, its source, bound = max over the
    vertices of s.v and margin = s.p - bound (> VIOLATION_GUARD).  The other
    verdict's fields are None.  The certificate text and the mixture mass per
    bipartition are made from the evidence when read.
    """

    feasible: bool
    weights: np.ndarray | None = None
    residual: float | None = None
    functional: np.ndarray | None = None
    source: str | None = None
    bound: float | None = None
    margin: float | None = None

    def __post_init__(self):
        for name in ("weights", "functional"):
            if getattr(self, name) is not None:
                array = np.asarray(getattr(self, name), dtype=float).copy()
                array.setflags(write=False)
                object.__setattr__(self, name, array)

    @property
    def group_weights(self) -> dict[str, float] | None:
        if self.weights is None:
            return None
        masses = np.bincount(hybrid_vertices().bipartition_index, weights=self.weights)
        return dict(zip(BIPARTITIONS, masses.tolist()))

    @property
    def certificate(self) -> str:
        if self.feasible:
            return (f"nonsignal-local: decomposition with residual {self.residual:.3e}; "
                    + ", ".join(f"{k} mass {v:.6f}" for k, v in self.group_weights.items()))
        return (f"genuinely nonsignal nonlocal: {self.source}; separating functional with "
                f"bound {self.bound:.12g}, margin {self.margin:.6e}")


def _local(vertex_set: VertexSet, weights: np.ndarray,
           target: np.ndarray) -> DecompositionResult | None:
    """The local verdict, if the weights are a convex mixture that rebuilds the target."""
    residual = float(np.max(np.abs(vertex_set.vectors.T @ weights - target)))
    if not (weights.min() >= 0.0 and abs(weights.sum() - 1.0) <= RESIDUAL_ATOL
            and residual < RESIDUAL_ATOL):
        return None
    return DecompositionResult(True, weights=weights, residual=residual)


def _nonlocal(vertex_set: VertexSet, functional: np.ndarray, target: np.ndarray,
              source: str) -> DecompositionResult | None:
    """The nonlocal verdict, if the functional separates the target from every vertex."""
    bound = float(np.max(vertex_set.vectors @ functional))
    margin = float(functional @ target) - bound
    if not margin > VIOLATION_GUARD:
        return None
    return DecompositionResult(False, functional=functional, source=source, bound=bound,
                               margin=margin)


@dataclass
class WarmStart:
    """A run's latest local LP, whose final tableau the run's next LP continues from."""

    lp: simplex.LpResult | None = None


def lp_feasible(table: BehaviorTable, *, warm: WarmStart | None = None) -> DecompositionResult:
    """Decide membership of a behavior in the hybrid polytope, with a checked certificate.

    Each image of the inequality under the scenario's symmetries is a facet
    of the polytope, so a table that violates one is nonlocal without an LP:
    the image is the separating functional (bound 3).  Otherwise, given warm,
    the LP is first re-solved from warm.lp's final tableau by a few dual
    pivots; weights from it that rebuild the table are the local verdict.
    Otherwise (it ends infeasible, stops at its pivot cap, or its weights do
    not verify) one cold feasibility LP decides: its weights make a local
    verdict, its Farkas dual (scaled to max-abs 1) a nonlocal one.  Each LP
    behind a local verdict replaces warm.lp.
    Each certificate is checked with numpy before it is returned; when it
    does not hold the verdict is undecided and RuntimeError is raised.
    """
    vertex_set = hybrid_vertices()
    functionals, symmetries = symmetry_orbit()
    target = table.probs.reshape(64)
    values = functionals @ target
    worst = int(np.argmax(values))
    if is_violation(values[worst]):
        source = (f"relabeling {symmetry_name(symmetries[worst])} "
                  f"gives NS2 = {values[worst]:.12g} > 3")
        verdict = _nonlocal(vertex_set, functionals[worst], target, source)
        if verdict is None:
            raise RuntimeError(f"undecided: {source}, but its functional does not separate "
                               f"the table by more than {VIOLATION_GUARD}")
        return verdict

    b = np.append(target, 1.0)
    if warm is not None and warm.lp is not None:
        result = simplex.resolve(warm.lp, b, tol=RESIDUAL_ATOL)
        if result is not None and result.feasible:
            verdict = _local(vertex_set, result.x, target)
            if verdict is not None:
                warm.lp = result
                return verdict

    result = simplex.solve(vertex_set.constraints, b, tol=RESIDUAL_ATOL)
    if result.feasible:
        verdict = _local(vertex_set, result.x, target)
        if verdict is not None and warm is not None:
            warm.lp = result
    else:
        functional = result.farkas[:-1]
        scale = float(np.max(np.abs(functional)))
        verdict = None
        if scale > 0.0:
            verdict = _nonlocal(vertex_set, functional / scale, target,
                                f"LP Farkas dual, phase-1 infeasibility {result.infeasibility:.3e}")
    if verdict is None:
        kind = "weights" if result.feasible else "Farkas dual"
        raise RuntimeError(f"undecided: the LP's {kind} do not verify as a certificate "
                           f"(phase-1 infeasibility {result.infeasibility:.3e})")
    return verdict
