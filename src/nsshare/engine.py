"""Sequential measurement engine: Lüders updates and behavior extraction.

Each round, Charlie draws one of his two inputs uniformly at random, measures,
and forwards his qubit.  Averaged over input and outcome the state update is

    rho -> 1/2 sum_{z,c} (I (x) I (x) sqrt(F_{c|z})) rho (I (x) I (x) sqrt(F_{c|z})),

which is trace preserving and completely positive.  Alice and Bob never update
the state; their statistics enter only through the behavior table.

run_stack evolves a stack of N sequences that differ only in Charlie's angle,
round by round, as (N, 8, 8) arrays.  Every array operation acts on each
member of the stack exactly as it would on that member alone, so a table of
the stack is bit-identical to the same table computed with N = 1;
behavior, luders_update and run_sequence are those N = 1 calls.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import product

import numpy as np

from .measurements import IDENTITY_2, GammaSchedule, charlie_setting
from .states import TripartiteState, check_densities

ENTRY_FLOOR = -1e-12
NORMALIZATION_ATOL = 1e-12
NO_SIGNALING_ATOL = 1e-10

# "xyz;abc" names of the 64 entries, in C order over (x, y, z, a, b, c)
TABLE_KEYS = tuple(f"{x}{y}{z};{a}{b}{c}" for x, y, z, a, b, c in product((0, 1), repeat=6))


_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
# X_{a|x} = (I +- sigma)/2 with sigma_3 for x = 0 and sigma_1 for x = 1, indexed
# [x, a, i, j]; Alice and Bob measure alike
_AB_EFFECTS = np.array([[(IDENTITY_2 + _SIGMA_Z) / 2, (IDENTITY_2 - _SIGMA_Z) / 2],
                        [(IDENTITY_2 + _SIGMA_X) / 2, (IDENTITY_2 - _SIGMA_X) / 2]])

# all indices but the stack's n are binary, so the unoptimized kernel (4096
# terms per table) beats einsum's path machinery
_BEHAVIOR_SUBSCRIPTS = "npqrstu,xasp,ybtq,nzcur->nxyzabc"


_MARGINAL_FAMILIES = (
    # (outcome axes summed out, input axes that must not matter, label)
    ((5,), (2,), "P(ab|xy) vs z"),
    ((4,), (1,), "P(ac|xz) vs y"),
    ((3,), (0,), "P(bc|yz) vs x"),
    ((4, 5), (1, 2), "P(a|x) vs y,z"),
    ((3, 5), (0, 2), "P(b|y) vs x,z"),
    ((3, 4), (0, 1), "P(c|z) vs x,y"),
)
# the same axes in a stack of tables, behind its leading axis
_STACK_FAMILY_AXES = tuple(
    (tuple(a + 1 for a in outcome_axes), tuple(a + 1 for a in input_axes))
    for outcome_axes, input_axes, _ in _MARGINAL_FAMILIES
)


def no_signaling_residuals(probs: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Largest input-dependence over all single- and two-party marginals, per table.

    probs is a stack of shape (N, 2, 2, 2, 2, 2, 2).  Returns the N residuals
    and, per table, the label of its worst marginal family (the first on ties).
    """
    residuals = np.empty((len(_MARGINAL_FAMILIES), len(probs)))
    for residual, (outcome_axes, input_axes) in zip(residuals, _STACK_FAMILY_AXES):
        marginal = probs.sum(axis=outcome_axes)
        spread = marginal.max(axis=input_axes) - marginal.min(axis=input_axes)
        residual[:] = spread.reshape(len(probs), -1).max(axis=1)
    worst = residuals.argmax(axis=0)
    return residuals[worst, np.arange(len(probs))], [_MARGINAL_FAMILIES[i][2] for i in worst]


def _check_tables(probs: np.ndarray) -> None:
    """Decides whether every table of a stack (N, 2, 2, 2, 2, 2, 2) is a valid behavior.

    Entries must be finite and >= ENTRY_FLOOR, every (x, y, z) block must sum
    to 1, and no marginal may depend on another party's input by
    NO_SIGNALING_ATOL or more: the inequality's two-party correlators and the
    hybrid polytope both assume a non-signaling table.  Raises for the first
    table that fails, naming the entry or block by its "xyz;abc" key, or the
    worst marginal family with its residual.
    """
    flat = probs.reshape(len(probs), 64)
    infinite = ~np.isfinite(flat)
    if infinite.any():
        n, i = np.argwhere(infinite)[0]
        raise ValueError(
            f"behavior entry ({TABLE_KEYS[i]}) must be finite, got {float(flat[n, i])!r}"
        )
    low = flat < ENTRY_FLOOR
    if low.any():
        n, i = np.argwhere(low)[0]
        raise ValueError(
            f"behavior entry ({TABLE_KEYS[i]}) must be >= {ENTRY_FLOOR}, got {float(flat[n, i])!r}"
        )
    sums = probs.sum(axis=(4, 5, 6)).reshape(len(probs), 8)
    off = np.abs(sums - 1.0) > NORMALIZATION_ATOL
    if off.any():
        n, block = np.argwhere(off)[0]
        raise ValueError(
            f"block ({TABLE_KEYS[8 * block][:3]};abc) sums to {float(sums[n, block])!r}, expected 1"
        )
    residuals, labels = no_signaling_residuals(probs)
    signaling = residuals >= NO_SIGNALING_ATOL
    if signaling.any():
        n = signaling.argmax()
        raise ValueError(f"table is signaling: {labels[n]} varies by {residuals[n]:.3e} "
                         f"(tolerance {NO_SIGNALING_ATOL})")


@dataclass(frozen=True)
class BehaviorTable:
    """Conditional probabilities P(abc|xyz) for one round, indexed [x,y,z,a,b,c]."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float).copy()
        if p.shape != (2, 2, 2, 2, 2, 2):
            raise ValueError(f"behavior table must have shape (2,)*6, got {p.shape}")
        _check_tables(p[None])
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @classmethod
    def _from_checked(cls, probs: np.ndarray) -> "BehaviorTable":
        """A copy of one table of a stack that _check_tables passed, not checked again."""
        table = object.__new__(cls)
        object.__setattr__(table, "probs", probs.copy())
        table.probs.setflags(write=False)
        return table

    def as_vector(self) -> np.ndarray:
        """The 64 probabilities in C order over (x, y, z, a, b, c)."""
        return self.probs.reshape(64).copy()

    @classmethod
    def from_vector(cls, vector) -> "BehaviorTable":
        vec = np.asarray(vector, dtype=float)
        if vec.shape != (64,):
            raise ValueError(f"expected 64 probabilities, got shape {vec.shape}")
        return cls(vec.reshape(2, 2, 2, 2, 2, 2))


def no_signaling_residual(table: BehaviorTable) -> tuple[float, str]:
    """no_signaling_residuals of one table: (residual, label of the worst marginal family)."""
    residuals, labels = no_signaling_residuals(table.probs[None])
    return float(residuals[0]), labels[0]


def _behavior_stack(rhos: np.ndarray, effects: np.ndarray) -> np.ndarray:
    """P(abc|xyz) = tr[rho (X_{a|x} (x) Y_{b|y} (x) Z_{c|z})] for every state of the stack."""
    rho6 = rhos.reshape((len(rhos),) + (2,) * 6)
    return np.einsum(_BEHAVIOR_SUBSCRIPTS, rho6, _AB_EFFECTS, _AB_EFFECTS, effects,
                     optimize=False)


def _luders_stack(rhos: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """One Charlie round, averaged over his uniformly random input, for every state."""
    out = np.zeros_like(rhos)
    # I_4 (x) sqrt(F_{c|z}) is block diagonal; the Kraus operators are Hermitian.
    # One buffer serves all four, so the stack's peak memory stays low.
    k8 = np.zeros_like(rhos)
    for z in (0, 1):
        for c in (0, 1):
            for block in range(4):
                k8[:, 2 * block:2 * block + 2, 2 * block:2 * block + 2] = roots[:, z, c]
            out += 0.5 * (k8 @ rhos @ k8)
    return out


def luders_update(state: TripartiteState, theta: float, gamma_k: float) -> TripartiteState:
    """One Charlie round averaged over his uniformly random input choice."""
    if not isinstance(state, TripartiteState):
        raise TypeError("luders_update expects a TripartiteState")
    _, roots = charlie_setting((theta,), gamma_k)
    return TripartiteState(_luders_stack(state.rho[None], roots)[0])


def behavior(state: TripartiteState, theta: float, gamma_k: float) -> BehaviorTable:
    """Full behavior P(abc|xyz) = tr[rho (X_{a|x} (x) Y_{b|y} (x) Z_{c|z})]."""
    if not isinstance(state, TripartiteState):
        raise TypeError("behavior expects a TripartiteState")
    effects, _ = charlie_setting((theta,), gamma_k)
    return BehaviorTable(_behavior_stack(state.rho[None], effects)[0])


def run_stack(initial: TripartiteState, thetas, schedule: GammaSchedule,
              rounds: int) -> Iterator[np.ndarray]:
    """Behavior tables of rounds 1..rounds for every Charlie angle in thetas.

    All sequences start from initial and share the schedule; they evolve
    together as one (N, 8, 8) stack.  Yields, round by round, an array of
    shape (N, 2, 2, 2, 2, 2, 2) whose tables passed the BehaviorTable checks;
    the states behind them passed the TripartiteState checks.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be at least 1, got {rounds!r}")
    if rounds > schedule.valid_upto:
        raise ValueError(
            f"rounds={rounds} exceeds the schedule's valid prefix "
            f"(valid_upto={schedule.valid_upto})"
        )
    for theta in thetas:
        if not 0.0 < theta < np.pi / 2:
            raise ValueError(f"theta must lie in (0, pi/2), got {theta!r}")
    rhos = np.repeat(initial.rho[None], len(thetas), axis=0)
    for k in range(rounds):
        effects, roots = charlie_setting(thetas, schedule.gammas[k])
        tables = _behavior_stack(rhos, effects)
        _check_tables(tables)
        yield tables
        if k + 1 < rounds:
            rhos = _luders_stack(rhos, roots)
            check_densities(rhos)


def run_sequence(initial: TripartiteState, theta: float, schedule: GammaSchedule,
                 rounds: int) -> list[BehaviorTable]:
    """Behavior tables for rounds 1..rounds; round k+1 sees the round-k Lüders update."""
    stack = run_stack(initial, (theta,), schedule, rounds)
    return [BehaviorTable._from_checked(tables[0]) for tables in stack]
