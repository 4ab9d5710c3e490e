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

# charlie_setting stays importable from here: perfbench/layers.py wraps engine.charlie_setting
from .measurements import GammaSchedule, alice_bob_setting, charlie_setting, charlie_stacks  # noqa: F401
from .states import TripartiteState, check_densities

ENTRY_FLOOR = -1e-12
NORMALIZATION_ATOL = 1e-12
NO_SIGNALING_ATOL = 1e-10
IMAGINARY_ATOL = 1e-10

# "xyz;abc" names of the 64 entries, in C order over (x, y, z, a, b, c)
TABLE_KEYS = tuple(f"{x}{y}{z};{a}{b}{c}" for x, y, z, a, b, c in product((0, 1), repeat=6))


def _ab_stack() -> np.ndarray:
    stack = np.empty((2, 2, 2, 2), dtype=complex)
    for x in (0, 1):
        m0, m1 = alice_bob_setting("A", x).matrices()
        stack[x, 0] = m0
        stack[x, 1] = m1
    return stack


_AB_EFFECTS = _ab_stack()  # identical for Alice and Bob

# all indices but the stack's n are binary, so the unoptimized kernel (4096
# terms per table) beats einsum's path machinery
_BEHAVIOR_SUBSCRIPTS = "npqrstu,xasp,ybtq,nzcur->nxyzabc"


def _check_tables(probs: np.ndarray) -> None:
    """BehaviorTable's checks on a stack of shape (N, 2, 2, 2, 2, 2, 2).

    Entries must be finite and >= ENTRY_FLOOR, and every (x, y, z) block must
    sum to 1.  Raises for the first table that fails.
    """
    flat = probs.reshape(len(probs), 64)
    finite = np.isfinite(flat)
    if not finite.all():
        n, i = np.argwhere(~finite)[0]
        raise ValueError(f"behavior entry ({TABLE_KEYS[i]}) must be finite, got {flat[n, i]!r}")
    mins = flat.min(axis=1)
    low = mins < ENTRY_FLOOR
    if low.any():
        raise ValueError(f"behavior entries must be >= {ENTRY_FLOOR}, min is {mins[low.argmax()]!r}")
    sums = probs.sum(axis=(4, 5, 6))
    deviation = np.abs(sums - 1.0)
    off = deviation.reshape(len(probs), 8).max(axis=1) > NORMALIZATION_ATOL
    if off.any():
        n = off.argmax()
        worst = np.unravel_index(np.argmax(deviation[n]), sums[n].shape)
        raise ValueError(f"block (x,y,z)={worst} sums to {sums[n][worst]!r}, expected 1")


@dataclass(frozen=True)
class BehaviorTable:
    """Conditional probabilities P(abc|xyz) for one round, indexed [x,y,z,a,b,c]."""

    probs: np.ndarray
    round_index: int = 1

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float).copy()
        if p.shape != (2, 2, 2, 2, 2, 2):
            raise ValueError(f"behavior table must have shape (2,)*6, got {p.shape}")
        _check_tables(p[None])
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    def as_vector(self) -> np.ndarray:
        """The 64 probabilities in C order over (x, y, z, a, b, c)."""
        return self.probs.reshape(64).copy()

    @classmethod
    def from_vector(cls, vector, round_index: int = 1) -> "BehaviorTable":
        vec = np.asarray(vector, dtype=float)
        if vec.shape != (64,):
            raise ValueError(f"expected 64 probabilities, got shape {vec.shape}")
        return cls(vec.reshape(2, 2, 2, 2, 2, 2), round_index)

    def flip_outcomes(self, flip_a: bool = False, flip_b: bool = False,
                      flip_c: bool = False) -> "BehaviorTable":
        """Relabel outcomes a -> 1-a (and/or b, c) for every input."""
        p = self.probs
        if flip_a:
            p = p[:, :, :, ::-1, :, :]
        if flip_b:
            p = p[:, :, :, :, ::-1, :]
        if flip_c:
            p = p[:, :, :, :, :, ::-1]
        return BehaviorTable(p.copy(), self.round_index)


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


def no_signaling_residual(table: BehaviorTable) -> tuple[float, str]:
    """no_signaling_residuals of one table: (residual, label of the worst marginal family)."""
    residuals, labels = no_signaling_residuals(table.probs[None])
    return float(residuals[0]), labels[0]


def _behavior_stack(rhos: np.ndarray, effects: np.ndarray) -> np.ndarray:
    """P(abc|xyz) = tr[rho (X_{a|x} (x) Y_{b|y} (x) Z_{c|z})] for every state of the stack."""
    rho6 = rhos.reshape((len(rhos),) + (2,) * 6)
    probs = np.einsum(_BEHAVIOR_SUBSCRIPTS, rho6, _AB_EFFECTS, _AB_EFFECTS, effects,
                      optimize=False)
    imag = np.abs(probs.imag).reshape(len(rhos), 64).max(axis=1)
    large = imag > IMAGINARY_ATOL
    if large.any():
        raise ValueError(
            f"behavior probabilities acquired imaginary parts ({float(imag[large.argmax()])!r})"
        )
    return probs.real


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
    _, roots = charlie_stacks((theta,), gamma_k)
    return TripartiteState(_luders_stack(state.rho[None], roots)[0], label=state.label)


def behavior(state: TripartiteState, theta: float, gamma_k: float,
             round_index: int = 1) -> BehaviorTable:
    """Full behavior P(abc|xyz) = tr[rho (X_{a|x} (x) Y_{b|y} (x) Z_{c|z})]."""
    if not isinstance(state, TripartiteState):
        raise TypeError("behavior expects a TripartiteState")
    effects, _ = charlie_stacks((theta,), gamma_k)
    return BehaviorTable(_behavior_stack(state.rho[None], effects)[0], round_index)


def _check_run(thetas, schedule: GammaSchedule, rounds: int) -> None:
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


@dataclass(frozen=True)
class SequentialScenario:
    """A run plan: initial state, Charlie angle, sharpness schedule, round count."""

    initial: TripartiteState
    theta: float
    schedule: GammaSchedule
    rounds: int

    def __post_init__(self):
        _check_run((self.theta,), self.schedule, self.rounds)


def run_stack(initial: TripartiteState, thetas, schedule: GammaSchedule,
              rounds: int) -> Iterator[np.ndarray]:
    """Behavior tables of rounds 1..rounds for every Charlie angle in thetas.

    All sequences start from initial and share the schedule; they evolve
    together as one (N, 8, 8) stack.  Yields, round by round, an array of
    shape (N, 2, 2, 2, 2, 2, 2) whose tables passed the BehaviorTable checks;
    the states behind them passed the TripartiteState checks.
    """
    _check_run(thetas, schedule, rounds)
    rhos = np.repeat(initial.rho[None], len(thetas), axis=0)
    for k in range(rounds):
        effects, roots = charlie_stacks(thetas, schedule.gammas[k])
        tables = np.ascontiguousarray(_behavior_stack(rhos, effects))
        _check_tables(tables)
        yield tables
        if k + 1 < rounds:
            rhos = _luders_stack(rhos, roots)
            check_densities(rhos)


def run_sequence(scenario: SequentialScenario) -> list[BehaviorTable]:
    """Behavior tables for rounds 1..n; round k+1 sees the round-k Lüders update."""
    stack = run_stack(scenario.initial, (scenario.theta,), scenario.schedule, scenario.rounds)
    return [BehaviorTable(tables[0], k) for k, tables in enumerate(stack, start=1)]
