"""Sequential measurement engine: Lüders updates and behavior extraction.

Each round, Charlie draws one of his two inputs uniformly at random, measures,
and forwards his qubit.  Averaged over input and outcome the state update is

    rho -> 1/2 sum_{z,c} (I (x) I (x) sqrt(F_{c|z})) rho (I (x) I (x) sqrt(F_{c|z})),

which is trace preserving and completely positive.  Alice and Bob never update
the state; their statistics enter only through the behavior table.

run_stack evolves a stack of N sequences, each with its own initial state and
Charlie angle, round by round, as (N, 8, 8) arrays.  Every array operation
acts on each member of the stack exactly as it would on that member alone, so
a table of the stack is bit-identical to the same table computed with N = 1;
behavior, luders_update and run_sequence are those N = 1 calls, on a state
given as an 8x8 array.

A table entry is the 64-term sum over (p, q, r, s, t, u) of
((rho[pqrstu] X[x,a,s,p]) Y[y,b,t,q]) Z[z,c,u,r], 4,096 terms per table, and
_behavior_stack returns the bits of numpy's unoptimized einsum of it: that
einsum adds an entry's terms one at a time, from +0, in C order over
(p, q, r, s, t, u), and so does the kernel.  Alice's and Bob's effects have
exact zeros, which leave 4, 16 or 64 nonzero terms per entry (1,600 per
table), and the kernel skips those terms.  It also skips every term whose
state entry is exactly zero in every member of the stack: one plan per such
sparsity pattern, so a GGHZ stack keeps 104 terms per table in round 1 and
416 after a Lüders round, and a dense state keeps all 1,600.  A skipped term
is +0 or -0 (rho, X, Y and Z are finite), and adding it changes nothing: the
running sum starts at +0 and a rounded sum is -0 only when both addends are,
so the sum never holds -0, and an entry with no terms left is +0.

The no-signaling check adds each marginal's 2 or 4 table entries in a fixed
order and takes, per marginal family, the largest |difference| of a marginal
between two settings of the inputs that must not matter: 16 such differences
per pair family, 24 per single-party one.  That is the marginal's max - min
over those settings.  The kernel and the check share one plan, _sum_plan: a
gather of fixed rows, then each output's terms added one by one.  Every step
is elementwise over the stack, with no reduction along a table's axes and no
BLAS call, so a table of the stack has the same bits in any stack.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from .measurements import IDENTITY_2, GammaSchedule, charlie_setting
from .states import check_densities

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

# states per pass of the behavior kernel: its two term buffers of at most 1,600
# rows, made once per call, stay at 400 kB each or less however large the stack
BEHAVIOR_CHUNK = 32


def _sum_plan(terms_of) -> tuple[np.ndarray, tuple]:
    """A gather index and groups that make output o the sum of the terms terms_of[o].

    The outputs are grouped by term count; a group (outputs, count) takes
    count blocks of the index, one per term position in list order, of one
    row per output, and the groups follow one another.
    """
    counts = [len(terms) for terms in terms_of]
    groups = tuple((np.flatnonzero(np.equal(counts, n)), n) for n in sorted(set(counts)))
    return np.concatenate([np.array([terms_of[o] for o in outputs]).T.ravel()
                           for outputs, _ in groups]), groups


def _add_terms(terms: np.ndarray, groups: tuple, out: np.ndarray) -> None:
    """out[o] = the sum of output o's terms, gathered by a _sum_plan index, for its groups.

    terms is C-ordered with the gathered rows outermost, so that add.reduce
    adds each output's terms one by one in list order (along an inner axis it
    would sum pairwise).
    """
    row = 0
    for outputs, count in groups:
        # an output with no terms sums the empty block to add.reduce's +0
        block = terms[row:row + count * len(outputs)].reshape(count, len(outputs), terms.shape[1])
        out[outputs] = np.add.reduce(block, axis=0)
        row += count * len(outputs)


@lru_cache(maxsize=8)
def _behavior_plan(mask: bytes) -> tuple:
    """The live terms of all 64 entries, (rho_index, x_factor, y_factor, z_index, groups).

    mask is the bytes of a bool array over the 64 flat state entries, true
    where some state of the stack is nonzero.  A term is live where Alice's
    factor, Bob's factor and the mask at its rho index are all nonzero.  Row i
    of the four term arrays is one term of _sum_plan's index: rho_index into
    the flat state, x_factor and y_factor from Alice's and Bob's effects,
    z_index into Charlie's flat (z, c, i, j) effects.  An entry lists its
    terms in C order over (p, q, r, s, t, u), and may list none.  Built on
    first use of each mask.
    """
    # every (entry, term) pair, the entry in C order over (x, y, z, a, b, c) and
    # the term in C order over (p, q, r, s, t, u), which is also its rho index
    x, y, z, a, b, c, p, q, r, s, t, u = np.indices((2,) * 12).reshape(12, 4096)
    x_factor, y_factor = _AB_EFFECTS[x, a, s, p], _AB_EFFECTS[y, b, t, q]
    z_index = ((z * 2 + c) * 2 + u) * 2 + r
    live = ((x_factor != 0.0) & (y_factor != 0.0)).reshape(64, 64) & np.frombuffer(mask, bool)
    index, groups = _sum_plan([np.flatnonzero(live[e]) + 64 * e for e in range(64)])
    plan = (index % 64, x_factor[index, None], y_factor[index, None], z_index[index])
    for array in plan:
        array.setflags(write=False)
    return plan + (groups,)


_MARGINAL_FAMILIES = (
    # (outcome axes summed out, input axes that must not matter, label)
    ((5,), (2,), "P(ab|xy) vs z"),
    ((4,), (1,), "P(ac|xz) vs y"),
    ((3,), (0,), "P(bc|yz) vs x"),
    ((4, 5), (1, 2), "P(a|x) vs y,z"),
    ((3, 5), (0, 2), "P(b|y) vs x,z"),
    ((3, 4), (0, 1), "P(c|z) vs x,y"),
)


@lru_cache(maxsize=1)
def _no_signaling_plan() -> tuple:
    """The six families' marginals and their differences, (index, left, right, starts, groups).

    A marginal sums the table entries of one setting of its family's kept
    inputs and outcomes and of the inputs that must not matter, in C order
    over the summed outcomes; index and groups are _sum_plan's for the 144
    marginals, family by family.  Difference i is marginal left[i] minus
    marginal right[i]; a family's run from its entry in starts to the next.
    Built on first use.
    """
    entries = np.arange(64).reshape((2,) * 6)
    marginals, pairs, starts = [], [], []
    for outcome_axes, input_axes, _ in _MARGINAL_FAMILIES:
        kept = [axis for axis in range(6) if axis not in outcome_axes + input_axes]
        # [kept setting, setting of the inputs that must not matter, term]
        family = entries.transpose(kept + list(input_axes) + list(outcome_axes)).reshape(
            2 ** len(kept), 2 ** len(input_axes), 2 ** len(outcome_axes))
        starts.append(len(pairs))
        for settings in family:
            first = len(marginals)
            marginals.extend(settings)
            pairs.extend(combinations(range(first, len(marginals)), 2))
    index, groups = _sum_plan(marginals)
    plan = (index, *np.array(pairs).T.copy(), np.array(starts))
    for array in plan:
        array.setflags(write=False)
    return plan + (groups,)


def no_signaling_residuals(probs: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Largest input-dependence over all single- and two-party marginals, per table.

    probs is a stack of shape (N, 2, 2, 2, 2, 2, 2).  Returns the N residuals
    and, per table, the label of its worst marginal family (the first on ties),
    as the module docstring describes.
    """
    index, left, right, starts, groups = _no_signaling_plan()
    n = len(probs)
    marginals = np.empty((sum(len(outputs) for outputs, _ in groups), n))
    _add_terms(np.take(probs.reshape(n, 64).T, index, axis=0), groups, marginals)
    spread = np.take(marginals, left, axis=0)
    spread -= np.take(marginals, right, axis=0)
    np.abs(spread, out=spread)
    residuals = np.maximum.reduceat(spread, starts, axis=0)
    worst = residuals.argmax(axis=0)
    return residuals[worst, np.arange(n)], [_MARGINAL_FAMILIES[i][2] for i in worst]


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
    for bad, rule in ((~np.isfinite(flat), "must be finite"),
                      (flat < ENTRY_FLOOR, f"must be >= {ENTRY_FLOOR}")):
        if bad.any():
            n, i = np.argwhere(bad)[0]
            raise ValueError(f"behavior entry ({TABLE_KEYS[i]}) {rule}, got {float(flat[n, i])!r}")
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


def no_signaling_residual(table: BehaviorTable) -> tuple[float, str]:
    """no_signaling_residuals of one table: (residual, label of the worst marginal family)."""
    residuals, labels = no_signaling_residuals(table.probs[None])
    return float(residuals[0]), labels[0]


def _behavior_stack(rhos: np.ndarray, effects: np.ndarray) -> np.ndarray:
    """P(abc|xyz) = tr[rho (X_{a|x} (x) Y_{b|y} (x) Z_{c|z})] for every state of the stack.

    rhos (N, 8, 8) and effects (N, 2, 2, 2, 2) must be finite.  Returns a
    C-contiguous (N, 2, 2, 2, 2, 2, 2) stack with the bits of the unoptimized
    einsum (see the module docstring), BEHAVIOR_CHUNK states at a time, from
    the plan of the stack's nonzero state entries.
    """
    n = len(rhos)
    flat = rhos.reshape(n, 64)
    rho_index, x_factor, y_factor, z_index, groups = _behavior_plan(flat.any(axis=0).tobytes())
    rows = len(rho_index)
    tables = np.empty((64, n))
    rho_t, z_t = flat.T, effects.reshape(n, 16).T
    # two arrays, not one of twice the size, which raised a run's peak RSS by 0.4 MB
    buffers = [np.empty(rows * min(BEHAVIOR_CHUNK, n)) for _ in range(2)]
    for start in range(0, n, BEHAVIOR_CHUNK):
        width = min(BEHAVIOR_CHUNK, n - start)
        chunk = slice(start, start + width)
        # a contiguous head of each buffer: a column slice would make _add_terms' reshape copy
        terms, z_terms = (buffer[:rows * width].reshape(rows, width) for buffer in buffers)
        # "clip" spares take a buffered copy, and the indices are valid
        np.take(rho_t[:, chunk], rho_index, axis=0, out=terms, mode="clip")
        terms *= x_factor
        terms *= y_factor
        terms *= np.take(z_t[:, chunk], z_index, axis=0, out=z_terms, mode="clip")
        _add_terms(terms, groups, tables[:, chunk])
    return np.ascontiguousarray(tables.T).reshape((n,) + (2,) * 6)


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


def _stack_of_one(rho) -> np.ndarray:
    """The 8x8 state rho as a stack (1, 8, 8), not yet checked; refuses by rho's own shape."""
    rho = np.asarray(rho)
    if np.issubdtype(rho.dtype, np.number) and rho.ndim != 2:
        raise ValueError(f"tripartite state must be 8x8, got {rho.shape}")
    return rho[None]


def luders_update(rho, theta: float, gamma_k: float) -> np.ndarray:
    """The 8x8 state rho after one Charlie round averaged over his random input choice."""
    _, roots = charlie_setting((theta,), gamma_k)
    return check_densities(_luders_stack(check_densities(_stack_of_one(rho)), roots))[0]


def behavior(rho, theta: float, gamma_k: float) -> BehaviorTable:
    """Full behavior P(abc|xyz) = tr[rho (X_{a|x} (x) Y_{b|y} (x) Z_{c|z})] of an 8x8 state."""
    effects, _ = charlie_setting((theta,), gamma_k)
    return BehaviorTable(_behavior_stack(check_densities(_stack_of_one(rho)), effects)[0])


def check_thetas(thetas) -> None:
    """Refuses the first Charlie angle outside (0, pi/2)."""
    for theta in thetas:
        if not 0.0 < theta < np.pi / 2:
            raise ValueError(f"theta must lie in (0, pi/2), got {float(theta)!r}")


def run_stack(rhos, thetas, schedule: GammaSchedule, rounds: int) -> Iterator[np.ndarray]:
    """Behavior tables of rounds 1..rounds for every member (rhos[n], thetas[n]).

    rhos is the (N, 8, 8) stack of initial density operators, checked once by
    check_densities; member n starts from rhos[n] and measures at Charlie angle
    thetas[n], and all share the schedule.  Yields, round by round, an array of
    shape (N, 2, 2, 2, 2, 2, 2) whose tables passed the BehaviorTable checks;
    the states behind them passed check_densities.
    """
    rhos = check_densities(rhos)
    if len(rhos) != len(thetas):
        raise ValueError(f"run_stack needs one initial state per theta, got {len(rhos)} "
                         f"states for {len(thetas)} thetas")
    if isinstance(rounds, bool) or not isinstance(rounds, (int, np.integer)) or rounds < 1:
        raise ValueError(f"rounds must be an integer of at least 1, got {rounds!r}")
    if rounds > schedule.valid_upto:
        raise ValueError(
            f"rounds={rounds} exceeds the schedule's valid prefix "
            f"(valid_upto={schedule.valid_upto})"
        )
    check_thetas(thetas)
    for k in range(rounds):
        effects, roots = charlie_setting(thetas, schedule.gammas[k])
        tables = _behavior_stack(rhos, effects)
        _check_tables(tables)
        yield tables
        if k + 1 < rounds:
            rhos = check_densities(_luders_stack(rhos, roots))


def run_sequence(initial, theta: float, schedule: GammaSchedule,
                 rounds: int) -> list[BehaviorTable]:
    """Tables of rounds 1..rounds from the 8x8 state initial; round k+1 sees the round-k update."""
    stack = run_stack(_stack_of_one(initial), (theta,), schedule, rounds)
    return [BehaviorTable._from_checked(tables[0]) for tables in stack]
