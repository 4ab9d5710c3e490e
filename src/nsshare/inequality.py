"""The five-correlator inequality, its images under the scenario's symmetries, its closed forms.

The inequality reads

    <X0 Y0> + <X0 Z0> + <Y0 Z1> - <X1 Y1 Z0> + <X1 Y1 Z1> <= 3

over behaviors admitting a hybrid (bipartite-nonsignaling x single-party)
model.  Two-party correlators marginalize the excluded party with its input
fixed to 0, which is convention-free exactly when the table is non-signaling.
Every function here takes checked tables (run_stack's stacks or
BehaviorTable.probs), and engine._check_tables refuses signaling ones.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product

import numpy as np

from .engine import BehaviorTable
from .engine import no_signaling_residual  # noqa: F401  (perfbench/layers.py wraps it here)

NS2_BOUND = 3.0
VIOLATION_GUARD = 1e-12

# the five correlators: the parties whose outcomes they multiply and the
# inputs xyz of their block, an excluded party's input fixed to 0
_NS2_CORRELATORS = (("AB", "000"), ("AC", "000"), ("BC", "001"), ("ABC", "110"), ("ABC", "111"))
_OUTCOMES = dict(zip("ABC", np.indices((2, 2, 2)).reshape(3, 8)))  # a block's 8 entries
# each correlator's entries of the flat table and their signs, shape (5, 8)
_NS2_INDEX = np.array([8 * int(inputs, 2) + np.arange(8) for _, inputs in _NS2_CORRELATORS])
_NS2_SIGNS = np.array([(-1.0) ** sum(_OUTCOMES[party] for party in parties)
                       for parties, _ in _NS2_CORRELATORS])


def symmetry_name(symmetry) -> str:
    """Names a symmetry: per party its outcome flips, then its input swap; then the party order.

    symmetry is a row of symmetry_orbit()'s table: the party order (new party
    i is old party order[i]) and one code per party, 4*swap + 2*flip0 + flip1
    as symmetry_orbit applies it.
    """
    symmetry = np.asarray(symmetry).tolist()
    order, local = symmetry[:3], symmetry[3:]
    parts = []
    for outcome, input_name, code in zip("abc", "xyz", local):
        flips = [input_bit for input_bit in (0, 1) if code >> (1 - input_bit) & 1]
        if flips == [0, 1]:
            parts.append(f"flip {outcome}")
        elif flips:
            parts.append(f"flip {outcome}|{input_name}={flips[0]}")
        if code >> 2:
            parts.append(f"swap {input_name}")
    if order != [0, 1, 2]:
        parts.append("parties " + "".join("ABC"[p] for p in order))
    return " + ".join(parts) or "identity"


@lru_cache(maxsize=1)
def symmetry_orbit() -> tuple[np.ndarray, np.ndarray]:
    """The inequality's distinct images under the scenario's symmetries.

    A symmetry is a party order (new party i is old party order[i]) and, per old
    party, a code 4*swap + 2*flip0 + flip1: relabeled entry j (bits x y z a b c,
    most significant first) reads the original entry whose input bit for that
    party is input ^ swap and whose outcome bit is outcome ^ flip[input ^ swap].
    Each symmetry maps the hybrid polytope onto itself (the bipartitions onto
    each other), so every image is again a valid inequality with bound 3.
    Returns the 768 distinct images as functionals of the 64 table entries,
    shape (768, 64), and a symmetry that makes each, shape (768, 6) (see
    symmetry_name): row r of the first dotted with probs.reshape(64) is the
    inequality's value on the table that row r of the second relabels.  Each
    image comes with a symmetry of the fewest operations (an outcome flip at
    one input, an input swap, a new party order), and the identity comes
    first.  Built on first use, so runs that certify nothing never allocate it.
    """
    orders = np.array(list(permutations(range(3))), dtype=np.uint8)
    local = np.array(list(product(range(8), repeat=3)), dtype=np.uint8)
    bits = np.arange(64, dtype=np.uint8) >> np.arange(5, -1, -1, dtype=np.uint8)[:, None] & 1
    codes = np.arange(8, dtype=np.uint8)[:, None]
    # the rule per [order, old party, code, entry]: an old party reads its new party's bits
    new_party = np.argsort(orders, axis=1)
    inputs = bits[new_party][:, :, None] ^ (codes >> 2)
    outcomes = bits[3 + new_party][:, :, None] ^ (codes >> (1 - inputs) & 1)
    party = np.arange(3, dtype=np.uint8)[:, None, None]
    a, b, c = (inputs << (5 - party) | outcomes << (2 - party)).transpose(1, 0, 2, 3)
    # operations per symmetry: each set bit of a local code, and a new party order
    costs = np.unpackbits(local, axis=1).sum(axis=1)[None, :] + (np.arange(6) > 0)[:, None]
    ranked = np.argsort(costs.reshape(-1), kind="stable")
    # each party sets only its own bits, so a code per party ORs them: row 512 * order
    # + local, taken in cost order
    sources = (a[:, :, None, None] | b[:, None, :, None] | c[:, None, None, :]).reshape(-1, 64)
    sources = sources[ranked]

    # relabeled entry j's coefficient (exact integers in -2..2) goes to its original
    # entry; sources is freed before np.unique sorts
    base = ns2_values(np.eye(64).reshape((64,) + (2,) * 6)).astype(np.int8)
    images = np.zeros(sources.shape, dtype=np.int8)
    np.put_along_axis(images, sources, base[None], axis=1)
    del sources
    # np.unique sorts stably, so each image keeps its first symmetry in cost
    # order; a row read as one 64-byte value sorts faster than by axis=0
    first = np.sort(np.unique(images.view("V64")[:, 0], return_index=True)[1])
    keep = ranked[first]
    functionals = images[first].astype(float)
    functionals.setflags(write=False)
    symmetries = np.hstack([orders[keep // 512], local[keep % 512]])
    symmetries.setflags(write=False)
    return functionals, symmetries


def ns2_values(probs: np.ndarray) -> np.ndarray:
    """The five-term combination for every table in a stack (N, 2, 2, 2, 2, 2, 2)."""
    # take's (N, 5, 8) result is C-ordered, so sum adds each correlator's 8
    # terms pairwise, the same bits for a table in any stack
    terms = np.take(probs.reshape(len(probs), 64), _NS2_INDEX, axis=1) * _NS2_SIGNS
    ab, ac, bc, abc0, abc1 = terms.sum(axis=2).T
    return ab + ac + bc - abc0 + abc1


def ns2_value(table: BehaviorTable) -> float:
    """The five-term combination; hybrid-model behaviors satisfy <= 3."""
    return float(ns2_values(table.probs[None])[0])


def is_violation(value: float | np.ndarray) -> bool | np.ndarray:
    return value > NS2_BOUND + VIOLATION_GUARD


def closed_form_ns2(alpha: float | np.ndarray, theta: float | np.ndarray, gammas) -> np.ndarray:
    """Predicted inequality value on the GGHZ state at each round k >= 1 (row k-1, prod_{j<1} = 1).

    1 + [cos t + sin t sin 2a] (prod_{j<k}(1 + sqrt(1-gamma_j^2)) + gamma_k) / 2^(k-1)

    alpha and theta may each be one angle or an array of them; a row has
    their broadcast shape, and each (alpha, theta) value is the same bit for
    bit whichever arrays it comes from.
    Exact at t = pi/4; away from it the true value picks up cos(2t) cross
    terms that this form omits (run reports record the difference).
    """
    gammas = tuple(float(g) for g in gammas)
    if not gammas:
        raise ValueError("gammas must hold at least gamma_1, got ()")
    if any(not 0.0 <= g <= 1.0 for g in gammas):
        raise ValueError(f"gamma_1..gamma_{len(gammas)} must lie in [0, 1], got {gammas!r}")
    base = np.cos(theta) + np.sin(theta) * np.sin(2 * alpha)
    rows = []
    prod = 1.0
    for k, g in enumerate(gammas, start=1):
        rows.append(1.0 + base * (prod + g) / 2.0 ** (k - 1))
        prod *= 1.0 + np.sqrt((1.0 - g) * (1.0 + g))
    return np.array(rows)
