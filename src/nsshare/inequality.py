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

_PARTY_AXES = {"A": (0, 3), "B": (1, 4), "C": (2, 5)}  # (input axis, outcome axis)

# the five correlators: the parties whose outcomes they multiply and the
# inputs xyz of their block, an excluded party's input fixed to 0
_NS2_CORRELATORS = (("AB", "000"), ("AC", "000"), ("BC", "001"), ("ABC", "110"), ("ABC", "111"))
_OUTCOMES = dict(zip("ABC", np.indices((2, 2, 2)).reshape(3, 8)))  # a block's 8 entries
# each correlator's entries of the flat table and their signs, shape (5, 8)
_NS2_INDEX = np.array([8 * int(inputs, 2) + np.arange(8) for _, inputs in _NS2_CORRELATORS])
_NS2_SIGNS = np.array([(-1.0) ** sum(_OUTCOMES[party] for party in parties)
                       for parties, _ in _NS2_CORRELATORS])


def _party_relabelings(party: str) -> np.ndarray:
    """The 8 relabelings of one party as index maps of the 64 table entries, shape (8, 64).

    Row 4*swap + 2*flip0 + flip1 flips the party's outcome at input 0 and/or
    1, then swaps its inputs.  Relabeled table entry j is original entry row[j].
    """
    input_axis, outcome_axis = _PARTY_AXES[party]
    rows = []
    for swap, *flips in product((0, 1), repeat=3):
        index = np.arange(64, dtype=np.int8).reshape((2,) * 6)
        for input_bit, flip in enumerate(flips):
            if flip:
                block = [slice(None)] * 6
                block[input_axis] = input_bit
                index[tuple(block)] = np.flip(index[tuple(block)], axis=outcome_axis - 1)
        if swap:
            index = np.flip(index, axis=input_axis)
        rows.append(index.reshape(64))
    return np.array(rows)


def symmetry_name(symmetry) -> str:
    """Names a symmetry: per party its outcome flips, then its input swap; then the party order.

    symmetry is a row of symmetry_orbit()'s table: the party order (new party
    i is old party order[i]) and one code per party as in _party_relabelings.
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

    The symmetries are, per party, an outcome flip at either input and an
    input swap (8 relabelings), then a permutation of the parties.  Each maps
    the hybrid polytope onto itself (the bipartitions onto each other), so
    every image is again a valid inequality with bound 3.  Returns the 768
    distinct images as functionals of the 64 table entries, shape (768, 64),
    and a symmetry that makes each, shape (768, 6) (see symmetry_name): row r
    of the first dotted with probs.reshape(64) is the inequality's value on the
    table that row r of the second relabels.  Each image comes with a
    symmetry of the fewest operations (an outcome flip at one input, an input
    swap, a new party order), and the identity comes first.  Built on first
    use, so runs that certify nothing never allocate it.
    """
    # the inequality's coefficient of each entry, exact integers in -2..2
    base = ns2_values(np.eye(64).reshape((64,) + (2,) * 6)).astype(np.int8)
    a, b, c = (_party_relabelings(party) for party in "ABC")
    local_maps = a[:, b[:, c]].reshape(512, 64)
    orders = list(permutations(range(3)))
    entries = np.arange(64, dtype=np.int8).reshape((2,) * 6)
    # images[order, local]: relabel by local first, then reorder the parties
    images = np.zeros((len(orders), 512, 64), dtype=np.int8)
    for order_images, order in zip(images, orders):
        move = np.transpose(entries, order + tuple(p + 3 for p in order)).reshape(64)
        np.put_along_axis(order_images, local_maps[:, move], base, axis=1)
    images = images.reshape(-1, 64)

    local = np.array(list(product(range(8), repeat=3)), dtype=np.uint8)
    # operations per symmetry: each set bit of a local code, and a new party order
    costs = np.unpackbits(local, axis=1).sum(axis=1)[None, :] + (np.arange(6) > 0)[:, None]
    first: dict[bytes, int] = {}
    for i in np.argsort(costs.reshape(-1), kind="stable"):
        first.setdefault(images[i].tobytes(), int(i))
    keep = np.array(list(first.values()))
    functionals = images[keep].astype(float)
    functionals.setflags(write=False)
    symmetries = np.hstack([np.array(orders, dtype=np.uint8)[keep // 512], local[keep % 512]])
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


def closed_form_ns2(k: int, alpha: float | np.ndarray, theta: float | np.ndarray,
                    gammas) -> float | np.ndarray:
    """Predicted inequality value on the generalized GHZ state at round k >= 1 (prod_{j<1} = 1).

    1 + [cos t + sin t sin 2a] (prod_{j<k}(1 + sqrt(1-gamma_j^2)) + gamma_k) / 2^(k-1)

    alpha and theta may each be one angle or an array of them; the value has
    their broadcast shape, and each (alpha, theta) value is the same bit for
    bit whichever arrays it comes from.
    Exact at t = pi/4; away from it the true value picks up cos(2t) cross
    terms that this form omits (run reports record the difference).
    """
    gammas = tuple(float(g) for g in gammas)
    if k < 1 or k > len(gammas):
        raise ValueError(f"k must lie in 1..{len(gammas)}, got {k!r}")
    used = gammas[:k]
    if any(not 0.0 <= g <= 1.0 for g in used):
        raise ValueError(f"gamma_1..gamma_{k} must lie in [0, 1], got {used!r}")
    base = np.cos(theta) + np.sin(theta) * np.sin(2 * alpha)
    prod = 1.0
    for g in used[:-1]:
        prod *= 1.0 + np.sqrt((1.0 - g) * (1.0 + g))
    return 1.0 + base * (prod + used[-1]) / 2.0 ** (k - 1)
