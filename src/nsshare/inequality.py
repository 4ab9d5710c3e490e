"""The five-correlator inequality, its closed forms, and the oracle-vs-formula audit.

The inequality reads

    <X0 Y0> + <X0 Z0> + <Y0 Z1> - <X1 Y1 Z0> + <X1 Y1 Z1> <= 3

over behaviors admitting a hybrid (bipartite-nonsignaling x single-party)
model.  Two-party correlators marginalize the excluded party with its input
fixed to 0, which is convention-free exactly when the table is non-signaling;
that precondition is therefore checked, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .engine import (
    NO_SIGNALING_ATOL,
    BehaviorTable,
    SequentialScenario,
    no_signaling_residual,
    no_signaling_residuals,
    run_sequence,
)

NS2_BOUND = 3.0
VIOLATION_GUARD = 1e-12

_PARTY_AXES = {"A": (0, 3), "B": (1, 4), "C": (2, 5)}  # (input axis, outcome axis)


def _sign_tensor(parties: str) -> np.ndarray:
    signs = np.ones((2, 2, 2))
    for a, b, c in product((0, 1), repeat=3):
        parity = sum((a, b, c)[_PARTY_AXES[p][1] - 3] for p in parties)
        signs[a, b, c] = -1.0 if parity % 2 else 1.0
    return signs


_SIGNS = {
    parties: _sign_tensor(parties)
    for parties in ("A", "B", "C", "AB", "AC", "BC", "ABC")
}


class SignalingTableError(ValueError):
    """Raised when a marginal correlator is requested on a signaling table."""

    def __init__(self, residual: float, label: str):
        self.residual = residual
        self.label = label
        super().__init__(
            f"table is signaling: {label} varies by {residual:.3e} "
            f"(tolerance {NO_SIGNALING_ATOL})"
        )


def _require_no_signaling(table: BehaviorTable) -> None:
    residual, label = no_signaling_residual(table)
    if residual >= NO_SIGNALING_ATOL:
        raise SignalingTableError(residual, label)


def _gather(terms) -> tuple[tuple, np.ndarray]:
    """Block index and sign tensors that pick out the given (parties, inputs) correlators."""
    index = np.zeros((3, len(terms)), dtype=int)  # excluded parties' inputs fixed to 0
    for j, (parties, inputs) in enumerate(terms):
        for party, input_bit in zip(parties, inputs):
            index[_PARTY_AXES[party][0], j] = int(input_bit)
    return (slice(None), *index), np.stack([_SIGNS[parties] for parties, _ in terms])


def _correlators(probs: np.ndarray, gather: tuple[tuple, np.ndarray]) -> np.ndarray:
    """Correlators of every table in a stack (N, 2, 2, 2, 2, 2, 2), unchecked: shape (N, terms)."""
    index, signs = gather
    blocks = probs[index] * signs  # shape (N, terms, 2, 2, 2) over (a, b, c)
    return blocks.reshape(len(probs), len(signs), 8).sum(axis=2)


_NS2_TERMS = _gather((("AB", (0, 0)), ("AC", (0, 0)), ("BC", (0, 1)),
                      ("ABC", (1, 1, 0)), ("ABC", (1, 1, 1))))


def correlator(table: BehaviorTable, parties: str, inputs) -> float:
    """(-1)^(sum of outcomes) expectation for a subset of parties at fixed inputs.

    parties is a string over {A, B, C} (e.g. "AC"); inputs the matching bits.
    Excluded parties are marginalized with their input fixed to 0.
    """
    parties = "".join(sorted(parties.upper()))
    if not parties or any(p not in "ABC" for p in parties) or len(set(parties)) != len(parties):
        raise ValueError(f"parties must be a non-empty subset of ABC, got {parties!r}")
    inputs = tuple(int(i) for i in inputs)
    if len(inputs) != len(parties) or any(i not in (0, 1) for i in inputs):
        raise ValueError(f"inputs must supply one bit per party, got {inputs!r}")
    _require_no_signaling(table)
    return float(_correlators(table.probs[None], _gather(((parties, inputs),)))[0, 0])


def ns2_values(probs: np.ndarray) -> np.ndarray:
    """The five-term combination for every table in a stack (N, 2, 2, 2, 2, 2, 2).

    Each table must be non-signaling; the first that is not raises
    SignalingTableError.
    """
    residuals, labels = no_signaling_residuals(probs)
    signaling = residuals >= NO_SIGNALING_ATOL
    if signaling.any():
        n = signaling.argmax()
        raise SignalingTableError(float(residuals[n]), labels[n])
    ab, ac, bc, abc0, abc1 = _correlators(probs, _NS2_TERMS).T
    return ab + ac + bc - abc0 + abc1


def ns2_value(table: BehaviorTable) -> float:
    """The five-term combination; hybrid-model behaviors satisfy <= 3."""
    return float(ns2_values(table.probs[None])[0])


def is_violation(value: float) -> bool:
    return value > NS2_BOUND + VIOLATION_GUARD


def ns2_relabelings(table: BehaviorTable) -> np.ndarray:
    """The inequality value under all 8 per-party outcome relabelings.

    The hybrid polytope is closed under outcome flips, so each relabeled value
    obeys the same bound; exceeding 3 in any of them rules membership out.
    """
    values = []
    for flip_a, flip_b, flip_c in product((False, True), repeat=3):
        values.append(ns2_value(table.flip_outcomes(flip_a, flip_b, flip_c)))
    return np.array(values)


def closed_form_ns2(k: int, alpha: float, theta: float, gammas) -> float:
    """Predicted inequality value on the generalized GHZ state at round k.

    k = 1:  1 + (1 + gamma_1) [cos t + sin t sin 2a]
    k >= 2: 1 + [cos t + sin t sin 2a] (prod_{j<k}(1 + sqrt(1-gamma_j^2)) + gamma_k) / 2^(k-1)

    Exact at t = pi/4; away from it the true value picks up cos(2t) cross
    terms that this form omits (compare() reports the difference).
    """
    gammas = tuple(float(g) for g in gammas)
    if k < 1 or k > len(gammas):
        raise ValueError(f"k must lie in 1..{len(gammas)}, got {k!r}")
    used = gammas[:k]
    if any(not 0.0 <= g <= 1.0 for g in used):
        raise ValueError(f"gamma_1..gamma_{k} must lie in [0, 1], got {used!r}")
    base = np.cos(theta) + np.sin(theta) * np.sin(2 * alpha)
    if k == 1:
        return float(1.0 + (1.0 + used[0]) * base)
    prod = 1.0
    for g in used[:-1]:
        prod *= 1.0 + np.sqrt((1.0 - g) * (1.0 + g))
    return float(1.0 + base * (prod + used[-1]) / 2.0 ** (k - 1))


@dataclass(frozen=True)
class NS2Report:
    """Side-by-side engine value and closed-form value for one round."""

    round_index: int
    oracle_value: float
    closed_form_value: float
    params: dict
    violated: bool = field(init=False)
    discrepancy: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "violated", is_violation(self.oracle_value))
        object.__setattr__(
            self, "discrepancy", abs(self.oracle_value - self.closed_form_value)
        )


def compare(k: int, scenario: SequentialScenario, alpha: float) -> NS2Report:
    """Audit round k: exact engine value vs the closed form, both recorded.

    alpha is the initial-state parameter used by the closed form; the
    discrepancy is reported, never asserted to vanish away from theta = pi/4.
    """
    if not 1 <= k <= scenario.rounds:
        raise ValueError(f"k must lie in 1..{scenario.rounds}, got {k!r}")
    tables = run_sequence(scenario)
    oracle = ns2_value(tables[k - 1])
    gammas = scenario.schedule.gammas
    closed = closed_form_ns2(k, alpha, scenario.theta, gammas)
    params = {
        "alpha": float(alpha),
        "theta": float(scenario.theta),
        "delta": scenario.schedule.delta,
        "epsilon": scenario.schedule.epsilon,
        "gammas": tuple(gammas[:k]),
    }
    return NS2Report(k, oracle, closed, params)
