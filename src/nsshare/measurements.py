"""Measurement strategy: party settings, the sharpness schedule and its validity region.

Alice and Bob always measure sharply (sigma_3 for input 0, sigma_1 for input 1).
The k-th Charlie measures sharply along (-sin t, 0, cos t) for input 0 and
unsharply with sharpness gamma_k along (sin t, 0, cos t) for input 1.  The
gamma_k follow a recursion in delta whose validity region shrinks rapidly with
the number of rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import IDENTITY_2, BlochEffect, effect_matrix, sqrt_coefficients

RECURSION_VARIANTS = ("printed", "normalized")

DELTA_MAX = np.pi / 4
BISECTION_RESOLUTION = 1e-6
# below this delta the downward scan gives up; gamma_1 ~ delta/2 so any
# physically meaningful schedule is far above it
DELTA_SEARCH_FLOOR = 1e-300


@dataclass(frozen=True)
class PartySetting:
    """One party's two-outcome measurement for a single input choice."""

    party: str
    input: int
    effects: tuple[BlochEffect, BlochEffect]

    def __post_init__(self):
        if self.party not in ("A", "B", "C"):
            raise ValueError(f"party must be one of A, B, C, got {self.party!r}")
        if self.input not in (0, 1):
            raise ValueError(f"input must be a bit, got {self.input!r}")

    def matrices(self) -> tuple[np.ndarray, np.ndarray]:
        return effect_matrix(self.effects[0]), effect_matrix(self.effects[1])


def alice_bob_setting(party: str, input_bit: int) -> PartySetting:
    """Sharp sigma_3 (input 0) or sigma_1 (input 1) measurement for A or B."""
    if party not in ("A", "B"):
        raise ValueError(f"party must be A or B, got {party!r}")
    direction = (0.0, 0.0, 1.0) if input_bit == 0 else (1.0, 0.0, 0.0)
    outcome0 = BlochEffect(direction, 1.0)
    return PartySetting(party, input_bit, (outcome0, outcome0.complement()))


def charlie_setting(theta: float, gamma_k: float, input_bit: int) -> PartySetting:
    """Charlie's sharp (input 0) or gamma_k-unsharp (input 1) measurement."""
    if not 0.0 <= gamma_k <= 1.0:
        raise ValueError(f"gamma_k must lie in [0, 1], got {gamma_k!r}")
    if input_bit == 0:
        outcome0 = BlochEffect((-np.sin(theta), 0.0, np.cos(theta)), 1.0)
    else:
        outcome0 = BlochEffect((np.sin(theta), 0.0, np.cos(theta)), gamma_k)
    return PartySetting("C", input_bit, (outcome0, outcome0.complement()))


def charlie_stacks(thetas, gamma_k: float) -> tuple[np.ndarray, np.ndarray]:
    """Charlie's effects F_{c|z} and their square roots for a vector of angles.

    Both arrays have shape (N, 2, 2, 2, 2), indexed [n, z, c, i, j].  Entry for
    entry the arithmetic is that of charlie_setting with effect_matrix and
    effect_sqrt, so every matrix equals its single-angle counterpart bit for bit.
    """
    if not 0.0 <= gamma_k <= 1.0:
        raise ValueError(f"gamma_k must lie in [0, 1], got {gamma_k!r}")
    thetas = np.asarray(thetas, dtype=float)
    sin, cos = np.sin(thetas), np.cos(thetas)
    # n.sigma = [[nz, nx], [nx, -nz]]; outcome 0 points along n = (-sin, 0, cos)
    # for z=0 and (sin, 0, cos) for z=1, outcome 1 along -n
    outcome0 = np.array([[[cos, -sin], [-sin, -cos]], [[cos, sin], [sin, -cos]]])  # [z, i, j, n]
    ops = np.stack([outcome0, -outcome0], axis=1).transpose(4, 0, 1, 2, 3)  # [n, z, c, i, j]
    ops = np.ascontiguousarray(ops, dtype=complex)
    sharpness = np.array([1.0, gamma_k])[:, None, None, None]  # per z
    effects = (IDENTITY_2 + sharpness * ops) / 2
    a, b = np.array([sqrt_coefficients(1.0), sqrt_coefficients(gamma_k)]).T[:, :, None, None, None]
    roots = a * IDENTITY_2 + b * ops
    return effects, roots


@dataclass(frozen=True)
class GammaSchedule:
    """Sharpness sequence gamma_1..gamma_m with the largest valid prefix marked.

    gammas holds every computed entry; the first out-of-range entry (if any) is
    kept, entries past it are never computed.  valid_upto is the largest k with
    gamma_1..gamma_k all inside [0, 1].
    """

    delta: float
    epsilon: float
    gammas: tuple[float, ...]
    valid_upto: int
    variant: str = "printed"


def gamma_sequence(delta: float, epsilon: float, n: int, variant: str = "printed") -> GammaSchedule:
    """Sharpness recursion gamma_k = (1+eps)[2^(k-1) - cos(d) prod_{j<k}(1+sqrt(1-gamma_j^2))]/sin(d).

    The "normalized" variant divides the bracket by 2^(k-1).  Both coincide at
    k = 1 with gamma_1 = (1+eps)(1-cos d)/sin d = (1+eps) tan(d/2).

    Evaluation is cancellation-free: with t = sin^2(d/2) and
    q_k = 1 - prod_{j<k}(1+s_j)/2 (s_j = sqrt(1-gamma_j^2)), the bracket equals
    2^(k-1) [q_k + 2t(1-q_k)] exactly, and q is accumulated from
    u_j = gamma_j^2 / (2(1+s_j)) via q <- q + u - q*u.  This keeps the recursion
    accurate down to the tiny deltas the validity search needs.
    """
    if not 0.0 < delta <= DELTA_MAX + 1e-15:
        raise ValueError(f"delta must lie in (0, pi/4], got {delta!r}")
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n!r}")
    if variant not in RECURSION_VARIANTS:
        raise ValueError(f"variant must be one of {RECURSION_VARIANTS}, got {variant!r}")

    t = np.sin(delta / 2) ** 2
    sin_d = np.sin(delta)
    gammas: list[float] = []
    q = 0.0
    for k in range(1, n + 1):
        bracket = q + 2.0 * t * (1.0 - q)
        if variant == "printed":
            g = (1.0 + epsilon) * 2.0 ** (k - 1) * bracket / sin_d
        else:
            g = (1.0 + epsilon) * bracket / sin_d
        gammas.append(float(g))
        if not 0.0 <= g <= 1.0:
            break
        s = np.sqrt((1.0 - g) * (1.0 + g))
        u = g * g / (2.0 * (1.0 + s))
        q = q + u - q * u

    valid_upto = 0
    for g in gammas:
        if 0.0 <= g <= 1.0:
            valid_upto += 1
        else:
            break
    return GammaSchedule(float(delta), float(epsilon), tuple(gammas), valid_upto, variant)


def validity_region(n: int, epsilon: float, variant: str = "printed",
                    resolution: float = BISECTION_RESOLUTION) -> float | None:
    """Largest delta in (0, pi/4] whose schedule keeps gamma_1..gamma_n in [0, 1].

    The endpoint pi/4 is checked first; otherwise the boundary is bracketed by
    repeated halving and located by bisection to the requested resolution.  The
    returned delta is always itself valid.  Returns None when no valid delta is
    found above DELTA_SEARCH_FLOOR.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n!r}")

    def valid(d: float) -> bool:
        return gamma_sequence(d, epsilon, n, variant).valid_upto >= n

    hi = DELTA_MAX
    if valid(hi):
        return hi
    lo = hi
    while not valid(lo):
        lo /= 2.0
        if lo < DELTA_SEARCH_FLOOR:
            return None
    while hi - lo > resolution:
        mid = (lo + hi) / 2.0
        if valid(mid):
            lo = mid
        else:
            hi = mid
    return lo
