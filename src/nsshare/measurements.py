"""Measurement strategy: Charlie's effects, the sharpness schedule and its validity region.

Alice and Bob always measure sharply (sigma_3 for input 0, sigma_1 for input 1).
The k-th Charlie measures sharply along (-sin t, 0, cos t) for input 0 and
unsharply with sharpness gamma_k along (sin t, 0, cos t) for input 1.  The
gamma_k follow a recursion in delta whose validity region shrinks rapidly with
the number of rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

RECURSION_VARIANTS = ("printed", "normalized")

DELTA_MAX = np.pi / 4
BISECTION_RESOLUTION = 1e-6
# the recursion runs on t = sin(delta/2)**2, which leaves the normal float range
# (and reaches 0 further down, where every gamma reads 0) below _T_FLOOR:
# sin(x) = x there, so t >= _T_FLOOR exactly when delta >= DELTA_SEARCH_FLOOR
_T_FLOOR = float(np.finfo(float).tiny)
DELTA_SEARCH_FLOOR = 2.0 * math.sqrt(_T_FLOOR)

IDENTITY_2 = np.eye(2)
IDENTITY_2.setflags(write=False)


def sqrt_coefficients(gamma: float) -> tuple[float, float]:
    """(a, b) with sqrt((I + gamma n.sigma) / 2) = a*I + b*(n.sigma), for every unit n.

    The effect has eigenvalues (1 +- gamma)/2 on the +-n eigenspaces, so its
    principal root has a = (sqrt((1+g)/2) + sqrt((1-g)/2)) / 2 and
    b = (sqrt((1+g)/2) - sqrt((1-g)/2)) / 2.
    """
    hi = math.sqrt((1 + gamma) / 2)
    lo = math.sqrt((1 - gamma) / 2)
    return (hi + lo) / 2, (hi - lo) / 2


def charlie_setting(thetas, gamma_k: float) -> tuple[np.ndarray, np.ndarray]:
    """Charlie's effects F_{c|z} = (I +- gamma_z n_z.sigma) / 2 and their square roots.

    gamma_0 = 1 (sharp) and gamma_1 = gamma_k; n_z is the input's direction.
    Both arrays have shape (N, 2, 2, 2, 2) for N angles, indexed [n, z, c, i, j].
    Each angle's entries are computed independently of the others, so a matrix
    is the same bit for bit whichever stack of angles it comes from.
    """
    if not 0.0 <= gamma_k <= 1.0:
        raise ValueError(f"gamma_k must lie in [0, 1], got {gamma_k!r}")
    thetas = np.asarray(thetas, dtype=float)
    sin, cos = np.sin(thetas), np.cos(thetas)
    # n.sigma = [[nz, nx], [nx, -nz]]; outcome 0 points along n = (-sin, 0, cos)
    # for z=0 and (sin, 0, cos) for z=1, outcome 1 along -n.  Built C-contiguous: the
    # engine's tables take this layout, and the bits of numpy's sums over them follow it
    outcome0 = np.stack([cos, -sin, -sin, -cos, cos, sin, sin, -cos], 1).reshape(-1, 2, 2, 2)
    ops = np.stack([outcome0, -outcome0], axis=2)  # [n, z, c, i, j]
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

    gammas: tuple[float, ...]
    valid_upto: int


def gamma_sequence(delta: float, epsilon: float, n: int, variant: str = "printed") -> GammaSchedule:
    """Sharpness recursion gamma_k = (1+eps)[2^(k-1) - cos(d) prod_{j<k}(1+sqrt(1-gamma_j^2))]/sin(d).

    The "normalized" variant divides the bracket by 2^(k-1).  Both coincide at
    k = 1 with gamma_1 = (1+eps)(1-cos d)/sin d = (1+eps) tan(d/2).

    Evaluation is cancellation-free: with t = sin^2(d/2) and
    q_k = 1 - prod_{j<k}(1+s_j)/2 (s_j = sqrt(1-gamma_j^2)), the bracket equals
    2^(k-1) [q_k + 2t(1-q_k)] exactly, and q is accumulated from
    u_j = gamma_j^2 / (2(1+s_j)) via q <- q + u - q*u.  This keeps the recursion
    accurate down to the tiny deltas the validity search needs, and refused
    below DELTA_SEARCH_FLOOR, where t is no longer a normal float.
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
    if t < _T_FLOOR:
        raise ValueError(f"delta must be at least {DELTA_SEARCH_FLOOR!r}, got {delta!r}: "
                         f"below it sin(delta/2)**2 leaves the normal float range")
    sin_d = np.sin(delta)
    gammas: list[float] = []
    q = 0.0
    for k in range(1, n + 1):
        bracket = q + 2.0 * t * (1.0 - q)
        scale = 2.0 ** (k - 1) if variant == "printed" else 1.0
        g = (1.0 + epsilon) * scale * bracket / sin_d
        gammas.append(float(g))
        if not 0.0 <= g <= 1.0:
            break
        s = np.sqrt((1.0 - g) * (1.0 + g))
        u = g * g / (2.0 * (1.0 + s))
        q = q + u - q * u

    # the loop stops at the first out-of-range entry, so only the last can be one
    valid_upto = len(gammas) if 0.0 <= gammas[-1] <= 1.0 else len(gammas) - 1
    return GammaSchedule(tuple(gammas), valid_upto)


def validity_region(n: int, epsilon: float, variant: str = "printed",
                    resolution: float = BISECTION_RESOLUTION) -> float | None:
    """Largest delta in (0, pi/4] whose schedule keeps gamma_1..gamma_n in [0, 1].

    The endpoint pi/4 is checked first; otherwise the boundary is bracketed by
    repeated halving and located by bisection to the requested resolution, or
    to adjacent floats when that comes first.  The returned delta is always
    itself valid.  Returns None when no valid delta is found above
    DELTA_SEARCH_FLOOR.
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
        if mid in (lo, hi):  # lo and hi are adjacent floats
            break
        if valid(mid):
            lo = mid
        else:
            hi = mid
    return lo
