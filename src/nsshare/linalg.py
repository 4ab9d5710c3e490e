"""Dense complex matrix algebra for one-to-three qubit operators.

Everything in this project lives in dimension 2, 4 or 8, so all operators are
plain dense complex128 arrays.  Qubit effects are parameterized on the Bloch
sphere, which gives closed forms for their matrices and matrix square roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _frozen(values) -> np.ndarray:
    arr = np.asarray(values, dtype=complex).copy()
    arr.setflags(write=False)
    return arr


IDENTITY_2 = _frozen(np.eye(2))
PAULI_X = _frozen([[0, 1], [1, 0]])
PAULI_Y = _frozen([[0, -1j], [1j, 0]])
PAULI_Z = _frozen([[1, 0], [0, -1]])


def kron(a: np.ndarray, b: np.ndarray, *rest: np.ndarray) -> np.ndarray:
    """Kronecker product of two or more matrices, left to right."""
    out = np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
    for m in rest:
        out = np.kron(out, np.asarray(m, dtype=complex))
    return out


def bloch_operator(direction) -> np.ndarray:
    """n . sigma for a real 3-vector n."""
    if len(direction) != 3:
        raise ValueError(f"Bloch direction must be a real 3-vector, got {direction!r}")
    nx, ny, nz = (float(v) for v in direction)
    return np.array([[nz, nx - 1j * ny], [nx + 1j * ny, -nz]])


@dataclass(frozen=True)
class BlochEffect:
    """Two-outcome POVM element (I + sharpness * direction . sigma) / 2.

    direction must be a unit vector; sharpness in [0, 1] (1 = projective).
    """

    direction: tuple[float, float, float]
    sharpness: float

    def __post_init__(self):
        if len(self.direction) != 3:
            raise ValueError("effect direction must be a real 3-vector")
        nx, ny, nz = (float(v) for v in self.direction)
        norm = math.sqrt(nx * nx + ny * ny + nz * nz)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"effect direction must be unit length, |n| = {norm!r}")
        if not 0.0 <= self.sharpness <= 1.0:
            raise ValueError(f"sharpness must lie in [0, 1], got {self.sharpness!r}")
        object.__setattr__(self, "direction", (nx, ny, nz))
        object.__setattr__(self, "sharpness", float(self.sharpness))

    def complement(self) -> "BlochEffect":
        """The opposite outcome's effect: I minus this one."""
        d = self.direction
        return BlochEffect((-d[0], -d[1], -d[2]), self.sharpness)


def effect_matrix(effect: BlochEffect) -> np.ndarray:
    """(I + gamma n.sigma) / 2; eigenvalues (1 +- gamma) / 2."""
    return (IDENTITY_2 + effect.sharpness * bloch_operator(effect.direction)) / 2


def effect_sqrt(effect: BlochEffect) -> np.ndarray:
    """Principal square root of effect_matrix(effect), in closed form.

    With eigenvalues (1 +- gamma)/2 on the +-n eigenspaces, the root is
    a*I + b*(n.sigma) with a = (sqrt((1+g)/2) + sqrt((1-g)/2)) / 2 and
    b = (sqrt((1+g)/2) - sqrt((1-g)/2)) / 2.
    """
    a, b = sqrt_coefficients(effect.sharpness)
    return a * IDENTITY_2 + b * bloch_operator(effect.direction)


def sqrt_coefficients(gamma: float) -> tuple[float, float]:
    """(a, b) with sqrt((I + gamma n.sigma) / 2) = a*I + b*(n.sigma), for every unit n."""
    hi = math.sqrt((1 + gamma) / 2)
    lo = math.sqrt((1 - gamma) / 2)
    return (hi + lo) / 2, (hi - lo) / 2
