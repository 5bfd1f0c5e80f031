"""Two-qubit X-form density matrices built from spin-chain correlators.

A nearest-neighbour pair cut out of a translation-invariant spin-1/2 chain
whose Hamiltonian commutes with a global pi rotation about z has a reduced
density matrix of X form in the {|00>, |01>, |10>, |11>} basis,

    rho = [[a, 0, 0, e],
           [0, b, c, 0],
           [0, c, b, 0],
           [e, 0, 0, d]],

with all five parameters real.  The parameters follow from the one- and
two-site correlators z = <sz>, ss = <s1 s2> for s in {x, y, z}:

    a = (1 + 2 z + zz) / 4       b = (1 - zz) / 4
    c = (xx + yy) / 4            d = (1 - 2 z + zz) / 4
    e = (xx - yy) / 4

Everything downstream (discord, coherence spectra, teleportation figures of
merit) consumes this type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
IDENTITY_2 = np.eye(2)

# Physicality violations up to this size are snapped to the boundary;
# anything larger raises PhysicalityError.
VALIDATION_TOL = 1e-12


class PhysicalityError(ValueError):
    """Raised when parameters cannot represent a density matrix.

    Carries the offending eigenvalue (or trace deficit) in ``value``.
    """

    def __init__(self, message: str, value: float):
        super().__init__(f"{message} (value {value:.3e})")
        self.value = value


@dataclass(frozen=True)
class Correlators:
    """One-site magnetization and nearest-neighbour two-point functions."""

    z: float
    xx: float
    yy: float
    zz: float

    def validate(self) -> None:
        for name in ("z", "xx", "yy", "zz"):
            v = getattr(self, name)
            if not math.isfinite(v) or abs(v) > 1.0 + VALIDATION_TOL:
                raise PhysicalityError(f"correlator {name} outside [-1, 1]", v)


@dataclass(frozen=True)
class XState:
    """X-form two-qubit density matrix with real entries.

    The X structure decouples into two 2x2 blocks: the outer block
    [[a, e], [e, d]] on span{|00>, |11>} and the inner block
    [[b, c], [c, b]] on span{|01>, |10>}.  Eigenvalues are b +/- c and
    (a + d +/- sqrt((a - d)^2 + 4 e^2)) / 2.

    The five fields are floats for one state, or equal-length arrays for a
    column of states; every closed form in the package accepts either.
    """

    a: float
    b: float
    c: float
    d: float
    e: float

    def eigenvalues(self) -> np.ndarray:
        """All four eigenvalues, inner block first: [b+c, b-c, outer+, outer-].

        Shape (4,) for one state, (4, n) for a column.
        """
        s = np.sqrt(np.square(self.a - self.d) + 4.0 * np.square(self.e))
        return np.array(
            [
                self.b + self.c,
                self.b - self.c,
                0.5 * (self.a + self.d + s),
                0.5 * (self.a + self.d - s),
            ]
        )

    def correlators(self) -> Correlators:
        """Invert the parameterization back to (z, xx, yy, zz)."""
        return Correlators(
            z=self.a - self.d,
            xx=2.0 * (self.c + self.e),
            yy=2.0 * (self.c - self.e),
            zz=1.0 - 4.0 * self.b,
        )


def make_xstate(a: float, b: float, c: float, d: float, e: float) -> XState:
    """Validate raw X-state parameters, snapping rounding noise to the boundary.

    Checks that every parameter is finite, then unit trace and positive
    semidefiniteness of both 2x2 blocks.  Violations within VALIDATION_TOL
    are repaired (tiny negative populations zeroed, |c| capped at b, |e|
    capped at sqrt(a d)); larger ones raise PhysicalityError carrying the
    failing eigenvalue, or the non-finite parameter.
    """
    for name, value in zip("abcde", (a, b, c, d, e)):
        if not math.isfinite(value):
            raise PhysicalityError(f"parameter {name} not finite", value)
    trace = a + 2.0 * b + d
    if abs(trace - 1.0) > VALIDATION_TOL:
        raise PhysicalityError("trace a + 2b + d differs from 1", trace - 1.0)

    def _snap(p: float, name: str) -> float:
        if p < -VALIDATION_TOL:
            raise PhysicalityError(f"population {name} negative", p)
        return max(p, 0.0)

    a = _snap(a, "a")
    b = _snap(b, "b")
    d = _snap(d, "d")

    # Inner block: eigenvalues b +/- c must be nonnegative.
    if b - abs(c) < -VALIDATION_TOL:
        raise PhysicalityError("inner-block eigenvalue b - |c| negative", b - abs(c))
    if abs(c) > b:
        c = math.copysign(b, c)

    # Outer block: nonnegative iff e^2 <= a d.
    s = math.sqrt((a - d) ** 2 + 4.0 * e**2)
    lo = 0.5 * (a + d - s)
    if lo < -VALIDATION_TOL:
        raise PhysicalityError("outer-block eigenvalue negative", lo)
    if e**2 > a * d:
        e = math.copysign(math.sqrt(a * d), e)

    return XState(a=a, b=b, c=c, d=d, e=e)


def build_xstate(corr: Correlators) -> XState:
    """Map chain correlators to the nearest-neighbour X state.

    a = (1 + 2z + zz)/4, b = (1 - zz)/4, c = (xx + yy)/4,
    d = (1 - 2z + zz)/4, e = (xx - yy)/4.
    """
    corr.validate()
    return make_xstate(
        a=0.25 * (1.0 + 2.0 * corr.z + corr.zz),
        b=0.25 * (1.0 - corr.zz),
        c=0.25 * (corr.xx + corr.yy),
        d=0.25 * (1.0 - 2.0 * corr.z + corr.zz),
        e=0.25 * (corr.xx - corr.yy),
    )


def dense_matrix(x: XState) -> np.ndarray:
    """The full 4x4 matrix in the {|00>, |01>, |10>, |11>} product basis."""
    return np.array(
        [
            [x.a, 0.0, 0.0, x.e],
            [0.0, x.b, x.c, 0.0],
            [0.0, x.c, x.b, 0.0],
            [x.e, 0.0, 0.0, x.d],
        ]
    )


def reduced_single(x: XState) -> np.ndarray:
    """Single-qubit reduction diag(a + b, b + d); identical for both qubits."""
    return np.diag([x.a + x.b, x.b + x.d])


def sample_random_xstate(rng: np.random.Generator) -> XState:
    """Draw a random physical X state, covering ranks 1 through 4.

    Four spectral weights are drawn from a flat Dirichlet, split at random
    between the two 2x2 blocks; a random rotation angle fills the outer
    block's off-diagonal e, and the inner block's c is set by the weight gap.
    """
    w = rng.dirichlet(np.ones(4))
    w = w[rng.permutation(4)]
    phi = rng.uniform(0.0, math.pi)
    cphi, sphi = math.cos(phi), math.sin(phi)
    a = w[0] * cphi**2 + w[1] * sphi**2
    d = w[0] * sphi**2 + w[1] * cphi**2
    e = (w[0] - w[1]) * cphi * sphi
    b = 0.5 * (w[2] + w[3])
    c = 0.5 * (w[2] - w[3])
    return make_xstate(a=a, b=b, c=c, d=d, e=e)


def sample_product_xstate(rng: np.random.Generator) -> XState:
    """Random product X state diag(p, 1-p) x diag(p, 1-p); zero discord."""
    p = rng.uniform(0.0, 1.0)
    return make_xstate(a=p * p, b=p * (1.0 - p), c=0.0, d=(1.0 - p) ** 2, e=0.0)
