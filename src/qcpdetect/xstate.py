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
merit) consumes this type.  ``build_xstates`` builds and checks a column
of states at once, each row with its own error; ``build_xstate`` and
``make_xstate`` run the same checks on one state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

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
    """One-site magnetization and nearest-neighbour two-point functions:
    floats, or equal-length arrays for a column of site pairs."""

    z: float
    xx: float
    yy: float
    zz: float


# The correlator names, in field order: the sweep CSV's first columns and the
# simulate config's keys.
CORRELATORS = tuple(f.name for f in fields(Correlators))
_RANGE_CHECKS = [f"correlator {n} outside [-1, 1]" for n in CORRELATORS]


@dataclass(frozen=True)
class XState:
    """X-form two-qubit density matrix with real entries.

    The X structure decouples into two 2x2 blocks: the outer block
    [[a, e], [e, d]] on span{|00>, |11>} and the inner block
    [[b, c], [c, b]] on span{|01>, |10>}.  Eigenvalues are b +/- c and
    (a + d +/- sqrt((a - d)^2 + 4 e^2)) / 2.

    The five fields are floats for one state, or equal-length arrays for a
    column of states (as ``build_xstates`` gives); every closed form in the
    package accepts either.
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


def _checked(params: np.ndarray, corr=()) -> tuple[XState, list]:
    """The snapped XState of a (5, rows) array of a, b, c, d, e, failed rows
    NaN, and each row's first PhysicalityError, or None; the rows' (4, rows)
    correlators ``corr``, if given, are checked first."""
    tol = VALIDATION_TOL
    a, b, c, d, e = params
    finite = np.isfinite(params)
    gap = a + 2.0 * b + d - 1.0
    pops = params[[0, 1, 3]]
    a, b, d = np.where(pops < 0.0, 0.0, pops)
    inner = b - np.abs(c)  # the inner block's eigenvalues are b +/- c
    # libm pow, as float ** 2 is: np.square rounds about one value in a
    # thousand to the other neighbour, which moves ``outer`` by an ulp
    e2 = np.float_power(e, 2)
    outer = 0.5 * (a + d - np.sqrt(np.float_power(a - d, 2) + 4.0 * e2))
    checks = [
        *zip(_RANGE_CHECKS, corr, ~(np.abs(corr) <= 1.0 + tol)),
        *zip([f"parameter {n} not finite" for n in "abcde"], params, ~finite),
        ("trace a + 2b + d differs from 1", gap, np.abs(gap) > tol),
        *zip([f"population {n} negative" for n in "abd"], pops, pops < -tol),
        ("inner-block eigenvalue b - |c| negative", inner, inner < -tol),
        ("outer-block eigenvalue negative", outer, outer < -tol),
    ]
    c = np.where(np.abs(c) > b, np.copysign(b, c), c)
    # the outer block is nonnegative iff e^2 <= a d
    e = np.where(e2 > a * d, np.copysign(np.sqrt(a * d), e), e)
    masks = np.array([failed for *_, failed in checks])
    failed = masks.any(axis=0)
    errors = [None] * failed.size
    for i in np.flatnonzero(failed):
        message, values, _ = checks[masks[:, i].argmax()]
        errors[i] = PhysicalityError(message, float(values[i]))
    return XState(*np.where(failed, math.nan, (a, b, c, d, e))), errors


@np.errstate(invalid="ignore", over="ignore")  # inf - inf, inf**2 in failing rows
def build_xstates(corr: Correlators) -> tuple[XState, list[PhysicalityError | None]]:
    """The X states of a column of correlators (a float is a column of one)
    as one XState of arrays, failed rows NaN, and each row's error or None:
    the PhysicalityError of the first check it fails, each correlator finite
    and within [-1, 1] + VALIDATION_TOL, then those of ``make_xstate``,
    which snaps the rows that pass."""
    z, xx, yy, zz = corr = np.array(
        [corr.z, corr.xx, corr.yy, corr.zz], dtype=float
    ).reshape(4, np.size(corr.z))
    params = [1.0 + 2.0 * z + zz, 1.0 - zz, xx + yy, 1.0 - 2.0 * z + zz, xx - yy]
    return _checked(0.25 * np.array(params), corr)


def _single(x: XState, errors: list) -> XState:
    """The state of a column of one, as floats, or its error raised."""
    if errors[0] is not None:
        raise errors[0]
    return XState(*(float(p[0]) for p in (x.a, x.b, x.c, x.d, x.e)))


@np.errstate(invalid="ignore", over="ignore")
def make_xstate(a: float, b: float, c: float, d: float, e: float) -> XState:
    """Validate raw X-state parameters, snapping rounding noise to the boundary.

    Checks that every parameter is finite, then unit trace and positive
    semidefiniteness of both 2x2 blocks.  Violations within VALIDATION_TOL
    are repaired (tiny negative populations zeroed, |c| capped at b, |e|
    capped at sqrt(a d)); larger ones raise PhysicalityError carrying the
    failing eigenvalue, or the non-finite parameter (``build_xstates``'s
    checks, on a column of one).
    """
    return _single(*_checked(np.array([a, b, c, d, e], dtype=float).reshape(5, 1)))


def build_xstate(corr: Correlators) -> XState:
    """The X state of one set of correlators: ``build_xstates`` on a column
    of one, its PhysicalityError raised."""
    return _single(*build_xstates(corr))


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
