"""Quantum discord of X-form two-qubit states.

For X states the measurement side of the discord optimization reduces to a
single angle: the optimal projective measurement on one qubit can be taken in
the plane spanned by sigma-z and a transverse axis, parameterized by
theta in [0, pi/2] (theta = 0 measures sigma-z, theta = pi/2 sigma-x).  The
discord is

    QD = S(rho_B) - S(rho_AB) + min_theta S~(theta)

with all entropies in nats.  S~(theta) has a closed form in the X-state
parameters, so the minimization is a cheap 1-d search: a coarse grid scan
followed by nested-grid refinement of the best bracket.  The search runs on
blocks of states at once, as (states x angles) arrays.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .xstate import XState

# Measurement-angle search controls.
THETA_GRID_POINTS = 1001
THETA_REFINE_TOL = 1e-9
# Results this close to zero (rounding residue on classical states) clamp to 0.
ZERO_CLAMP = 1e-10

# The search grid on [0, pi/2], with its cos and sin.
_THETA_GRID = np.linspace(0.0, 0.5 * math.pi, THETA_GRID_POINTS)
_GRID_COS = np.cos(_THETA_GRID)
_GRID_SIN = np.sin(_THETA_GRID)
# Each refinement round samples the bracket at this many evenly spaced points.
_REFINE_UNIT = np.linspace(0.0, 1.0, 33)
# States searched together; small, so the (states x angles) arrays stay small.
_BLOCK = 16


@dataclass(frozen=True)
class DiscordResult:
    """Discord value in nats together with the minimizing angle."""

    value: float
    theta_star: float


def _xlogx(p):
    """p * ln(p) with the conventions 0 ln 0 = 0 and p clamped to [0, 1]."""
    p = np.clip(p, 0.0, 1.0)
    return p * np.log(np.where(p > 0.0, p, 1.0))


def entropy_single(x: XState) -> float:
    """Von Neumann entropy of the one-qubit reduction diag(a+b, b+d), in nats."""
    return float(-np.sum(_xlogx(np.array([x.a + x.b, x.b + x.d]))))


def entropy_pair(x: XState) -> float:
    """Von Neumann entropy of the pair state, from the closed-form spectrum."""
    return float(-np.sum(_xlogx(x.eigenvalues())))


def _coefficients(x: XState) -> tuple[float, float, float]:
    """The three combinations of X-state parameters that S~ depends on."""
    return x.a - x.d, x.a - 2.0 * x.b + x.d, abs(x.c) + abs(x.e)


def _s_tilde(zdiff, zmid, off, ct, st):
    """S~ from the coefficients and cos/sin of theta; all arguments broadcast."""
    zc = zdiff * ct
    mc = zmid * ct
    s2 = 4.0 * off**2 * st**2
    up, down = 1.0 + zc, 1.0 - zc
    r12 = np.sqrt((zdiff + mc) ** 2 + s2)
    r34 = np.sqrt((zdiff - mc) ** 2 + s2)
    measured = _xlogx(0.5 * up) + _xlogx(0.5 * down)
    joint = (
        _xlogx(0.25 * (up + r12))
        + _xlogx(0.25 * (up - r12))
        + _xlogx(0.25 * (down + r34))
        + _xlogx(0.25 * (down - r34))
    )
    return measured - joint


def s_tilde(x: XState, theta) -> np.ndarray | float:
    """Measured conditional entropy S~(theta); accepts scalar or array theta.

    With Lambda_{1,2} = [1 +/- (a-d) cos(theta)] / 2 and

      lambda_{1,2} = (1 + (a-d)cos(t) +/- sqrt([a-d+(a-2b+d)cos(t)]^2
                      + 4(|c|+|e|)^2 sin(t)^2)) / 4
      lambda_{3,4} = (1 - (a-d)cos(t) +/- sqrt([a-d-(a-2b+d)cos(t)]^2
                      + 4(|c|+|e|)^2 sin(t)^2)) / 4

    S~ = sum_i Lambda_i ln Lambda_i - sum_j lambda_j ln lambda_j >= 0.
    """
    theta_arr = np.asarray(theta, dtype=float)
    value = _s_tilde(*_coefficients(x), np.cos(theta_arr), np.sin(theta_arr))
    if np.ndim(theta) == 0:
        return float(value)
    return value


def _min_s_tilde(zdiff, zmid, off) -> tuple[np.ndarray, np.ndarray]:
    """(theta*, S~(theta*)) for a block of states given as (n, 1) coefficients.

    Every state takes the argmin on the grid, then refines in rounds: each
    round samples its bracket [t_{j-1}, t_{j+1}] around the last round's
    argmin t_j, until the bracket is at most THETA_REFINE_TOL wide.  States
    run in lockstep, but a state whose bracket is narrow enough stops
    changing, so its result does not depend on the rest of the block.  A
    refined point replaces the best so far only where its S~ is lower.
    """
    rows = np.arange(zdiff.shape[0])
    on_grid = _s_tilde(zdiff, zmid, off, _GRID_COS, _GRID_SIN)
    k = np.argmin(on_grid, axis=1)
    theta, best = _THETA_GRID[k], on_grid[rows, k]
    lo = _THETA_GRID[np.maximum(k - 1, 0)]
    hi = _THETA_GRID[np.minimum(k + 1, _THETA_GRID.size - 1)]
    active = hi - lo > THETA_REFINE_TOL
    while active.any():
        t = lo[:, None] + (hi - lo)[:, None] * _REFINE_UNIT
        on_t = _s_tilde(zdiff, zmid, off, np.cos(t), np.sin(t))
        j = np.argmin(on_t, axis=1)
        better = active & (on_t[rows, j] < best)
        theta = np.where(better, t[rows, j], theta)
        best = np.where(better, on_t[rows, j], best)
        lo = np.where(active, t[rows, np.maximum(j - 1, 0)], lo)
        hi = np.where(active, t[rows, np.minimum(j + 1, _REFINE_UNIT.size - 1)], hi)
        active = hi - lo > THETA_REFINE_TOL
    return theta, best


def quantum_discords(states: Sequence[XState]) -> list[DiscordResult]:
    """quantum_discord of every state, searched _BLOCK states at a time.

    Each result equals quantum_discord of that state alone.
    """
    results = []
    for start in range(0, len(states), _BLOCK):
        block = states[start : start + _BLOCK]
        coeffs = np.array([_coefficients(x) for x in block]).T[:, :, None]
        theta, best = _min_s_tilde(*coeffs)
        for x, theta_star, s_min in zip(block, theta.tolist(), best.tolist()):
            value = entropy_single(x) - entropy_pair(x) + s_min
            if -ZERO_CLAMP <= value < 0.0:
                value = 0.0
            results.append(DiscordResult(value=value, theta_star=theta_star))
    return results


def quantum_discord(x: XState) -> DiscordResult:
    """Discord QD = S(rho_B) - S(rho_AB) + min_theta S~(theta), in nats.

    The minimization scans THETA_GRID_POINTS points on [0, pi/2], then
    refines around the best of them on nested grids until the final bracket
    is at most THETA_REFINE_TOL wide.  A refined value replaces the grid
    value only where it is lower.  Values within ZERO_CLAMP of zero clamp to
    exactly 0.  This is quantum_discords on the one state.
    """
    return quantum_discords([x])[0]
