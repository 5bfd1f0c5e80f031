"""Quantum discord of X-form two-qubit states.

For X states the measurement side of the discord optimization reduces to a
single angle: the optimal projective measurement on one qubit can be taken in
the plane spanned by sigma-z and a transverse axis, parameterized by
theta in [0, pi/2] (theta = 0 measures sigma-z, theta = pi/2 sigma-x).  The
discord is

    QD = S(rho_B) - S(rho_AB) + min_theta S~(theta)

with all entropies in nats.  S~(theta) has a closed form in the X-state
parameters, and it is even in cos(theta), so it is a function of
u = cos(theta)^2 on [0, 1].  Its minimum lies at u = 0 (theta = pi/2), at
u = 1 (theta = 0) or at the one interior root of dS~/du (Yurischev, Quantum
Inf. Process. 14, 3399 (2015), arXiv:1404.5735).  The interior case is rare
but real: the endpoints alone can be wrong by about 1.5e-4 (Huang, Phys.
Rev. A 88, 014302 (2013)).  So the search evaluates S~ and dS~/du exactly at
both ends and bisects for the root only where the slopes bracket an
interior minimum.  Every function here takes one X state or a column of
them (an XState whose fields are arrays).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .xstate import XState

# The interior root is bisected until its bracket is at most this wide.
THETA_REFINE_TOL = 1e-9
# Results this close to zero (rounding residue on classical states) clamp to 0.
ZERO_CLAMP = 1e-10

# The two ends theta = 0 (u = 1) and theta = pi/2 (u = 0), as cos and sin.
_END_COS = np.array([1.0, 0.0])
_END_SIN = np.array([0.0, 1.0])
# Halvings of [0, pi/2] that leave a bracket at most THETA_REFINE_TOL wide.
_BISECTIONS = math.ceil(math.log2(0.5 * math.pi / THETA_REFINE_TOL))


@dataclass(frozen=True)
class DiscordResult:
    """Discord value in nats together with the minimizing angle.

    Numpy scalars for one state, arrays for a column.  Where S~ is flat in
    theta, every angle minimizes it and ``theta_star`` is arbitrary: the last
    bit of the state decides it.  One example is ``xxz`` at delta = 1, h = 0,
    where xx = yy = zz.
    """

    value: float
    theta_star: float


def _log(p):
    """ln p where p > 0, and 0 elsewhere (so p ln p follows 0 ln 0 = 0)."""
    return np.log(np.where(p > 0.0, p, 1.0))


def _xlogx(p):
    """p * ln(p) with the conventions 0 ln 0 = 0 and p clamped to [0, 1]."""
    p = np.clip(p, 0.0, 1.0)
    return p * _log(p)


def entropy_single(x: XState):
    """Von Neumann entropy of the one-qubit reduction diag(a+b, b+d), in nats."""
    return -np.sum(_xlogx(np.array([x.a + x.b, x.b + x.d])), axis=0)


def entropy_pair(x: XState):
    """Von Neumann entropy of the pair state, from the closed-form spectrum."""
    return -np.sum(_xlogx(x.eigenvalues()), axis=0)


def _coefficients(x: XState) -> tuple:
    """The three combinations of X-state parameters that S~ depends on."""
    return x.a - x.d, x.a - 2.0 * x.b + x.d, np.abs(x.c) + np.abs(x.e)


def _spectrum(zdiff, zmid, off, ct, st) -> tuple:
    """The probabilities of S~ at cos/sin theta; all arguments broadcast.

    Returns p = (Lambda_1, Lambda_2, lambda_1, ..., lambda_4) stacked on a
    leading axis of 6, the radii r12 and r34 of s_tilde's docstring, and
    q12 = r12 dr12/dct and q34 = r34 dr34/dct.
    """
    zc = zdiff * ct
    mc = zmid * ct
    s2 = 4.0 * np.square(off * st)
    up, down = 1.0 + zc, 1.0 - zc
    r12 = np.sqrt(np.square(zdiff + mc) + s2)
    r34 = np.sqrt(np.square(zdiff - mc) + s2)
    p = np.array(
        [0.5 * up, 0.5 * down, 0.25 * (up + r12), 0.25 * (up - r12),
         0.25 * (down + r34), 0.25 * (down - r34)]
    )
    tilt = 4.0 * np.square(off) * ct
    return p, r12, r34, (zdiff + mc) * zmid - tilt, (mc - zdiff) * zmid - tilt


def _from_terms(t):
    """S~ from the six terms p ln p of _spectrum's probabilities."""
    return t[0] + t[1] - (t[2] + t[3] + t[4] + t[5])


def _s_tilde(zdiff, zmid, off, ct, st):
    """S~ from the coefficients and cos/sin of theta; all arguments broadcast."""
    return _from_terms(_xlogx(_spectrum(zdiff, zmid, off, ct, st)[0]))


def s_tilde(x: XState, theta) -> np.ndarray | float:
    """Measured conditional entropy S~(theta) of one state; accepts scalar or
    array theta.

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


def _cos_slope(zdiff, logs, r12, r34, q12, q34):
    """dS~/d(cos theta) at cos theta > 0, from _spectrum's output there with
    the logs of its probabilities.  It has the sign of dS~/du.

    The derivatives of the six probabilities sum to zero, so the slope is
    sum_i Lambda_i' ln Lambda_i - sum_j lambda_j' ln lambda_j.  A zero
    radius with a zero numerator, which is where off = 0, counts as a zero
    derivative.
    """
    dr12 = q12 / np.where(r12 > 0.0, r12, 1.0)
    dr34 = q34 / np.where(r34 > 0.0, r34, 1.0)
    return 0.5 * zdiff * (logs[0] - logs[1]) - 0.25 * (
        zdiff * (logs[2] + logs[3] - logs[4] - logs[5])
        + dr12 * (logs[2] - logs[3])
        + dr34 * (logs[4] - logs[5])
    )


def _ends(zdiff, zmid, off) -> tuple:
    """S~ at theta = 0 and theta = pi/2 as a (states, 2) array, dS~/du at
    u = 1 and at u = 0, and where either slope's closed form is singular;
    the coefficients have shape (states,).

    At u = 1 the slope is half the slope in cos theta there.  At u = 0 the
    slope in cos theta vanishes, and dS~/du is half the second derivative in
    cos theta: with R0 = r12 = r34, l_{1,2} = (1 +/- R0)/4 and the first and
    second derivatives r1 = zd zm / R0 and r2 = (zm^2 - 4 off^2 - r1^2) / R0
    of r12,

      dS~/du = zd^2/2 - (zd + r1)^2/(16 l1) - (zd - r1)^2/(16 l2)
               - (r2/4) ln(l1/l2).

    The forms are singular at a zero probability at u = 1, a zero radius at
    u = 1 (a = b or b = d), and R0 = 0 or R0 = 1 at u = 0.
    """
    p, r12, r34, q12, q34 = _spectrum(
        zdiff[:, None], zmid[:, None], off[:, None], _END_COS, _END_SIN
    )
    p = np.clip(p, 0.0, 1.0)
    logs = _log(p)
    s_ends = _from_terms(p * logs)
    at_1 = 0.5 * _cos_slope(
        zdiff, logs[:, :, 0], r12[:, 0], r34[:, 0], q12[:, 0], q34[:, 0]
    )
    r0, l1, l2 = r12[:, 1], p[2, :, 1], p[3, :, 1]
    singular = (
        np.any(p[:, :, 0] <= 0.0, axis=0)
        | (r12[:, 0] <= 0.0) | (r34[:, 0] <= 0.0)
        | (r0 <= 0.0) | (l2 <= 0.0)
    )
    r0 = np.where(singular, 1.0, r0)
    l2 = np.where(singular, 1.0, l2)
    r1 = q12[:, 1] / r0
    r2 = (np.square(zmid) - 4.0 * np.square(off) - np.square(r1)) / r0
    at_0 = 0.5 * np.square(zdiff) - (
        np.square(zdiff + r1) / (16.0 * l1)
        + np.square(zdiff - r1) / (16.0 * l2)
        + 0.25 * r2 * (logs[2, :, 1] - _log(l2))
    )
    return s_ends, at_1, at_0, singular


def _interior_root(zdiff, zmid, off):
    """The angle in (0, pi/2) where dS~/du changes sign, by bisection.

    The bracket keeps dS~/du > 0 at its small-theta end and <= 0 at its
    other end.  Where dS~/du has one sign throughout, the bracket closes on
    an end instead.
    """
    lo, hi = np.zeros_like(zdiff), np.full_like(zdiff, 0.5 * math.pi)
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        p, *radii = _spectrum(zdiff, zmid, off, np.cos(mid), np.sin(mid))
        rising = _cos_slope(zdiff, _log(p), *radii) > 0.0
        lo, hi = np.where(rising, mid, lo), np.where(rising, hi, mid)
    return 0.5 * (lo + hi)


def quantum_discord(x: XState) -> DiscordResult:
    """Discord QD = S(rho_B) - S(rho_AB) + min_theta S~(theta), in nats.

    S~ and its slope dS~/du (u = cos(theta)^2) are evaluated in closed form
    at both ends.  S~ has at most one interior stationary point in u
    (Yurischev 2015), so where the slope is >= 0 at u = 0 or <= 0 at u = 1,
    the minimum is the smaller end (theta = 0 on a tie).  Where it is < 0 at
    u = 0 and > 0 at u = 1, or a closed form is singular, the interior root
    of dS~/du is bisected to a THETA_REFINE_TOL bracket, and the minimum is
    the smallest of S~ at the root and at both ends; taking an end there
    instead can be off by about 1.5e-4 (Huang 2013).  Values within
    ZERO_CLAMP of zero clamp to exactly 0.  Each state's result is the same
    alone as in a column.
    """
    shape = np.shape(x.a)
    zdiff, zmid, off = (np.reshape(v, -1) for v in _coefficients(x))
    s_ends, at_1, at_0, singular = _ends(zdiff, zmid, off)
    s_min = np.min(s_ends, axis=1)
    theta = np.where(s_ends[:, 1] < s_ends[:, 0], 0.5 * math.pi, 0.0)
    search = singular | ((at_0 < 0.0) & (at_1 > 0.0))
    if search.any():
        coeffs = zdiff[search], zmid[search], off[search]
        root = _interior_root(*coeffs)
        s_root = _s_tilde(*coeffs, np.cos(root), np.sin(root))
        better = s_root < s_min[search]
        theta[search] = np.where(better, root, theta[search])
        s_min[search] = np.where(better, s_root, s_min[search])
    value = entropy_single(x) - entropy_pair(x) + s_min.reshape(shape)
    value = np.where((-ZERO_CLAMP <= value) & (value < 0.0), 0.0, value)
    return DiscordResult(value=value[()], theta_star=theta.reshape(shape)[()])
