"""Standard teleportation through a spin-chain pair used as the channel.

Alice holds qubit 1 (the state to send) and qubit 2; Bob holds qubit 3.
Qubits 2 and 3 form an X state drawn from the chain.  Alice projects (1, 2)
onto the Bell basis; outcome j arrives with probability Q_j and leaves Bob in
a conditional state that he repairs with a correction unitary drawn from one
of four fixed sets S_k (one per Bell state the channel is closest to).

Two figures of merit feed the critical-point detectors:

* external protocol: an unknown pure qubit is sent; the detector is the mean
  fidelity maximized over inputs and correction sets,
      F_ext = max[2b, 1-2b, 1/2 + |c| + |e|]
            = max[(1+|xx|)/2, (1+|yy|)/2, (1+|zz|)/2].

* internal protocol: the chain's own one-site reduction diag(a+b, b+d) is
  sent; the detector is the mean trace distance between input and output,
  minimized over correction sets,
      D_int = |1 - 2(b+d)| * min[1 - D_minus, D_plus],
      D_pm  = 2b + d - (b+d)^2 +/- |(b+d)^2 - d|.

Both closed forms ship with brute-force protocol implementations used as
oracles in the test suite.  One protocol step gives Bob's states for all four
Bell outcomes at once; impossible outcomes are masked, never divided by.  The
Bell kets, corrections and X state are real, so the arithmetic is real unless
the input is.  Each correction set is a linear qubit map Phi, so its mean
fidelity on a pure input rho = (1 + n.sigma)/2 is F = n^T T n / 4, where
T_mn = Tr[sigma_m Phi(sigma_n)] is the Pauli transfer matrix and n_0 = 1.
The literal protocol run on the four Pauli matrices gives T; on the Bloch
sphere F is six real coefficients per set, so the fidelity oracle evaluates
its whole grid under all four sets as one small batched matrix product.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .xstate import IDENTITY_2, PAULI_X, PAULI_Z, XState, dense_matrix, reduced_single

BELL_LABELS = ("phi+", "phi-", "psi+", "psi-")

_SQ2 = 1.0 / math.sqrt(2.0)
BELL_KETS = {
    "phi+": np.array([_SQ2, 0.0, 0.0, _SQ2]),
    "phi-": np.array([_SQ2, 0.0, 0.0, -_SQ2]),
    "psi+": np.array([0.0, _SQ2, _SQ2, 0.0]),
    "psi-": np.array([0.0, _SQ2, -_SQ2, 0.0]),
}

_ZX = PAULI_Z @ PAULI_X

# Correction sets, one per Bell state; entries are ordered by measurement
# outcome following BELL_LABELS.  S_k undoes the protocol exactly when the
# channel is the Bell state k.
CORRECTION_SETS = {
    "phi+": (IDENTITY_2, PAULI_Z, PAULI_X, _ZX),
    "phi-": (PAULI_Z, IDENTITY_2, _ZX, PAULI_X),
    "psi+": (PAULI_X, _ZX, IDENTITY_2, PAULI_Z),
    "psi-": (_ZX, PAULI_X, PAULI_Z, IDENTITY_2),
}

# Outcomes with probability below this are treated as impossible.
_Q_FLOOR = 1e-15
# The brute-force fidelity search zooms _REFINE_ROUNDS times after its grid,
# each round into a 33 x 33 window spanning +/- one spacing of the round
# before, so the spacing shrinks by 16 per round and ends at the grid's
# 16^-6 = 4^-12.  _ZOOM_OFFSETS (round, 33) are every round's window offsets
# in units of the grid spacing; powers of two, so the scaling is exact.  The
# scales are Python floats: a numpy power here measured 0.1 to 0.2 MB more
# peak RSS in every process that imports the package.
_REFINE_ROUNDS = 6
_ZOOM = np.linspace(-1.0, 1.0, 33)
_ZOOM_OFFSETS = np.outer([16.0**-k for k in range(_REFINE_ROUNDS)], _ZOOM)
# Orders of the chi harmonics 1, cos chi, cos 2 chi of the fidelity, a column.
_HARMONICS = np.arange(3.0)[:, None]


class OutcomeImpossibleError(ValueError):
    """Conditioning on a zero-probability Bell outcome."""


@dataclass(frozen=True)
class InputQubit:
    """Pure input |psi> = cos(theta/2)|0> + e^{i chi} sin(theta/2)|1>."""

    theta: float
    chi: float

    def __post_init__(self):
        for name in ("theta", "chi"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"input qubit {name} must be finite, got {value}")

    def ket(self) -> np.ndarray:
        return np.array(
            [
                math.cos(0.5 * self.theta),
                complex(math.cos(self.chi), math.sin(self.chi))
                * math.sin(0.5 * self.theta),
            ]
        )

    def density(self) -> np.ndarray:
        k = self.ket()
        return np.outer(k, k.conj())


# Branch labels of the two closed forms, in tie-break order; object arrays,
# so that indexing by a column of branch numbers gives a column of labels.
_FMAX_BRANCHES = np.array(("xx", "yy", "zz"), dtype=object)
_DMIN_BRANCHES = np.array(("1-D-", "D+"), dtype=object)


@dataclass(frozen=True)
class MaxMeanFidelity:
    """External-protocol maximum mean fidelity and the branch attaining it.

    A numpy scalar and a str for one state, arrays for a column.
    """

    value: float
    branch: str  # "xx" | "yy" | "zz"


@dataclass(frozen=True)
class MinMeanTraceDistance:
    """Internal-protocol minimum mean trace distance and its branch.

    A numpy scalar and a str for one state, arrays for a column.
    """

    value: float
    branch: str  # "1-D-" | "D+"


@dataclass(frozen=True)
class BruteForceFidelity:
    """Result of the gridded input search; ``value`` includes refinement."""

    value: float
    grid_value: float
    theta: float
    chi: float
    set_label: str


@dataclass(frozen=True)
class SimulationResult:
    """Monte Carlo estimate of mean fidelity / trace distance for one setup."""

    runs: int
    seed: int
    counts: np.ndarray  # outcome tallies, BELL_LABELS order
    mean_fidelity: float
    stderr_fidelity: float
    mean_trace_distance: float
    stderr_trace_distance: float


def _as_density(state) -> np.ndarray:
    """|psi><psi| of a pure input: an InputQubit, or a ket of shape (2,)
    whose squared norm is within 1e-12 of 1."""
    if isinstance(state, InputQubit):
        return state.density()
    ket = np.asarray(state)
    if ket.shape != (2,):
        raise ValueError(f"expected InputQubit or ket (2,); got shape {ket.shape}")
    norm = np.vdot(ket, ket).real
    if not abs(norm - 1.0) <= 1e-12:
        raise ValueError(f"the input ket must be normalized; its squared norm is {norm}")
    return np.outer(ket, ket.conj())


def _bell_index(label: str) -> int:
    """Position of a Bell label on the outcome and correction-set axes."""
    if label not in BELL_LABELS:
        raise ValueError(f"Bell label must be one of {BELL_LABELS}, got {label!r}")
    return BELL_LABELS.index(label)


def bell_projector(label: str) -> np.ndarray:
    """Rank-1 projector |B_label><B_label| on qubits (1, 2)."""
    ket = BELL_KETS[BELL_LABELS[_bell_index(label)]]
    return np.outer(ket, ket)

# P (x) 1 on qubits (1, 2, 3), stacked over the Bell outcomes P.
_ALICE_PROJECTORS = np.array(
    [np.kron(bell_projector(label), IDENTITY_2) for label in BELL_LABELS]
)
# Correction unitaries indexed [set, outcome], both in BELL_LABELS order.
_CORRECTIONS = np.array([CORRECTION_SETS[label] for label in BELL_LABELS])


def _projected_bob(rho1: np.ndarray, x: XState) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized Bob states Tr_12[P_j (rho1 (x) rho23) P_j] for all four
    outcomes, shape (..., 4, 2, 2), and their weights Q_j, shape (..., 4).

    ``rho1`` may be a stack of 2x2 matrices, shape (..., 2, 2).  The
    arithmetic stays in the dtype of ``rho1``: real in, real out.
    """
    rho = np.kron(np.asarray(rho1), dense_matrix(x))[..., None, :, :]
    sandwiched = _ALICE_PROJECTORS @ rho @ _ALICE_PROJECTORS
    reduced = np.einsum(
        "...abcabd->...cd", sandwiched.reshape(sandwiched.shape[:-2] + (2,) * 6)
    )
    return reduced, np.trace(reduced, axis1=-2, axis2=-1).real


def _corrected_bob(reduced: np.ndarray, corrections: np.ndarray) -> np.ndarray:
    """U_j reduced_j U_j^dag, still unnormalized (Q_j is inside), for a
    (4, 2, 2) correction set or a stack; leading axes broadcast, so a
    (set, 1, 4, 2, 2) stack on (input, 4, 2, 2) gives (set, input, 4, 2, 2)."""
    return corrections @ reduced @ corrections.conj().swapaxes(-1, -2)


def _conditional_states(
    rho1: np.ndarray, x: XState, corrections: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bob's corrected, normalized states, the weights Q_j, and the mask of
    possible outcomes (Q_j >= _Q_FLOOR).  Impossible outcomes are divided by
    1 instead of Q_j; their states are meaningless and must be masked."""
    reduced, q = _projected_bob(rho1, x)
    possible = q >= _Q_FLOOR
    corrected = _corrected_bob(reduced, corrections)
    return corrected / np.where(possible, q, 1.0)[..., None, None], q, possible


def outcome_probability(input_state, x: XState, label: str) -> float:
    """Probability Q_j of Alice's Bell outcome ``label``."""
    j = _bell_index(label)
    return _projected_bob(_as_density(input_state), x)[1][j]


def bob_output(input_state, x: XState, label: str, set_label: str) -> np.ndarray:
    """Bob's corrected conditional state U_j Tr_12[P rho P] U_j^dag / Q_j."""
    j = _bell_index(label)
    corrections = _CORRECTIONS[_bell_index(set_label)]
    states, q, possible = _conditional_states(_as_density(input_state), x, corrections)
    if not possible[j]:
        raise OutcomeImpossibleError(
            f"outcome {label!r} has probability {q[j]:.3e}; conditional state undefined"
        )
    return states[j]


def mean_fidelity(input_state, x: XState, set_label: str) -> float:
    """Mean fidelity sum_j Q_j <psi| rho_Bj |psi> for a pure input."""
    rho_in = _as_density(input_state)
    reduced, q = _projected_bob(rho_in, x)
    corrected = _corrected_bob(reduced, _CORRECTIONS[_bell_index(set_label)])
    overlaps = np.einsum("ij,kji->k", rho_in, corrected).real
    return float(np.sum(overlaps, where=q >= _Q_FLOOR))


def max_mean_fidelity(x: XState) -> MaxMeanFidelity:
    """Closed-form max over pure inputs and correction sets.

    The three branches are (1+|ss|)/2 for ss in {xx, yy, zz}; equivalently
    max[2b, 1-2b, 1/2+|c|+|e|].  Ties resolve in the order xx, yy, zz.
    """
    candidates = np.array(
        [
            0.5 + np.abs(x.c + x.e),
            0.5 + np.abs(x.c - x.e),
            np.maximum(2.0 * x.b, 1.0 - 2.0 * x.b),
        ]
    )
    branch = _FMAX_BRANCHES[np.argmax(candidates, axis=0)]  # first of any tie
    return MaxMeanFidelity(value=np.max(candidates, axis=0), branch=branch)


# The real Pauli basis 1, X, iY = ZX, Z; sigma_y = -i iY.
_PAULI_BASIS = np.array([IDENTITY_2, PAULI_X, _ZX, PAULI_Z])


def _pauli_transfer(x: XState) -> np.ndarray:
    """Pauli transfer matrices T_mn = Tr[sigma_m Phi_s(sigma_n)], basis
    (1, X, Y, Z), of the four correction sets, shape (set, 4, 4) in
    BELL_LABELS order.

    Built by running the literal protocol on the real basis (1, X, iY, Z), so
    this is protocol algebra only (linearity in rho1) and stays real.  A real
    Phi_s keeps matrices symmetric or antisymmetric, so the other entries of
    the iY row and column vanish and sigma_y = -i iY turns the sign of (Y, Y).
    """
    reduced, _ = _projected_bob(_PAULI_BASIS, x)  # (basis, outcome, 2, 2)
    images = _corrected_bob(reduced, _CORRECTIONS[:, None]).sum(axis=2)
    transfer = np.einsum("mab,snba->smn", _PAULI_BASIS, images)
    transfer[:, 2, 2] *= -1.0
    return transfer


def _trig_coefficients(transfer: np.ndarray) -> np.ndarray:
    """The six real coefficients a0, a1, a2, b0, b1, d per set, shape (6, set),
    of F = a0 + a1 ct + a2 ct^2 + st (b0 + b1 ct) cos chi + d st^2 cos 2 chi,
    ct = cos theta and st = sin theta, from the (set, 4, 4) transfer matrices.

    F = n^T T n / 4 with n = (1, st cos chi, st sin chi, ct).  Every entry
    odd in n_y vanishes for a real map, and cos^2 chi, sin^2 chi =
    (1 +/- cos 2 chi) / 2 leave the side term st^2 (T_xx + T_yy) / 2.  a1, b0
    and b1 vanish for X states but are kept: the form uses only the protocol.
    """
    t = transfer.transpose(1, 2, 0)
    side = 0.5 * (t[1, 1] + t[2, 2])
    a = (t[0, 0] + side, t[0, 3] + t[3, 0], t[3, 3] - side)
    b = (t[0, 1] + t[1, 0], t[1, 3] + t[3, 1])
    return 0.25 * np.array([*a, *b, 0.5 * (t[1, 1] - t[2, 2])])


def _mean_fidelities(trig: np.ndarray, theta: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """F of every set at every (theta, chi) of two axes, shape (set, n, m).

    The axes are shared, shape (n,) and (m,), or per set, shape (set, n) and
    (set, m).  One batched product of the theta profiles (a, b, d) with the
    harmonics (1, cos chi, cos 2 chi); ``trig`` is from _trig_coefficients.
    """
    a0, a1, a2, b0, b1, d = trig[..., None]
    ct, st = np.cos(theta), np.sin(theta)
    profiles = np.stack([a0 + ct * (a1 + a2 * ct), st * (b0 + b1 * ct), d * st * st], -1)
    return profiles @ np.cos(_HARMONICS * chi[..., None, :])


def _grid_size(name: str, value, least: int) -> int:
    """``value`` as an int, or a ValueError naming ``name`` if it is not an
    integer (a bool is not) of at least ``least``."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not integral or value < least:
        raise ValueError(f"{name} must be an integer >= {least}; got {value!r}")
    return int(value)


def max_mean_fidelity_bruteforce(
    x: XState,
    n_theta: int = 128,
    n_chi: int = 256,
) -> BruteForceFidelity:
    """Protocol-level search over a Bloch-angle grid and the four sets.

    Each set's mean fidelity is a trigonometric polynomial in the Bloch
    angles with six real coefficients (_trig_coefficients), so one batched
    (set, n_theta, 3) @ (3, n_chi) product gives every set's values on the
    grid theta in [0, pi] by chi in [0, 2 pi), theta-major.  ``grid_value``
    is the raw grid maximum (accuracy limited by spacing); ``value``
    additionally zooms into the best cell of each set, the four sets in
    lockstep, for _REFINE_ROUNDS rounds of a 33 x 33 window spanning +/- one
    spacing of the round before, so the spacing shrinks by 16 per round and
    the last round's is the grid's times 4^-12.  A set's point moves only
    where a round improves on it.  Serves as the oracle for max_mean_fidelity.
    """
    n_theta = _grid_size("n_theta", n_theta, 2)
    n_chi = _grid_size("n_chi", n_chi, 1)
    thetas = np.linspace(0.0, math.pi, n_theta)
    chis = np.linspace(0.0, 2.0 * math.pi, n_chi, endpoint=False)
    trig = _trig_coefficients(_pauli_transfer(x))

    sets = np.arange(len(BELL_LABELS))
    grid_values = _mean_fidelities(trig, thetas, chis).reshape(len(sets), -1)
    cells = np.argmax(grid_values, axis=1)  # first of any tie
    val, th, ch = grid_values[sets, cells], thetas[cells // n_chi], chis[cells % n_chi]
    grid_value = float(np.max(val))
    del grid_values  # so the rounds' temporaries do not stack on the grid

    width = len(_ZOOM)
    spacings = (math.pi / (n_theta - 1), 2.0 * math.pi / n_chi)
    th_offsets, ch_offsets = np.multiply.outer(spacings, _ZOOM_OFFSETS)
    for th_offset, ch_offset in zip(th_offsets, ch_offsets):
        th_window = th[:, None] + th_offset
        np.maximum(th_window, 0.0, out=th_window)
        np.minimum(th_window, math.pi, out=th_window)
        ch_window = ch[:, None] + ch_offset
        # Each set's width x width window, theta-major: shape (set, width^2).
        lv = _mean_fidelities(trig, th_window, ch_window).reshape(len(sets), -1)
        m = lv.argmax(axis=1)
        top = lv[sets, m]
        better = top > val
        val = np.where(better, top, val)
        th = np.where(better, th_window[sets, m // width], th)
        ch = np.where(better, ch_window[sets, m % width], ch)

    best = int(np.argmax(val))
    return BruteForceFidelity(
        value=float(val[best]),
        grid_value=grid_value,
        theta=float(th[best]),
        chi=float(ch[best] % (2.0 * math.pi)),
        set_label=BELL_LABELS[best],
    )


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Single-qubit trace distance via Bloch vectors: half the vector gap.
    Broadcasts over the leading axes of (..., 2, 2) stacks."""
    delta = np.asarray(rho) - np.asarray(sigma)
    dx = 2.0 * delta[..., 0, 1].real
    dy = -2.0 * delta[..., 0, 1].imag
    dz = (delta[..., 0, 0] - delta[..., 1, 1]).real
    return 0.5 * np.sqrt(dx * dx + dy * dy + dz * dz)


def min_mean_trace_distance(x: XState) -> MinMeanTraceDistance:
    """Closed-form internal-protocol detector.

    D_int = |1 - 2(b+d)| * min[1 - D_minus, D_plus] with
    D_pm = 2b + d - (b+d)^2 +/- |(b+d)^2 - d|.  Vanishes whenever the
    magnetization z = 1 - 2(b+d) does.  Ties resolve to the "1-D-" branch.
    """
    bd = x.b + x.d
    base = 2.0 * x.b + x.d - bd * bd
    gap = np.abs(bd * bd - x.d)
    candidates = np.array([1.0 - (base - gap), base + gap])
    branch = _DMIN_BRANCHES[np.argmin(candidates, axis=0)]  # first of any tie
    inner = np.min(candidates, axis=0)
    return MinMeanTraceDistance(value=np.abs(1.0 - 2.0 * bd) * inner, branch=branch)


def min_mean_trace_distance_bruteforce(x: XState) -> float:
    """Protocol-level oracle: run the internal protocol under all four sets.

    Sends the chain's own one-site reduction and accumulates
    sum_j Q_j D(rho_in, rho_Bj), then minimizes over sets.
    """
    rho_in = reduced_single(x)
    states, q, possible = _conditional_states(rho_in, x, _CORRECTIONS)
    totals = np.where(possible, q * trace_distance(rho_in, states), 0.0).sum(axis=1)
    return float(np.min(totals))


def simulate_protocol(
    x: XState, input_state, set_label: str, runs: int, seed: int
) -> SimulationResult:
    """Monte Carlo run of the protocol: sample outcomes, tally statistics.

    Outcome j is drawn ~ Q_j for each run; the corrected Bob state rho_Bj
    is compared with the pure input |psi> by the fidelity <psi|rho_Bj|psi>
    = Tr(rho_in rho_Bj), which mean_fidelity sums, and by the trace
    distance.  The counts are one multinomial draw from numpy's default
    generator (PCG64) seeded with ``seed``, so results are exactly
    reproducible.  Standard errors are sample standard deviations /
    sqrt(runs).
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    rho_in = _as_density(input_state)
    corrections = _CORRECTIONS[_bell_index(set_label)]
    states, q, possible = _conditional_states(rho_in, x, corrections)
    overlaps = np.einsum("ij,kji->k", rho_in, states).real
    fids = np.where(possible, overlaps, 0.0)
    dists = np.where(possible, trace_distance(rho_in, states), 0.0)
    qs = np.maximum(q, 0.0)
    qs /= qs.sum()

    rng = np.random.default_rng(seed)
    counts = rng.multinomial(runs, qs)

    def _stats(values: np.ndarray) -> tuple[float, float]:
        mean = float(np.dot(counts, values)) / runs
        if runs > 1:
            var = float(np.dot(counts, (values - mean) ** 2)) / (runs - 1)
        else:
            var = 0.0
        return mean, math.sqrt(max(var, 0.0) / runs)

    mean_f, err_f = _stats(fids)
    mean_d, err_d = _stats(dists)
    return SimulationResult(
        runs=runs,
        seed=seed,
        counts=counts,
        mean_fidelity=mean_f,
        stderr_fidelity=err_f,
        mean_trace_distance=mean_d,
        stderr_trace_distance=err_d,
    )
