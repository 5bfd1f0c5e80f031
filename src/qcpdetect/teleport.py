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
the input is.  For u = psi (x) conj(psi) the mean fidelity is linear in the 10
real features |u_p|^2 and Re u_p conj(u_q), p < q, with coefficients from
per-set real forms W that the literal protocol gives.  The fidelity oracle
caches the feature matrix of its Bloch-angle grid per grid size, so one matrix
product per state evaluates every grid point under all four correction sets.
"""

from __future__ import annotations

import functools
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
# Zoom rounds of the brute-force fidelity search after its grid, and the
# offsets of each round's 9 x 9 window in units of the current cell size.
_REFINE_ROUNDS = 12
_ZOOM = np.linspace(-1.0, 1.0, 9)


class OutcomeImpossibleError(ValueError):
    """Conditioning on a zero-probability Bell outcome."""


@dataclass(frozen=True)
class InputQubit:
    """Pure input |psi> = cos(theta/2)|0> + e^{i chi} sin(theta/2)|1>."""

    theta: float
    chi: float

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
    """Accept an InputQubit, a ket vector, or a 2x2 density matrix."""
    if isinstance(state, InputQubit):
        return state.density()
    arr = np.asarray(state)
    if arr.shape == (2,):
        return np.outer(arr, arr.conj())
    if arr.shape == (2, 2):
        return arr
    raise ValueError(f"expected InputQubit, ket (2,), or density (2, 2); got {arr.shape}")


def bell_projector(label: str) -> np.ndarray:
    """Rank-1 projector |B_label><B_label| on qubits (1, 2)."""
    ket = BELL_KETS[label]
    return np.outer(ket, ket)


# Position of each Bell label on the outcome and correction-set axes.
_BELL_INDEX = {label: j for j, label in enumerate(BELL_LABELS)}
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
    """U_j reduced_j U_j^dag for a (4, 2, 2) correction set, or for the
    (set, 4, 2, 2) stack of all four; still unnormalized (Q_j is inside)."""
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
    j = _BELL_INDEX[label]
    return _projected_bob(_as_density(input_state), x)[1][j]


def bob_output(input_state, x: XState, label: str, set_label: str) -> np.ndarray:
    """Bob's corrected conditional state U_j Tr_12[P rho P] U_j^dag / Q_j."""
    j = _BELL_INDEX[label]
    corrections = _CORRECTIONS[_BELL_INDEX[set_label]]
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
    corrected = _corrected_bob(reduced, _CORRECTIONS[_BELL_INDEX[set_label]])
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


# The six index pairs p < q of u = psi (x) conj(psi).
_PAIRS = np.triu_indices(4, 1)
# Grid points per block while the cached feature matrix is built, so that
# no grid-wide complex temporaries are made.
_FEATURE_BLOCK = 2048


def _bloch_features(theta: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """The 10 real features of u = psi (x) conj(psi), shape (10, n).

    Rows: the four |u_p|^2, then Re u_p conj(u_q) for p < q.
    """
    kets = np.stack(
        [np.cos(0.5 * theta) + 0.0j, np.exp(1j * chi) * np.sin(0.5 * theta)]
    )
    u = (kets[:, None] * kets.conj()).reshape(4, -1)
    z = u[_PAIRS[0]] * u[_PAIRS[1]].conj()
    return np.concatenate([u.real**2 + u.imag**2, z.real])


@functools.lru_cache(maxsize=4)
def _grid_features(n_theta: int, n_chi: int) -> tuple[np.ndarray, ...]:
    """theta, chi and the (10, n_theta * n_chi) features of the search grid,
    theta in [0, pi] and chi in [0, 2 pi), theta-major; read-only, because
    every call with the same grid size shares them."""
    theta = np.repeat(np.linspace(0.0, math.pi, n_theta), n_chi)
    chi = np.tile(np.linspace(0.0, 2.0 * math.pi, n_chi, endpoint=False), n_theta)
    features = np.empty((10, theta.size))  # the rows of _bloch_features
    for start in range(0, theta.size, _FEATURE_BLOCK):
        block = slice(start, start + _FEATURE_BLOCK)
        features[:, block] = _bloch_features(theta[block], chi[block])
    for array in (theta, chi, features):
        array.flags.writeable = False
    return theta, chi, features


# One-qubit matrix units: _MATRIX_UNITS[a, b] is |a><b|.
_MATRIX_UNITS = np.eye(4).reshape(2, 2, 2, 2)


def _fidelity_quadratic_forms(x: XState) -> np.ndarray:
    """Per-set 4x4 forms W, shape (set, 4, 4) in BELL_LABELS order, with
    F(psi) = u^T W conj(u), u = psi (x) conj(psi).

    Built by running the literal protocol on the four one-qubit matrix units,
    so this encodes nothing but protocol algebra (linearity in rho1).  The
    Bell kets, the corrections, the X state and the units are all real, so
    W is real.
    """
    projected, _ = _projected_bob(_MATRIX_UNITS, x)  # [a, b, outcome, :, :]
    forms = np.einsum("sjce,abjef,sjdf->sabcd", _CORRECTIONS, projected, _CORRECTIONS)
    return forms.reshape(4, 4, 4)


def _feature_coefficients(forms: np.ndarray) -> np.ndarray:
    """Coefficients of the 10 Bloch features per set, shape (set, 10).

    F = sum_pq W_pq u_p conj(u_q) = sum_p (V_pp / 2) |u_p|^2
    + sum_{p<q} V_pq Re(u_p conj(u_q)), with V = W + W^T for a real W.
    """
    v = forms + forms.transpose(0, 2, 1)
    diagonal = np.diagonal(v, axis1=1, axis2=2)
    return np.concatenate([0.5 * diagonal, v[:, _PAIRS[0], _PAIRS[1]]], axis=1)


def _grid_size(name: str, value, least: int) -> int:
    """``value`` as an int, or a ValueError naming ``name`` if it is not an
    integer of at least ``least``."""
    if not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}; got {value!r}")
    return int(value)


def max_mean_fidelity_bruteforce(
    x: XState,
    n_theta: int = 128,
    n_chi: int = 256,
) -> BruteForceFidelity:
    """Protocol-level search over a Bloch-angle grid and the four sets.

    The mean fidelity is linear in the 10 real features of u_p conj(u_q),
    u = psi (x) conj(psi), with per-set coefficients from the protocol's
    quadratic forms.  The features of the (n_theta x n_chi) grid are cached
    per grid size, so one (4 x 10) @ (10 x n) product gives every set's grid
    values.  ``grid_value`` is the raw grid maximum (accuracy limited by
    spacing); ``value`` additionally zooms into the best cell of each set,
    the four sets in lockstep, for _REFINE_ROUNDS rounds of a 9 x 9 window
    that shrinks by 4 per round.  Serves as the oracle for max_mean_fidelity.
    """
    n_theta = _grid_size("n_theta", n_theta, 2)
    n_chi = _grid_size("n_chi", n_chi, 1)
    thetas, chis, features = _grid_features(n_theta, n_chi)
    coefficients = _feature_coefficients(_fidelity_quadratic_forms(x))

    sets = np.arange(len(BELL_LABELS))
    grid_values = coefficients @ features
    cells = np.argmax(grid_values, axis=1)
    val, th, ch = grid_values[sets, cells], thetas[cells], chis[cells]
    grid_value = float(np.max(val))

    d_theta = math.pi / (n_theta - 1)
    d_chi = 2.0 * math.pi / n_chi
    for _ in range(_REFINE_ROUNDS):
        # Each set's 9 x 9 window, theta-major: shape (set, 81).
        th_window = np.clip(th[:, None] + d_theta * _ZOOM, 0.0, math.pi)
        tt = np.repeat(th_window, 9, axis=1)
        cc = np.tile(ch[:, None] + d_chi * _ZOOM, 9)
        local = _bloch_features(tt.ravel(), cc.ravel()).reshape(-1, *tt.shape)
        lv = np.einsum("sf,fsn->sn", coefficients, local)
        m = np.argmax(lv, axis=1)
        top = lv[sets, m]
        better = top > val
        val = np.where(better, top, val)
        th = np.where(better, tt[sets, m], th)
        ch = np.where(better, cc[sets, m], ch)
        d_theta *= 0.25
        d_chi *= 0.25

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


def _qubit_fidelity(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Uhlmann fidelity for qubits: Tr(rho sigma) + 2 sqrt(det rho det sigma).
    Broadcasts over the leading axes of (..., 2, 2) stacks."""
    overlap = np.einsum("...ij,...ji->...", rho, sigma).real
    dets = np.maximum(np.linalg.det(rho).real, 0.0) * np.maximum(
        np.linalg.det(sigma).real, 0.0
    )
    return overlap + 2.0 * np.sqrt(dets)


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

    Outcome j is drawn ~ Q_j for each run; the corrected Bob state is
    compared with the input by fidelity and trace distance.  Sampling uses
    a counter-based generator seeded with ``seed``, so results are exactly
    reproducible.  Standard errors are sample standard deviations / sqrt(runs).
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    rho_in = _as_density(input_state)
    corrections = _CORRECTIONS[_BELL_INDEX[set_label]]
    states, q, possible = _conditional_states(rho_in, x, corrections)
    fids = np.where(possible, _qubit_fidelity(rho_in, states), 0.0)
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
