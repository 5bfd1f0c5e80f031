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
oracles in the test suite.
"""

from __future__ import annotations

import math
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


@dataclass(frozen=True)
class MaxMeanFidelity:
    """External-protocol maximum mean fidelity and the branch attaining it."""

    value: float
    branch: str  # "xx" | "yy" | "zz"


@dataclass(frozen=True)
class MinMeanTraceDistance:
    """Internal-protocol minimum mean trace distance and its branch."""

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
    arr = np.asarray(state, dtype=complex)
    if arr.shape == (2,):
        return np.outer(arr, arr.conj())
    if arr.shape == (2, 2):
        return arr
    raise ValueError(f"expected InputQubit, ket (2,), or density (2, 2); got {arr.shape}")


def bell_projector(label: str) -> np.ndarray:
    """Rank-1 projector |B_label><B_label| on qubits (1, 2)."""
    ket = BELL_KETS[label]
    return np.outer(ket, ket)


# P (x) 1 on qubits (1, 2, 3) for each Bell outcome P.
_ALICE_PROJECTORS = {
    label: np.kron(bell_projector(label), IDENTITY_2) for label in BELL_LABELS
}


def _projected_bob(rho1: np.ndarray, x: XState, label: str) -> tuple[np.ndarray, float]:
    """Unnormalized Bob state Tr_12[P (rho1 (x) rho23) P] and its weight Q."""
    rho = np.kron(np.asarray(rho1, dtype=complex), dense_matrix(x))
    proj = _ALICE_PROJECTORS[label]
    sandwiched = proj @ rho @ proj
    reduced = np.einsum("abcabd->cd", sandwiched.reshape(2, 2, 2, 2, 2, 2))
    return reduced, float(np.trace(reduced).real)


def _corrected_bob(
    rho1: np.ndarray, x: XState, label: str, set_label: str
) -> tuple[np.ndarray | None, float]:
    """Bob's state after outcome ``label`` and its correction from the set
    ``set_label``, U_j Tr_12[P rho P] U_j^dag (unnormalized: Q_j is inside),
    and its weight Q_j.  The state is None when the outcome is impossible
    (Q_j below the floor)."""
    reduced, q = _projected_bob(rho1, x, label)
    if q < _Q_FLOOR:
        return None, q
    u = CORRECTION_SETS[set_label][BELL_LABELS.index(label)]
    return u @ reduced @ u.conj().T, q


def outcome_probability(input_state, x: XState, label: str) -> float:
    """Probability Q_j of Alice's Bell outcome ``label``."""
    _, q = _projected_bob(_as_density(input_state), x, label)
    return q


def bob_output(input_state, x: XState, label: str, set_label: str) -> np.ndarray:
    """Bob's corrected conditional state U_j Tr_12[P rho P] U_j^dag / Q_j."""
    corrected, q = _corrected_bob(_as_density(input_state), x, label, set_label)
    if corrected is None:
        raise OutcomeImpossibleError(
            f"outcome {label!r} has probability {q:.3e}; conditional state undefined"
        )
    return corrected / q


def mean_fidelity(input_state, x: XState, set_label: str) -> float:
    """Mean fidelity sum_j Q_j <psi| rho_Bj |psi> for a pure input."""
    rho_in = _as_density(input_state)
    total = 0.0
    for label in BELL_LABELS:
        corrected, _ = _corrected_bob(rho_in, x, label, set_label)
        if corrected is not None:
            total += float(np.einsum("ij,ji->", rho_in, corrected).real)
    return total


def max_mean_fidelity(x: XState) -> MaxMeanFidelity:
    """Closed-form max over pure inputs and correction sets.

    The three branches are (1+|ss|)/2 for ss in {xx, yy, zz}; equivalently
    max[2b, 1-2b, 1/2+|c|+|e|].  Ties resolve in the order xx, yy, zz.
    """
    candidates = [
        ("xx", 0.5 + abs(x.c + x.e)),
        ("yy", 0.5 + abs(x.c - x.e)),
        ("zz", max(2.0 * x.b, 1.0 - 2.0 * x.b)),
    ]
    branch, value = max(candidates, key=lambda kv: kv[1])  # first of any tie
    return MaxMeanFidelity(value=value, branch=branch)


def _bloch_grid(n_theta: int, n_chi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kets for an (n_theta x n_chi) grid: theta in [0, pi], chi in [0, 2 pi)."""
    theta = np.linspace(0.0, math.pi, n_theta)
    chi = np.linspace(0.0, 2.0 * math.pi, n_chi, endpoint=False)
    tt, cc = np.meshgrid(theta, chi, indexing="ij")
    return _kets_from_angles(tt.ravel(), cc.ravel()), tt.ravel(), cc.ravel()


def _kets_from_angles(theta: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """Stack of kets, shape (2, n)."""
    return np.stack(
        [np.cos(0.5 * theta) + 0.0j, np.exp(1j * chi) * np.sin(0.5 * theta)]
    )


def _fidelity_quadratic_forms(x: XState) -> dict[str, np.ndarray]:
    """Per-set 4x4 forms W with F(psi) = u^T W conj(u), u = psi (x) conj(psi).

    Built by running the literal protocol on the four one-qubit matrix units,
    so this encodes nothing but protocol algebra (linearity in rho1).
    """
    t_blocks = np.empty((4, 2, 2, 2, 2), dtype=complex)  # [j, a, b, :, :]
    for a in range(2):
        for b in range(2):
            unit = np.zeros((2, 2), dtype=complex)
            unit[a, b] = 1.0
            for j, label in enumerate(BELL_LABELS):
                t_blocks[j, a, b] = _projected_bob(unit, x, label)[0]
    forms = {}
    for set_label, unitaries in CORRECTION_SETS.items():
        w = np.zeros((2, 2, 2, 2), dtype=complex)  # [a, b, c, d]
        for j in range(4):
            u = unitaries[j]
            corrected = np.einsum("ce,abef,df->abcd", u, t_blocks[j], u.conj())
            w += corrected
        forms[set_label] = w.reshape(4, 4)
    return forms


def _ket_products(kets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """u = psi (x) conj(psi) for each ket column, shape (4, n), and conj(u)."""
    u = np.einsum("an,bn->abn", kets, kets.conj()).reshape(4, -1)
    return u, u.conj()


def _eval_forms(w: np.ndarray, u: np.ndarray, u_conj: np.ndarray) -> np.ndarray:
    """Mean fidelity for each column of u: sum_pq u_p W_pq conj(u)_q."""
    return np.einsum("pn,pn->n", u, w @ u_conj).real


def max_mean_fidelity_bruteforce(
    x: XState,
    n_theta: int = 128,
    n_chi: int = 256,
    refine: bool = True,
    refine_rounds: int = 12,
) -> BruteForceFidelity:
    """Protocol-level search over a Bloch-angle grid and the four sets.

    ``grid_value`` is the raw grid maximum (accuracy limited by spacing);
    ``value`` additionally zooms into the best cell of each set, shrinking
    the search window by 4 per round.  Serves as the oracle for
    max_mean_fidelity.
    """
    forms = _fidelity_quadratic_forms(x)
    kets, thetas, chis = _bloch_grid(n_theta, n_chi)

    products = _ket_products(kets)  # shared by the four sets
    per_set = {}
    for set_label, w in forms.items():
        vals = _eval_forms(w, *products)
        k = int(np.argmax(vals))
        per_set[set_label] = (float(vals[k]), float(thetas[k]), float(chis[k]))

    grid_set = max(per_set, key=lambda s: per_set[s][0])
    grid_value, grid_theta, grid_chi = per_set[grid_set]

    if not refine:
        return BruteForceFidelity(
            value=grid_value,
            grid_value=grid_value,
            theta=grid_theta,
            chi=grid_chi,
            set_label=grid_set,
        )

    best = (grid_value, grid_theta, grid_chi, grid_set)
    d_theta0 = math.pi / (n_theta - 1)
    d_chi0 = 2.0 * math.pi / n_chi
    for set_label, w in forms.items():
        val, th, ch = per_set[set_label]
        d_theta, d_chi = d_theta0, d_chi0
        for _ in range(refine_rounds):
            th_grid = np.clip(np.linspace(th - d_theta, th + d_theta, 9), 0.0, math.pi)
            ch_grid = np.linspace(ch - d_chi, ch + d_chi, 9)
            tt, cc = np.meshgrid(th_grid, ch_grid, indexing="ij")
            local = _kets_from_angles(tt.ravel(), cc.ravel())
            lv = _eval_forms(w, *_ket_products(local))
            m = int(np.argmax(lv))
            if lv[m] > val:
                val, th, ch = float(lv[m]), float(tt.ravel()[m]), float(cc.ravel()[m])
            d_theta *= 0.25
            d_chi *= 0.25
        if val > best[0]:
            best = (val, th, ch % (2.0 * math.pi), set_label)

    return BruteForceFidelity(
        value=best[0],
        grid_value=grid_value,
        theta=best[1],
        chi=best[2],
        set_label=best[3],
    )


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Single-qubit trace distance via Bloch vectors: half the vector gap."""
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    delta = rho - sigma
    dx = 2.0 * delta[0, 1].real
    dy = -2.0 * delta[0, 1].imag
    dz = (delta[0, 0] - delta[1, 1]).real
    return 0.5 * math.sqrt(dx * dx + dy * dy + dz * dz)


def _qubit_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity for qubits: Tr(rho sigma) + 2 sqrt(det rho det sigma)."""
    overlap = float(np.einsum("ij,ji->", rho, sigma).real)
    dets = max(float(np.linalg.det(rho).real), 0.0) * max(
        float(np.linalg.det(sigma).real), 0.0
    )
    return overlap + 2.0 * math.sqrt(dets)


def min_mean_trace_distance(x: XState) -> MinMeanTraceDistance:
    """Closed-form internal-protocol detector.

    D_int = |1 - 2(b+d)| * min[1 - D_minus, D_plus] with
    D_pm = 2b + d - (b+d)^2 +/- |(b+d)^2 - d|.  Vanishes whenever the
    magnetization z = 1 - 2(b+d) does.  Ties resolve to the "1-D-" branch.
    """
    bd = x.b + x.d
    base = 2.0 * x.b + x.d - bd * bd
    gap = abs(bd * bd - x.d)
    candidates = [("1-D-", 1.0 - (base - gap)), ("D+", base + gap)]
    branch, inner = min(candidates, key=lambda kv: kv[1])  # first of any tie
    return MinMeanTraceDistance(value=abs(1.0 - 2.0 * bd) * inner, branch=branch)


def min_mean_trace_distance_bruteforce(x: XState) -> float:
    """Protocol-level oracle: run the internal protocol under all four sets.

    Sends the chain's own one-site reduction and accumulates
    sum_j Q_j D(rho_in, rho_Bj), then minimizes over sets.
    """
    rho_in = reduced_single(x).astype(complex)
    best = math.inf
    for set_label in BELL_LABELS:
        total = 0.0
        for label in BELL_LABELS:
            corrected, q = _corrected_bob(rho_in, x, label, set_label)
            if corrected is not None:
                total += q * trace_distance(rho_in, corrected / q)
        best = min(best, total)
    return best


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
    qs = np.empty(4)
    fids = np.zeros(4)
    dists = np.zeros(4)
    for j, label in enumerate(BELL_LABELS):
        corrected, q = _corrected_bob(rho_in, x, label, set_label)
        qs[j] = max(q, 0.0)
        if corrected is not None:
            rho_out = corrected / q
            fids[j] = _qubit_fidelity(rho_in, rho_out)
            dists[j] = trace_distance(rho_in, rho_out)
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
