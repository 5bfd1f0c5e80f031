"""Local-coherence spectra of X states and the detectors built from them.

For a single-qubit observable K = 1 (x) sigma_s acting on the second qubit of
the pair, the Hermitian, negative-semidefinite operator [rho, K]^2 measures
how far rho is from commuting with K.  Its eigenvalues {alpha_n} come in two
degenerate pairs with closed forms in the X-state parameters; for the
transverse axes both pairs follow from one expression,

  alpha(e1, e2) = -1/2 [ (a-b)^2 + (b-d)^2 + 2 (c - e2 e)^2
                         + e1 (a - 2b + d) sqrt((a-d)^2 + 4 (c - e2 e)^2) ],

  x axis: alpha_{1,2} = alpha(+1, +1), alpha_{3,4} = alpha(-1, +1)
  y axis: alpha_{1,2} = alpha(+1, -1), alpha_{3,4} = alpha(-1, -1)
  z axis: alpha_{1,2} = -4 c^2,        alpha_{3,4} = -4 e^2.

Two scalar detectors summarize the spectrum:

  coherence entropy   S = -sum_n |alpha_n| ln |alpha_n|   (always finite)
  log spectrum        L = -sum_n ln |alpha_n|             (diverges when an
                                                           alpha_n reaches 0)

The divergence of L is physical signal: it pinpoints parameter values where
a spectrum eigenvalue crosses zero, which happens at the critical couplings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .xstate import IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z, XState, dense_matrix

AXES = ("x", "y", "z")

# |alpha| below this counts as an exact zero of the spectrum: the log-spectrum
# detector is flagged divergent and its value is computed with |alpha| clamped
# here, keeping sweep output finite while preserving the blow-up shape.
EPS_DIVERGENCE = 1e-12

# K = 1 (x) sigma_axis on the pair, per axis, for the dense oracle.
_K_BY_AXIS = {
    axis: np.kron(IDENTITY_2, pauli)
    for axis, pauli in zip(AXES, (PAULI_X, PAULI_Y, PAULI_Z))
}


@dataclass(frozen=True)
class SpectrumEigenvalues:
    """The four eigenvalues of [rho, 1 (x) sigma_axis]^2, degeneracies explicit."""

    axis: str
    # ordered [a12, a12, a34, a34], all <= 0; shape (4,), or (4, n) for a column
    alphas: np.ndarray


@dataclass(frozen=True)
class DetectorValue:
    """A detector value plus divergence bookkeeping.

    When ``divergent`` is True the underlying quantity is -infinity; ``value``
    then holds the EPS_DIVERGENCE-clamped sum (finite, still spikes near the
    divergence) and consumers must branch on the flag. ``min_abs_alpha`` is
    the smallest |alpha_n|, letting callers judge the distance to divergence.
    Each field is a numpy scalar for one state, an array for a column.
    """

    value: float
    divergent: bool
    min_abs_alpha: float


def _alpha(x: XState, e1: float, e2: float):
    off = x.c - e2 * x.e
    root = np.sqrt(np.square(x.a - x.d) + 4.0 * np.square(off))
    val = -0.5 * (
        np.square(x.a - x.b)
        + np.square(x.b - x.d)
        + 2.0 * np.square(off)
        + e1 * (x.a - 2.0 * x.b + x.d) * root
    )
    # min(val, 0.0), keeping val on a tie so that -0.0 stays -0.0
    return np.where(val > 0.0, 0.0, val)


def spectrum_eigenvalues(x: XState, axis: str) -> SpectrumEigenvalues:
    """Closed-form spectrum of [rho, 1 (x) sigma_axis]^2 for axis in {x, y, z}."""
    if axis == "x":
        a12, a34 = _alpha(x, +1.0, +1.0), _alpha(x, -1.0, +1.0)
    elif axis == "y":
        a12, a34 = _alpha(x, +1.0, -1.0), _alpha(x, -1.0, -1.0)
    elif axis == "z":
        a12, a34 = -4.0 * np.square(x.c), -4.0 * np.square(x.e)
    else:
        raise ValueError(f"axis must be one of {AXES}, got {axis!r}")
    return SpectrumEigenvalues(axis=axis, alphas=np.array([a12, a12, a34, a34]))


def spectrum_eigenvalues_oracle(x: XState, axis: str) -> np.ndarray:
    """Dense-algebra route: eigenvalues of (rho K - K rho)^2, ascending.

    Independent of the closed forms; used to validate them.  One state only.
    """
    if axis not in _K_BY_AXIS:
        raise ValueError(f"axis must be one of {AXES}, got {axis!r}")
    rho = dense_matrix(x).astype(complex)
    k = _K_BY_AXIS[axis]
    comm = rho @ k - k @ rho
    return np.linalg.eigvalsh(comm @ comm)


def qc_scalar(x: XState, axis: str):
    """The trace detector -Tr[rho, K]^2 / 4 = -sum_n alpha_n / 4 >= 0."""
    return -0.25 * np.sum(spectrum_eigenvalues(x, axis).alphas, axis=0)


def coherence_entropy(x: XState, axis: str):
    """Entropy-like functional -sum_n |alpha_n| ln |alpha_n| (0 ln 0 = 0)."""
    mags = np.abs(spectrum_eigenvalues(x, axis).alphas)
    terms = mags * np.log(np.where(mags > 0.0, mags, 1.0))
    # 0.0 - sum, not -sum: an all-zero spectrum gives +0.0, not -0.0
    return 0.0 - np.sum(terms, axis=0)


def log_spectrum(x: XState, axis: str) -> DetectorValue:
    """Log detector -sum_n ln |alpha_n| with divergence flagging.

    Divergent iff min_n |alpha_n| < EPS_DIVERGENCE; the reported value is
    computed with |alpha_n| clamped below at EPS_DIVERGENCE.
    """
    mags = np.abs(spectrum_eigenvalues(x, axis).alphas)
    min_abs = np.min(mags, axis=0)
    value = -np.sum(np.log(np.maximum(mags, EPS_DIVERGENCE)), axis=0)
    return DetectorValue(
        value=value, divergent=min_abs < EPS_DIVERGENCE, min_abs_alpha=min_abs
    )
