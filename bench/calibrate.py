"""A fixed reference computation that measures how fast the machine runs now.

On a machine whose cores are shared with other tenants, the same pass can
take 1.5 times longer in one minute than in the next; process CPU time
slows with wall time, so the loss is slower execution, not waiting.  The
kernels here use no code of the program.  Each worker times them right
before and right after its timed pass.  run.py scales the run's median
times by REFERENCE_CALIB_S over the median calibration time, so a slow
phase of the machine slows both and cancels, while a slower program slows
only the pass.

The kernels mirror what the workloads do: interpreted Python, many small
numpy LAPACK calls, and array arithmetic on a grid of the size the
brute-force oracles use.  Each kernel's time is the median of REPEATS
rounds, which drops short spikes.  A dense eigensolve through the two BLAS
threads was tried as a fourth kernel and left out: its time jumps several
fold whenever another tenant holds a vCPU, and it tracked even the
eigh-bound ``ising_L12`` passes worse than the single-thread kernels.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

PY_ITERATIONS = 150_000
SMALL_CALLS = 1_200
VECTOR_CALLS = 9
VECTOR_ROWS = 32_768
REPEATS = 5


def _python() -> int:
    total = 0
    for i in range(PY_ITERATIONS):
        total += (i * i) % 7
    return total


def _small(matrix: np.ndarray) -> float:
    total = 0.0
    for _ in range(SMALL_CALLS):
        total += float(np.linalg.eigvalsh(matrix)[0] + np.abs(matrix).sum())
    return total


def _vector(kets: np.ndarray, form: np.ndarray) -> float:
    total = 0.0
    for _ in range(VECTOR_CALLS):
        total += float(np.einsum("ni,ni->n", kets.conj(), kets @ form).real.max())
    return total


def inputs() -> tuple[np.ndarray, ...]:
    """The kernels' fixed inputs, built once per process outside any timing."""
    rng = np.random.default_rng(0)
    small = rng.standard_normal((4, 4))
    kets = rng.standard_normal((VECTOR_ROWS, 4)) + 1j * rng.standard_normal((VECTOR_ROWS, 4))
    return small + small.T, kets, small @ small.T + 0j


def measure(matrices: tuple[np.ndarray, ...], repeats: int = REPEATS) -> float:
    """Seconds one round of the kernels takes now: the sum of their medians."""
    small, kets, form = matrices
    kernels = ((_python, ()), (_small, (small,)), (_vector, (kets, form)))
    times: list[list[float]] = [[] for _ in kernels]
    for _ in range(repeats):
        for (kernel, args), samples in zip(kernels, times):
            t0 = time.perf_counter()
            kernel(*args)
            samples.append(time.perf_counter() - t0)
    return sum(statistics.median(samples) for samples in times)
