import dataclasses
import math

import numpy as np
import pytest

from qcpdetect.coherence import (
    AXES,
    coherence_entropy,
    log_spectrum,
    qc_scalar,
    spectrum_eigenvalues,
)
from qcpdetect.discord import (
    _BLOCK,
    THETA_GRID_POINTS,
    entropy_pair,
    entropy_single,
    quantum_discord,
    s_tilde,
)
from qcpdetect.teleport import max_mean_fidelity, min_mean_trace_distance
from qcpdetect.xstate import (
    Correlators,
    XState,
    build_xstate,
    dense_matrix,
    make_xstate,
    sample_product_xstate,
    sample_random_xstate,
)

SEED = 77103


def shannon(ps):
    return -sum(p * math.log(p) for p in ps if p > 0)


def test_entropy_single_hand_value():
    # reduction diag(0.9, 0.1): -0.9 ln 0.9 - 0.1 ln 0.1
    x = make_xstate(0.85, 0.05, 0.0, 0.05, 0.0)  # a+b = 0.9, b+d = 0.1
    assert x.a + x.b == pytest.approx(0.9)
    want = shannon([0.9, 0.1])
    assert entropy_single(x) == pytest.approx(want, abs=1e-12)
    assert want == pytest.approx(0.3250829733914482)


def test_entropy_pair_matches_dense():
    rng = np.random.default_rng(SEED)
    for _ in range(300):
        x = sample_random_xstate(rng)
        evals = np.linalg.eigvalsh(dense_matrix(x))
        want = shannon([v for v in evals if v > 1e-15])
        assert entropy_pair(x) == pytest.approx(want, abs=1e-10)


def test_s_tilde_vectorization_consistent():
    rng = np.random.default_rng(SEED + 1)
    x = sample_random_xstate(rng)
    grid = np.linspace(0.0, math.pi / 2, 57)
    vec = s_tilde(x, grid)
    scal = np.array([s_tilde(x, float(t)) for t in grid])
    assert np.allclose(vec, scal, atol=1e-14)


def test_s_tilde_nonnegative():
    # conditional entropy after a projective measurement cannot be negative
    rng = np.random.default_rng(SEED + 2)
    grid = np.linspace(0.0, math.pi / 2, 201)
    for _ in range(200):
        x = sample_random_xstate(rng)
        assert float(np.min(s_tilde(x, grid))) >= -1e-12


def test_discord_bell_state_is_ln2():
    bell = make_xstate(0.5, 0.0, 0.0, 0.5, 0.5)
    res = quantum_discord(bell)
    assert res.value == pytest.approx(math.log(2.0), abs=1e-9)


def test_discord_maximally_mixed_is_zero():
    mixed = make_xstate(0.25, 0.25, 0.0, 0.25, 0.0)
    assert quantum_discord(mixed).value == 0.0


def test_discord_product_states_vanish():
    rng = np.random.default_rng(SEED + 3)
    for _ in range(200):
        x = sample_product_xstate(rng)
        assert abs(quantum_discord(x).value) < 1e-9


def test_discord_classical_mixture_vanishes():
    # classical-classical state: mixture of |00><00| and |11><11|
    x = make_xstate(0.7, 0.0, 0.0, 0.3, 0.0)
    assert quantum_discord(x).value < 1e-9


def test_discord_bounds_random_states():
    rng = np.random.default_rng(SEED + 4)
    for _ in range(400):
        x = sample_random_xstate(rng)
        qd = quantum_discord(x).value
        assert 0.0 <= qd <= math.log(2.0) + 1e-9


def test_discord_beats_coarse_grid():
    # the grid + nested-grid minimum agrees with a dense independent scan
    rng = np.random.default_rng(SEED + 5)
    thetas = np.linspace(0.0, math.pi / 2, 10001)
    for _ in range(50):
        x = sample_random_xstate(rng)
        res = quantum_discord(x)
        dense_min = float(np.min(s_tilde(x, thetas)))
        direct = entropy_single(x) - entropy_pair(x) + dense_min
        assert res.value <= max(direct, 0.0) + 1e-8
        assert res.value >= max(direct, 0.0) - 1e-8


MIXED = make_xstate(0.25, 0.25, 0.0, 0.25, 0.0)
BELL = make_xstate(0.5, 0.0, 0.0, 0.5, 0.5)

# Every closed form that takes one X state or a column of them, by name.
COLUMN_KERNELS = {
    "eigenvalues": XState.eigenvalues,
    "entropy_single": entropy_single,
    "entropy_pair": entropy_pair,
    "quantum_discord": quantum_discord,
    "max_mean_fidelity": max_mean_fidelity,
    "min_mean_trace_distance": min_mean_trace_distance,
    **{
        f"{fn.__name__}_{axis}": (lambda x, fn=fn, axis=axis: fn(x, axis))
        for fn in (spectrum_eigenvalues, qc_scalar, coherence_entropy, log_spectrum)
        for axis in AXES
    },
}


def _column(states):
    return XState(*(np.array([getattr(x, f) for x in states]) for f in "abcde"))


def _parts(result) -> list:
    """A kernel's result as a list of values: one per dataclass field."""
    if dataclasses.is_dataclass(result):
        return [getattr(result, f.name) for f in dataclasses.fields(result)]
    return [result]


def _assert_same(got, want):
    """Equal element by element, signed zeros included (assert_equal on
    scalars tells 0.0 from -0.0, on arrays it does not)."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    for g, w in zip(got.ravel(), want.ravel()):
        np.testing.assert_equal(g, w)


def test_batched_search_matches_single_calls():
    # one column: interior minima, theta* = 0 and pi/2 (random states), flat S~
    # (maximally mixed, Werner, product), exact ties (MIXED, Werner), signed
    # zeros (Bell spectra, pure product states), divergent log spectra
    # (MIXED, Bell, product); not a whole number of blocks
    rng = np.random.default_rng(SEED + 7)
    interior = [
        make_xstate(0.08, 0.06, 0.06, 0.8, 0.1264),
        make_xstate(0.14, 0.14, 0.0, 0.58, 0.1423),
        make_xstate(0.02, 0.04, 0.02, 0.9, 0.067),
    ]
    flat = [MIXED]
    flat += [build_xstate(Correlators(0.0, -p, -p, -p)) for p in (0.2, 0.6, 0.9)]
    flat += [sample_product_xstate(rng) for _ in range(6)]
    signed = [BELL, make_xstate(1.0, 0.0, 0.0, 0.0, 0.0), make_xstate(0.0, 0.0, 0.0, 1.0, 0.0)]
    states = interior + [sample_random_xstate(rng) for _ in range(40)] + flat + signed
    assert len(states) % _BLOCK != 0

    column = _column(states)
    for kernel in COLUMN_KERNELS.values():
        batched = _parts(kernel(column))
        for i, x in enumerate(states):
            for got, want in zip(batched, _parts(kernel(x))):
                if isinstance(got, str):  # the axis of a spectrum
                    assert got == want
                else:
                    _assert_same(got[..., i], want)
    # the column really holds zeros of both signs and exact ties
    alphas = spectrum_eigenvalues(column, "x").alphas
    assert np.any((alphas == 0.0) & np.signbit(alphas))
    assert np.any((entropy_single(column) == 0.0) & np.signbit(entropy_single(column)))
    sqc = coherence_entropy(column, "z")
    assert np.any((sqc == 0.0) & ~np.signbit(sqc))
    assert max_mean_fidelity(MIXED).branch == "xx"
    assert min_mean_trace_distance(MIXED).branch == "1-D-"
    assert max_mean_fidelity(flat[2]).branch == "xx"
    # and divergent log spectra next to finite ones
    flags = log_spectrum(column, "z").divergent
    assert flags.any() and not flags.all()

    # a single state gives numpy scalars and str labels
    fmax, lqc = max_mean_fidelity(BELL), log_spectrum(BELL, "x")
    assert type(fmax.value) is np.float64 and type(fmax.branch) is str
    assert type(lqc.divergent) is np.bool_ and bool(lqc.divergent)
    assert type(quantum_discord(BELL).theta_star) is np.float64

    dense = np.linspace(0.0, math.pi / 2, 100_001)
    grid = np.linspace(0.0, math.pi / 2, THETA_GRID_POINTS)
    results = quantum_discord(column)
    argmins = []
    for x, value, theta_star in zip(states, results.value, results.theta_star):
        on_dense = s_tilde(x, dense)
        argmins.append(int(np.argmin(on_dense)))
        base = entropy_single(x) - entropy_pair(x)
        assert value == pytest.approx(max(base + on_dense.min(), 0.0), abs=1e-12)
        assert 0.0 <= theta_star <= math.pi / 2
        assert s_tilde(x, theta_star) <= on_dense.min() + 1e-12
        # refinement never makes the grid's best value worse
        assert value <= max(base + float(np.min(s_tilde(x, grid))), 0.0)
    # the column really holds every kind of minimum
    assert all(0 < k < dense.size - 1 for k in argmins[: len(interior)])
    assert 0 in argmins and dense.size - 1 in argmins


def test_theta_star_is_reported_minimizer():
    rng = np.random.default_rng(SEED + 6)
    grid = np.linspace(0.0, math.pi / 2, 1001)
    for _ in range(100):
        x = sample_random_xstate(rng)
        res = quantum_discord(x)
        assert 0.0 <= res.theta_star <= math.pi / 2
        # the reported angle really attains the minimum of S~
        assert s_tilde(x, res.theta_star) <= float(np.min(s_tilde(x, grid))) + 1e-9


def test_werner_state_discord_symmetric_in_theta():
    # Werner states are isotropic, so S~ must be flat in theta
    p = 0.6
    x = build_xstate(Correlators(z=0.0, xx=-p, yy=-p, zz=-p))
    grid = np.linspace(0.0, math.pi / 2, 101)
    vals = s_tilde(x, grid)
    assert float(np.ptp(vals)) < 1e-12
