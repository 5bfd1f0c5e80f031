import dataclasses
import json
import math
from pathlib import Path

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
    THETA_REFINE_TOL,
    ZERO_CLAMP,
    _coefficients,
    _ends,
    _s_tilde,
    entropy_pair,
    entropy_single,
    quantum_discord,
    s_tilde,
)
from qcpdetect.models import ModelSpec, diagonalize, xy_thermo_correlators
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
ORACLES_REFERENCES = sorted(
    (Path(__file__).resolve().parents[1] / "bench" / "reference" / "oracles").glob(
        "seed_*.json"
    )
)

# The grid-and-refinement search that the endpoint rule and root search
# replaced, kept as the oracle: the argmin on a 1001-point theta grid, then
# nested 33-point grids on the bracket around the best point until it is at
# most THETA_REFINE_TOL wide, searched 16 states at a time.
ORACLE_GRID = np.linspace(0.0, 0.5 * math.pi, 1001)
ORACLE_GRID_COS = np.cos(ORACLE_GRID)
ORACLE_GRID_SIN = np.sin(ORACLE_GRID)
ORACLE_REFINE_UNIT = np.linspace(0.0, 1.0, 33)
ORACLE_BLOCK = 16


def _grid_min_s_tilde(zdiff, zmid, off):
    """(theta*, S~(theta*)) for a block of states given as (n, 1)
    coefficients.  A refined point replaces the best so far only where its
    S~ is lower."""
    rows = np.arange(zdiff.shape[0])
    on_grid = _s_tilde(zdiff, zmid, off, ORACLE_GRID_COS, ORACLE_GRID_SIN)
    k = np.argmin(on_grid, axis=1)
    theta, best = ORACLE_GRID[k], on_grid[rows, k]
    lo = ORACLE_GRID[np.maximum(k - 1, 0)]
    hi = ORACLE_GRID[np.minimum(k + 1, ORACLE_GRID.size - 1)]
    active = hi - lo > THETA_REFINE_TOL
    while active.any():
        t = lo[:, None] + (hi - lo)[:, None] * ORACLE_REFINE_UNIT
        on_t = _s_tilde(zdiff, zmid, off, np.cos(t), np.sin(t))
        j = np.argmin(on_t, axis=1)
        better = active & (on_t[rows, j] < best)
        theta = np.where(better, t[rows, j], theta)
        best = np.where(better, on_t[rows, j], best)
        lo = np.where(active, t[rows, np.maximum(j - 1, 0)], lo)
        hi = np.where(active, t[rows, np.minimum(j + 1, ORACLE_REFINE_UNIT.size - 1)], hi)
        active = hi - lo > THETA_REFINE_TOL
    return theta, best


def oracle_discord(x: XState) -> tuple[np.ndarray, np.ndarray]:
    """(qd, theta*) of a column of states by the grid-and-refinement search."""
    coeffs = np.array(_coefficients(x)).reshape(3, -1, 1)
    theta, s_min = np.empty(coeffs.shape[1]), np.empty(coeffs.shape[1])
    for start in range(0, coeffs.shape[1], ORACLE_BLOCK):
        block = slice(start, start + ORACLE_BLOCK)
        theta[block], s_min[block] = _grid_min_s_tilde(*coeffs[:, block])
    value = entropy_single(x) - entropy_pair(x) + s_min
    value = np.where((-ZERO_CLAMP <= value) & (value < 0.0), 0.0, value)
    return value, theta


def assert_matches_oracle(states: list) -> int:
    """The column's qd equals the oracle's to 1e-12, and its theta* lies
    within 1e-9 of the oracle's or S~ is flat between the two (equal to
    1e-12).  Returns how many minima are interior."""
    column = _column(states)
    got = quantum_discord(column)
    value, theta = oracle_discord(column)
    np.testing.assert_allclose(got.value, value, rtol=0.0, atol=1e-12)
    assert np.all((got.theta_star >= 0.0) & (got.theta_star <= 0.5 * math.pi))
    coeffs = np.array(_coefficients(column))
    on_got = _s_tilde(*coeffs, np.cos(got.theta_star), np.sin(got.theta_star))
    on_oracle = _s_tilde(*coeffs, np.cos(theta), np.sin(theta))
    flat = np.abs(on_got - on_oracle) <= 1e-12
    assert np.all((np.abs(got.theta_star - theta) <= 1e-9) | flat)
    return int(np.count_nonzero((got.theta_star > 0.0) & (got.theta_star < 0.5 * math.pi)))


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
# States whose minimum of S~ is interior (the second has a = b).
INTERIOR = [
    make_xstate(0.08, 0.06, 0.06, 0.8, 0.1264),
    make_xstate(0.14, 0.14, 0.0, 0.58, 0.1423),
    make_xstate(0.02, 0.04, 0.02, 0.9, 0.067),
]

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
    # (MIXED, Bell, product)
    rng = np.random.default_rng(SEED + 7)
    interior = INTERIOR
    flat = [MIXED]
    flat += [build_xstate(Correlators(0.0, -p, -p, -p)) for p in (0.2, 0.6, 0.9)]
    flat += [sample_product_xstate(rng) for _ in range(6)]
    signed = [BELL, make_xstate(1.0, 0.0, 0.0, 0.0, 0.0), make_xstate(0.0, 0.0, 0.0, 1.0, 0.0)]
    states = interior + [sample_random_xstate(rng) for _ in range(40)] + flat + signed

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
    results = quantum_discord(column)
    argmins = []
    for x, value, theta_star in zip(states, results.value, results.theta_star):
        on_dense = s_tilde(x, dense)
        argmins.append(int(np.argmin(on_dense)))
        base = entropy_single(x) - entropy_pair(x)
        assert value == pytest.approx(max(base + on_dense.min(), 0.0), abs=1e-12)
        assert 0.0 <= theta_star <= math.pi / 2
        assert s_tilde(x, theta_star) <= on_dense.min() + 1e-12
    # and equals the grid-and-refinement oracle, in both directions
    assert_matches_oracle(states)
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


# The search against the grid-and-refinement oracle.


@pytest.mark.parametrize("path", ORACLES_REFERENCES, ids=lambda p: p.stem)
def test_discord_matches_stored_oracle_outputs(path):
    # the benchmark's stored qd, computed by the grid-and-refinement search,
    # of its random states (seed n) and product states (seed n + 1)
    want = json.loads(path.read_text())
    seed = int(path.stem.removeprefix("seed_"))
    rng, product_rng = np.random.default_rng(seed), np.random.default_rng(seed + 1)
    states = [sample_random_xstate(rng) for _ in want["states"]]
    products = [sample_product_xstate(product_rng) for _ in want["products"]]
    got = quantum_discord(_column(states + products)).value
    stored = [ref["qd"] for ref in want["states"]] + want["products"]
    np.testing.assert_allclose(got, stored, rtol=0.0, atol=1e-12)


def test_end_values_and_slopes_match_direct_evaluation():
    # S~ at both ends, and dS~/du there against one-sided finite differences
    # in u = cos(theta)^2 (the error of which is about S~'' h)
    rng = np.random.default_rng(SEED + 10)
    states = [sample_random_xstate(rng) for _ in range(500)]
    column = _column(states)
    s_ends, at_1, at_0, singular = _ends(*_coefficients(column))
    assert not singular.any()
    for i, x in enumerate(states):
        assert s_ends[i, 0] == pytest.approx(s_tilde(x, 0.0), abs=1e-14)
        assert s_ends[i, 1] == pytest.approx(s_tilde(x, 0.5 * math.pi), abs=1e-14)
    h = 1e-6

    def on_u(u):
        return np.array([s_tilde(x, math.acos(math.sqrt(u))) for x in states])

    fd_1 = (on_u(1.0) - on_u(1.0 - h)) / h
    fd_0 = (on_u(h) - on_u(0.0)) / h
    np.testing.assert_allclose(at_1, fd_1, rtol=1e-3, atol=1e-4)
    np.testing.assert_allclose(at_0, fd_0, rtol=1e-3, atol=1e-4)


def test_search_matches_grid_oracle_on_random_states():
    rng = np.random.default_rng(SEED + 8)
    states = [sample_random_xstate(rng) for _ in range(20_000)]
    # the rare interior minima are among them
    assert assert_matches_oracle(states) > 0


def test_search_matches_grid_oracle_on_xy_thermal_states():
    # the L = inf chain over lambda (|lambda| > 1 and lambda = 1 included),
    # gamma and kT (kT = 0 included)
    states = [
        build_xstate(xy_thermo_correlators(lam, gamma, kT))
        for lam in (-1.6, -0.7, 0.0, 0.4, 0.95, 1.0, 1.3, 2.5)
        for gamma in (0.0, 0.3, 1.0)
        for kT in (0.0, 0.05, 0.4, 3.0)
    ]
    assert_matches_oracle(states)


def test_search_matches_grid_oracle_on_xxz_field_thermal_states():
    states = []
    for delta in (-1.5, 0.0, 1.0, 2.0, 3.0):
        for h in (0.0, 0.5, 4.0):
            solution = diagonalize(ModelSpec("xxz_field", 8, 0.0, delta=delta, h=h))
            states += [build_xstate(solution.correlators(kT)) for kT in (0.0, 0.1, 1.0)]
    assert_matches_oracle(states)


# Every class of state where an end slope's closed form is singular, by name:
# a zero probability at theta = 0, r12 = 0 (a = b) or r34 = 0 (b = d) there,
# and R0 = 0 or R0 = 1 at theta = pi/2.
SINGULAR = {
    "pure_up": make_xstate(1.0, 0.0, 0.0, 0.0, 0.0),
    "pure_down": make_xstate(0.0, 0.0, 0.0, 1.0, 0.0),
    "pure_entangled": make_xstate(0.2, 0.0, 0.0, 0.8, 0.4),
    "a_equals_b": make_xstate(0.2, 0.2, 0.1, 0.4, 0.15),
    "b_equals_d": make_xstate(0.4, 0.2, -0.05, 0.2, 0.1),
    "r0_zero": make_xstate(0.3, 0.2, 0.0, 0.3, 0.0),
    "r0_one": make_xstate(0.3, 0.2, 0.2, 0.3, 0.3),
    "werner": build_xstate(Correlators(0.0, -0.6, -0.6, -0.6)),
    "maximally_mixed": MIXED,
    "product": make_xstate(0.09, 0.21, 0.0, 0.49, 0.0),
    "product_pure_half": make_xstate(0.25, 0.25, 0.0, 0.25, 0.0),
    "bell_phi": BELL,
    "bell_psi": make_xstate(0.0, 0.5, 0.5, 0.0, 0.0),
}


def _singular_kind(x: XState) -> set:
    zdiff, zmid, off = _coefficients(x)
    kinds = set()
    if min(x.a, x.b, x.d, x.a + x.b, x.b + x.d) == 0.0:
        kinds.add("zero probability")
    if x.a == x.b:
        kinds.add("r12 = 0")
    if x.b == x.d:
        kinds.add("r34 = 0")
    r0 = math.hypot(zdiff, 2.0 * off)
    if r0 == 0.0:
        kinds.add("R0 = 0")
    if r0 == 1.0:
        kinds.add("R0 = 1")
    return kinds


@pytest.mark.parametrize("name", sorted(SINGULAR))
def test_search_on_singular_states(name):
    x = SINGULAR[name]
    flat = float(np.ptp(s_tilde(x, np.linspace(0.0, 0.5 * math.pi, 101)))) < 1e-12
    # each state really is singular at an end, or its S~ is flat
    assert _singular_kind(x) or flat
    assert_matches_oracle([x])
    assert_matches_oracle([x, BELL, x])
    res = quantum_discord(x)
    dense = np.linspace(0.0, 0.5 * math.pi, 10_001)
    direct = entropy_single(x) - entropy_pair(x) + float(np.min(s_tilde(x, dense)))
    assert res.value == pytest.approx(max(direct, 0.0), abs=1e-12)


def test_singular_classes_are_covered():
    kinds = set().union(*(_singular_kind(x) for x in SINGULAR.values()))
    assert kinds == {"zero probability", "r12 = 0", "r34 = 0", "R0 = 0", "R0 = 1"}
    assert quantum_discord(SINGULAR["bell_psi"]).value == pytest.approx(math.log(2.0))
    for name in ("pure_up", "pure_down", "product", "product_pure_half", "r0_zero"):
        assert quantum_discord(SINGULAR[name]).value < 1e-12


@pytest.mark.parametrize("index", range(len(INTERIOR)))
def test_interior_root(index):
    x = INTERIOR[index]
    res = quantum_discord(x)
    theta = float(res.theta_star)
    assert 1e-3 < theta < 0.5 * math.pi - 1e-3
    # theta* is a stationary point of S~ ...
    h = 1e-5
    slope = (s_tilde(x, theta + h) - s_tilde(x, theta - h)) / (2.0 * h)
    assert abs(slope) < 1e-8
    # ... and a minimum that beats both ends by far more than rounding
    at_root = s_tilde(x, theta)
    assert at_root <= min(s_tilde(x, theta - h), s_tilde(x, theta + h))
    assert min(s_tilde(x, 0.0), s_tilde(x, 0.5 * math.pi)) - at_root > 1e-7
    value, oracle_theta = oracle_discord(_column([x]))
    assert res.value == pytest.approx(value[0], abs=1e-12)
    assert theta == pytest.approx(oracle_theta[0], abs=1e-6)
