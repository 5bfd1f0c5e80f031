import math
from dataclasses import astuple, replace
from types import SimpleNamespace

import numpy as np
import pytest

import qcpdetect.models as models_mod
import qcpdetect.scan as scan_mod
from qcpdetect.coherence import AXES, coherence_entropy, log_spectrum
from qcpdetect.discord import quantum_discord
from qcpdetect.models import FreeFermionSolution, ModelSpec, thermal_correlators
from qcpdetect.scan import (
    COLUMN_DTYPES,
    COLUMNS,
    NUMERIC_COLUMNS,
    QcpEstimate,
    SweepResult,
    derivative,
    estimate_qcp,
    evaluate_detectors,
    extrapolate_to_zero,
    search_window,
    sweep,
    sweep_inputs,
)
from qcpdetect.teleport import max_mean_fidelity, min_mean_trace_distance
from qcpdetect.xstate import (
    Correlators,
    PhysicalityError,
    build_xstate,
    make_xstate,
    sample_random_xstate,
)


def synthetic_result(params, values, eta, kT=1.0):
    return SweepResult(
        axis="delta",
        eta=eta,
        kT=kT,
        params=np.asarray(params, dtype=float),
        columns={"qd": np.asarray(values, dtype=float)},
        errors=(None,) * len(params),
    )


# ---------------------------------------------------------------------------
# derivative
# ---------------------------------------------------------------------------


def test_derivative_linear_is_exact():
    x = np.linspace(0.0, 1.0, 11)
    f = 3.0 * x + 1.0
    for method in ("forward", "backward", "central"):
        d = derivative(f, 0.1, method)
        finite = np.isfinite(d)
        assert np.allclose(d[finite], 3.0, atol=1e-12)


def test_derivative_quadratic_values():
    eta = 0.01
    x = np.linspace(0.0, 1.0, 101)
    f = x * x
    fwd = derivative(f, eta, "forward")
    cen = derivative(f, eta, "central")
    bwd = derivative(f, eta, "backward")
    # forward of x^2 is 2x + eta, central is 2x exactly
    assert np.allclose(fwd[:-1], 2.0 * x[:-1] + eta, atol=1e-10)
    assert np.allclose(cen[1:-1], 2.0 * x[1:-1], atol=1e-10)
    # central is the mean of forward and backward
    both = np.isfinite(fwd) & np.isfinite(bwd)
    assert np.allclose(cen[both], 0.5 * (fwd + bwd)[both], atol=1e-12)
    # edge alignment
    assert math.isnan(fwd[-1]) and math.isnan(bwd[0])
    assert math.isnan(cen[0]) and math.isnan(cen[-1])


def test_derivative_second_order_constant_curvature():
    eta = 0.01
    x = np.linspace(0.0, 1.0, 101)
    f = x * x
    for method in ("forward", "central", "backward"):
        d2 = derivative(f, eta, method, order=2)
        finite = np.isfinite(d2)
        assert finite.sum() >= 95
        assert np.allclose(d2[finite], 2.0, atol=1e-8)


def test_derivative_nan_propagation():
    eta = 0.1
    f = np.arange(11, dtype=float) ** 2
    f[5] = math.nan
    fwd = derivative(f, eta, "forward")
    assert math.isnan(fwd[4]) and math.isnan(fwd[5]) and math.isnan(fwd[10])
    assert np.isfinite(fwd[3]) and np.isfinite(fwd[6])
    bwd = derivative(f, eta, "backward")
    assert math.isnan(bwd[5]) and math.isnan(bwd[6]) and math.isnan(bwd[0])
    cen = derivative(f, eta, "central")
    # the central stencil at the failed point itself skips it
    assert np.isfinite(cen[5])
    assert math.isnan(cen[4]) and math.isnan(cen[6])
    # second application widens the hole
    fwd2 = derivative(f, eta, "forward", order=2)
    for i in (3, 4, 5, 9, 10):
        assert math.isnan(fwd2[i])
    assert np.isfinite(fwd2[2]) and np.isfinite(fwd2[6])


def test_derivative_input_validation():
    with pytest.raises(ValueError):
        derivative([1.0, 2.0], 0.1)
    with pytest.raises(ValueError):
        derivative([1.0, 2.0, 3.0], 0.0)
    with pytest.raises(ValueError):
        derivative([1.0, 2.0, 3.0], 0.1, method="sideways")
    with pytest.raises(ValueError):
        derivative([1.0, 2.0, 3.0], 0.1, order=3)


# ---------------------------------------------------------------------------
# estimate_qcp on synthetic detector curves
# ---------------------------------------------------------------------------


def test_kink_location_with_narrow_window():
    # |x - 1| has a flat +-1 first derivative, so the peak position inside
    # a bracketing window is only pinned down to one grid step
    eta = 0.01
    x = np.linspace(0.5, 1.5, 101)
    res = synthetic_result(x, np.abs(x - 1.0), eta)
    for method in ("forward", "central", "backward"):
        est = estimate_qcp(res, "qd", order=1, method=method, window=(0.99, 1.01))
        assert abs(est.estimate - 1.0) <= eta + 1e-12
        assert est.uncertainty == pytest.approx(eta)


def test_kink_second_derivative_spike_locations():
    eta = 0.01
    x = np.linspace(0.5, 1.5, 101)
    res = synthetic_result(x, np.abs(x - 1.0), eta)
    fwd = estimate_qcp(res, "qd", order=2, method="forward", window=(0.9, 1.1))
    cen = estimate_qcp(res, "qd", order=2, method="central", window=(0.9, 1.1))
    # applying the forward stencil twice reads the curvature one step early
    assert fwd.estimate == pytest.approx(1.0 - eta, abs=1e-12)
    assert cen.estimate == pytest.approx(1.0, abs=1e-12)
    assert cen.estimate - fwd.estimate == pytest.approx(eta, abs=1e-12)
    assert fwd.uncertainty == pytest.approx(2 * eta)


def test_smooth_peak_method_offset():
    # a smooth symmetric peak in the second derivative: forward-twice lands
    # one grid step below the central reading
    eta = 0.01
    x = np.linspace(0.5, 1.5, 101)
    res = synthetic_result(x, np.sqrt((x - 1.0) ** 2 + 0.05**2), eta)
    fwd = estimate_qcp(res, "qd", order=2, method="forward", window=(0.7, 1.3))
    cen = estimate_qcp(res, "qd", order=2, method="central", window=(0.7, 1.3))
    assert cen.estimate == pytest.approx(1.0, abs=1e-12)
    assert cen.estimate - fwd.estimate == pytest.approx(eta, abs=1e-12)


def test_smoothed_step_second_order():
    # smoothed step centered at 4.875: order-2 reading stays within 2 eta
    eta = 0.01
    x = np.linspace(4.375, 5.375, 101)
    res = synthetic_result(x, np.tanh((x - 4.875) / 0.02), eta)
    for method in ("forward", "central"):
        est = estimate_qcp(res, "qd", order=2, method=method, window=(4.7, 5.05))
        assert abs(est.estimate - 4.875) <= 2 * eta + 1e-12


def test_estimate_window_handling():
    eta = 0.01
    x = np.linspace(0.5, 1.5, 101)
    res = synthetic_result(x, np.abs(x - 1.0), eta)
    with pytest.raises(ValueError):
        estimate_qcp(res, "qd", window=(0.4, 1.1))  # leaves the grid
    with pytest.raises(ValueError):
        estimate_qcp(res, "qd", window=(1.1, 0.9))
    with pytest.raises(ValueError):
        estimate_qcp(res, "qd")  # neither window nor candidate
    est = estimate_qcp(res, "qd", candidate=1.0)  # candidate -> +-0.5 window
    assert 0.5 <= est.estimate <= 1.5


def test_estimate_requires_defined_derivative():
    eta = 0.1
    x = np.linspace(0.0, 1.0, 11)
    vals = np.abs(x - 0.5)
    vals[4:7] = math.nan
    res = synthetic_result(x, vals, eta)
    with pytest.raises(ValueError):
        estimate_qcp(res, "qd", order=1, method="central", window=(0.5, 0.5999))


def test_estimate_refuses_a_detector_constant_to_rounding():
    eta = 0.1
    x = np.linspace(0.0, 2.0, 21)
    noise = np.random.default_rng(5).uniform(-1.0, 1.0, x.size)
    for base in (0.0, 3.0):
        res = synthetic_result(x, base + 2e-16 * max(1.0, base) * noise, eta)
        with pytest.raises(ValueError, match="'qd' is constant to rounding"):
            estimate_qcp(res, "qd", window=(0.5, 1.5))
    # only the in-window values count: a detector that varies outside the
    # window alone is still constant inside it
    res = synthetic_result(x, np.where(x > 1.55, x, 0.0), eta)
    with pytest.raises(ValueError, match="constant to rounding"):
        estimate_qcp(res, "qd", window=(0.5, 1.5))
    # a small but real variation is located
    res = synthetic_result(x, 1e-9 * np.abs(x - 1.0), eta)
    est = estimate_qcp(res, "qd", order=2, method="central", window=(0.5, 1.5))
    assert est.estimate == pytest.approx(1.0, abs=1e-12)


def test_search_window_checks_the_grid():
    grid = 0.2 + np.arange(25) * 0.05
    # 0.7 - 0.5 rounds to 0.19999999999999996: inside the 1e-12 slack
    lo, hi = search_window(None, 0.7, grid)
    assert lo < 0.2 and hi == pytest.approx(1.2)
    assert search_window((0.3, 0.9), None, grid) == (0.3, 0.9)
    with pytest.raises(ValueError, match="leaves the grid"):
        search_window(None, 0.6, grid)
    with pytest.raises(ValueError, match="lo < hi"):
        search_window((0.9, 0.3), None, grid)
    with pytest.raises(ValueError, match="either window"):
        search_window(None, None, grid)


def test_estimate_tie_breaks_to_smaller_param():
    eta = 0.01
    x = np.linspace(0.5, 1.5, 101)
    res = synthetic_result(x, np.abs(x - 1.0), eta)
    est = estimate_qcp(res, "qd", order=1, method="forward", window=(0.99, 1.01))
    # derivative magnitude is 1 on the whole window; first index wins
    assert est.estimate == pytest.approx(0.99, abs=1e-12)


def test_qcp_estimate_validates_order():
    with pytest.raises(ValueError):
        QcpEstimate(0.5, "qd", 3, "forward", 1.0, 0.01)


# ---------------------------------------------------------------------------
# extrapolation
# ---------------------------------------------------------------------------


def _make_estimates(kts, values):
    return [
        QcpEstimate(kT=k, detector="qd", order=1, method="forward",
                    estimate=v, uncertainty=0.01)
        for k, v in zip(kts, values)
    ]


def test_extrapolation_recovers_exact_line():
    kts = [0.1, 0.2, 0.3, 0.4]
    fit = extrapolate_to_zero(_make_estimates(kts, [1.0 + 0.5 * k for k in kts]))
    assert fit.intercept == pytest.approx(1.0, abs=1e-12)
    assert fit.slope == pytest.approx(0.5, abs=1e-12)
    assert fit.stderr == pytest.approx(0.0, abs=1e-10)
    assert fit.n_points == 4


def test_extrapolation_reports_scatter():
    fit = extrapolate_to_zero(_make_estimates([0.1, 0.2, 0.3], [1.0, 1.05, 1.02]))
    assert fit.stderr > 0.0


def test_extrapolation_input_validation():
    with pytest.raises(ValueError):
        extrapolate_to_zero(_make_estimates([0.1, 0.2], [1.0, 1.1]))
    with pytest.raises(ValueError):
        extrapolate_to_zero(_make_estimates([0.1, 0.1, 0.1], [1.0, 1.0, 1.0]))
    # three estimates, but only two distinct temperatures
    with pytest.raises(ValueError, match="distinct"):
        extrapolate_to_zero(_make_estimates([0.1, 0.1, 0.2], [1.0, 1.1, 1.2]))
    with pytest.raises(ValueError, match="distinct"):
        extrapolate_to_zero([])
    mixed = _make_estimates([0.1, 0.2, 0.3], [1.0, 1.0, 1.0])
    mixed[1] = QcpEstimate(0.2, "fmax_ext", 1, "forward", 1.0, 0.01)
    with pytest.raises(ValueError):
        extrapolate_to_zero(mixed)


# ---------------------------------------------------------------------------
# sweep on a small real model
# ---------------------------------------------------------------------------


def test_sweep_grid_and_records():
    template = ModelSpec("xxz", 4, 0.5)
    results = sweep(template, "delta", -1.2, -0.8, eta=0.1, kT_list=(0.5, 1.0))
    assert len(results) == 2
    assert [r.kT for r in results] == [0.5, 1.0]
    for res in results:
        assert np.allclose(res.params, [-1.2, -1.1, -1.0, -0.9, -0.8], atol=1e-12)
        assert res.errors == (None,) * 5
        assert set(res.columns) == set(COLUMNS)
        assert all(col.shape == (5,) for col in res.columns.values())
        assert res.failed_count == 0
        qd = res.column("qd")
        assert np.all(np.isfinite(qd))
        assert np.all(qd >= 0.0) and np.all(qd <= math.log(2.0) + 1e-9)
        # xx = yy on this family, so the z coherence spectrum always
        # contains an exact zero
        assert res.column("lqc_z_divergent").all()
        # the x spectrum develops a zero exactly on the xx = +-zz lines
        flags = res.column("lqc_x_divergent").tolist()
        assert flags == [False, False, True, False, False]


def test_sweep_deterministic():
    template = ModelSpec("xy", 4, 0.7, gamma=1.0)
    a = sweep(template, "lambda", 0.6, 1.4, eta=0.2, kT_list=(0.7,))[0]
    b = sweep(template, "lambda", 0.6, 1.4, eta=0.2, kT_list=(0.7,))[0]
    for col in NUMERIC_COLUMNS:
        np.testing.assert_array_equal(a.column(col), b.column(col))


def test_sweep_inputs_are_what_sweep_runs_on():
    template = ModelSpec("xxz_field", 4, 0.5, h=2.0)
    axis_field, params, kts = sweep_inputs(template, "h", 1.0, 2.0, 0.25)
    assert axis_field == "h"
    np.testing.assert_array_equal(params, [1.0, 1.25, 1.5, 1.75, 2.0])
    assert kts == (0.5,)
    results = sweep(template, "h", 1.0, 2.0, 0.25, kT_list=(1, 0.5))
    assert [r.kT for r in results] == [1.0, 0.5]
    for result in results:
        np.testing.assert_array_equal(result.params, params)


def test_sweep_validates_inputs():
    template = ModelSpec("xxz", 4, 0.5)
    with pytest.raises(ValueError):
        sweep(template, "lambda", 0.0, 1.0, eta=0.1)  # wrong family for axis
    with pytest.raises(ValueError):
        sweep(template, "sideways", 0.0, 1.0, eta=0.1)
    with pytest.raises(ValueError):
        sweep(template, "delta", 0.0, 1.0, eta=0.3)  # not an integer step count
    with pytest.raises(ValueError):
        sweep(template, "delta", 1.0, 0.0, eta=0.1)
    with pytest.raises(ValueError):
        sweep(template, "delta", 0.0, 1.0, eta=0.1, kT_list=(-1.0,))
    with pytest.raises(ValueError, match="kT = 0.1 appears more than once"):
        sweep(template, "delta", 0.0, 1.0, eta=0.1, kT_list=(0.1, 0.1, 0.2))
    # a non-finite step or end gives no grid (not [nan], not an OverflowError)
    for eta in (math.inf, math.nan, 0.0):
        with pytest.raises(ValueError, match="eta must be finite and > 0"):
            sweep(template, "delta", 0.0, 1.0, eta=eta)
    for start, stop in ((-math.inf, 1.0), (0.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="start and stop must be finite"):
            sweep(template, "delta", start, stop, eta=0.1)


def _unphysical_at(monkeypatch, delta, **bad):
    """Make the model solve give the point ``delta`` the correlators ``bad``
    at every temperature, as an unphysical solver result would."""
    original = models_mod.thermal_solution

    def patched(spec, **column):
        solution = original(spec, **column)
        at = np.abs(column["delta"] - delta) < 1e-9
        if not at.any():
            return solution

        def table(kts):
            rows = solution.table(kts)
            for name, value in bad.items():
                rows[:, COLUMNS.index(name), at] = value
            return rows

        return SimpleNamespace(table=table)

    monkeypatch.setattr(models_mod, "thermal_solution", patched)


def test_sweep_isolates_detector_failures(monkeypatch):
    template = ModelSpec("xxz", 4, 0.5)
    clean = sweep(template, "delta", -1.2, -0.8, eta=0.1)[0]
    # the model gives the point delta = -1.1 an unphysical xx: only its X
    # state fails, with the message of the one-state build
    _unphysical_at(monkeypatch, -1.1, xx=1.5)
    res = sweep(template, "delta", -1.2, -0.8, eta=0.1)[0]
    bad = replace(Correlators(*(float(clean.column(c)[1]) for c in COLUMNS[:4])), xx=1.5)
    with pytest.raises(PhysicalityError) as scalar:
        build_xstate(bad)
    assert res.failed_count == 1
    assert res.errors[1] == f"PhysicalityError: {scalar.value}"
    assert res.errors[1] == "PhysicalityError: correlator xx outside [-1, 1] (value 1.500e+00)"
    assert math.isnan(res.column("qd")[1])
    assert math.isnan(res.column("xx")[1])
    assert res.errors[0] is None and np.isfinite(res.column("qd")[0])
    qd = res.column("qd")
    assert math.isnan(qd[1]) and np.isfinite(qd).sum() == 4
    # the other points are those of the clean sweep
    keep = np.arange(5) != 1
    for name in NUMERIC_COLUMNS:
        np.testing.assert_array_equal(res.column(name)[keep], clean.column(name)[keep])
    # column() hands out a copy: writing to it leaves the result unchanged
    qd[0] = -1.0
    assert res.column("qd")[0] != -1.0
    assert not np.shares_memory(res.column("qd"), res.columns["qd"])
    # a failed point does not change a column's dtype
    for name in ("fmax_branch", "dmin_branch", "lqc_x_divergent", "lqc_z_divergent"):
        assert res.column(name).dtype == clean.column(name).dtype == COLUMN_DTYPES[name]
    assert res.column("fmax_branch")[1] is None
    assert not res.column("lqc_z_divergent")[1]
    # a detector that raises fails every row of its column, and the
    # unphysical point keeps its own message
    def broken(x):
        raise RuntimeError("boom")

    monkeypatch.setattr(scan_mod, "max_mean_fidelity", broken)
    res = sweep(template, "delta", -1.2, -0.8, eta=0.1, kT_list=(0.5, 1.0))
    for result in res:
        assert result.errors[1].startswith("PhysicalityError: correlator xx")
        assert [result.errors[i] for i in (0, 2, 3, 4)] == ["RuntimeError: boom"] * 4
        assert np.isnan(result.column("qd")).all()


def test_detector_exception_fails_only_its_own_rows(monkeypatch):
    # a detector that raises on any column holding a hot state (b near 1/4)
    # fails those rows alone: the cold rows of the same column are evaluated
    # again and match a sweep without the fault
    template = ModelSpec("xy", None, 0.05, gamma=1.0)
    args = (template, "lambda", 0.9, 1.1, 0.05, (0.05, 5.0))
    clean = sweep(*args)
    original = scan_mod.max_mean_fidelity

    def hot_broken(x):
        if (np.asarray(x.b) > 0.24).any():
            raise FloatingPointError("hot state")
        return original(x)

    monkeypatch.setattr(scan_mod, "max_mean_fidelity", hot_broken)
    cold, hot = sweep(*args)
    b = [(1.0 - result.column("zz")) / 4.0 for result in clean]
    assert (b[0] < 0.24).all() and (b[1] > 0.24).all()
    assert cold.failed_count == 0 and hot.failed_count == 5
    assert hot.errors == ("FloatingPointError: hot state",) * 5
    for name in NUMERIC_COLUMNS:
        np.testing.assert_array_equal(cold.column(name), clean[0].column(name))
    for name in ("fmax_branch", "dmin_branch"):
        assert cold.column(name).tolist() == clean[0].column(name).tolist()
    assert np.isnan(hot.column("qd")).all() and np.isnan(hot.column("xx")).all()


def test_evaluate_detectors_record_contents():
    corr = Correlators(z=0.0, xx=0.2, yy=0.2, zz=0.3)
    row = evaluate_detectors(0.3, corr)
    assert tuple(row) == COLUMNS
    assert row["xx"] == pytest.approx(0.2)
    assert np.isfinite(row["qd"]) and 0.0 <= row["qd"] <= 1.0
    assert row["lqc_z_divergent"]  # xx = yy forces a zero z-spectrum entry
    assert row["fmax_branch"] in ("xx", "yy", "zz")
    assert row["dmin_branch"] in ("1-D-", "D+")
    assert float(row["lqc_z_divergent"]) == 1.0


def test_each_column_is_bound_to_its_own_detector():
    # Every column holds the value of the call it is named after.  Random
    # states, plus one state divergent on each axis alone (c = e, c = -e and
    # e = 0), make any two columns of one dtype differ somewhere (checked at
    # the end), so a column that read another's value would fail.
    rng = np.random.default_rng(20261021)
    states = [sample_random_xstate(rng) for _ in range(12)] + [
        make_xstate(0.25, 0.25, 0.1, 0.25, 0.1),
        make_xstate(0.25, 0.25, 0.1, 0.25, -0.1),
        make_xstate(0.4, 0.2, 0.1, 0.2, 0.0),
    ]
    wanted = []
    for state in states:
        corr = state.correlators()
        x = build_xstate(corr)
        qd = quantum_discord(x)
        fmax, dmin = max_mean_fidelity(x), min_mean_trace_distance(x)
        want = {
            **vars(corr),
            "qd": qd.value, "theta_star": qd.theta_star,
            "fmax_ext": fmax.value, "fmax_branch": fmax.branch,
            "dmin_int": dmin.value, "dmin_branch": dmin.branch,
        }
        for axis in AXES:
            lqc = log_spectrum(x, axis)
            want[f"sqc_{axis}"] = coherence_entropy(x, axis)
            want[f"lqc_{axis}"] = lqc.value
            want[f"lqc_{axis}_divergent"] = lqc.divergent
        row = evaluate_detectors(0.0, corr)
        assert tuple(row) == COLUMNS and row.keys() == want.keys()
        for name in COLUMNS:
            assert row[name] == want[name], name
        wanted.append(want)
    for i, name in enumerate(COLUMNS):
        for other in COLUMNS[:i]:
            if COLUMN_DTYPES[name] is COLUMN_DTYPES[other]:
                assert any(w[name] != w[other] for w in wanted), (name, other)


@pytest.mark.parametrize(
    "template, axis, start, stop, eta, kts",
    [
        (ModelSpec("xy", None, 0.5), "lambda", 0.9, 1.1, 0.01, (0.0, 0.02, 0.5)),
        (ModelSpec("xxz", 4, 0.5), "delta", -1.5, 0.5, 0.1, (0.1, 1.0)),
        (ModelSpec("xy", 12, 0.5, gamma=1.0), "lambda", 0.9, 1.1, 0.01, (0.0, 0.02, 0.5)),
        (ModelSpec("xy", 8, 0.5, lam=1.2), "gamma", -1.0, 1.0, 0.1, (0.05, math.inf)),
    ],
)
def test_sweep_rows_match_evaluate_detectors(template, axis, start, stop, eta, kts):
    # the column-batched discord gives every row what the one-point path gives
    for res in sweep(template, axis, start, stop, eta=eta, kT_list=kts):
        assert res.failed_count == 0 and res.params.size > 16
        for i, param in enumerate(res.params):
            corr = Correlators(*(float(res.columns[c][i]) for c in COLUMNS[:4]))
            row = evaluate_detectors(float(param), corr)
            assert res.columns["qd"][i] == row["qd"]
            assert res.columns["theta_star"][i] == row["theta_star"]
            for name in COLUMNS:
                np.testing.assert_equal(res.columns[name][i], row[name])


def test_sweep_calls_each_detector_once_per_sweep(monkeypatch):
    calls = []

    def counted(name):
        original = getattr(scan_mod, name)

        def wrapper(x, *args):
            calls.append((name, *args))
            return original(x, *args)

        monkeypatch.setattr(scan_mod, name, wrapper)

    detectors = (
        "quantum_discord",
        "coherence_entropy",
        "log_spectrum",
        "max_mean_fidelity",
        "min_mean_trace_distance",
    )
    for name in (*detectors, "build_xstate", "build_xstates"):
        counted(name)
    # the solvers are counted where the grid is solved
    def counted_solver(name):
        original = getattr(models_mod, name)

        def wrapper(*args, **kwargs):
            calls.append((name,))
            return original(*args, **kwargs)

        monkeypatch.setattr(models_mod, name, wrapper)

    counted_solver("thermal_solution")
    counted_solver("FreeFermionSolution")
    kts = (0.1, 0.5, 1.0)
    results = sweep(ModelSpec("xxz", 4, 0.5), "delta", -1.5, 0.5, eta=0.1, kT_list=kts)
    points = results[0].params.size
    assert points > 16 and all(r.failed_count == 0 for r in results)
    # one model solve per column block (all these points fit in one),
    # reused at every temperature; the X states of all rows built at once,
    # and each detector once, on those rows
    assert calls.count(("thermal_solution",)) == 1
    assert calls.count(("build_xstates",)) == 1
    assert calls.count(("build_xstate",)) == 0
    for name in ("quantum_discord", "max_mean_fidelity", "min_mean_trace_distance"):
        assert calls.count((name,)) == 1
    for name in ("coherence_entropy", "log_spectrum"):
        for axis in AXES:
            assert calls.count((name, axis)) == 1
    assert len(calls) == 1 + 1 + 9
    # a finite xy ring is solved the same way: the modes of these points at
    # all temperatures fit in one block of the free fermions
    calls.clear()
    results = sweep(ModelSpec("xy", 6, 0.5), "lambda", 0.0, 2.0, eta=0.1, kT_list=kts)
    assert results[0].params.size * len(kts) * 6 <= models_mod._COLUMN_MODES
    assert calls.count(("thermal_solution",)) == 1
    assert calls.count(("FreeFermionSolution",)) == 1
    assert calls.count(("quantum_discord",)) == 1


def test_xy_sweep_columns_match_one_point_solves():
    # 101 points at 3 temperatures on 12 modes span two column blocks of the
    # solver
    template = ModelSpec("xy", 12, 0.5, gamma=0.0)
    kts = (0.0, 0.05, math.inf)
    results = sweep(template, "lambda", -0.5, 1.5, eta=0.02, kT_list=kts)
    assert results[0].params.size * len(kts) * 12 > models_mod._COLUMN_MODES
    for res in results:
        assert res.failed_count == 0
        for i, param in enumerate(res.params.tolist()):
            want = thermal_correlators(replace(template, lam=param, kT=res.kT))
            assert tuple(res.columns[c][i] for c in COLUMNS[:4]) == astuple(want)


def test_xy_sweep_records_a_failed_column_block(monkeypatch):
    def boom(self, kts):
        raise RuntimeError("boom")

    monkeypatch.setattr(FreeFermionSolution, "table", boom)
    template = ModelSpec("xy", 6, 0.5)
    results = sweep(template, "lambda", 0.0, 1.0, eta=0.25, kT_list=(0.1, 1.0))
    for res in results:
        assert res.errors == ("RuntimeError: boom",) * 5
        assert np.isnan(res.column("qd")).all()


def test_xy_sweep_failure_stays_inside_its_column_block(monkeypatch):
    # 101 points at 3 temperatures on 12 modes: blocks of 85 and 16 points.
    # The block that holds the chosen lam fails and is solved again a point
    # at a time: the chosen lam fails alone, and every other point has the
    # bits of the clean sweep
    template = ModelSpec("xy", 12, 0.5)
    kts = (0.0, 0.05, math.inf)
    args = (template, "lambda", -0.5, 1.5)
    clean = sweep(*args, eta=0.02, kT_list=kts)
    step = models_mod._COLUMN_MODES // (len(kts) * 12)
    params = clean[0].params.tolist()
    assert len(params) == 101 and step == 85
    chosen = params[90]

    class Flaky(FreeFermionSolution):
        def __init__(self, spec, **column):
            if chosen in np.asarray(column["lam"]).tolist():
                raise RuntimeError("boom")
            super().__init__(spec, **column)

    monkeypatch.setattr(models_mod, "FreeFermionSolution", Flaky)
    results = sweep(*args, eta=0.02, kT_list=kts)
    keep = np.arange(101) != 90
    for res, ref in zip(results, clean):
        assert res.errors == (None,) * 90 + ("RuntimeError: boom",) + (None,) * 10
        for name in COLUMNS:
            got, want = res.columns[name][keep], ref.columns[name][keep]
            if got.dtype == object:  # branch labels
                assert got.tolist() == want.tolist()
            else:  # bitwise
                assert got.tobytes() == want.tobytes()
        assert math.isnan(res.column("qd")[90]) and math.isnan(res.column("z")[90])


def test_record_rejects_unknown_column():
    res = sweep(ModelSpec("xxz", 4, 0.5), "delta", -1.2, -0.8, eta=0.1)[0]
    with pytest.raises(KeyError):
        res.column("fmax")
    with pytest.raises(KeyError):
        res.column("params")


def test_param_column_is_a_copy_of_the_grid():
    res = synthetic_result([0.0, 0.5, 1.0], [1.0, 2.0, 3.0], eta=0.5)
    grid = res.column("param")
    np.testing.assert_array_equal(grid, [0.0, 0.5, 1.0])
    grid[0] = -1.0
    assert res.params[0] == 0.0
