"""Acceptance gate: end-to-end guarantees at their advertised tolerances.

One test per numbered guarantee.  These pin the package's headline
behaviors: the analytic critical lines, the coherence spectrum closed
forms against dense oracles, closed-form detectors against brute-force
searches, exact-diagonalization symmetry identities, teleportation limits,
Monte Carlo convergence, the finite-difference method offset, and the full
sweep -> derivative -> extrapolation pipeline on desk-scale chains.
"""

import math
import time

import numpy as np
import pytest

from qcpdetect.coherence import (
    AXES,
    coherence_entropy,
    log_spectrum,
    spectrum_eigenvalues,
    spectrum_eigenvalues_oracle,
)
from qcpdetect.discord import quantum_discord
from qcpdetect.models import ModelSpec, diagonalize, xxz_delta1, xxz_delta2
from qcpdetect.scan import derivative, estimate_qcp, extrapolate_to_zero, sweep
from qcpdetect.teleport import (
    BELL_LABELS,
    InputQubit,
    bob_output,
    max_mean_fidelity,
    max_mean_fidelity_bruteforce,
    mean_fidelity,
    min_mean_trace_distance,
    min_mean_trace_distance_bruteforce,
    outcome_probability,
    simulate_protocol,
    trace_distance,
)
from qcpdetect.xstate import (
    build_xstate,
    make_xstate,
    sample_product_xstate,
    sample_random_xstate,
)

BELL = make_xstate(0.5, 0.0, 0.0, 0.5, 0.5)
MAXIMALLY_MIXED = make_xstate(0.25, 0.25, 0.0, 0.25, 0.0)


def test_criterion_1_critical_line_values():
    t0 = time.perf_counter()
    delta2_large = xxz_delta2(12.0)
    delta2_small = xxz_delta2(1e-50)
    delta1_large = xxz_delta1(12.0, 1.0)
    delta1_zero = xxz_delta1(0.0, 1.0)
    elapsed = time.perf_counter() - t0
    assert abs(delta2_large - 4.875) <= 1e-3
    assert abs(delta2_small - 1.0) <= 1e-3
    assert delta1_large == 2.0
    assert delta1_zero == -1.0
    assert elapsed < 1.0


def test_criterion_2_bell_coherence_spectrum():
    want = np.array([-1.0, -1.0, 0.0, 0.0])
    for axis in AXES:
        closed = np.sort(spectrum_eigenvalues(BELL, axis).alphas)
        dense = np.sort(spectrum_eigenvalues_oracle(BELL, axis))
        assert np.max(np.abs(closed - want)) <= 1e-12
        assert np.max(np.abs(closed - dense)) <= 1e-12
        assert log_spectrum(BELL, axis).divergent
        assert coherence_entropy(BELL, axis) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.slow
def test_criterion_3_detector_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20250818)
    for _ in range(10_000):
        x = sample_random_xstate(rng)
        for axis in AXES:
            closed = np.sort(spectrum_eigenvalues(x, axis).alphas)
            dense = np.sort(spectrum_eigenvalues_oracle(x, axis))
            assert np.max(np.abs(closed - dense)) < 1e-10
        closed_f = max_mean_fidelity(x).value
        brute = max_mean_fidelity_bruteforce(x, n_theta=128, n_chi=256)
        assert abs(closed_f - brute.grid_value) < 1e-3
        assert abs(closed_f - brute.value) < 1e-6
        closed_d = min_mean_trace_distance(x).value
        assert abs(closed_d - min_mean_trace_distance_bruteforce(x)) < 1e-9
        qd = quantum_discord(x).value
        assert 0.0 <= qd <= 1.0
    product_rng = np.random.default_rng(20250819)
    for _ in range(1_000):
        assert quantum_discord(sample_product_xstate(product_rng)).value < 1e-9
    assert time.perf_counter() - t0 < 300.0


def test_criterion_4_symmetry_identities_at_criticality():
    for L in (4, 6, 8):
        ferro = diagonalize(ModelSpec("xxz", L, 0.5, delta=1.0))
        stagger = diagonalize(ModelSpec("xxz", L, 0.5, delta=-1.0))
        isotropic = diagonalize(ModelSpec("xy", L, 0.5, lam=0.9, gamma=0.0))
        for kT in (0.5, 1.0, 5.0):
            cp = ferro.correlators(kT)
            assert abs(cp.xx - cp.zz) < 1e-10
            cm = stagger.correlators(kT)
            assert abs(cm.xx + cm.zz) < 1e-10
            cxy = isotropic.correlators(kT)
            assert abs(cxy.xx - cxy.yy) < 1e-10
            # each identity forces a zero in a coherence spectrum, so the
            # log-spectrum divergence flag fires at the critical point
            assert log_spectrum(build_xstate(cp), "x").divergent
            assert log_spectrum(build_xstate(cm), "x").divergent
            assert log_spectrum(build_xstate(cxy), "z").divergent


@pytest.mark.slow
def test_criterion_5_teleportation_sanity(xxz_zero_field_sweep):
    inputs = [
        InputQubit(theta, chi)
        for theta in np.linspace(0.0, math.pi, 7)
        for chi in np.linspace(0.0, 2.0 * math.pi, 9)[:-1]
    ]
    for qubit in inputs:
        assert mean_fidelity(qubit, BELL, "phi+") == pytest.approx(1.0, abs=1e-12)
        for set_label in BELL_LABELS:
            assert mean_fidelity(qubit, MAXIMALLY_MIXED, set_label) == pytest.approx(
                0.5, abs=1e-12
            )
    # zero field keeps the chain unmagnetized, and the internal protocol's
    # error vanishes identically at z = 0
    res = xxz_zero_field_sweep
    assert res.failed_count == 0
    assert np.all(np.abs(res.column("z")) < 1e-12)
    assert np.all(res.column("dmin_int") <= 1e-12)


def _analytic_mean_trace_distance(qubit, x, set_label):
    total = 0.0
    for label in BELL_LABELS:
        q = outcome_probability(qubit, x, label)
        if q < 1e-14:
            continue
        out = bob_output(qubit, x, label, set_label)
        total += q * trace_distance(out, qubit.density())
    return total


def test_criterion_6_monte_carlo_convergence():
    rng = np.random.default_rng(424242)
    for case in range(20):
        x = sample_random_xstate(rng)
        qubit = InputQubit(
            float(rng.uniform(0.0, math.pi)), float(rng.uniform(0.0, 2.0 * math.pi))
        )
        set_label = BELL_LABELS[int(rng.integers(4))]
        sim = simulate_protocol(x, qubit, set_label, runs=100_000, seed=1000 + case)
        again = simulate_protocol(x, qubit, set_label, runs=100_000, seed=1000 + case)
        assert np.array_equal(sim.counts, again.counts)
        assert sim.mean_fidelity == again.mean_fidelity
        assert sim.mean_trace_distance == again.mean_trace_distance
        want_f = mean_fidelity(qubit, x, set_label)
        want_d = _analytic_mean_trace_distance(qubit, x, set_label)
        assert abs(sim.mean_fidelity - want_f) <= 3.0 * sim.stderr_fidelity + 1e-12
        assert (
            abs(sim.mean_trace_distance - want_d)
            <= 3.0 * sim.stderr_trace_distance + 1e-12
        )


def test_criterion_7_difference_method_offset(ising_sweeps):
    eta = 0.01
    for kT, res in sorted(ising_sweeps.items()):
        vals = res.column("dmin_int")
        window = (res.params >= 0.7 - 1e-12) & (res.params <= 1.3 + 1e-12)
        locs = {}
        for method in ("forward", "central"):
            d2 = derivative(vals, eta, method, order=2)
            masked = np.where(window & np.isfinite(d2), d2, math.inf)
            locs[method] = res.params[int(np.argmin(masked))]
        assert locs["central"] - locs["forward"] == pytest.approx(eta, abs=1e-9), kT


# Per-detector derivative pipeline (order, method) used for locating the
# critical coupling on each finite-size model family.
ISING_PIPELINES = {
    "qd": (2, "central"),
    "fmax_ext": (1, "forward"),
    "dmin_int": (2, "forward"),
    "sqc_z": (1, "forward"),
}

XXZ_FIELD_PIPELINES = {
    "qd": (1, "forward"),
    "fmax_ext": (1, "forward"),
    "dmin_int": (2, "forward"),
    "sqc_z": (2, "forward"),
}


def test_criterion_8a_ising_extrapolation(ising_sweeps):
    for detector, (order, method) in ISING_PIPELINES.items():
        estimates = [
            estimate_qcp(
                res, detector, order=order, method=method, window=(0.7, 1.3)
            )
            for _, res in sorted(ising_sweeps.items())
        ]
        fit = extrapolate_to_zero(estimates)
        assert abs(fit.intercept - 1.0) <= 0.15, (detector, fit.intercept)


@pytest.mark.slow
def test_criterion_8b_xxz_field_trend(xxz_field_sweeps):
    for detector, (order, method) in XXZ_FIELD_PIPELINES.items():
        distance = {}
        for kT, res in xxz_field_sweeps.items():
            est = estimate_qcp(
                res, detector, order=order, method=method, window=(1.6, 2.4)
            )
            distance[kT] = abs(est.estimate - 2.0)
        # cooling moves the estimate toward the critical coupling
        ordered = [distance[kT] for kT in sorted(distance)]
        assert all(a <= b + 1e-9 for a, b in zip(ordered, ordered[1:])), (
            detector,
            ordered,
        )
        assert ordered[0] <= 0.1, (detector, ordered[0])


def test_criterion_8c_thermo_limit_pipeline(xy_thermo_sweep, sweep_timings):
    for method in ("forward", "central"):
        est = estimate_qcp(
            xy_thermo_sweep, "dmin_int", order=2, method=method, window=(0.8, 1.2)
        )
        assert abs(est.estimate - 1.0) <= 0.02, (method, est.estimate)
    est_s = estimate_qcp(
        xy_thermo_sweep, "sqc_z", order=1, method="forward", window=(0.8, 1.2)
    )
    assert abs(est_s.estimate - 1.0) <= 0.02
    # overall sweep budget for the desk-scale estimation layer
    assert sum(sweep_timings.values()) < 1800.0


def test_criterion_8d_xy_anisotropy_line_thermo_limit():
    """The anisotropy QCP gamma = 0 of the L = inf xy chain at lam = 1.5.

    gamma -> -gamma swaps xx and yy and keeps z and zz, so qd, fmax_ext,
    dmin_int and sqc_z are even in gamma, and on this grid, symmetric about
    gamma = 0, so are their order-2 central derivatives; their readings
    must land on gamma = 0 within eta.  No symmetry holds sqc_x and lqc_x
    there, since the swap exchanges the x and y axes: their readings drift
    to -0.02 ... -0.13 as kT rises from 0.01 to 0.1, and are not gated.
    """
    eta = 0.01
    results = sweep(
        ModelSpec("xy", None, 0.01, lam=1.5, gamma=0.0),
        "gamma",
        -0.3,
        0.3,
        eta=eta,
        kT_list=(0.01, 0.05, 0.1),
    )
    for res in results:
        assert res.failed_count == 0
        for detector in ("qd", "fmax_ext", "dmin_int", "sqc_z"):
            est = estimate_qcp(
                res, detector, order=2, method="central", window=(-0.3, 0.3)
            )
            assert abs(est.estimate) <= eta, (res.kT, detector, est.estimate)
