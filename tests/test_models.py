import decimal
import gc
import math
import re
from dataclasses import astuple, replace

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from qcpdetect import models
from qcpdetect.models import (
    FreeFermionSolution,
    ModelSpec,
    ThermoLimitSolution,
    build_hamiltonian,
    diagonalize,
    thermal_correlators,
    thermal_solution,
    xxz_delta1,
    xxz_delta2,
    xy_thermo_correlators,
)
from qcpdetect.scan import sweep

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SZ = np.array([[1.0, 0.0], [0.0, -1.0]])
ID = np.eye(2)


def _site_op(op: np.ndarray, site: int, L: int) -> np.ndarray:
    # bit j of the basis index is site j+1, so site 1 is the fast (last) factor
    mats = [ID] * L
    mats[L - site] = op
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def _dense_reference(spec: ModelSpec) -> np.ndarray:
    L = spec.L
    h = np.zeros((2**L, 2**L), dtype=complex)
    for i in range(1, L + 1):
        jn = i % L + 1
        x = _site_op(SX, i, L) @ _site_op(SX, jn, L)
        y = _site_op(SY, i, L) @ _site_op(SY, jn, L)
        z = _site_op(SZ, i, L) @ _site_op(SZ, jn, L)
        if spec.family in ("xxz", "xxz_field"):
            h += x + y + spec.delta * z
        else:
            lam = spec.lam
            h -= 0.25 * lam * ((1 + spec.gamma) * x + (1 - spec.gamma) * y)
    if spec.family == "xxz_field":
        for i in range(1, L + 1):
            h -= 0.5 * spec.h * _site_op(SZ, i, L)
    if spec.family == "xy":
        for i in range(1, L + 1):
            h -= 0.5 * _site_op(SZ, i, L)
    return h


@pytest.mark.parametrize(
    "spec",
    [
        ModelSpec("xxz", 6, 1.0, delta=0.7),
        ModelSpec("xxz", 6, 1.0, delta=-1.3),
        ModelSpec("xxz_field", 6, 0.5, delta=2.0, h=12.0),
        ModelSpec("xy", 6, 0.5, lam=0.8, gamma=1.0),
        ModelSpec("xy", 6, 0.5, lam=1.4, gamma=0.3),
    ],
)
def test_hamiltonian_matches_kron_reference(spec):
    # The sector blocks, placed at their basis states, are the Kronecker
    # Hamiltonian; every block is symmetric, and the sectors partition the
    # basis.
    ref = _dense_reference(spec)
    assert np.max(np.abs(ref.imag)) < 1e-14
    built = np.zeros(ref.shape)
    bases = []
    for basis, block in build_hamiltonian(spec):
        np.testing.assert_array_equal(block, block.T)
        built[np.ix_(basis, basis)] = block
        bases.append(basis)
    np.testing.assert_array_equal(np.sort(np.concatenate(bases)), np.arange(2**spec.L))
    np.testing.assert_allclose(built, ref.real, rtol=0.0, atol=1e-12)


def test_heisenberg_ground_state_energy():
    # L=4 Heisenberg ring (Delta=1) ground energy is -8 with this
    # normalization (coupling 2 per bond in the flip terms)
    sol = diagonalize(ModelSpec("xxz", 4, 1.0, delta=1.0))
    assert sol.e0 == pytest.approx(-8.0, abs=1e-12)


def _assert_matches_kron_oracle(spec: ModelSpec) -> None:
    # The oracle of the sector ED: the kron Hamiltonian diagonalized as one
    # dense block by np.linalg.eigh, sharing no code with diagonalize.
    # Energies must agree, and diagonalize's bond averages must equal the
    # single pairs (1, 2) and (5, 6) measured on the oracle's eigenvectors.
    L = spec.L
    solution = diagonalize(spec)
    energies, vectors = np.linalg.eigh(_dense_reference(spec))
    np.testing.assert_allclose(
        np.sort(solution.energies), energies, rtol=0.0, atol=1e-12
    )
    gap = energies - energies[0]
    for kT in (0.0, 0.2, 0.7, 1.0, 5.0):
        if kT == 0.0:
            w = gap <= models.GROUND_STATE_WINDOW * max(1.0, abs(energies[0]))
        else:
            w = np.exp(-gap / kT)
        rho = (vectors * (w / w.sum())) @ vectors.conj().T
        got = solution.correlators(kT)
        for site in (1, 5):
            nxt = site % L + 1
            ops = {
                "z": _site_op(SZ, site, L),
                "xx": _site_op(SX, site, L) @ _site_op(SX, nxt, L),
                "yy": _site_op(SY, site, L) @ _site_op(SY, nxt, L),
                "zz": _site_op(SZ, site, L) @ _site_op(SZ, nxt, L),
            }
            for name, op in ops.items():
                want = np.trace(rho @ op).real
                assert getattr(got, name) == pytest.approx(want, abs=1e-12), (
                    spec, kT, site, name
                )


@pytest.mark.parametrize(
    "spec",
    [
        ModelSpec("xxz", 8, 0.5, delta=0.3),
        ModelSpec("xxz_field", 8, 0.5, delta=1.5, h=3.0),
        ModelSpec("xy", 8, 0.5, lam=0.9, gamma=1.0),
    ],
)
def test_sector_and_dense_solvers_agree(spec):
    # sector ED against the dense kron oracle, one spec per family
    _assert_matches_kron_oracle(spec)


def test_translation_invariance_of_pair_choice():
    # The gamma = 0 ring has a two-fold ground space, whose kT = 0 average is
    # translation invariant although its eigenvectors need not be.
    for spec in (
        ModelSpec("xy", 8, 0.7, lam=1.2, gamma=0.6),
        ModelSpec("xy", 8, 0.7, lam=1.0, gamma=0.0),
    ):
        _assert_matches_kron_oracle(spec)


def test_su2_symmetry_at_isotropic_point():
    # Delta = 1, h = 0 has full spin-rotation symmetry: xx = yy = zz
    for L in (4, 6, 8):
        sol = diagonalize(ModelSpec("xxz", L, 1.0, delta=1.0))
        for kT in (0.5, 1.0, 5.0):
            c = sol.correlators(kT)
            assert c.xx == pytest.approx(c.zz, abs=1e-10)
            assert c.xx == pytest.approx(c.yy, abs=1e-12)
            assert c.z == pytest.approx(0.0, abs=1e-12)


def test_staggered_symmetry_at_minus_one():
    # Delta = -1, h = 0: unitary pi-rotation on one sublattice maps the
    # model to Delta = +1 and flips the sign of xx, so xx = -zz
    for L in (4, 6, 8):
        sol = diagonalize(ModelSpec("xxz", L, 1.0, delta=-1.0))
        for kT in (0.5, 1.0, 5.0):
            c = sol.correlators(kT)
            assert c.xx == pytest.approx(-c.zz, abs=1e-10)


def test_xy_isotropic_gamma_zero():
    for L in (4, 6, 8):
        sol = diagonalize(ModelSpec("xy", L, 1.0, lam=0.9, gamma=0.0))
        for kT in (0.5, 1.0, 5.0):
            c = sol.correlators(kT)
            assert c.xx == pytest.approx(c.yy, abs=1e-12)


def test_infinite_temperature_limit():
    sol = diagonalize(ModelSpec("xxz_field", 6, 1.0, delta=1.4, h=2.0))
    c = sol.correlators(math.inf)
    for name in ("z", "xx", "yy", "zz"):
        assert getattr(c, name) == pytest.approx(0.0, abs=1e-14)


def test_zero_temperature_uses_ground_space():
    spec = ModelSpec("xy", 6, 0.0, lam=0.5, gamma=1.0)
    sol = diagonalize(spec)
    w = models._thermal_weights(sol.energies - sol.e0, (0.0,), sol.e0)[0]
    assert w.sum() == pytest.approx(1.0, abs=1e-14)
    occupied = w > 0
    gaps = sol.energies[occupied] - sol.e0
    assert np.max(gaps) < 1e-9
    c0 = sol.correlators(0.0)
    c_small = sol.correlators(1e-9)
    assert c0.xx == pytest.approx(c_small.xx, abs=1e-8)


# One solution of each solver: exact diagonalization of every family (the
# xy ring through diagonalize, as the symmetry checks use it), the free
# fermions of a finite xy ring and the L = None integrals.
SOLVERS = pytest.mark.parametrize(
    "solve, spec",
    [
        (thermal_solution, ModelSpec("xxz", 4, 0.5, delta=0.7)),
        (thermal_solution, ModelSpec("xy", 4, 0.5, lam=0.8)),
        (thermal_solution, ModelSpec("xy", None, 0.5, lam=0.8)),
        (thermal_solution, ModelSpec("xxz_field", 6, 0.5, delta=1.5, h=3.0)),
        (diagonalize, ModelSpec("xy", 6, 0.5, lam=0.8, gamma=0.6)),
    ],
    ids=["diagonalize", "free-fermions", "thermo-limit", "diagonalize-field", "diagonalize-xy"],
)


@SOLVERS
@pytest.mark.parametrize("kT", [math.nan, -0.1])
def test_solutions_reject_nan_and_negative_kT(solve, spec, kT):
    with pytest.raises(ValueError, match=re.escape(f"kT must be >= 0, got {kT}")):
        solve(spec).correlators(kT)


@SOLVERS
def test_table_rows_are_the_one_temperature_answers(solve, spec):
    # every solver answers table(kts) for all temperatures at once, and its
    # rows are what one temperature alone gives, to the last bit
    kts = (0.0, 0.05, 0.5, math.inf)
    solution = solve(spec)
    table = solution.table(kts)
    assert table.shape == (len(kts), 4)
    for kT, row in zip(kts, table.tolist()):
        got = [x.hex() for x in row]
        assert got == [x.hex() for x in solution.table((kT,))[0].tolist()], kT
        assert got == [x.hex() for x in astuple(solution.correlators(kT))], kT


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec("bogus", 6, 1.0)
    with pytest.raises(ValueError):
        ModelSpec("xxz", 5, 1.0)  # odd length
    with pytest.raises(ValueError):
        ModelSpec("xxz", 2, 1.0)  # below minimum
    with pytest.raises(ValueError):
        ModelSpec("xxz", 14, 1.0)  # above DEFAULT_L_MAX
    with pytest.raises(ValueError):
        ModelSpec("xxz", None, 1.0)  # thermodynamic limit is xy-only
    with pytest.raises(ValueError):
        ModelSpec("xxz", 6, -0.1)
    for length in (8.0, True, "8", np.float64(8.0)):
        with pytest.raises(ValueError, match="L must be an integer"):
            ModelSpec("xxz", length, 1.0)
    for name in ("delta", "h", "lam", "gamma"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                ModelSpec("xxz", 6, 1.0, **{name: bad})
    # valid: thermodynamic-limit xy, a numpy integer length, infinite kT
    ModelSpec("xy", None, 0.05, lam=1.0, gamma=1.0)
    ModelSpec("xxz", np.int64(6), 1.0)
    ModelSpec("xxz_field", 6, math.inf, delta=0.9, h=1.0)


def test_model_spec_caps_L_per_solver():
    # an xy ring is solved by its free fermions, one row of a block at most;
    # the xxz families by exact diagonalization, which alone needs 2^L states
    for L in (14, 600, models._COLUMN_MODES):
        assert ModelSpec("xy", L, 0.1).L == L
    for L in (models._COLUMN_MODES + 2, 601, 2):
        with pytest.raises(ValueError, match=f"<= {models._COLUMN_MODES} for family 'xy'"):
            ModelSpec("xy", L, 0.1)
    for family in ("xxz", "xxz_field"):
        with pytest.raises(ValueError, match=f"4 <= L <= {models.DEFAULT_L_MAX} for family"):
            ModelSpec(family, 14, 0.1)
    # and so does diagonalize, whatever the family
    with pytest.raises(ValueError, match=f"diagonalization needs L <= {models.DEFAULT_L_MAX}"):
        diagonalize(ModelSpec("xy", 14, 0.1))


def test_model_spec_rejects_a_coupling_its_family_does_not_read():
    # xxz has no field and xy no anisotropy Delta: a value there would be
    # silently ignored by every solver
    with pytest.raises(ValueError, match="family 'xxz' does not read h"):
        ModelSpec("xxz", 8, 0.1, h=3.0)
    with pytest.raises(ValueError, match="family 'xy' does not read delta"):
        ModelSpec("xy", 8, 0.1, delta=0.7)
    with pytest.raises(ValueError, match="family 'xxz_field' does not read gamma"):
        ModelSpec("xxz_field", 8, 0.1, gamma=0.5)
    # an unread coupling at its default is the spec without it
    assert ModelSpec("xxz", 8, 0.1, h=0.0, lam=0.0, gamma=1.0) == ModelSpec("xxz", 8, 0.1)
    assert models.FAMILIES == tuple(models.FAMILY_COUPLINGS)


def test_critical_line_delta1():
    assert xxz_delta1(12.0) == 2.0
    assert xxz_delta1(0.0) == -1.0


def test_critical_line_delta2_reference_points():
    assert xxz_delta2(12.0) == pytest.approx(4.875, abs=1e-3)
    # h -> 0+ tends to 1 (slow, logarithmic approach)
    assert xxz_delta2(1e-50) == pytest.approx(1.0, abs=1e-3)
    assert xxz_delta2(1e-10) > xxz_delta2(1e-50)


# pi to 64 digits, for the 60-digit decimal oracle below
_PI = decimal.Decimal("3.141592653589793238462643383279502884197169399375105820974944592")


def _critical_field_reference(eta: float) -> float:
    """h(eta) = 4 sinh(eta) sum_j (-1)^j / cosh(j eta) in 60-digit decimal
    arithmetic, sharing no code with ``models._field_of_eta``: the
    alternating sech series summed directly for eta >= 0.3, where 60 digits
    outlast its cancellation, and its Poisson resummation
    (2 pi / eta) sum_{m>=0} sech((2m+1) pi^2 / (2 eta)) below."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        e = decimal.Decimal(eta)
        if eta >= 0.3:
            # sech(j eta) = 2 x^j / (1 + x^2j) with x = e^-eta
            x, xj, total, j = (-e).exp(), decimal.Decimal(1), decimal.Decimal(1), 0
            while True:
                j += 1
                xj *= x
                term = 4 * xj / (1 + xj * xj)
                if term < decimal.Decimal("1e-70"):
                    break
                total += term if j % 2 == 0 else -term
        else:
            args = [(2 * m + 1) * _PI * _PI / (2 * e) for m in range(8)]
            total = 2 * _PI / e * sum(2 / (a.exp() + (-a).exp()) for a in args)
        return float(2 * (e.exp() - (-e).exp()) * total)


def test_critical_field_matches_decimal_oracle_to_rounding():
    # the bound is rounding times exp's conditioning pi^2 / (4 eta) of the
    # small-eta Gaussian; eta = 0.999, 1 and 1.001 straddle the
    # implementation's change of theta_4 series
    for eta in [*np.geomspace(0.02, 60.0, 200), 0.999, 1.0, 1.001]:
        eta = float(eta)
        want = _critical_field_reference(eta)
        bound = 4 * 2.0**-52 * max(1.0, math.pi**2 / (4 * eta))
        assert abs(models._field_of_eta(eta) / want - 1) <= bound, eta


def test_critical_line_delta2_roundtrip():
    # invert the oracle's field on both sides of eta = 1, where the
    # implementation changes theta_4 series, and deep into small fields
    for eta in (0.05, 0.1, 0.2, 0.4, 0.7, 0.999, 1.0, 1.001, 2.5, 8.0, 30.0):
        delta = math.cosh(eta)
        h = _critical_field_reference(eta)
        assert xxz_delta2(h) == pytest.approx(delta, rel=1e-14, abs=0), eta


def test_critical_line_delta2_monotone_in_field():
    fields = [1e-6, 1e-3, 0.1, 1.0, 5.0, 12.0, 50.0]
    deltas = [xxz_delta2(h) for h in fields]
    assert all(x < y for x, y in zip(deltas, deltas[1:]))
    assert all(d > 1.0 for d in deltas)


def test_critical_line_delta2_invalid_inputs():
    with pytest.raises(ValueError):
        xxz_delta2(0.0)
    with pytest.raises(ValueError):
        xxz_delta2(-1.0)
    with pytest.raises(ValueError):
        xxz_delta2(math.nan)
    with pytest.raises(ValueError, match="not bracketed by eta in"):
        xxz_delta2(1e30)


def test_xy_thermo_criticality_values():
    # transverse Ising point lam=1, gamma=1 at kT = 0:
    # z = xx = 2/pi, yy = -2/(3 pi), zz = z^2 - xx*yy
    c = xy_thermo_correlators(1.0, 1.0, 0.0)
    assert c.z == pytest.approx(2.0 / math.pi, abs=1e-10)
    assert c.xx == pytest.approx(2.0 / math.pi, abs=1e-10)
    assert c.yy == pytest.approx(-2.0 / (3.0 * math.pi), abs=1e-10)
    assert c.zz == pytest.approx(c.z**2 - c.xx * c.yy, abs=1e-12)


def test_xy_thermo_zero_coupling():
    # lam = 0: free spins in the transverse field, z = tanh(1/(2 kT))
    for kT in (0.2, 1.0, 4.0):
        c = xy_thermo_correlators(0.0, 1.0, kT)
        assert c.z == pytest.approx(math.tanh(0.5 / kT), abs=1e-12)
        assert c.xx == pytest.approx(0.0, abs=1e-12)
        assert c.yy == pytest.approx(0.0, abs=1e-12)


def _gauss_legendre_xy(lam: float, gamma: float, kT: float, nodes: int = 2048):
    """z, xx, yy of the L = None xy ring by fixed Gauss-Legendre quadrature of
    the integrals behind ``xy_thermo_correlators``; smooth for |lam| < 1."""
    x, w = scipy.special.roots_legendre(nodes)
    k, w = 0.5 * math.pi * (x + 1.0), 0.5 * w  # (1/pi) int_0^pi dk
    xi, delta = 1.0 - lam * np.cos(k), lam * gamma * np.sin(k)
    energy = np.hypot(xi, delta)
    t = np.tanh(0.5 * energy / kT)
    z, ic = w @ (xi / energy * t), w @ (np.cos(k) * xi / energy * t)
    is_ = w @ (np.sin(k) * delta / energy * t)
    return {"xx": is_ - ic, "yy": -is_ - ic, "z": z}


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="known defect, ROADMAP item 1: z alone misses; its adaptive quad is "
    "2.7e-10 off at lam = 0.961, kT = 0.05, and the lam = 0.961 row of "
    "bench/reference/ising_thermo/sweep_kT0.05.csv stores that error",
)
def test_xy_thermo_matches_gauss_legendre_at_missed_tolerance_point():
    lam, gamma, kT = 0.9 + 61 * 0.001, 1.0, 0.05
    c = xy_thermo_correlators(lam, gamma, kT)
    # xx and yy pass, so the reference holds there; z is the missed one.
    for name, want in _gauss_legendre_xy(lam, gamma, kT).items():
        assert getattr(c, name) == pytest.approx(want, abs=1e-10), name


def _three_closure_xy_integrals(lam: float, gamma: float, kT: float):
    """z, Ic, Is by one integrand function per integral, each evaluating its
    own nodes; z is the oracle of ``models._z_integral`` to the bit."""

    def z_integrand(k):
        xi = 1.0 - lam * math.cos(k)
        en = math.hypot(xi, lam * gamma * math.sin(k))
        if en < 1e-300:
            return 0.0
        return xi / en * (math.tanh(0.5 * en / kT) if kT else 1.0)

    def ic_integrand(k):
        cos_k = math.cos(k)
        xi = 1.0 - lam * cos_k
        en = math.hypot(xi, lam * gamma * math.sin(k))
        if en < 1e-300:
            return 0.0
        return cos_k * (xi / en * (math.tanh(0.5 * en / kT) if kT else 1.0))

    def is_integrand(k):
        sin_k = math.sin(k)
        xi = 1.0 - lam * math.cos(k)
        dd = lam * gamma * sin_k
        en = math.hypot(xi, dd)
        if en < 1e-300:
            return 0.0
        return sin_k * (dd / en * (math.tanh(0.5 * en / kT) if kT else 1.0))

    points = None
    if abs(lam) > 1.0:
        k0 = math.acos(1.0 / lam) if lam > 0 else math.acos(-1.0 / abs(lam))
        if 1e-12 < k0 < math.pi - 1e-12:
            points = [k0]
    opts = dict(epsabs=1e-10, epsrel=1e-10, limit=200, points=points)
    return tuple(
        scipy.integrate.quad(f, 0.0, math.pi, **opts)[0] / math.pi
        for f in (z_integrand, ic_integrand, is_integrand)
    )


def test_xy_thermo_z_matches_one_quad_per_point_to_the_bit():
    # lam covers +-1 and |lam| > 1 of both signs (the breakpoint branches)
    # and the ising_thermo benchmark grid; kT covers both exact limits.
    lams = sorted(
        set(np.linspace(-2.5, 2.5, 101).tolist())
        | set((0.9 + np.arange(201) * 0.001).tolist())
    )
    for lam in lams:
        for gamma in (0.0, 0.5, 1.0, -0.7, 2.0):
            for kT in (0.0, 0.01, 0.05, 0.3, 2.0, math.inf):
                z = _three_closure_xy_integrals(lam, gamma, kT)[0]
                got = xy_thermo_correlators(lam, gamma, kT).z
                assert got.hex() == z.hex(), (lam, gamma, kT)


def _adaptive_xy_ic_is(lam: float, gamma: float, kT: float):
    """Ic, Is by adaptive quadrature asked for 1e-13, with breakpoints near
    k = 0 and pi (gap closings) and at k0 and k0 +- 4^j kT (the sign change
    of xi, smoothed over a few kT).  xi is written without cancellation at
    either end, as (1 - lam) + 2 lam sin^2(k/2) or (1 + lam) - 2 lam
    cos^2(k/2)."""

    def cos_sin_terms(k):
        if k < 0.5 * math.pi:
            xi = (1.0 - lam) + 2.0 * lam * math.sin(0.5 * k) ** 2
        else:
            xi = (1.0 + lam) - 2.0 * lam * math.cos(0.5 * k) ** 2
        dd = lam * gamma * math.sin(k)
        en = math.hypot(xi, dd)
        if en == 0.0:
            return 0.0, 0.0
        t = 1.0 if kT == 0.0 else math.tanh(en / (2.0 * kT))
        return math.cos(k) * xi / en * t, math.sin(k) * dd / en * t

    points = [e + s * 10.0**-j for e, s in ((0.0, 1.0), (math.pi, -1.0)) for j in (2, 4, 6, 8)]
    if abs(lam) > 1.0:
        k0 = math.acos(1.0 / lam)
        points += [k0] + [k0 + s * 4.0**j * kT for j in range(5) for s in (-1.0, 1.0)]
    opts = dict(
        epsabs=1e-13,
        epsrel=1e-13,
        limit=2000,
        points=sorted(p for p in points if 0.0 < p < math.pi),
    )
    return tuple(
        scipy.integrate.quad(lambda k: cos_sin_terms(k)[i], 0.0, math.pi, **opts)[0] / math.pi
        for i in (0, 1)
    )


def test_xy_thermo_ic_is_match_adaptive_quadrature():
    # The graded Gauss-Legendre rule of Ic and Is against an adaptive
    # quadrature that shares none of its code: the ising_thermo lam grid,
    # lam at and 1e-6 around +-1 (gap closings), small and large |gamma|,
    # and kT from 0 to inf.
    lams = sorted(
        set(np.linspace(-2.5, 2.5, 101).tolist())
        | {s * (1.0 + d) for s in (1.0, -1.0) for d in (0.0, 1e-6, -1e-6)}
    )
    kts = (0.0, 1e-3, 0.01, 0.05, 0.3, 2.0, math.inf)
    for gamma in (0.0, 0.05, 0.5, 1.0, -0.7, 2.0):
        spec = ModelSpec("xy", None, 0.0, gamma=gamma)
        table = ThermoLimitSolution(spec, lam=np.array(lams)).table(kts)
        for j, lam in enumerate(lams):
            for i, kT in enumerate(kts):
                ic, is_ = _adaptive_xy_ic_is(lam, gamma, kT)
                got = table[i, 1:3, j]
                assert np.abs(got - (is_ - ic, -is_ - ic)).max() <= 1e-12, (lam, gamma, kT)


def test_thermo_limit_checks_temperatures_before_it_solves(monkeypatch):
    # a bad kT anywhere in the list costs no z quadrature
    calls = []
    z_integral = models._z_integral

    def counted(*args):
        calls.append(args)
        return z_integral(*args)

    monkeypatch.setattr(models, "_z_integral", counted)
    solution = ThermoLimitSolution(ModelSpec("xy", None, 0.05), lam=np.linspace(0.5, 1.5, 16))
    with pytest.raises(ValueError, match=re.escape("kT must be >= 0, got -1.0")):
        solution.table((0.05, -1.0))
    assert calls == []


def test_xy_thermo_at_a_subnormal_kT_is_the_ground_state():
    # tanh(E / 2kT) is 1 at every node once E / 2kT overflows, and
    # exp(-gap / kT) is 0 above the ground level once gap / kT does, silently
    for lam, gamma in ((0.5, 1.0), (1.0, 0.0), (-1.5, 0.3)):
        assert xy_thermo_correlators(lam, gamma, 1e-310) == xy_thermo_correlators(lam, gamma, 0.0)
    for spec in (
        ModelSpec("xy", 8, 0.0, lam=1.1),  # free fermions
        ModelSpec("xy", 8, 0.0, lam=0.5, gamma=0.3),
        ModelSpec("xxz", 6, 0.0, delta=0.5),  # exact diagonalization
        ModelSpec("xxz_field", 6, 0.0, delta=2.0, h=3.0),
    ):
        assert thermal_correlators(replace(spec, kT=1e-310)) == thermal_correlators(spec), spec


def test_xy_integrals_leave_no_reference_cycle():
    # A column and its quadratures must be freed by reference counting alone.
    spec = ModelSpec("xy", None, 0.0, gamma=1.0)
    ThermoLimitSolution(spec).table((0.1,))  # imports scipy.integrate
    gc.collect()
    gc.disable()
    try:
        ThermoLimitSolution(spec, lam=np.array([0.961, 1.05, -2.5])).table((0.0, 0.05))
        assert gc.collect() == 0
    finally:
        gc.enable()


SIGN_LAMBDAS = (0.5, 1.0, 1.08, 1.5, 2.5)
SIGN_GAMMAS = (0.0, 0.3, 1.0, -0.7)
SIGN_KTS = (0.0, 0.05, 1.0)


def _assert_sign_identities(corr):
    """corr(lam, gamma, kT) -> (z, xx, yy, zz).  lam -> -lam turns the sign
    of xx and yy and keeps z and zz; gamma -> -gamma swaps xx and yy.  Both
    identities are exact, so the bound is rounding only."""
    for lam in SIGN_LAMBDAS:
        for gamma in SIGN_GAMMAS:
            for kT in SIGN_KTS:
                z, xx, yy, zz = corr(lam, gamma, kT)
                mz, mxx, myy, mzz = corr(-lam, gamma, kT)
                assert np.allclose(
                    (mz, mxx, myy, mzz), (z, -xx, -yy, zz), rtol=0.0, atol=1e-12
                ), (lam, gamma, kT)
                for signed in (lam, -lam):
                    z, xx, yy, zz = corr(signed, gamma, kT)
                    gz, gxx, gyy, gzz = corr(signed, -gamma, kT)
                    assert np.allclose(
                        (gz, gxx, gyy, gzz), (z, yy, xx, zz), rtol=0.0, atol=1e-12
                    ), (signed, gamma, kT)


def test_xy_thermo_sign_identities():
    _assert_sign_identities(lambda *p: astuple(xy_thermo_correlators(*p)))


def test_free_fermion_sign_identities():
    lams = np.array([s * lam for lam in SIGN_LAMBDAS for s in (1.0, -1.0)])
    tables = {
        gamma: FreeFermionSolution(ModelSpec("xy", 12, 0.0, gamma=gamma), lam=lams).table(
            SIGN_KTS
        )
        for gamma in {g * s for g in SIGN_GAMMAS for s in (1.0, -1.0)}
    }

    def corr(lam, gamma, kT):
        return tuple(tables[gamma][SIGN_KTS.index(kT), :, lams.tolist().index(lam)])

    _assert_sign_identities(corr)


def test_finite_size_converges_to_thermo_limit():
    lam, gamma = 0.8, 1.0
    ref = {
        kT: xy_thermo_correlators(lam, gamma, kT) for kT in (0.5, 1.0)
    }

    def max_err(solver, L, kT):
        c = solver(ModelSpec("xy", L, kT, lam=lam, gamma=gamma)).correlators(kT)
        r = ref[kT]
        return max(
            abs(c.z - r.z), abs(c.xx - r.xx), abs(c.yy - r.yy), abs(c.zz - r.zz)
        )

    for solver in (diagonalize, FreeFermionSolution):
        for kT, cap in ((0.5, 2e-3), (1.0, 1e-4)):
            errs = [max_err(solver, L, kT) for L in (8, 10, 12)]
            assert errs[0] > errs[1] > errs[2]
            assert errs[2] < cap


FREE_FERMION_LAMBDAS = (-1.3, 0.0, 0.5, 0.92, 0.92 + 2 * 0.04, 1.0, 1.08, 1.5, 2.0)
FREE_FERMION_GRID = [(lam, g) for lam in FREE_FERMION_LAMBDAS for g in (0.0, 0.3, 1.0)]


@pytest.mark.parametrize(
    "L, points",
    [
        (4, FREE_FERMION_GRID),
        (6, FREE_FERMION_GRID),
        (8, FREE_FERMION_GRID),
        (10, FREE_FERMION_GRID),
        (12, [(1.0, 1.0), (0.92 + 2 * 0.04, 0.3), (-1.3, 0.0)]),
    ],
    ids=["4", "6", "8", "10", "12"],
)
def test_free_fermions_match_exact_diagonalization(L, points):
    # The grid holds the Ramond k = 0 zero mode (lam = 1), gamma = 0 (every
    # mode unpaired, degenerate ground spaces) and 0.92 + 2 * 0.04, the
    # ising_L12 benchmark point next to lam = 1.
    for lam, gamma in points:
        spec = ModelSpec("xy", L, 1.0, lam=lam, gamma=gamma)
        exact = diagonalize(spec)
        free = FreeFermionSolution(spec)
        for kT in (0.0, 0.02, 0.1, 1.0, math.inf):
            c, f = exact.correlators(kT), free.correlators(kT)
            for name in ("z", "xx", "yy", "zz"):
                assert getattr(f, name) == pytest.approx(
                    getattr(c, name), abs=1e-10
                ), (lam, gamma, kT, name)


@pytest.mark.parametrize(
    "template, field, values",
    [
        # the lam axis crosses the Ramond k = 0 zero mode at lam = 1 and
        # |lam| > 1 (an odd R vacuum), at gamma = 0 with every mode unpaired
        (ModelSpec("xy", 8, 0.0, gamma=0.0), "lam", (-1.5, -1, 0, 0.5, 1, 1.25, 2)),
        (ModelSpec("xy", 12, 0.0, gamma=1.0), "lam", (-1.3, 0.92, 1.0, 1.08, 3.0)),
        (ModelSpec("xy", 10, 0.0, lam=1.0), "gamma", (-1.0, -0.3, 0.0, 0.3, 1.0)),
        (ModelSpec("xy", 6, 0.0, lam=1.5), "gamma", (0.0, 0.5, 2.0)),
        # exact diagonalization: Delta columns through +-1 (degenerate ground
        # spaces at kT = 0), the L = 10 one over two blocks of solve_grid
        (ModelSpec("xxz", 4, 0.0), "delta", (-1.5, -1.0, -0.3, 0.0, 1.0, 2.0)),
        (ModelSpec("xxz", 8, 0.0), "delta", (-1.2, -1.0, 0.5, 1.0, 1.3)),
        (ModelSpec("xxz", 10, 0.0), "delta", tuple(np.arange(-2.0, 2.0, 0.25))),
        (ModelSpec("xxz_field", 8, 0.0, delta=1.0), "h", (0.0, 2.0, 8.0, 12.0)),
        (ModelSpec("xxz_field", 6, 0.0, h=3.0), "delta", (-1.0, 0.0, 1.0, 2.5)),
        # a long ring, one point per solve_grid block at six temperatures
        (ModelSpec("xy", 600, 0.0), "lam", (-0.9, 0.5, 1.0, 1.5)),
    ],
)
def test_free_fermion_column_matches_one_point_solves(template, field, values):
    # A column is one array pass, of the free fermions or of one batched
    # eigh per sector; each of its points must carry the bits of the point
    # solved alone (a spec is a column of one), and so must each point of
    # solve_grid's blocks.  No temperature at all is a (0, 4[, points]) table.
    for kts in ((0.0, 0.02, 0.05, 0.5, 1.0, math.inf), ()):
        table = thermal_solution(template, **{field: np.array(values)}).table(kts)
        assert table.shape == (len(kts), 4, len(values))
        grid, errors = models.solve_grid(template, field, values, kts)
        assert errors == [None] * len(values)
        assert grid.tobytes() == table.tobytes()
        for j, value in enumerate(values):
            one = thermal_solution(replace(template, **{field: value}))
            for i, kT in enumerate(kts):
                got = [float(v).hex() for v in table[i, :, j]]
                want = [v.hex() for v in astuple(one.correlators(kT))]
                assert got == want, (value, kT)
        one = thermal_solution(template)
        assert one.table(kts).shape == (len(kts), 4)
    assert all(isinstance(v, float) for v in astuple(one.correlators(0.5)))


@pytest.mark.parametrize(
    "template, field, values",
    [
        (ModelSpec("xxz", 6, 0.0), "delta", (-1.0, -0.4, 1.0, 1.7)),
        (ModelSpec("xxz", 8, 0.0), "delta", (-1.0, 1.0)),
        (ModelSpec("xxz_field", 8, 0.0, delta=1.5), "h", (0.0, 3.0, 12.0)),
        (ModelSpec("xy", 6, 0.0, lam=1.0), "gamma", (0.0, 0.6)),
    ],
)
def test_diagonalized_column_matches_kron_reference(template, field, values):
    # Every point of an ED column against the Kronecker Hamiltonian, solved
    # as one dense block by np.linalg.eigh and measured on the pair (1, 2);
    # Delta = +-1 and gamma = 0 have degenerate ground spaces at kT = 0.
    kts = (0.0, 0.05, 0.5, math.inf)
    L = template.L
    table = diagonalize(template, **{field: np.array(values)}).table(kts)
    ops = [_site_op(SZ, 1, L)] + [_site_op(p, 1, L) @ _site_op(p, 2, L) for p in (SX, SY, SZ)]
    for j, value in enumerate(values):
        energies, vectors = np.linalg.eigh(_dense_reference(replace(template, **{field: value})))
        moments = [np.einsum("in,ij,jn->n", vectors.conj(), op, vectors).real for op in ops]
        gap = energies - energies[0]
        for i, kT in enumerate(kts):
            if kT == 0.0:
                w = gap <= models.GROUND_STATE_WINDOW * max(1.0, abs(energies[0]))
            else:
                w = np.exp(-gap / kT)
            want = [np.dot(w, m) / w.sum() for m in moments]
            np.testing.assert_allclose(table[i, :, j], want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("L", [4, 6, 8])
def test_free_fermions_match_a_sum_over_fock_states(L):
    # The Gaussian traces against the sum they factorize: every Fock state of
    # each sector's modes, of the sector's parity, with its Boltzmann weight
    # and its tau_k = 1 - 2 n_k.  kT = 0 is ED's check; the grid holds the
    # Ramond k = 0 zero mode (lam = 1) and gamma = 0 zero modes.
    occupied = (np.arange(1 << L)[:, None] >> np.arange(L)) & 1
    tau = 1.0 - 2.0 * occupied
    kts = (0.02, 0.1, 1.0, math.inf)
    for lam in (-1.3, 0.5, 1.0, 1 / math.cos(math.pi / 4), 1.5):
        for gamma in (0.0, 0.3, 1.0):
            sectors = FreeFermionSolution(ModelSpec("xy", L, 0.0, lam=lam, gamma=gamma))
            energy = occupied @ sectors.eps.T - 0.5 * sectors.eps.sum(axis=-1)
            in_sector = occupied.sum(axis=1)[:, None] % 2 == np.arange(2)
            z, xx, yy = (amp @ tau.T for amp in sectors.amplitudes.real)
            pairs = sectors.amplitudes[0][:, :, None] * sectors.amplitudes[0][:, None, :]
            pairs -= sectors.amplitudes[2][:, :, None] * sectors.amplitudes[1][:, None, :]
            pairs[:, np.arange(L), np.arange(L)] = 0.0
            zz = np.einsum("sij,ni,nj->sn", pairs, tau, tau).real
            for kT, got in zip(kts, sectors.table(kts)):
                weight = np.where(in_sector.T, np.exp(-(energy.T - energy.min()) / kT), 0.0)
                sums = [(weight * v).sum() for v in (z / L, xx / L, yy / L, zz / L**2)]
                want = np.array(sums) / weight.sum()
                assert np.allclose(got, want, rtol=0.0, atol=1e-13), (lam, gamma, kT)


def test_free_fermion_column_is_checked():
    spec = ModelSpec("xy", 8, 0.1)
    with pytest.raises(ValueError, match="lam must be a 1-d array of finite values"):
        FreeFermionSolution(spec, lam=np.array([0.5, math.nan]))
    with pytest.raises(TypeError, match="not 'delta'"):
        FreeFermionSolution(spec, delta=np.array([0.5]))
    with pytest.raises(ValueError, match="kT must be >= 0"):
        FreeFermionSolution(spec, gamma=np.array([0.5])).table((0.1, -1.0))
    # exact diagonalization checks its column the same way
    with pytest.raises(TypeError, match=re.escape("one of ('delta',), not 'h'")):
        diagonalize(ModelSpec("xxz", 6, 0.1), h=np.array([1.0]))
    with pytest.raises(TypeError, match=re.escape("one of ('delta', 'h'), not 'lam'")):
        diagonalize(ModelSpec("xxz_field", 6, 0.1), lam=np.array([0.5]))
    for bad in (np.array([0.5, math.nan]), np.zeros((2, 2))):
        with pytest.raises(ValueError, match="delta must be a 1-d array of finite values"):
            diagonalize(ModelSpec("xxz", 6, 0.1), delta=bad)
    with pytest.raises(ValueError, match="diagonalize needs a finite L; use xy_thermo"):
        diagonalize(ModelSpec("xy", None, 0.1), lam=np.array([0.5]))
    with pytest.raises(ValueError, match="build_hamiltonian needs a finite L"):
        build_hamiltonian(ModelSpec("xy", None, 0.1))
    with pytest.raises(ValueError, match="FreeFermionSolution needs a finite xy ring"):
        FreeFermionSolution(ModelSpec("xxz", 6, 0.1))
    with pytest.raises(ValueError, match="ThermoLimitSolution needs the L = None xy chain"):
        ThermoLimitSolution(ModelSpec("xy", 8, 0.1))


def test_even_ramond_vacuum_never_lies_below_the_ns_vacuum():
    # The kT = 0 rule of FreeFermionSolution rests on this: the Ramond sector
    # holds odd states, so where its vacuum is even it must not be lowest.
    for L in range(4, 40, 2):
        for lam in np.linspace(-3.0, 3.0, 121):
            for gamma in (0.0, 0.3, 1.0):
                ns, r = FreeFermionSolution(ModelSpec("xy", L, 0.0, lam=lam, gamma=gamma)).eps
                assert np.sum(ns < 0) % 2 == 0
                if np.sum(r < 0) % 2 == 0:
                    vacuum_ns, vacuum_r = -0.5 * np.abs(ns).sum(), -0.5 * np.abs(r).sum()
                    assert vacuum_r >= vacuum_ns - 1e-12, (L, lam, gamma)


# Rings of L = 600 and 1100 against the L = None integrals.  Left out are two finite-size effects
# that are physics, not error, and shrink as L grows: at gamma = 2 the
# ring is 9.0e-9 off at lam = -0.98, kT = 0.05 (2.1e-15 at L = 1200), and
# for |lam| > 1 at kT <= 0.3 it is up to 1.3e-3 off (8.8e-4 at kT = 0.3),
# since in the ordered phase the thermal correlation length exceeds the
# ring.
LONG_RING_LAMBDAS = np.linspace(-0.98, 0.98, 15)
LONG_RING_KTS = (0.05, 0.3, 1.0, math.inf)


def _long_ring_error(L, lams, gamma, kts):
    ring = FreeFermionSolution(ModelSpec("xy", L, 0.0, gamma=gamma), lam=lams).table(kts)
    limit = ThermoLimitSolution(ModelSpec("xy", None, 0.0, gamma=gamma), lam=lams).table(kts)
    assert np.isfinite(ring).all()
    return np.abs(ring - limit).max()


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, -0.7])
def test_long_ring_matches_the_thermodynamic_limit(gamma):
    assert _long_ring_error(600, LONG_RING_LAMBDAS, gamma, LONG_RING_KTS) < 1e-13


def test_long_ring_meets_the_30_digit_z_where_quad_misses_it():
    # z at the lam = 0.961, gamma = 1, kT = 0.05 point from 30-digit mpmath;
    # the L = None quad is 2.7e-10 off there
    z = FreeFermionSolution(ModelSpec("xy", 600, 0.0, lam=0.961)).table((0.05,))[0, 0]
    assert abs(z - 0.67902028038570595038) < 1e-15


def test_long_ring_does_not_overflow():
    # 2^L overflows a float at L = 1024: each sector's product of mode
    # weights is carried as a sum of logs
    lams = np.array([-0.9, 0.0, 0.5, 0.99, 1.5])
    at_infinity = FreeFermionSolution(ModelSpec("xy", 1100, 0.0), lam=lams).table((math.inf,))
    assert (at_infinity == 0.0).all()
    assert _long_ring_error(1100, lams, 1.0, (2.0,)) < 1e-13


@pytest.mark.parametrize("L", [8, 12])
def test_xxz_field_at_zero_anisotropy_matches_xx_free_fermions(L):
    # At Delta = 0, H_xxz_field(h) = h H_xy(lam = -4/h, gamma = 0), so the
    # sector ED of xxz_field at kT equals the xy free fermions at kT / h: an
    # oracle for the xxz diagonalization that shares none of its code.  The
    # ED solves its h values as one column.
    fields, kts = (3.0, 1.0, 5.0, 12.0), (0.05, 0.1, 0.2, 0.7)
    ed = thermal_solution(ModelSpec("xxz_field", L, 0.0), h=np.array(fields)).table(kts)
    for j, h in enumerate(fields):
        free = FreeFermionSolution(ModelSpec("xy", L, 0.0, lam=-4.0 / h, gamma=0.0))
        want = free.table([kT / h for kT in kts])
        np.testing.assert_allclose(ed[..., j], want, rtol=0.0, atol=1e-12, err_msg=str(h))


def test_xy_auto_solver_needs_no_diagonalization(monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("diagonalize called")

    monkeypatch.setattr(models, "diagonalize", refuse)
    spec = ModelSpec("xy", 12, 0.05, lam=1.0, gamma=1.0)
    assert thermal_correlators(spec) == FreeFermionSolution(spec).correlators(0.05)
    results = sweep(spec, "lambda", 0.9, 1.1, eta=0.1, kT_list=(0.05, 0.1))
    assert [r.failed_count for r in results] == [0, 0]
    with pytest.raises(RuntimeError, match="diagonalize called"):
        thermal_correlators(ModelSpec("xxz", 4, 0.5))


def test_thermal_correlators_dispatch():
    spec = ModelSpec("xy", None, 0.5, lam=0.8, gamma=1.0)
    c = thermal_correlators(spec)
    r = xy_thermo_correlators(0.8, 1.0, 0.5)
    assert c == r
    spec_fin = ModelSpec("xxz", 6, 1.0, delta=0.5)
    c_fin = thermal_correlators(spec_fin)
    c_ed = diagonalize(spec_fin).correlators(1.0)
    assert c_fin.xx == pytest.approx(c_ed.xx, abs=1e-12)
