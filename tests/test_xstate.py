import math
from dataclasses import astuple

import numpy as np
import pytest

from qcpdetect.xstate import (
    Correlators,
    PhysicalityError,
    XState,
    build_xstate,
    build_xstates,
    dense_matrix,
    make_xstate,
    reduced_single,
    sample_product_xstate,
    sample_random_xstate,
)

N_RANDOM = 500
SEED = 20240611


def test_build_from_hand_correlators():
    # z=0.3, xx=0.2, yy=-0.1, zz=0.4 worked out by hand
    x = build_xstate(Correlators(z=0.3, xx=0.2, yy=-0.1, zz=0.4))
    assert x.a == pytest.approx(0.5, abs=1e-15)
    assert x.b == pytest.approx(0.15, abs=1e-15)
    assert x.c == pytest.approx(0.025, abs=1e-15)
    assert x.d == pytest.approx(0.2, abs=1e-15)
    assert x.e == pytest.approx(0.075, abs=1e-15)


def test_correlator_round_trip():
    rng = np.random.default_rng(SEED)
    for _ in range(N_RANDOM):
        x = sample_random_xstate(rng)
        back = build_xstate(x.correlators())
        for name in "abcde":
            assert getattr(back, name) == pytest.approx(getattr(x, name), abs=1e-12)


def test_random_states_are_physical():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(N_RANDOM):
        x = sample_random_xstate(rng)
        evals = x.eigenvalues()
        assert evals.min() >= -1e-12
        assert evals.sum() == pytest.approx(1.0, abs=1e-12)
        # closed-form spectrum must match dense diagonalization
        dense = np.sort(np.linalg.eigvalsh(dense_matrix(x)))
        assert np.allclose(np.sort(evals), dense, atol=1e-12)


def test_eigenvalue_order_convention():
    x = make_xstate(0.4, 0.2, 0.1, 0.2, 0.1)
    evals = x.eigenvalues()
    assert evals[0] == pytest.approx(x.b + x.c)
    assert evals[1] == pytest.approx(x.b - x.c)
    s = math.sqrt((x.a - x.d) ** 2 + 4 * x.e**2)
    assert evals[2] == pytest.approx(0.5 * (x.a + x.d + s))
    assert evals[3] == pytest.approx(0.5 * (x.a + x.d - s))


def test_reduced_single_matches_partial_trace():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(100):
        x = sample_random_xstate(rng)
        rho = dense_matrix(x)
        # trace out qubit 1: rho_B[i, j] = sum_k rho[ki, kj]
        rho_b = rho.reshape(2, 2, 2, 2).trace(axis1=0, axis2=2)
        assert np.allclose(reduced_single(x), rho_b, atol=1e-14)
        # and tracing out qubit 2 gives the same matrix for X states
        rho_a = rho.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
        assert np.allclose(rho_a, rho_b, atol=1e-14)


def test_trace_violation_raises():
    with pytest.raises(PhysicalityError):
        make_xstate(0.5, 0.2, 0.0, 0.2, 0.0)  # trace 1.1
    for b in (math.nan, math.inf):
        with pytest.raises(PhysicalityError) as err:
            make_xstate(0.25, b, 0.0, 0.25, 0.0)
        np.testing.assert_equal(err.value.value, b)


def test_negative_population_raises():
    with pytest.raises(PhysicalityError) as err:
        make_xstate(-0.01, 0.25, 0.0, 0.51, 0.0)
    assert err.value.value == pytest.approx(-0.01)
    for a in (math.nan, -math.inf):
        with pytest.raises(PhysicalityError) as err:
            make_xstate(a, 0.25, 0.0, 0.5, 0.0)
        np.testing.assert_equal(err.value.value, a)


def test_inner_block_violation_raises():
    # |c| > b by much more than the snap tolerance
    with pytest.raises(PhysicalityError):
        make_xstate(0.3, 0.1, 0.2, 0.5, 0.0)
    for c in (math.nan, math.inf, -math.inf):
        with pytest.raises(PhysicalityError) as err:
            make_xstate(0.25, 0.25, c, 0.25, 0.0)
        np.testing.assert_equal(err.value.value, c)


def test_outer_block_violation_raises():
    # e^2 > a d makes the outer block indefinite
    with pytest.raises(PhysicalityError):
        make_xstate(0.1, 0.25, 0.0, 0.4, 0.3)
    for e in (math.nan, math.inf):
        with pytest.raises(PhysicalityError) as err:
            make_xstate(0.25, 0.25, 0.0, 0.25, e)
        np.testing.assert_equal(err.value.value, e)


def test_boundary_noise_is_snapped():
    x = make_xstate(0.25, 0.25, 0.25 + 4e-13, 0.25, 0.0)
    assert x.c == pytest.approx(0.25, abs=1e-12)
    assert x.eigenvalues().min() >= 0.0
    x = make_xstate(-5e-13, 0.25, 0.0, 0.5 + 5e-13, 0.0)
    assert x.a == 0.0


def test_correlator_validation():
    with pytest.raises(PhysicalityError):
        build_xstate(Correlators(z=0.0, xx=1.5, yy=0.0, zz=0.0))
    with pytest.raises(PhysicalityError):
        build_xstate(Correlators(z=math.nan, xx=0.0, yy=0.0, zz=0.0))


def _hex(value: float) -> str:
    return float(value).hex()


def test_column_build_equals_one_state_builds():
    # Every row of one column gets what build_xstate gives it alone: the
    # same bits, or the same PhysicalityError message and value.
    rng = np.random.default_rng(SEED + 4)
    rows = [astuple(sample_random_xstate(rng).correlators()) for _ in range(200)]
    rows += rng.uniform(-1.1, 1.1, (300, 4)).tolist()  # many unphysical
    tiny = 5e-13  # below VALIDATION_TOL: snapped onto the boundary
    rows += [
        (0.0, -1.0, -1.0, -1.0),  # singlet: b = |c|
        (0.0, -1.0 - tiny, -1.0, -1.0),  # |c| snapped to b
        (0.0, 1.0 + tiny, -1.0, 1.0),  # e snapped to sqrt(a d)
        (1.0, 0.0, 0.0, 1.0 - tiny),  # d snapped to 0
        (-0.5, 0.3, 0.3, -0.1),
    ]
    rows += [  # one row per check a column of correlators can fail
        (-1.5, 0.0, 0.0, 0.0),  # correlator z
        (0.0, 1.5, 0.0, 0.0),  # correlator xx
        (0.0, 0.0, -2.0, 0.0),  # correlator yy
        (0.0, 0.0, 0.0, 1.0 + 1e-9),  # correlator zz
        (-0.9, 0.0, 0.0, 0.5),  # population a
        (0.9, 0.0, 0.0, 0.5),  # population d
        (0.0, 0.9, 0.9, 0.5),  # inner block
        (0.0, 0.9, -0.9, -0.5),  # outer block
    ]
    for field in range(4):  # a non-finite value in each field
        for bad in (math.nan, math.inf, -math.inf):
            row = [0.1, 0.2, -0.1, 0.3]
            row[field] = bad
            rows.append(tuple(row))
    rows += [
        (1.5, 0.0, 0.0, math.nan),  # two correlators: z comes first
        (-0.9, 0.9, -0.9, 0.5),  # population a and outer block
    ]
    column = np.array(rows).T
    states, errors = build_xstates(Correlators(*column))
    assert len(errors) == len(rows)
    seen = set()
    for i, row in enumerate(rows):
        got = [getattr(states, f)[i] for f in "abcde"]
        try:
            want = build_xstate(Correlators(*row))
        except PhysicalityError as exc:
            assert isinstance(errors[i], PhysicalityError)
            assert str(errors[i]) == str(exc)
            assert _hex(errors[i].value) == _hex(exc.value)
            assert np.isnan(got).all()
            seen.add(str(exc).split(" (value")[0])
        else:
            assert errors[i] is None
            assert [_hex(v) for v in got] == [_hex(getattr(want, f)) for f in "abcde"]
    assert seen >= {
        "correlator z outside [-1, 1]",
        "correlator xx outside [-1, 1]",
        "correlator yy outside [-1, 1]",
        "correlator zz outside [-1, 1]",
        "population a negative",
        "population d negative",
        "inner-block eigenvalue b - |c| negative",
        "outer-block eigenvalue negative",
    }
    assert str(errors[-2]).startswith("correlator z outside")
    assert str(errors[-1]).startswith("population a negative")
    # the snapped rows lie on the boundary of the physical states
    assert states.c[501] == -states.b[501]
    assert states.e[502] ** 2 == states.a[502] * states.d[502]
    assert states.d[503] == 0.0
    # a float is a column of one, and an empty column has no rows
    x, errs = build_xstates(Correlators(0.3, 0.2, -0.1, 0.4))
    assert x.a.shape == (1,) and errs == [None]
    x, errs = build_xstates(Correlators(*np.empty((4, 0))))
    assert x.a.shape == (0,) and errs == []


def test_outer_block_value_is_plain_float_arithmetic():
    # The outer-block eigenvalue a PhysicalityError carries is the plain
    # float formula with float ** 2 (libm pow) bit for bit; the correctly
    # rounded square differs from it in a few of these rows.
    rng = np.random.default_rng(SEED + 5)
    column = rng.uniform(-1.0, 1.0, (4, 200_000))
    _, errors = build_xstates(Correlators(*column))
    checked = moved = 0
    for i, err in enumerate(errors):
        if err is None or not str(err).startswith("outer-block"):
            continue
        z, xx, yy, zz = column[:, i].tolist()
        a = max(0.25 * (1.0 + 2.0 * z + zz), 0.0)
        d = max(0.25 * (1.0 - 2.0 * z + zz), 0.0)
        e = 0.25 * (xx - yy)
        want = 0.5 * (a + d - math.sqrt((a - d) ** 2 + 4.0 * e**2))
        assert err.value == want
        checked += 1
        moved += want != 0.5 * (a + d - math.sqrt((a - d) * (a - d) + 4.0 * e * e))
    assert checked > 10_000 and moved > 0


def test_product_states_have_no_cross_terms():
    rng = np.random.default_rng(SEED + 3)
    for _ in range(100):
        x = sample_product_xstate(rng)
        assert x.c == 0.0 and x.e == 0.0
        # really is a tensor square: rho = r (x) r with r = diag(a+b, b+d)
        r = reduced_single(x)
        assert np.allclose(dense_matrix(x), np.kron(r, r), atol=1e-12)


def test_bell_state_parameters():
    # (|00> + |11>)/sqrt(2): a = d = e = 1/2
    bell = make_xstate(0.5, 0.0, 0.0, 0.5, 0.5)
    corr = bell.correlators()
    assert corr.xx == pytest.approx(1.0)
    assert corr.yy == pytest.approx(-1.0)
    assert corr.zz == pytest.approx(1.0)
    assert corr.z == pytest.approx(0.0)
    assert sorted(bell.eigenvalues()) == pytest.approx([0.0, 0.0, 0.0, 1.0])
