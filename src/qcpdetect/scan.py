"""Parameter sweeps, finite differences, and critical-point estimation.

A sweep walks one control axis (anisotropy, field, coupling, ...) over a
uniform grid and solves the model into one (temperature, 4, point) array
of z, xx, yy, zz.  A finite xy ring is solved a column at a time: its free
fermions (``FreeFermionSolution``) take the whole grid, in memory-bounded
blocks, at every temperature in one array pass.  Every other model is
solved once per point with the exact solver ``thermal_solution`` picks,
reused at every requested temperature.  The sweep then evaluates all five
detectors once, on the rows of all temperatures: each row's X state is
built and validated on its own, and every detector then runs once on the
column of states that were built.
Each temperature's result is a set of columns, one array per correlator
and detector over the grid, in the order of ``COLUMNS``.  Failures at a
grid point are caught and recorded (its message in ``errors``,
``FAILED_ROW`` in the columns), never aborting the sweep or failing
another point; downstream derivative stencils that touch a failed point
come out undefined (NaN) rather than interpolated.

Critical points are then located as the extremum of a finite-difference
derivative of a chosen detector: forward [f(x+e)-f(x)]/e, central
[f(x+e)-f(x-e)]/(2e), or backward [f(x)-f(x-e)]/e, each optionally applied
twice for a second derivative.  The estimate is the grid point maximizing
|derivative| inside an explicit search window, quoted as +- eta for order 1
and +- 2 eta for order 2.  Estimates collected over several temperatures
extrapolate to kT = 0 by a linear least-squares fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from types import MappingProxyType

import numpy as np

from .coherence import AXES, coherence_entropy, log_spectrum
from .discord import quantum_discord
from .models import FAMILY_COUPLINGS, FreeFermionSolution, ModelSpec, thermal_solution
from .teleport import max_mean_fidelity, min_mean_trace_distance
from .xstate import Correlators, XState, build_xstate

DEFAULT_ETA = 0.01
DEFAULT_METHOD = "forward"
DEFAULT_WINDOW_HALF_WIDTH = 0.5

METHODS = ("forward", "central", "backward")

# Control-axis name -> (ModelSpec field, families that read it)
_AXIS_COUPLINGS = {"delta": "delta", "h": "h", "lambda": "lam", "gamma": "gamma"}
AXIS_FIELDS: dict[str, tuple[str, tuple[str, ...]]] = {
    axis: (field, tuple(f for f, read in FAMILY_COUPLINGS.items() if field in read))
    for axis, field in _AXIS_COUPLINGS.items()
}

# Most (kT, point) rows a finite xy ring solves in one pass; bounds the
# memory of the free-fermion recurrence and coefficients to a few MB.
_COLUMN_ROWS = 256

# The column schema, in CSV emission order: the correlators, then the
# detectors.  The branch labels are strings and the divergence flags are
# booleans; every other column is a float.
COLUMNS = (
    "z", "xx", "yy", "zz",
    "qd", "theta_star",
    "sqc_x", "sqc_y", "sqc_z",
    "lqc_x", "lqc_y", "lqc_z",
    "lqc_x_divergent", "lqc_y_divergent", "lqc_z_divergent",
    "fmax_ext", "fmax_branch",
    "dmin_int", "dmin_branch",
)
LABEL_COLUMNS = ("fmax_branch", "dmin_branch")
FLAG_COLUMNS = ("lqc_x_divergent", "lqc_y_divergent", "lqc_z_divergent")
NUMERIC_COLUMNS = tuple(c for c in COLUMNS if c not in LABEL_COLUMNS)
COLUMN_DTYPES = {
    c: object if c in LABEL_COLUMNS else bool if c in FLAG_COLUMNS else float
    for c in COLUMNS
}

# The row of every failed point: NaN numbers, False flags, no labels.
FAILED_ROW = MappingProxyType(
    {
        c: None if c in LABEL_COLUMNS else False if c in FLAG_COLUMNS else math.nan
        for c in COLUMNS
    }
)


@dataclass(frozen=True)
class SweepResult:
    """One temperature's worth of a sweep: the grid and one column per name.

    ``columns`` maps every name in ``COLUMNS`` to an array over ``params``
    (dtype from ``COLUMN_DTYPES``); ``errors`` holds each point's failure
    message, or None where the point succeeded.
    """

    axis: str
    eta: float
    kT: float
    params: np.ndarray
    columns: dict[str, np.ndarray]
    errors: tuple[str | None, ...]

    def column(self, name: str) -> np.ndarray:
        """A copy of the named column (or of ``params`` for 'param')."""
        if name == "param":
            return self.params.copy()
        if name not in self.columns:
            raise KeyError(f"unknown column {name!r}")
        return self.columns[name].copy()

    @property
    def failed_count(self) -> int:
        return sum(err is not None for err in self.errors)


def _columns(corr: Correlators, x: XState) -> dict:
    """The schema's values for correlators and their X state, every detector
    run once on ``x``.  The fields of both are floats for one row, or arrays
    over a column for a column of rows."""
    qd = quantum_discord(x)
    sqc = {ax: coherence_entropy(x, ax) for ax in AXES}
    lqc = {ax: log_spectrum(x, ax) for ax in AXES}
    fmax = max_mean_fidelity(x)
    dmin = min_mean_trace_distance(x)
    return {
        "z": corr.z,
        "xx": corr.xx,
        "yy": corr.yy,
        "zz": corr.zz,
        "qd": qd.value,
        "theta_star": qd.theta_star,
        "sqc_x": sqc["x"],
        "sqc_y": sqc["y"],
        "sqc_z": sqc["z"],
        "lqc_x": lqc["x"].value,
        "lqc_y": lqc["y"].value,
        "lqc_z": lqc["z"].value,
        "lqc_x_divergent": lqc["x"].divergent,
        "lqc_y_divergent": lqc["y"].divergent,
        "lqc_z_divergent": lqc["z"].divergent,
        "fmax_ext": fmax.value,
        "fmax_branch": fmax.branch,
        "dmin_int": dmin.value,
        "dmin_branch": dmin.branch,
    }


def evaluate_detectors(param: float, corr: Correlators) -> dict:
    """All five detectors on the X state built from one set of correlators.

    Returns one row of the schema, correlators included, as numpy scalars
    and str labels.  ``param`` is the grid point the correlators belong to;
    the row itself does not hold it.  A sweep computes the same values with
    each detector run once per temperature column.
    """
    return _columns(corr, build_xstate(corr))


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _solve(
    template: ModelSpec,
    axis_field: str,
    params: np.ndarray,
    kts: tuple[float, ...],
) -> tuple[np.ndarray, list[str | None]]:
    """The (len(kts), 4, points) z, xx, yy, zz of the grid and each point's
    error message or None; a point that fails at any kT is NaN at all.

    A finite xy ring is solved a column at a time by its free fermions, in
    blocks of at most ``_COLUMN_ROWS`` (kT, point) rows so that memory stays
    bounded on long grids; a block that fails records its error at each of
    its points.  Every other model is solved point by point.
    """
    if template.family == "xy" and template.L is not None:
        step = max(1, _COLUMN_ROWS // len(kts))
        blocks = [
            _solve_column(template, axis_field, params[i : i + step], kts)
            for i in range(0, params.size, step)
        ]
        corrs = np.concatenate([corr for corr, _ in blocks], axis=-1)
        return corrs, [err for _, errs in blocks for err in errs]
    rows, errors = [], []
    for param in params.tolist():
        try:
            solution = thermal_solution(replace(template, **{axis_field: param}))
            corrs = [solution.correlators(kT) for kT in kts]
            rows.append([(c.z, c.xx, c.yy, c.zz) for c in corrs])
            errors.append(None)
        except Exception as exc:
            rows.append([(math.nan,) * 4] * len(kts))
            errors.append(_error(exc))
    return np.array(rows).transpose(1, 2, 0), errors


def _solve_column(
    template: ModelSpec,
    axis_field: str,
    params: np.ndarray,
    kts: tuple[float, ...],
) -> tuple[np.ndarray, list[str | None]]:
    """``_solve`` of a finite xy ring over one block of the grid."""
    try:
        solution = FreeFermionSolution(template, **{axis_field: params})
        return solution.table(kts), [None] * params.size
    except Exception as exc:
        return np.full((len(kts), 4, params.size), math.nan), [_error(exc)] * params.size


def _temperature_columns(
    corr: np.ndarray, model_errors: list[str | None]
) -> tuple[dict[str, np.ndarray], tuple[str | None, ...]]:
    """(columns, errors) over a column of rows.

    ``corr`` holds the rows' (4, rows) z, xx, yy, zz and ``model_errors``
    each row's model failure message, or None; a sweep passes all its
    temperatures' rows at once.  Each row's X state is built and validated
    on its own, so a build failure fails only its own row; the detectors
    then run once on the column of states that were built, and their
    values fill those rows.
    """
    errors = list(model_errors)
    states = np.empty((len(errors), 5))
    for i, values in enumerate(zip(*corr.tolist())):
        if errors[i] is None:
            try:
                x = build_xstate(Correlators(*values))
            except Exception as exc:
                errors[i] = _error(exc)
            else:
                states[i] = x.a, x.b, x.c, x.d, x.e
    out = {
        name: np.full(len(errors), FAILED_ROW[name], dtype)
        for name, dtype in COLUMN_DTYPES.items()
    }
    points = [i for i, err in enumerate(errors) if err is None]
    if points:
        try:
            values = _columns(Correlators(*corr[:, points]), XState(*states[points].T))
        except Exception as exc:
            for i in points:
                errors[i] = _error(exc)
        else:
            for name, col in out.items():
                col[points] = values[name]
    return out, tuple(errors)


def _grid(start: float, stop: float, eta: float) -> np.ndarray:
    if not (0.0 < eta < math.inf):
        raise ValueError(f"eta must be finite and > 0, got {eta}")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"start and stop must be finite, got [{start}, {stop}]")
    if not (stop > start):
        raise ValueError(f"need stop > start, got [{start}, {stop}]")
    count = (stop - start) / eta
    n = int(round(count))
    if abs(count - n) > 1e-9 * max(1.0, abs(count)):
        raise ValueError(
            f"grid [{start}, {stop}] is not an integer number of eta = {eta} steps"
        )
    return start + np.arange(n + 1) * eta


def sweep_inputs(
    template: ModelSpec,
    axis: str,
    start: float,
    stop: float,
    eta: float = DEFAULT_ETA,
    kT_list: tuple[float, ...] | list[float] = (),
) -> tuple[str, np.ndarray, tuple[float, ...]]:
    """Check the arguments of ``sweep``, which it calls first, and return
    the ModelSpec field the axis drives, the grid and the temperatures
    (``kT_list``, else the template's kT).  Raises ValueError, solving
    nothing."""
    if axis not in AXIS_FIELDS:
        raise ValueError(f"axis must be one of {sorted(AXIS_FIELDS)}, got {axis!r}")
    axis_field, families = AXIS_FIELDS[axis]
    if template.family not in families:
        raise ValueError(f"axis {axis!r} does not apply to family {template.family!r}")
    kts = tuple(float(k) for k in (kT_list or (template.kT,)))
    if any(not (k >= 0.0) for k in kts):
        raise ValueError(f"all kT must be >= 0, got {kts}")
    for i, k in enumerate(kts):
        if k in kts[:i]:
            raise ValueError(f"kT = {k} appears more than once in {kts}")
    return axis_field, _grid(start, stop, eta), kts


def sweep(
    template: ModelSpec,
    axis: str,
    start: float,
    stop: float,
    eta: float = DEFAULT_ETA,
    kT_list: tuple[float, ...] | list[float] = (),
) -> list[SweepResult]:
    """Sweep one control axis, returning one SweepResult per temperature.

    The model is solved once per point (a finite xy ring once per column
    block, see ``_solve``) and serves every temperature; the detectors then
    run once, on the rows of all temperatures, and the rows are split per
    temperature.
    """
    axis_field, params, kts = sweep_inputs(template, axis, start, stop, eta, kT_list)
    corrs, errors = _solve(template, axis_field, params, kts)
    points = params.size
    columns, all_errors = _temperature_columns(
        corrs.transpose(1, 0, 2).reshape(4, -1), errors * len(kts)
    )
    return [
        SweepResult(
            axis,
            eta,
            kT,
            params,
            {name: col[i * points : (i + 1) * points] for name, col in columns.items()},
            all_errors[i * points : (i + 1) * points],
        )
        for i, kT in enumerate(kts)
    ]


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------


def _derivative_once(values: np.ndarray, eta: float, method: str) -> np.ndarray:
    n = values.size
    out = np.full(n, math.nan)
    if method == "forward":
        out[: n - 1] = (values[1:] - values[: n - 1]) / eta
    elif method == "backward":
        out[1:] = (values[1:] - values[: n - 1]) / eta
    elif method == "central":
        out[1 : n - 1] = (values[2:] - values[: n - 2]) / (2.0 * eta)
    else:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    return out


def derivative(
    values: np.ndarray | list[float],
    eta: float,
    method: str = DEFAULT_METHOD,
    order: int = 1,
) -> np.ndarray:
    """Finite-difference derivative on a uniform grid, aligned with the input.

    Order 2 applies the chosen method twice.  Entries whose stencil leaves
    the grid, or touches a NaN input (a failed sweep point), are NaN.
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1 or vals.size < 3:
        raise ValueError("need a 1-d array of at least 3 grid values")
    if not (eta > 0.0):
        raise ValueError(f"eta must be > 0, got {eta}")
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    out = _derivative_once(vals, eta, method)
    if order == 2:
        out = _derivative_once(out, eta, method)
    return out


@dataclass(frozen=True)
class QcpEstimate:
    """A located critical point: where |d^order detector / d param^order| peaks."""

    kT: float
    detector: str
    order: int
    method: str
    estimate: float
    uncertainty: float  # eta * order

    def __post_init__(self):
        if self.order not in (1, 2):
            raise ValueError(f"order must be 1 or 2, got {self.order}")


def search_window(
    window: tuple[float, float] | None,
    candidate: float | None,
    params: np.ndarray,
) -> tuple[float, float]:
    """The explicit (lo, hi) window, else candidate +- DEFAULT_WINDOW_HALF_WIDTH.

    Raises ValueError unless lo < hi and the window lies on the grid
    ``params``; it may overhang either end by 1e-12, the rounding of
    candidate +- DEFAULT_WINDOW_HALF_WIDTH.
    """
    if window is not None:
        lo, hi = map(float, window)
    elif candidate is None:
        raise ValueError("provide either window=(lo, hi) or candidate")
    else:
        lo = candidate - DEFAULT_WINDOW_HALF_WIDTH
        hi = candidate + DEFAULT_WINDOW_HALF_WIDTH
    if not (lo < hi):
        raise ValueError(f"window must satisfy lo < hi, got ({lo}, {hi})")
    if lo < params[0] - 1e-12 or hi > params[-1] + 1e-12:
        raise ValueError(
            f"window ({lo}, {hi}) leaves the grid [{params[0]}, {params[-1]}]"
        )
    return lo, hi


def estimate_qcp(
    result: SweepResult,
    detector: str,
    order: int = 1,
    method: str = DEFAULT_METHOD,
    window: tuple[float, float] | None = None,
    candidate: float | None = None,
) -> QcpEstimate:
    """Locate a critical point as the in-window extremum of |derivative|.

    The search window is ``search_window(window, candidate, result.params)``.
    Ties break toward the smaller control value.  Raises ValueError when the
    window contains no defined derivative value, or when the detector is
    constant there to rounding: its finite in-window values span at most
    1e-12 max(1, their largest magnitude), so any extremum of its
    derivative would be one of rounding noise.
    """
    params = result.params
    lo, hi = search_window(window, candidate, params)
    values = result.column(detector)
    deriv = derivative(values, result.eta, method, order)
    in_window = (params >= lo - 1e-12) & (params <= hi + 1e-12)
    usable = in_window & np.isfinite(deriv)
    if not usable.any():
        raise ValueError(
            f"no defined {method} order-{order} derivative of {detector!r} "
            f"inside window ({lo}, {hi})"
        )
    finite = values[in_window & np.isfinite(values)]
    least, most = finite.min(initial=math.inf), finite.max(initial=-math.inf)
    if not most - least > 1e-12 * max(1.0, -least, most):
        raise ValueError(
            f"{detector!r} is constant to rounding inside window ({lo}, {hi}) "
            f"(values span {max(most - least, 0.0):.3g}); it locates no "
            "critical point"
        )
    magnitude = np.where(usable, np.abs(deriv), -math.inf)
    best = int(np.argmax(magnitude))  # first occurrence = smaller param on ties
    return QcpEstimate(
        kT=result.kT,
        detector=detector,
        order=order,
        method=method,
        estimate=float(params[best]),
        uncertainty=result.eta * order,
    )


@dataclass(frozen=True)
class ZeroTemperatureExtrapolation:
    """kT = 0 intercept of a linear fit of QCP estimates against kT."""

    detector: str
    method: str
    order: int
    intercept: float
    stderr: float
    slope: float
    n_points: int


def extrapolate_to_zero(estimates: list[QcpEstimate]) -> ZeroTemperatureExtrapolation:
    """Least-squares linear fit of estimate vs kT, reported at kT = 0.

    Needs estimates at >= 3 distinct temperatures (with matching detector,
    method, and order); the standard error of the intercept uses the usual
    unbiased residual variance.  A fit through exactly collinear points
    reports stderr 0.
    """
    kts = np.array([e.kT for e in estimates])
    if np.unique(kts).size < 3:
        raise ValueError(f"need estimates at >= 3 distinct kT, got kT {kts.tolist()}")
    keys = {(e.detector, e.method, e.order) for e in estimates}
    if len(keys) != 1:
        raise ValueError(f"estimates mix detectors/methods/orders: {sorted(keys)}")
    detector, method, order = next(iter(keys))
    vals = np.array([e.estimate for e in estimates])
    n = kts.size
    kt_mean = kts.mean()
    sxx = float(((kts - kt_mean) ** 2).sum())
    slope = float(((kts - kt_mean) * (vals - vals.mean())).sum() / sxx)
    intercept = float(vals.mean() - slope * kt_mean)
    residuals = vals - (intercept + slope * kts)
    sigma2 = float((residuals**2).sum() / (n - 2))
    stderr = math.sqrt(sigma2 * (1.0 / n + kt_mean**2 / sxx))
    return ZeroTemperatureExtrapolation(
        detector=detector,
        method=method,
        order=order,
        intercept=intercept,
        stderr=stderr,
        slope=slope,
        n_points=n,
    )
