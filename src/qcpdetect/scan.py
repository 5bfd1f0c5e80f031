"""Parameter sweeps, finite differences, and critical-point estimation.

A sweep walks one control axis (anisotropy, field, coupling, ...) over a
uniform grid, computes the thermal pair correlators at each point (one
model solve per point, reused across every requested temperature), and
evaluates all five detectors on the resulting X states, one temperature
column at a time: each point's X state is built and validated on its own,
and every detector then runs once on the column of states that were built.
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

import concurrent.futures
import math
from dataclasses import dataclass, fields, replace
from types import MappingProxyType

import numpy as np

from .coherence import AXES, coherence_entropy, log_spectrum
from .discord import quantum_discord
from .models import ModelSpec, thermal_solution
from .teleport import max_mean_fidelity, min_mean_trace_distance
from .xstate import Correlators, XState, build_xstate

DEFAULT_ETA = 0.01
DEFAULT_METHOD = "forward"
DEFAULT_WINDOW_HALF_WIDTH = 0.5

METHODS = ("forward", "central", "backward")

# Control-axis name -> (ModelSpec field, families it drives)
AXIS_FIELDS: dict[str, tuple[str, tuple[str, ...]]] = {
    "delta": ("delta", ("xxz", "xxz_field")),
    "h": ("h", ("xxz_field",)),
    "lambda": ("lam", ("xy",)),
    "gamma": ("gamma", ("xy",)),
}

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


def _stack(cls, items: list):
    """One ``cls`` dataclass whose fields are arrays over ``items``."""
    return cls(*(np.array([getattr(it, f.name) for it in items]) for f in fields(cls)))


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _point_correlators(
    template: ModelSpec,
    axis_field: str,
    param: float,
    kT_list: tuple[float, ...],
    method: str,
) -> list[Correlators] | str:
    """One grid point's correlators at every temperature, or the error message.

    The model is solved once; each temperature reuses the solution.
    """
    try:
        spec = replace(template, **{axis_field: param}, kT=kT_list[0])
        solution = thermal_solution(spec, method=method)
        return [solution.correlators(kT) for kT in kT_list]
    except Exception as exc:
        return _error(exc)


def _temperature_columns(
    column: list[Correlators | str],
) -> tuple[dict[str, np.ndarray], tuple[str | None, ...]]:
    """(columns, errors) of one temperature over the grid.

    ``column`` holds each point's correlators, or its model failure message.
    Each point's X state is built and validated on its own, so a build
    failure fails only its own point; the detectors then run once on the
    column of states that were built, and their values fill those points.
    """
    errors = [c if isinstance(c, str) else None for c in column]
    built = {}
    for i, corr in enumerate(column):
        if errors[i] is None:
            try:
                built[i] = build_xstate(corr)
            except Exception as exc:
                errors[i] = _error(exc)
    out = {
        name: np.full(len(column), FAILED_ROW[name], dtype)
        for name, dtype in COLUMN_DTYPES.items()
    }
    if built:
        points = list(built)
        try:
            values = _columns(
                _stack(Correlators, [column[i] for i in points]),
                _stack(XState, list(built.values())),
            )
        except Exception as exc:
            for i in points:
                errors[i] = _error(exc)
        else:
            for name, col in out.items():
                col[points] = values[name]
    return out, tuple(errors)


def _grid(start: float, stop: float, eta: float) -> np.ndarray:
    if not (eta > 0.0):
        raise ValueError(f"eta must be > 0, got {eta}")
    if not (stop > start):
        raise ValueError(f"need stop > start, got [{start}, {stop}]")
    count = (stop - start) / eta
    n = int(round(count))
    if abs(count - n) > 1e-9 * max(1.0, abs(count)):
        raise ValueError(
            f"grid [{start}, {stop}] is not an integer number of eta = {eta} steps"
        )
    return start + np.arange(n + 1) * eta


def sweep(
    template: ModelSpec,
    axis: str,
    start: float,
    stop: float,
    eta: float = DEFAULT_ETA,
    kT_list: tuple[float, ...] | list[float] = (),
    method: str = "auto",
    workers: int = 1,
) -> list[SweepResult]:
    """Sweep one control axis, returning one SweepResult per temperature.

    The model solves are independent work items, one per point (optionally
    evaluated by a thread pool); the detectors then run once per temperature
    column.  Assembly is index-ordered, so results are deterministic and
    independent of evaluation order.
    """
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
    params = _grid(start, stop, eta)

    def work(param: float) -> list[Correlators] | str:
        return _point_correlators(template, axis_field, float(param), kts, method)

    if workers > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            per_point = list(pool.map(work, params))
    else:
        per_point = [work(p) for p in params]

    results = []
    for j, kT in enumerate(kts):
        column = [p if isinstance(p, str) else p[j] for p in per_point]
        columns, errors = _temperature_columns(column)
        results.append(SweepResult(axis, eta, kT, params, columns, errors))
    return results


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
    window: tuple[float, float] | None, candidate: float | None
) -> tuple[float, float]:
    """The explicit (lo, hi) window, else candidate +- DEFAULT_WINDOW_HALF_WIDTH."""
    if window is not None:
        return window
    if candidate is None:
        raise ValueError("provide either window=(lo, hi) or candidate")
    return (
        candidate - DEFAULT_WINDOW_HALF_WIDTH,
        candidate + DEFAULT_WINDOW_HALF_WIDTH,
    )


def estimate_qcp(
    result: SweepResult,
    detector: str,
    order: int = 1,
    method: str = DEFAULT_METHOD,
    window: tuple[float, float] | None = None,
    candidate: float | None = None,
) -> QcpEstimate:
    """Locate a critical point as the in-window extremum of |derivative|.

    The search window is ``search_window(window, candidate)``; it must lie
    inside the grid interior.  Ties break toward the smaller control value.
    Raises ValueError when the window contains no defined derivative value.
    """
    lo, hi = map(float, search_window(window, candidate))
    if not (lo < hi):
        raise ValueError(f"window must satisfy lo < hi, got ({lo}, {hi})")
    params = result.params
    if lo < params[0] - 1e-12 or hi > params[-1] + 1e-12:
        raise ValueError(
            f"window ({lo}, {hi}) leaves the grid [{params[0]}, {params[-1]}]"
        )
    deriv = derivative(result.column(detector), result.eta, method, order)
    in_window = (params >= lo - 1e-12) & (params <= hi + 1e-12)
    usable = in_window & np.isfinite(deriv)
    if not usable.any():
        raise ValueError(
            f"no defined {method} order-{order} derivative of {detector!r} "
            f"inside window ({lo}, {hi})"
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
