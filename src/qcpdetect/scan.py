"""Parameter sweeps, finite differences, and critical-point estimation.

A sweep walks one control axis (anisotropy, field, coupling, ...) over a
uniform grid; ``models.solve_grid`` solves the model there into one
(temperature, 4, point) array of z, xx, yy, zz and each point's failure.
The sweep then evaluates all five detectors once, on the rows of all
temperatures: ``xstate.build_xstates`` builds and checks the X states of
all rows at once, a row that fails its checks failing alone, and every
detector then runs once on the column of states that were built.
Each temperature's result is a set of columns, one array per correlator
and detector over the grid, in the order of ``COLUMNS``.  Failures at a
grid point are caught and recorded (its message in ``errors``, the fill
of each column's dtype in the columns), never aborting the sweep or failing
another point, on every solver: a column block whose solve raises is solved
again a point at a time.  Downstream derivative stencils that touch a failed
point come out undefined (NaN) rather than interpolated.

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
from dataclasses import dataclass

import numpy as np

from .coherence import AXES, coherence_entropy, log_spectrum
from .discord import quantum_discord
from .models import FAMILY_COUPLINGS, ModelSpec, solve_grid, temperatures
from .teleport import max_mean_fidelity, min_mean_trace_distance
from .xstate import CORRELATORS, Correlators, XState, build_xstate, build_xstates

DEFAULT_ETA = 0.01
DEFAULT_METHOD = "forward"
DEFAULT_WINDOW_HALF_WIDTH = 0.5

# The grid points each finite-difference method reaches behind and ahead of
# the point it differentiates.
_STENCILS = {"forward": (0, 1), "central": (1, 1), "backward": (1, 0)}
METHODS = tuple(_STENCILS)

# Control-axis name -> (ModelSpec field, families that read it)
_AXIS_COUPLINGS = {"delta": "delta", "h": "h", "lambda": "lam", "gamma": "gamma"}
AXIS_FIELDS: dict[str, tuple[str, tuple[str, ...]]] = {
    axis: (field, tuple(f for f, read in FAMILY_COUPLINGS.items() if field in read))
    for axis, field in _AXIS_COUPLINGS.items()
}

# The column schema, in CSV emission order: the correlators, then the
# detectors, each with its dtype.  The branch labels are strings (object),
# the divergence flags booleans, and every other column a float.
COLUMN_DTYPES = {
    **dict.fromkeys(CORRELATORS, float),
    "qd": float, "theta_star": float,
    "sqc_x": float, "sqc_y": float, "sqc_z": float,
    "lqc_x": float, "lqc_y": float, "lqc_z": float,
    "lqc_x_divergent": bool, "lqc_y_divergent": bool, "lqc_z_divergent": bool,
    "fmax_ext": float, "fmax_branch": object,
    "dmin_int": float, "dmin_branch": object,
}
COLUMNS = tuple(COLUMN_DTYPES)
FLAG_COLUMNS = tuple(c for c, dtype in COLUMN_DTYPES.items() if dtype is bool)
NUMERIC_COLUMNS = tuple(c for c, dtype in COLUMN_DTYPES.items() if dtype is not object)


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
    run once on ``x``, in ``COLUMNS`` order.  The fields of both are floats
    for one row, or arrays over a column for a column of rows."""
    qd = quantum_discord(x)
    fmax = max_mean_fidelity(x)
    dmin = min_mean_trace_distance(x)
    values = {
        **vars(corr),
        "qd": qd.value, "theta_star": qd.theta_star,
        "fmax_ext": fmax.value, "fmax_branch": fmax.branch,
        "dmin_int": dmin.value, "dmin_branch": dmin.branch,
    }
    for ax in AXES:
        lqc = log_spectrum(x, ax)
        values[f"sqc_{ax}"] = coherence_entropy(x, ax)
        values[f"lqc_{ax}"] = lqc.value
        values[f"lqc_{ax}_divergent"] = lqc.divergent
    return {name: values[name] for name in COLUMNS}


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


def _temperature_columns(
    corr: np.ndarray, model_failures: list[Exception | None]
) -> tuple[dict[str, np.ndarray], tuple[str | None, ...]]:
    """(columns, errors) over a column of rows.

    ``corr`` holds the rows' (4, rows) z, xx, yy, zz and ``model_failures``
    each row's model exception, or None; a sweep passes all its
    temperatures' rows at once.  ``build_xstates`` builds and checks the X
    states of all rows at once, and a row fails alone, with the model's
    error or else its own ``PhysicalityError``; the detectors then run once
    on the column of states that were built, and their values fill those
    rows.
    """
    states, physics = build_xstates(Correlators(*corr))
    failures = (p if m is None else m for m, p in zip(model_failures, physics))
    errors = [None if exc is None else _error(exc) for exc in failures]
    # a failed point holds NaN numbers, False flags and no labels
    fill = {float: math.nan, bool: False, object: None}
    out = {c: np.full(len(errors), fill[dtype], dtype) for c, dtype in COLUMN_DTYPES.items()}
    points = [i for i, err in enumerate(errors) if err is None]
    if points:
        fields = (states.a, states.b, states.c, states.d, states.e)
        try:
            values = _columns(
                Correlators(*corr[:, points]), XState(*(f[points] for f in fields))
            )
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
    kts = temperatures(kT_list or (template.kT,))
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

    ``models.solve_grid`` solves the grid once, for every temperature; the
    detectors then run once, on the rows of all temperatures, and the rows
    are split per temperature.
    """
    axis_field, params, kts = sweep_inputs(template, axis, start, stop, eta, kT_list)
    corrs, failures = solve_grid(template, axis_field, params, kts)
    points = params.size
    columns, errors = _temperature_columns(
        corrs.transpose(1, 0, 2).reshape(4, -1), failures * len(kts)
    )
    return [
        SweepResult(
            axis,
            eta,
            kT,
            params,
            {name: col[i * points : (i + 1) * points] for name, col in columns.items()},
            errors[i * points : (i + 1) * points],
        )
        for i, kT in enumerate(kts)
    ]


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------


def _derivative_once(values: np.ndarray, eta: float, method: str) -> np.ndarray:
    if method not in _STENCILS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    back, ahead = _STENCILS[method]
    span = back + ahead
    n = values.size
    out = np.full(n, math.nan)
    out[back : n - ahead] = (values[span:] - values[: n - span]) / (span * eta)
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


def _in_window(params: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The grid points in the search window, give or take its 1e-12."""
    return (params >= lo - 1e-12) & (params <= hi + 1e-12)


def check_derivative_window(params, eta, method, order, window) -> None:
    """Raise ValueError unless a grid point inside ``window`` has its
    ``derivative`` stencil on the grid ``params``; solves nothing."""
    on_grid = np.isfinite(derivative(np.zeros(params.size), eta, method, order))
    if not (on_grid & _in_window(params, *window)).any():
        raise ValueError(
            f"no {method} order-{order} derivative stencil fits the "
            f"{params.size}-point grid inside window {window}"
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
    in_window = _in_window(params, lo, hi)
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
