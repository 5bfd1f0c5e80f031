"""Command-line front end: sweeps, QCP estimation, verification, simulation.

Subcommands
    sweep      run a detector sweep, one CSV per temperature
    estimate   locate critical points from sweeps and extrapolate to kT = 0
    verify     run a named self-check group (lines|bell|oracles|symmetry)
    simulate   Monte Carlo teleportation through a thermal resource state

Configuration is a flat ``key = value`` text file (diffable, no nesting);
command-line flags override single keys.  Unknown keys are errors.  All CSV
output uses period decimals, LF endings, and 12 significant digits, so a
rerun with the same configuration is byte-identical.

Exit codes: 0 success, 1 configuration error, 2 computation error,
3 verification failure.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from .coherence import (
    AXES,
    log_spectrum,
    spectrum_eigenvalues,
    spectrum_eigenvalues_oracle,
)
from .discord import quantum_discord, s_tilde, entropy_single, entropy_pair
from .models import (
    COUPLINGS,
    DEFAULT_L_MAX,
    FAMILIES,
    FAMILY_COUPLINGS,
    FreeFermionSolution,
    ModelSpec,
    diagonalize,
    temperatures,
    thermal_correlators,
    xxz_delta1,
    xxz_delta2,
    xy_thermo_correlators,
)
from .scan import (
    AXIS_FIELDS,
    COLUMNS,
    DEFAULT_ETA,
    DEFAULT_METHOD,
    FLAG_COLUMNS,
    METHODS,
    NUMERIC_COLUMNS,
    ZeroTemperatureExtrapolation,
    check_derivative_window,
    estimate_qcp,
    extrapolate_to_zero,
    search_window,
    sweep,
    sweep_inputs,
)
from .teleport import (
    BELL_LABELS,
    InputQubit,
    max_mean_fidelity,
    max_mean_fidelity_bruteforce,
    min_mean_trace_distance,
    min_mean_trace_distance_bruteforce,
    simulate_protocol,
)
from .xstate import (
    CORRELATORS,
    Correlators,
    PhysicalityError,
    build_xstate,
    make_xstate,
    sample_random_xstate,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_COMPUTE = 2
EXIT_VERIFY = 3

SWEEP_HEADER = ",".join(("param", "kT") + COLUMNS)
# QcpEstimate declares its fields in another order, so this header is the
# estimates.csv column list.
ESTIMATE_HEADER = "detector,kT,method,order,estimate,uncertainty"
EXTRAPOLATION_HEADER = ",".join(f.name for f in fields(ZeroTemperatureExtrapolation))

# Detector columns cmd_estimate may differentiate (raw correlators included;
# the 0/1 divergence flags excluded).
ESTIMATABLE = tuple(c for c in NUMERIC_COLUMNS if c not in FLAG_COLUMNS)

# Seed for the randomized oracle checks of `verify oracles`; fixed so the
# command is deterministic.  The pytest suite runs the same comparisons at
# larger N; this subset keeps N small enough for an interactive command.
VERIFY_ORACLE_SEED = 20250817
VERIFY_ORACLE_STATES = 200


class ConfigError(ValueError):
    """Bad configuration file, flag, or key combination (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit 1, not 2)."""

    def error(self, message):
        raise ConfigError(message)


def _length(value: str) -> int | None:
    """A chain length, or None (L = inf) for 'none', 'inf' or 'infinite'."""
    return None if value.lower() in ("none", "inf", "infinite") else int(value)


def _comma_list(item):
    """A parser of comma-separated items, each read by ``item``; blanks skipped."""
    return lambda value: tuple(item(p) for p in value.split(",") if p.strip())


# The config schema: every key and the parser of its value.  RunConfig holds
# the defaults; from_mapping combines kT, couplings, window and correlators.
_KEY_PARSERS = {
    "family": str,
    "L": _length,
    "kT": float,
    "kT_list": _comma_list(float),
    **dict.fromkeys(COUPLINGS, float),
    "axis": str,
    "start": float,
    "stop": float,
    "eta": float,
    "method": str,
    "order": int,
    "detectors": _comma_list(str.strip),
    "window_lo": float,
    "window_hi": float,
    "candidate": float,
    "out": Path,
    "seed": int,
    "input_theta": float,
    "input_chi": float,
    "bell": str,
    "runs": int,
    **dict.fromkeys(CORRELATORS, float),
}
KNOWN_KEYS = frozenset(_KEY_PARSERS)
# The keys that describe a model; simulate takes them or z, xx, yy, zz.
_MODEL_KEYS = ("family", "L", "kT", "kT_list", *COUPLINGS)


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse flat ``key = value`` lines; '#' starts a comment line."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


@dataclass
class RunConfig:
    """Validated run parameters shared by the subcommands."""

    family: str | None = None
    L: int | None = DEFAULT_L_MAX
    kT_list: tuple[float, ...] = ()
    # The couplings given; ModelSpec's default holds for the others.
    couplings: dict[str, float] = field(default_factory=dict)
    axis: str | None = None
    start: float | None = None
    stop: float | None = None
    eta: float = DEFAULT_ETA
    method: str = DEFAULT_METHOD
    order: int = 1
    detectors: tuple[str, ...] = ()
    window: tuple[float, float] | None = None
    candidate: float | None = None
    out: Path = Path(".")
    seed: int = 0
    input_theta: float | None = None
    input_chi: float | None = None
    bell: str = "phi+"
    runs: int = 10000
    correlators: Correlators | None = None
    model_keys: tuple[str, ...] = ()  # the _MODEL_KEYS given

    @classmethod
    def from_mapping(cls, raw: dict[str, str]) -> "RunConfig":
        """Parse every given key, combine the keys that fill one field, then
        check the values."""
        values = {}
        for key, value in raw.items():
            if key not in KNOWN_KEYS:
                raise ConfigError(f"unknown key {key!r}")
            try:
                values[key] = _KEY_PARSERS[key](value)
            except ValueError as exc:
                raise ConfigError(f"key {key!r}: {exc}") from None

        if "kT" in values:
            if "kT_list" in values:
                raise ConfigError("give kT or kT_list, not both")
            values["kT_list"] = (values.pop("kT"),)
        lo, hi = values.pop("window_lo", None), values.pop("window_hi", None)
        if (lo is None) != (hi is None):
            raise ConfigError("window_lo and window_hi must be given together")
        if lo is not None:
            if not (lo < hi):
                raise ConfigError(f"need window_lo < window_hi, got ({lo}, {hi})")
            values["window"] = (lo, hi)
        values["couplings"] = {k: values.pop(k) for k in COUPLINGS if k in values}
        corr = {k: values.pop(k) for k in CORRELATORS if k in values}
        if corr:
            if len(corr) != len(CORRELATORS):
                raise ConfigError("give all four of z, xx, yy, zz or none")
            values["correlators"] = Correlators(**corr)
        values["model_keys"] = tuple(k for k in raw if k in _MODEL_KEYS)
        cfg = cls(**values)

        if cfg.family is not None and cfg.family not in FAMILIES:
            raise ConfigError(f"family must be one of {FAMILIES}, got {cfg.family!r}")
        try:
            kts = temperatures(cfg.kT_list)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        for i, k in enumerate(kts):
            for other in kts[:i]:
                if _fmt(other) == _fmt(k):
                    raise ConfigError(
                        f"kT = {other} and kT = {k} would both write "
                        f"{_sweep_csv_name(k)}"
                    )
        if cfg.axis is not None and cfg.axis not in AXIS_FIELDS:
            raise ConfigError(
                f"axis must be one of {sorted(AXIS_FIELDS)}, got {cfg.axis!r}"
            )
        if not (0.0 < cfg.eta < math.inf):
            raise ConfigError(f"eta must be finite and > 0, got {cfg.eta}")
        if cfg.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {cfg.method!r}")
        if cfg.order not in (1, 2):
            raise ConfigError(f"order must be 1 or 2, got {cfg.order}")
        for i, name in enumerate(cfg.detectors):
            if name not in ESTIMATABLE:
                raise ConfigError(
                    f"unknown detector {name!r}; choose from {ESTIMATABLE}"
                )
            if name in cfg.detectors[:i]:
                raise ConfigError(
                    f"detector {name!r} appears more than once in {cfg.detectors}"
                )
        if cfg.candidate is not None and not math.isfinite(cfg.candidate):
            raise ConfigError(f"candidate must be finite, got {cfg.candidate}")
        if cfg.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
        if cfg.bell not in BELL_LABELS:
            raise ConfigError(f"bell must be one of {BELL_LABELS}, got {cfg.bell!r}")
        if cfg.runs < 1:
            raise ConfigError(f"runs must be >= 1, got {cfg.runs}")
        return cfg

    def model_template(self) -> ModelSpec:
        """The ModelSpec shared by every sweep point (kT is per result).

        A coupling key the family does not read is an error, even at its
        default value.
        """
        if self.family is None:
            raise ConfigError("missing key 'family'")
        if not self.kT_list:
            raise ConfigError("missing key 'kT_list' (or 'kT')")
        try:
            spec = ModelSpec(self.family, self.L, self.kT_list[0], **self.couplings)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        unread = [k for k in self.couplings if k not in FAMILY_COUPLINGS[self.family]]
        if unread:
            raise ConfigError(f"family {self.family!r} does not read {', '.join(unread)}")
        return spec

    def require_sweep_axis(self) -> np.ndarray:
        """The sweep's grid, once ``scan.sweep_inputs`` accepts the sweep
        keys; nothing is solved."""
        if self.axis is None:
            raise ConfigError("missing key 'axis'")
        if self.start is None or self.stop is None:
            raise ConfigError("missing key 'start' or 'stop'")
        template = self.model_template()
        try:
            _, params, _ = sweep_inputs(
                template, self.axis, self.start, self.stop, self.eta, self.kT_list
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return params


_NUMBER_FORMAT = ".12g"  # CSV cells, CSV file names and the T -> 0 summary


def _fmt(value: float) -> str:
    return f"{value:{_NUMBER_FORMAT}}"


def _sweep_csv_name(kT: float) -> str:
    """The file name of one temperature's sweep CSV."""
    return f"sweep_kT{_fmt(kT)}.csv"


def _csv_line(values) -> str:
    """One CSV line: None is an empty cell, a label is written as is, a
    number (bools included, as 0/1) as _fmt writes it."""
    return ",".join(
        [
            "" if v is None else v if isinstance(v, str) else f"{v:{_NUMBER_FORMAT}}"
            for v in values
        ]
    )


def _write_csv(path: Path, header: str, rows) -> None:
    """Write each line as it is made: the file is never held whole."""
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(_csv_line(row) + "\n" for row in rows)


def _sweep_rows(result):
    # one tolist() per column: Python scalars, not a numpy scalar per cell
    columns = [result.columns[name].tolist() for name in COLUMNS]
    return zip(result.params.tolist(), itertools.repeat(result.kT), *columns)


def write_sweep_csv(result, path: Path) -> None:
    _write_csv(path, SWEEP_HEADER, _sweep_rows(result))


def _run_sweep(cfg: RunConfig):
    return sweep(
        cfg.model_template(), cfg.axis, cfg.start, cfg.stop, cfg.eta, cfg.kT_list
    )


def cmd_sweep(cfg: RunConfig) -> int:
    cfg.require_sweep_axis()
    results = _run_sweep(cfg)
    cfg.out.mkdir(parents=True, exist_ok=True)
    for result in results:
        path = cfg.out / _sweep_csv_name(result.kT)
        write_sweep_csv(result, path)
        note = ""
        if result.failed_count:
            note = f"  ({result.failed_count} failed points)"
        print(f"wrote {path}  [{result.params.size} rows]{note}")
    return EXIT_OK


def cmd_estimate(cfg: RunConfig) -> int:
    params = cfg.require_sweep_axis()
    if not cfg.detectors:
        raise ConfigError("missing key 'detectors'")
    if cfg.window is None and cfg.candidate is None:
        raise ConfigError("need window_lo/window_hi or candidate")
    try:
        window = search_window(cfg.window, cfg.candidate, params)
        check_derivative_window(params, cfg.eta, cfg.method, cfg.order, window)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    results = _run_sweep(cfg)
    estimates = []
    for detector in cfg.detectors:
        for result in results:
            estimates.append(
                estimate_qcp(
                    result,
                    detector,
                    order=cfg.order,
                    method=cfg.method,
                    window=window,
                )
            )
    cfg.out.mkdir(parents=True, exist_ok=True)
    est_path = cfg.out / "estimates.csv"
    _write_csv(
        est_path,
        ESTIMATE_HEADER,
        [[getattr(e, name) for name in ESTIMATE_HEADER.split(",")] for e in estimates],
    )
    print(f"wrote {est_path}  [{len(estimates)} estimates]")

    summary = ["T->0 extrapolation:"]
    fits = []
    for detector in cfg.detectors:
        per_detector = [e for e in estimates if e.detector == detector]
        if len({e.kT for e in per_detector}) < 3:
            summary.append(f"  {detector}: skipped (needs >= 3 temperatures)")
            continue
        fit = extrapolate_to_zero(per_detector)
        fits.append(astuple(fit))
        summary.append(
            f"  {detector}: intercept {_fmt(fit.intercept)} +- {_fmt(fit.stderr)}"
            f"  (slope {_fmt(fit.slope)}, n = {fit.n_points})"
        )
    if fits:
        ext_path = cfg.out / "extrapolation.csv"
        _write_csv(ext_path, EXTRAPOLATION_HEADER, fits)
        print(f"wrote {ext_path}")
    print("\n".join(summary))
    return EXIT_OK


def cmd_simulate(cfg: RunConfig) -> int:
    if cfg.input_theta is None or cfg.input_chi is None:
        raise ConfigError("missing key 'input_theta' or 'input_chi'")
    try:
        qubit = InputQubit(theta=cfg.input_theta, chi=cfg.input_chi)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if cfg.correlators is not None:
        if cfg.family is not None:
            raise ConfigError("give a model (family) or z, xx, yy, zz, not both")
        if cfg.model_keys:
            raise ConfigError(
                f"z, xx, yy, zz replace the model; drop {', '.join(cfg.model_keys)}"
            )
        corr = cfg.correlators
        try:
            x = build_xstate(corr)
        except PhysicalityError as exc:
            raise ConfigError(str(exc)) from None
    else:
        if len(cfg.kT_list) > 1:
            raise ConfigError(f"simulate takes one kT, got kT_list {cfg.kT_list}")
        corr = thermal_correlators(cfg.model_template())
        x = build_xstate(corr)
    result = simulate_protocol(x, qubit, cfg.bell, runs=cfg.runs, seed=cfg.seed)
    closed_f = max_mean_fidelity(x)
    closed_d = min_mean_trace_distance(x)
    print(f"resource correlators: z={_fmt(corr.z)} xx={_fmt(corr.xx)} "
          f"yy={_fmt(corr.yy)} zz={_fmt(corr.zz)}")
    print(f"correction set {cfg.bell!r}, runs {cfg.runs}, seed {cfg.seed}")
    print("outcome counts: " + ", ".join(
        f"{label}:{count}" for label, count in zip(BELL_LABELS, result.counts)
    ))
    print(f"mean fidelity       {result.mean_fidelity:.6f} "
          f"+- {result.stderr_fidelity:.6f}")
    print(f"mean trace distance {result.mean_trace_distance:.6f} "
          f"+- {result.stderr_trace_distance:.6f}")
    print(f"closed-form detectors: fmax_ext {_fmt(closed_f.value)} "
          f"({closed_f.branch}), dmin_int {_fmt(closed_d.value)} "
          f"({closed_d.branch})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


# Each check group returns rows (name, got, expected, tol): numbers, or bools
# for a divergence flag, with tol None for an exact check.  cmd_verify alone
# judges and prints them.
def _verify_critical_lines() -> list[tuple]:
    return [
        ("delta1(h=0)", xxz_delta1(0.0), -1.0, 1e-12),
        ("delta1(h=12)", xxz_delta1(12.0), 2.0, 1e-12),
        ("delta2(h=12)", xxz_delta2(12.0), 4.875, 1e-3),
        ("delta2(h->0+)", xxz_delta2(1e-50), 1.0, 1e-3),
    ]


def _verify_bell() -> list[tuple]:
    bell = make_xstate(0.5, 0.0, 0.0, 0.5, 0.5)  # (|00> + |11>)/sqrt(2)
    rows = []
    for axis in AXES:
        ordered = sorted(spectrum_eigenvalues(bell, axis).alphas)
        for i, want in enumerate((-1.0, -1.0, 0.0, 0.0)):
            rows.append((f"bell alpha[{i}] axis {axis}", ordered[i], want, 1e-12))
    for axis in AXES:
        rows.append((f"bell log-spectrum divergent axis {axis}",
                     log_spectrum(bell, axis).divergent, True, None))
    mixed = make_xstate(0.25, 0.25, 0.0, 0.25, 0.0)
    return rows + [
        ("bell discord = ln 2", quantum_discord(bell).value, math.log(2.0), 1e-9),
        ("bell fmax_ext = 1", max_mean_fidelity(bell).value, 1.0, 1e-12),
        ("bell dmin_int = 0", min_mean_trace_distance(bell).value, 0.0, 1e-12),
        ("maximally mixed discord = 0", quantum_discord(mixed).value, 0.0, 1e-12),
    ]


def _verify_oracles() -> list[tuple]:
    rng = np.random.default_rng(VERIFY_ORACLE_SEED)
    worst_coh = 0.0
    worst_f = 0.0
    worst_d = 0.0
    worst_qd = 0.0
    thetas = np.linspace(0.0, 0.5 * math.pi, 10001)
    for _ in range(VERIFY_ORACLE_STATES):
        x = sample_random_xstate(rng)
        for axis in AXES:
            closed = np.sort(np.asarray(spectrum_eigenvalues(x, axis).alphas))
            dense = np.sort(spectrum_eigenvalues_oracle(x, axis))
            worst_coh = max(worst_coh, float(np.max(np.abs(closed - dense))))
        brute = max_mean_fidelity_bruteforce(x, n_theta=64, n_chi=128)
        worst_f = max(worst_f, abs(max_mean_fidelity(x).value - brute.value))
        worst_d = max(
            worst_d,
            abs(min_mean_trace_distance(x).value - min_mean_trace_distance_bruteforce(x)),
        )
        dense_min = float(np.min(s_tilde(x, thetas)))
        qd_direct = entropy_single(x) - entropy_pair(x) + dense_min
        worst_qd = max(worst_qd, abs(quantum_discord(x).value - max(qd_direct, 0.0)))
    n = VERIFY_ORACLE_STATES
    return [
        (f"coherence spectra vs dense oracle (N={n})", worst_coh, 0.0, 1e-10),
        (f"fmax_ext closed vs brute force (N={n})", worst_f, 0.0, 1e-6),
        (f"dmin_int closed vs brute force (N={n})", worst_d, 0.0, 1e-9),
        (f"discord minimization vs dense theta grid (N={n})", worst_qd, 0.0, 1e-8),
    ]


def _verify_symmetry() -> list[tuple]:
    c = thermal_correlators(ModelSpec("xxz", 8, 0.3, delta=1.0))
    rows = [("xxz Delta=1: xx = zz", c.xx - c.zz, 0.0, 1e-10)]
    c = thermal_correlators(ModelSpec("xxz", 8, 0.3, delta=-1.0))
    rows.append(("xxz Delta=-1: xx = -zz", c.xx + c.zz, 0.0, 1e-10))
    # Every ED result is checked against the free fermions, which share no
    # code with it.  At Delta = 0, H_xxz_field(h) = h H_xy(lam = -4/h,
    # gamma = 0), so xxz_field at kT matches the xx ring at kT / h.
    xy = ModelSpec("xy", 8, 0.2, lam=1.1, gamma=1.0)
    # lam = 1, gamma = 0 has a doubly degenerate ground space (a zero mode)
    xy0 = ModelSpec("xy", 8, 0.0, lam=1.0, gamma=0.0)
    comparisons = [
        (
            "xxz_field Delta=0 ED vs xx free fermions",
            ModelSpec("xxz_field", 8, 0.6, delta=0.0, h=3.0),
            ModelSpec("xy", 8, 0.2, lam=-4.0 / 3.0, gamma=0.0),
        ),
        ("xy free fermions vs ED (kT=0.2)", xy, xy),
        ("xy free fermions vs ED (kT=0, gamma=0)", xy0, xy0),
    ]
    for label, ed_spec, free_spec in comparisons:
        got = FreeFermionSolution(free_spec).table((free_spec.kT,))[0]
        diff = got - diagonalize(ed_spec).table((ed_spec.kT,))[0]
        for name, value in zip(CORRELATORS, diff):
            rows.append((f"{label}: {name}", value, 0.0, 1e-10))
    ct = xy_thermo_correlators(0.8, 1.0, 1.0)
    cf = thermal_correlators(ModelSpec("xy", 600, 1.0, lam=0.8, gamma=1.0))
    err = max(abs(getattr(cf, name) - getattr(ct, name)) for name in CORRELATORS)
    rows.append(("xy L=600 free fermions vs thermodynamic limit (kT=1)", err, 0.0, 1e-12))
    c = thermal_correlators(ModelSpec("xxz_field", 6, math.inf, delta=0.9, h=1.0))
    for name in CORRELATORS:
        rows.append((f"kT=inf: {name} = 0", getattr(c, name), 0.0, 1e-12))
    return rows


_VERIFY_RUNNERS = {
    "lines": _verify_critical_lines,
    "bell": _verify_bell,
    "oracles": _verify_oracles,
    "symmetry": _verify_symmetry,
}
VERIFY_SUBSETS = tuple(_VERIFY_RUNNERS)


def cmd_verify(subset: str) -> int:
    """Run one check group, print a line per check, and return its exit code.

    A group returns rows (name, got, expected, tol).  A row with a number tol
    passes when abs(got - expected) <= tol and prints its numbers with _fmt;
    a row with tol None passes when got == expected and prints them with str
    and tol "exact".  Any failing row gives EXIT_VERIFY.
    """
    if subset not in VERIFY_SUBSETS:
        raise ConfigError(f"subset must be one of {VERIFY_SUBSETS}, got {subset!r}")
    rows = _VERIFY_RUNNERS[subset]()
    width = max(len(name) for name, *_ in rows)
    failures = 0
    for name, got, expected, tol in rows:
        if tol is None:
            passed = got == expected
            want, have, within = str(expected), str(got), "exact"
        else:
            passed = abs(got - expected) <= tol
            want, have, within = _fmt(expected), _fmt(got), _fmt(tol)
        failures += not passed
        print(f"{'PASS' if passed else 'FAIL'}  {name:<{width}}  expected {want}  "
              f"got {have}  tol {within}")
    print(f"{subset}: {len(rows) - failures}/{len(rows)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="qcpdetect", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", type=Path, help="flat key = value config file")
        p.add_argument("--out", type=Path, help="output directory")
        p.add_argument("--seed", type=int, help="RNG seed (simulate)")
        p.add_argument("--method", choices=METHODS, help="finite-difference method")
        p.add_argument("--L", type=str, help="chain length (or 'none' for L = inf)")

    for name in ("sweep", "estimate", "simulate"):
        add_common(sub.add_parser(name))
    verify = sub.add_parser("verify")
    verify.add_argument("subset", choices=VERIFY_SUBSETS)
    return parser


def _load_config(args) -> RunConfig:
    raw: dict[str, str] = {}
    if args.config is not None:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        raw = parse_config_text(text, source=str(args.config))
    if args.out is not None:
        raw["out"] = str(args.out)
    if args.seed is not None:
        raw["seed"] = str(args.seed)
    if args.method is not None:
        raw["method"] = str(args.method)
    if args.L is not None:
        raw["L"] = str(args.L)
    return RunConfig.from_mapping(raw)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "verify":
            return cmd_verify(args.subset)
        cfg = _load_config(args)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        if args.command == "estimate":
            return cmd_estimate(cfg)
        return cmd_simulate(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # computation failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
