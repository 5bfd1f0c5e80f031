import math
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import qcpdetect
from qcpdetect import cli
from qcpdetect.cli import (
    ESTIMATE_HEADER,
    EXTRAPOLATION_HEADER,
    KNOWN_KEYS,
    SWEEP_HEADER,
    VERIFY_SUBSETS,
    ConfigError,
    RunConfig,
    cmd_verify,
    main,
    parse_config_text,
    write_sweep_csv,
)
from qcpdetect.models import FreeFermionSolution, ModelSpec, ThermoLimitSolution, diagonalize
from qcpdetect.scan import NUMERIC_COLUMNS, sweep
from qcpdetect.xstate import Correlators

SWEEP_CONFIG = """\
# small antiferromagnetic scan
family = xxz
L = 4
kT_list = 0.5, 1.0
axis = delta
start = -1.2
stop = -0.8
eta = 0.1
"""


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_parse_config_text_roundtrip():
    raw = parse_config_text(SWEEP_CONFIG)
    assert raw["family"] == "xxz"
    assert raw["kT_list"] == "0.5, 1.0"
    assert raw["start"] == "-1.2"
    assert "#" not in "".join(raw)


def test_parse_config_text_errors():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("family = xxz\nbogus = 1\n")
    with pytest.raises(ConfigError, match=":2:"):
        parse_config_text("family = xxz\nbogus = 1\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("eta = 0.1\neta = 0.2\n")
    with pytest.raises(ConfigError, match="expected key = value"):
        parse_config_text("just some words\n")
    # removed settings are unknown keys, not silently ignored ones
    for line in ("workers = 2", "solver = dense"):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text(line)


# One sample per config key (grouped where keys only make sense together),
# each different from the RunConfig default.
KEY_SAMPLES = {
    ("family",): ("xy",),
    ("L",): ("8",),
    ("kT",): ("0.5",),
    ("kT_list",): ("0.5, 1",),
    ("delta",): ("0.5",),
    ("h",): ("1",),
    ("lam",): ("0.5",),
    ("gamma",): ("0.5",),
    ("axis",): ("lambda",),
    ("start",): ("0",),
    ("stop",): ("1",),
    ("eta",): ("0.05",),
    ("method",): ("central",),
    ("order",): ("2",),
    ("detectors",): ("qd",),
    ("window_lo", "window_hi"): ("0.1", "0.2"),
    ("candidate",): ("1",),
    ("out",): ("elsewhere",),
    ("seed",): ("3",),
    ("input_theta",): ("1",),
    ("input_chi",): ("0.5",),
    ("bell",): ("psi-",),
    ("runs",): ("5",),
    ("z", "xx", "yy", "zz"): ("0.1", "0.2", "0.2", "0.3"),
}


def test_every_known_key_is_read():
    assert {k for keys in KEY_SAMPLES for k in keys} == KNOWN_KEYS
    default = RunConfig.from_mapping({})
    assert default == RunConfig()
    for keys, values in KEY_SAMPLES.items():
        assert RunConfig.from_mapping(dict(zip(keys, values))) != default, keys


def test_run_config_validation():
    ok = RunConfig.from_mapping(parse_config_text(SWEEP_CONFIG))
    assert ok.family == "xxz" and ok.L == 4 and ok.kT_list == (0.5, 1.0)
    with pytest.raises(ConfigError):
        RunConfig.from_mapping({"family": "pottsy"})
    with pytest.raises(ConfigError):
        RunConfig.from_mapping({"kT": "-2"})
    with pytest.raises(ConfigError):
        RunConfig.from_mapping({"order": "3"})
    with pytest.raises(ConfigError):
        RunConfig.from_mapping({"window_lo": "0.5"})  # missing window_hi
    with pytest.raises(ConfigError):
        RunConfig.from_mapping({"window_lo": "1.0", "window_hi": "0.5"})
    with pytest.raises(ConfigError):
        RunConfig.from_mapping({"z": "0.1", "xx": "0.2"})  # partial correlators
    with pytest.raises(ConfigError):
        RunConfig.from_mapping({"detectors": "qd,nonsense"})
    with pytest.raises(ConfigError):
        RunConfig.from_mapping({"bell": "omega+"})
    for eta in ("0", "inf", "nan"):
        with pytest.raises(ConfigError, match="eta must be finite and > 0"):
            RunConfig.from_mapping({"eta": eta})
    with pytest.raises(ConfigError, match="kT = 0.1 appears more than once"):
        RunConfig.from_mapping({"kT_list": "0.1, 0.1, 0.2"})
    with pytest.raises(ConfigError, match="axis must be one of"):
        RunConfig.from_mapping({"axis": "kelvin"})
    with pytest.raises(ConfigError, match="method must be one of"):
        RunConfig.from_mapping({"method": "sideways"})
    with pytest.raises(ConfigError, match="runs must be >= 1, got 0"):
        RunConfig.from_mapping({"runs": "0"})


def test_run_config_rejects_kt_with_kt_list():
    # each temperature key is read, so giving both is an error, not a choice
    with pytest.raises(ConfigError, match="give kT or kT_list, not both"):
        RunConfig.from_mapping({"kT_list": "0.1, 0.2", "kT": "0.1"})
    with pytest.raises(ConfigError, match="key 'kT'"):
        RunConfig.from_mapping({"kT_list": "0.1", "kT": "abc"})


def test_run_config_rejects_unknown_keys():
    for key in ("workers", "solver", "Kt"):
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            RunConfig.from_mapping({key: "2"})


def test_run_config_model_template_requirements():
    cfg = RunConfig.from_mapping({"kT": "0.5"})
    with pytest.raises(ConfigError, match="family"):
        cfg.model_template()
    cfg = RunConfig.from_mapping({"family": "xxz"})
    with pytest.raises(ConfigError, match="kT"):
        cfg.model_template()
    cfg = RunConfig.from_mapping({"family": "xy", "kT": "0.5", "L": "none"})
    assert cfg.model_template().L is None
    # default length when L is omitted
    cfg = RunConfig.from_mapping({"family": "xxz", "kT": "0.5"})
    assert cfg.model_template().L == 12
    # a non-finite coupling is a config error, named by its key
    for key in ("delta", "h", "lam", "gamma"):
        cfg = RunConfig.from_mapping({"family": "xxz", "kT": "0.5", key: "nan"})
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            cfg.model_template()


@pytest.mark.parametrize(
    "line, message",
    [
        ("eta = inf", "eta must be finite and > 0"),
        ("start = -inf", "start and stop must be finite"),
        ("stop = inf", "start and stop must be finite"),
        ("delta = nan", "delta must be finite"),
        ("candidate = nan", "candidate must be finite"),
    ],
)
def test_sweep_command_rejects_non_finite_settings(tmp_path, capsys, line, message):
    key = line.split()[0]
    text = "\n".join(
        row for row in SWEEP_CONFIG.splitlines() if not row.startswith(key + " ")
    )
    # estimate gets every other key it needs, so only the bad setting fails it
    text += "\ndetectors = qd\nwindow_lo = -1.1\nwindow_hi = -0.9"
    cfg = _write(tmp_path, text + f"\n{line}\nout = {tmp_path}\n")
    for command in ("sweep", "estimate"):
        assert main([command, "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert "wrote" not in captured.out
        assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "family, line, message",
    [
        ("xxz", "h = 3.0", "family 'xxz' does not read h"),
        # given at its default value, the key is still not read
        ("xxz", "gamma = 1.0", "family 'xxz' does not read gamma"),
        ("xxz_field", "lam = 0.5", "family 'xxz_field' does not read lam"),
    ],
)
def test_commands_reject_a_coupling_the_family_does_not_read(
    tmp_path, capsys, family, line, message
):
    text = SWEEP_CONFIG.replace("family = xxz", f"family = {family}")
    text += "detectors = qd\nwindow_lo = -1.1\nwindow_hi = -0.9\n"
    text += f"{line}\nout = {tmp_path}\n"
    cfg = _write(tmp_path, text)
    for command in ("sweep", "estimate"):
        assert main([command, "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert "wrote" not in captured.out
        assert not list(tmp_path.glob("*.csv"))


# ---------------------------------------------------------------------------
# sweep command
# ---------------------------------------------------------------------------


def test_sweep_command_writes_expected_csv(tmp_path, capsys):
    cfg = _write(tmp_path, SWEEP_CONFIG + f"out = {tmp_path}\n")
    assert main(["sweep", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out and "[5 rows]" in out
    body = {}
    for kt_tag in ("0.5", "1"):
        path = tmp_path / f"sweep_kT{kt_tag}.csv"
        assert path.exists()
        lines = path.read_text().splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 6
        body[kt_tag] = lines
    for lines in body.values():
        for row in lines[1:]:
            fields = row.split(",")
            assert len(fields) == len(SWEEP_HEADER.split(","))
            named = dict(zip(SWEEP_HEADER.split(","), fields))
            # divergence flags are 0/1 ints
            for flag in ("lqc_x_divergent", "lqc_y_divergent", "lqc_z_divergent"):
                assert named[flag] in ("0", "1")
            assert named["fmax_branch"] in ("xx", "yy", "zz")
            assert named["dmin_branch"] in ("1-D-", "D+")
            qd = float(named["qd"])
            assert 0.0 <= qd <= math.log(2.0) + 1e-9
    params = [float(r.split(",")[0]) for r in body["0.5"][1:]]
    assert params == pytest.approx([-1.2, -1.1, -1.0, -0.9, -0.8])


@pytest.mark.parametrize("stage", ["detector", "model", "temperature"])
def test_sweep_csv_matches_records(tmp_path, monkeypatch, stage):
    import qcpdetect.models as models_mod

    # fail the point delta = -1.1 in its X-state build (the model solve
    # gives it xx = 1.5 at each temperature), in the model solve, or in its
    # solution's table when the second temperature is asked for (either of
    # the last two fails its column block, solved again a point at a time,
    # and the point at every temperature)
    template = ModelSpec("xxz", 4, 0.5)
    original = models_mod.thermal_solution

    def flaky(spec, **column):
        at = np.abs(column["delta"] + 1.1) < 1e-9
        if not at.any():
            return original(spec, **column)
        if stage == "model":
            raise RuntimeError("boom")
        solution = original(spec, **column)

        def table(kts):
            if stage == "temperature" and 1.0 in kts:
                raise RuntimeError("boom")
            rows = solution.table(kts)
            if stage == "detector":
                rows[:, 1, at] = 1.5  # xx
            return rows

        return SimpleNamespace(table=table)

    monkeypatch.setattr(models_mod, "thermal_solution", flaky)
    message = {
        "detector": "PhysicalityError: correlator xx outside [-1, 1] (value 1.500e+00)",
        "model": "RuntimeError: boom",
        "temperature": "RuntimeError: boom",
    }[stage]
    results = sweep(template, "delta", -1.2, -0.8, eta=0.1, kT_list=(0.5, 1.0))
    for result in results:
        assert result.failed_count == 1
        assert result.errors[1] == message
        path = tmp_path / f"sweep_{result.kT}.csv"
        write_sweep_csv(result, path)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        cells = [row.split(",") for row in lines[1:]]
        assert len(cells) == result.params.size
        for name in NUMERIC_COLUMNS:
            parsed = [float(row[header.index(name)]) for row in cells]
            np.testing.assert_allclose(
                parsed, result.column(name), rtol=5e-12, atol=0.0, equal_nan=True
            )
        for name in ("fmax_branch", "dmin_branch"):
            written = [row[header.index(name)] for row in cells]
            assert written == [label or "" for label in result.column(name)]
        # the failed point: numbers nan, flags 0, branch labels empty
        kT = f"{result.kT:g}"
        assert lines[2] == f"-1.1,{kT}," + "nan," * 12 + "0,0,0,nan,,nan,"


def test_sweep_csv_is_the_per_cell_rule_byte_for_byte(tmp_path, monkeypatch):
    import qcpdetect.models as models_mod

    original = models_mod.thermal_solution

    def flaky(spec, **column):
        # fails the column block that holds the point, then the point alone
        if (np.abs(column["delta"] + 1.1) < 1e-9).any():
            raise RuntimeError("boom")
        return original(spec, **column)

    monkeypatch.setattr(models_mod, "thermal_solution", flaky)
    template = ModelSpec("xxz", 4, 0.5)
    for result in sweep(template, "delta", -1.2, -0.8, eta=0.1, kT_list=(0.5, 1.0)):
        assert result.failed_count == 1
        path = tmp_path / f"sweep_{result.kT}.csv"
        write_sweep_csv(result, path)

        def cell(value):
            if value is None:
                return ""
            if isinstance(value, str):
                return value
            return format(value, ".12g")

        columns = [result.column(n).tolist() for n in SWEEP_HEADER.split(",")[2:]]
        lines = [SWEEP_HEADER]
        for i, param in enumerate(result.params.tolist()):
            row = [param, result.kT] + [column[i] for column in columns]
            lines.append(",".join(cell(v) for v in row))
        # the failed point: numbers nan, flags 0, branch labels empty
        assert ",nan,,nan," in lines[2] and ",0,0,0," in lines[2]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_sweep_command_is_reproducible(tmp_path):
    cfg_a = _write(tmp_path, SWEEP_CONFIG + f"out = {tmp_path / 'a'}\n", "a.cfg")
    cfg_b = _write(tmp_path, SWEEP_CONFIG + f"out = {tmp_path / 'b'}\n", "b.cfg")
    assert main(["sweep", "--config", cfg_a]) == 0
    assert main(["sweep", "--config", cfg_b]) == 0
    for name in ("sweep_kT0.5.csv", "sweep_kT1.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


def test_sweep_command_missing_axis_is_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, "family = xxz\nL = 4\nkT = 0.5\n")
    assert main(["sweep", "--config", cfg]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kts, message",
    [
        ((-1.0,), "kT must be >= 0, got -1.0"),
        ((math.nan,), "kT must be >= 0, got nan"),
        ((0.1, 0.1), "kT = 0.1 appears more than once in (0.1, 0.1)"),
    ],
    ids=["negative", "nan", "repeated"],
)
def test_every_temperature_check_gives_one_message(tmp_path, capsys, kts, message):
    # the spec, the three solvers' tables, the sweep and the CLI share one rule
    failures = []
    if len(kts) == 1:
        with pytest.raises(ValueError) as info:
            ModelSpec("xy", None, kts[0])
        failures.append(info.value)
    for solution in (
        diagonalize(ModelSpec("xxz", 4, 0.5)),
        FreeFermionSolution(ModelSpec("xy", 4, 0.5, lam=0.8)),
        ThermoLimitSolution(ModelSpec("xy", None, 0.5, lam=0.8)),
    ):
        with pytest.raises(ValueError) as info:
            solution.table(kts)
        failures.append(info.value)
    with pytest.raises(ValueError) as info:
        sweep(ModelSpec("xxz", 4, 0.5), "delta", 0.0, 1.0, eta=0.5, kT_list=kts)
    failures.append(info.value)
    assert [str(exc) for exc in failures] == [message] * len(failures)
    text = SWEEP_CONFIG.replace("0.5, 1.0", ", ".join(map(str, kts)))
    assert main(["sweep", "--config", _write(tmp_path, text + f"out = {tmp_path}\n")]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not list(tmp_path.glob("*.csv"))


def test_sweep_command_rejects_repeated_temperature(tmp_path, capsys):
    text = SWEEP_CONFIG.replace("kT_list = 0.5, 1.0", "kT_list = 0.1, 0.1, 0.2")
    cfg = _write(tmp_path, text + f"out = {tmp_path}\n")
    assert main(["sweep", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert "kT = 0.1 appears more than once" in captured.err
    assert "wrote" not in captured.out
    assert not list(tmp_path.glob("*.csv"))
    # distinct floats that format to one file name are rejected as well
    text = SWEEP_CONFIG.replace("kT_list = 0.5, 1.0", "kT_list = 0.1, 0.1000000000001")
    cfg = _write(tmp_path, text + f"out = {tmp_path}\n", "near.cfg")
    assert main(["sweep", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert (
        "kT = 0.1 and kT = 0.1000000000001 would both write sweep_kT0.1.csv"
        in captured.err
    )
    assert "wrote" not in captured.out
    assert not list(tmp_path.glob("*.csv"))
    # 0 and -0 are the same temperature, though they format differently
    text = SWEEP_CONFIG.replace("kT_list = 0.5, 1.0", "kT_list = 0, -0")
    cfg = _write(tmp_path, text + f"out = {tmp_path}\n", "zero.cfg")
    assert main(["sweep", "--config", cfg]) == 1
    assert "appears more than once" in capsys.readouterr().err


def test_sweep_command_requires_start_and_stop(tmp_path, capsys):
    cfg = _write(tmp_path, SWEEP_CONFIG.replace("stop = -0.8\n", "") + f"out = {tmp_path}\n")
    assert main(["sweep", "--config", cfg]) == 1
    assert "missing key 'start' or 'stop'" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_sweep_command_notes_failed_points(tmp_path, capsys, monkeypatch):
    import qcpdetect.models as models_mod

    original = models_mod.thermal_solution

    def flaky(spec, **column):
        if (np.abs(column["delta"] + 1.1) < 1e-9).any():
            raise RuntimeError("boom")
        return original(spec, **column)

    monkeypatch.setattr(models_mod, "thermal_solution", flaky)
    cfg = _write(tmp_path, SWEEP_CONFIG + f"out = {tmp_path}\n")
    assert main(["sweep", "--config", cfg]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.endswith("[5 rows]  (1 failed points)") for line in out] == [True, True]


def test_cli_flag_overrides_config(tmp_path):
    # --L overrides the default length; the sweep then runs at L = 6
    cfg = _write(tmp_path, SWEEP_CONFIG.replace("L = 4\n", "") + f"out = {tmp_path}\n")
    assert main(["sweep", "--config", cfg, "--L", "6"]) == 0
    assert (tmp_path / "sweep_kT0.5.csv").exists()


def test_sweep_length_limit_is_the_solvers(tmp_path, capsys):
    # an xy ring runs its free fermions far past the L <= 12 of exact
    # diagonalization, which still bounds the xxz families
    ring = "family = xy\ngamma = 1.0\nkT_list = 0.05, 0.1\naxis = lambda\n"
    ring += f"start = 0.9\nstop = 1.1\neta = 0.1\nout = {tmp_path}\n"
    assert main(["sweep", "--config", _write(tmp_path, ring), "--L", "600"]) == 0
    for name in ("sweep_kT0.05.csv", "sweep_kT0.1.csv"):
        assert len((tmp_path / name).read_text().splitlines()) == 4
    chain = _write(tmp_path, SWEEP_CONFIG + f"out = {tmp_path / 'xxz'}\n", "xxz.cfg")
    capsys.readouterr()
    assert main(["sweep", "--config", chain, "--L", "14"]) == 1
    assert "4 <= L <= 12 for family 'xxz'" in capsys.readouterr().err
    assert not (tmp_path / "xxz").exists()


# ---------------------------------------------------------------------------
# estimate command
# ---------------------------------------------------------------------------

ESTIMATE_CONFIG = """\
family = xxz
L = 4
kT_list = 0.5, 0.75, 1.0
axis = delta
start = -1.5
stop = -0.5
eta = 0.05
detectors = qd, fmax_ext
window_lo = -1.3
window_hi = -0.7
method = central
"""


def test_estimate_command_writes_tables(tmp_path, capsys):
    cfg = _write(tmp_path, ESTIMATE_CONFIG + f"out = {tmp_path}\n")
    assert main(["estimate", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "T->0 extrapolation:" in out

    est = (tmp_path / "estimates.csv").read_text().splitlines()
    assert est[0] == ESTIMATE_HEADER
    assert len(est) == 1 + 2 * 3  # two detectors x three temperatures
    for row in est[1:]:
        det, kt, method, order, value, unc = row.split(",")
        assert det in ("qd", "fmax_ext")
        assert method == "central" and order == "1"
        assert -1.3 <= float(value) <= -0.7
        assert float(unc) == pytest.approx(0.05)

    ext = (tmp_path / "extrapolation.csv").read_text().splitlines()
    assert ext[0] == EXTRAPOLATION_HEADER
    assert len(ext) == 3
    for row in ext[1:]:
        fields = row.split(",")
        assert fields[0] in ("qd", "fmax_ext")
        assert int(fields[-1]) == 3


def test_estimate_command_requires_detectors(tmp_path, capsys):
    text = ESTIMATE_CONFIG.replace("detectors = qd, fmax_ext\n", "")
    cfg = _write(tmp_path, text + f"out = {tmp_path}\n")
    assert main(["estimate", "--config", cfg]) == 1
    assert "config error" in capsys.readouterr().err


def test_estimate_command_requires_a_window_or_a_candidate(tmp_path, capsys):
    text = ESTIMATE_CONFIG.replace("window_lo = -1.3\nwindow_hi = -0.7\n", "")
    cfg = _write(tmp_path, text + f"out = {tmp_path}\n")
    assert main(["estimate", "--config", cfg]) == 1
    assert "need window_lo/window_hi or candidate" in capsys.readouterr().err
    assert not (tmp_path / "estimates.csv").exists()


def test_out_and_method_flags_override_config(tmp_path, capsys):
    cfg = _write(tmp_path, ESTIMATE_CONFIG + f"out = {tmp_path / 'config'}\n")
    out = tmp_path / "flag"
    assert main(["estimate", "--config", cfg, "--out", str(out), "--method", "forward"]) == 0
    assert not (tmp_path / "config").exists()
    rows = (out / "estimates.csv").read_text().splitlines()
    method = ESTIMATE_HEADER.split(",").index("method")
    assert {row.split(",")[method] for row in rows[1:]} == {"forward"}


def test_estimate_command_rejects_a_repeated_detector(tmp_path, capsys, monkeypatch):
    # a detector listed twice would enter its kT -> 0 fit twice, halving the
    # stderr of the intercept; like a repeated kT, it is a config error,
    # raised before the L = None column solver is built for any point
    import qcpdetect.models as models_mod

    solved = []

    def refuse(*args, **kwargs):
        solved.append(kwargs)
        raise AssertionError("solved a point")

    monkeypatch.setattr(models_mod, "ThermoLimitSolution", refuse)
    text = """\
family = xy
L = none
gamma = 1.0
kT_list = 0.02, 0.04, 0.06
axis = lambda
start = 0.9
stop = 1.1
eta = 0.01
detectors = qd, qd
order = 2
method = central
window_lo = 0.9
window_hi = 1.1
"""
    cfg = _write(tmp_path, text + f"out = {tmp_path}\n")
    assert main(["estimate", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "config error: detector 'qd' appears more than once in ('qd', 'qd')" in err
    assert not list(tmp_path.glob("*.csv"))
    assert not solved
    with pytest.raises(ConfigError, match="detector 'qd' appears more than once"):
        RunConfig.from_mapping({"detectors": "qd, fmax_ext, qd"})


def test_estimate_command_window_must_fit_range(tmp_path, capsys):
    text = ESTIMATE_CONFIG.replace("window_lo = -1.3", "window_lo = -2.0")
    cfg = _write(tmp_path, text + f"out = {tmp_path}\n")
    assert main(["estimate", "--config", cfg]) == 1


@pytest.mark.parametrize(
    "replace, message",
    [
        (
            {"family = xxz": "family = xy"},
            "axis 'delta' does not apply to family 'xy'",
        ),
        (
            {
                "start = -1.2": "start = 0",
                "stop = -0.8": "stop = 1",
                "eta = 0.1": "eta = 0.3",
            },
            "is not an integer number of eta = 0.3 steps",
        ),
    ],
    ids=["axis-family", "grid-steps"],
)
def test_sweep_rules_are_config_errors_before_solving(
    tmp_path, capsys, monkeypatch, replace, message
):
    # The library's sweep checks run before anything is solved, and their
    # ValueError is a config error (exit 1), not a computation error.  Every
    # grid, finite xy and xxz alike, is solved through models.solve_grid,
    # which refuses and counts.
    import qcpdetect.scan as scan_mod

    solved = []

    def refuse(*args, **kwargs):
        solved.append(args)
        raise AssertionError("solved a grid")

    monkeypatch.setattr(scan_mod, "solve_grid", refuse)
    text = SWEEP_CONFIG
    for old, new in replace.items():
        text = text.replace(old, new)
    text += "detectors = qd\ncandidate = 0.5\n"
    cfg = _write(tmp_path, text + f"out = {tmp_path}\n")
    for command in ("sweep", "estimate"):
        assert main([command, "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert "wrote" not in captured.out
        assert not list(tmp_path.glob("*.csv"))
    assert not solved


def test_estimate_window_may_round_past_the_grid_end(tmp_path, capsys):
    # candidate 0.7 - 0.5 rounds to 0.19999999999999996, below start = 0.2;
    # estimate_qcp allows that 1e-12 overhang, and so does the command.
    text = """\
family = xxz
L = 4
kT = 0.5
axis = delta
start = 0.2
stop = 1.4
eta = 0.05
detectors = qd
candidate = 0.7
"""
    cfg = _write(tmp_path, text + f"out = {tmp_path}\n")
    assert main(["estimate", "--config", cfg]) == 0
    rows = (tmp_path / "estimates.csv").read_text().splitlines()
    assert len(rows) == 2
    assert 0.2 <= float(rows[1].split(",")[4]) <= 1.2


def test_estimate_refuses_a_detector_constant_to_rounding(tmp_path, capsys):
    # dmin_int is identically 0 where z = 0, as on the whole zero-field xxz
    # chain: its column is rounding noise and locates nothing.
    text = """\
family = xxz
L = 4
kT_list = 0.1, 0.2, 0.3
axis = delta
start = -1.5
stop = 1.5
eta = 0.05
detectors = dmin_int
candidate = 1.0
"""
    cfg = _write(tmp_path, text + f"out = {tmp_path}\n")
    assert main(["estimate", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert "'dmin_int' is constant to rounding" in captured.err
    assert not (tmp_path / "estimates.csv").exists()


def test_estimate_command_compute_failure_exits_2(tmp_path, capsys, monkeypatch):
    # the central stencil of the 3-point grid fits, but it reads the failed
    # point delta = 0.4, which is NaN: the sweep leaves no derivative value
    import qcpdetect.models as models_mod

    original = models_mod.thermal_solution

    def flaky(spec, **column):
        # fails the column block that holds the point, then the point alone
        if (np.abs(column["delta"] - 0.4) < 1e-9).any():
            raise RuntimeError("boom")
        return original(spec, **column)

    monkeypatch.setattr(models_mod, "thermal_solution", flaky)
    text = """\
family = xxz
L = 4
kT = 0.5
axis = delta
start = 0.4
stop = 0.6
eta = 0.1
detectors = qd
method = central
window_lo = 0.4
window_hi = 0.6
"""
    cfg = _write(tmp_path, text + f"out = {tmp_path}\n")
    assert main(["estimate", "--config", cfg]) == 2
    assert "error: ValueError: no defined central order-1 derivative of 'qd'" in (
        capsys.readouterr().err
    )
    assert not (tmp_path / "estimates.csv").exists()


@pytest.mark.parametrize(
    "pipeline, message",
    [
        (
            "stop = 1.0\nwindow_lo = 0.9\nwindow_hi = 1.0\n",
            "need a 1-d array of at least 3 grid values",
        ),
        (
            "stop = 1.2\norder = 2\nmethod = central\nwindow_lo = 0.9\nwindow_hi = 1.2\n",
            "no central order-2 derivative stencil fits the 4-point grid",
        ),
        (
            "stop = 1.2\nmethod = forward\nwindow_lo = 1.15\nwindow_hi = 1.2\n",
            "no forward order-1 derivative stencil fits the 4-point grid "
            "inside window (1.15, 1.2)",
        ),
    ],
    ids=["two-points", "central-order-2", "forward-past-the-window"],
)
def test_estimate_stencil_off_the_grid_is_a_config_error(
    tmp_path, capsys, monkeypatch, pipeline, message
):
    # a derivative whose stencil leaves the grid at every in-window point
    # can locate nothing, whatever the sweep gives: a config error, raised
    # before the grid is solved
    import qcpdetect.scan as scan_mod

    solved = []

    def refuse(*args, **kwargs):
        solved.append(args)
        raise AssertionError("solved a grid")

    monkeypatch.setattr(scan_mod, "solve_grid", refuse)
    text = """\
family = xy
L = none
gamma = 1.0
kT = 0.05
axis = lambda
start = 0.9
eta = 0.1
detectors = qd
"""
    cfg = _write(tmp_path, text + pipeline + f"out = {tmp_path}\n")
    assert main(["estimate", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert f"config error: {message}" in captured.err
    assert "wrote" not in captured.out
    assert not list(tmp_path.glob("*.csv"))
    assert not solved


# ---------------------------------------------------------------------------
# simulate command
# ---------------------------------------------------------------------------

SIMULATE_CONFIG = """\
z = 0.0
xx = 0.2
yy = 0.2
zz = 0.3
input_theta = 1.0
input_chi = 0.5
bell = phi+
runs = 2000
seed = 7
"""


def test_simulate_command_deterministic(tmp_path, capsys):
    cfg = _write(tmp_path, SIMULATE_CONFIG)
    assert main(["simulate", "--config", cfg]) == 0
    first = capsys.readouterr().out
    assert "mean fidelity" in first and "outcome counts" in first
    assert main(["simulate", "--config", cfg]) == 0
    assert capsys.readouterr().out == first
    assert main(["simulate", "--config", cfg, "--seed", "8"]) == 0
    assert capsys.readouterr().out != first


def test_simulate_command_requires_input_angles(tmp_path, capsys, monkeypatch):
    text = SIMULATE_CONFIG.replace("input_theta = 1.0\n", "")
    cfg = _write(tmp_path, text)
    assert main(["simulate", "--config", cfg]) == 1
    # A model config is checked before its model is solved.
    import qcpdetect.cli as cli_mod

    def solve(*args, **kwargs):
        raise AssertionError("the model was solved before the config was checked")

    monkeypatch.setattr(cli_mod, "thermal_correlators", solve)
    text = "family = xxz\nL = 4\nkT = 0.5\ninput_chi = 0.0\n"
    assert main(["simulate", "--config", _write(tmp_path, text, "model.cfg")]) == 1
    assert "missing key 'input_theta' or 'input_chi'" in capsys.readouterr().err
    # so are a non-finite input angle and a negative seed
    model = "family = xxz\nL = 4\nkT = 0.5\n"
    for lines, message in (
        ("input_theta = nan\ninput_chi = 0", "theta must be finite, got nan"),
        ("input_theta = inf\ninput_chi = 0", "theta must be finite, got inf"),
        ("input_theta = 1\ninput_chi = -inf", "chi must be finite, got -inf"),
        ("input_theta = 1\ninput_chi = 0\nseed = -1", "seed must be >= 0, got -1"),
    ):
        cfg = _write(tmp_path, model + lines + "\n", "bad.cfg")
        assert main(["simulate", "--config", cfg]) == 1
        assert message in capsys.readouterr().err
    # and so are given correlators that form no physical state
    angles = "input_theta = 1\ninput_chi = 0\n"
    unphysical = "z = 0.9\nxx = 0.9\nyy = 0.2\nzz = 0.3"
    for lines, message in (
        (unphysical, "population d negative (value -1.250e-01)"),
        ("z = nan\nxx = 0.2\nyy = 0.2\nzz = 0.3", "z outside [-1, 1] (value nan)"),
    ):
        cfg = _write(tmp_path, angles + lines + "\n", "bad.cfg")
        assert main(["simulate", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
    # while a model solve that yields them is a computation error
    monkeypatch.setattr(
        cli_mod,
        "thermal_correlators",
        lambda spec: Correlators(z=0.9, xx=0.9, yy=0.2, zz=0.3),
    )
    cfg = _write(tmp_path, model + angles, "model.cfg")
    assert main(["simulate", "--config", cfg]) == 2
    assert "error: PhysicalityError: population d negative" in capsys.readouterr().err


def test_simulate_command_rejects_a_model_with_correlators(tmp_path, capsys, monkeypatch):
    # simulate takes a model or its correlators, not both; the error comes
    # before the model is solved
    import qcpdetect.cli as cli_mod

    def solve(*args, **kwargs):
        raise AssertionError("the model was solved before the config was checked")

    monkeypatch.setattr(cli_mod, "thermal_correlators", solve)
    text = """\
family = xxz_field
L = 4
kT = 0.5
delta = 2.0
h = 12.0
z = 0.0
xx = 0.2
yy = 0.2
zz = 0.3
input_theta = 1.0
input_chi = 0.0
"""
    assert main(["simulate", "--config", _write(tmp_path, text)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "config error: give a model (family) or z, xx, yy, zz, not both\n"
    )
    assert captured.out == ""
    # a sweep reads the same config file and ignores the correlators
    monkeypatch.undo()
    correlators = "z = 0.0\nxx = 0.2\nyy = 0.2\nzz = 0.3\n"
    cfg = _write(tmp_path, SWEEP_CONFIG + correlators + f"out = {tmp_path}\n", "sweep.cfg")
    assert main(["sweep", "--config", cfg]) == 0


@pytest.mark.parametrize(
    "key, value", [("L", "8"), ("kT", "0.5"), ("kT_list", "0.1, 0.2"), ("lam", "0.5"), ("h", "1")]
)
def test_simulate_command_rejects_model_keys_without_a_family(
    tmp_path, capsys, monkeypatch, key, value
):
    # correlators with a chain length, a temperature or a coupling but no
    # family would simulate the correlators and drop the model keys unread
    import qcpdetect.cli as cli_mod

    def simulate(*args, **kwargs):
        raise AssertionError("simulated")

    monkeypatch.setattr(cli_mod, "simulate_protocol", simulate)
    cfg = _write(tmp_path, SIMULATE_CONFIG + f"{key} = {value}\n")
    assert main(["simulate", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"config error: z, xx, yy, zz replace the model; drop {key}\n"
    assert captured.out == ""


def test_simulate_command_from_model(tmp_path, capsys):
    text = """\
family = xxz_field
L = 4
kT = 0.5
delta = 2.0
h = 12.0
input_theta = 1.0
input_chi = 0.0
runs = 500
seed = 3
"""
    cfg = _write(tmp_path, text)
    assert main(["simulate", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "resource correlators" in out
    assert "closed-form detectors" in out


def test_simulate_command_takes_one_temperature(tmp_path, capsys, monkeypatch):
    # a model simulates at one kT: a kT_list of two is a config error, found
    # before the model is solved, not a run at its first temperature
    import qcpdetect.cli as cli_mod

    def solve(*args, **kwargs):
        raise AssertionError("the model was solved before the config was checked")

    monkeypatch.setattr(cli_mod, "thermal_correlators", solve)
    text = "family = xy\nL = 8\nlam = 1.0\ninput_theta = 1.0\ninput_chi = 0.0\n"
    cfg = _write(tmp_path, text + "kT_list = 0.1, 0.5\n")
    assert main(["simulate", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.err == "config error: simulate takes one kT, got kT_list (0.1, 0.5)\n"
    assert captured.out == ""
    # one temperature given as a kT_list is one temperature
    monkeypatch.undo()
    cfg = _write(tmp_path, text + "kT_list = 0.1\n")
    assert main(["simulate", "--config", cfg]) == 0


# ---------------------------------------------------------------------------
# verify command and argument errors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("subset", VERIFY_SUBSETS)
def test_verify_subset_passes(capsys, subset):
    assert main(["verify", subset]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert re.search(rf"^{subset}: (\d+)/\1 checks passed$", out, re.MULTILINE)


@pytest.mark.parametrize("subset", VERIFY_SUBSETS)
def test_verify_failing_row_exits_3(capsys, monkeypatch, subset):
    rows = [
        ("close enough", 1.0 + 1e-13, 1.0, 1e-12),
        ("too far", 1.5, 1.0, 0.25),
        ("flag", False, True, None),
        ("nan", math.nan, 0.0, 1.0),
    ]
    monkeypatch.setitem(cli._VERIFY_RUNNERS, subset, lambda: rows)
    assert main(["verify", subset]) == 3
    assert capsys.readouterr().out.splitlines() == [
        "PASS  close enough  expected 1  got 1  tol 1e-12",
        "FAIL  too far       expected 1  got 1.5  tol 0.25",
        "FAIL  flag          expected True  got False  tol exact",
        "FAIL  nan           expected 0  got nan  tol 1",
        f"{subset}: 1/4 checks passed",
    ]


def test_bad_arguments_are_config_errors(tmp_path, capsys):
    assert main(["verify", "everything"]) == 1
    # the subset check holds also without argparse's choices
    with pytest.raises(ConfigError, match="subset must be one of"):
        cmd_verify("everything")
    assert main(["frobnicate"]) == 1
    assert main(["sweep", "--config", str(tmp_path / "missing.cfg")]) == 1
    cfg = _write(tmp_path, SWEEP_CONFIG + f"out = {tmp_path}\n")
    assert main(["sweep", "--config", cfg, "--workers", "3"]) == 1
    assert not list(tmp_path.glob("*.csv"))


NO_SCIPY_SCRIPT = """\
import sys

import qcpdetect
import qcpdetect.cli


def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")


assert not scipy_modules(), ("import", scipy_modules()[:3])
for cfg in sys.argv[1:]:
    assert qcpdetect.cli.main(["sweep", "--config", cfg]) == 0
    assert not scipy_modules(), (cfg, scipy_modules()[:3])
"""


def test_package_and_finite_sweeps_load_no_scipy(tmp_path):
    # Only the L = inf quadrature loads scipy: importing the package and
    # finite sweeps (ED for xxz, free fermions for xy) must not, checked in
    # a fresh interpreter.
    configs = []
    for family, axis in (("xxz", "delta"), ("xy", "lambda")):
        text = (
            f"family = {family}\nL = 4\nkT_list = 0, 0.5\naxis = {axis}\n"
            "start = 0.5\nstop = 1\neta = 0.25\n"
        )
        cfg = _write(tmp_path, text + f"out = {tmp_path / family}\n", f"{family}.cfg")
        configs.append(cfg)
    src = Path(qcpdetect.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, *configs],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert run.returncode == 0, run.stderr
    for family in ("xxz", "xy"):
        assert len(list((tmp_path / family).glob("sweep_kT*.csv"))) == 2
