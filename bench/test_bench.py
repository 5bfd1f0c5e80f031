"""Tests of the benchmark's own checks and tracer.

    python3 -m pytest -q bench/test_bench.py

They read the stored reference outputs and need neither the program nor a
benchmark run.
"""

import copy
import csv
import json
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from checks import CORR_TOL, ROUND_TOL, compare_sweep_csv, oracle_mismatches  # noqa: E402
from spans import Tracer, patched  # noqa: E402

REFERENCE = sorted((BENCH / "reference").glob("*/*.csv"))
ORACLES = BENCH / "reference" / "oracles"


def _perturbed_copy(tmp_path: Path, ref: Path, row: int, column: str, change) -> Path:
    with open(ref, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[row][column] = change(rows[row][column])
    out = tmp_path / ref.name
    with open(out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return out


def test_every_sweep_workload_has_a_reference():
    assert {p.parent.name for p in REFERENCE} == {"ising_L12", "ising_thermo"}


@pytest.mark.parametrize("ref", REFERENCE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_reference_matches_itself(tmp_path, ref):
    rows, failing, messages = compare_sweep_csv(shutil.copy(ref, tmp_path), ref)
    assert rows > 0 and failing == 0, messages


@pytest.mark.parametrize(
    "column, change, caught",
    [
        ("xx", lambda v: repr(float(v) + 10 * CORR_TOL), True),
        ("xx", lambda v: repr(float(v) + 0.1 * CORR_TOL), False),
        ("qd", lambda v: repr(float(v) + 1e-6), True),
        ("theta_star", lambda v: repr(float(v) - 0.3), True),
        ("sqc_y", lambda v: repr(float(v) * 1.001), True),
        ("lqc_z", lambda v: repr(float(v) * 1.001), True),
        ("lqc_x_divergent", lambda v: "1" if v == "0" else "0", True),
        ("fmax_ext", lambda v: repr(float(v) + 1e-7), True),
        ("fmax_branch", lambda v: "yy" if v != "yy" else "xx", True),
        ("dmin_int", lambda v: repr(float(v) + 1e-7), True),
        ("dmin_branch", lambda v: "D+" if v != "D+" else "1-D-", True),
        ("param", lambda v: repr(float(v) + 1e-3), True),
    ],
)
def test_perturbed_output_is_caught(tmp_path, column, change, caught):
    ref = BENCH / "reference" / "ising_L12" / "sweep_kT0.02.csv"
    got = _perturbed_copy(tmp_path, ref, 2, column, change)
    _, failing, messages = compare_sweep_csv(got, ref)
    assert failing == (1 if caught else 0), messages


def test_oracles_have_references_for_the_default_and_baseline_seeds():
    seeds = {int(p.stem.removeprefix("seed_")) for p in ORACLES.glob("seed_*.json")}
    assert seeds == {20250818, *range(1, 11)}


@pytest.mark.parametrize(
    "kind, key, change, caught",
    [
        ("states", None, None, False),
        ("states", "fidelity_grid", lambda v: v + 1e-9, True),
        ("states", "fidelity_brute", lambda v: v + 0.1 * ROUND_TOL, False),
        ("states", "oracle_alphas_y", lambda v: v[:2] + [v[2] - 1e-10] + v[3:], True),
        ("states", "alphas_x", lambda v: v[:3], True),
        ("states", "qd", lambda v: v + 1e-9, True),
        ("products", None, lambda v: v + 1e-11, True),
    ],
)
def test_perturbed_oracle_output_is_caught(kind, key, change, caught):
    ref = json.loads((ORACLES / "seed_20250818.json").read_text())
    got = copy.deepcopy(ref[kind][0])
    if key is not None:
        got[key] = change(got[key])
    elif change is not None:
        got = change(got)
    assert bool(oracle_mismatches(got, ref[kind][0])) == caught


def test_missing_row_is_caught(tmp_path):
    ref = BENCH / "reference" / "ising_thermo" / "sweep_kT0.01.csv"
    got = tmp_path / ref.name
    got.write_text("".join(ref.read_text().splitlines(keepends=True)[:-1]))
    _, failing, _ = compare_sweep_csv(got, ref)
    assert failing == 1


def _leaf(n):
    return sum(range(n))


def _middle(n):
    return _leaf(n) + _leaf(2 * n)


def test_self_times_add_up_to_the_root():
    tracer = Tracer()
    module = sys.modules[__name__]
    originals = (_leaf, _middle)
    layers = {"leaf": (module, "_leaf", None), "middle": (module, "_middle", None)}
    with patched(tracer, layers, __name__):
        tracer.run("root", lambda: [_middle(20_000) for _ in range(5)])
    assert (module._leaf, module._middle) == originals
    assert tracer.calls == {"root": 1, "middle": 5, "leaf": 10}
    total = sum(tracer.self_s.values())
    assert total == pytest.approx(tracer.durations["root"][0], rel=1e-9)


def test_benchmark_json_names_what_the_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [
        "wall_s",
        "cpu_s",
        "setup_s",
        "peak_rss_mb",
    ]
    names = {m["name"] for m in spec["per_layer"]}
    for layer in ("models.eigh", "discord.quantum_discord", "cli.write_sweep_csv"):
        assert {f"{layer}.self_s", f"{layer}.calls"} <= names
    assert {"other.self_s", "trace_overhead_frac"} <= names
