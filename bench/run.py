"""Run the qcpdetect benchmark.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Each timed pass of a workload runs in a fresh worker process (worker.py)
through the public API with library defaults: one sweep worker, BLAS
threads as installed.  Passes repeat while the next one is expected to end
within ``--seconds``.  With ``--trace 0`` the run reports the end-to-end
metrics named in BENCHMARK.json: the median wall and CPU time of the passes
and the median set-up time of their processes, each at the machine's
reference speed (see calibrate.py), and peak RSS.  With
``--trace 1`` it reports the per-layer metrics, averaged over traced
passes that alternate with untraced ones to measure the tracing overhead.
Without ``--workload`` every workload runs in turn.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Exit code 0: outputs correct; 1: a
correctness check failed; 2: the run could not complete (no result printed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MAX_MESSAGES = 20
RUN_BUDGET_S = 170.0
DEFAULT_SEED = 20250818  # acceptance criterion 3's sampler seed
# A fixed calib_s (calibrate.measure) taken as the machine's reference speed,
# close to its median on the machine baseline.json was recorded on.  Times
# are reported as measured, scaled by REFERENCE_CALIB_S over the run's
# median calib_s around the passes.
REFERENCE_CALIB_S = 0.06


class RunError(RuntimeError):
    """A worker failed or timed out; the run has no result."""


def _spawn(args: list[str], deadline: float) -> tuple[float, dict]:
    """Start a worker, wait for it, and return (start time, its report)."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args],
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - spawned),
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker {args} timed out") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunError(f"worker {args} exited with code {proc.returncode}")
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _baseline_blas() -> list[dict] | None:
    try:
        return json.loads((BENCH / "baseline.json").read_text())["env"]["blas"]
    except (OSError, KeyError, ValueError):
        return None


def _mean(values: list) -> float:
    """The mean, or the value itself when every pass gives the same one."""
    return values[0] if len(set(values)) == 1 else statistics.fmean(values)


def _calib_s(report: dict) -> float:
    """The calibration time around one pass: mean of before and after."""
    return (report["calib_before"] + report["calib_after"]) / 2


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    args = ["--workload", name, "--seed", str(seed)]
    load_before = os.getloadavg()
    reports = []
    start = time.monotonic()
    while True:
        traced = trace and len(reports) % 2 == 0
        spawned, report = _spawn(args + (["--trace"] if traced else []), deadline)
        reports.append({**report, "setup_s": report["setup_end"] - spawned, "traced": traced})
        elapsed = time.monotonic() - start
        if len(reports) >= 1 + trace and elapsed * (1 + 1 / len(reports)) > seconds:
            break
    load_after = os.getloadavg()
    untraced = [r for r in reports if not r["traced"]]
    calib_s = statistics.median(_calib_s(r) for r in reports)
    speed = REFERENCE_CALIB_S / calib_s
    raw = {
        "wall_s": statistics.median(r["wall_s"] for r in untraced),
        "cpu_s": statistics.median(r["cpu_s"] for r in untraced),
        "setup_s": statistics.median(r["setup_s"] for r in reports),
    }

    if trace:
        tables = [r["layers"] for r in reports if r["traced"]]
        measured = {key: _mean([t[key] for t in tables]) for key in tables[0]}
        measured["trace_overhead_frac"] = (
            statistics.median(t["traced_wall_s"] for t in tables)
            / statistics.median(r["wall_s"] for r in untraced)
            - 1.0
        )
        wanted = spec["per_layer"]
    else:
        measured = {name: value * speed for name, value in raw.items()}
        measured["peak_rss_mb"] = max(r["peak_rss_mb"] for r in reports)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        raise RunError(f"no value for metrics {missing}")
    baseline_blas = _baseline_blas()
    env = {
        "workload": name,
        "seed": seed,
        "passes": len(reports),
        "traced_passes": len(reports) - len(untraced),
        "calib_s": calib_s,
        "speed_factor": speed,
        **{f"measured_{name}": value for name, value in raw.items()},
        "pass_wall_s": [r["wall_s"] for r in untraced],
        "pass_cpu_s": [r["cpu_s"] for r in untraced],
        "pass_setup_s": [r["setup_s"] for r in reports],
        "pass_calib_s": [_calib_s(r) for r in reports],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "python": platform.python_version(),
        **report["versions"],
        "commit": _git_commit(),
        "blas": report["blas"],
        "blas_threads_match_baseline": (
            None if baseline_blas is None else baseline_blas == report["blas"]
        ),
        **report["details"],
    }
    failed = sum(r["failed"] for r in reports)
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": failed,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted},
        "env": env,
        "messages": [m for r in reports for m in r["messages"]][:MAX_MESSAGES],
    }


def _print(result: dict) -> None:
    env = result["env"]
    print(f"== {env['workload']}  seed {env['seed']}  passes {env['passes']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<46} {metric['value']:>14.6g} {metric['unit']}")
    if env["blas_threads_match_baseline"] is False:
        print("  WARNING: BLAS thread counts differ from baseline.json")
    for message in result["messages"]:
        print(f"  FAIL {message}")
    print("env " + json.dumps(env))
    keys = ("correct", "attempted", "failed", "metrics")
    print(json.dumps({k: result[k] for k in keys}), flush=True)


def main(argv=None) -> int:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"run.py: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    all_correct = True
    for name in [args.workload] if args.workload else names:
        try:
            result = run_workload(name, args.seed, seconds, bool(args.trace), spec)
        except RunError as exc:
            print(f"run.py: {name}: {exc}", file=sys.stderr)
            return 2
        _print(result)
        all_correct &= result["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
