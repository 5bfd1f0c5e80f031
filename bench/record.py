"""Repeat benchmark runs, report their spread, and record the baseline.

    python3 bench/record.py [--out FILE]

Runs two sets of run.py runs: in each, every workload of BENCHMARK.json
once per seed of SEEDS, workloads interleaved so slow phases of a shared
machine hit all of them.  Then one traced run per workload at the default
seed.  For every end-to-end metric and set it prints the median, the
quartiles of ``statistics.quantiles(values, n=4)`` and the spread
(q3 - q1) / median, marking spreads above a third of the metric's bound,
and the change of the second set's median from the first's, marking
changes beyond the bound.  With ``--out`` the summaries, every run's
values, the layer table and the environment are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = range(1, 11)
SETS = 2


def run_once(workload: str, seed: int | None, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--trace", str(trace)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stdout}")
    env = next(json.loads(ln[4:]) for ln in lines if ln.startswith("env "))
    return json.loads(lines[-1]), env


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "values": values,
    }


def run_set(names: list[str], bounds: dict) -> tuple[dict, dict]:
    """One set of runs: its summary per workload and the first run's env."""
    runs = {name: [] for name in names}
    envs = {name: [] for name in names}
    for seed in SEEDS:
        for name in names:
            result, env = run_once(name, seed, 0)
            runs[name].append(result)
            envs[name].append(env)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{name} seed {seed}: correct={result['correct']} {values}", flush=True)
    summary = {}
    for name in names:
        results = runs[name]
        summary[name] = {
            "runs": len(results),
            "seeds": list(SEEDS),
            "all_correct": all(r["correct"] for r in results),
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "loadavg_1min": [e["loadavg_before"][0] for e in envs[name]],
            "passes": [e["passes"] for e in envs[name]],
            "calib_s": [e["calib_s"] for e in envs[name]],
            "measured": {
                metric: [e[f"measured_{metric}"] for e in envs[name]]
                for metric in ("wall_s", "cpu_s", "setup_s")
            },
            "metrics": {
                metric: summarise([r["metrics"][metric]["value"] for r in results])
                for metric in bounds
            },
        }
    return summary, envs[names[0]][0]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    sets = []
    for number in range(1, SETS + 1):
        summary, env = run_set(names, bounds)
        sets.append(summary)
        for name in names:
            for metric, s in summary[name]["metrics"].items():
                wide = metric != "setup_s" and s["spread"] > bounds[metric] / 3
                print(
                    f"set {number} {name:<14} {metric:<12} median {s['median']:.5g}  "
                    f"q1 {s['q1']:.5g}  q3 {s['q3']:.5g}  spread {s['spread']:.4f}"
                    f"  (bound {bounds[metric]}){'  WIDE' if wide else ''}"
                )
            for metric, values in summary[name]["measured"].items():
                print(
                    f"set {number} {name:<14} {metric:<12} as measured, before scaling:"
                    f" spread {summarise(values)['spread']:.4f}"
                )

    set_to_set = {}
    for name in names:
        set_to_set[name] = {}
        for metric in bounds:
            first, second = (s[name]["metrics"][metric]["median"] for s in sets)
            change = second / first - 1.0
            set_to_set[name][metric] = change
            flag = "  BEYOND BOUND" if abs(change) > bounds[metric] else ""
            print(f"set 2 vs 1 {name:<14} {metric:<12} median change {change:+.4f}{flag}")

    layers = {}
    for name in names:
        result, traced_env = run_once(name, None, 1)
        layers[name] = {
            "seed": traced_env["seed"],
            "correct": result["correct"],
            **{k: v["value"] for k, v in result["metrics"].items()},
        }
        print(f"{name} traced: correct={result['correct']}", flush=True)

    if args.out:
        record = {
            "env": {k: env[k] for k in ("nproc", "python", "numpy", "scipy", "commit", "blas")},
            "run_seconds": spec["run_seconds"],
            "sets": sets,
            "set_to_set_median_change": set_to_set,
            "layers": layers,
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    ok = all(s[name]["all_correct"] for s in sets for name in names)
    return 0 if ok and all(v["correct"] for v in layers.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
