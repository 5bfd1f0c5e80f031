"""One timed pass of one workload in a fresh process: set up, time, check, report.

    python3 bench/worker.py --workload NAME --seed N [--trace]

run.py starts this script once per pass; it prints one JSON object as its
last line of standard output.  Set-up is everything before the timed pass:
imports, input generation and one untimed warm-up item that is not among
the pass's inputs.  Since every pass has a process of its own, no state of
the program, such as a cache keyed on inputs, carries over from one timed
pass to the next.  With ``--trace`` every layer is wrapped in a span during
the pass and the report holds the pass's layer table.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

BLAS_THREAD_SYMBOLS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "scipy_openblas_get_num_threads64_",
)
MAX_MESSAGES = 20


def blas_threads() -> list[dict]:
    """Each loaded OpenBLAS library and the thread count it reports."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                found.append({"library": Path(path).name, "threads": fn()})
                break
    return found


def layer_table(tracer, layer_names, details) -> dict:
    """The traced pass's layer table."""
    out = {}
    for name in layer_names:
        out[f"{name}.self_s"] = tracer.self_s[name]
        out[f"{name}.calls"] = tracer.calls[name]
    out["models.eigh.n3_sum"] = tracer.counts["models.eigh.n3_sum"]
    diag = tracer.durations["models.diagonalize"]
    out["models.diagonalize.p50_ms"] = 1e3 * statistics.median(diag) if diag else 0.0
    out["scan.failed_points"] = details.get("failed_points", 0)
    out["cli.csv_bytes"] = details.get("csv_bytes", 0)
    out["other.self_s"] = tracer.self_s["pass"]
    out["traced_wall_s"] = tracer.durations["pass"][0]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "qcpdetect" / "__init__.py").is_file():
        print(f"worker: no qcpdetect sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import calibrate
    import qcpdetect
    import workloads
    from spans import Tracer, patched

    if Path(qcpdetect.__file__).resolve().parent != SRC / "qcpdetect":
        print(f"worker: imported qcpdetect from {qcpdetect.__file__}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.setup(args.seed)
    matrices = calibrate.inputs()
    out_dir = workloads.reset_dir(OUT / f"{args.workload}-{os.getpid()}")
    try:
        workload.warm_up(inputs)
        setup_end = time.monotonic()
        calibrate.measure(matrices, repeats=1)  # first calls, untimed
        calib_before = calibrate.measure(matrices)
        tracer = Tracer()
        layers = workloads.layers()
        w0, c0 = time.perf_counter(), time.process_time()
        if args.trace:
            with patched(tracer, layers, "qcpdetect"):
                output = tracer.run("pass", workload.run_pass, inputs, out_dir)
        else:
            output = workload.run_pass(inputs, out_dir)
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        calib_after = calibrate.measure(matrices)
        outcome = workload.check(inputs, output, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            OUT.rmdir()
        except OSError:
            pass  # another worker's directory is still there

    report = {
        "setup_end": setup_end,
        "wall_s": wall,
        "cpu_s": cpu,
        "calib_before": calib_before,
        "calib_after": calib_after,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "messages": outcome.messages[:MAX_MESSAGES],
        "details": outcome.details,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
        "blas": blas_threads(),
    }
    if args.trace:
        report["layers"] = layer_table(tracer, layers, outcome.details)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
