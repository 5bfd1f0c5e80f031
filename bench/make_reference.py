"""Write the reference outputs that the workloads are checked against.

    python3 bench/make_reference.py

Runs one pass of every sweep workload and stores its CSVs under
bench/reference/<name>/, and one pass of the oracles workload for each of
REFERENCE_SEEDS, stored as bench/reference/oracles/seed_<n>.json.  Run it
only at a commit whose outputs are trusted: the committed files were
written at the commit that introduced the benchmark.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    for workload in workloads.WORKLOADS.values():
        out_dir = workloads.reset_dir(workloads.REFERENCE_DIR / workload.name)
        if isinstance(workload, workloads.SweepWorkload):
            results, fits = workload.run_pass(workload.setup(0), out_dir)
            err = abs(fits[workloads.QCP_DETECTOR].intercept - workload.exact)
            failed = sum(r.failed_count for r in results)
            print(f"{workload.name}: {len(results)} CSVs, qcp_abs_err {err:.6g}, "
                  f"failed points {failed}")
            continue
        for seed in workloads.REFERENCE_SEEDS:
            inputs = workload.setup(seed)
            output = workload.run_pass(inputs, out_dir)
            path = workloads.oracle_reference_path(workload.name, seed)
            path.write_text(json.dumps(output, indent=1) + "\n")
            outcome = workload.check(inputs, output, out_dir)
            print(f"{workload.name} seed {seed}: {outcome.attempted} states, "
                  f"{outcome.failed} failing the criterion-3 tolerances")
    return 0


if __name__ == "__main__":
    sys.exit(main())
