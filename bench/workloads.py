"""The benchmark's workloads: inputs, one timed pass, and the output check.

Importing this module imports qcpdetect; the worker puts the checkout's
``src`` first on ``sys.path`` before it does.  Every call into the package
goes through a module attribute (``scan.sweep``, not a bare ``sweep``) so a
traced run can wrap it.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy.integrate
import scipy.linalg

from qcpdetect import cli, coherence, discord, models, scan, teleport, xstate

from checks import compare_sweep_csv, oracle_mismatches

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# Seeds with stored oracles outputs: acceptance criterion 3's sampler seed,
# run.py's default, and the seeds of the baseline runs in record.py.
REFERENCE_SEEDS = (20250818, *range(1, 11))

# Derivative pipeline (order, method) per detector, as in acceptance
# criterion 8a of tests/test_acceptance.py.
ISING_PIPELINES = {
    "qd": (2, "central"),
    "fmax_ext": (1, "forward"),
    "dmin_int": (2, "forward"),
    "sqc_z": (1, "forward"),
}
# The detector whose kT -> 0 intercept gives qcp_abs_err.
QCP_DETECTOR = "dmin_int"


@dataclass
class Outcome:
    """What the check of one pass found."""

    attempted: int
    failed: int
    messages: list[str] = field(default_factory=list)
    details: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class SweepWorkload:
    """sweep -> CSV per kT -> estimate_qcp per pipeline -> extrapolate_to_zero.

    The grid is fixed, so the seed does not change the inputs; the outputs
    are checked against the reference CSVs and the exact coupling.
    """

    name: str
    family: str
    L: int | None
    axis: str
    start: float
    stop: float
    eta: float
    kts: tuple[float, ...]
    pipelines: dict[str, tuple[int, str]]
    exact: float
    qcp_bound: float
    couplings: dict[str, float]

    def setup(self, seed: int) -> models.ModelSpec:
        return models.ModelSpec(self.family, self.L, self.kts[0], **self.couplings)

    def warm_up(self, template: models.ModelSpec) -> None:
        """One point just below the grid through the model and the detectors.

        The point is not on the grid, so a cache keyed on inputs cannot
        serve the first timed pass from the warm-up.
        """
        point = self.start - self.eta
        spec = replace(template, **{scan.AXIS_FIELDS[self.axis][0]: point})
        scan.evaluate_detectors(point, models.thermal_correlators(spec))

    def run_pass(self, template: models.ModelSpec, out_dir: Path):
        results = scan.sweep(
            template, self.axis, self.start, self.stop, eta=self.eta, kT_list=self.kts
        )
        for result in results:
            cli.write_sweep_csv(result, out_dir / csv_name(result.kT))
        fits = {}
        for detector, (order, method) in self.pipelines.items():
            estimates = [
                scan.estimate_qcp(
                    r, detector, order=order, method=method, window=(self.start, self.stop)
                )
                for r in results
            ]
            fits[detector] = scan.extrapolate_to_zero(estimates)
        return results, fits

    def check(self, inputs, output, out_dir: Path) -> Outcome:
        results, fits = output
        outcome = Outcome(attempted=0, failed=0)
        for result in results:
            rows, failing, messages = compare_sweep_csv(
                out_dir / csv_name(result.kT), REFERENCE_DIR / self.name / csv_name(result.kT)
            )
            outcome.attempted += rows
            outcome.failed += failing
            outcome.messages += messages
        err = abs(fits[QCP_DETECTOR].intercept - self.exact)
        if not err <= self.qcp_bound:
            outcome.failed += 1
            outcome.messages.append(f"qcp_abs_err {err} exceeds {self.qcp_bound}")
        outcome.details = {
            "qcp_abs_err": err,
            "failed_points": sum(r.failed_count for r in results),
            "csv_bytes": sum((out_dir / csv_name(r.kT)).stat().st_size for r in results),
        }
        return outcome


def csv_name(kT: float) -> str:
    return f"sweep_kT{kT:.12g}.csv"


@dataclass(frozen=True)
class OracleInputs:
    seed: int
    states: list[xstate.XState]
    products: list[xstate.XState]
    warm_up: tuple[xstate.XState, xstate.XState]


@dataclass(frozen=True)
class OraclesWorkload:
    """Acceptance criterion 3 on seeded random and product X states.

    The states are drawn in set-up; a pass runs every closed-form detector
    and its brute-force oracle on each of them.  The check applies the
    criterion's tolerances and, for a seed in REFERENCE_SEEDS, compares
    every output with the stored reference to rounding.
    """

    name: str
    n_states: int
    n_theta: int = 128
    n_chi: int = 256

    def setup(self, seed: int) -> OracleInputs:
        rng = np.random.default_rng(seed)
        product_rng = np.random.default_rng(seed + 1)
        states = [xstate.sample_random_xstate(rng) for _ in range(self.n_states)]
        products = [
            xstate.sample_product_xstate(product_rng)
            for _ in range(max(1, self.n_states // 10))
        ]
        # Drawn after the timed states, so they are not among them.
        warm = (xstate.sample_random_xstate(rng), xstate.sample_product_xstate(product_rng))
        return OracleInputs(seed, states, products, warm)

    def warm_up(self, inputs: OracleInputs) -> None:
        state, product = inputs.warm_up
        self.state_outputs(state)
        discord.quantum_discord(product)

    def state_outputs(self, x) -> dict:
        """Every closed form and its oracle on one random state."""
        out = {}
        for axis in coherence.AXES:
            closed = np.sort(coherence.spectrum_eigenvalues(x, axis).alphas)
            dense = np.sort(coherence.spectrum_eigenvalues_oracle(x, axis))
            out[f"alphas_{axis}"] = closed.tolist()
            out[f"oracle_alphas_{axis}"] = dense.tolist()
        brute = teleport.max_mean_fidelity_bruteforce(
            x, n_theta=self.n_theta, n_chi=self.n_chi
        )
        out["fidelity"] = teleport.max_mean_fidelity(x).value
        out["fidelity_grid"] = brute.grid_value
        out["fidelity_brute"] = brute.value
        out["trace_distance"] = teleport.min_mean_trace_distance(x).value
        out["trace_distance_brute"] = teleport.min_mean_trace_distance_bruteforce(x)
        out["qd"] = discord.quantum_discord(x).value
        return out

    def run_pass(self, inputs: OracleInputs, out_dir: Path) -> dict:
        return {
            "states": [self.state_outputs(x) for x in inputs.states],
            "products": [discord.quantum_discord(x).value for x in inputs.products],
        }

    def check(self, inputs: OracleInputs, output: dict, out_dir: Path) -> Outcome:
        bad_states = {i for i, out in enumerate(output["states"]) if not criterion3_ok(out)}
        bad_products = {i for i, qd in enumerate(output["products"]) if not qd < 1e-9}
        messages = []
        if bad_states or bad_products:
            messages.append(
                f"states {sorted(bad_states)}, product states {sorted(bad_products)}"
                " fail the criterion-3 tolerances"
            )
        ref_path = oracle_reference_path(self.name, inputs.seed)
        if ref_path.is_file():
            ref = json.loads(ref_path.read_text())
            for kind, bad in (("states", bad_states), ("products", bad_products)):
                got = output[kind]
                bad.update(range(min(len(got), len(ref[kind])), max(len(got), len(ref[kind]))))
                for i, (g, r) in enumerate(zip(got, ref[kind])):
                    mismatches = oracle_mismatches(g, r)
                    if mismatches:
                        bad.add(i)
                        messages.append(f"{kind}[{i}] differs from {ref_path.name}: {mismatches}")
        attempted = len(output["states"]) + len(output["products"])
        return Outcome(attempted, len(bad_states) + len(bad_products), messages)


def criterion3_ok(out: dict) -> bool:
    """Acceptance criterion 3's tolerances on one state's outputs."""
    ok = all(
        np.max(np.abs(np.subtract(out[f"alphas_{axis}"], out[f"oracle_alphas_{axis}"]))) < 1e-10
        for axis in coherence.AXES
    )
    ok &= abs(out["fidelity"] - out["fidelity_grid"]) < 1e-3
    ok &= abs(out["fidelity"] - out["fidelity_brute"]) < 1e-6
    ok &= abs(out["trace_distance"] - out["trace_distance_brute"]) < 1e-9
    ok &= 0.0 <= out["qd"] <= 1.0
    return bool(ok)


def oracle_reference_path(name: str, seed: int) -> Path:
    return REFERENCE_DIR / name / f"seed_{seed}.json"


WORKLOADS = {
    w.name: w
    for w in (
        SweepWorkload(
            name="ising_L12",
            family="xy",
            L=12,
            axis="lambda",
            start=0.92,
            stop=1.08,
            eta=0.04,
            kts=(0.02, 0.04, 0.06, 0.08, 0.1),
            pipelines=ISING_PIPELINES,
            exact=1.0,
            qcp_bound=0.15,
            couplings={"gamma": 1.0},
        ),
        SweepWorkload(
            name="ising_thermo",
            family="xy",
            L=None,
            axis="lambda",
            start=0.9,
            stop=1.1,
            eta=0.001,
            kts=(0.01, 0.02, 0.03, 0.04, 0.05),
            pipelines=ISING_PIPELINES,
            exact=1.0,
            qcp_bound=0.02,
            couplings={"gamma": 1.0},
        ),
        OraclesWorkload(name="oracles", n_states=40),
    )
}


def _count_n3(counts, args) -> None:
    counts["models.eigh.n3_sum"] += args[0].shape[0] ** 3


def layers() -> dict:
    """Span name -> (owner, attribute, counter) for every traced layer."""
    return {
        "models.build_hamiltonian": (models, "build_hamiltonian", None),
        "models.diagonalize": (models, "diagonalize", None),
        "models.eigh": (scipy.linalg, "eigh", _count_n3),
        "models.correlators": (models.ThermalSolution, "correlators", None),
        "models.xy_thermo_correlators": (models, "xy_thermo_correlators", None),
        "models.quad": (scipy.integrate, "quad", None),
        "xstate.build_xstate": (xstate, "build_xstate", None),
        "discord.quantum_discord": (discord, "quantum_discord", None),
        "coherence.spectrum_eigenvalues": (coherence, "spectrum_eigenvalues", None),
        "coherence.spectrum_eigenvalues_oracle": (
            coherence,
            "spectrum_eigenvalues_oracle",
            None,
        ),
        "coherence.coherence_entropy": (coherence, "coherence_entropy", None),
        "coherence.log_spectrum": (coherence, "log_spectrum", None),
        "teleport.max_mean_fidelity": (teleport, "max_mean_fidelity", None),
        "teleport.min_mean_trace_distance": (teleport, "min_mean_trace_distance", None),
        "teleport.max_mean_fidelity_bruteforce": (
            teleport,
            "max_mean_fidelity_bruteforce",
            None,
        ),
        "teleport.min_mean_trace_distance_bruteforce": (
            teleport,
            "min_mean_trace_distance_bruteforce",
            None,
        ),
        "scan.sweep": (scan, "sweep", None),
        "scan.evaluate_detectors": (scan, "evaluate_detectors", None),
        "scan.estimate_qcp": (scan, "estimate_qcp", None),
        "scan.extrapolate_to_zero": (scan, "extrapolate_to_zero", None),
        "cli.write_sweep_csv": (cli, "write_sweep_csv", None),
    }


def reset_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
