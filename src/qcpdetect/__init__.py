"""Quantum-information detectors of quantum critical points in spin chains.

Five detectors computed on the thermal two-site reduced state of a spin-1/2
chain: quantum discord, the coherence entropy and log-coherence spectrum of
the quantum coherence witness (per measurement axis, with divergence flags),
and the best-case external / worst-case internal teleportation figures of
merit.  Sweeping them along a control parameter and differentiating locates
quantum critical points from finite-temperature data.
"""

from types import ModuleType as _ModuleType

from .coherence import (
    AXES,
    EPS_DIVERGENCE,
    DetectorValue,
    SpectrumEigenvalues,
    coherence_entropy,
    log_spectrum,
    qc_scalar,
    spectrum_eigenvalues,
    spectrum_eigenvalues_oracle,
)
from .discord import (
    DiscordResult,
    entropy_pair,
    entropy_single,
    quantum_discord,
    s_tilde,
)
from .models import (
    FAMILIES,
    ModelSpec,
    ThermalSolution,
    build_hamiltonian,
    diagonalize,
    thermal_correlators,
    xxz_delta1,
    xxz_delta2,
    xy_thermo_correlators,
)
from .scan import (
    AXIS_FIELDS,
    NUMERIC_COLUMNS,
    QcpEstimate,
    SweepResult,
    ZeroTemperatureExtrapolation,
    derivative,
    estimate_qcp,
    evaluate_detectors,
    extrapolate_to_zero,
    sweep,
)
from .teleport import (
    BELL_LABELS,
    CORRECTION_SETS,
    InputQubit,
    MaxMeanFidelity,
    MinMeanTraceDistance,
    OutcomeImpossibleError,
    SimulationResult,
    bell_projector,
    bob_output,
    max_mean_fidelity,
    max_mean_fidelity_bruteforce,
    mean_fidelity,
    min_mean_trace_distance,
    min_mean_trace_distance_bruteforce,
    outcome_probability,
    simulate_protocol,
    trace_distance,
)
from .xstate import (
    Correlators,
    PhysicalityError,
    XState,
    build_xstate,
    dense_matrix,
    make_xstate,
    reduced_single,
    sample_product_xstate,
    sample_random_xstate,
)

__version__ = "0.1.0"

# The import block above is the public API: every name it binds that does not
# start with "_", without the submodules the imports bind as well.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
