"""Interaction-driven topological transitions in Heisenberg spin chains.

Berry curvature of the many-body ground state over the external-field
sphere, first Chern numbers by three independent routes (spectral sum,
sphere quadrature, lattice plaquettes), their dynamical measurement via
quasiadiabatic ramps, and the NMR-style Trotterized pulse realization
with a zz-coupling refocusing compiler.
"""

from ._version import __version__
from .errors import (
    DegenerateCouplings,
    DegenerateGroundState,
    DimensionCap,
    LengthMismatch,
    OutOfRange,
    SpinChernError,
    StepCountTooSmall,
    TooFewRows,
    UnphysicalDurations,
    VelocityOutOfLinearZone,
)
from .model import (
    ChainSpec,
    FieldPoint,
    MoleculeSpec,
    build_heisenberg,
    total_magnetization,
)
from .spectral import (
    CurvatureSample,
    PoleSystem,
    chern_integral,
    chern_lattice,
    curvature_spectral,
    find_crossings,
    ground_gap,
    pole_system,
)
from .quench import (
    QuenchProtocol,
    QuenchResult,
    evolve_quench,
    extract_curvature,
    linear_zone_scan,
    theta_of_t,
)
from .pulsesim import (
    CompiledZZ,
    Delay,
    PulseProgram,
    Rotation,
    SequenceReport,
    compile_zz,
    effective_uniform_coupling,
    perturbed_fidelity,
    program_from_json,
    program_to_json,
    simulate_program,
    simulate_protocol_trotter,
    to_pulse_program,
    toggled_zz_coefficients,
    trotter_step,
    verify_sequence,
    zz_target_propagator,
)
from .lab import (
    PlateauStats,
    SweepConfig,
    SweepRow,
    default_j_grid,
    detect_plateaus,
    deviation_report,
    export_results,
    import_results,
    run_sweep,
)
from .cli import cli_main

__all__ = [
    "__version__",
    # errors
    "SpinChernError",
    "DimensionCap",
    "DegenerateGroundState",
    "OutOfRange",
    "StepCountTooSmall",
    "DegenerateCouplings",
    "UnphysicalDurations",
    "TooFewRows",
    "LengthMismatch",
    "VelocityOutOfLinearZone",
    # model
    "ChainSpec",
    "FieldPoint",
    "MoleculeSpec",
    "build_heisenberg",
    "total_magnetization",
    # spectral topology
    "CurvatureSample",
    "PoleSystem",
    "curvature_spectral",
    "chern_integral",
    "chern_lattice",
    "find_crossings",
    "ground_gap",
    "pole_system",
    # quench dynamics
    "QuenchProtocol",
    "QuenchResult",
    "evolve_quench",
    "extract_curvature",
    "linear_zone_scan",
    "theta_of_t",
    # pulse realization
    "CompiledZZ",
    "PulseProgram",
    "Rotation",
    "Delay",
    "SequenceReport",
    "trotter_step",
    "simulate_protocol_trotter",
    "perturbed_fidelity",
    "compile_zz",
    "effective_uniform_coupling",
    "toggled_zz_coefficients",
    "to_pulse_program",
    "program_to_json",
    "program_from_json",
    "simulate_program",
    "verify_sequence",
    "zz_target_propagator",
    # sweeps and I/O
    "SweepConfig",
    "SweepRow",
    "PlateauStats",
    "run_sweep",
    "detect_plateaus",
    "deviation_report",
    "export_results",
    "import_results",
    "default_j_grid",
    "cli_main",
]
