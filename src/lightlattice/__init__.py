"""Light fields, optical forces, and motion of polarizable scatterer chains.

A chain of thin scatterers in a 1D waveguide, driven by any number of
mutually incoherent modes, is solved with 2x2 transfer matrices. On top of
the field solver sit exact per-scatterer forces, equilibrium search and
stability analysis, overdamped and inertial dynamics, standing-wave
lattice builders with a linearized coupled-oscillator reduction, and a
scenario-driven command line that emits deterministic CSV/JSON artifacts.
"""

__version__ = "0.1.0"

from .dynamics import DynamicsParams, SteadyState, Trajectory, com_velocity, evolve, settle
from .equilibria import (
    DesignCandidate,
    EquilibriumReport,
    LinearizedModel,
    NormalModes,
    design_intensity_ratio,
    design_wavenumber,
    find_equilibrium,
    linearize_pair_in_lattice,
    normal_modes,
    pair_stationary_distances,
    zero_force_grid,
)
from .errors import (
    InconsistentLinearization,
    LightLatticeError,
    NegativeDistance,
    NoConvergence,
    NoLattice,
    NoSolution,
    NoTrap,
    ScenarioError,
    SeparationViolation,
    SingularBoundary,
    SingularDenominator,
    UnstableMode,
)
from .forcefield import (
    ForceProfile,
    PairForceParams,
    forces_exact,
    pair_forces_approx,
    pair_zero_force_distances,
)
from .lattice import (
    LatticeScenario,
    build_lattice,
    build_perturbation_scenarios,
    lattice_constant,
    pair_rt_closed_form,
    stable_com_position,
)
from .scenario import Scenario, load_scenario, scenario_from_document
from .wavecore import (
    K_REF,
    FieldSolution,
    Mode,
    ScattererChain,
    TransferMatrix,
    beam_splitter_matrix,
    intensity_profile,
    propagation_matrix,
    reflection_transmission,
    solve_fields,
    total_transfer_matrix,
)

__all__ = [
    "__version__",
    "K_REF",
    "TransferMatrix",
    "Mode",
    "ScattererChain",
    "FieldSolution",
    "beam_splitter_matrix",
    "propagation_matrix",
    "total_transfer_matrix",
    "reflection_transmission",
    "solve_fields",
    "intensity_profile",
    "ForceProfile",
    "PairForceParams",
    "forces_exact",
    "pair_forces_approx",
    "pair_zero_force_distances",
    "DynamicsParams",
    "Trajectory",
    "evolve",
    "com_velocity",
    "settle",
    "SteadyState",
    "EquilibriumReport",
    "find_equilibrium",
    "pair_stationary_distances",
    "design_intensity_ratio",
    "design_wavenumber",
    "DesignCandidate",
    "LinearizedModel",
    "NormalModes",
    "linearize_pair_in_lattice",
    "normal_modes",
    "zero_force_grid",
    "LatticeScenario",
    "build_lattice",
    "build_perturbation_scenarios",
    "lattice_constant",
    "pair_rt_closed_form",
    "stable_com_position",
    "Scenario",
    "load_scenario",
    "scenario_from_document",
    "LightLatticeError",
    "NegativeDistance",
    "SingularBoundary",
    "NoSolution",
    "SeparationViolation",
    "NoConvergence",
    "InconsistentLinearization",
    "UnstableMode",
    "NoLattice",
    "NoTrap",
    "SingularDenominator",
    "ScenarioError",
]
