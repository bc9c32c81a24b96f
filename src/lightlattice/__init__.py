"""Light fields, optical forces, and motion of polarizable scatterer chains.

A chain of thin scatterers in a 1D waveguide, driven by any number of
mutually incoherent modes, is solved with 2x2 transfer matrices. On top of
the field solver sit exact per-scatterer forces, equilibrium search and
stability analysis, overdamped and inertial dynamics, standing-wave
lattice builders with a linearized coupled-oscillator reduction, and a
scenario-driven command line that emits deterministic CSV/JSON artifacts.
"""

__version__ = "0.1.0"

import importlib

# each module and the public names it defines; a module loads on the first
# use of one of its names (or of the module itself), not with the package
_NAMES = {
    "wavecore": ("K_REF", "TransferMatrix", "Mode", "ScattererChain", "FieldSolution",
                 "beam_splitter_matrix", "propagation_matrix", "total_transfer_matrix",
                 "reflection_transmission", "solve_fields", "intensity_profile"),
    "forcefield": ("ForceProfile", "PairForceParams", "forces_exact", "pair_forces_approx",
                   "pair_zero_force_distances"),
    "dynamics": ("DynamicsParams", "Trajectory", "evolve", "com_velocity", "settle",
                 "SteadyState"),
    "equilibria": ("EquilibriumReport", "find_equilibrium", "pair_stationary_distances",
                   "design_intensity_ratio", "design_wavenumber", "DesignCandidate",
                   "LinearizedModel", "NormalModes", "linearize_pair_in_lattice",
                   "normal_modes", "zero_force_grid"),
    "lattice": ("LatticeScenario", "build_lattice", "lattice_constant", "pair_rt_closed_form",
                "stable_com_position"),
    "scenario": ("Scenario", "load_scenario", "scenario_from_document"),
    "errors": ("LightLatticeError", "NegativeDistance", "SingularBoundary", "NoSolution",
               "SeparationViolation", "NoConvergence", "InconsistentLinearization",
               "UnstableMode", "NoLattice", "NoTrap", "SingularDenominator", "ScenarioError"),
    "cli": ("preset_document",),
}
_HOME = {name: module for module, names in _NAMES.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name in _NAMES:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_NAMES, *__all__})
