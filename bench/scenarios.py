"""Seeded input generation for the three benchmark workloads.

Everything the program under test receives is built here from the
workload seed and nothing else, so the same seed always gives the same
documents (and the same scenario hashes). This module does not import
lightlattice: the inputs must not move when the program changes.

The jitter keeps the amount of work nearly constant across seeds, because
runs made with different seeds are compared with each other:

* pair-sweep keeps its intensity window centred on exactly 1.0 (the half
  width is a multiple of 1/256, so the middle grid value is exact). The
  symmetric middle cell therefore always stops early on force_tol, and
  the other eight cells always run their full 500 steps.
* long-chain jitters each position by at most 0.005 around the
  standing-wave lattice constant, which keeps the chain in the passband.
* analysis-maps starts its Newton searches at the lattice constant, where
  every tried seed converges in 5 or 6 iterations.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("pair-sweep", "long-chain", "analysis-maps")

# closed-form standing-wave lattice constant (symmetric drive, k = K_REF),
# in reference wavelengths; about 0.4968 at zeta = 0.01
ZETA_CHAIN = 0.01
D_SW = 0.5 * (1.0 - math.acos((1.0 - ZETA_CHAIN ** 2) / (1.0 + ZETA_CHAIN ** 2)) / math.pi)

LONG_CHAIN_N = 200
LONG_CHAIN_STEPS = 60
SWEEP_STEPS = 500
ZEROLINES_STEPS = 81
DESIGN_STEPS = 41


def _counter_modes(intensity_right: float = 1.0) -> list[dict]:
    return [
        {"label": "y", "k": 1.0, "intensity_left": 1.0},
        {"label": "z", "k": 1.0, "intensity_right": intensity_right},
    ]


def _pair_sweep(rng: random.Random) -> dict:
    # scripts/scenarios/intensity_sweep.json at a tenth of its t_end, with
    # the gap and the window width jittered: 9 cells of 500 overdamped RK4
    # steps at N = 2
    gap = 0.47 + rng.uniform(-0.005, 0.005)
    half = rng.randint(49, 53) / 256.0
    doc = {
        "version": "1",
        "units": {"lambda_ref": 1.0},
        "chain": {"zeta": [ZETA_CHAIN, 0.0], "positions": [0.0, gap]},
        "modes": _counter_modes(),
        "dynamics": {
            "regime": "overdamped",
            "friction": 1.0,
            "dt": 10.0,
            "t_end": 10.0 * SWEEP_STEPS,
            "force_tol": 1e-9,
        },
        "sweep": {
            "axes": [
                {
                    "path": "modes.z.intensity_right",
                    "start": 1.0 - half,
                    "stop": 1.0 + half,
                    "steps": 9,
                }
            ]
        },
        "output": {"format": "csv", "prefix": "intensity_sweep"},
    }
    return {"sweep": doc}


def _long_chain(rng: random.Random) -> dict:
    positions = [
        j * D_SW + rng.uniform(-0.005, 0.005) for j in range(LONG_CHAIN_N)
    ]
    doc = {
        "version": "1",
        "units": {"lambda_ref": 1.0},
        "chain": {"zeta": [ZETA_CHAIN, 0.0], "positions": positions},
        "modes": _counter_modes(),
        "dynamics": {
            "regime": "newtonian",
            "mass": 1.0,
            "friction": 0.05,
            "dt": 0.5,
            "t_end": 0.5 * LONG_CHAIN_STEPS,
        },
        "output": {"format": "both", "prefix": "long_chain", "capture_every": 1},
    }
    return {"evolve": doc}


def _equilibrium_chain(rng: random.Random, n: int, intensity_right: float) -> dict:
    positions = [j * D_SW + rng.uniform(-0.003, 0.003) for j in range(n)]
    return {
        "version": "1",
        "chain": {"zeta": [ZETA_CHAIN, 0.0], "positions": positions},
        "modes": _counter_modes(intensity_right),
    }


def _analysis_maps(rng: random.Random) -> dict:
    x1 = rng.uniform(-0.01, 0.01)
    triple = {
        "version": "1",
        "chain": {"zeta": [0.05, 0.0], "positions": [x1, x1 + 0.3, x1 + 0.6]},
        "modes": _counter_modes(1.0 + rng.uniform(-0.05, 0.05)),
        "output": {"format": "csv", "prefix": "triple"},
    }
    pair = {
        "version": "1",
        "chain": {
            "zeta": [ZETA_CHAIN, 0.0],
            "positions": [x1, x1 + 0.36 + rng.uniform(-0.005, 0.005)],
        },
        "modes": _counter_modes(1.0 + rng.uniform(-0.05, 0.05)),
        "output": {"format": "both", "prefix": "pair"},
    }
    driven_pair = {
        "version": "1",
        "chain": {"zeta": [0.1, 0.0], "positions": [0.0, 0.468]},
        "modes": [
            {"label": "sw", "k": 1.0, "intensity_left": 1.0, "intensity_right": 1.0},
            {
                "label": "p",
                "k": 1.0 / 0.99,
                "intensity_left": 0.5 + rng.uniform(-0.02, 0.02),
                "zeta_override": [0.1, 0.0],
            },
        ],
        "output": {"format": "both", "prefix": "pairmodes"},
    }
    return {
        "zerolines": triple,
        "pair": pair,
        "modes": driven_pair,
        "drifting10": _equilibrium_chain(rng, 10, 1.3),
        "symmetric30": _equilibrium_chain(rng, 30, 1.0),
    }


def design_args(seed: int) -> list[str]:
    """Arguments of the `design` step; the CLI hashes them itself."""
    rng = random.Random(f"design-{seed}")
    d_min = 0.05 + rng.uniform(0.0, 0.004)
    d_max = 0.45 - rng.uniform(0.0, 0.004)
    return [
        "--steps", str(DESIGN_STEPS), "--zeta", repr(ZETA_CHAIN),
        "--d-min", repr(d_min), "--d-max", repr(d_max),
    ]


_BUILDERS = {
    "pair-sweep": _pair_sweep,
    "long-chain": _long_chain,
    "analysis-maps": _analysis_maps,
}


def documents(workload: str, seed: int) -> dict[str, dict]:
    """Scenario documents of one workload, keyed by their role."""
    return _BUILDERS[workload](random.Random(f"{workload}-{seed}"))
