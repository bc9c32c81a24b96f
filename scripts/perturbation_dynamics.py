"""Run the canned perturbation-response scenarios and summarize them.

resonant_transfer: a three-scatterer lattice with a weak near-resonant
one-sided drive, the far scatterer kicked off equilibrium. The kinetic
energy arriving at scatterer 1 is compared against an undriven baseline
relaxed at its own equilibrium and kicked the same way. The drive
raises the delivered energy by roughly three orders of magnitude.

correlated_oscillation: scatterers pinned at 0.23 of the perturbation
wavelength. These positions are far from the lattice equilibrium
spacing, so released from rest the chain buckles within one damping
time; the run is kept because the partial trajectory and the failure
mode are themselves informative. See the force pattern script for the
static counterphase signature at the same spacing.
"""

import sys

from lightlattice import (
    SeparationViolation,
    build_perturbation_scenarios,
    evolve,
    scenario_from_document,
)


def run(kind: str, scale: float):
    doc = build_perturbation_scenarios(kind, i_p_scale=scale)
    scenario = scenario_from_document(doc, name=kind)
    traj = evolve(
        scenario.chain,
        scenario.mode_list(),
        scenario.dynamics,
        capture_every=scenario.capture_every,
    )
    return traj


def ke_sum(traj, j: int) -> float:
    return sum(v[j] ** 2 for v in traj.velocities)


def main() -> int:
    traj_on = run("resonant_transfer", 1.0)
    traj_off = run("resonant_transfer", 0.0)
    ke_on = ke_sum(traj_on, 0)
    ke_off = ke_sum(traj_off, 0)
    print("resonant_transfer")
    print(f"  scatterer-1 kinetic energy, drive on : {ke_on:.4e}")
    print(f"  scatterer-1 kinetic energy, drive off: {ke_off:.4e}")
    print(f"  ratio: {ke_on / ke_off:.0f}x")
    print()
    print("correlated_oscillation")
    try:
        traj = run("correlated_oscillation", 1.0)
    except SeparationViolation as exc:
        print(f"  chain buckled at {exc}")
        n = exc.trajectory.n_snapshots
        print(f"  partial trajectory kept {n} snapshots before the collision")
    else:
        print(f"  survived to t = {traj.times[-1]:.0f} ({traj.n_snapshots} snapshots)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
