"""Force pattern a weak drive imprints on a pinned scatterer lattice.

Pins scatterers at equal sub-half-wave gaps, adds a one-sided drive on
top of the balanced standing wave, and prints the per-scatterer force
from each mode. The drive contribution alternates in sign along the
chain, which is what later sets neighbouring scatterers oscillating in
counterphase.
"""

import argparse
import sys

from lightlattice import preset_document, scenario_from_document
from lightlattice.forcefield import forces_exact


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", type=float, default=1.0, help="drive intensity factor")
    args = ap.parse_args(argv)

    doc = preset_document("correlated_oscillation", i_p_scale=args.scale)
    scenario = scenario_from_document(doc, name="pinned-pattern")
    profile = forces_exact(scenario.chain, scenario.mode_list())

    labels = [m.label for m in scenario.mode_list()]
    print("splitter,x," + ",".join(f"f_{lab}" for lab in labels) + ",f_total")
    for j, x in enumerate(scenario.chain.positions):
        per_mode = ",".join(f"{profile.per_mode[lab][j]:+.6f}" for lab in labels)
        print(f"{j + 1},{x:.6f},{per_mode},{profile.total[j]:+.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
