"""Standing-wave lattices of scatterer pairs and their perturbation drives.

A lattice scenario is a chain held by one standing-wave mode (left and
right drives of intensities i_l, i_r at wavenumber k) plus an optional
one-sided perturbation mode at k_p. The closed forms below give the
asymmetry-dependent lattice constant, the pair reflection/transmission,
and the trapped center-of-mass position; build_lattice polishes the closed-form
seeds against the exact forces.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

from .errors import NoConvergence, NoLattice, NoTrap, SingularDenominator
from .wavecore import K_REF, Mode, ScattererChain, check_number


def lattice_constant(zeta: float, asymmetry: float, k: float = K_REF) -> float:
    """Equilibrium pair spacing in the asymmetric standing wave.

    asymmetry A = (i_l - i_r)/sqrt(i_l i_r); valid while zeta^2 A^2 <= 4,
    beyond that the pair cannot balance and NoLattice is raised, as it is
    for a spacing that rounds to 0 (|zeta| of 1e8 and more at A = 0). At
    A = 0 the spacing approaches lambda/2 from below as zeta -> 0.
    """
    check_number("zeta", zeta)
    check_number("asymmetry", asymmetry)
    check_number("k", k, positive=True)
    z2 = zeta * zeta
    a2 = asymmetry * asymmetry
    rad = 4.0 - z2 * a2
    if rad < -1e-12:
        raise NoLattice(
            f"zeta^2 A^2 = {z2 * a2:.6g} exceeds 4; no balanced spacing exists"
        )
    rad = max(rad, 0.0)
    arg = (-z2 * math.sqrt(4.0 + a2) + math.sqrt(rad)) / (2.0 * (1.0 + z2))
    arg = min(1.0, max(-1.0, arg))
    lam = 2.0 * math.pi / k
    spacing = 0.5 * lam * (1.0 - math.acos(arg) / math.pi)
    if not spacing > 0.0:
        raise NoLattice(f"the balanced spacing at zeta = {zeta!r} is {spacing!r}, not positive")
    return spacing


def pair_rt_closed_form(d: float, k: float, zeta: float) -> tuple[complex, complex]:
    """Reflection and transmission of a two-splitter stack at spacing d."""
    e2 = cmath.exp(2j * k * d)
    den = zeta * zeta * (e2 - 1.0) - 2j * zeta + 1.0
    if abs(den) < 1e-14:
        raise SingularDenominator(
            f"pair response denominator vanished at d={d:.6g}, zeta={zeta}"
        )
    t = cmath.exp(1j * k * d) / den
    r = -zeta * ((zeta - 1j) * e2 - zeta - 1j) / den
    return r, t


def stable_com_position(
    i_l: float,
    i_r: float,
    r: complex,
    t: complex,
    k: float = K_REF,
) -> float:
    """Trapped center position of the pair in the asymmetric standing wave.

    Exact for i_l = i_r; for asymmetric drives it is a seed the equilibrium
    polish tightens. Raises NoTrap when the interference term vanishes or
    the argument leaves the arccos domain; a NaN or infinite argument
    gives NaN.
    """
    if i_l <= 0 or i_r <= 0:
        raise NoTrap("both drives must be positive to form a trap")
    if not all(map(cmath.isfinite, (i_l, i_r, r, t, k))):
        return math.nan
    imrt = (r * t.conjugate()).imag
    if imrt == 0.0:
        raise NoTrap("Im(r t*) = 0: no position dependence to trap on")
    arg = _trap_cosine(i_l, i_r, r, t, imrt)
    if abs(arg) > 1.0 + 1e-12:
        raise NoTrap(f"arccos argument {arg:.6g} outside [-1, 1]")
    return _com_seed(i_l, i_r, r, t, k)


@dataclass(frozen=True)
class LatticeScenario:
    """A relaxed lattice chain plus its drive parameters."""

    i_l: float
    i_r: float
    k: float
    zeta: float
    positions: tuple[float, ...]
    asymmetry: float
    d_sw: float
    x0: float
    i_p: float = 0.0
    k_p: float | None = None
    zeta_p: float | None = None

    def chain(self) -> ScattererChain:
        return ScattererChain(self.positions, self.zeta)

    def lattice_modes(self) -> list[Mode]:
        return [
            Mode(
                "sw",
                self.k,
                drive_left=math.sqrt(2.0 * self.i_l),
                drive_right=math.sqrt(2.0 * self.i_r),
                zeta_scale=1.0,
            )
        ]

    def perturbation_modes(self) -> list[Mode]:
        if self.i_p == 0.0 or self.k_p is None:
            return []
        return [
            Mode(
                "p",
                self.k_p,
                drive_left=math.sqrt(2.0 * self.i_p),
                zeta_override=self.zeta_p,
            )
        ]

    def modes(self) -> list[Mode]:
        return self.lattice_modes() + self.perturbation_modes()

    def with_positions(self, positions) -> "LatticeScenario":
        return replace(self, positions=tuple(float(x) for x in positions))


def _trap_cosine(i_l, i_r, r, t, imrt) -> float:
    return (i_r - i_l) * (1.0 + abs(r) ** 2 - abs(t) ** 2) / (
        2.0 * abs(imrt) * math.sqrt(i_l * i_r)
    )


def _com_seed(i_l, i_r, r, t, k) -> float:
    # the trap-position form with the arccos argument clamped, so it seeds
    # the polish also far from symmetric drives, where the argument can
    # leave [-1, 1] although a trap exists
    imrt = (r * t.conjugate()).imag
    if imrt == 0.0:
        return 0.25 * math.pi / k
    arg = min(1.0, max(-1.0, _trap_cosine(i_l, i_r, r, t, imrt)))
    u = 1.0 if imrt > 0 else -1.0
    return (math.acos(arg) - 0.5 * math.pi * u) / (2.0 * k)


def _default_zeta_p(zeta: float, k: float, k_p: float) -> float:
    # lattice convention: the perturbation coupling is referred to the
    # lattice wavenumber, zeta_p = (k/k_p) zeta
    return zeta * k / k_p


def build_lattice(
    n: int,
    i_l: float,
    i_r: float,
    zeta: float,
    k: float = K_REF,
    i_p: float = 0.0,
    k_p: float | None = None,
    zeta_p: float | None = None,
) -> LatticeScenario:
    """Build an n-scatterer lattice at its standing-wave equilibrium.

    Seeds the chain equidistantly at the closed-form spacing around the
    closed-form trap center, then polishes with the exact forces (the trap
    position form is only exact for symmetric drives, and chains longer
    than a pair relax to slightly compressed interior gaps). Newton takes
    that seed and three more a quarter wavelength apart in turn; the first
    stable root is the lattice, and NoLattice, naming each seed's outcome,
    is raised when none gives one. i_p, k_p attach a one-sided perturbation
    drive; its coupling defaults to the wavenumber-scaled lattice coupling.
    """
    from .equilibria import find_equilibrium
    check_number("n", n, minimum=2, kind=int)
    for name, value in (("i_l", i_l), ("i_r", i_r), ("k", k)):
        check_number(name, value, positive=True)
    if k_p is not None:
        check_number("k_p", k_p, positive=True)
    check_number("zeta", zeta)
    check_number("i_p", i_p, minimum=0)
    if zeta_p is not None:
        check_number("zeta_p", zeta_p, kind=complex)
    asym = (i_l - i_r) / math.sqrt(i_l * i_r)
    d_sw = lattice_constant(zeta, asym, k)
    r, t = pair_rt_closed_form(d_sw, k, zeta)
    x0 = _com_seed(i_l, i_r, r, t, k)
    seed = tuple(x0 + (j - 0.5 * (n - 1)) * d_sw for j in range(n))
    if k_p is not None and zeta_p is None:
        zeta_p = _default_zeta_p(zeta, k, k_p)
    scenario = LatticeScenario(
        i_l=i_l,
        i_r=i_r,
        k=k,
        zeta=zeta,
        positions=seed,
        asymmetry=asym,
        d_sw=d_sw,
        x0=x0,
        i_p=i_p,
        k_p=k_p,
        zeta_p=zeta_p,
    )
    modes = scenario.lattice_modes()
    lam = 2.0 * math.pi / k
    outcomes = []
    # the clamped seed can sit in the wrong basin near the existence edge;
    # walk the trap candidates half a period apart until a stable site holds
    for shift in (0.0, 0.25 * lam, 0.5 * lam, 0.75 * lam):
        chain = scenario.chain().with_positions(tuple(x + shift for x in seed))
        try:
            report = find_equilibrium(chain, modes)
        except NoConvergence:
            outcomes.append("no convergence")
            continue
        if report.classification == "stable":
            return scenario.with_positions(report.positions)
        outcomes.append(report.classification)
    raise NoLattice(f"no stable trap site; the four trap seeds gave: {', '.join(outcomes)}")

