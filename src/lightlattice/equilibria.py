"""Equilibrium search, stability classification, and design helpers.

Equilibria are roots of the per-scatterer force map. Every derivative of
the forces is exact: force_jacobian solves each mode's response to a moved
scatterer from the mode's two far-side sweeps, and design refinement takes
its slope in the second wavenumber the same way. Stability is judged from
the eigenvalues of the force Jacobian by ForceField.stability: all real
parts below -1e-9 is stable, any above +1e-9 unstable, otherwise marginal.
A field with no mode driven from both sides is invariant under rigid
translation (ForceField.translation_invariant), and its Jacobian is
projected onto the complement of the uniform shift before classification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import (
    InconsistentLinearization,
    NoConvergence,
    NoSolution,
    UnstableMode,
)
from .forcefield import ForceField, forces_batch
from .wavecore import Mode, ScattererChain, check_number

_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 80


@dataclass(frozen=True)
class EquilibriumReport:
    positions: tuple[float, ...]
    residual: float
    jacobian: np.ndarray
    eigenvalues: np.ndarray
    classification: str
    com_force: float
    translation_projected: bool
    iterations: int


def force_jacobian(chain: ScattererChain, modes: list[Mode]) -> np.ndarray:
    """Exact Jacobian dF_j/dx_k of the exact forces (ForceField.jacobian).

    It raises what forces_exact raises, or SingularBoundary when not finite.
    """
    return ForceField(chain, modes).jacobian()


def find_equilibrium(
    chain: ScattererChain,
    modes: list[Mode],
    relative_only: bool = False,
) -> EquilibriumReport:
    """Damped Newton search starting from the chain's positions.

    relative_only solves for the gaps with the first position held fixed,
    zeroing neighbour force differences instead of the forces themselves;
    use it for translation-invariant fields that drift as a whole. A field
    with a mode driven from both sides pins the chain, and relative_only
    raises ValueError naming that mode. The state is judged by
    ForceField.stability. Raises NoConvergence with the best iterate attached.
    """
    import numpy as np
    n = chain.n
    if n == 0:
        raise ValueError("cannot search an empty chain")
    x1 = chain.positions[0]

    if relative_only and n == 1:
        raise ValueError("relative_only needs at least two scatterers")

    def positions_from(u: np.ndarray) -> tuple[float, ...]:
        if not relative_only:
            return tuple(u)
        out = [x1]
        for g in u:
            out.append(out[-1] + g)
        return tuple(out)

    field = ForceField(chain, modes)
    if relative_only and not field.translation_invariant:
        label = next(c.label for c in field.constants if len(c.sides) > 1)
        raise ValueError(f"relative_only needs a translation-invariant field; "
                         f"mode {label!r} is driven from both sides")

    def residual_vec(u: np.ndarray) -> np.ndarray:
        f = field.forces(positions_from(u))[0]
        if relative_only:
            return np.array([f[j + 1] - f[j] for j in range(n - 1)])
        return np.array(f)

    if relative_only:
        u = np.array(chain.gaps())
    else:
        u = np.array(chain.positions)

    def ordered(u_try: np.ndarray) -> bool:
        pos = positions_from(u_try)
        return all(pos[j + 1] - pos[j] > 1e-6 for j in range(n - 1))

    r = residual_vec(u)
    # a step is taken only when it lowers the merit, so the iterate is always the best one
    merit = float(np.max(np.abs(r))) if r.size else 0.0
    iterations = 0
    while merit >= _NEWTON_TOL:
        if iterations >= _NEWTON_MAX_ITER:
            raise NoConvergence(
                f"no convergence below {_NEWTON_TOL:g} in {_NEWTON_MAX_ITER} iterations "
                f"(best sup-residual {merit:.3e})",
                best_positions=positions_from(u),
                best_residual=merit,
            )
        iterations += 1
        jac = field.jacobian(positions_from(u))
        if relative_only:
            # gap j moves scatterer j and every scatterer to its right
            jac = np.diff(jac, axis=0)[:, 1:] @ np.tril(np.ones((n - 1, n - 1)))
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(jac, -r, rcond=None)[0]
        lam = 1.0
        accepted = False
        for _ in range(10):
            u_try = u + lam * step
            if ordered(u_try):
                r_try = residual_vec(u_try)
                merit_try = float(np.max(np.abs(r_try)))
                if merit_try < merit * (1.0 - 1e-4 * lam) or merit_try < _NEWTON_TOL:
                    u, r, merit = u_try, r_try, merit_try
                    accepted = True
                    break
            lam *= 0.5
        if not accepted:
            raise NoConvergence(
                f"Newton stalled at sup-residual {merit:.3e} after {iterations} iterations",
                best_positions=positions_from(u),
                best_residual=merit,
            )

    positions = positions_from(u)
    com_force = sum(field.forces(positions)[0]) / n
    jac_full, eigs, classification = field.stability(positions)
    return EquilibriumReport(
        positions=positions,
        residual=merit,
        jacobian=jac_full,
        eigenvalues=eigs,
        classification=classification,
        com_force=com_force,
        translation_projected=field.translation_invariant,
        iterations=iterations,
    )


def pair_stationary_distances(k: float, n_max: int) -> list[tuple[float, str]]:
    """Stationary pair separations d = (2n+1) pi / (4k), n = 0..n_max.

    Odd n are stable, even n unstable (small-zeta symmetric drive).
    """
    check_number("k", k, positive=True)
    check_number("n_max", n_max, minimum=0, kind=int)
    out = []
    for n in range(n_max + 1):
        d = (2 * n + 1) * math.pi / (4.0 * k)
        out.append((d, "stable" if n % 2 == 1 else "unstable"))
    return out


@dataclass(frozen=True)
class DesignRatios:
    p1: float
    p2: float
    p1_physical: bool
    p2_physical: bool


def design_intensity_ratio(d: float, k_y: float, k_z: float, zeta: float) -> DesignRatios:
    """Intensity ratios p = I_z/I_y that zero F1 (p1) or F2 (p2) at distance d.

    Small-zeta closed forms; each force is linear in p so the ratio is exact
    within the approximation. Non-physical values (negative, infinite or NaN,
    as when a square overflows, k_z is 0 or a phase is infinite) are
    returned flagged, never raised.
    """
    try:
        cy2 = math.cos(d * k_y) ** 2
        cz2 = math.cos(d * k_z) ** 2
        shared = (k_y ** 2 + 4.0 * k_z ** 2 * zeta ** 2 * cz2) / (
            k_z ** 2 * (1.0 + 4.0 * zeta ** 2 * cy2)
        )
    except (ArithmeticError, ValueError):
        # math.cos raises ValueError at an infinite phase, float ** 2
        # OverflowError past the largest double, and k_z = 0 ZeroDivisionError
        return DesignRatios(math.nan, math.nan, False, False)
    p1 = (4.0 * cy2 - 1.0) * shared
    den2 = 4.0 * cz2 - 1.0
    p2 = shared / den2 if den2 != 0.0 else math.inf
    return DesignRatios(
        p1=p1,
        p2=p2,
        p1_physical=math.isfinite(p1) and p1 > 0.0,
        p2_physical=math.isfinite(p2) and p2 > 0.0,
    )


@dataclass(frozen=True)
class DesignCandidate:
    k_z: float
    p: float
    p1: float
    p2: float
    physical: bool
    residual_f1: float
    residual_f2: float
    stability: str
    refined: bool


def _pair_design(
    d: float, k_y: float, k_z: float, zeta: float, p: float, i_y: float
) -> tuple[ScattererChain, list[Mode]]:
    # the pair at (0, d), beam y from the left and beam z = p * y from the right
    chain = ScattererChain((0.0, d), zeta)
    return chain, [Mode("y", k_y, drive_left=math.sqrt(2.0 * i_y), zeta_scale=1.0),
                   _beam_z(k_y, k_z, p, i_y)]


def _beam_z(k_y: float, k_z: float, p: float, i_y: float) -> Mode:
    # _pair_design's beam z, of intensity p * i_y, alone
    return Mode("z", k_z, drive_right=math.sqrt(2.0 * abs(p * i_y)), zeta_scale=k_z / k_y)


def design_wavenumber(
    d: float,
    k_y: float,
    zeta: float = 0.0,
    band: tuple[float, float] | None = None,
    i_y: float = 1.0,
    refine: bool = True,
) -> list[DesignCandidate]:
    """Wavenumbers k_z at which both pair forces can vanish at distance d.

    The balance condition (2cos(2dk_y)+1)(2cos(2dk_z)+1) = 1 fixes the
    admissible cos^2(dk_z); all branches inside the band are enumerated,
    each paired with its intensity ratio. With refine=True every candidate
    is polished against the exact forces (Newton in (p, k_z) at fixed d).
    Requires cos(2dk_y) >= -1/3; otherwise NoSolution carries the radicand.
    """
    check_number("d", d, positive=True)
    check_number("k_y", k_y, positive=True)
    check_number("zeta", zeta)
    check_number("i_y", i_y, minimum=0)
    if band is None:
        band = (1e-9, 4.0 * k_y)
    for edge in band:
        check_number("band", edge)
    if not band[0] < band[1]:
        raise ValueError(f"band {band} is not an increasing range")
    # the closed-form ratios square 2 zeta k_z for every k_z up to band[1]
    scale = 2.0 * abs(zeta) * max(band[1], 1.0)
    if not math.isfinite(scale * scale):
        raise ValueError(f"zeta must keep (2 zeta k_z)^2 finite for k_z up to {band[1]!r}, "
                         f"got {zeta!r}")
    c2 = math.cos(2.0 * d * k_y)
    lead = 1.0 + 2.0 * c2
    if lead <= 0.0:
        raise NoSolution(
            f"cos(2 d k_y) = {c2:.6g} leaves no real balance point", radicand=lead
        )
    s2 = (1.0 + c2) / (2.0 * lead)
    if s2 > 1.0 + 1e-12:
        raise NoSolution(
            f"squared cosine {s2:.6g} exceeds 1", radicand=s2
        )
    s = math.sqrt(min(s2, 1.0))
    thetas = set()
    base = [math.acos(min(1.0, s)), math.acos(max(-1.0, -s))]
    n = 0
    # every branch b + n pi with b in [0, pi] lies at or above n pi
    while n * math.pi / d <= band[1]:
        for b in base:
            th = b + n * math.pi
            if th > 0 and th / d <= band[1]:
                thetas.add(round(th, 12))
        n += 1
    candidates = []
    for th in sorted(thetas):
        k_z = th / d
        if not (band[0] <= k_z <= band[1]) or k_z < 1e-9:
            continue
        ratios = design_intensity_ratio(d, k_y, k_z, zeta)
        p = ratios.p1
        refined = False
        if refine:
            p, k_z, refined = _refine_design(d, k_y, k_z, zeta, p, i_y, band)
        field = ForceField(*_pair_design(d, k_y, k_z, zeta, p, i_y))
        f1, f2 = field.forces()[0]
        stab = field.stability()[2]
        candidates.append(
            DesignCandidate(
                k_z=k_z,
                p=p,
                p1=ratios.p1,
                p2=ratios.p2,
                physical=ratios.p1_physical and ratios.p2_physical,
                residual_f1=abs(f1),
                residual_f2=abs(f2),
                stability=stab,
                refined=refined,
            )
        )
    return candidates


def _refine_design(d, k_y, k_z0, zeta, p0, i_y, band):
    # Newton in (p, k_z) on the exact pair forces at fixed d. y's forces are
    # solved once; each iterate is one tangent pass of z alone, for its forces
    # and their exact slope in k_z (y's is 0). The root is taken once the
    # forces are below 1e-13 i_y and Newton's step, relative to (p, k_z), is a
    # few ulp or no longer halves: the forces' round-off then moves the
    # iterate as much as the step does.
    p, k_z = p0, k_z0
    last = math.inf

    def wavenumber(const, x, z, a, b):
        # the z mode reads k_z through k x and z = zeta k_z / k_y, so d/dk_z is
        # (x / k) d/dx, the jump of a shift times x / k, plus (z / k) d/dz, whose
        # jump is dS/dz (A, B) = i (A + B) (1, -1) times z / k
        if const.label != "z":
            return 0j, 0j
        s = 1j * z / const.k * (a + b)
        return 2.0 * z * x * b + s, 2.0 * z * x * a - s

    chain, (y, _) = _pair_design(d, k_y, k_z, zeta, p, i_y)
    ((y1, y2),), _ = ForceField(chain, [y]).tangent(wavenumber)
    for _ in range(25):
        ((z1, z2),), slopes = ForceField(chain, [_beam_z(k_y, k_z, p, i_y)]).tangent(wavenumber)
        f1, f2 = y1 + z1, y2 + z2
        k1, k2 = map(sum, slopes.tolist())
        # Newton step in (p, k_z); the z force is linear in p, so z / p is its slope
        det = z1 * k2 - k1 * z2
        if det == 0.0:
            return p0, k_z0, False
        d_p, d_k = p * (k1 * f2 - k2 * f1) / det, (z2 * f1 - z1 * f2) / det
        size = max(abs(d_p / p), abs(d_k / k_z))
        if max(abs(f1), abs(f2)) < 1e-13 * i_y and (size <= 4 * math.ulp(1.0) or size > last / 2):
            return p, k_z, True
        last = size
        p_new = p + d_p
        k_new = k_z + d_k
        if p_new <= 0 or not (band[0] <= k_new <= band[1]):
            return p0, k_z0, False
        p, k_z = p_new, k_new
    return p0, k_z0, False


@dataclass(frozen=True)
class LinearizedModel:
    """Two-splitter lattice linearization: spring K, couplings, drive.

    Displacement equations (mass m, Delta = dx2 - dx1):

        m ddx1 = -K dx1 + kappa1 (dx2 - dx1) + F_ext
        m ddx2 = -K dx2 - kappa2 (dx2 - dx1) + F_ext
    """

    k_spring: float
    kappa1: float
    kappa2: float
    f_ext: float
    mass: float
    constants: dict = field(default_factory=dict)
    identities: dict = field(default_factory=dict)


def linearize_pair_in_lattice(scenario, mass: float = 1.0) -> LinearizedModel:
    """Expand the pair forces to first order about the lattice equilibrium.

    The scenario must expose chain() at the lattice-only equilibrium plus
    lattice_modes() and perturbation_modes(). The lattice contribution is
    expanded in (dx1, Delta) for F1 and (dx2, Delta) for F2; the
    perturbation contribution depends on Delta alone (one-sided drive), its
    offset and slope become the external force and coupling corrections.
    Raises InconsistentLinearization when the constant lattice terms do not
    vanish, i.e. the scenario is not at its equilibrium.
    """
    check_number("mass", mass, positive=True)
    chain = scenario.chain()
    if chain.n != 2:
        raise ValueError("linearization is defined for exactly two scatterers")
    lat_modes = scenario.lattice_modes()
    pert_modes = scenario.perturbation_modes()

    # F1 in (dx1, Delta): dx1 moves both scatterers, Delta moves x2 alone;
    # F2 in (dx2, Delta): dx2 moves both, Delta moves x1 by -Delta
    lattice = ForceField(chain, lat_modes)
    a, u = lattice.forces()[0]
    (j11, j12), (j21, j22) = lattice.jacobian().tolist()
    b, c, v, w = j11 + j12, j12, j21 + j22, -j21
    if pert_modes:
        perturbation = ForceField(chain, pert_modes)
        k1p, k3p = perturbation.forces()[0]
        (_, k2p), (p21, _) = perturbation.jacobian().tolist()
        k4p = -p21
    else:
        k1p = k2p = k3p = k4p = 0.0

    i_total = sum(
        (abs(m.drive_left) ** 2 + abs(m.drive_right) ** 2) / 2.0 for m in lat_modes
    )
    tol = max(1e-8 * i_total, 1e-10)
    if abs(a) > tol or abs(u) > tol:
        raise InconsistentLinearization(
            f"constant lattice forces a={a:.3e}, u={u:.3e} exceed {tol:.1e}; "
            "the scenario is not at its lattice equilibrium"
        )

    k_spring = -b
    kappa1 = k2p + c
    kappa2 = -(k4p + w)
    f_ext = k1p
    constants = {
        "a": a, "b": b, "c": c, "u": u, "v": v, "w": w,
        "k1p": k1p, "k2p": k2p, "k3p": k3p, "k4p": k4p,
    }
    identities = {
        "a": a,
        "u": u,
        "b_minus_v": b - v,
        "c_minus_w": c - w,
        "c_plus_w": c + w,
        "k1p_minus_k3p": k1p - k3p,
        "tolerance": tol,
    }
    return LinearizedModel(
        k_spring=k_spring,
        kappa1=kappa1,
        kappa2=kappa2,
        f_ext=f_ext,
        mass=mass,
        constants=constants,
        identities=identities,
    )


@dataclass(frozen=True)
class NormalModes:
    omega1: float
    omega2: float
    vector1: tuple[float, float]
    vector2: tuple[float, float]
    offset: float


def normal_modes(model: LinearizedModel) -> NormalModes:
    """Mode frequencies and shapes of the linearized pair.

    The symmetric mode (1, 1) oscillates at sqrt(K/m) about the common
    offset F_ext/K; the counter-mode (-kappa1/kappa2, 1) at
    sqrt((K + kappa1 + kappa2)/m). Raises UnstableMode when a squared
    frequency is non-positive.
    """
    if model.k_spring <= 0:
        mag = math.sqrt(max(-model.k_spring, 0.0) / model.mass)
        raise UnstableMode(
            f"symmetric mode frequency squared is {model.k_spring / model.mass:.3e}",
            imaginary_magnitude=mag,
        )
    arg = model.k_spring + model.kappa1 + model.kappa2
    if arg <= 0:
        mag = math.sqrt(max(-arg, 0.0) / model.mass)
        raise UnstableMode(
            f"counter-mode frequency squared is {arg / model.mass:.3e}",
            imaginary_magnitude=mag,
        )
    if model.kappa2 == 0:
        raise ValueError("counter-mode shape undefined at kappa2 = 0")
    return NormalModes(
        omega1=math.sqrt(model.k_spring / model.mass),
        omega2=math.sqrt(arg / model.mass),
        vector1=(1.0, 1.0),
        vector2=(-model.kappa1 / model.kappa2, 1.0),
        offset=model.f_ext / model.k_spring,
    )


@dataclass(frozen=True)
class ZeroForceGrid:
    d1: np.ndarray
    d2: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    f3: np.ndarray


def zero_force_grid(
    chain_template: ScattererChain,
    modes: list[Mode],
    d1_values,
    d2_values,
) -> ZeroForceGrid:
    """Forces on a three-scatterer chain over a (d1, d2) separation grid."""
    import numpy as np
    if chain_template.n != 3:
        raise ValueError("grid is defined for three scatterers")
    x1 = chain_template.positions[0]
    d1_arr = np.asarray(list(d1_values), dtype=float)
    d2_arr = np.asarray(list(d2_values), dtype=float)
    x2 = x1 + d1_arr[:, None]
    pos = np.stack(np.broadcast_arrays(x1, x2, x2 + d2_arr), axis=-1)
    f = forces_batch(chain_template, modes, pos.reshape(-1, 3)).reshape(pos.shape)
    f1, f2, f3 = np.moveaxis(f, -1, 0)
    return ZeroForceGrid(d1=d1_arr, d2=d2_arr, f1=f1, f2=f2, f3=f3)
