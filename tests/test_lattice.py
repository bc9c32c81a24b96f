import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lightlattice import equilibria
from lightlattice.cli import preset_document, preset_names
from lightlattice.equilibria import find_equilibrium, pair_stationary_distances
from lightlattice.errors import NoConvergence, NoLattice, NoTrap, ScenarioError, SingularDenominator
from lightlattice.forcefield import PairForceParams, forces_exact
from lightlattice.lattice import (
    LatticeScenario,
    build_lattice,
    lattice_constant,
    pair_rt_closed_form,
    stable_com_position,
)
from lightlattice.scenario import scenario_from_document
from lightlattice.wavecore import K_REF, Mode, ScattererChain, reflection_transmission

D_SW_BALANCED = 0.4682744826  # zeta = 0.1, equal drives


def test_lattice_constant_balanced_value():
    assert lattice_constant(0.1, 0.0) == pytest.approx(D_SW_BALANCED, abs=1e-9)


@pytest.mark.parametrize("call, field", [
    (lambda: lattice_constant(math.nan, 0.0), "zeta"),
    (lambda: lattice_constant(0.1, math.inf), "asymmetry"),
    (lambda: lattice_constant(0.1, 0.0, k=0.0), "k"),
    (lambda: lattice_constant(0.1, 0.0, k=math.nan), "k"),
    (lambda: pair_stationary_distances(math.inf, 2), "k"),
    (lambda: pair_stationary_distances(-K_REF, 2), "k"),
    (lambda: PairForceParams(p=1.0, k_y=0.0, k_z=1.0, zeta=0.1), "k_y"),
    (lambda: PairForceParams(p=1.0, k_y=1.0, k_z=-1.0, zeta=0.1), "k_z"),
], ids=["nan-zeta", "inf-asymmetry", "zero-k", "nan-k", "inf-k", "negative-k",
        "zero-k_y", "negative-k_z"])
def test_closed_forms_refuse_a_bad_field_by_name(call, field):
    # each used to return finite garbage (0.0 spacings or distances) or leak
    # a ZeroDivisionError
    with pytest.raises(ValueError, match=rf"^{field} must be "):
        call()


def test_lattice_constant_weak_coupling_limit():
    # spacing approaches lambda/2 from below like zeta / pi
    assert lattice_constant(1e-6, 0.0) == pytest.approx(0.5, abs=1e-6)
    assert lattice_constant(1e-6, 0.0) < 0.5
    assert lattice_constant(0.0, 0.0) == pytest.approx(0.5, abs=1e-15)


def test_lattice_constant_shrinks_with_asymmetry():
    a_values = [0.0, 1.0, 5.0, 19.0]
    d_values = [lattice_constant(0.1, a) for a in a_values]
    assert all(b < a for a, b in zip(d_values, d_values[1:]))


@pytest.mark.parametrize("call", [
    lambda: lattice_constant(1e8, 0.0),
    lambda: lattice_constant(1e200, 0.0),
    lambda: build_lattice(2, 1.0, 1.0, 1e8),
], ids=["lattice_constant-1e8", "lattice_constant-1e200", "build_lattice-1e8"])
def test_a_spacing_that_rounds_to_zero_is_no_lattice(call):
    # the spacing was 0.0, and build_lattice raised a bare ValueError from
    # ScattererChain: positions not strictly increasing: 0.0 !< 0.0
    with pytest.raises(NoLattice, match=r"^the balanced spacing at zeta = \S+ is 0\.0, "
                                        r"not positive$"):
        call()


def test_lattice_constant_domain():
    with pytest.raises(NoLattice):
        lattice_constant(0.1, 21.0)  # zeta^2 A^2 > 4
    with pytest.raises(ValueError):
        lattice_constant(0.1 + 0.05j, 0.0)


@given(
    d=st.floats(min_value=0.05, max_value=0.95),
    zeta=st.floats(min_value=-0.3, max_value=0.3).filter(lambda z: abs(z) > 1e-4),
)
def test_pair_rt_closed_form_matches_transfer_matrix(d, zeta):
    chain = ScattererChain((0.0, d), zeta)
    r_tm, t_tm = reflection_transmission(chain, Mode("y", K_REF, zeta_scale=1.0))
    r_cf, t_cf = pair_rt_closed_form(d, K_REF, zeta)
    assert abs(r_cf - r_tm) < 1e-10
    assert abs(t_cf - t_tm) < 1e-10


def test_pair_rt_closed_form_absorbing():
    zeta = 1.0 / 12.0 + 1j / 150.0
    d = 0.3
    chain = ScattererChain((0.0, d), zeta)
    r_tm, t_tm = reflection_transmission(chain, Mode("y", K_REF, zeta_scale=1.0))
    r_cf, t_cf = pair_rt_closed_form(d, K_REF, zeta)
    assert abs(r_cf - r_tm) < 1e-10
    assert abs(t_cf - t_tm) < 1e-10
    assert abs(r_tm) ** 2 + abs(t_tm) ** 2 < 1.0


def test_pair_rt_singular_denominator():
    # zeta^2 exp(2ikd) = (zeta + i)^2 has a root on the line Im(zeta) = -1/2
    with pytest.raises(SingularDenominator):
        pair_rt_closed_form(0.25, K_REF, 0.5 - 0.5j)


def test_com_position_balanced_drive():
    r, t = pair_rt_closed_form(D_SW_BALANCED, K_REF, 0.1)
    x0 = stable_com_position(1.0, 1.0, r, t)
    # balanced drives make the closed form exact; the built lattice
    # confirms this elsewhere, here we pin the branch convention
    u = 1.0 if (r * t.conjugate()).imag > 0 else -1.0
    expected = (math.pi / 2.0 - (math.pi / 2.0) * u) / (2.0 * K_REF)
    assert x0 == pytest.approx(expected, abs=1e-12)


def test_com_position_rejects_untrappable_cases():
    with pytest.raises(NoTrap):
        stable_com_position(1.0, 1.0, 0.0j, 1.0 + 0.0j)  # no reflection
    r, t = pair_rt_closed_form(0.4, K_REF, 0.1)
    with pytest.raises(NoTrap):
        stable_com_position(400.0, 1.0, r, t)  # asymmetry beyond the trap
    with pytest.raises(NoTrap):
        stable_com_position(0.0, 1.0, r, t)


def test_build_lattice_balanced_is_equidistant_at_closed_form():
    scenario = build_lattice(4, 1.0, 1.0, 0.1)
    gaps = np.diff(scenario.positions)
    assert np.allclose(gaps, scenario.d_sw, atol=1e-9)
    assert scenario.d_sw == pytest.approx(D_SW_BALANCED, abs=1e-9)
    f = forces_exact(scenario.chain(), scenario.lattice_modes()).total
    assert max(abs(v) for v in f) < 1e-11


def test_build_lattice_asymmetric_matches_closed_form_spacing():
    scenario = build_lattice(4, 5.0 ** 0.5, 5.0 ** -0.5, 0.1)
    # intensities i_l/i_r chosen so (i_l - i_r)/sqrt(i_l i_r) = A
    a = (scenario.i_l - scenario.i_r) / math.sqrt(scenario.i_l * scenario.i_r)
    gaps = np.diff(scenario.positions)
    assert np.allclose(gaps, lattice_constant(0.1, a), atol=1e-9)


def test_build_lattice_moves_to_the_next_seed_when_newton_stalls(monkeypatch):
    # Newton stalls from the first trap seed with two scatterers 8e-5 apart,
    # and the next seed holds; build_lattice imports find_equilibrium from
    # equilibria when it runs, so the spy replaces it there
    newton = equilibria.find_equilibrium
    outcomes = []

    def spy(chain, modes):
        try:
            report = newton(chain, modes)
        except NoConvergence as exc:
            outcomes.append(exc)
            raise
        outcomes.append(report.classification)
        return report

    monkeypatch.setattr(equilibria, "find_equilibrium", spy)
    scenario = build_lattice(3, 5.0, 1.0, 0.3)
    assert len(outcomes) == 2 and isinstance(outcomes[0], NoConvergence)
    assert outcomes[1] == "stable"
    f = forces_exact(scenario.chain(), scenario.lattice_modes()).total
    assert max(abs(v) for v in f) < 1e-11
    assert scenario.positions == pytest.approx((0.1742287, 0.5648534, 0.9554780), abs=1e-7)


@pytest.mark.parametrize(
    "args, outcome",
    [
        # every trap seed polishes to an unstable chain; for (5, 10, 1, 0.5)
        # it is equidistant at d_sw = 0.2844 with max Re lambda = +4.6
        ((3, 15.0, 1.0, 0.5), "unstable"),
        ((5, 10.0, 1.0, 0.5), "unstable"),
        # zeta = 0 leaves every seed force-free
        ((2, 1.0, 1.0, 0.0), "marginal"),
    ],
)
def test_build_lattice_refuses_an_unstable_site(args, outcome):
    with pytest.raises(NoLattice, match=", ".join([outcome] * 4)):
        build_lattice(*args)


@pytest.mark.parametrize(
    "args",
    [
        (2, 1.0, 1.0, 0.1),  # holds at the first seed
        (3, 1.0, 1.0, 0.1),  # at the second
        (3, 5.0, 1.0, 0.3),  # after Newton stalls from the first
        (5, 8.0, 1.0, 0.15),
        (4, 3.0, 1.0, 0.2),
        (6, 2.0, 1.0, 0.5),
    ],
)
def test_built_lattices_classify_stable(args):
    scenario = build_lattice(*args)
    report = find_equilibrium(scenario.chain(), scenario.lattice_modes())
    assert report.classification == "stable"
    assert report.positions == pytest.approx(scenario.positions, abs=1e-12)


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"i_r": 0.0}, "i_r"),
        ({"i_l": -1.0}, "i_l"),
        ({"i_l": math.inf}, "i_l"),
        ({"zeta": math.nan}, "zeta"),
        ({"zeta": 0.1 + 0.01j}, "zeta"),
        ({"i_p": -1.0, "k_p": K_REF}, "i_p"),
        ({"i_p": math.inf, "k_p": K_REF}, "i_p"),
        ({"i_p": 0.1, "k_p": -1.0}, "k_p"),
        ({"i_p": 0.1, "k_p": math.inf}, "k_p"),
        ({"k": 0.0}, "k"),
        ({"k": math.inf}, "k"),
        ({"i_p": 0.1, "k_p": K_REF, "zeta_p": complex(0.1, math.nan)}, "zeta_p"),
    ],
)
def test_build_lattice_rejects_bad_inputs(kwargs, name):
    args = {"n": 2, "i_l": 1.0, "i_r": 1.0, "zeta": 0.1, **kwargs}
    with pytest.raises(ValueError, match=f"^{name} must be"):
        build_lattice(**args)


def test_default_perturbation_coupling_scales_inversely():
    s1 = build_lattice(2, 1.0, 1.0, 0.1, i_p=0.1, k_p=K_REF)
    s2 = build_lattice(2, 1.0, 1.0, 0.1, i_p=0.1, k_p=2.0 * K_REF)
    assert s1.zeta_p == pytest.approx(0.1)
    assert s2.zeta_p == pytest.approx(0.05)  # doubling k_p halves zeta_p
    assert s1.positions == s2.positions  # geometry set by the lattice modes


def test_perturbation_modes_empty_without_drive():
    scenario = build_lattice(2, 1.0, 1.0, 0.1)
    assert scenario.perturbation_modes() == []
    assert len(scenario.modes()) == 1


def _direct_two_splitter_forces(positions, zeta, modes):
    """Independent oracle: solve the two-splitter boundary conditions as a
    dense linear system instead of sweeping transfer matrices."""
    forces = [0.0, 0.0]
    x1, x2 = positions
    d = x2 - x1
    for mode in modes:
        k = mode.k
        if mode.zeta_override is not None:
            z = mode.zeta_override
        else:
            z = zeta * mode.effective_scale
        a_in = mode.drive_left * cmath.exp(1j * k * x1)
        f_in = mode.drive_right * cmath.exp(-1j * k * x2)
        ep = cmath.exp(1j * k * d)
        em = cmath.exp(-1j * k * d)
        # unknowns [B, C, D, E]; rows: splitter relations at x1 and x2
        m = np.array(
            [
                [-1j * z, 1.0, 0.0, 0.0],
                [-(1.0 - 1j * z), 0.0, 1.0, 0.0],
                [0.0, (1.0 + 1j * z) * ep, 1j * z * em, -1.0],
                [0.0, -1j * z * ep, (1.0 - 1j * z) * em, 0.0],
            ],
            dtype=complex,
        )
        rhs = np.array(
            [(1.0 + 1j * z) * a_in, -1j * z * a_in, 0.0, f_in],
            dtype=complex,
        )
        b, c, dd, e = np.linalg.solve(m, rhs)
        forces[0] += 0.5 * (
            abs(a_in) ** 2 + abs(b) ** 2 - abs(c) ** 2 - abs(dd) ** 2
        )
        forces[1] += 0.5 * (
            abs(c * ep) ** 2 + abs(dd * em) ** 2 - abs(e) ** 2 - abs(f_in) ** 2
        )
    return forces


def test_perturbed_forces_against_direct_solve():
    scenario = build_lattice(
        2, 1.0, 0.7, 0.1, i_p=0.05, k_p=K_REF / 0.99, zeta_p=0.1
    )
    disp = (0.003, -0.002)
    pos = tuple(x + s for x, s in zip(scenario.positions, disp))
    got = forces_exact(scenario.chain().with_positions(pos), scenario.modes()).total
    want = _direct_two_splitter_forces(pos, 0.1, scenario.modes())
    assert got[0] == pytest.approx(want[0], abs=1e-12)
    assert got[1] == pytest.approx(want[1], abs=1e-12)


def test_perturbed_forces_validates_displacements():
    scenario = build_lattice(2, 1.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        scenario.chain().with_positions((scenario.positions[0] + 0.1,))


def test_quarter_ish_spacing_force_pattern():
    # four splitters 0.23 perturbation wavelengths apart: the one-sided
    # drive pushes odd and even members in opposite directions
    zeta_p = 0.1
    d0 = 0.23
    chain = ScattererChain(tuple(i * d0 for i in range(4)), zeta_p)
    p_mode = Mode("p", K_REF, drive_left=math.sqrt(2.0), zeta_override=zeta_p)
    f = forces_exact(chain, [p_mode]).total
    assert f[0] < 0 < f[1]
    assert f[2] < 0 < f[3]
    assert f[0] == pytest.approx(-f[1], rel=2e-2)
    assert f[2] == pytest.approx(-f[3], rel=2e-2)
    assert f[0] == pytest.approx(f[2], rel=2e-2)


def test_one_sided_perturbation_force_is_translation_invariant():
    zeta_p = 0.1
    p_mode = Mode("p", K_REF, drive_left=math.sqrt(2.0), zeta_override=zeta_p)
    base = tuple(i * 0.23 for i in range(4))
    f0 = forces_exact(ScattererChain(base, zeta_p), [p_mode]).total
    shifted = tuple(x + 0.177 for x in base)
    f1 = forces_exact(ScattererChain(shifted, zeta_p), [p_mode]).total
    assert f0 == pytest.approx(f1, abs=1e-12)


# the presets that drive a lattice with a perturbation beam of scalable intensity
PERTURBATION_PRESETS = ("correlated_oscillation", "resonant_transfer")


def test_scenario_kinds_round_trip():
    # every other preset refuses a perturbation scale, naming exactly these
    for name in set(preset_names()) - set(PERTURBATION_PRESETS):
        with pytest.raises(ScenarioError, match="^--ip-scale applies only to the presets "
                                                "correlated_oscillation, resonant_transfer$"):
            preset_document(name, i_p_scale=2.0)
    for kind in PERTURBATION_PRESETS:
        doc = preset_document(kind)
        scenario = scenario_from_document(doc, name=kind)
        assert scenario.dynamics is not None
        assert scenario.dynamics.regime == "newtonian"
        labels = [m.label for m in scenario.mode_list()]
        assert "p" in labels


def test_scenario_positions_track_the_scaled_drive():
    # the pinned-pattern scenario keeps its prescribed positions; the
    # transfer scenario relaxes at the scaled drive, so switching the
    # perturbation off moves its start to the undriven equilibrium
    full = preset_document("correlated_oscillation", i_p_scale=1.0)
    off = preset_document("correlated_oscillation", i_p_scale=0.0)
    assert full["chain"]["positions"] == off["chain"]["positions"]

    full = preset_document("resonant_transfer", i_p_scale=1.0)
    off = preset_document("resonant_transfer", i_p_scale=0.0)
    assert full["chain"]["positions"] != off["chain"]["positions"]
    # both starts carry the same kick on the far splitter, so the gap
    # structure stays comparable even though the anchor shifted
    gaps_full = [b - a for a, b in zip(full["chain"]["positions"], full["chain"]["positions"][1:])]
    gaps_off = [b - a for a, b in zip(off["chain"]["positions"], off["chain"]["positions"][1:])]
    for gf, go in zip(gaps_full, gaps_off):
        assert abs(gf - go) < 0.05
    with pytest.raises(ScenarioError, match="^unknown preset 'unknown_kind'; known: "):
        preset_document("unknown_kind")


@pytest.mark.parametrize("scale", [-1.0, math.nan, math.inf])
def test_scenario_scale_must_be_finite_and_non_negative(scale):
    for kind in PERTURBATION_PRESETS:
        with pytest.raises(ValueError, match="^i_p_scale must be (finite|at least 0), got "):
            preset_document(kind, i_p_scale=scale)


def test_lattice_scenario_with_positions():
    scenario = build_lattice(2, 1.0, 1.0, 0.1)
    moved = scenario.with_positions((0.0, 0.5))
    assert isinstance(moved, LatticeScenario)
    assert moved.positions == (0.0, 0.5)
    assert moved.d_sw == scenario.d_sw
