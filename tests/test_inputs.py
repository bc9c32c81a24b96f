"""Every public entry point that takes a number checks it through one reader.

A NaN, an infinity, a complex value in a real slot, a string, or a float in an
integer slot raises ValueError("<field> must be <condition>, got <value!r>"),
prefixed "mode '<label>': " for a Mode. The table below names each routed
callable's numeric slots; a completeness check keeps every numeric parameter of
the package's public names in it or on a named exemption list.
"""

import cmath
import dataclasses
import functools
import inspect
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

import lightlattice
from lightlattice import (
    K_REF,
    DynamicsParams,
    Mode,
    NegativeDistance,
    NoTrap,
    PairForceParams,
    ScattererChain,
    beam_splitter_matrix,
    build_lattice,
    design_intensity_ratio,
    design_wavenumber,
    evolve,
    intensity_profile,
    lattice_constant,
    linearize_pair_in_lattice,
    pair_forces_approx,
    pair_rt_closed_form,
    pair_stationary_distances,
    pair_zero_force_distances,
    preset_document,
    propagation_matrix,
    solve_fields,
    stable_com_position,
)


@functools.cache
def _solution():
    return solve_fields(ScattererChain((0.0, 0.4), 0.05), [Mode("y", K_REF, drive_left=1.0)])


@functools.cache
def _lattice():
    return build_lattice(2, 1.0, 1.0, 0.1)


def _pair():
    return ScattererChain((0.0, 0.4), 0.01), [Mode("y", K_REF, drive_left=1.0)]


def _row(function, kinds, wrap=None, **valid):
    """(call, kinds): call(slot, value) is function(**valid) with value in slot."""
    def call(slot, value):
        args = dict(valid)
        args[slot] = (wrap or {}).get(slot, lambda v: v)(value)
        return function(**args)
    return call, kinds


R, C, I = float, complex, int  # the kind of a slot: real, complex or integer

# callable name -> its row: the valid call and the kind of each numeric slot
TABLE = {
    "Mode": _row(lambda **kw: Mode("y", **kw),
                 dict(k=R, drive_left=C, drive_right=C, zeta_scale=R, zeta_override=C),
                 k=K_REF, drive_left=1.0, drive_right=0.5, zeta_scale=1.0, zeta_override=0.1),
    "ScattererChain": _row(ScattererChain, dict(positions=R, zeta_base=C),
                           wrap=dict(positions=lambda v: (0.0, v)),
                           positions=(0.0, 0.4), zeta_base=0.01),
    "intensity_profile": _row(lambda x_samples: intensity_profile(_solution(), x_samples),
                              dict(x_samples=R), wrap=dict(x_samples=lambda v: [0.1, v]),
                              x_samples=[0.1]),
    "DynamicsParams": _row(DynamicsParams,
                           dict(dt=R, t_end=R, friction=R, mass=R, min_separation=R,
                                force_tol=R),
                           regime="newtonian", dt=0.1, t_end=1.0, friction=1.0, mass=1.0,
                           min_separation=1e-3, force_tol=1e-10),
    "PairForceParams": _row(PairForceParams, dict(p=R, k_y=R, k_z=R, zeta=R, i_y=R),
                            p=1.0, k_y=K_REF, k_z=K_REF, zeta=0.01, i_y=1.0),
    "pair_stationary_distances": _row(pair_stationary_distances, dict(k=R, n_max=I),
                                      k=K_REF, n_max=2),
    "design_wavenumber": _row(design_wavenumber, dict(d=R, k_y=R, zeta=R, i_y=R, band=R),
                              wrap=dict(band=lambda v: (1e-9, v)),
                              d=0.1, k_y=K_REF, zeta=0.01, i_y=1.0, band=(1e-9, 4 * K_REF)),
    "linearize_pair_in_lattice": _row(lambda mass: linearize_pair_in_lattice(_lattice(), mass),
                                      dict(mass=R), mass=1.0),
    "lattice_constant": _row(lattice_constant, dict(zeta=R, asymmetry=R, k=R),
                             zeta=0.1, asymmetry=0.0, k=K_REF),
    "build_lattice": _row(build_lattice,
                          dict(n=I, i_l=R, i_r=R, zeta=R, k=R, i_p=R, k_p=R, zeta_p=C),
                          n=2, i_l=1.0, i_r=1.0, zeta=0.1, k=K_REF, i_p=0.1, k_p=K_REF,
                          zeta_p=0.1),
    "preset_document": _row(preset_document, dict(i_p_scale=R),
                            name="correlated_oscillation", i_p_scale=1.0),
    "evolve": _row(lambda **kw: evolve(*_pair(), DynamicsParams("newtonian", 0.1, 1.0), **kw),
                   dict(capture_every=I, initial_velocities=R),
                   wrap=dict(initial_velocities=lambda v: (0.0, v)),
                   capture_every=1, initial_velocities=(0.0, 0.0)),
}

# public callables whose numeric parameters the reader does not check, and why
EXEMPT = {
    "TransferMatrix": "a 2x2 matrix of the transfer vocabulary: its products map NaN to NaN",
    "beam_splitter_matrix": "a closed form of the transfer vocabulary: it maps NaN to NaN",
    "propagation_matrix": "a closed form of the transfer vocabulary: it maps NaN to NaN",
    "pair_forces_approx": "a closed form: it maps NaN to NaN",
    "pair_zero_force_distances": "a closed form: it maps NaN to NaN (branch is a choice of sign)",
    "design_intensity_ratio": "a closed form: it maps NaN to NaN and flags what is not physical",
    "pair_rt_closed_form": "a closed form: it maps NaN to NaN",
    "stable_com_position": "a closed form: it maps NaN to NaN",
    "EquilibriumReport": "a result record the library fills from checked inputs",
    "ForceProfile": "a result record the force solve fills from checked inputs",
    "DesignCandidate": "a result record the library fills from checked inputs",
    "LinearizedModel": "a result record the library fills from checked inputs",
    "NormalModes": "a result record the library fills from checked inputs",
    "SteadyState": "a result record settle fills from a checked scenario",
    "LatticeScenario": "a result record build_lattice fills from checked inputs",
    "Scenario": "a decoded document: the decoder checks each slot at its path",
}

CASES = [(name, slot) for name, (_, kinds) in TABLE.items() for slot in kinds]

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
# a complex number with a part that is not finite
NON_FINITE_COMPLEX = st.one_of(
    st.builds(complex, NON_FINITE, st.floats()),
    st.builds(complex, st.floats(), NON_FINITE),
)
STRINGS = st.text(max_size=8)


def _bad_values(kind):
    """Strategy of (value, the condition its message names) that a slot of kind rejects."""
    what = {R: "a real number", C: "a number", I: "an integer"}[kind]
    values = [
        st.tuples(st.one_of(NON_FINITE, NON_FINITE_COMPLEX) if kind is C else NON_FINITE,
                  st.just("an integer" if kind is I else "finite")),
        st.tuples(STRINGS, st.just(what)),
    ]
    if kind is not C:
        values.append(st.tuples(st.complex_numbers(), st.just(what)))
    if kind is I:
        values.append(st.tuples(st.floats(), st.just(what)))
    return st.tuples(*values)


def _numeric(annotation) -> bool:
    # a number, or a tuple of numbers: "float | None", "tuple[float, ...] | None"
    text = annotation if isinstance(annotation, str) else getattr(annotation, "__name__", "")
    return any(re.fullmatch(r"(float|complex|int)|tuple\[(float|complex|int), \.\.\.\]",
                            part.strip()) for part in text.split("|"))


def _numeric_parameters(obj) -> set[str]:
    try:
        parameters = inspect.signature(obj).parameters.values()
    except (TypeError, ValueError):  # the exception classes have no signature
        return set()
    return {p.name for p in parameters if _numeric(p.annotation)}


@pytest.mark.parametrize("name, slot", CASES)
@given(data=st.data())
def test_a_numeric_slot_names_itself_when_it_rejects_a_value(name, slot, data):
    call, kinds = TABLE[name]
    field = f"mode 'y': {slot}" if name == "Mode" else slot
    for value, condition in data.draw(_bad_values(kinds[slot])):
        with pytest.raises(ValueError) as caught:
            call(slot, value)
        assert str(caught.value) == f"{field} must be {condition}, got {value!r}"


@pytest.mark.parametrize("call, message", [
    (lambda: evolve(*_pair(), DynamicsParams("newtonian", 0.1, 1.0), capture_every=math.nan),
     "capture_every must be an integer, got nan"),
    (lambda: evolve(*_pair(), DynamicsParams("newtonian", 0.1, 1.0), capture_every=1.5),
     "capture_every must be an integer, got 1.5"),
    (lambda: build_lattice(2.5, 1.0, 1.0, 0.1), "n must be an integer, got 2.5"),
    (lambda: pair_stationary_distances(K_REF, n_max=2.5), "n_max must be an integer, got 2.5"),
    (lambda: pair_stationary_distances(K_REF, n_max=-1), "n_max must be at least 0, got -1"),
], ids=["capture_every-nan", "capture_every-1.5", "n-2.5", "n_max-2.5", "n_max--1"])
def test_an_integer_slot_takes_integers_only(call, message):
    # capture_every=nan kept only the first and last snapshot, 1.5 was taken,
    # n and n_max leaked a TypeError from range(), and n_max=-1 returned []
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_the_table_covers_every_numeric_parameter_of_the_public_names():
    for name, (_, kinds) in TABLE.items():
        obj = getattr(lightlattice, name)
        assert set(kinds) <= set(inspect.signature(obj).parameters), name
        assert _numeric_parameters(obj) <= set(kinds), name
    assert not set(TABLE) & set(EXEMPT)
    unlisted = [name for name in lightlattice.__all__
                if name not in TABLE and name not in EXEMPT
                and _numeric_parameters(getattr(lightlattice, name))]
    assert unlisted == []
    assert set(EXEMPT) <= set(lightlattice.__all__)


@pytest.mark.parametrize("zeta_base", [np.array(0.01), None], ids=["0-d-array", "None"])
def test_a_chain_names_a_coupling_it_cannot_read(zeta_base):
    # tuple() of either raised a raw TypeError
    message = f"zeta_base must be a number, got {zeta_base!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ScattererChain((0.0, 0.4), zeta_base)
    for couplings in ([0.01, 0.02], np.array([0.01, 0.02])):
        assert ScattererChain((0.0, 0.4), couplings).zeta_base == (0.01, 0.02)


def _flagged_nan(ratios) -> bool:
    return (math.isnan(ratios.p1) and math.isnan(ratios.p2)
            and not ratios.p1_physical and not ratios.p2_physical)


# exempt closed forms: what they return where a value has no meaning
@pytest.mark.parametrize("call, returned", [
    (lambda: design_intensity_ratio(math.nan, K_REF, K_REF, 0.01), _flagged_nan),
    # zeta ** 2 leaked OverflowError above |zeta| of about 1.34e154
    (lambda: design_intensity_ratio(0.1, K_REF, K_REF, 1e200), _flagged_nan),
    # k_z = 0 leaked ZeroDivisionError, an infinite phase d k_y math.cos's ValueError
    (lambda: design_intensity_ratio(0.1, K_REF, 0.0, 0.01), _flagged_nan),
    (lambda: design_intensity_ratio(1e308, 10.0, K_REF, 0.01), _flagged_nan),
], ids=["design_intensity_ratio-nan-d", "design_intensity_ratio-zeta-1e200",
        "design_intensity_ratio-zero-k_z", "design_intensity_ratio-d-1e308"])
def test_a_closed_form_maps_what_it_cannot_evaluate_to_a_flagged_nan(call, returned):
    assert returned(call())


PAIR_PARAMS = PairForceParams(1.0, K_REF, K_REF, 0.01)

# each exempt closed form as a function of its numeric arguments, and valid values of them
CLOSED_FORMS = {
    "beam_splitter_matrix": (beam_splitter_matrix, dict(zeta=0.1)),
    "propagation_matrix": (propagation_matrix, dict(k=K_REF, d=0.3)),
    "pair_forces_approx": (lambda d: pair_forces_approx(d, PAIR_PARAMS), dict(d=0.3)),
    "pair_zero_force_distances": (lambda n: pair_zero_force_distances(PAIR_PARAMS, n=n),
                                  dict(n=0)),
    "design_intensity_ratio": (design_intensity_ratio,
                               dict(d=0.1, k_y=K_REF, k_z=K_REF, zeta=0.01)),
    "pair_rt_closed_form": (pair_rt_closed_form, dict(d=0.3, k=K_REF, zeta=0.1)),
    "stable_com_position": (stable_com_position,
                            dict(i_l=1.0, i_r=1.0, r=0.1 + 0.1j, t=0.9 + 0.2j, k=K_REF)),
}


def _non_finite_calls():
    for name, (function, valid) in CLOSED_FORMS.items():
        for slot in valid:
            for value in (math.nan, math.inf, -math.inf):
                yield pytest.param(functools.partial(function, **{**valid, slot: value}),
                                   id=f"{name}-{slot}-{value}")
    # k_z ** 2 leaked OverflowError
    yield pytest.param(
        lambda: pair_zero_force_distances(PairForceParams(1.0, K_REF, 1e300, 0.01)),
        id="pair_zero_force_distances-k_z-1e300")


def _numbers(result) -> list:
    """The float and complex values in a closed form's result; flags, None and notes left out."""
    if isinstance(result, (float, complex)):
        return [result]
    if dataclasses.is_dataclass(result):
        result = [getattr(result, field.name) for field in dataclasses.fields(result)]
    if isinstance(result, (tuple, list)):
        return [x for item in result for x in _numbers(item)]
    return []


@pytest.mark.parametrize("call", _non_finite_calls())
def test_a_closed_form_maps_a_non_finite_input_to_a_result_that_is_not_all_finite(call):
    # pair_forces_approx and design_intensity_ratio leaked math.cos's ValueError
    # at an infinite phase; stable_com_position returned a finite position
    try:
        result = call()
    except (NegativeDistance, NoTrap):  # the refusals each closed form documents
        return
    assert not all(map(cmath.isfinite, _numbers(result))), result
