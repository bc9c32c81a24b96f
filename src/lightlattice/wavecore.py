"""Exact steady-state light fields in a 1D chain of thin polarizable scatterers.

Each scatterer is an infinitely thin slab characterized by a single complex
coupling zeta; each light mode (a polarization/frequency component that does
not scatter into any other) is solved independently with 2x2 complex transfer
matrices. Internal units: eps0 = c = 1 and |amplitude|^2 = 2*I, so intensity
is |E|^2 / 2. Lengths are arbitrary as long as k*x products are consistent;
the package convention is lengths in units of the reference wavelength with
K_REF = 2*pi.

The field between scatterers j and j+1 is C_j e^{ik(x-x_j)} + D_j e^{-ik(x-x_j)};
A_j/B_j are the right/left moving amplitudes just left of scatterer j.

Every solve runs one far-side sweep per driven side. A right drive leaves only a
transmitted wave past scatterer 1, so the sweep starts exactly there, at (A_1, B_1) =
(0, 1), and walks toward the drive, one scatterer and one gap at a time; the drive fixes
the scale at the end, where D_N of the unnormalised sweep equals the total matrix's m22.
Scatterer j costs one complex multiply, its scattered wave s_j = i zeta_j (A_j + B_j),
and the sweep records (A_j, B_j, s_j): (C_j, D_j) = (A_j + s_j, B_j - s_j). A left drive
is the same sweep of the chain's mirror image (x -> -x, couplings reversed), mapped back
where needed. Heading toward the drive the physical solution is the one that grows
(Rouard's method; Ko & Inkson, PRB 38, 9945 (1988)), so round-off never outgrows it,
however thick the chain. The unnormalised amplitudes grow to about |m22|; past 1e154
their squares overflow, and a solve raises SingularBoundary instead.
"""

from __future__ import annotations

import bisect
import cmath
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

from .errors import NegativeDistance, SingularBoundary

# reference wavenumber: one reference wavelength per unit length
K_REF = 2.0 * math.pi

_SINGULAR_M22 = 1e-14
# past this |m22| the unnormalised sweep's squared amplitudes overflow
_OVERFLOW_M22 = 1e154

# per slot kind: what it must be, its abstract type, and the built-in types tried first (faster)
_KINDS = {
    int: ("an integer", numbers.Integral, int),
    float: ("a real number", numbers.Real, (int, float)),
    complex: ("a number", numbers.Complex, (int, float, complex)),
}


def check_number(name: str, value, minimum=None, positive=False, kind=float) -> None:
    """Raise ValueError("{name} must be ..., got {value!r}") unless value is a finite number.

    kind (int, float or complex) is the slot's type; positive and minimum bound a real slot.
    """
    what, abstract, builtin = _KINDS[kind]
    if not (isinstance(value, builtin) or isinstance(value, abstract)):
        condition = what
    elif not (isinstance(value, int) or cmath.isfinite(value)):
        condition = "finite"
    elif positive and not value > 0:
        condition = "positive"
    elif minimum is not None and not value >= minimum:
        condition = f"at least {minimum}"
    else:
        return
    raise ValueError(f"{name} must be {condition}, got {value!r}")


@dataclass(frozen=True)
class TransferMatrix:
    """2x2 complex map between (right-moving, left-moving) amplitude pairs."""

    m11: complex
    m12: complex
    m21: complex
    m22: complex

    def __matmul__(self, other: "TransferMatrix") -> "TransferMatrix":
        return TransferMatrix(
            self.m11 * other.m11 + self.m12 * other.m21,
            self.m11 * other.m12 + self.m12 * other.m22,
            self.m21 * other.m11 + self.m22 * other.m21,
            self.m21 * other.m12 + self.m22 * other.m22,
        )

    def apply(self, a: complex, b: complex) -> tuple[complex, complex]:
        return (self.m11 * a + self.m12 * b, self.m21 * a + self.m22 * b)

    def det(self) -> complex:
        return self.m11 * self.m22 - self.m12 * self.m21


IDENTITY = TransferMatrix(1.0 + 0.0j, 0.0j, 0.0j, 1.0 + 0.0j)


def beam_splitter_matrix(zeta: complex) -> TransferMatrix:
    """Scattering matrix of a single thin slab with coupling zeta.

    Unimodular for any zeta: det = (1+iz)(1-iz) - (iz)(-iz) = 1.
    """
    iz = 1j * zeta
    return TransferMatrix(1.0 + iz, iz, -iz, 1.0 - iz)


def propagation_matrix(k: float, d: float) -> TransferMatrix:
    """Free propagation over a distance d >= 0: diag(e^{ikd}, e^{-ikd})."""
    if d < 0:
        raise NegativeDistance(f"propagation distance {d} < 0 (unsorted chain?)")
    ph = cmath.exp(1j * k * d)
    return TransferMatrix(ph, 0.0j, 0.0j, 1.0 / ph)


@dataclass(frozen=True)
class Mode:
    """One non-interfering field component.

    k is the wavenumber (K_REF times the ratio to the reference mode).
    drive_left / drive_right are the incoming amplitudes referenced at x = 0:
    the solver uses A_1 = drive_left * e^{i k x_1} and
    D_N = drive_right * e^{-i k x_N}, so absolute chain positions carry
    physical meaning against the incoming waves (standing-wave nodes stay
    put when the chain moves).

    zeta_scale multiplies every scatterer's base coupling for this mode;
    the default k / K_REF keeps the polarizability fixed while the
    wavenumber varies. zeta_override, when set, replaces the coupling of
    every scatterer for this mode outright (used when a mode's coupling is
    prescribed independently of the scaling law).
    """

    label: str
    k: float
    drive_left: complex = 0.0j
    drive_right: complex = 0.0j
    zeta_scale: float | None = None
    zeta_override: complex | None = None

    def __post_init__(self):
        at = f"mode {self.label!r}: "
        check_number(at + "k", self.k, positive=True)
        if self.zeta_scale is not None:
            check_number(at + "zeta_scale", self.zeta_scale, positive=True)
        for name in ("drive_left", "drive_right", "zeta_override"):
            if getattr(self, name) is not None:
                check_number(at + name, getattr(self, name), kind=complex)

    @property
    def effective_scale(self) -> float:
        return self.k / K_REF if self.zeta_scale is None else self.zeta_scale


def _increasing_floats(positions) -> tuple[float, ...]:
    # at its exact size: tuple(map(...)) would park a spare tuple per solve (as _reduce)
    positions = (*map(float, positions),)
    for a, b in zip(positions, positions[1:]):
        if not (b > a):
            raise ValueError(f"positions not strictly increasing: {a} !< {b}")
    return positions


def _placement(positions, n: int) -> tuple[float, ...]:
    """positions as floats, checked to be n strictly increasing values."""
    positions = _increasing_floats(positions)
    if len(positions) != n:
        raise ValueError(f"got {n} couplings for {len(positions)} scatterers")
    return positions


@dataclass(frozen=True)
class ScattererChain:
    """Ordered scatterer positions with per-scatterer base coupling.

    zeta_base may be a single complex (shared by all scatterers) or a
    sequence of length N. Im(zeta) > 0 models absorption; Im(zeta) < 0
    would be gain and is rejected unless allow_gain is set.
    """

    positions: tuple[float, ...]
    zeta_base: tuple[complex, ...]
    allow_gain: bool = False

    def __init__(self, positions, zeta_base, allow_gain: bool = False):
        positions = tuple(positions)
        for x in positions:
            check_number("positions", x)
        positions = _increasing_floats(positions)
        if isinstance(zeta_base, (numbers.Number, str)):
            zeta_base = (zeta_base,) * len(positions)
        try:
            zetas = tuple(zeta_base)
        except TypeError:
            # neither a sequence nor a number: None, a 0-d array
            check_number("zeta_base", zeta_base, kind=complex)
            raise
        if len(zetas) != len(positions):
            raise ValueError(f"got {len(zetas)} couplings for {len(positions)} scatterers")
        for z in zetas:
            check_number("zeta_base", z, kind=complex)
        zetas = tuple(map(complex, zetas))
        for z in zetas:
            if z.imag < 0 and not allow_gain:
                raise ValueError(
                    f"zeta {z} has negative imaginary part (gain); "
                    "pass allow_gain=True to permit it"
                )
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "zeta_base", zetas)
        object.__setattr__(self, "allow_gain", allow_gain)

    @property
    def n(self) -> int:
        return len(self.positions)

    def gaps(self) -> tuple[float, ...]:
        return tuple(b - a for a, b in zip(self.positions, self.positions[1:]))

    def with_positions(self, positions) -> "ScattererChain":
        """The same scatterers moved to new positions.

        Only the positions are checked: the couplings were validated when
        this chain was built.
        """
        positions = _placement(positions, len(self.zeta_base))
        moved = object.__new__(ScattererChain)
        object.__setattr__(moved, "positions", positions)
        object.__setattr__(moved, "zeta_base", self.zeta_base)
        object.__setattr__(moved, "allow_gain", self.allow_gain)
        return moved


def mode_zetas(chain: ScattererChain, mode: Mode) -> tuple[complex, ...]:
    """Per-scatterer coupling seen by one mode."""
    if mode.zeta_override is not None:
        return (complex(mode.zeta_override),) * chain.n
    s = mode.effective_scale
    return tuple(z * s for z in chain.zeta_base)


class _ModeConstants(NamedTuple):
    """What a solve of one mode reads that does not depend on positions."""

    label: str
    k: float
    zetas: tuple[complex, ...]  # mode_zetas
    couplings: list[complex]  # i*zeta of each scatterer
    mirrored: list[complex]  # the couplings of the mirror image
    ik: complex
    left: complex
    right: complex
    # the sweeps that solve the mode, True for the image (a left drive's, or an undriven
    # mode's m22 check); the stronger drive's first, the frame where A is the smaller wave
    sides: tuple[bool, ...]
    lossy: bool  # some coupling has Re(i*zeta) != 0


def _mode_constants(chain: ScattererChain, modes: list[Mode]) -> list[_ModeConstants]:
    """The couplings zeta and i*zeta, i*k, drives and sweeps of each mode on chain's scatterers.

    A label names one mode: a repeated label raises ValueError. A thin slab
    is mirror symmetric, so the image's couplings are the chain's reversed.
    """
    labels = [mode.label for mode in modes]
    for label in labels:
        if labels.count(label) > 1:
            raise ValueError(f"mode label {label!r} is repeated")
    consts = []
    for mode in modes:
        zetas = mode_zetas(chain, mode)
        couplings = [1j * z for z in zetas]
        left, right = complex(mode.drive_left), complex(mode.drive_right)
        sides = (False,) * bool(right) + (True,) * bool(left or not right)
        consts.append(_ModeConstants(mode.label, mode.k, zetas, couplings, couplings[::-1],
                                     1j * mode.k, left, right,
                                     sides[::-1] if abs(left) > abs(right) else sides,
                                     any(iz.real for iz in couplings)))
    return consts


def _sweep(couplings, ik, positions, exp):
    """Unnormalised triples (A_j, B_j, s_j) of a drive from the right alone.

    Scatterer j sends s_j = i zeta_j (A_j + B_j) both ways, so (C_j, D_j) = (A_j + s_j,
    B_j - s_j). The sweep starts at (A_1, B_1) = (0, 1); its D_N = B_N - s_N is m22.
    couplings holds i*zeta per scatterer and ik is i*k; exp is cmath.exp, or np.exp
    when every coupling is an array of one shape.
    """
    s = couplings[0]  # i zeta_1 (0 + 1)
    zero = 0 * s
    triples = [(zero, zero + 1, s)]
    c, d = s, 1 - s
    for x0, x1, iz in zip(positions, positions[1:], couplings[1:]):
        ph = exp(ik * (x1 - x0))
        a, b = ph * c, d / ph
        s = iz * (a + b)
        triples.append((a, b, s))
        c, d = a + s, b - s
    return triples


def _pass(const: _ModeConstants, positions, mirrored: bool):
    """(triples, w, dn) of one drive: the right one on the chain, or the left one on its image.

    Its (A, B, s)_j are triples[j] * w / dn, and dn = D_N is m22, checked to lie in
    [1e-14, 1e154). The image's scatterers sit at -x_N, ..., -x_1: -ik over the
    reversed positions gives its phases exactly.
    """
    if mirrored:
        triples = _sweep(const.mirrored, -const.ik, positions[::-1], cmath.exp)
        w = const.left * cmath.exp(const.ik * positions[0])
    else:
        triples = _sweep(const.couplings, const.ik, positions, cmath.exp)
        w = const.right * cmath.exp(-const.ik * positions[-1])
    _, b, s = triples[-1]
    dn, label = b - s, const.label
    try:
        size = abs(dn)
    except OverflowError:
        raise SingularBoundary(f"|m22| overflows for mode {label!r}") from None
    if size < _SINGULAR_M22:
        raise SingularBoundary(f"|m22| = {size:.3e} below {_SINGULAR_M22} for mode {label!r}")
    if not size < _OVERFLOW_M22:
        raise SingularBoundary(f"|m22| = {size:.3e} not below {_OVERFLOW_M22}: "
                               f"|amplitude|^2 overflows in mode {label!r}")
    return triples, w, dn


def _image(a, b, s):
    """(A, B, s)_j = (D', C', s')_{N+1-j} of the chain from its image's (A', B', s'), or back."""
    return b - s, a + s, s


def _solve_mode(const: _ModeConstants, positions: tuple[float, ...]):
    """(triples, w, dn, mirrored) of one mode at positions, strictly increasing floats.

    The mode's (A, B, s)_j are triples[j] * w / dn, evaluated in that order, or when
    mirrored its image's: its first sweep's frame (_ModeConstants.sides), to which a
    two-sided mode adds the other sweep, mapped, in the first one's units.
    """
    if not positions:
        return (), 1.0, 1.0, const.sides[0]
    q1, w1, d1 = _pass(const, positions, const.sides[0])
    for side in const.sides[1:]:  # a two-sided mode
        q2, w2, d2 = _pass(const, positions, side)
        u = (w2 / d2) / (w1 / d1)
        q1 = [(a + u * e, b + u * f, s + u * g) for (a, b, s), (e, f, g)
              in zip(q1, [_image(*t) for t in reversed(q2)])]
    return q1, w1, d1, const.sides[0]


def _amplitudes(triples, w, dn, mirrored):
    """The quadruples (A_j, B_j, C_j, D_j) of a mode solved as (triples, w, dn, mirrored)."""
    triples = [_image(*t) for t in reversed(triples)] if mirrored else triples
    return tuple([(a * w / dn, b * w / dn, (a + s) * w / dn, (b - s) * w / dn)
                  for a, b, s in triples])


def _reflection(const: _ModeConstants, positions) -> tuple[complex, complex]:
    """r_tot and t_tot, B_1 and C_N = 1 over A_1 of one sweep of the image (_pass)."""
    if not positions:
        return 0j, 1 + 0j
    image, _, dn = _pass(const, positions, True)
    a, _, s = image[-1]  # B_1 of the chain is C_N = A_N + s_N of its image
    return (a + s) / dn, 1.0 / dn


def check_amplitudes(solved) -> None:
    """Raise SingularBoundary naming the first solved mode (ChainSweeps.solve) not finite."""
    for const, *sweep in solved:
        if not all(cmath.isfinite(v) for quad in _amplitudes(*sweep) for v in quad):
            raise SingularBoundary(f"non-finite amplitude in mode {const.label!r}")


def total_transfer_matrix(chain: ScattererChain, mode: Mode) -> TransferMatrix:
    """Ordered product mapping (A_1, B_1) to (C_N, D_N).

    M = M_BS(z_N) . M_p(d_{N-1}) ... M_p(d_1) . M_BS(z_1); identity for an
    empty chain. Built from the public helpers; no solve reads it.
    """
    if chain.n == 0:
        return IDENTITY
    zetas = mode_zetas(chain, mode)
    m = beam_splitter_matrix(zetas[0])
    for x0, x1, zeta in zip(chain.positions, chain.positions[1:], zetas[1:]):
        m = beam_splitter_matrix(zeta) @ (propagation_matrix(mode.k, x1 - x0) @ m)
    return m


def reflection_transmission(chain: ScattererChain, mode: Mode) -> tuple[complex, complex]:
    """Amplitude coefficients r, t with B_1 = r A_1 + t D_N.

    t = 1/m22 is direction independent (det = 1), r = -m21/m22 for left
    incidence on the chain as given; both come from one sweep of the
    mirror image, as the reflected and transmitted parts of its drive.
    """
    [const] = _mode_constants(chain, [mode])
    return _reflection(const, chain.positions)


@dataclass(frozen=True)
class ModeFields:
    """Solved amplitudes of one mode: quadruples (A_j, B_j, C_j, D_j) per scatterer.

    quads are the amplitudes of ChainSweeps.solve at the chain's positions, bit for
    bit, so forces_exact reads the forces of these fields.
    """

    label: str
    k: float
    quads: tuple[tuple[complex, complex, complex, complex], ...]
    r_tot: complex
    t_tot: complex
    drive_left: complex
    drive_right: complex


@dataclass(frozen=True)
class FieldSolution:
    chain: ScattererChain
    fields: tuple[ModeFields, ...]

    def __getitem__(self, label: str) -> ModeFields:
        for f in self.fields:
            if f.label == label:
                return f
        raise KeyError(label)


def solve_fields(chain: ScattererChain, modes: list[Mode]) -> FieldSolution:
    """Solve every mode independently against the same chain.

    The amplitudes are those of ChainSweeps(chain, modes).solve(), the sweeps
    every force reads; r_tot and t_tot read one more sweep of each mode's mirror
    image. A repeated mode label raises ValueError. SingularBoundary is raised
    for an m22 outside [1e-14, 1e154) and then, once every mode is solved, for
    a non-finite amplitude.
    """
    sweeps = ChainSweeps(chain, modes)
    solved = sweeps.solve()
    reflections = [_reflection(c, chain.positions) for c in sweeps.constants]
    check_amplitudes(solved)
    return FieldSolution(chain, tuple(
        ModeFields(c.label, mode.k, _amplitudes(*sweep), r_tot, t_tot, c.left, c.right)
        for mode, (c, *sweep), (r_tot, t_tot) in zip(modes, solved, reflections)
    ))


class ChainSweeps:
    """Each mode's constants and per-scatterer couplings on chain's scatterers, built once.

    A method given positions checks them as ScattererChain.with_positions
    does; without them it reads chain's own. A repeated label raises here.
    """

    def __init__(self, chain: ScattererChain, modes: list[Mode]):
        self.chain, self.n = chain, chain.n  # n is read on every evaluation
        self.constants = _mode_constants(chain, modes)

    def solve(self, positions=None):
        """Each mode's sweeps at positions: (constants, triples, w, dn, mirrored) per mode.

        Its quadruples are _amplitudes(triples, w, dn, mirrored), solve_fields' quads.
        It raises SingularBoundary for an m22 outside [1e-14, 1e154); check_amplitudes
        finds non-finite amplitudes.
        """
        x = self.chain.positions if positions is None else _placement(positions, self.n)
        return [(c, *_solve_mode(c, x)) for c in self.constants]

    def pairs(self, positions=None):
        """The positions, and per mode (constants, right, left) there, for derivatives.

        right and left are the (triples, w, dn) of the mode's two drives, mapped to the
        chain; with A_1 = 0 and D_N = 0 they span every solution. The sweeps solve
        makes are checked first, so m22 raises as in solve.
        """
        x = self.chain.positions if positions is None else _placement(positions, self.n)
        pairs = []
        for c in self.constants:
            sweeps = {mirrored: _pass(c, x, mirrored) for mirrored in (c.sides[0], not c.sides[0])}
            image, w, dn = sweeps[True]
            pairs.append((c, sweeps[False], ([_image(*t) for t in reversed(image)], w, dn)))
        return x, pairs

    def sweep_batch(self, positions):
        """(constants, (A, B, s), mirrored) per mode at each row of positions [B, N], A [B, N].

        The rows must be strictly increasing; they are not checked. _sweep runs once on
        numpy complex128 couplings [N, M', B], a row per sweep that solve makes, so a row
        agrees with solve to round-off and its bits do not depend on the other rows. The
        triples are scaled by w / dn and framed as in solve; an |m22| solve rejects is NaN.
        """
        import numpy as np
        # a singular row divides by zero and overflows on its way to NaN
        with np.errstate(all="ignore"):
            pos = np.asarray(positions, dtype=float)
            n_rows, n = pos.shape
            consts = self.constants
            if n == 0 or not consts:
                return [(c, np.empty((3, n_rows, n), dtype=complex), False) for c in consts]
            sweeps = [(c, mirrored) for c in consts for mirrored in c.sides]
            flip = np.array([[mirrored] for _, mirrored in sweeps])
            # couplings[j] is i*zeta_j for every sweep and row, [M', B]: numpy's fastest loops
            couplings = np.empty((n, len(sweeps), n_rows), dtype=complex)
            couplings[...] = np.array([c.mirrored if mirrored else c.couplings
                                       for c, mirrored in sweeps], dtype=complex).T[..., None]
            # a mirrored sweep runs over the reversed positions with -ik, as in _pass
            xs = np.ascontiguousarray(np.where(flip, pos.T[::-1, None], pos.T[:, None]))
            ik = np.array([[-c.ik if mirrored else c.ik] for c, mirrored in sweeps])
            drive = np.array([[c.left if mirrored else c.right] for c, mirrored in sweeps])
            w = drive * np.exp(-ik * xs[-1])  # [M', B], w of _pass
            swept = np.array(_sweep(couplings, ik, xs, np.exp))  # [N, 3, M', B]
            dn = swept[-1, 1] - swept[-1, 2]
            size = np.abs(dn)
            swept *= np.where((size >= _SINGULAR_M22) & (size < _OVERFLOW_M22), w / dn, np.nan)
            modes, r = [], 0
            for c in consts:
                triples = swept[:, :, r].transpose(1, 2, 0)
                if len(c.sides) == 2:  # as in _solve_mode
                    triples = triples + np.stack(_image(*swept[::-1, :, r + 1].transpose(1, 2, 0)))
                modes.append((c, triples, c.sides[0]))
                r += len(c.sides)
            return modes


def _mode_field_at(chain: ScattererChain, mf: ModeFields, x: float) -> complex:
    k = mf.k
    if chain.n == 0:
        return mf.drive_left * cmath.exp(1j * k * x) + mf.drive_right * cmath.exp(-1j * k * x)
    # interval index: j scatterers lie at or left of x
    j = bisect.bisect_right(chain.positions, x)
    if j == 0:
        a, b, _, _ = mf.quads[0]
        x0 = chain.positions[0]
    else:
        _, _, a, b = mf.quads[j - 1]  # (C, D) of the interval starting at x_j
        x0 = chain.positions[j - 1]
    ph = cmath.exp(1j * k * (x - x0))
    return a * ph + b / ph


def intensity_profile(solution: FieldSolution, x_samples) -> list[tuple[float, float, dict]]:
    """Sample I(x) per mode and in total (no cross terms); a non-finite x raises ValueError."""
    rows = []
    for x in x_samples:
        check_number("x_samples", x)
        per_mode = {}
        for mf in solution.fields:
            e = _mode_field_at(solution.chain, mf, x)
            per_mode[mf.label] = 0.5 * abs(e) ** 2
        rows.append((float(x), sum(per_mode.values()), per_mode))
    return rows
