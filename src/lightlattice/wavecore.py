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

Every solve runs one far-side sweep per driven side. A right drive leaves
only a transmitted wave past scatterer 1, so the sweep starts exactly
there, at (A_1, B_1) = (0, 1), and walks toward the drive, one splitter
and one gap at a time; the drive fixes the scale at the end, where D_N
of the unnormalised sweep equals the total matrix's m22. A left drive is
the same sweep of the chain's mirror image (x -> -x, couplings reversed),
mapped back. Heading toward the drive the physical solution is the one
that grows (Rouard's method; Ko & Inkson, PRB 38, 9945 (1988)), so
round-off never outgrows it, however thick the chain. The unnormalised
amplitudes grow to about |m22|; past 1e154 their squares overflow, and a
solve raises SingularBoundary instead.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import NegativeDistance, SingularBoundary

# reference wavenumber: one reference wavelength per unit length
K_REF = 2.0 * math.pi

_SINGULAR_M22 = 1e-14
# past this |m22| the unnormalised sweep's squared amplitudes overflow
_OVERFLOW_M22 = 1e154


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
        if not (0 < self.k < math.inf):
            raise ValueError(f"mode {self.label!r}: k must be positive and finite, got {self.k}")
        if self.zeta_scale is not None and not (0 < self.zeta_scale < math.inf):
            raise ValueError(f"mode {self.label!r}: zeta_scale must be positive and finite")
        for name in ("drive_left", "drive_right", "zeta_override"):
            v = getattr(self, name)
            if v is not None and not cmath.isfinite(complex(v)):
                raise ValueError(f"mode {self.label!r}: {name} not finite")

    @property
    def effective_scale(self) -> float:
        return self.k / K_REF if self.zeta_scale is None else self.zeta_scale


def _increasing_floats(positions) -> tuple[float, ...]:
    positions = tuple(map(float, positions))
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
        positions = _increasing_floats(positions)
        try:
            zetas = (complex(zeta_base),) * len(positions)
        except TypeError:
            zetas = tuple(complex(z) for z in zeta_base)
            if len(zetas) != len(positions):
                raise ValueError(
                    f"got {len(zetas)} couplings for {len(positions)} scatterers"
                )
        # ordering already rejects NaN between two scatterers; the ends
        # also catch a lone NaN and an infinite first or last position
        for end in positions[:1] + positions[-1:]:
            if not math.isfinite(end):
                raise ValueError(f"position {end} is not finite")
        for z in zetas:
            if not cmath.isfinite(z):
                raise ValueError(f"zeta {z} is not finite")
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
    # beam_splitter_matrix entries (m11, m12, m21, m22) of each scatterer
    splitters: list[tuple[complex, ...]]
    mirrored: list[tuple[complex, ...]]  # the splitters of the mirror image
    ik: complex
    left: complex
    right: complex
    # the sweeps that solve the mode, True for the mirror image: a right
    # drive sweeps the chain, a left drive its image, and an undriven mode
    # the image too, which checks its m22
    sides: tuple[bool, ...]


def _mode_constants(chain: ScattererChain, modes: list[Mode]) -> list[_ModeConstants]:
    """The couplings, splitter entries, i*k, drives and sweeps of each mode on chain's scatterers.

    A label names one mode: a repeated label raises ValueError. A thin slab
    is mirror symmetric, so the image's splitters are the chain's reversed.
    """
    labels = [mode.label for mode in modes]
    for label in labels:
        if labels.count(label) > 1:
            raise ValueError(f"mode label {label!r} is repeated")
    consts = []
    for mode in modes:
        zetas = mode_zetas(chain, mode)
        splitters = [(1.0 + iz, iz, -iz, 1.0 - iz) for iz in [1j * z for z in zetas]]
        left, right = complex(mode.drive_left), complex(mode.drive_right)
        sides = (False,) * bool(right) + (True,) * bool(left or not right)
        consts.append(_ModeConstants(mode.label, mode.k, zetas, splitters, splitters[::-1],
                                     1j * mode.k, left, right, sides))
    return consts


def _sweep(splitters, ik, positions, exp):
    """Unnormalised quadruples (A_j, B_j, C_j, D_j) of a drive from the right alone.

    Past scatterer 1 only the transmitted wave leaves, so the sweep starts
    exactly at (A_1, B_1) = (0, 1) and applies each splitter and gap in
    turn; its D_N equals the total matrix's m22. splitters holds the
    splitter entries per scatterer and ik is i*k. exp is cmath.exp for
    Python complex, or np.exp when every entry is an array of one shape.
    """
    _, c, _, d = splitters[0]  # (C_1, D_1) = S_1 (0, 1)
    zero = 0 * c
    quads = [(zero, zero + 1, c, d)]
    for x0, x1, (s11, s12, s21, s22) in zip(positions, positions[1:], splitters[1:]):
        ph = exp(ik * (x1 - x0))
        a, b = ph * c, d / ph
        c = s11 * a + s12 * b
        d = s21 * a + s22 * b
        quads.append((a, b, c, d))
    return quads


def _far_end(label: str, quads) -> complex:
    """D_N of a sweep, which is m22, once checked to lie in [1e-14, 1e154)."""
    dn = quads[-1][3]
    try:
        size = abs(dn)
    except OverflowError:
        raise SingularBoundary(f"|m22| overflows for mode {label!r}") from None
    if size < _SINGULAR_M22:
        raise SingularBoundary(
            f"|m22| = {size:.3e} below {_SINGULAR_M22} for mode {label!r}"
        )
    if not size < _OVERFLOW_M22:
        raise SingularBoundary(
            f"|m22| = {size:.3e} not below {_OVERFLOW_M22}: "
            f"|amplitude|^2 overflows in mode {label!r}"
        )
    return dn


def _right_pass(const: _ModeConstants, positions):
    """(quads, w, dn) of the right drive: its amplitudes are quads[j] * w / dn."""
    quads = _sweep(const.splitters, const.ik, positions, cmath.exp)
    return quads, const.right * cmath.exp(-const.ik * positions[-1]), _far_end(const.label, quads)


def _left_pass(const: _ModeConstants, positions):
    """(quads, w, dn) of the left drive, swept on the mirror image."""
    # the image's scatterers sit at -x_N, ..., -x_1: its gaps are the chain's
    # reversed, and -ik over the reversed positions gives their phases exactly
    image = _sweep(const.mirrored, -const.ik, positions[::-1], cmath.exp)
    dn = _far_end(const.label, image)
    image.reverse()
    # (A, B, C, D)_j of the chain are (D, C, B, A)_{N+1-j} of its image
    quads = [(d, c, b, a) for a, b, c, d in image]
    return quads, const.left * cmath.exp(const.ik * positions[0]), dn


def _solve_mode(const: _ModeConstants, positions: tuple[float, ...]):
    """(quads, w, dn) of one mode on scatterers at positions, strictly increasing floats.

    Quadruple j of the mode is quads[j] * w / dn, entry by entry and
    evaluated in that order. A one-sided mode keeps its one sweep
    unscaled. A mode driven from both sides adds its left sweep to its
    right one, in the right one's units.
    """
    if not positions:
        return (), 1.0, 1.0
    if len(const.sides) == 1:
        return _left_pass(const, positions) if const.sides[0] else _right_pass(const, positions)
    (q1, w1, d1), (q2, w2, d2) = _right_pass(const, positions), _left_pass(const, positions)
    u = (w2 / d2) / (w1 / d1)
    return [(a + u * e, b + u * f, c + u * g, d + u * h)
            for (a, b, c, d), (e, f, g, h) in zip(q1, q2)], w1, d1


def _reflection(const: _ModeConstants, positions: tuple[float, ...]) -> tuple[complex, complex]:
    """r_tot and t_tot: the reflected B_1 and transmitted C_N = 1 of a left sweep over its A_1."""
    if not positions:
        return 0j, 1 + 0j
    quads, _, dn = _left_pass(const, positions)
    return quads[0][1] / dn, 1.0 / dn


def check_amplitudes(solved) -> None:
    """Raise SingularBoundary naming the first mode with a non-finite amplitude.

    solved holds (label, quads, w, dn) per mode, as ChainSweeps.solve gives them.
    """
    for label, quads, w, dn in solved:
        if not all(cmath.isfinite(v * w / dn) for quad in quads for v in quad):
            raise SingularBoundary(f"non-finite amplitude in mode {label!r}")


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

    sweep is the unscaled (quads, w, dn) of ChainSweeps.solve that quads were
    scaled from, or None; forces_from_solution reads it, so that its
    forces are those of forces_exact bit for bit.
    """

    label: str
    k: float
    quads: tuple[tuple[complex, complex, complex, complex], ...]
    r_tot: complex
    t_tot: complex
    drive_left: complex
    drive_right: complex
    sweep: tuple | None = field(default=None, repr=False, compare=False)


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

    Per mode, one far-side sweep per driven side (module docstring), scaled
    by its drive, and one more sweep of the mirror image for r_tot and
    t_tot. A repeated mode label raises ValueError. SingularBoundary is
    raised for an m22 outside [1e-14, 1e154) and then, once every mode is
    solved, for a non-finite amplitude.
    """
    consts = _mode_constants(chain, modes)
    solved = [(c.label, *_solve_mode(c, chain.positions)) for c in consts]
    reflections = [_reflection(c, chain.positions) for c in consts]
    check_amplitudes(solved)
    return FieldSolution(chain, tuple(
        ModeFields(label, mode.k, tuple([(a * w / dn, b * w / dn, c * w / dn, d * w / dn)
                                         for a, b, c, d in quads]),
                   r_tot, t_tot, const.left, const.right, (quads, w, dn))
        for mode, const, (label, quads, w, dn), (r_tot, t_tot)
        in zip(modes, consts, solved, reflections)
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
        """The amplitudes of solve_fields at positions, unscaled: (label, quads, w, dn) per mode.

        Quadruple j is quads[j] * w / dn, bit for bit. It raises what
        solve_fields raises for m22; check_amplitudes finds non-finite ones.
        """
        x = self.chain.positions if positions is None else _placement(positions, self.n)
        return [(c.label, *_solve_mode(c, x)) for c in self.constants]

    def pairs(self, positions=None):
        """The positions, and per mode (constants, right, left) there, for derivatives.

        right and left are the (quads, w, dn) of the mode's two drives, mapped
        to the chain; with A_1 = 0 and D_N = 0 they span every solution. The
        sweeps solve makes are checked first, so m22 raises as in solve.
        """
        x = self.chain.positions if positions is None else _placement(positions, self.n)
        pairs = []
        for c in self.constants:
            if c.sides[0]:  # no right drive: solve sweeps the image alone
                left = _left_pass(c, x)
                pairs.append((c, _right_pass(c, x), left))
            else:
                right = _right_pass(c, x)
                pairs.append((c, right, _left_pass(c, x)))
        return x, pairs

    # a singular row divides by zero and overflows on its way to NaN
    @np.errstate(all="ignore")
    def solve_batch(self, positions) -> np.ndarray:
        """The quadruples [M, B, N, 4] of solve_fields at each row of positions [B, N].

        The rows must be strictly increasing; they are not checked. _sweep
        runs once on numpy complex128 arrays [M', B], a row per sweep that
        solve makes, rows side by side and scatterers one after another, so
        a row agrees with solve_fields to round-off and its bits do not
        depend on the other rows. A mode whose |m22| solve_fields rejects
        comes back NaN in that row; a non-finite amplitude stays non-finite.
        """
        pos = np.asarray(positions, dtype=float)
        n_rows, n = pos.shape
        consts = self.constants
        if n == 0 or not consts:
            return np.empty((len(consts), n_rows, n, 4), dtype=complex)
        sweeps = [(m, mirrored) for m, c in enumerate(consts) for mirrored in c.sides]
        flip = np.array([[mirrored] for _, mirrored in sweeps])
        # splitters[j, q] is entry q of scatterer j for every sweep and row,
        # [M', B]: operands of one shape take numpy's fastest loops
        entries = np.array([consts[m].mirrored if mirrored else consts[m].splitters
                            for m, mirrored in sweeps], dtype=complex)
        splitters = np.empty((n, 4, len(sweeps), n_rows), dtype=complex)
        splitters[...] = entries.transpose(1, 2, 0)[..., None]
        # a mirrored sweep runs over the reversed positions with -ik, as _left_pass
        xs = np.ascontiguousarray(np.where(flip, pos.T[::-1, None], pos.T[:, None]))
        ik = np.array([[-consts[m].ik if mirrored else consts[m].ik] for m, mirrored in sweeps])
        drive = np.array([[consts[m].left if mirrored else consts[m].right]
                          for m, mirrored in sweeps])
        w = drive * np.exp(-ik * xs[-1])  # [M', B], w of _right_pass and _left_pass
        swept = np.array(_sweep(splitters, ik, xs, np.exp))  # [N, 4, M', B]
        dn = swept[-1, 3]
        size = np.abs(dn)
        bad = ~((size >= _SINGULAR_M22) & (size < _OVERFLOW_M22))
        scale = w / dn
        scale[bad] = np.nan  # a rejected sweep leaves its mode NaN
        quads = np.empty((n, 4, len(consts), n_rows), dtype=complex)
        for r, (m, mirrored) in enumerate(sweeps):
            side = swept[::-1, ::-1, r] if mirrored else swept[:, :, r]
            if r and sweeps[r - 1][0] == m:  # the left sweep of a mode driven from both sides
                quads[:, :, m] += side * scale[r]
            else:
                np.multiply(side, scale[r], out=quads[:, :, m])
        return quads.transpose(2, 3, 0, 1)


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
    """Sample I(x) per mode and in total. Modes do not interfere: no cross terms."""
    rows = []
    for x in x_samples:
        per_mode = {}
        for mf in solution.fields:
            e = _mode_field_at(solution.chain, mf, x)
            per_mode[mf.label] = 0.5 * abs(e) ** 2
        rows.append((float(x), sum(per_mode.values()), per_mode))
    return rows
