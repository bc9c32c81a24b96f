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
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NegativeDistance, SingularBoundary

# reference wavenumber: one reference wavelength per unit length
K_REF = 2.0 * math.pi

_SINGULAR_M22 = 1e-14


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
        for name in ("drive_left", "drive_right"):
            v = complex(getattr(self, name))
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
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
        if not allow_gain:
            for z in zetas:
                if z.imag < 0:
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


def _splitters(chain: ScattererChain, mode: Mode) -> list[tuple[complex, ...]]:
    """beam_splitter_matrix entries (m11, m12, m21, m22) of each scatterer."""
    return [(1.0 + iz, iz, -iz, 1.0 - iz)
            for iz in [1j * z for z in mode_zetas(chain, mode)]]


class _ModeConstants(NamedTuple):
    """What a solve of one mode reads that does not depend on positions."""

    label: str
    splitters: list[tuple[complex, ...]]
    ik: complex
    left: complex
    right: complex


def _mode_constants(chain: ScattererChain, modes: list[Mode]) -> list[_ModeConstants]:
    """The splitter entries, i*k and complex drives of each mode on chain's scatterers.

    A label names one mode: a repeated label raises ValueError.
    """
    labels = [mode.label for mode in modes]
    for label in labels:
        if labels.count(label) > 1:
            raise ValueError(f"mode label {label!r} is repeated")
    return [_ModeConstants(mode.label, _splitters(chain, mode), 1j * mode.k,
                           complex(mode.drive_left), complex(mode.drive_right))
            for mode in modes]


def _transfer(splitters, ik, positions, exp):
    """Total-matrix entries of one non-empty chain, with the per-gap factors.

    The product of beam_splitter_matrix and the diagonal propagation_matrix
    of each gap, written out. Its entries equal in value those the helpers
    build with `@`; the sign of an exactly-zero part may differ. splitters
    holds the splitter entries per scatterer, ik is i*k and exp is
    cmath.exp, or np.exp for arrays. Returns (m11, m12, m21, m22) and the
    (e^{ikd}, e^{-ikd}) pair per gap.
    """
    m11, m12, m21, m22 = splitters[0]
    phases = []
    for x0, x1, (s11, s12, s21, s22) in zip(positions, positions[1:], splitters[1:]):
        ph = exp(ik * (x1 - x0))
        inv = 1.0 / ph
        phases.append((ph, inv))
        p11, p12, p21, p22 = ph * m11, ph * m12, inv * m21, inv * m22
        m11 = s11 * p11 + s12 * p21
        m12 = s11 * p12 + s12 * p22
        m21 = s21 * p11 + s22 * p21
        m22 = s21 * p12 + s22 * p22
    return (m11, m12, m21, m22), phases


def _sweep(splitters, phases, a, b):
    """Quadruples (A_j, B_j, C_j, D_j) from (A_1, B_1)."""
    quads = []
    for j, (s11, s12, s21, s22) in enumerate(splitters):
        if j:
            ph, inv = phases[j - 1]
            a, b = ph * c, inv * d
        c = s11 * a + s12 * b
        d = s21 * a + s22 * b
        quads.append((a, b, c, d))
    return quads


def _solve_mode(const: _ModeConstants, positions: tuple[float, ...], with_quads: bool):
    """r_tot, t_tot and (when with_quads is set) the quadruples of one mode
    on scatterers at positions, which must be strictly increasing floats."""
    if not positions:
        m21, m22 = IDENTITY.m21, IDENTITY.m22
    else:
        (_, _, m21, m22), phases = _transfer(const.splitters, const.ik, positions, cmath.exp)
    try:
        singular = abs(m22) < _SINGULAR_M22
    except OverflowError:
        raise SingularBoundary(f"|m22| overflows for mode {const.label!r}") from None
    if singular:
        raise SingularBoundary(
            f"|m22| = {abs(m22):.3e} below {_SINGULAR_M22} for mode {const.label!r}"
        )
    r_tot = -m21 / m22
    t_tot = 1.0 / m22
    if not with_quads or not positions:
        return r_tot, t_tot, ()
    a = const.left * cmath.exp(const.ik * positions[0])
    dn = const.right * cmath.exp(-const.ik * positions[-1])
    quads = _sweep(const.splitters, phases, a, (dn - m21 * a) / m22)
    # a non-finite amplitude stays non-finite through every later product
    # and sum, so the last quadruple carries any that appeared in the sweep
    _, _, c, d = quads[-1]
    if not (cmath.isfinite(c) and cmath.isfinite(d)):
        raise SingularBoundary(f"non-finite amplitude in mode {const.label!r}")
    return r_tot, t_tot, tuple(quads)


def total_transfer_matrix(chain: ScattererChain, mode: Mode) -> TransferMatrix:
    """Ordered product mapping (A_1, B_1) to (C_N, D_N).

    M = M_BS(z_N) . M_p(d_{N-1}) ... M_p(d_1) . M_BS(z_1); identity for an
    empty chain.
    """
    if chain.n == 0:
        return IDENTITY
    [const] = _mode_constants(chain, [mode])
    entries, _ = _transfer(const.splitters, const.ik, chain.positions, cmath.exp)
    return TransferMatrix(*entries)


def reflection_transmission(chain: ScattererChain, mode: Mode) -> tuple[complex, complex]:
    """Amplitude coefficients r, t with B_1 = r A_1 + t D_N.

    t = 1/m22 is direction independent (det = 1), r = -m21/m22 for left
    incidence on the chain as given.
    """
    [const] = _mode_constants(chain, [mode])
    r, t, _ = _solve_mode(const, chain.positions, with_quads=False)
    return r, t


@dataclass(frozen=True)
class ModeFields:
    """Solved amplitudes of one mode: quadruples (A_j, B_j, C_j, D_j) per scatterer."""

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

    Per mode: B_1 = (D_N - m21 A_1)/m22 from the total matrix, then a
    left-to-right sweep alternating the scatterer and propagation maps fills
    all quadruples. A repeated mode label raises ValueError.
    """
    solved = []
    for mode, const in zip(modes, _mode_constants(chain, modes)):
        r_tot, t_tot, quads = _solve_mode(const, chain.positions, with_quads=True)
        solved.append(
            ModeFields(mode.label, mode.k, quads, r_tot, t_tot, const.left, const.right)
        )
    return FieldSolution(chain, tuple(solved))


def quads_kernel(chain: ScattererChain, modes: list[Mode]):
    """The quadruples of solve_fields as a function of positions.

    The per-mode constants of chain's scatterers are built once, here. The
    returned function takes positions as ScattererChain.with_positions does,
    raising its ValueError, and gives a (label, quads) pair per mode, bit for
    bit those of solve_fields(chain.with_positions(positions), modes). It
    raises what solve_fields raises; a repeated mode label raises here.
    """
    consts = _mode_constants(chain, modes)
    n = chain.n

    def solve(positions):
        positions = _placement(positions, n)
        return [(c.label, _solve_mode(c, positions, True)[2]) for c in consts]

    return solve


# a singular row divides by zero and overflows on its way to NaN
@np.errstate(all="ignore")
def solve_fields_batch(chain: ScattererChain, modes: list[Mode], positions) -> np.ndarray:
    """The quadruples of solve_fields for many placements of chain's scatterers.

    positions is a float array [B, N] whose rows must be strictly increasing;
    they are not checked. Returns a complex array [M, B, N, 4] whose entry
    [m, b, j] is (A_j, B_j, C_j, D_j) of modes[m] on
    chain.with_positions(positions[b]). Both solves run _transfer and _sweep,
    here on numpy complex128 arrays of shape [M, B], so a row agrees with
    solve_fields to round-off, not bit for bit; its bits do not depend on
    the other rows. The rows run side by side and the scatterers one after
    another. A row whose |m22| is below 1e-14, NaN or overflowing, which
    solve_fields rejects, comes back NaN; every non-finite amplitude stays
    non-finite. A repeated mode label raises ValueError, as in solve_fields.
    """
    pos = np.asarray(positions, dtype=float)
    n_rows, n = pos.shape
    consts = _mode_constants(chain, modes)
    if n == 0 or not modes:
        return np.empty((len(modes), n_rows, n, 4), dtype=complex)
    # splitters[j, q] is entry q of scatterer j for every mode and row, [M, B]:
    # operands of one shape take numpy's fastest loops
    entries = np.array([c.splitters for c in consts], dtype=complex)
    splitters = np.empty((n, 4, len(modes), n_rows), dtype=complex)
    splitters[...] = entries.transpose(1, 2, 0)[..., None]
    # per-mode constants as [M, 1] columns that broadcast over rows
    ik, left, right = np.array([(c.ik, c.left, c.right) for c in consts]).T[..., None]
    (_, _, m21, m22), phases = _transfer(splitters, ik, pos.T, np.exp)
    size = np.abs(m22)
    # [M, B], or [M, 1] for one scatterer, which has no gap; copyto broadcasts it
    singular = ~(size >= _SINGULAR_M22) | (np.isinf(size) & np.isfinite(m22))
    a = left * np.exp(ik * pos[:, 0])
    dn = right * np.exp(-ik * pos[:, -1])
    quads = np.array(_sweep(splitters, phases, a, (dn - m21 * a) / m22))  # [N, 4, M, B]
    np.copyto(quads, np.nan, where=singular)
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
