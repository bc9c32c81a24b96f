"""Forces at mpmath precision: the one high-precision reference of the tests.

mp_forces writes out the transfer-matrix solve: the total matrix, then a
forward sweep from B_1 = (D_N - m21 A_1)/m22. That sweep amplifies the
round-off of B_1 by about |m22|, so reference_forces works at
30 + log10|m22| digits, with |m22| read from the double-precision total
matrix. mp_jacobian and mp_k_slope difference these forces at a step of
1e-20, far below what double precision could resolve. bench/reference.py
keeps its own copy: the benchmark does not import the tests.
"""

import math
from types import SimpleNamespace

from lightlattice.wavecore import mode_zetas, total_transfer_matrix


def mp_forces(mp, positions, modes, zetas):
    """Total forces at the current mpmath precision on scatterers at positions.

    zetas holds each mode's couplings (mode_zetas); positions may be mpf.
    """
    total = [mp.mpf(0)] * len(positions)
    for mode, zs in zip(modes, zetas):
        k = mp.mpf(mode.k)
        splitters = [
            (1 + 1j * z, 1j * z, -1j * z, 1 - 1j * z) for z in (mp.mpc(z) for z in zs)
        ]
        m11, m12, m21, m22 = splitters[0]
        for x0, x1, (s11, s12, s21, s22) in zip(positions, positions[1:], splitters[1:]):
            ph = mp.expj(k * (x1 - x0))
            p11, p12, p21, p22 = ph * m11, ph * m12, m21 / ph, m22 / ph
            m11, m12 = s11 * p11 + s12 * p21, s11 * p12 + s12 * p22
            m21, m22 = s21 * p11 + s22 * p21, s21 * p12 + s22 * p22
        a = mp.mpc(mode.drive_left) * mp.expj(k * positions[0])
        dn = mp.mpc(mode.drive_right) * mp.expj(-k * positions[-1])
        b = (dn - m21 * a) / m22
        for j, (s11, s12, s21, s22) in enumerate(splitters):
            if j:
                ph = mp.expj(k * (positions[j] - positions[j - 1]))
                a, b = ph * c, d / ph
            c, d = s11 * a + s12 * b, s21 * a + s22 * b
            total[j] += (abs(a) ** 2 + abs(b) ** 2 - abs(c) ** 2 - abs(d) ** 2) / 2
    return total


def reference_forces(mp, chain, modes) -> list[float]:
    """Total forces on chain, each good to about 30 digits."""
    size = max((abs(total_transfer_matrix(chain, mode).m22) for mode in modes), default=1.0)
    with mp.workdps(30 + math.ceil(math.log10(max(1.0, size)))):
        forces = mp_forces(mp, [mp.mpf(x) for x in chain.positions], modes,
                           [mode_zetas(chain, mode) for mode in modes])
        return [float(f) for f in forces]


def mp_jacobian(mp, chain, modes, columns=None, h="1e-20") -> list[list[float]]:
    """dF_j/dx_k of chain as central differences of mp_forces, step h.

    Row j holds the entries of the given columns k (default: all). The
    forces carry 50 digits beyond the log10|m22| that the forward sweep
    loses, so the difference is good to about 30 digits.
    """
    size = max((abs(total_transfer_matrix(chain, mode).m22) for mode in modes), default=1.0)
    zetas = [mode_zetas(chain, mode) for mode in modes]
    with mp.workdps(50 + math.ceil(math.log10(max(1.0, size)))):
        h = mp.mpf(h)
        x = [mp.mpf(v) for v in chain.positions]
        diffs = []
        for k in range(len(x)) if columns is None else columns:
            up, down = list(x), list(x)
            up[k] += h
            down[k] -= h
            diffs.append([(a - b) / (2 * h) for a, b in
                            zip(mp_forces(mp, up, modes, zetas), mp_forces(mp, down, modes, zetas))])
        return [[float(col[j]) for col in diffs] for j in range(len(x))]


def mp_pair_forces(mp, d, k_y, k_z, zeta, p, i_y=1):
    """Forces on the design pair at (0, d), at the current precision.

    Beam y comes from the left with coupling zeta, beam z = p * y from the
    right with coupling zeta k_z / k_y (equilibria._pair_design).
    """
    k_y, k_z, zeta, p, i_y = map(mp.mpf, (k_y, k_z, zeta, p, i_y))
    modes = [SimpleNamespace(k=k_y, drive_left=mp.sqrt(2 * i_y), drive_right=0),
             SimpleNamespace(k=k_z, drive_left=0, drive_right=mp.sqrt(2 * p * i_y))]
    return mp_forces(mp, [mp.mpf(0), mp.mpf(d)], modes, [[zeta] * 2, [zeta * k_z / k_y] * 2])


def mp_k_slope(mp, d, k_y, k_z, zeta, p, i_y=1, h="1e-20"):
    """dF/dk_z of mp_pair_forces as a central difference of step h."""
    h = mp.mpf(h)
    up = mp_pair_forces(mp, d, k_y, mp.mpf(k_z) + h, zeta, p, i_y)
    down = mp_pair_forces(mp, d, k_y, mp.mpf(k_z) - h, zeta, p, i_y)
    return [(a - b) / (2 * h) for a, b in zip(up, down)]
