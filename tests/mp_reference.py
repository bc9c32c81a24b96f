"""Forces at mpmath precision: the one high-precision reference of the tests.

mp_forces writes out the transfer-matrix solve: the total matrix, then a
forward sweep from B_1 = (D_N - m21 A_1)/m22. That sweep amplifies the
round-off of B_1 by about |m22|, so reference_forces works at
30 + log10|m22| digits, with |m22| read from the double-precision total
matrix. bench/reference.py keeps its own copy: the benchmark does not
import the tests.
"""

import math

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
