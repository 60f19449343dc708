"""Bloch-wave solution of the clean ring, for oracle tests.

The clean ring repeats every unit cell, the mode pair (2j, 2j+1). A state
whose cell amplitudes are exp(i k j) v, with k = 2 pi q / N, stays one: the
motif maps it to exp(i k j) M(k) v, where M(k) = sum over d of T_d exp(i k d)
and T_d is the 2 x 2 block coupling cell j to cell j + d. The eigenphases of
M(k) are +-omega(k), cos omega = cos theta cos phi + sin theta sin phi cos k,
the split-step dispersion of Kitagawa et al., PRA 82, 033429 (2010).

The blocks are read off naive_reference.naive_motif on a ring of three
cells, where the neighbours d = -1, 0, 1 are distinct cells, so nothing here
shares code with the package's motif assembly or propagation. A clean run
is then one 2 x 2 product per momentum and step between two FFTs over the
cells, at any ring size and depth, past the wrap included.
"""

import numpy as np

from naive_reference import naive_motif


def cell_blocks(theta, phi):
    """{d: T_d} for d = -1, 0, 1: the motif's rows of the middle cell of a
    three-cell ring, in the columns of the cell d steps away."""
    m = np.array(naive_motif(3, theta, phi), dtype=np.complex128)
    return {d: m[2:4, 2 + 2 * d:4 + 2 * d] for d in (-1, 0, 1)}


def bloch_matrices(motif):
    """M(k) for k = 2 pi q / N, q = 0 ... N-1, as an (N, 2, 2) array."""
    blocks = cell_blocks(motif.theta, motif.phi)
    k = 2.0 * np.pi * np.arange(motif.n_couplers) / motif.n_couplers
    return sum(np.exp(1j * d * k)[:, None, None] * t for d, t in blocks.items())


def bloch_eigenphases(motif):
    """The 2N eigenphases of the clean motif, two per momentum."""
    return np.angle(np.linalg.eigvals(bloch_matrices(motif))).reshape(-1)


def dispersion_cosines(motif):
    """cos omega(k) per momentum, from the closed form."""
    k = 2.0 * np.pi * np.arange(motif.n_couplers) / motif.n_couplers
    theta, phi = motif.theta, motif.phi
    return np.cos(theta) * np.cos(phi) + np.sin(theta) * np.sin(phi) * np.cos(k)


def bloch_distributions(motif, input_index, depths):
    """{depth: mode probabilities} of one excitation on a clean ring.

    Cell amplitudes go to momentum space by an FFT over the cells, where
    each step is one M(k) product, and back by the inverse FFT at each
    requested depth.
    """
    ms = bloch_matrices(motif)
    psi = np.zeros((motif.n_couplers, 2), dtype=np.complex128)
    psi[input_index // 2, input_index % 2] = 1.0
    hat = np.fft.fft(psi, axis=0)
    out = {}
    for step in range(1, max(depths) + 1):
        hat = np.einsum("qab,qb->qa", ms, hat)
        if step in depths:
            out[step] = (np.abs(np.fft.ifft(hat, axis=0)) ** 2).reshape(-1)
    return out
