"""Exact ensemble means of fully-random scenarios, for oracle tests.

A fresh layer draws phases alpha*u, u uniform on [0, 1), independently on
every mode. Averaged over that draw it leaves the diagonal of a density
matrix alone and multiplies every off-diagonal entry by

    gamma = |E exp(i alpha u)|^2 = 2 (1 - cos alpha) / alpha^2.

Layers are independent of each other and of the state they act on, so the
mean over every fully-random realization follows exactly from one
density-matrix recursion, with no sampling. At alpha = 2 pi, gamma = 0 and
the recursion is the classical Markov chain p <- |U|^2 p: walks whose phases
decohere completely become classical random walks (Brun, Carteret &
Ambainis, PRA 67, 032304, 2003). Frozen kinds repeat one draw at every step
and have no such recursion.

U comes from naive_reference.naive_motif, so nothing here shares code with
the package's propagation path.
"""

import math

import numpy as np

from naive_reference import naive_motif


def dephasing(alpha):
    """gamma: the factor one fresh layer of strength alpha puts on coherences."""
    if alpha == 0.0:
        return 1.0
    return 2.0 * (1.0 - math.cos(alpha)) / alpha**2


def motif_matrix(scenario):
    m = scenario.motif
    return np.array(naive_motif(m.n_couplers, m.theta, m.phi), dtype=np.complex128)


def exact_mean(scenario, input_index, depths):
    """{depth: ensemble-mean distribution} of a fully-random scenario.

    Each step, in the order the factors apply: the internal layer damps the
    coherences (when motif_internal_phases is set), the motif rotates the
    density matrix, the snapshot reads its diagonal, and the between-layer
    damps the coherences again. After the last step that layer is not drawn,
    but it would change no diagonal entry either.
    """
    u = motif_matrix(scenario)
    n = u.shape[0]
    damp = np.full((n, n), dephasing(scenario.alpha_layer))
    np.fill_diagonal(damp, 1.0)
    rho = np.zeros((n, n), dtype=np.complex128)
    rho[input_index, input_index] = 1.0
    out = {}
    for step in range(1, max(depths) + 1):
        if scenario.motif_internal_phases:
            rho = damp * rho
        rho = u @ rho @ u.conj().T
        if step in depths:
            out[step] = rho.diagonal().real.copy()
        rho = damp * rho
    return out


def markov_mean(scenario, input_index, depths):
    """{depth: distribution} of the classical chain p <- |U|^2 p."""
    chain = np.abs(motif_matrix(scenario)) ** 2
    p = np.zeros(chain.shape[0])
    p[input_index] = 1.0
    out = {}
    for step in range(1, max(depths) + 1):
        p = chain @ p
        if step in depths:
            out[step] = p.copy()
    return out
