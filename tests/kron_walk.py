"""The dense walk built leg by leg from Kronecker products.

It shares no code with :mod:`walkqca.walk`'s step kernel, only the coin
frame constants, so tests use it as the independent oracle for the
kernel and for the dense matrix :func:`walkqca.walk.walk_matrix` steps
out of it.  :func:`extended_unitary` pads a walk matrix with the factor
vacuum, the one-factor step of the multiparticle space and the automaton
sector.
"""

from functools import reduce

import numpy as np

from walkqca.walk import DIRECTION_BASES, coin_matrix


def shift_matrix(n):
    """Cyclic shift by one site: S|x> = |x+1 mod n>."""
    return np.roll(np.eye(n, dtype=complex), 1, axis=0)


def kron_walk(n, dimension, theta):
    """One-step matrix on 2*n**dimension amplitudes; accepts any n >= 2.

    Each axis contributes one leg, the shift along that axis conditioned
    on its direction pair; the legs act in axis order, then the coin.
    """
    proj = lambda v: np.outer(v, v.conj())
    legs = []
    for axis in range(dimension):
        factors = [shift_matrix(n) if a == axis else np.eye(n, dtype=complex) for a in range(dimension)]
        s = reduce(np.kron, factors)
        forward, backward = DIRECTION_BASES[axis].T
        legs.append(np.kron(s, proj(forward)) + np.kron(s.conj().T, proj(backward)))
    u = np.kron(np.eye(n**dimension, dtype=complex), coin_matrix(theta))
    for leg in reversed(legs):
        u = u @ leg
    return u


def extended_unitary(u):
    """Walk unitary extended to act as the identity on the factor vacuum, indexed last."""
    d = u.shape[0]
    ext = np.zeros((d + 1, d + 1), dtype=complex)
    ext[:d, :d] = u
    ext[d, d] = 1.0
    return ext
