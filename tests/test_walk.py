from math import pi

import numpy as np
import pytest

from walkqca import walk
from walkqca.lattice import make_lattice, momentum_mode


@pytest.mark.parametrize("n", [2, 4, 10])
@pytest.mark.parametrize("theta", [0.0, 0.05, 0.3, 1.2, pi / 2, 3.0, pi])
def test_2d_block_at_zero_ky_equals_1d_block(n, theta):
    spec1 = make_lattice(1, n, 1.0, 1.0, theta)
    spec2 = make_lattice(2, n, 1.0, 1.0, theta)
    for ell in range(-n // 2 + 1, n // 2 + 1):
        block1 = walk.momentum_block(spec1, momentum_mode(spec1, ell))
        block2 = walk.momentum_block(spec2, momentum_mode(spec2, (ell, 0)))
        assert block2.r == block1.r
        assert block2.phi == block1.phi
        assert np.array_equal(block2.matrix, block1.matrix)
