"""The Cephes port of i1e returns scipy.special's bits."""

import numpy as np
from scipy.special import i1e as scipy_i1e

from cslwalk._cephes import i1e


def test_i1e_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(20261018)
    edges = [0.0, 8.0, np.nextafter(8.0, -np.inf), np.nextafter(8.0, np.inf)]
    x = np.concatenate([rng.uniform(0.0, 2000.0, 1_000_000),
                        rng.uniform(0.0, 16.0, 200_000), edges])
    assert np.array_equal(i1e(x), scipy_i1e(x))
    # arrays on one side of 8 skip the masked gather; 2-D and scalar inputs
    # are what the quadrature kernels and the band factor pass
    for part in (x[x <= 8.0], x[x > 8.0], x[:240_000].reshape(24, -1)):
        assert np.array_equal(i1e(part), scipy_i1e(part))
    for v in edges + [2.0, 30.0, 1800.0]:
        assert i1e(v) == scipy_i1e(v), v
