"""The Cephes ports of i0e and i1e return scipy.special's bits."""

import numpy as np
from scipy.special import i0e as scipy_i0e
from scipy.special import i1e as scipy_i1e

from cslwalk._cephes import i0e, i1e, i1e_array

EIGHT_AND_NEIGHBOURS = [8.0, np.nextafter(8.0, -np.inf), np.nextafter(8.0, np.inf)]


def test_i1e_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(20261018)
    edges = [0.0] + EIGHT_AND_NEIGHBOURS
    x = np.concatenate([rng.uniform(0.0, 2000.0, 1_000_000),
                        rng.uniform(0.0, 16.0, 200_000), edges])
    assert np.array_equal(i1e_array(x), scipy_i1e(x))
    # arrays on one side of 8 skip the masked gather; 2-D inputs are what
    # the quadrature kernels pass
    for part in (x[x <= 8.0], x[x > 8.0], x[:240_000].reshape(24, -1)):
        assert np.array_equal(i1e_array(part), scipy_i1e(part))


def test_scalar_i0e_and_i1e_match_scipy_bit_for_bit():
    # both sides of the switch at 8 (the translation factors call them at
    # 2 alpha^2, from 2e-300 up), the switch itself, and the ends of the
    # float range
    rng = np.random.default_rng(20261021)
    x = np.concatenate([rng.uniform(0.0, 8.0, 20_000), rng.uniform(8.0, 708.0, 20_000),
                        np.geomspace(1e-300, 1e300, 2_000),
                        [0.0, 1e-300, 1e300, 2.0, 30.0, 1800.0] + EIGHT_AND_NEIGHBOURS])
    for ours, theirs in ((i0e, scipy_i0e), (i1e, scipy_i1e)):
        got = [ours(float(v)) for v in x]
        assert all(type(g) is float for g in got)
        assert np.array_equal(got, theirs(x)), ours.__name__
