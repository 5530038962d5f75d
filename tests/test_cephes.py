"""The Cephes ports of i1e and erf return scipy.special's bits."""

import math

import numpy as np
from scipy.special import erf as scipy_erf
from scipy.special import i1e as scipy_i1e

from cslwalk._cephes import erf, i1e


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


def test_erf_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(20261019)
    # the threshold where exp(-x^2) underflows and erfc is taken as 0
    tail = math.sqrt(709.782712893384)
    edges = [1.0, 8.0, tail]
    edges += [np.nextafter(v, to) for v in edges for to in (0.0, np.inf)]
    x = np.concatenate([30.0 - rng.uniform(0.0, 30.0, 100_000),
                        rng.uniform(0.0, 2.0, 20_000),
                        np.linspace(26.6, 30.0, 1001), edges,
                        [0.05, 0.25, 1e-300, 5e-324]])
    assert x.min() > 0.0
    expected = scipy_erf(x)
    mismatched = [v for v, e in zip(x.tolist(), expected.tolist()) if erf(v) != e]
    assert mismatched == []
