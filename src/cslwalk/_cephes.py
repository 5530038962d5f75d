"""The exponentially scaled Bessel function i1e.

It follows Cephes (S. L. Moshier, *Methods and Programs for Mathematical
Functions*, Prentice-Hall, 1989; `i1.c`) operation for operation and with
its coefficients, so on x86-64 it returns the same bits as the Cephes
build behind ``scipy.special.i1e``.  It covers only what the disc rotation
factor calls: arrays of x >= 0.
"""

from __future__ import annotations

import numpy as np

__all__ = ["i1e"]

# Chebyshev coefficients of exp(-x) I1(x) / x on [0, 8]
_A = (
    2.7779141127610464e-18, -2.111421214358166e-17, 1.5536319577362005e-16,
    -1.1055969477353862e-15, 7.600684294735408e-15, -5.042185504727912e-14,
    3.223793365945575e-13, -1.9839743977649436e-12, 1.1736186298890901e-11,
    -6.663489723502027e-11, 3.625590281552117e-10, -1.8872497517228294e-09,
    9.381537386495773e-09, -4.445059128796328e-08, 2.0032947535521353e-07,
    -8.568720264695455e-07, 3.4702513081376785e-06, -1.3273163656039436e-05,
    4.781565107550054e-05, -0.00016176081582589674, 0.0005122859561685758,
    -0.0015135724506312532, 0.004156422944312888, -0.010564084894626197,
    0.024726449030626516, -0.05294598120809499, 0.1026436586898471,
    -0.17641651835783406, 0.25258718644363365,
)

# Chebyshev coefficients of exp(-x) sqrt(x) I1(x) on [8, inf), in 32/x - 2
_B = (
    7.517296310842105e-18, 4.414348323071708e-18, -4.6503053684893586e-17,
    -3.209525921993424e-17, 2.96262899764595e-16, 3.3082023109209285e-16,
    -1.8803547755107825e-15, -3.8144030724370075e-15, 1.0420276984128802e-14,
    4.272440016711951e-14, -2.1015418427726643e-14, -4.0835511110921974e-13,
    -7.198551776245908e-13, 2.0356285441470896e-12, 1.4125807436613782e-11,
    3.2526035830154884e-11, -1.8974958123505413e-11, -5.589743462196584e-10,
    -3.835380385964237e-09, -2.6314688468895196e-08, -2.512236237870209e-07,
    -3.882564808877691e-06, -0.00011058893876262371, -0.009761097491361469,
    0.7785762350182801,
)

def _chbevl(x: np.ndarray, coef) -> np.ndarray:
    """Clenshaw sum of a Chebyshev series, as Cephes `chbevl`:
    b0 = x b1 - b2 + c over the coefficients, then (b0 - b2) / 2."""
    b0 = np.full_like(x, coef[0])
    b1 = np.zeros_like(x)
    b2 = np.empty_like(x)
    for c in coef[1:]:
        b2, b1, b0 = b1, b0, b2
        np.multiply(x, b1, out=b0)
        b0 -= b2
        b0 += c
    return 0.5 * (b0 - b2)


def _small(x):
    return _chbevl(x / 2.0 - 2.0, _A) * x


def _large(x):
    return _chbevl(32.0 / x - 2.0, _B) / np.sqrt(x)


def i1e(x):
    """exp(-x) I1(x) for x >= 0, elementwise."""
    x = np.asarray(x, dtype=float)
    small = x <= 8.0
    if small.all():
        return _small(x)
    if not small.any():
        return _large(x)
    out = np.empty_like(x)
    out[small] = _small(x[small])
    large = ~small
    out[large] = _large(x[large])
    return out
