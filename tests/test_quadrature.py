import math

import numpy as np
import pytest

from cslwalk.errors import ConvergenceError
from cslwalk.quadrature import integrate_1d, integrate_2d

from conftest import planck_moment


def test_integrate_1d_polynomial_and_gaussian():
    val, err = integrate_1d(lambda x: x ** 2, 0.0, 1.0)
    assert val == pytest.approx(1.0 / 3.0, rel=1e-12, abs=0)
    val, _ = integrate_1d(lambda x: np.exp(-x ** 2), 0.0, 10.0)
    assert val == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-10)
    assert integrate_1d(lambda x: x, 1.0, 1.0) == (0.0, 0.0)


def test_integrate_2d_separable():
    val, err = integrate_2d(lambda x, y: x * y, 0.0, 1.0, 0.0, 1.0)
    assert val == pytest.approx(0.25, rel=1e-10)
    assert err >= 0.0
    # ridge kernel over a wide domain, the shape the unit starting panel
    # width exists for
    val, _ = integrate_2d(lambda x, y: np.exp(-((x - y) ** 2)), 0.0, 30.0,
                          0.0, 30.0)
    # int over square ~ sqrt(pi) * L - 1 for L >> 1
    assert val == pytest.approx(math.sqrt(math.pi) * 30.0 - 1.0, rel=1e-4)
    assert integrate_2d(lambda x, y: x * y, 1.0, 1.0, 1.0, 1.0) == (0.0, 0.0)


def test_integrate_2d_rejects_a_non_square_domain():
    # the half-grid evaluation mirrors f(x, y) into f(y, x)
    for box in ((0.0, 1.0, 0.0, 2.0), (0.0, 1.0, 0.5, 1.5), (0.0, 1.0, 1.0, 0.0)):
        with pytest.raises(ValueError, match="square"):
            integrate_2d(lambda x, y: x * y, *box)


def test_integrate_1d_reports_nonconvergence():
    # a discontinuous integrand cannot meet 1e-12; refinement stops at the
    # 4096-panel cap (32 nodes a panel) instead of doubling once past it
    sizes = []

    def f(x):
        sizes.append(x.size)
        return np.where(np.sin(50.0 / (x + 1e-3)) > 0, 1.0, 0.0)

    with pytest.raises(ConvergenceError) as err:
        integrate_1d(f, 0.0, 1.0, rel_tol=1e-12)
    assert err.value.achieved is not None and err.value.achieved > 0
    assert max(sizes) == 4096 * 32


def test_planck_tail_values_and_tail_bound():
    # closed forms n! zeta(n)
    assert planck_moment(4) == pytest.approx(24.0 * math.pi ** 4 / 90.0, rel=1e-8)
    assert planck_moment(8) == pytest.approx(
        math.factorial(8) * 1.00407735, rel=1e-6)   # 8! zeta(8)
    # the [0, 200] truncation loses far less than the 1e-12 budget
    assert planck_moment(8, z_max=200.0) == pytest.approx(
        planck_moment(8, z_max=400.0), rel=1e-12)
