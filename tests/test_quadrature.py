import math

import numpy as np
import pytest

from cslwalk import quadrature
from cslwalk._cephes import i1e_array
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
    val, err = integrate_2d(lambda x, y: x * y, 0.0, 1.0)
    assert val == pytest.approx(0.25, rel=1e-10)
    assert err >= 0.0
    assert integrate_2d(lambda x, y: x * y, 1.0, 1.0) == (0.0, 0.0)


@pytest.mark.parametrize("width", [0.5, 2.0, 3.0, 8.0, 9.0, 16.0, 30.0, 64.0,
                                   128.0])
def test_integrate_2d_resolves_the_ridge_from_its_first_panels(width):
    # the unit-width ridge of the rotation kernels: 24-point panels up to 4
    # wide integrate it to rounding, so the start of 4-unit panels loses
    # nothing; exact int_0^W int_0^W e^{-(x-y)^2} = W sqrt(pi) erf(W) + e^{-W^2} - 1
    val, err = integrate_2d(lambda x, y: np.exp(-((x - y) ** 2)), 0.0, width)
    exact = (width * math.sqrt(math.pi) * math.erf(width)
             + math.expm1(-width * width))
    assert val == pytest.approx(exact, rel=5e-14, abs=0)
    assert err <= 5e-14 * exact


def _integrate_2d_full_triangle(f, a, b):
    """integrate_2d as it was before the band: every strip of the upper
    triangle is evaluated out to the last column."""
    order = quadrature._ORDER_2D

    def estimate(panels):
        xn, xw = quadrature._composite_nodes(a, b, panels, order)
        n = xn.size
        vals = np.empty((n, n))
        for s in range(0, n, order):
            strip = f(xn[s:s + order, None], xn[None, s:])
            vals[s:s + order, s:] = strip
            vals[s + order:, s:s + order] = strip[:, order:].T
        return float(np.einsum("i,j,ij->", xw, xw, vals))

    return quadrature._refine(estimate, quadrature._start_panels_2d(a, b),
                              quadrature._MAX_PANELS_2D,
                              quadrature._REL_TOL_2D, "full triangle")


def _face_kernel(r, rp):
    return r ** 2 * rp ** 2 * np.exp(-((r - rp) ** 2)) * i1e_array(2.0 * r * rp)


def _edge_box_kernel(y, yp):
    return y * yp * np.exp(-((y - yp) ** 2))


@pytest.mark.parametrize("f, a, b, floor", [
    pytest.param(_face_kernel, 0.0, al, 0.1 * al ** 4, id=f"face-{al:g}")
    for al in (10.0, 16.0, 30.0, 40.0)
] + [
    pytest.param(_edge_box_kernel, -h, h, 0.9 * h ** 3, id=f"edge-box-{h:g}")
    for h in (9.0, 20.0)
] + [
    pytest.param(lambda x, y: np.exp(-((x - y) ** 2)), 0.0, 30.0, 0.0,
                 id="ridge-30"),
])
def test_integrate_2d_band_changes_no_bit(f, a, b, floor):
    # the pairs more than 8 apart, left out of the band, weigh below
    # 2^-60 of the estimate, whose floor the docstring's bound assumes
    band, full = [], []

    def counted(calls):
        def g(x, y):
            calls.append(np.broadcast(x, y).size)
            return f(x, y)
        return g

    got = integrate_2d(counted(band), a, b)
    assert got == _integrate_2d_full_triangle(counted(full), a, b)
    assert got[0] > floor
    assert sum(band) < sum(full)          # the band left pairs out


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
