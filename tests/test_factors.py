import math
import time
import tracemalloc

import numpy as np
import pytest

from cslwalk import (CslParams, Disc, DiscAspect, Sphere, ValidationError,
                     f_disc_edge, f_disc_perp, f_mc_oracle, f_rot_disc,
                     f_sphere, fig1_dataset)
from cslwalk.factors import fig1_to_csv, small_body_rotation_limit
from cslwalk.oracle import f_mc_oracle_aspect

from conftest import disc_thickness, poisson_disc_radial


# ---------------------------------------------------------------------------
# sphere translation factor

def test_f_sphere_anchor_values():
    assert f_sphere(1.0).value == pytest.approx(0.62, abs=0.005)
    assert f_sphere(1e-4).value == pytest.approx(1.0, abs=1e-6)
    # deep quadratic falloff: f ~ 6/x^4 within 1% for x >= 10
    for x in (10.0, 30.0, 100.0):
        assert f_sphere(x).value == pytest.approx(6.0 / x ** 4, rel=0.02)
    assert f_sphere(10.0).value == pytest.approx(5.88e-4, rel=0.01)


def test_f_sphere_series_and_closed_form_agree_at_switch():
    for x in (0.4, 0.4999, 0.5001, 0.7):
        ix2 = 1.0 / (x * x)
        closed = 6 * ix2 * ix2 * (1 - 2 * ix2 + (1 + 2 * ix2) * math.exp(-x * x))
        assert f_sphere(x).value == pytest.approx(closed, rel=1e-9)


def test_f_sphere_monotonically_decreasing():
    xs = np.geomspace(1e-3, 50.0, 400)
    vals = [f_sphere(float(x)).value for x in xs]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[0] < 1.0 and vals[0] == pytest.approx(1.0, abs=1e-5)


def test_f_sphere_rejects_nonpositive():
    with pytest.raises(ValidationError):
        f_sphere(0.0)


# ---------------------------------------------------------------------------
# disc translation factors

def test_disc_factors_small_body_limit():
    tiny = DiscAspect(0.02, 0.01)
    assert f_disc_perp(tiny).value == pytest.approx(1.0, abs=0.01)
    assert f_disc_edge(tiny).value == pytest.approx(1.0, abs=0.02)


def test_disc_perp_thin_wide_limit():
    # thin wide disc: f -> (2a/L)^2 = 1/alpha^2; the finite-size correction
    # is O(1/alpha), still ~6% at alpha = 10 and tightening from there
    assert f_disc_perp(DiscAspect(10.0, 0.01)).value == pytest.approx(
        1.0 / 100.0, rel=0.06)
    assert f_disc_perp(DiscAspect(30.0, 0.01)).value == pytest.approx(
        1.0 / 900.0, rel=0.02)


def test_disc_edge_thin_wide_limit():
    # f -> (4/sqrt(pi)) (a/L)^3 = 1/(2 sqrt(pi) alpha^3)
    for alpha in (5.0, 10.0):
        aspect = DiscAspect(alpha, 0.01)
        target = 1.0 / (2.0 * math.sqrt(math.pi) * alpha ** 3)
        assert f_disc_edge(aspect).value == pytest.approx(target, rel=0.05)


def test_disc_factor_reference_point():
    # frozen closed-form values, cross-validated by the MC oracle
    assert f_disc_perp(DiscAspect(1.0, 0.25)).value == pytest.approx(0.46165, rel=1e-4)
    assert f_disc_edge(DiscAspect(1.0, 0.25)).value == pytest.approx(0.21305, rel=1e-4)
    for f in (f_disc_perp, f_disc_edge):
        res = f(DiscAspect(1.0, 0.25))
        assert res.method == "analytic" and res.est_error == 0.0


def test_disc_translation_factors_match_bessel_forms():
    # the factors against scipy's scaled-Bessel closed forms; the perp form
    # alpha^-2 [1 - (i0e + i1e)(2 alpha^2)] cancels below alpha ~ 0.1, and
    # up to alpha = 1 the perp factor sums its Poisson series instead
    from scipy.special import i0e, i1e
    for alpha in np.geomspace(0.1, 1e3, 41):
        x = float(alpha) ** 2
        rel = 1e-12 if alpha <= 30.0 else 1e-9
        for beta in (0.05, 1.0):
            aspect = DiscAspect(float(alpha), beta)
            thick = -math.expm1(-beta * beta) / (beta * beta)
            perp = (1.0 - (i0e(2 * x) + i1e(2 * x))) / x * thick
            assert f_disc_perp(aspect).value == pytest.approx(perp, rel=rel, abs=0)
            bracket = (beta * math.sqrt(math.pi) * math.erf(beta) - 1.0
                       + math.exp(-beta * beta)) / (beta * beta)
            edge = i1e(2 * x) / x * bracket
            assert f_disc_edge(aspect).value == pytest.approx(edge, rel=rel, abs=0)
    assert f_disc_perp(DiscAspect(1e-4, 1e-4)).value == pytest.approx(1.0, abs=1e-7)


def test_disc_edge_small_beta_series():
    # e^{-2} I1(2) [beta sqrt(pi) erf(beta) - 1 + e^{-beta^2}] / beta^2 at
    # alpha = 1, evaluated with mpmath at 50 digits
    mp_values = {1e-4: 0.21526928889015551113,
                 1e-6: 0.21526928924890178094,
                 1e-8: 0.21526928924893765557}
    for beta, expected in mp_values.items():
        assert f_disc_edge(DiscAspect(1.0, beta)).value == pytest.approx(
            expected, rel=1e-12, abs=0), beta
    # the closed form from beta = 0.1 up: its bits, and within 2 ulps of
    # the 40-digit value
    for beta, bits, expected in ((0.25, 0.21305462085713212, 0.213054620857132079),
                                 (1.0, 0.1854604571103059, 0.18546045711030587855)):
        value = f_disc_edge(DiscAspect(1.0, beta)).value
        assert value == bits, beta
        assert abs(value - expected) <= 2 * math.ulp(expected), beta


# (alpha, beta): (f_disc_perp, f_disc_edge) from 60-digit mpmath, rounded to
# 20 digits: the perp factor's radial part as the sum of squared regularized
# incomplete gammas (P(N >= k) = P(k, alpha^2)) up to alpha = 1 and from
# besseli above, the edge factor's from besseli; the thickness brackets in
# closed form
MPMATH_DISC_FACTORS = {
    (1e-150, 1.0): (0.6321205588285576784, 0.86152770679629637239),
    (1e-3, 0.05): (0.99875004226574166111, 0.99958154240911268002),
    (0.01, 0.05): (0.99865117423419156205, 0.99938364985263848417),
    (0.3, 1.0): (0.57924157198481120529, 0.7225267810489957684),
    (2.0, 0.05): (0.18038086118777274611, 0.033521657130260280793),
    (30.0, 1.0): (0.00068914835922138585131, 8.9993273516720123008e-6),
    (1e3, 0.25): (9.6884407471681475751e-7, 2.7919257711025434136e-10),
}


def test_disc_translation_factors_match_mpmath_values():
    for (alpha, beta), (perp, edge) in MPMATH_DISC_FACTORS.items():
        aspect = DiscAspect(alpha, beta)
        assert f_disc_perp(aspect).value == pytest.approx(perp, rel=1e-15, abs=0), alpha
        assert f_disc_edge(aspect).value == pytest.approx(edge, rel=1e-15, abs=0), alpha


def test_disc_translation_factors_match_poisson_sums():
    # the closed forms (and the perp factor's own series up to alpha = 1)
    # against the Poisson-window sums of conftest, from small bodies to
    # discs 1e5 times the collapse length
    for alpha in np.geomspace(1e-3, 1e5, 25):
        alpha = float(alpha)
        perp_radial, edge_radial = poisson_disc_radial(alpha)
        for beta in (1e-9, 0.05, 0.25, 1.0, 20.0):
            perp_thick, edge_thick = disc_thickness(beta)
            aspect = DiscAspect(alpha, beta)
            assert f_disc_perp(aspect).value == pytest.approx(
                perp_radial * perp_thick, rel=3e-15, abs=0), (alpha, beta)
            assert f_disc_edge(aspect).value == pytest.approx(
                edge_radial * edge_thick, rel=3e-15, abs=0), (alpha, beta)


def test_disc_translation_factors_reject_alpha_outside_window():
    for f in (f_disc_perp, f_disc_edge):
        assert 0.0 < f(DiscAspect(1e4, 1.0)).value < 1e-8
        assert f(DiscAspect(1e-150, 1.0)).value == pytest.approx(
            f(DiscAspect(1e-4, 1.0)).value, rel=1e-7)
        # no cap above: the closed forms hold for any disc
        value = f(DiscAspect(2e4, 1.0)).value
        assert math.isfinite(value) and value > 0.0
        with pytest.raises(ValidationError, match="alpha"):
            f(DiscAspect(1e-200, 1.0))
        # beta^2 underflows: the thickness factor takes its beta -> 0 limit
        assert f(DiscAspect(1.0, 1e-200)).value == f(DiscAspect(1.0, 1e-9)).value
    # alpha^4 underflows in the rotation prefactor
    with pytest.raises(ValidationError, match="prefactor"):
        f_rot_disc(DiscAspect(1e-100, 1e-100))


def test_rotation_factor_rejects_sizes_beyond_its_quadrature():
    # past 128 the 2-D rule's band bound is not argued, and far past it the
    # rule stops unconverged at its cap of 256 panels (a 300-MB grid); a 1-cm
    # disc at a = 1e-5 cm has alpha = 5e4
    for alpha, beta in ((128.5, 0.25), (5e4, 0.25), (100.0, 200.0)):
        with pytest.raises(ValidationError, match="at most 128"):
            f_rot_disc(DiscAspect(alpha, beta))


@pytest.mark.parametrize("alpha,beta", [(math.inf, 1.0), (1.0, math.inf),
                                        (math.nan, 1.0), (1.0, math.nan),
                                        (0.0, 1.0), (1.0, -1.0)])
def test_disc_aspect_rejects_nonpositive_and_nonfinite(alpha, beta):
    with pytest.raises(ValidationError):
        DiscAspect(alpha, beta)


def test_factor_values_are_plain_floats():
    aspect = DiscAspect(1.0, 0.25)
    for res in (f_sphere(1.0), f_sphere(0.25), f_disc_perp(aspect),
                f_disc_edge(aspect), f_rot_disc(aspect),
                f_mc_oracle_aspect(aspect, "rotate", n_samples=10_000, seed=1)):
        assert type(res.value) is float, res
        assert type(res.est_error) is float, res


def test_disc_aspect_from_disc():
    disc = Disc(radius=2e-5, thickness=0.5e-5, density=1.0)
    aspect = DiscAspect.from_disc(disc, CslParams.grw())
    assert aspect.alpha == pytest.approx(1.0)
    assert aspect.beta == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# rotation factor

def test_f_rot_reference_point():
    res = f_rot_disc(DiscAspect(1.0, 0.25))
    assert res.value == pytest.approx(1.0 / 3.0, rel=0.15)
    assert res.value == pytest.approx(0.30194, rel=1e-3)    # frozen
    assert res.est_error < 1e-4


def test_f_rot_bit_identical_at_readme_inputs():
    # (value, est_error) at the README fig1 / diffuse inputs: the
    # quadrature's arithmetic is frozen, and the cross term's yint is its
    # series below beta 0.5
    pinned = {0.5: (0.512152793402218, 1.025040039103285e-15),
              1.0: (0.30193531572340787, 3.614884937942769e-16),
              2.0: (0.05700003120766442, 3.328511075411697e-17)}
    for alpha, expected in pinned.items():
        res = f_rot_disc(DiscAspect(alpha, 0.25))
        assert (res.value, res.est_error) == expected, alpha


def test_f_rot_bit_identical_on_wide_discs():
    # the widest grids at the 2-D rule's start of 4-unit panels; the values
    # of the earlier start of 1-unit panels (the old pins) bound the shift,
    # since either start integrates the kernels to rounding
    pinned = {(8.0, 0.05): (0.00041920520027993925, 2.7070566950127616e-19),
              (30.0, 1.0): (1.5003842540527614e-06, 1.793389267573305e-21)}
    unit_panels = {(8.0, 0.05): 0.0004192052002799384,
                   (30.0, 1.0): 1.5003842540527616e-06}
    for (alpha, beta), expected in pinned.items():
        res = f_rot_disc(DiscAspect(alpha, beta))
        assert (res.value, res.est_error) == expected, (alpha, beta)
        old = unit_panels[alpha, beta]
        assert abs(res.value - old) <= 5e-15 * old, (alpha, beta)


def test_f_rot_at_the_size_cap_starts_at_4_unit_panels():
    # alpha = beta = 128: the 2-D rule starts at 32 panels and stops at 64
    # (a 1536^2 node matrix, 19 MB); one panel per unit width took 128 and
    # 256 panels and a traced peak of 303 MB
    tracemalloc.start()
    try:
        res = f_rot_disc(DiscAspect(128.0, 128.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6
    assert res.method == "quadrature"
    old = 2.9212120318539045e-13       # the value of the 1-unit start
    assert abs(res.value - old) <= 5e-15 * old


def test_f_rot_small_disc_is_the_small_body_limit():
    t0 = time.perf_counter()
    res = f_rot_disc(DiscAspect(1e-6, 1e-6))
    assert time.perf_counter() - t0 < 0.01
    assert res.method == "analytic"
    assert res.est_error == pytest.approx(4.0 / 3.0 * 2e-12, rel=1e-12, abs=0)
    assert abs(res.value - 0.25) <= res.est_error
    # the bound (4/3)(alpha^2 + beta^2) on the next-order term covers the
    # quadrature's departure from the limit at every shape, where the
    # quadrature still converges
    size = 3e-3
    for ratio in (0.01, 0.1, 0.5, 1.0, math.sqrt(3.0), 4.0, 10.0, 100.0):
        al = size / math.sqrt(1.0 + ratio ** 2)
        aspect = DiscAspect(al, ratio * al)
        dev = abs(f_rot_disc(aspect).value - small_body_rotation_limit(aspect))
        assert dev <= 4.0 / 3.0 * size ** 2, ratio


def test_f_rot_thin_disc_takes_the_edge_band_series():
    # at beta = 1e-8 the edge-band quadrature never converged; its series
    # continues the value at beta = 1e-5, where the beta^2 correction is ~1e-10
    f_rot_disc(DiscAspect(1.0, 0.25))            # numpy and quadrature loaded
    t0 = time.perf_counter()
    res = f_rot_disc(DiscAspect(1.0, 1e-8))
    assert time.perf_counter() - t0 < 0.05
    assert res.value == pytest.approx(0.33542813123091064, rel=1e-9, abs=0)
    assert f_rot_disc(DiscAspect(1.0, 1e-5)).value == 0.33542813123091064
    # the value pinned before yint took its series, 3 ulps higher, is this
    # one with the cancelling closed form of yint put back into f3
    from cslwalk.factors import _rot_surface_pieces

    al, be = 1.0, 1e-5
    h = be / 2.0
    (f1, f2, f3), _ = _rot_surface_pieces(DiscAspect(al, be))
    closed = (h * 0.5 * math.sqrt(math.pi) * math.erf(2.0 * h)
              - 0.5 * (-math.expm1(-4.0 * h * h)))
    series = 4.0 / 3.0 * h ** 4 - 32.0 / 15.0 * h ** 6
    pref = (4.0 / ((1.0 + be * be / (3.0 * al * al)) * be * al ** 4)) ** 2
    assert float(pref * (f1 + f2 + f3 * (closed / series))) == 0.3354281312309108
    # the edge-band series (beta < 1e-3) meets the quadrature at the switch:
    # g / beta^6 = (1/72)(1 - (6/5) h^2 + ...) moves by < 1e-10 across it

    def band_over_beta6(beta):
        (_, f2, _), _ = _rot_surface_pieces(DiscAspect(1.0, beta))
        return f2 / beta ** 6

    assert band_over_beta6(0.9999e-3) == pytest.approx(
        band_over_beta6(1e-3), rel=1e-9, abs=0)


def test_f_rot_cross_term_is_exact_on_thin_discs():
    # f3 = -2 alpha rint yint, and rint does not depend on beta, so
    # f3(1, beta) / f3(1, 1) = yint(beta/2) / yint(1/2), with
    # yint(h) = h (sqrt(pi)/2) erf(2h) - (1 - e^{-4h^2}) / 2 by mpmath at
    # 50 digits; the closed form cancels to 3e-13 at beta = 0.05, 8e-8 at
    # 1e-4, and to 1.4e-13, 2.1e-14 and 3.6e-15 at beta 0.1, 0.25 and 0.45;
    # a series cut after 10 terms would be 4.3e-15 off at 0.49
    from cslwalk.factors import _rot_surface_pieces
    mp_ratios = {1e-4: (1.4530206881211754946e-16, 1e-13),
                 1e-2: (1.452962574662276522e-8, 1e-13),
                 0.05: (9.0723040358746738266e-6, 1e-13),
                 0.1: (1.4472241470019992862e-4, 2e-15),
                 0.25: (5.536310565432335656e-3, 2e-15),
                 0.45: (5.5007865623158227653e-2, 2e-15),
                 0.49: (7.6211708080407810453e-2, 2e-15)}
    (_, _, f3_one), _ = _rot_surface_pieces(DiscAspect(1.0, 1.0))
    for beta, (expected, rel) in mp_ratios.items():
        (_, _, f3), _ = _rot_surface_pieces(DiscAspect(1.0, beta))
        assert f3 / f3_one == pytest.approx(expected, rel=rel, abs=0), beta


def test_f_rot_piece_signs():
    # face and edge contributions are nonnegative, the cross term is
    # nonpositive, and the total stays nonnegative, at every aspect probed
    from cslwalk.factors import _rot_surface_pieces
    for al, be in [(0.25, 0.25), (1.0, 0.25), (1.0, 1.0), (2.0, 3.0), (4.0, 1.0)]:
        (f1, f2, f3), _ = _rot_surface_pieces(DiscAspect(al, be))
        assert f1 >= 0 and f2 >= 0 and f3 <= 0, (al, be, f1, f2, f3)
        assert f1 + f2 + f3 >= 0, (al, be)
        assert f_rot_disc(DiscAspect(al, be)).value >= 0


def test_f_rot_small_body_closed_form():
    for al, be in [(0.05, 0.0125), (0.1, 0.05), (0.08, 0.1)]:
        aspect = DiscAspect(al, be)
        assert f_rot_disc(aspect).value == pytest.approx(
            small_body_rotation_limit(aspect), rel=0.02)
    # moment-isotropic body (b^2/12 = L^2/4) has no rotation signal
    iso = DiscAspect(0.05, 0.05 * math.sqrt(3.0))
    assert f_rot_disc(iso).value == pytest.approx(0.0, abs=1e-4)


def test_sphere_has_no_rotation_factor():
    # rotationally symmetric body: the oracle average vanishes within noise
    res = f_mc_oracle(Sphere(1e-5, 1.0), CslParams.grw(), "rotate",
                      n_samples=400_000, seed=3)
    assert abs(res.value) < 3 * res.est_error


# ---------------------------------------------------------------------------
# quadrature vs Monte Carlo oracle across the grid

GRID = [(a, b) for a in (0.25, 1.0, 4.0) for b in (0.25, 1.0, 4.0)]


@pytest.mark.parametrize("alpha,beta", GRID)
def test_perp_factor_matches_oracle(alpha, beta):
    aspect = DiscAspect(alpha, beta)
    quad = f_disc_perp(aspect)
    mc = f_mc_oracle_aspect(aspect, "translate-perp",
                            n_samples=1_000_000, seed=11)
    err = math.hypot(quad.est_error, mc.est_error)
    assert abs(quad.value - mc.value) < 3 * err


@pytest.mark.parametrize("alpha,beta", GRID)
def test_edge_factor_matches_oracle(alpha, beta):
    aspect = DiscAspect(alpha, beta)
    closed = f_disc_edge(aspect)
    mc = f_mc_oracle_aspect(aspect, "translate-edge",
                            n_samples=1_000_000, seed=12)
    assert abs(closed.value - mc.value) < 3 * mc.est_error


@pytest.mark.parametrize("alpha,beta", GRID)
def test_rotation_factor_matches_oracle(alpha, beta):
    aspect = DiscAspect(alpha, beta)
    quad = f_rot_disc(aspect)
    mc = f_mc_oracle_aspect(aspect, "rotate", n_samples=1_000_000, seed=13)
    err = math.hypot(quad.est_error, mc.est_error)
    assert abs(quad.value - mc.value) < 3 * err


def test_factor_scale_invariance():
    # factors depend only on the dimensionless aspect, not on a itself
    aspect = DiscAspect(1.0, 0.25)
    for a in (1e-6, 1e-5, 1e-4):
        disc = Disc(radius=2 * a * aspect.alpha, thickness=2 * a * aspect.beta,
                    density=1.0)
        mc = f_mc_oracle(disc, CslParams(lam=1e-16, a=a), "rotate",
                         n_samples=200_000, seed=5)
        assert mc.value == pytest.approx(0.302, abs=4 * mc.est_error)


# ---------------------------------------------------------------------------
# grid dataset

def test_fig1_dataset_shape_and_reference_value():
    data = fig1_dataset(alphas=[0.5, 1.0, 2.0], betas=[0.25, 1.0])
    assert len(data["rows"]) == 6
    point = {(a, b): v for a, b, v, _ in data["rows"]}
    assert point[(1.0, 0.25)] == pytest.approx(1.0 / 3.0, rel=0.15)
    # f_rot falls with alpha in the disc-like part of the grid
    assert point[(2.0, 0.25)] < point[(1.0, 0.25)] < point[(0.5, 0.25)]
    assert data["monotonic_in_alpha"][0.25] is True


def test_fig1_rejects_empty_grid():
    with pytest.raises(ValidationError):
        fig1_dataset([], [0.25])


def test_fig1_csv_format():
    text = fig1_to_csv(fig1_dataset([1.0], [0.25]))
    lines = text.strip().splitlines()
    assert lines[0] == "alpha,beta,f_rot,est_error"
    assert lines[1].startswith("1,0.25,0.30")
