import itertools
import math

import numpy as np
import pytest

from cslwalk import (CONSTANTS, CslParams, Disc, DiscAspect, Environment,
                     Sphere, ValidationError, collision_stats,
                     csl_rms_rotation, csl_rms_translation,
                     evaluate_constraints, f_rot_disc, f_sphere, fig2_dataset,
                     fu_radiation_rate, ge_detector_rate,
                     ge_radiation_threshold, lambda_gravitational,
                     thermal_lambda_inv)
from cslwalk.constraints import (CONSTRAINT_LINES, DEFAULT_MAP_IDS,
                                 boundary_polylines, map_to_csv)
from cslwalk.core import ERG_PER_EV

GRW_LAMBDA_INV = 1e16
GRW_A = 1e-5


def test_canonical_point_pattern():
    res = evaluate_constraints(GRW_LAMBDA_INV, GRW_A)
    assert res["ge-radiation"] is True        # 1e6 > 0.4
    assert res["perception-time"] is True     # 1e16 < 4e19
    assert res["small-displacement"] is True  # 1e6 < 1.6e10
    assert res["rot-null"] is False           # 1e-4 < 1e2
    assert res["trans-null"] is False         # 1e6 < 1e12


def test_rot_null_would_exclude_canonical_values():
    # a null rotation experiment 1e3 times more sensitive than the canonical
    # prediction demands lambda_inv a^4 > 1e2; the canonical point gives 1e-4
    assert GRW_LAMBDA_INV * GRW_A ** 4 == pytest.approx(1e-4)
    assert not evaluate_constraints(GRW_LAMBDA_INV, GRW_A, ("rot-null",))["rot-null"]


def test_trans_null_conflicts_with_small_displacement():
    # lambda_inv a^2 > 1e12 and < 1.6e10 cannot both hold anywhere
    rng = np.random.default_rng(0)
    for _ in range(200):
        li = 10 ** rng.uniform(0, 25)
        a = 10 ** rng.uniform(-8, 0)
        res = evaluate_constraints(li, a, which=("trans-null", "small-displacement"))
        assert not (res["trans-null"] and res["small-displacement"])


def test_unknown_constraint_rejected():
    with pytest.raises(ValidationError):
        evaluate_constraints(1e16, 1e-5, which=("no-such-bound",))
    with pytest.raises(ValidationError):
        evaluate_constraints(-1.0, 1e-5)


def test_monotone_in_lambda_inv():
    # each one-sided bound flips exactly once along lambda_inv
    a = 1e-4
    for cid in CONSTRAINT_LINES:
        vals = [evaluate_constraints(10.0 ** e, a, (cid,))[cid]
                for e in np.linspace(-5, 30, 141)]
        flips = sum(1 for u, v in zip(vals, vals[1:]) if u != v)
        assert flips == 1, cid


def test_boundary_slopes():
    # boundaries are straight lines in log-log with slope -(a exponent)
    cmap = fig2_dataset([-6.0, -4.0], [0.0], which=tuple(CONSTRAINT_LINES))
    for cid, ((_, y1), (_, y2)) in boundary_polylines(cmap).items():
        slope = (y2 - y1) / 2.0
        a_power = CONSTRAINT_LINES[cid][0]
        assert slope == pytest.approx(-a_power, abs=1e-12)


def test_null_lines_follow_the_walk_above_the_body_size():
    # Each would-be null boundary derived from the collapse walk, whose rms
    # grows as sqrt(lam): rot-null where the reference disc turns pi/2 rms
    # in 45 min, trans-null where the 1e-5 cm sphere walks 1/1000 of its
    # canonical rms over its collision time at 4.2 K and 5e-17 Torr.
    # Measured: rot-null 80 at a = 1e-5 cm, 213 at 10^-4.5 and 240-243 from
    # 1e-4 up; trans-null 1.0e12 at 1e-5 and 1.5-1.6e12 above.  Below the
    # body size the factors fall steeply and both lines sit decades above the
    # walk's boundaries (at a = 1e-6 cm, 4 decades for rot-null and 3 for
    # trans-null), so the lines hold only from a = 1e-5 cm up.
    disc, sphere = Disc(2e-5, 0.5e-5, 1.0), Sphere(1e-5, 1.0)
    tau_c = collision_stats(sphere, Environment.from_torr(4.2, 5e-17))["tau_c"]
    grw = CslParams.grw()
    canonical = csl_rms_translation(grw, f_sphere(sphere.radius / grw.a).value,
                                    tau_c)
    for log10_a in np.arange(-5.0, 0.01, 0.5):
        probe = CslParams(lam=1e-16, a=10.0 ** log10_a)
        f_rot = f_rot_disc(DiscAspect.from_disc(disc, probe)).value
        f = f_sphere(sphere.radius / probe.a).value
        for cid, rms, goal in (
                ("rot-null", csl_rms_rotation(probe, f_rot, 2700.0), math.pi / 2),
                ("trans-null", csl_rms_translation(probe, f, tau_c),
                 canonical / 1e3)):
            a_power, threshold, _, _ = CONSTRAINT_LINES[cid]
            boundary = (rms / goal) ** 2 / probe.lam * probe.a ** a_power
            assert 1 / 3 < boundary / threshold < 3, (cid, log10_a, boundary)


# ---------------------------------------------------------------------------
# gravitational effective rate

def test_lambda_gravitational_value():
    lam_g = lambda_gravitational(1e-5)
    assert lam_g == pytest.approx(2e-23, rel=0.2, abs=0)
    # scales as 1/a
    assert lambda_gravitational(2e-5) == pytest.approx(lam_g / 2, rel=1e-12, abs=0)


def test_gravitational_rotation_prediction():
    # with lam ~ 2e-23 and f_rot ~ 1, the drift is ~1e-5 t^{3/2} rad:
    # (1.4, 11.2) rad at (45 min, 3 h)
    grav = CslParams(lam=2e-23, a=1e-5)
    assert csl_rms_rotation(grav, 1.0, 2700.0) == pytest.approx(1.4, rel=0.25)
    assert csl_rms_rotation(grav, 1.0, 10800.0) == pytest.approx(11.2, rel=0.25)
    # it also violates the perception-time bound
    assert not evaluate_constraints(1 / grav.lam, grav.a)["perception-time"]


# ---------------------------------------------------------------------------
# thermal-bath relation

def test_thermal_relation_line():
    assert thermal_lambda_inv(1e3, 1e-5) == pytest.approx(1e16, rel=1e-12)
    assert thermal_lambda_inv(1.0, 1e-5) == pytest.approx(1e13, rel=1e-12)
    with pytest.raises(ValidationError):
        thermal_lambda_inv(0.5, 1e-5)


def test_thermal_bath_energies():
    # kT of the 2.7 K cosmic bath and the collapse momentum-scale energy at
    # the GRW length a = 1e-5 cm, in eV
    kT_ev = CONSTANTS.k_boltzmann * 2.7 / ERG_PER_EV
    scale_ev = CONSTANTS.hbar ** 2 / (CONSTANTS.m_nucleon * 1.0e-5 ** 2) / ERG_PER_EV
    assert kT_ev == pytest.approx(2.5e-4, rel=0.1)
    assert scale_ev == pytest.approx(4e-9, rel=0.1)
    assert kT_ev / (50.0 * scale_ev) == pytest.approx(1e3, rel=0.2)


# ---------------------------------------------------------------------------
# germanium emission rate

def test_free_electron_emission_rate():
    # at the canonical parameters: 8.1e-38 counts/(s keV) at 1 keV,
    # falling as 1/E
    r1 = fu_radiation_rate(1.0, 1e-16, 1e-5)
    assert r1 == pytest.approx(8.1e-38, rel=0.05, abs=0)
    assert fu_radiation_rate(2.0, 1e-16, 1e-5) == pytest.approx(
        r1 / 2, rel=1e-12, abs=0)
    # rate scales as lam / a^2
    assert fu_radiation_rate(1.0, 2e-16, 1e-5) == pytest.approx(
        2 * r1, rel=1e-12, abs=0)


def test_detector_rate_and_threshold():
    # 2.1e-8 counts/(keV kg day) at 11 keV for the canonical parameters
    assert ge_detector_rate(1e-16, 1e-5) == pytest.approx(2.1e-8, rel=0.05)
    # the 0.05 counts/(keV kg day) limit translates to lambda_inv a^2 > ~0.4
    assert ge_radiation_threshold() == pytest.approx(0.4, rel=0.1)
    # the rate scales as lam / a^2, so every reference point gives the
    # same floor on lambda_inv a^2: rate(lam, a) a^2 / lam over the limit
    for lam, a in [(1e-16, 1e-5), (1e-10, 1e-7), (1e-20, 1e-3)]:
        assert ge_radiation_threshold() == pytest.approx(
            ge_detector_rate(lam, a) * a ** 2 / (0.05 * lam), rel=1e-14, abs=0)


# ---------------------------------------------------------------------------
# map dataset

def _default_map():
    a_grid = np.linspace(-7, 0, 71)
    l_grid = np.linspace(0, 22, 89)
    return fig2_dataset(a_grid, l_grid)


def test_map_wedge_and_conflict():
    cmap = _default_map()
    wedge = ("ge-radiation", "rot-null", "perception-time", "small-displacement")
    assert cmap.region_nonempty(wedge)
    assert not cmap.region_nonempty(wedge + ("trans-null",))


def test_map_grid_size_and_csv():
    cmap = fig2_dataset([-6, -5, -4], [14, 15, 16, 17])
    assert len(cmap.log10_a) * len(cmap.log10_lambda_inv) == 12
    text = map_to_csv(cmap)
    lines = text.strip().splitlines()
    assert lines[0] == "log10_a,log10_lambda_inv,c1,c2,c3,c4,c5"
    assert len(lines) == 13
    # canonical point row: pattern 1,0,1,1,0
    row = [ln for ln in lines if ln.startswith("-5,16,")]
    assert row == ["-5,16,1,0,1,1,0"]


def test_map_equals_the_per_point_bounds():
    # the lattice against evaluate_constraints at every point, with a
    # subset of the bounds
    la = [-7.0, -4.25, -2.5, -1.0, 0.0]
    ll = [0.0, 9.5, 12.0, 16.0, 22.0]
    # at log10 a = -2.5, log10 lambda_inv = 12, rot-null reads exactly 1e2,
    # which is not > 1e2
    assert 10.0 ** 12.0 * (10.0 ** -2.5) ** 4 == 100.0
    # at the float range's edges a ** 4 is 0 (1e-300), subnormal (1e-80) or
    # inf (1e300), and a ** 4 * lambda_inv overflows at 1e77 and 1e300
    edges = ([-300.0, -80.0, 77.0, 300.0], [-300.0, 0.0, 300.0])
    for (la, ll), which in itertools.product(
            ((la, ll), edges),
            (DEFAULT_MAP_IDS, tuple(CONSTRAINT_LINES), ("rot-null", "ge-radiation"),
             ())):
        cmap = fig2_dataset(la, ll, which=which)
        for i, lga in enumerate(la):
            for j, lgl in enumerate(ll):
                res = evaluate_constraints(10.0 ** lgl, 10.0 ** lga, which=which)
                assert cmap.passed[i][j] == tuple(res[cid] for cid in which)
    assert fig2_dataset([-2.5], [12.0], which=("rot-null",)).passed == (((False,),),)
    # one column per bound: a repeated id is rejected, not given a second one
    with pytest.raises(ValidationError, match="^constraint id 'rot-null' is repeated$"):
        fig2_dataset([-5.0], [16.0], which=("rot-null", "ge-radiation", "rot-null"))


def test_map_rejects_bad_grids():
    with pytest.raises(ValidationError):
        fig2_dataset([], [1.0])
    with pytest.raises(ValidationError):
        fig2_dataset([-5.0, -5.0], [1.0, 2.0])
    with pytest.raises(ValidationError):
        fig2_dataset([-5.0], [1.0], which=("bogus",))
    cmap = fig2_dataset([-6, -5], [10, 20])
    with pytest.raises(ValidationError, match="unknown constraint id 'bogus'"):
        cmap.region_nonempty(("bogus",))
    for grids in (([-5.0, math.nan], [1.0]), ([-5.0], [1.0, math.nan]),
                  ([-5.0], [-400.0])):
        with pytest.raises(ValidationError):
            fig2_dataset(*grids)
    # 1001 x 1000 points, one over the cap; rejected before the lattice exists
    with pytest.raises(ValidationError, match="1001000 points"):
        fig2_dataset(range(1001), range(1000))


def test_map_boundaries_and_metadata():
    cmap = fig2_dataset([-6, -5, -4], [10, 20])
    lines = boundary_polylines(cmap)
    assert set(lines) == set(DEFAULT_MAP_IDS)
    # ge-radiation boundary at a = 1e-5: lambda_inv = 0.4 / 1e-10
    pts = dict(lines["ge-radiation"])
    assert pts[-5.0] == pytest.approx(math.log10(0.4) + 10, rel=1e-9)
    meta = cmap.metadata()
    assert "CGS" in meta["convention"]
    assert list(meta["ids"]) == list(DEFAULT_MAP_IDS)
