from functools import partial

import pytest

from cslwalk import CslParams, Disc, Sphere, ValidationError, f_mc_oracle
from cslwalk.oracle import f_mc_oracle_aspect
from cslwalk.factors import (DiscAspect, f_disc_edge, f_disc_perp, f_rot_disc,
                             f_sphere)


def test_sphere_oracle_matches_analytic():
    res = f_mc_oracle(Sphere(1e-5, 1.0), CslParams.grw(), "translate",
                      n_samples=1_000_000, seed=1)
    assert abs(res.value - 0.62183) < 3 * res.est_error
    assert res.method == "monte-carlo"
    assert res.est_error > 0


def test_oracle_is_deterministic_given_seed():
    body = Sphere(1e-5, 1.0)
    a = f_mc_oracle(body, CslParams.grw(), "translate", n_samples=300_000, seed=9)
    b = f_mc_oracle(body, CslParams.grw(), "translate", n_samples=300_000, seed=9)
    assert a.value == b.value and a.est_error == b.est_error
    c = f_mc_oracle(body, CslParams.grw(), "translate", n_samples=300_000, seed=10)
    assert c.value != a.value


def test_oracle_worker_count_invariance():
    aspect = DiscAspect(1.0, 0.25)
    seq = f_mc_oracle_aspect(aspect, "rotate", n_samples=400_000, seed=4,
                             block_size=50_000, workers=1)
    par = f_mc_oracle_aspect(aspect, "rotate", n_samples=400_000, seed=4,
                             block_size=50_000, workers=4)
    assert seq.value == par.value
    assert seq.est_error == par.est_error
    # a partial last block: 230_001 = 4 x 50_000 + 30_001
    runs = [f_mc_oracle_aspect(aspect, "translate-edge", n_samples=230_001,
                               seed=6, block_size=50_000, workers=w)
            for w in (1, 2, 4)]
    assert len({(r.value, r.est_error) for r in runs}) == 1


def test_oracle_error_shrinks_with_samples():
    body = Sphere(1e-5, 1.0)
    small = f_mc_oracle(body, CslParams.grw(), "translate", n_samples=100_000, seed=2)
    big = f_mc_oracle(body, CslParams.grw(), "translate", n_samples=1_600_000, seed=2)
    assert big.est_error == pytest.approx(small.est_error / 4.0, rel=0.2)


def test_oracle_mode_validation():
    sphere = Sphere(1e-5, 1.0)
    disc = Disc(2e-5, 0.5e-5, 1.0)
    grw = CslParams.grw()
    with pytest.raises(ValidationError):
        f_mc_oracle(sphere, grw, "translate-perp", n_samples=1000)
    with pytest.raises(ValidationError):
        f_mc_oracle(disc, grw, "translate", n_samples=1000)
    with pytest.raises(ValidationError):
        f_mc_oracle(sphere, grw, "spin", n_samples=1000)
    with pytest.raises(ValidationError):
        f_mc_oracle(sphere, grw, "translate", n_samples=1000, seed=-1)
    for kw in ({"block_size": 0}, {"block_size": -5}, {"workers": 0},
               {"workers": -2}):
        with pytest.raises(ValidationError):
            f_mc_oracle(sphere, grw, "translate", n_samples=1000, **kw)


# The four bench points, against the factor route.  Each estimate's pull
# (value - truth) / est_error must look standard normal over 400 seeds if
# est_error is an honest standard error of the quartet means: the gates are
# binomial 3-sigma bands for 400 draws (68.27% within 1, 95.45% within 2,
# 0.27% beyond 3).
@pytest.mark.parametrize("mode", ["translate", "translate-perp", "translate-edge",
                                  "rotate"])
def test_oracle_pulls_are_standard_normal(mode):
    aspect = DiscAspect(1.0, 0.25)
    if mode == "translate":
        truth = f_sphere(1.0).value
        draw = partial(f_mc_oracle, Sphere(1e-5, 1.0), CslParams.grw(), mode)
    else:
        truth = {"translate-perp": f_disc_perp, "translate-edge": f_disc_edge,
                 "rotate": f_rot_disc}[mode](aspect).value
        draw = partial(f_mc_oracle_aspect, aspect, mode)
    pulls = []
    for seed in range(400):
        res = draw(n_samples=20_000, seed=seed)
        pulls.append(abs(res.value - truth) / res.est_error)
    within1 = sum(p < 1 for p in pulls) / 400
    within2 = sum(p < 2 for p in pulls) / 400
    assert 0.613 <= within1 <= 0.753, within1
    assert 0.923 <= within2 <= 0.985, within2
    assert sum(p > 3 for p in pulls) <= 4


# (value, est_error) as float.hex, captured when each of the four mirror
# images was evaluated on its own; 50_001 pairs in blocks of 40_000 are a
# block of two 2^13-quartet sub-blocks and a partial last block
_QUARTET_PINS = {
    ("disc", "translate-perp"): ("0x1.d8e6b59db1d7bp-2", "0x1.3762e8a866cb9p-10"),
    ("disc", "translate-edge"): ("0x1.b44afbdaaba2dp-3", "0x1.e9bca8865af7ap-10"),
    ("disc", "rotate"): ("0x1.34c3fa15be228p-2", "0x1.1280215582c10p-8"),
    ("sphere", "translate"): ("0x1.3d5f5738d268cp-1", "0x1.210b3c177d5eep-10"),
    ("sphere", "rotate"): ("-0x1.654504e3d5c2fp-7", "0x1.282e7699860b9p-8"),
    ("rod", "translate-perp"): ("0x1.8f142a8a9db8cp-3", "0x1.19d0bb1420975p-9"),
    ("rod", "translate-edge"): ("0x1.980737b1a6309p-2", "0x1.4803f228d0b4ap-10"),
    ("rod", "rotate"): ("0x1.f601be4882274p-4", "0x1.19f59d757ae4bp-9"),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("shape, mode", list(_QUARTET_PINS))
def test_oracle_quartets_keep_the_bits_of_separate_images(shape, mode, workers):
    kw = dict(n_samples=50_001, seed=11, block_size=40_000, workers=workers)
    if shape == "sphere":
        res = f_mc_oracle(Sphere(1e-5, 1.0), CslParams.grw(), mode, **kw)
    else:
        # the rod-like aspect has beta > 2 alpha
        aspect = DiscAspect(1.0, 0.25) if shape == "disc" else DiscAspect(0.5, 2.0)
        res = f_mc_oracle_aspect(aspect, mode, **kw)
    assert (res.value.hex(), res.est_error.hex()) == _QUARTET_PINS[shape, mode]
