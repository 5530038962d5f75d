import contextlib
import hashlib
import io
import json
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cslwalk.cli import main
from cslwalk.errors import ConvergenceError

GOLDEN_TABLE1 = (
    "R_cm,dq_cm_t10,dq_cm_t1000,dq_cm_t100000\r\n"
    "1e-06,8e-06,8e-03,8e+00\r\n"
    "1e-05,6e-06,6e-03,6e+00\r\n"
    "1e-04,2e-07,2e-04,2e-01\r\n"
    "1e-02,2e-11,2e-08,2e-05\r\n"
    "1e+00,2e-15,2e-12,2e-09\r\n"
)

GOLDEN_TABLE2 = (
    "R_cm,s_inf_cm,tau_s_s\r\n"
    "1e-06,7e-05,2e+01\r\n"
    "1e-05,4e-07,7e-01\r\n"
    "1e-04,1e-08,7e-01\r\n"
    "1e-02,4e-11,7e+00\r\n"
    "1e+00,1e-13,7e+01\r\n"
)


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_table1_golden_bytes(capsys):
    rc, out, _ = run(capsys, ["table1", "--paper-format"])
    assert rc == 0
    assert out == GOLDEN_TABLE1


def test_table2_golden_bytes(capsys):
    rc, out, _ = run(capsys, ["table2", "--paper-format"])
    assert rc == 0
    assert out == GOLDEN_TABLE2


def test_table1_default_precision(capsys):
    rc, out, _ = run(capsys, ["table1"])
    assert rc == 0
    assert "6.41883e-06" in out    # six significant digits by default


def test_json_documents_are_schema_stable(capsys):
    for argv in (["table1", "--json"], ["table2", "--json"],
                 ["collide", "--sphere-radius", "1e-5", "--temperature",
                  "4.2K", "--pressure", "5e-17Torr", "--json"]):
        rc, out, _ = run(capsys, argv)
        assert rc == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["command"] in ("table1", "table2", "collide")
        # canonical form: sorted keys, 2-space indent
        assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_constants_dump(capsys):
    rc, out, _ = run(capsys, ["--constants"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["hbar_erg_s"] == 1.0546e-27
    assert doc["unit_system"].startswith("CGS")
    assert doc["torr_in_dyn_per_cm2"] == 1333.22


def test_collide_reference_disc(capsys):
    rc, out, _ = run(capsys, ["collide", "--disc-radius", "2du",
                              "--disc-thickness", ".5du",
                              "--temperature", "4.2K",
                              "--pressure", "5e-17Torr", "--json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["result"]["tau_c_min"] == pytest.approx(45.0, rel=0.15)
    assert doc["result"]["omega_kick_rad_s"] == pytest.approx(8.0, rel=0.2)


def test_collide_accepts_greek_mu_unit(capsys):
    rc, out, _ = run(capsys, ["collide", "--disc-radius", "2dμ",
                              "--disc-thickness", ".5dμ",
                              "--temperature", "4.2K",
                              "--pressure", "5e-17Torr", "--json"])
    assert rc == 0
    assert json.loads(out)["result"]["tau_c_min"] == pytest.approx(41.0, rel=0.02)


def test_diffuse_rotation_target(capsys):
    rc, out, _ = run(capsys, ["diffuse", "--mode", "rotation",
                              "--disc-radius", "2du", "--disc-thickness",
                              "0.5du", "--target", "2pi", "--json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["time_s"] == pytest.approx(70.0, rel=0.10)
    # the README line, byte for byte
    rc, out, _ = run(capsys, ["diffuse", "--mode", "rotation",
                              "--disc-radius", "2du", "--disc-thickness",
                              ".5du", "--target", "2pi"])
    assert rc == 0
    assert out == "target_rad,f_rot,time_s\r\n6.28319,0.301935,73.352\r\n"


def test_diffuse_csl_curve(capsys):
    rc, out, _ = run(capsys, ["diffuse", "--sphere-radius", "1e-5",
                              "--times", "86400", "--f", "1.0"])
    assert rc == 0
    assert out.splitlines()[0] == "t_s,rms,mechanism,mode"
    assert out.splitlines()[1].startswith("86400,6.53")


def test_simulate_determinism(capsys):
    argv = ["simulate", "--n-traj", "300", "--s-inf", "1e-6", "--tau-s", "1",
            "--dt", "0.02", "--t-end", "1", "--seed", "7"]
    rc1, out1, _ = run(capsys, argv)
    rc2, out2, _ = run(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2
    rc3, out3, _ = run(capsys, argv[:-1] + ["8"])
    assert out3 != out1


def test_simulate_worker_invariance(capsys):
    base = ["simulate", "--n-traj", "300", "--s-inf", "1e-6", "--tau-s", "1",
            "--dt", "0.02", "--t-end", "1", "--seed", "3"]
    _, seq, _ = run(capsys, base)
    _, par, _ = run(capsys, base + ["--workers", "4"])
    assert seq == par


def test_output_file(tmp_path, capsys):
    target = tmp_path / "t1.csv"
    rc, out, _ = run(capsys, ["table1", "--paper-format", "--output",
                              str(target)])
    assert rc == 0 and out == ""
    assert target.read_bytes().decode() == GOLDEN_TABLE1


def test_unwritable_output_exits_3_without_traceback(tmp_path, capsys):
    missing = tmp_path / "missing"
    for argv in (["table1", "--paper-format"],
                 ["fig2", "--a-grid=-6:-4:3", "--lambda-inv-grid=15:17:3"]):
        target = missing / "out.csv"
        rc, out, err = run(capsys, argv + ["--output", str(target)])
        assert rc == 3 and out == ""
        assert err == f"error: cannot write {target}: No such file or directory\n"
    assert not missing.exists()


def test_fig2_writes_the_lattice_before_its_boundary_files(tmp_path, capsys):
    # a directory in the way of one boundary file: the lattice CSV and the
    # files before it are written, then the run stops with exit 3
    blocked = tmp_path / "map_boundary_perception-time.csv"
    blocked.mkdir()
    rc, out, err = run(capsys, ["fig2", "--a-grid=-6:-4:3",
                                "--lambda-inv-grid=15:17:3", "--output",
                                str(tmp_path / "map.csv")])
    assert rc == 3 and out == ""
    assert err.startswith(f"error: cannot write {blocked}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert (tmp_path / "map.csv").read_bytes().startswith(b"log10_a,")
    assert (tmp_path / "map_boundary_rot-null.csv").exists()
    assert not (tmp_path / "map_boundary_trans-null.csv").exists()


def _readme_stdout(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("sub,argv", [
    ("table2", ["table2", "--json"]),
    ("collide", ["collide", "--disc-radius", "2du", "--disc-thickness", ".5du",
                 "--temperature", "4.2K", "--pressure", "5e-17Torr"]),
    ("fig2", ["fig2", "--a-grid=-7:0:71", "--lambda-inv-grid=0:22:89"]),
    ("constants", ["--constants"]),
])
def test_readme_stdout_matches_the_benchmark_pin(sub, argv):
    refs = json.loads((Path(__file__).resolve().parents[1] / "bench"
                       / "refs.json").read_text())["cli"]
    rc, out, err = _readme_stdout(argv)
    assert rc == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == refs[sub]


def test_validity_warnings_are_one_clean_line_each(capsys):
    rc, out, err = run(capsys, ["diffuse", "--mechanism", "brownian",
                                "--sphere-radius", "1e-5", "--pressure",
                                "760Torr", "--viscosity", "1.8e-4",
                                "--times", "1"])
    assert rc == 0
    assert out == ("t_s,rms,mechanism,mode\r\n"
                   "1,0.00187789,brownian,translation\r\n")
    assert err == ("warning: molecular-realm drag requested but l_m = "
                   "9.85e-06 cm is not large against the body size 1e-05 cm\n")


def test_two_validity_warnings_keep_their_order_and_stdout(capsys):
    from cslwalk import CslParams, Sphere, equilibrium_width
    from cslwalk.wavepacket import simulate_ensemble, stats_to_csv

    rc, out, err = run(capsys, ["simulate", "--sphere-radius", "1e-7",
                                "--n-traj", "100"])
    assert rc == 0
    lines = err.splitlines()
    assert len(lines) == 2 and "cli.py" not in err
    assert lines[0].startswith("warning: N = 2.5e+03 nucleons is below")
    assert lines[1].startswith("warning: s_inf = 0.0119 cm is not small")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        eq = equilibrium_width(CslParams(lam=1e-16, a=1e-5), Sphere(1e-7, 1.0))
    assert out == stats_to_csv(simulate_ensemble(
        eq, n_traj=100, dt=eq.tau_s / 100, t_end=10 * eq.tau_s, seed=0))


def test_a_repeated_warning_is_written_once(monkeypatch, capsys):
    import cslwalk.diffusion as diffusion_mod
    from cslwalk.errors import ValidityWarning

    table = diffusion_mod.vacuum_diffusion_table

    def warn_twice():
        for _ in range(2):
            warnings.warn("dubious input", ValidityWarning)
        return table()

    monkeypatch.setattr(diffusion_mod, "vacuum_diffusion_table", warn_twice)
    rc, out, err = run(capsys, ["table1", "--paper-format"])
    assert rc == 0 and out == GOLDEN_TABLE1
    assert err == "warning: dubious input\n"


def test_fig1_and_fig2_datasets(capsys):
    rc, out, _ = run(capsys, ["fig1", "--alphas", "0.5,1,2", "--betas", "0.25"])
    assert rc == 0
    # the README line, byte for byte
    assert out == ("alpha,beta,f_rot,est_error\r\n"
                   "0.5,0.25,0.512153,1.03e-15\r\n"
                   "1,0.25,0.301935,3.61e-16\r\n"
                   "2,0.25,0.057,3.33e-17\r\n")
    rc, out, _ = run(capsys, ["fig2", "--a-grid=-6:-4:3",
                              "--lambda-inv-grid=15:17:3"])
    assert rc == 0
    assert out.splitlines()[0] == "log10_a,log10_lambda_inv,c1,c2,c3,c4,c5"
    assert "-5,16,1,0,1,1,0" in out


# ---------------------------------------------------------------------------
# exit codes

def test_exit_code_flag_error():
    with pytest.raises(SystemExit) as err:
        main(["table1", "--no-such-flag"])
    assert err.value.code == 2


def test_exit_code_nonfinite_list_value(capsys):
    with pytest.raises(SystemExit) as err:
        main(["diffuse", "--sphere-radius", "1e-5", "--times", "nan,10"])
    assert err.value.code == 2
    assert "Traceback" not in capsys.readouterr().err
    # unit-suffixed quantities
    for flag, value in (("--t-end", "1e400"), ("--t-end", "inf"),
                        ("--dt", "nan"), ("--dt", "1e400s")):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--s-inf", "1e-6", "--tau-s", "1", flag, value])
        assert err.value.code == 2
        assert "Traceback" not in capsys.readouterr().err


def test_exit_code_missing_subcommand(capsys):
    assert main([]) == 2


def test_exit_code_precondition(capsys):
    rc, _, err = run(capsys, ["collide", "--sphere-radius", "1e-5",
                              "--temperature", "4.2K"])
    assert rc == 3
    assert "pressure" in err
    for workers in ("0", "-2"):
        rc, out, err = run(capsys, ["simulate", "--n-traj", "300", "--s-inf",
                                    "1e-6", "--tau-s", "1", "--dt", "0.02",
                                    "--t-end", "1", "--workers", workers])
        assert rc == 3 and out == ""
        assert "workers" in err


@pytest.mark.parametrize("argv", [
    ["diffuse", "--mode", "translation", "--sphere-radius", "1e-5",
     "--times", "1e300"],
    ["diffuse", "--mode", "translation", "--sphere-radius", "1e-5",
     "--times", "1", "--a", "1e-300"],
    ["diffuse", "--mode", "rotation", "--disc-radius", "2du",
     "--disc-thickness", ".5du", "--times", "1e300"],
    ["diffuse", "--mode", "rotation", "--disc-radius", "2du",
     "--disc-thickness", ".5du", "--target", "1e300"],
    ["diffuse", "--mechanism", "brownian", "--sphere-radius", "1e-5",
     "--pressure", "1e-10Torr", "--times", "1e300", "--regime", "short"],
    ["diffuse", "--mechanism", "combined", "--sphere-radius", "1e-5",
     "--pressure", "1e-10Torr", "--times", "1", "--a", "1e-300"],
    ["collide", "--sphere-radius", "1e300", "--temperature", "4.2K",
     "--pressure", "5e-17Torr"],
    ["collide", "--disc-radius", "1e300", "--disc-thickness", "1e300",
     "--temperature", "4.2K", "--pressure", "5e-17Torr"],
    ["collide", "--sphere-radius", "1e-5", "--temperature", "5e-324",
     "--pressure", "5e-17Torr"],
    ["collide", "--sphere-radius", "1e-5", "--temperature", "4.2K",
     "--pressure", "5e-17Torr", "--gas-mass", "5e-324"],
    ["collide", "--sphere-radius", "1e-5", "--temperature", "4.2K",
     "--pressure", "1e300"],
])
def test_exit_code_float_range(capsys, argv):
    # the arithmetic overflows, or divides by an a^2 that underflows to 0
    rc, out, err = run(capsys, argv)
    assert rc == 3 and out == ""
    assert "floating-point range" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,bad", [
    (["diffuse", "--sphere-radius", "1e-5", "--lambda-inv", "0"], "lambda-inv"),
    (["simulate", "--sphere-radius", "1e-5", "--lambda-inv", "0"], "lambda-inv"),
    (["collide", "--sphere-radius", "1e-5", "--temperature", "4.2K",
      "--pressure", "5e-17Torr", "--gas-mass", "1e400"], "gas_molecular_mass"),
    (["diffuse", "--mechanism", "combined", "--sphere-radius", "1e-5",
      "--pressure", "5e-17Torr", "--realm", "viscous", "--viscosity", "inf"],
     "viscosity"),
    (["diffuse", "--mode", "rotation", "--disc-radius", "2du",
      "--disc-thickness", ".5du", "--a", "1e-30"], "at most 128"),
])
def test_exit_code_out_of_domain_values(capsys, argv, bad):
    rc, out, err = run(capsys, argv)
    assert rc == 3 and out == ""
    assert bad in err
    assert "Traceback" not in err


@pytest.mark.parametrize("n_times", ["0", "-3"])
def test_exit_code_n_times_below_one(capsys, n_times):
    with pytest.raises(SystemExit) as err:
        main(["diffuse", "--sphere-radius", "1e-5", f"--n-times={n_times}"])
    assert err.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "n-times" in out.err and "Traceback" not in out.err


@pytest.mark.parametrize("argv", [
    ["diffuse", "--sphere-radius", "1e-5", f"--n-times={10 ** 9}"],
    ["fig2", f"--a-grid=-7:0:{10 ** 9}"],
    ["fig2", f"--lambda-inv-grid=0:22:{10 ** 9}"],
])
def test_exit_code_count_above_the_cap(capsys, argv):
    # rejected at parse time, before any list of that length is built
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "1000000" in out.err


def test_exit_code_fig2_lattice_above_the_cap(capsys):
    rc, out, err = run(capsys, ["fig2", "--a-grid=-7:0:1001",
                                "--lambda-inv-grid=0:22:1000"])
    assert rc == 3 and out == ""
    assert err == "error: the lattice holds 1001000 points, more than 1000000\n"


@pytest.mark.parametrize("argv", [
    ["table2", "--format", "json"],
    ["collide", "--sphere-radius", "1e-5", "--temperature", "4.2K",
     "--pressure", "5e-17Torr", "--gas", "N2"],
])
def test_removed_flags_are_flag_errors(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert capsys.readouterr().out == ""


def test_exit_code_body_needed(capsys):
    rc, _, err = run(capsys, ["diffuse", "--times", "10"])
    assert rc == 3
    assert "sphere-radius" in err


def test_fig2_writes_boundary_polyline_files(tmp_path, capsys):
    target = tmp_path / "map.csv"
    rc, _, _ = run(capsys, ["fig2", "--a-grid=-6:-4:3",
                            "--lambda-inv-grid=15:17:3",
                            "--output", str(target)])
    assert rc == 0
    assert target.exists()
    for cid in ("ge-radiation", "rot-null", "perception-time",
                "small-displacement", "trans-null"):
        side = tmp_path / f"map_boundary_{cid}.csv"
        assert side.exists(), cid
        lines = side.read_bytes().decode().strip().split("\r\n")
        assert lines[0] == "log10_a,log10_lambda_inv"
        assert len(lines) == 4    # header + one point per a-grid value


def test_real_process_invocation():
    # the module runs as a real process with the same bytes and exit codes
    proc = subprocess.run(
        [sys.executable, "-m", "cslwalk.cli", "table1", "--paper-format"],
        capture_output=True, text=False)
    assert proc.returncode == 0
    assert proc.stdout.decode() == GOLDEN_TABLE1
    bad = subprocess.run(
        [sys.executable, "-m", "cslwalk.cli", "collide",
         "--sphere-radius", "1e-5", "--temperature", "4.2K"],
        capture_output=True)
    assert bad.returncode == 3


def _fresh_stdout(code: str) -> str:
    """The last stdout line of `code` run in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def _modules_after(code: str, prefix: str) -> list[str]:
    """The modules named `prefix` or `prefix.*` that running `code` in a
    fresh interpreter loads."""
    return _fresh_stdout(code + (
        "\nimport sys\nprint(*sorted(m for m in sys.modules if m == "
        f"{prefix!r} or m.startswith({prefix + '.'!r})))")).split()


_CLI = "from cslwalk.cli import main\nmain({argv!r})"

# the README lines whose numbers are scalar closed forms
SCALAR_README_LINES = (
    ["table1", "--paper-format"],
    ["table2", "--json"],
    ["collide", "--disc-radius", "2du", "--disc-thickness", ".5du",
     "--temperature", "4.2K", "--pressure", "5e-17Torr"],
    ["--constants"],
)


def test_import_floor_loads_no_numpy():
    # importing numpy is most of what a scalar subcommand's process would
    # spend; the package and the CLI resolve it only where arrays are used
    assert _modules_after("import cslwalk", "numpy") == []
    assert _modules_after("import cslwalk.cli", "numpy") == []
    for argv in SCALAR_README_LINES:
        assert _modules_after(_CLI.format(argv=argv), "numpy") == [], argv


# every README "Command line" line
README_LINES = SCALAR_README_LINES + (
    ["diffuse", "--mode", "rotation", "--disc-radius", "2du",
     "--disc-thickness", ".5du", "--target", "2pi"],
    ["simulate", "--n-traj", "10000", "--sphere-radius", "1e-5", "--seed", "7"],
    ["fig1", "--alphas", "0.5,1,2", "--betas", "0.25"],
    ["fig2", "--a-grid=-7:0:71", "--lambda-inv-grid=0:22:89"],
)


def test_import_floor_loads_no_scipy():
    # the README command lines start without scipy; test_demos.py runs the
    # demos and the width-ODE cross-check with scipy refused outright
    assert _modules_after("import cslwalk", "scipy") == []
    for argv in README_LINES:
        assert _modules_after(_CLI.format(argv=argv), "scipy") == [], argv


def test_public_names_resolve_to_their_home_objects():
    import importlib

    import cslwalk
    for name in cslwalk.__all__:
        home = importlib.import_module(f"cslwalk.{cslwalk._HOME[name]}")
        assert getattr(cslwalk, name) is getattr(home, name), name


def test_dir_covers_all_before_any_name_is_resolved():
    assert _fresh_stdout(
        "import cslwalk\n"
        "print(sorted(set(cslwalk.__all__) - set(dir(cslwalk))))") == "[]"


def test_unknown_attribute_raises_attribute_error():
    import cslwalk
    with pytest.raises(AttributeError, match="no_such_name"):
        cslwalk.no_such_name
    assert not hasattr(cslwalk, "no_such_name")


def test_star_import_binds_all_public_names():
    import cslwalk
    namespace = {}
    exec("from cslwalk import *", namespace)
    assert set(cslwalk.__all__) <= set(namespace)


def test_exit_code_convergence(monkeypatch, capsys):
    import cslwalk.factors as factors_mod

    def boom(*args, **kwargs):
        raise ConvergenceError("quadrature stalled", achieved=1e-3)

    monkeypatch.setattr(factors_mod, "f_rot_disc", boom)
    rc, _, err = run(capsys, ["fig1", "--alphas", "1.0", "--betas", "0.25"])
    assert rc == 4
    assert "stalled" in err


# ---------------------------------------------------------------------------
# the exit-code contract under drawn flag values

_NUMBER = st.one_of(
    st.sampled_from(["0", "-0", "-1", "5e-324", "1e-300", "1e-30", "1e30",
                     "1e300", "1e400", "nan", "inf", "-inf"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(1e-6, 1e6).map("{:g}".format),
)
_QUANTITY = st.one_of(
    _NUMBER,
    st.builds("{:g}{}".format, st.floats(1e-30, 1e30),
              st.sampled_from(["du", "cm", "Torr", "pT", "dyn/cm2", "s", "day",
                               "K"])),
)
_BODY_ENV = {
    **{flag: _QUANTITY for flag in ("--sphere-radius", "--disc-radius",
                                    "--disc-thickness", "--temperature",
                                    "--pressure")},
    **{flag: _NUMBER for flag in ("--density", "--gas-mass", "--viscosity")},
}
_DIFFUSE = {
    **_BODY_ENV,
    **{flag: _QUANTITY for flag in ("--lambda-inv", "--a", "--t-end")},
    **{flag: _NUMBER for flag in ("--lam", "--f", "--target")},
    "--times": st.lists(_NUMBER, max_size=3).map(",".join),
    "--n-times": st.integers(-5, 100).map(str),
    "--mechanism": st.sampled_from(["csl", "brownian", "combined", "qm"]),
    "--mode": st.sampled_from(["translation", "rotation"]),
    "--orientation": st.sampled_from(["perp", "edge"]),
    "--realm": st.sampled_from(["molecular", "viscous"]),
    "--regime": st.sampled_from(["auto", "short", "long"]),
}
# Out-of-domain values, which are rejected before any work is done.  The
# valid draws below are bounded so that each example stays fast: fig1 sizes
# at most 8, simulate at most 2000 trajectories and 1e4 steps of dt.  The
# caps on larger work are tested on their own.
_OUT_OF_DOMAIN = st.sampled_from(["0", "-0", "-1", "nan", "inf", "-inf", "1e400"])
_ASPECTS = st.lists(st.one_of(st.floats(1e-6, 8.0).map(repr), _OUT_OF_DOMAIN,
                              st.sampled_from(["128.5", "1e4", "1e-300"])),
                    max_size=3).map(",".join)
_GRID = st.one_of(
    st.builds("{}:{}:{}".format, st.integers(-400, 0), st.integers(1, 400),
              st.integers(1, 30)),
    st.builds("{}:{}:{}".format, _NUMBER, _NUMBER, st.one_of(
        st.integers(-1, 30).map(str), st.sampled_from(["1.5", "nan", "1000001"]))))
_FIG2 = {
    "--a-grid": _GRID,
    "--lambda-inv-grid": _GRID,
    "--which": st.lists(st.sampled_from(["ge-radiation", "rot-null",
                                         "nucleon-excitation", "no-such-id"]),
                        max_size=3).map(",".join),
}
_COUNT_TEXT = st.sampled_from(["1.5", "nan", "1e3", ""])
_SIMULATE = {
    **{flag: _BODY_ENV[flag] for flag in ("--sphere-radius", "--disc-radius",
                                          "--disc-thickness", "--density")},
    **{flag: _QUANTITY for flag in ("--s-inf", "--tau-s", "--lambda-inv", "--a")},
    "--lam": _NUMBER,
    "--dt": st.one_of(_OUT_OF_DOMAIN, st.floats(1e-4, 1.0).map(repr)),
    "--t-end": st.one_of(_OUT_OF_DOMAIN, st.floats(1e-3, 1.0).map(repr)),
    "--n-traj": st.one_of(st.integers(-5, 2000).map(str), _COUNT_TEXT),
    "--seed": st.one_of(st.integers(-3, 2 ** 64).map(str), _COUNT_TEXT),
    "--workers": st.one_of(st.integers(-2, 2).map(str), _COUNT_TEXT),
    "--method": st.sampled_from(["euler-maruyama", "exact-b15"]),
}
# valid command lines that the drawn flags then override (the last wins)
_DISC = ["--disc-radius=2du", "--disc-thickness=.5du"]
_GAS = ["--temperature=4.2K", "--pressure=5e-17Torr"]
_PACKET = ["--s-inf=1e-6", "--tau-s=1", "--n-traj=100"]
_COMMANDS = {
    "diffuse": (_DIFFUSE, [["--sphere-radius=1e-5"], ["--mode=rotation", *_DISC],
                           ["--mechanism=combined", "--sphere-radius=1e-5", *_GAS]]),
    "collide": (_BODY_ENV, [["--sphere-radius=1e-5", *_GAS], [*_DISC, *_GAS]]),
    "fig1": ({"--alphas": _ASPECTS, "--betas": _ASPECTS},
             [["--alphas=0.5,1", "--betas=0.25"]]),
    "fig2": (_FIG2, [["--a-grid=-7:0:8", "--lambda-inv-grid=0:22:9"]]),
    "simulate": (_SIMULATE, [
        [*_PACKET, "--dt=0.01", "--t-end=1"],
        [*_PACKET, "--dt=0.1", "--t-end=1", "--method=exact-b15"],
        ["--sphere-radius=1e-5", "--n-traj=100", "--dt=0.005", "--t-end=0.5"]]),
    "table1": ({}, [[], ["--paper-format"]]),
    "table2": ({}, [[], ["--paper-format"]]),
}


@st.composite
def _drawn_argv(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    pool, bases = _COMMANDS[command]
    base = draw(st.sampled_from(bases))
    names = draw(st.lists(st.sampled_from(sorted(pool)), min_size=1,
                          max_size=3, unique=True)) if pool else []
    # FLAG=VALUE, so that values such as -inf are not read as flags
    argv = [command, *base] + [f"{name}={draw(pool[name])}" for name in names]
    return argv + (["--json"] if draw(st.booleans()) else [])


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_drawn_argv())
def test_cli_exit_code_contract_holds_for_drawn_flags(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    assert rc in (0, 2, 3, 4), (argv, rc)
    assert "Traceback" not in err.getvalue()
    if rc == 0:
        assert not re.search(r"(?i)\b(nan|inf|infinity)\b", out.getvalue()), argv
    else:
        assert out.getvalue() == "", argv
