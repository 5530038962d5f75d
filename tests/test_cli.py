import contextlib
import hashlib
import io
import json
import math
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cslwalk.cli import build_parser, main
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


def _json_doc(argv):
    """The JSON document a subcommand returns under --json, before `main`
    rounds it to 6 significant figures."""
    args = build_parser().parse_args([*argv, "--json"])
    return args.func(args)


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


@pytest.mark.parametrize("text,angle", [
    ("2pi", 2 * math.pi), ("2*pi", 2 * math.pi), (" 2 PI", 2 * math.pi),
    ("pi", math.pi), ("0.5pi", 0.5 * math.pi), ("3*pi", 3 * math.pi),
    ("6.283", 6.283)])
def test_target_reads_a_multiple_of_pi(text, angle):
    args = build_parser().parse_args(["diffuse", f"--target={text}"])
    assert args.target == angle


@pytest.mark.parametrize("text", ["*pi", "-pi", "xpi", "2**pi"])
def test_target_rejects_a_malformed_angle(capsys, text):
    with pytest.raises(SystemExit) as err:
        main(["diffuse", "--mode=rotation", "--disc-radius=2du",
              "--disc-thickness=.5du", f"--target={text}"])
    assert err.value.code == 2
    assert capsys.readouterr().out == ""


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


# sha256 of the README fig2 line's stdout (bench/refs.json pins the same),
# of its --json document, and of the files --output writes (each name, then
# its bytes, in name order)
FIG2_README_SHA256 = {
    "stdout": "5a809c77d8c5f72af99c9979eac7b067f1faf5c9630fdeabb68acb6d12a506dd",
    "json": "605934af51098ca3a978b6fb15e96f0fedc6f0bd80294898ceecd772bedc5e6c",
    "output": "fd7dcd30a9afb80724e3b137a307f02b1f885be448521cbd6f2777bad77cb460",
}


def test_fig2_readme_line_keeps_its_bytes(tmp_path):
    argv = ["fig2", "--a-grid=-7:0:71", "--lambda-inv-grid=0:22:89"]
    got = {"stdout": _readme_stdout(argv)[1].encode(),
           "json": _readme_stdout(argv + ["--json"])[1].encode()}
    assert _readme_stdout(argv + ["--output", str(tmp_path / "map.csv")])[0] == 0
    got["output"] = b"".join(p.name.encode() + p.read_bytes()
                             for p in sorted(tmp_path.iterdir()))
    assert {k: hashlib.sha256(v).hexdigest()
            for k, v in got.items()} == FIG2_README_SHA256

# sha256 of json.dumps([exit code, stdout, stderr]) of `diffuse` lines, as CSV
# and as --json, captured before the mechanism dispatch moved into the CLI.
# The qm and brownian --json pins were captured again when those documents
# dropped the unread `params.f`, and the viscous brownian line when its rms
# became the exact damped form (t = 1 s is about 800 tau there).  The
# brownian sphere-rotation line was captured again when rotation got its
# drag: it still exits 3 with an empty stdout, but the error is now
# xi_rotational's (a sphere has no rotational drag outside the viscous
# realm) in place of "unsupported mechanism/mode pair".  The three rotation
# --json pins with a drag were captured again when its key became
# `xi_g_cm2_per_s`, the unit of a torque coefficient
SPHERE = "--sphere-radius 1e-5"
DISC = "--disc-radius 2du --disc-thickness .5du"
GAS = "--temperature 4.2K --pressure 5e-17Torr"
DIFFUSE_SHA256 = [
    (f"{SPHERE} --t-end 1day --n-times 5",
     "b119b20ec3961e5422d5f986c78760dc8ba8993eac5171f1a294ffcb7a19a28f",
     "af44f4d27caff787c5a2f64b5a3f6ecc80f86f412405d00328d55037d8aa0364"),
    (f"{DISC} --times 1,100",
     "844bf7ec265cdfef15bcbb3a45dd419e9371b36f78c4e4bf3693c4759a5cacd2",
     "51bd64ebb50cfcf67d8fd6f0d5b82a75de718dba6857dd21238a85176c94d117"),
    (f"--mode rotation {SPHERE} --times 1,100",
     "1372c48c1b5d553b9fc2570d53d3353c19dcbf44798ef5221ceadc55119ead99",
     "0c14b7726a8dc90f898ff37d2066b7098b4e1d30f21b16b0492f12ab1ced0e04"),
    (f"--mode rotation {DISC} --times 1,100",
     "669b11d42794f975b28852c2aaa8d3b3bad0d3b14370d274b48f27abe6c57cce",
     "a25cfd4db60fffec2fbb6d5b8cc3490bf99ae4824ec3967ebc5247e115ec9458"),
    (f"--mechanism qm {SPHERE} --times 1,100",
     "b43b04483fd22c7a112a9ba8dcf4436237622c346f0135b0c54670991a151ed1",
     "c9ca4cd9962684c275324b1e196f40a0351db5be49e3aa12cd6636605ba19870"),
    (f"--mechanism qm {DISC} --times 1,100",
     "2471fa45a854d207e0a899ea38da96e3a5344178c7a5fbe4fa66417904f928cb",
     "2471fa45a854d207e0a899ea38da96e3a5344178c7a5fbe4fa66417904f928cb"),
    (f"--mechanism qm --mode rotation {SPHERE} --times 1,100",
     "a6da91b9aff0215c140c23c418b2b64a9ee317cb62e292e7ec169c66e5df0e70",
     "a6da91b9aff0215c140c23c418b2b64a9ee317cb62e292e7ec169c66e5df0e70"),
    (f"--mechanism qm --mode rotation {DISC} --times 1,100",
     "7d9ba309fa50f7782906833e233a09f683efd7f65090bf979336315d848730b4",
     "ac56d4eab96ce89e9dacc446a33efeab63cae0d9d0149681bb7ccfc19d52feb3"),
    (f"--mechanism brownian {SPHERE} {GAS} --times 1,100",
     "d0279fd77a8d9ffb5a5a81001f9eb131a60a4359f3b8987687c6eb247cbbc030",
     "a6fa36b9b1e30818f23bbcfb04f18e9e96927b76f646ff10bcc0995e2aaa9f04"),
    (f"--mechanism brownian {DISC} {GAS} --times 1,100",
     "d0d46c95858d7fda8123e8883e559a28c9ad3a73f3a8ce3d8346eec629591a41",
     "b1d4a53693cfe0d7d46c1620b1887e76fc467f96ae98bc50e3d09fa1b219f94d"),
    (f"--mechanism combined {SPHERE} {GAS} --times 1,100",
     "752b02e09fb273ac6d3addc1ea18b852ed5d3d6fc130b310e01b65f223f4fb72",
     "7144fb2b9d4368d307105ee9e88bda467727b2e19efedf8c8c4f2acd27bb7a6d"),
    (f"--mechanism combined {DISC} --orientation edge {GAS} --times 1,100",
     "bb9e1eb6c3e4731d27f99d6a922bb842f41ed384566ffec964eb6f109f9936ea",
     "1de843a9a2b8706a7ab87b8e764a889ec06b8a536367fb25e75486191fcce618"),
    ("--mechanism brownian --sphere-radius 1e-3 --pressure 760Torr "
     "--viscosity 1.8e-4 --realm viscous --times 1,100",
     "af076c329bcc715b24dd930969dc5677e9b17103c16e5843c264326db622d7fe",
     "50f01c3970445535d6049e4da4026100cb1a7b0af82ae08a313699d56e6d6789"),
    (f"{SPHERE} --f 0.5 --lambda-inv 1e10 --times 10,1000",
     "bbbed534de02f77d8857114190ec2a058ff1f103e335eacd820655e42f8f613e",
     "481f66e921057a07284299a57f8d2429ff998c137245e4fe09088bdfb43e7b04"),
    (f"{SPHERE} --times=-1,2",
     "45740408047d3584746c420c432aa2144123dcfd1e03a09b4c2ed592a8eb7052",
     "45740408047d3584746c420c432aa2144123dcfd1e03a09b4c2ed592a8eb7052"),
    (f"--mechanism brownian --mode rotation {SPHERE} {GAS} --times 1",
     "c8ab3f2194b740a64f319690e9a0569749c6d4de0bec983125405638887c378d",
     "c8ab3f2194b740a64f319690e9a0569749c6d4de0bec983125405638887c378d"),
    (f"--mechanism brownian --mode rotation {DISC} {GAS} --times 1,100",
     "ad766a4d5763d7a6646bedbc1b54c951900d418b50de4bf7f5f23fa863383919",
     "e41372ff575496e9e4dd5cece88e564e64434dbbe297c6d5c0d6033830a7ee03"),
    (f"--mechanism combined --mode rotation {DISC} {GAS} --times 1,100",
     "eb9e119b18de37327e5925d526595d4e5abc9f1d4fce5166c231628d3141d7de",
     "43d940c57953fb8888ada12053db959ab52233e7815158497aecb534d7166f91"),
    ("--mechanism brownian --mode rotation --sphere-radius 1e-3 "
     "--pressure 760Torr --viscosity 1.8e-4 --realm viscous --times 1,100",
     "1854130ac3994fbd2cc6af7e4dceb455ecf5fc90da0e8efcfb00f9c8d23a1f96",
     "ac2d88fcfdf21cf5136305896a4c79c1f9fe1f5ce755a5b3e25d17e08fce23a7"),
]


@pytest.mark.parametrize("line,csv_sha,json_sha", DIFFUSE_SHA256)
def test_diffuse_lines_keep_their_bytes(line, csv_sha, json_sha):
    for extra, sha in (([], csv_sha), (["--json"], json_sha)):
        got = json.dumps(list(_readme_stdout(["diffuse", *line.split(), *extra])))
        assert hashlib.sha256(got.encode()).hexdigest() == sha, extra


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
     "--pressure", "1e-10Torr", "--times", "1e308"],
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


def test_equilibrium_out_of_range_fails_before_it_warns(capsys):
    # s_inf^2 overflows; the range check comes before the validity warnings,
    # so stderr holds the one error and no warning about an inf s_inf
    rc, out, err = run(capsys, ["simulate", "--sphere-radius", "1e-5",
                                "--lam", "1e-300", "--a", "1e300"])
    assert rc == 3 and out == ""
    assert err.splitlines() == ["error: the equilibrium width leaves the "
                                "floating-point range for these inputs"]


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
    (["diffuse", "--sphere-radius", "1e-5", "--times=-1,2"],
     "times must be finite and nonnegative"),
    (["diffuse", "--sphere-radius", "1e-5", "--n-times=3", "--t-end=0"],
     "error: --t-end must be positive\n"),
    (["diffuse", "--sphere-radius", "1e-5", "--t-end=-1day"],
     "error: --t-end must be positive\n"),
    (["fig2", "--which=ge-radiation,ge-radiation"],
     "error: constraint id 'ge-radiation' is repeated\n"),
    (["fig2", "--which="], "error: --which needs at least one constraint id\n"),
    (["simulate", "--s-inf", "1e-6", "--tau-s", "1", "--t-end", "0"],
     "error: --t-end must be positive\n"),
    (["simulate", "--s-inf", "1e-6", "--tau-s", "1", "--dt", "0"],
     "error: --dt must be positive\n"),
    (["simulate", "--sphere-radius", "1e-5", "--dt=-1"],
     "error: --dt must be positive\n"),
])
def test_exit_code_out_of_domain_values(capsys, argv, bad):
    rc, out, err = run(capsys, argv)
    assert rc == 3 and out == ""
    assert bad in err
    assert "Traceback" not in err


@pytest.mark.parametrize("mechanism", ["brownian", "combined"])
@pytest.mark.parametrize("orientation", ["perp", "edge"])
def test_diffuse_viscous_disc_takes_the_thin_disc_drag(mechanism, orientation):
    from cslwalk.brownian import xi_viscous_disc

    xi = _json_doc([
        "diffuse", f"--mechanism={mechanism}", "--disc-radius=1e-3",
        "--disc-thickness=1e-4", "--pressure=760Torr", "--viscosity=1.8e-4",
        "--realm=viscous", f"--orientation={orientation}", "--times=1,100"]
    )["params"]["xi_g_per_s"]
    assert xi == xi_viscous_disc(1e-3, 1e-4, 1.8e-4, orientation)


@pytest.mark.parametrize("mechanism", ["brownian", "combined"])
@pytest.mark.parametrize("body,gas,realm", [
    (["--disc-radius=2du", "--disc-thickness=.5du"],
     ["--temperature=4.2K", "--pressure=5e-17Torr"], "molecular"),
    (["--sphere-radius=1e-3"],
     ["--pressure=760Torr", "--viscosity=1.8e-4", "--realm=viscous"], "viscous")])
def test_diffuse_rotation_names_its_drag_a_torque_coefficient(mechanism, body, gas,
                                                              realm):
    from cslwalk import Disc, Environment, Sphere, xi_rotational

    params = _json_doc(["diffuse", f"--mechanism={mechanism}", "--mode=rotation",
                        *body, *gas, "--times=1,100"])["params"]
    shape = (Disc(2e-5, 0.5e-5, 1.0) if realm == "molecular" else Sphere(1e-3, 1.0))
    env = (Environment.from_torr(4.2, 5e-17) if realm == "molecular" else
           Environment.from_torr(293.15, 760.0, gas_viscosity=1.8e-4))
    assert "xi_g_per_s" not in params
    assert params["xi_g_cm2_per_s"] == xi_rotational(shape, env, realm)


@pytest.mark.parametrize("mechanism,gas", [
    ("qm", []), ("brownian", ["--temperature=4.2K", "--pressure=5e-17Torr"])])
@pytest.mark.parametrize("f", ["7", "nan", "inf"])
def test_diffuse_rejects_f_where_the_mechanism_ignores_it(capsys, mechanism, gas, f):
    rc, out, err = run(capsys, ["diffuse", f"--mechanism={mechanism}",
                                "--sphere-radius=1e-5", *gas, "--times=1",
                                f"--f={f}", "--json"])
    assert rc == 3 and out == ""
    assert err == f"error: --f is not used by --mechanism {mechanism}\n"


@pytest.mark.parametrize("body,message", [
    (["--sphere-radius", "1e-5"], "is used by a disc in translation only"),
    (["--mode", "rotation", "--disc-radius", "2du", "--disc-thickness", ".5du"],
     "is used by a disc in translation only"),
    # the given factor replaces the one the orientation picks, and csl
    # translation takes no drag
    (["--disc-radius", "2du", "--disc-thickness", ".5du", "--f", "0.3"],
     "is not read by --mechanism csl with --f")])
def test_diffuse_rejects_orientation_where_nothing_reads_it(capsys, body, message):
    rc, out, err = run(capsys, ["diffuse", *body, "--orientation", "edge",
                                "--times", "1,100"])
    assert rc == 3 and out == ""
    assert err == f"error: --orientation {message}\n"


def test_diffuse_combined_reads_orientation_with_f():
    # the drag still reads it
    rms = {}
    for orientation in ("perp", "edge"):
        rms[orientation] = _json_doc([
            "diffuse", "--mechanism=combined", "--disc-radius=2du",
            "--disc-thickness=.5du", "--f=0.3", "--temperature=4.2K",
            "--pressure=5e-17Torr", f"--orientation={orientation}",
            "--times=1e12"])["samples"][0]["rms"]
    assert rms["perp"] != rms["edge"]


def test_diffuse_has_no_regime_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["diffuse", "--mechanism", "brownian", "--sphere-radius", "1e-5",
              "--pressure", "1e-12Torr", "--times", "1", "--regime", "short"])
    assert err.value.code == 2
    assert capsys.readouterr().out == ""


def test_diffuse_is_exact_across_the_former_crossover_decade():
    # tau = M/xi is about 1.4e8 s at 1 pTorr; every time in [0.1 tau, 10 tau]
    # was refused, and now gives the library's exact damped rms
    from cslwalk import (CONSTANTS, Environment, Sphere, combined_rms,
                         xi_molecular)

    body = Sphere(1e-5, 1.0)
    env = Environment.from_torr(CONSTANTS.room_temperature_T0, 1e-12)
    xi = xi_molecular(body, env)
    times = [x * body.mass() / xi for x in (0.1, 1.0, 10.0)]
    doc = _json_doc([
        "diffuse", "--mechanism=brownian", "--sphere-radius=1e-5",
        "--pressure=1e-12Torr", "--times=" + ",".join(map(repr, times))])
    assert [s["rms"] for s in doc["samples"]] == [
        combined_rms(xi, body, env, None, 0.0, t) for t in times]
    assert "f" not in doc["params"]


@pytest.mark.parametrize("times", ["--times=", "--times=,"])
def test_diffuse_rejects_an_empty_times_list(capsys, times):
    rc, out, err = run(capsys, ["diffuse", "--sphere-radius=1e-5", times])
    assert rc == 3 and out == ""
    assert err == "error: --times needs at least one time\n"


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

# the README lines that run on the standard library alone: the scalar
# closed forms and the fig2 constraint lattice
NUMPY_FREE_README_LINES = (
    ["table1", "--paper-format"],
    ["table2", "--json"],
    ["collide", "--disc-radius", "2du", "--disc-thickness", ".5du",
     "--temperature", "4.2K", "--pressure", "5e-17Torr"],
    ["--constants"],
    ["fig2", "--a-grid=-7:0:71", "--lambda-inv-grid=0:22:89"],
)


def test_import_floor_loads_no_numpy():
    # importing numpy is most of what these subcommands' processes would
    # spend; the package and the CLI resolve it only where arrays are used
    assert _modules_after("import cslwalk", "numpy") == []
    assert _modules_after("import cslwalk.cli", "numpy") == []
    for argv in NUMPY_FREE_README_LINES:
        assert _modules_after(_CLI.format(argv=argv), "numpy") == [], argv


def test_cli_loads_only_the_modules_a_line_calls():
    # building the parser imports no cslwalk module beyond the CLI's own
    # errors, and each README line adds only the modules whose code it runs
    floor = ["cslwalk", "cslwalk.cli", "cslwalk.errors"]
    assert _modules_after("import cslwalk.cli\ncslwalk.cli.build_parser()",
                          "cslwalk") == floor
    table = ["core", "diffusion", "factors"]
    called = {"table1": table, "table2": table, "collide": ["brownian", "core"],
              "--constants": ["core"], "fig2": ["constraints", "core"]}
    for argv in NUMPY_FREE_README_LINES:
        assert _modules_after(_CLI.format(argv=argv), "cslwalk") == sorted(
            floor + [f"cslwalk.{m}" for m in called[argv[0]]]), argv


@pytest.mark.parametrize("argv", [
    ["diffuse", "--mechanism", "brownian", "--disc-radius", "2du",
     "--disc-thickness", ".5du", "--temperature", "4.2K", "--pressure",
     "5e-17Torr", "--times", "1,100"],
    ["diffuse", "--mechanism", "brownian", "--mode", "rotation",
     "--disc-radius", "2du", "--disc-thickness", ".5du", "--temperature",
     "4.2K", "--pressure", "5e-17Torr", "--times", "1,100"],
    ["diffuse", "--mechanism", "qm", "--mode", "rotation", "--disc-radius",
     "2du", "--disc-thickness", ".5du", "--times", "1,100"]])
def test_diffuse_computes_no_unread_disc_factor(argv):
    # qm and brownian read no geometry factor, so a disc there runs no
    # disc quadrature and loads no numpy
    assert _modules_after(_CLI.format(argv=argv), "numpy") == []


# diffuse lines whose geometry factor is a disc translation factor
DISC_TRANSLATION_LINES = (
    ["diffuse", "--disc-radius", "2du", "--disc-thickness", ".5du",
     "--times", "1,100"],
    ["diffuse", "--disc-radius", "2du", "--disc-thickness", ".5du",
     "--orientation", "edge", "--times", "1,100"],
)


def test_disc_translation_factors_load_no_numpy():
    # both are closed forms on the standard library, below and above the
    # perp factor's switch from its series at alpha = 1; of the factors
    # only f_rot_disc loads numpy
    calls = ("from cslwalk import DiscAspect, f_disc_edge, f_disc_perp\n"
             "for aspect in (DiscAspect(0.5, 0.25), DiscAspect(30.0, 1.0)):\n"
             "    f_disc_perp(aspect), f_disc_edge(aspect)")
    assert _modules_after(calls, "numpy") == []
    for argv in DISC_TRANSLATION_LINES:
        assert _modules_after(_CLI.format(argv=argv), "numpy") == [], argv


# every README "Command line" line
README_LINES = NUMPY_FREE_README_LINES + (
    ["diffuse", "--mode", "rotation", "--disc-radius", "2du",
     "--disc-thickness", ".5du", "--target", "2pi"],
    ["simulate", "--n-traj", "10000", "--sphere-radius", "1e-5", "--seed", "7"],
    ["fig1", "--alphas", "0.5,1,2", "--betas", "0.25"],
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
        assert name in home.__all__, name


def test_every_all_entry_names_an_object_of_its_module():
    import importlib
    import pkgutil

    import cslwalk
    for info in pkgutil.iter_modules(cslwalk.__path__):
        mod = importlib.import_module(f"cslwalk.{info.name}")
        stale = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
        assert stale == [], info.name


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
                           ["--mechanism=combined", "--sphere-radius=1e-5", *_GAS],
                           ["--mechanism=brownian", "--mode=rotation", *_DISC,
                            *_GAS]]),
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


# one line per (mechanism, mode) pair that `diffuse` draws, and the viscous
# realm; in the gas lines tau = M/xi is about 3e11 s (tau_rot = I/xi about
# 7e10 s), and in the viscous line about 1e-3 s, so the drawn times lie on
# both sides of tau
_CURVES = [
    ["--sphere-radius=1e-5"],
    ["--mode=rotation", *_DISC, "--f=0.3"],
    ["--mechanism=qm", "--sphere-radius=1e-5"],
    ["--mechanism=qm", "--mode=rotation", *_DISC],
    ["--mechanism=brownian", "--sphere-radius=1e-5", *_GAS],
    ["--mechanism=combined", *_DISC, "--f=0.6", *_GAS],
    ["--mechanism=brownian", "--mode=rotation", *_DISC, *_GAS],
    ["--mechanism=combined", "--mode=rotation", *_DISC, *_GAS],
    ["--mechanism=brownian", "--sphere-radius=1e-3", "--pressure=760Torr",
     "--viscosity=1.8e-4", "--realm=viscous"],
]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(_CURVES),
       st.lists(st.floats(0.0, 1e9), min_size=1, max_size=20))
def test_diffuse_rms_is_nonnegative_and_nondecreasing(line, times):
    times = ",".join(map(repr, sorted(times)))
    rms = [sample["rms"] for sample in
           _json_doc(["diffuse", *line, f"--times={times}"])["samples"]]
    assert rms[0] >= 0.0 and rms == sorted(rms), (line, times)


def _library_cases():
    """(diffuse flags, rms at t) for each (mechanism, mode) pair and each
    shape that it takes, composed as the README's `diffuse` table says."""
    from cslwalk import (CslParams, Disc, DiscAspect, Environment, Sphere,
                         combined_rms, csl_rms_rotation, csl_rms_translation,
                         f_disc_edge, f_disc_perp, f_rot_disc, f_sphere,
                         qm_baseline_rotation, qm_baseline_translation,
                         xi_molecular, xi_rotational, xi_stokes,
                         xi_viscous_disc)

    grw = CslParams.grw()
    sphere, disc = Sphere(1e-5, 1.0), Disc(2e-5, 0.5e-5, 1.0)
    gas = Environment.from_torr(4.2, 5e-17)
    air = Environment.from_torr(293.15, 760.0, gas_viscosity=1.8e-4)
    aspect = DiscAspect.from_disc(disc, grw)
    f_perp, f_edge = f_disc_perp(aspect).value, f_disc_edge(aspect).value
    f_rot, f_ball = f_rot_disc(aspect).value, f_sphere(1e-5 / grw.a).value
    S = ["--sphere-radius=1e-5"]
    G = ["--temperature=4.2K", "--pressure=5e-17Torr"]
    A = ["--pressure=760Torr", "--viscosity=1.8e-4", "--realm=viscous"]
    R = ["--mode=rotation"]

    def walk(xi, body, env, csl=None, f=0.0, mode="translation"):
        return lambda t: combined_rms(xi, body, env, csl, f, t, mode=mode)

    return {
        "csl-translation-sphere": (
            S, lambda t: csl_rms_translation(grw, f_ball, t)),
        "csl-translation-disc": (
            _DISC, lambda t: csl_rms_translation(grw, f_perp, t)),
        "csl-translation-disc-edge": (
            [*_DISC, "--orientation=edge"],
            lambda t: csl_rms_translation(grw, f_edge, t)),
        "csl-rotation-sphere": (R + S, lambda t: csl_rms_rotation(grw, 0.0, t)),
        "csl-rotation-disc": (R + _DISC, lambda t: csl_rms_rotation(grw, f_rot, t)),
        "qm-translation-sphere": (
            ["--mechanism=qm", *S], lambda t: qm_baseline_translation(sphere, t)),
        "qm-rotation-disc": (
            ["--mechanism=qm", *R, *_DISC], lambda t: qm_baseline_rotation(disc, t)),
        "brownian-translation-sphere": (
            ["--mechanism=brownian", *S, *G],
            walk(xi_molecular(sphere, gas), sphere, gas)),
        "brownian-translation-disc-edge": (
            ["--mechanism=brownian", *_DISC, "--orientation=edge", *G],
            walk(xi_molecular(disc, gas, "edge"), disc, gas)),
        "brownian-translation-sphere-viscous": (
            ["--mechanism=brownian", *S, *A],
            walk(xi_stokes(1e-5, 1.8e-4), sphere, air)),
        "brownian-translation-disc-viscous": (
            ["--mechanism=brownian", *_DISC, *A],
            walk(xi_viscous_disc(2e-5, 0.5e-5, 1.8e-4, "perp"), disc, air)),
        "brownian-rotation-disc": (
            ["--mechanism=brownian", *R, *_DISC, *G],
            walk(xi_rotational(disc, gas, "molecular"), disc, gas,
                 mode="rotation")),
        "brownian-rotation-sphere-viscous": (
            ["--mechanism=brownian", *R, *S, *A],
            walk(xi_rotational(sphere, air, "viscous"), sphere, air,
                 mode="rotation")),
        "combined-translation-sphere": (
            ["--mechanism=combined", *S, *G],
            walk(xi_molecular(sphere, gas), sphere, gas, grw, f_ball)),
        "combined-translation-disc": (
            ["--mechanism=combined", *_DISC, *G],
            walk(xi_molecular(disc, gas, "perp"), disc, gas, grw, f_perp)),
        "combined-translation-disc-edge-viscous": (
            ["--mechanism=combined", *_DISC, "--orientation=edge", *A],
            walk(xi_viscous_disc(2e-5, 0.5e-5, 1.8e-4, "edge"), disc, air,
                 grw, f_edge)),
        "combined-rotation-disc": (
            ["--mechanism=combined", *R, *_DISC, *G],
            walk(xi_rotational(disc, gas, "molecular"), disc, gas, grw, f_rot,
                 "rotation")),
        "combined-rotation-sphere-viscous": (
            ["--mechanism=combined", *R, *S, *A],
            walk(xi_rotational(sphere, air, "viscous"), sphere, air, grw, 0.0,
                 "rotation")),
    }


_LIBRARY_CASES = _library_cases()


@pytest.mark.parametrize("case", sorted(_LIBRARY_CASES))
def test_diffuse_equals_the_library_for_every_pair(case):
    line, rms = _LIBRARY_CASES[case]
    times = [0.0, 1.0, 100.0, 1e6, 1e12]
    rc, out, _ = _readme_stdout(["diffuse", *line, "--times=0,1,100,1e6,1e12",
                                 "--json"])
    assert rc == 0
    assert json.loads(out)["samples"] == [
        {"t_s": t, "rms": float(f"{rms(t):.6g}")} for t in times]


_GAS_FLAGS = ["--temperature=4.2K", "--pressure=1e-10Torr", "--gas-mass=1e-23",
              "--realm=viscous", "--viscosity=1.8e-4"]
_CSL_FLAGS = ["--lam=1e-17", "--lambda-inv=1e10", "--a=2e-5"]


@pytest.mark.parametrize("argv,flag,why", [
    *[(["--sphere-radius=1e-5", "--times=1,2", f"--mechanism={mechanism}", flag],
       flag, f"by --mechanism {mechanism}")
      for mechanism in ("csl", "qm") for flag in _GAS_FLAGS],
    *[(["--sphere-radius=1e-5", "--temperature=4.2K", "--pressure=5e-17Torr",
        "--times=1,2", f"--mechanism={mechanism}", flag],
       flag, f"by --mechanism {mechanism}")
      for mechanism in ("qm", "brownian") for flag in _CSL_FLAGS],
    *[(["--sphere-radius=1e-5", "--times=1,2", flag], flag, "with --times")
      for flag in ("--t-end=50", "--n-times=3")],
    *[(["--mode=rotation", *_DISC, "--target=2pi", flag], flag, "with --target")
      for flag in ("--times=1,2", "--t-end=50", "--n-times=3")],
    # the collapse rms reads no mass
    *[([*body, "--density=2", *extra], "--density=2", "by --mechanism csl")
      for body in (["--sphere-radius=1e-5"], ["--mode=rotation", *_DISC])
      for extra in (["--times=1,2"], ["--mechanism=csl", "--t-end=50"])],
    (["--mode=rotation", *_DISC, "--density=2", "--target=2pi"], "--density=2",
     "by --mechanism csl"),
])
def test_diffuse_rejects_flags_it_never_reads(capsys, argv, flag, why):
    # each flag here once changed no byte of the output
    rc, out, err = run(capsys, ["diffuse", *argv])
    assert rc == 3 and out == ""
    assert err == f"error: {flag.partition('=')[0]} is not used {why}\n"


@pytest.mark.parametrize("flag", ["--sphere-radius=1e-3", "--disc-radius=2du",
                                  "--disc-thickness=.5du", "--density=5",
                                  "--lam=1e-10", "--lambda-inv=1e10", "--a=3e-5"])
@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_simulate_rejects_flags_it_never_reads(capsys, flag, json_flag):
    # a given equilibrium replaces the one the body and collapse flags set
    rc, out, err = run(capsys, ["simulate", *_PACKET, "--dt=0.01", "--t-end=1",
                                flag, *json_flag])
    assert rc == 3 and out == ""
    assert err == (f"error: {flag.partition('=')[0]} is not used with "
                   "--s-inf and --tau-s\n")


@pytest.mark.parametrize("line,kick", [(["--sphere-radius=1e-5"], "delta_v"),
                                       (_DISC, "omega_kick")],
                         ids=["sphere", "disc"])
def test_collide_equals_the_library(line, kick):
    # composed as the README's `collide` paragraph says
    from cslwalk import Disc, Environment, Sphere, collision_stats, molecular_flux

    body = Sphere(1e-5, 1.0) if kick == "delta_v" else Disc(2e-5, 0.5e-5, 1.0)
    env = Environment.from_torr(4.2, 5e-17)
    stats = collision_stats(body, env)
    units = {"delta_v": "delta_v_cm_s", "omega_kick": "omega_kick_rad_s"}
    rc, out, _ = _readme_stdout(["collide", *line, *_GAS, "--json"])
    assert rc == 0
    assert json.loads(out)["result"] == {
        name: float(f"{v:.6g}") for name, v in [
            ("tau_c_s", stats["tau_c"]), ("tau_c_min", stats["tau_c"] / 60),
            ("flux_per_cm2_s", molecular_flux(env)), (units[kick], stats[kick])]}


@pytest.mark.parametrize("body", [["--sphere-radius=1e-5"], _DISC])
@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_collide_rejects_flags_it_never_reads(capsys, body, json_flag):
    # the collision statistics take no viscosity
    rc, out, err = run(capsys, ["collide", *body, *_GAS, "--viscosity=1.8e-4",
                                *json_flag])
    assert rc == 3 and out == ""
    assert err == "error: --viscosity is not used by collide\n"


@pytest.mark.parametrize("line,defaults", [
    (["--sphere-radius=1e-5"], ["--t-end=1e3", "--n-times=25", "--a=1e-5"]),
    (["--mechanism=brownian", "--sphere-radius=1e-5", "--pressure=5e-17Torr",
      "--times=1,100"],
     ["--temperature=293.15", "--gas-mass=N2", "--realm=molecular"]),
])
def test_diffuse_reads_its_documented_defaults(line, defaults):
    # the defaults the help text gives, which apply only where a flag is
    # read: 25 times up to 1000 s, a = 1e-5 cm, 293.15 K and N2
    from cslwalk.core import N2_MOLECULAR_MASS

    defaults = [d.replace("N2", repr(N2_MOLECULAR_MASS)) for d in defaults]
    argv = ["diffuse", *line, "--json"]
    assert _readme_stdout(argv) == _readme_stdout(argv + defaults)
