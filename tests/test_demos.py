"""Every demo and the README quickstart run to completion with scipy
blocked: exit 0 and no traceback on stderr.

Each demo runs as its own process in a temporary directory, so the CSV
files some of them write land there.  A `sys.meta_path` finder placed ahead
of the others refuses every `scipy` import in that process, because numpy
is the package's only run-time dependency.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
QUICKSTART = re.search(r"## Library quickstart\n\n```python\n(.*?)```",
                       (ROOT / "README.md").read_text(), re.S).group(1)

NO_SCIPY = """\
import sys

class _RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ModuleNotFoundError(f"{name} is blocked", name=name)

sys.meta_path.insert(0, _RefuseScipy())
"""


def _run_without_scipy(code: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", NO_SCIPY + code], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)


def test_the_five_demos_are_found():
    assert len(DEMOS) == 5


def test_the_finder_refuses_scipy(tmp_path):
    proc = _run_without_scipy("import scipy", tmp_path)
    assert proc.returncode != 0
    assert "scipy is blocked" in proc.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    proc = _run_without_scipy(
        f"import runpy\nrunpy.run_path({str(demo)!r}, run_name='__main__')",
        tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


def test_width_ode_runs_without_scipy(tmp_path):
    proc = _run_without_scipy(
        "from cslwalk import sigma_ode_integrate\n"
        "out = sigma_ode_integrate(1e-12, 1e-15, 1e-20, "
        "1e-5, [0.5, 1.0])\n"
        "print(len(out))", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout.split() == ["2"]


def test_readme_quickstart_gives_its_commented_numbers(tmp_path):
    # a statement whose comment quotes a number must give that number to the
    # last digit the comment shows
    lines = QUICKSTART.splitlines()
    code, quoted = [QUICKSTART], []
    for stmt in ast.parse(QUICKSTART).body:
        number = re.search(r"\d+(\.\d+)?", lines[stmt.end_lineno - 1].partition("#")[2])
        if number:
            value = stmt.value if isinstance(stmt, ast.Expr) else stmt.targets[0]
            code.append(f"print(float({ast.get_source_segment(QUICKSTART, value)}))")
            quoted.append(number.group())
    proc = _run_without_scipy("\n".join(code), tmp_path)
    assert proc.returncode == 0, proc.stderr
    values = [float(v) for v in proc.stdout.split()]
    assert len(values) == len(quoted) == 5
    for value, q in zip(values, quoted):
        assert round(value, len(q.partition(".")[2])) == float(q), (value, q)
