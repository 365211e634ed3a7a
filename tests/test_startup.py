"""Start-up cost: importing the package loads numpy and the package alone,
and no call or command loads scipy.

Each case runs in a fresh interpreter, since the test process itself may have
loaded scipy already.
"""
import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from attachnet.cli import main
from attachnet.compare import confidence_ellipse, mann_whitney_u, pearson_significance

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_fresh(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_neither_scipy_nor_concurrent_futures():
    loaded = json.loads(run_fresh(
        "import json, sys\n"
        "import attachnet, attachnet.cli\n"
        "print(json.dumps([m for m in ('scipy', 'concurrent.futures') if m in sys.modules]))\n"
    ))
    assert loaded == []


# the three calls that compute a p value or quantile: an F quantile, a t-test
# p, and a Mann-Whitney p from the normal approximation (tied values)
FIRST_CALLS = {
    "ellipse": "confidence_ellipse([[0.0, 1.0], [2.0, 0.5], [1.0, 3.0], [4.0, 2.5]], level=0.9)",
    "pearson": "pearson_significance(0.822843, 24)",
    "mwu-normal": "mann_whitney_u([1.0, 2.0, 2.0, 5.0, 7.0], [2.0, 3.0, 8.0, 8.0, 9.0, 11.0])",
}


@pytest.mark.parametrize("call", FIRST_CALLS.values(), ids=FIRST_CALLS.keys())
def test_first_call_loads_scipy_and_matches_in_process(call):
    """Each call once imported scipy on first use, hence the name; now a fresh
    interpreter with ``sys.modules["scipy"] = None``, where any scipy import
    raises, gives the call's result, identical to this process's."""
    out = run_fresh(
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from attachnet.compare import confidence_ellipse, mann_whitney_u, pearson_significance\n"
        f"result = {call}\n"
        "assert sys.modules['scipy'] is None\n"
        "assert not [m for m in sys.modules if m.startswith('scipy.')]\n"
        "print(repr(result))\n"
    )
    assert out == repr(eval(call)) + "\n"


def command_stdout(argv) -> list:
    """``main(argv)``'s exit code and standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return [code, out.getvalue()]


def test_no_command_loads_scipy(tmp_path):
    """With ``sys.modules["scipy"] = None`` every scipy import raises, so a
    fresh interpreter that gives each command's output, identical to this
    process's, loaded none."""
    values, groups = tmp_path / "values.csv", tmp_path / "groups.csv"
    tied = {"a": [1.0, 2.0, 2.0, 5.0, 7.0], "b": [2.0, 3.0, 8.0, 8.0, 9.0, 11.0]}
    items = [(f"i{g}{k}", g, v) for g, vs in tied.items() for k, v in enumerate(vs)]
    values.write_text("item,value\n" + "".join(f"{i},{v}\n" for i, _, v in items))
    groups.write_text("item,group\n" + "".join(f"{i},{g}\n" for i, g, _ in items))
    points = tmp_path / "points.csv"
    assert main(["compare", "pca", "lo2009", "-o", str(points)]) == 0
    commands = [
        ["compare", "edges", "fixture", "external", "--mode", "union"],
        ["compare", "edges", "fixture", "external", "--mode", "intersection"],
        ["compare", "mwu", str(values), "--groups", str(groups)],
        ["compare", "ellipse", str(points)],
        ["analyze", "--fixture"],
    ]
    fresh = json.loads(run_fresh(
        "import contextlib, io, json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from attachnet.cli import main\n"
        + inspect.getsource(command_stdout) +
        f"print(json.dumps([command_stdout(argv) for argv in {commands!r}]))\n"
    ))
    assert fresh == [command_stdout(argv) for argv in commands]
    assert "p=2.48e-07" in fresh[0][1]
    assert "U=5 p=0.0793" in fresh[2][1]
