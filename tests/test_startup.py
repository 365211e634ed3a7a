"""Start-up cost: importing the package loads numpy and the package alone.

scipy is imported by the three functions that compute a p value or quantile
with it, on their first call; these tests run each case in a fresh
interpreter, since the test process itself may have loaded scipy already.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


# each call reaches the scipy function it names: an F quantile, a t-test p,
# and a Mann-Whitney p from the normal approximation (tied values)
FIRST_CALLS = {
    "ellipse": "confidence_ellipse([[0.0, 1.0], [2.0, 0.5], [1.0, 3.0], [4.0, 2.5]], level=0.9)",
    "pearson": "pearson_significance(0.822843, 24)",
    "mwu-normal": "mann_whitney_u([1.0, 2.0, 2.0, 5.0, 7.0], [2.0, 3.0, 8.0, 8.0, 9.0, 11.0])",
}


@pytest.mark.parametrize("call", FIRST_CALLS.values(), ids=FIRST_CALLS.keys())
def test_first_call_loads_scipy_and_matches_in_process(call):
    out = run_fresh(
        "import sys\n"
        "from attachnet.compare import confidence_ellipse, mann_whitney_u, pearson_significance\n"
        "assert 'scipy' not in sys.modules\n"
        f"result = {call}\n"
        "assert 'scipy' in sys.modules\n"
        "print(repr(result))\n"
    )
    assert out == repr(eval(call)) + "\n"
