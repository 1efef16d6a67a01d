"""Slow gate outside tier-1: `verify --suite all` at J_2(7,3), 11,811
vertices, the first D = 3 instance off the boundary.  Deselected by
default (pyproject `addopts`); run it with

    PYTHONPATH=src python -m pytest -m slow tests/test_frontier.py

The run is a fresh interpreter, so its peak RSS is its own: the child's
`ru_maxrss` from `os.wait4`.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MAX_RSS_MIB = 2048
MAX_WALL_S = 120.0


@pytest.mark.slow
def test_j2_7_3_verify_all_within_budget(tmp_path):
    out = tmp_path / "j273.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    argv = ["verify", "--q", "2", "--n", "7", "--d", "3", "--suite", "all", "--out", str(out)]
    code = "import sys; from qgrass.cli import main; sys.exit(main(sys.argv[1:]))"
    t0 = time.monotonic()
    child = subprocess.Popen([sys.executable, "-c", code, *argv], env=env, stdout=subprocess.DEVNULL)
    _pid, status, usage = os.wait4(child.pid, 0)
    wall = time.monotonic() - t0
    child.returncode = os.waitstatus_to_exitcode(status)
    assert child.returncode == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["ok"] is True
    assert doc["meta"]["certificate_paths"] == {"main": "automorphism", "boundary": "automorphism"}
    failed = [
        (suite, check["name"])
        for suite, result in doc["suites"].items()
        for check in result["checks"]
        if not check["passed"]
    ]
    assert failed == []
    assert doc["artifacts"]["spectrum"]["mult"] == [1, 126, 2540, 9144]
    assert doc["artifacts"]["nucleus"]["nucleus_dims"] == [1, 7, 7, 1]
    assert usage.ru_maxrss < MAX_RSS_MIB * 1024, usage.ru_maxrss
    assert wall < MAX_WALL_S, wall
