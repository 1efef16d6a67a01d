"""Slow gates outside tier-1, at the D = 3 frontier: `verify --suite
all` at J_2(7,3), 11,811 vertices, the first D = 3 instance off the
boundary; the graph build of J_3(6,3), 33,880 vertices, a boundary
instance past the default table cap; and the build and spectral system
of J_2(8,3), 97,155 vertices.  Deselected by default (pyproject
`addopts`); run them with

    PYTHONPATH=src python -m pytest -m slow tests/test_frontier.py

Each run is a fresh interpreter, so its peak RSS is its own: the
child's `ru_maxrss` from `os.wait4`.
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MAX_WALL_S = 120.0
# sha256 of the J_2(7,3) `verify --suite all` report minus `meta`
J2_7_3_REPORT = "27584a21635ffe0b70299597eb6d752eedc182b7015716fefe7537a81781bf78"


def run_child(code, *argv):
    """(exit status, standard output, wall seconds, ru_maxrss in KiB) of
    `python -c code argv...` with this checkout's `src` on its path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    t0 = time.monotonic()
    child = subprocess.Popen([sys.executable, "-c", code, *argv], env=env, stdout=subprocess.PIPE, text=True)
    out = child.stdout.read()
    child.stdout.close()
    _pid, status, usage = os.wait4(child.pid, 0)
    wall = time.monotonic() - t0
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, out, wall, usage.ru_maxrss


@pytest.mark.slow
def test_j2_7_3_verify_all_within_budget(tmp_path):
    out = tmp_path / "j273.json"
    argv = ["verify", "--q", "2", "--n", "7", "--d", "3", "--suite", "all", "--out", str(out)]
    code = "import sys; from qgrass.cli import main; sys.exit(main(sys.argv[1:]))"
    returncode, _stdout, wall, rss = run_child(code, *argv)
    assert returncode == 0
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
    # the report outside `meta`, as pinned for the smaller instances in
    # tests/test_cli.py
    doc.pop("meta")
    text = json.dumps(doc, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == J2_7_3_REPORT
    assert rss < 2048 * 1024, rss
    assert wall < MAX_WALL_S, wall


@pytest.mark.slow
def test_j3_6_3_build_within_budget():
    # the build alone: the action certificate and the structure
    # constants at row x, and the metric certificate.  The action reads
    # no inclusion matrix, and the edge premise reads the 13 rows of W_2
    # at the lines of x, not all 11,011, so the build stays under 512 MiB
    code = (
        "import json; from qgrass.grassmann import build_graph; "
        "gc = build_graph(3, 6, 3, table_cap=300000); "
        "checks = [*gc.build_checks.checks, *gc.structure_checks.checks]; "
        "print(json.dumps([gc.certificate_path, len(checks), [c.name for c in checks if not c.passed]]))"
    )
    returncode, out, wall, rss = run_child(code)
    assert returncode == 0
    assert json.loads(out) == ["automorphism", 9, []]
    assert rss < 512 * 1024, rss
    assert wall < MAX_WALL_S, wall


@pytest.mark.slow
def test_j2_8_3_build_and_spectral_within_budget():
    # the build and the spectral system, whose rank certificate reads
    # row x of each W_i^T W_i from the [3,i]_2 rows of W_i at the
    # i-subspaces of x: no W_i is built whole (W_2 would be 10,795 x
    # 97,155)
    code = (
        "import json; from qgrass.grassmann import build_graph, spectral_system; "
        "gc = build_graph(2, 8, 3, table_cap=300000); ss = spectral_system(gc); "
        "checks = [*gc.build_checks.checks, *gc.structure_checks.checks, *ss.checks.checks]; "
        "print(json.dumps([gc.certificate_path, [c.name for c in checks if not c.passed], ss.partial_ranks]))"
    )
    returncode, out, wall, rss = run_child(code)
    assert returncode == 0
    assert json.loads(out) == ["automorphism", [], [1, 255, 10795, 97155]]
    assert rss < 512 * 1024, rss
    assert wall < MAX_WALL_S, wall
