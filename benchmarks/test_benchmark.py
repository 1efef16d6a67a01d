"""Tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest -q benchmarks

They cover the seeded inputs, the reference check of reports, the
layer coverage guard and the repeatability of traced counts.
"""

from __future__ import annotations

import copy
import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
sys.path[:0] = [str(BENCH_DIR), str(SRC)]

import run  # noqa: E402
from tracer import REQUIRED, Tracer  # noqa: E402
from workloads import WORKLOADS, call_failure, report_digest, seeded_x_rows, verify_argv  # noqa: E402

SEEDS = [0, 1, 2, 17, 123456]


def span_size(rows: list[list[int]], q: int) -> int:
    """Number of distinct vectors in the F_q-span of rows, by brute force."""
    n = len(rows[0])
    vectors = set()
    for coeffs in itertools.product(range(q), repeat=len(rows)):
        vectors.add(tuple(sum(c * r[j] for c, r in zip(coeffs, rows)) % q for j in range(n)))
    return len(vectors)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name):
    w = WORKLOADS[name]
    for seed in SEEDS:
        assert seeded_x_rows(w, seed) == seeded_x_rows(w, seed)
    assert len({tuple(seeded_x_rows(w, s)) for s in SEEDS}) == len(SEEDS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_base_vertex_has_rank_d(name):
    w = WORKLOADS[name]
    for seed in SEEDS:
        xs = seeded_x_rows(w, seed)
        assert len(xs) == w.vertices
        for text in xs:
            rows = [[int(ch) for ch in part] for part in text.split(";")]
            assert len(rows) == w.d and all(len(r) == w.n for r in rows)
            assert all(0 <= v < w.q for r in rows for v in r)
            assert span_size(rows, w.q) == w.q ** w.d


@pytest.fixture(scope="module")
def boundary_report(tmp_path_factory):
    from qgrass.cli import main

    w = WORKLOADS["boundary-j3-4-2"]
    out = tmp_path_factory.mktemp("report") / "report.json"
    status = main(verify_argv(w, seeded_x_rows(w, 5)[0], str(out)))
    return w, status, json.loads(out.read_text(encoding="utf-8"))


def test_reference_accepts_the_report(boundary_report):
    w, status, report = boundary_report
    assert call_failure(w, status, report) is None
    other = copy.deepcopy(report)
    other["meta"] = {"timings": {}, "timestamp": "elsewhen"}
    other["config"]["x_rows"] = "standard"
    assert report_digest(other) == w.reference


def test_altered_check_value_fails(boundary_report):
    w, status, report = boundary_report
    altered = copy.deepcopy(report)
    check = altered["suites"]["geometry"]["checks"][0]
    check["observed"] = check["expected"] = "altered"
    assert altered["ok"] is True and check["passed"] is True
    assert "digest" in call_failure(w, status, altered)


def test_failed_status_or_verdict_fails(boundary_report):
    w, status, report = boundary_report
    assert call_failure(w, 1, report) == "exit status 1"
    assert call_failure(w, status, None) == "no readable report"
    refuted = copy.deepcopy(report)
    refuted["ok"] = False
    assert call_failure(w, status, refuted) == "report has ok != true"


def test_guard_rejects_a_missing_function():
    code = (
        "import qgrass.cli, qgrass.nucleus\n"
        "del qgrass.nucleus.verify_bases\n"
        "from tracer import Tracer\n"
        "Tracer().install()\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=run.child_env(), capture_output=True, text=True, timeout=120
    )
    assert proc.returncode != 0
    assert "CoverageError" in proc.stderr and "nucleus.verify_bases" in proc.stderr


def test_guard_reports_stages_never_entered():
    tracer = Tracer()
    assert tracer.missing(tracer.summary()) == REQUIRED


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    call = {"s": 1.0, "failure": None, "timings": {}, "materialized": None}
    plain = {"samples": [call], "peak_rss_mb": 1.0}
    traced = {"samples": [call], "trace": Tracer().summary()}
    layer = run.per_layer(plain, traced)
    e2e, _lines = run.end_to_end(plain, [0.5])
    for section, got in (("per_layer", layer), ("end_to_end", e2e)):
        assert {m["name"]: m["unit"] for m in spec[section]} == {k: m["unit"] for k, m in got.items()}


def traced_counts(tmp_path) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(BENCH_DIR / "worker.py"),
            "--workload", "boundary-j3-4-2", "--seed", "3", "--seconds", "0",
            "--src", str(SRC), "--tmp", str(tmp_path), "--trace",
        ],
        env=run.child_env(), capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert len(result["samples"]) == WORKLOADS["boundary-j3-4-2"].vertices
    assert all(call["failure"] is None for call in result["samples"])
    trace = result["trace"]
    calls = {name: f["calls"] for name, f in trace["functions"].items()}
    elements = [call["materialized"] for call in result["samples"]]
    return {"calls": calls, "counts": trace["counts"], "poset_elements": elements}


def test_traced_counts_repeat_exactly(tmp_path):
    first = traced_counts(tmp_path)
    assert all(first["calls"][name] > 0 for name in REQUIRED)
    assert first == traced_counts(tmp_path)
