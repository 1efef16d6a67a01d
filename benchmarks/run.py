"""Benchmark of `qgrass verify --suite all`.

    python3 benchmarks/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout; the program is imported from its
`src/`.  Closed loop, one client: each run starts one fresh
single-threaded child (`worker.py`) that calls `qgrass.cli.main` on the
workload's seeded base vertices, one call after another, and checks
every report against the workload's reference.

With `--trace 0` the run reports the end-to-end metrics: `verify_s`
(seconds of one `main` call, the sum of all call times over the number
of calls, so that the whole run is averaged), `setup_s` (median of fresh
interpreters started until `qgrass.cli` is imported) and `peak_rss_mb`
(the child's own `ru_maxrss`).  With `--trace 1` it spends half the time
in an untraced child, then makes one traced sweep over the base
vertices, and reports per-layer spans and counters per call and
`trace_overhead_ratio`.  The last line of standard output is one JSON
object; the lines before it give the same numbers for people,
with quartiles, the inputs and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 12
CHILD_TIMEOUT_S = 170

sys.path.insert(0, str(BENCH_DIR))
from tracer import RSS_STAGES, TRACED  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SUITES = [
    "geometry", "spectrum", "krein", "nucleus", "actions",
    "bases", "gamma", "halgebra", "identities", "boundary",
]


def child_env() -> dict:
    """Single-threaded children with a fixed hash seed and no subspace
    table cache, importing only this checkout's program."""
    env = dict(os.environ)
    env.pop("QGRASS_CACHE_DIR", None)
    env.update({
        "PYTHONPATH": os.pathsep.join([str(SRC), str(BENCH_DIR)]),
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def measure_setup(env: dict, count: int) -> list[float]:
    """Seconds from starting a fresh interpreter until `qgrass.cli` is
    imported, `count` times.  CLOCK_MONOTONIC is shared by parent and
    child."""
    code = "import qgrass.cli\nimport time\nprint(repr(time.monotonic()))"
    out = []
    for _ in range(count):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError("importing qgrass.cli failed")
        out.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
    return out


def run_worker(env: dict, args, seconds: float, trace: bool, tmp: str) -> dict:
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--src", str(SRC), "--tmp", tmp,
    ]
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def sample_seconds(result: dict) -> list[float]:
    return [call["s"] for call in result["samples"]]


def environment(worker: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "commit": commit, **worker["versions"]}


def mean_call(worker: dict) -> float:
    """Seconds of one `main` call over the whole run.  The host's speed
    drifts for tens of seconds at a time, so averaging every call of the
    run spreads less from run to run than the median call does."""
    return statistics.fmean(sample_seconds(worker))


def end_to_end(worker: dict, setup: list[float]) -> tuple[dict, list[str]]:
    verify = sample_seconds(worker)
    lines = [f"verify_s: mean {mean_call(worker):.4f} s over n={len(verify)} calls"]
    for name, values in (("call", verify), ("setup_s", setup)):
        q1, med, q3 = quartiles(values)
        lines.append(f"{name}: median {med:.4f} s  (q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)})")
    lines.append(f"peak_rss_mb: {worker['peak_rss_mb']:.2f} MiB")
    metrics = {
        "verify_s": {"value": mean_call(worker), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MiB"},
    }
    return metrics, lines


def per_layer(plain: dict, traced: dict) -> dict:
    n = len(traced["samples"])
    trace = traced["trace"]
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for name in TRACED:
        entry = trace["functions"][name]
        put(f"{name}.s", entry["s"] / n, "s")
        put(f"{name}.self_s", entry["self_s"] / n, "s")
        put(f"{name}.calls", entry["calls"] / n, "count")
    counts = trace["counts"]
    put("subspaces.enumerated", counts["subspaces.enumerated"] / n, "count")
    put("grassmann.exact_int_product.macs", counts["grassmann.exact_int_product.macs"] / n, "count")
    put("linalg.product.macs", counts["linalg.product.macs"] / n, "count")
    product_calls = trace["functions"]["linalg.product"]["calls"]
    share = counts["linalg.product.int64_calls"] / product_calls if product_calls else 0.0
    put("linalg.product.int64_share", share, "ratio")
    elements = sum(call["materialized"] or 0 for call in traced["samples"])
    put("ladders.poset_elements", elements / n, "count")
    for suite in SUITES:
        total = sum(call["timings"].get(suite, 0.0) for call in traced["samples"])
        put(f"cli.suite.{suite}.s", total / n, "s")
    for key in RSS_STAGES.values():
        put(key, trace["rss"].get(key, 0.0), "MiB")
    put("trace_overhead_ratio", mean_call(traced) / mean_call(plain) - 1.0, "ratio")
    return metrics


def failures(*workers: dict) -> tuple[int, int]:
    calls = [call for w in workers for call in w["samples"]]
    return len(calls), sum(1 for call in calls if call["failure"] is not None)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="qgrass verify benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (SRC / "qgrass" / "cli.py").is_file():
        print(f"no qgrass program under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as tmp:
        if args.trace:
            plain = run_worker(env, args, args.seconds / 2, False, tmp)
            # one sweep over the base vertices, so every count repeats exactly
            traced = run_worker(env, args, 0.0, True, tmp)
            workers = [plain, traced]
            metrics = per_layer(plain, traced)
            lines = [f"{name}: {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
        else:
            # Half the set-up samples before the worker and half after, so
            # that their median spans the run; the first start only writes
            # byte-code caches and is dropped.
            setup = measure_setup(env, SETUP_SAMPLES // 2 + 1)[1:]
            plain = run_worker(env, args, args.seconds, False, tmp)
            setup += measure_setup(env, SETUP_SAMPLES // 2)
            workers = [plain]
            metrics, lines = end_to_end(plain, setup)
    attempted, failed = failures(*workers)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for i, x in enumerate(plain["x_rows"]):
        print(f"x[{i}] = {x}")
    print(f"environment: {json.dumps(environment(plain), sort_keys=True)}")
    for line in lines:
        print(line)
    print(f"run_fail_ratio: {failed}/{attempted} = {failed / attempted:.4f} (failed / attempted calls)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
