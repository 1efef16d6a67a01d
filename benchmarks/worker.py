"""One benchmark child: runs a workload's `qgrass.cli.main` calls in this
fresh process and prints one JSON line with what it measured.

    python3 benchmarks/worker.py --workload NAME --seed N --seconds T --src DIR --tmp DIR [--trace]

A sample is one `main` call.  Calls cycle through the workload's seeded
base vertices and repeat while another one is expected to end within T
seconds; every base vertex gets at least one call, so T = 0 runs exactly
one sweep.  Every call writes its
report into the `--tmp` directory, and the report is checked against
the workload's reference before the next call.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import time
import traceback
from pathlib import Path

from tracer import CoverageError, Tracer, rss_mb
from workloads import WORKLOADS, call_failure, seeded_x_rows, verify_argv


def import_program(src: Path):
    """Import qgrass.cli and refuse any copy but the one under `src`."""
    import qgrass
    import qgrass.cli

    where = Path(qgrass.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"qgrass was imported from {where}, not from {src}")
    return qgrass.cli


def run_call(cli, workload, x_rows: str, out_dir: str) -> dict:
    out_path = os.path.join(out_dir, "report.json")
    if os.path.exists(out_path):
        os.remove(out_path)
    argv = verify_argv(workload, x_rows, out_path)
    captured = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            status = cli.main(argv)
    except SystemExit as exc:
        status = exc.code
    except Exception:
        traceback.print_exc()
        status = "exception"
    elapsed = time.perf_counter() - t0
    try:
        with open(out_path, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, json.JSONDecodeError):
        report = None
    failure = call_failure(workload, status, report)
    if failure is not None:
        sys.stderr.write(f"call failed ({failure}) for x={x_rows}\n{captured.getvalue()}")
    timings = report.get("meta", {}).get("timings", {}) if report else {}
    materialized = None
    if report:
        materialized = report.get("suites", {}).get("halgebra", {}).get("values", {}).get("materialized")
    return {"s": elapsed, "failure": failure, "timings": timings, "materialized": materialized}


def run_samples(cli, workload, x_list: list[str], seconds: float, out_dir: str) -> list[dict]:
    calls = []
    start = time.perf_counter()
    while True:
        calls.append(run_call(cli, workload, x_list[len(calls) % len(x_list)], out_dir))
        elapsed = time.perf_counter() - start
        if len(calls) >= len(x_list) and elapsed + elapsed / len(calls) > seconds:
            return calls


def versions() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--src", required=True, help="the checkout's src directory")
    ap.add_argument("--tmp", required=True, help="directory for the reports")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    cli = import_program(Path(args.src))
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    x_list = seeded_x_rows(workload, args.seed)
    samples = run_samples(cli, workload, x_list, args.seconds, args.tmp)
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "x_rows": x_list,
        "samples": samples,
        "peak_rss_mb": rss_mb(),
        "versions": versions(),
    }
    if tracer is not None:
        summary = tracer.summary()
        missing = tracer.missing(summary)
        if missing:
            raise CoverageError(f"never entered on {workload.name}: {', '.join(missing)}")
        result["trace"] = summary
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
