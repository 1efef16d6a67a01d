"""Command-line verification harness.

Two subcommands: `verify` runs selected check suites against one graph
J_q(N, D) and writes a machine-readable report; `identities` runs the
standalone q-arithmetic identity suite.  Every value in a report is
exact; timings and the timestamp live under "meta" so that reports for
identical configurations are byte-identical outside that key.  The meta
key also records how each nucleus piece was certified
("nucleus_paths"), how the distance-algebra certificates of each built
graph were decided ("certificate_paths": "automorphism" or "dense", for
the graph of the run, "main", and for the J_q(2D, D) of the boundary
suite when N != 2D; see `grassmann.GraphContext.certificate_path`) and
how the exact ranks and kernels of the run were decided ("elimination":
certified mod p, certificate failed, Bareiss eliminations run; see
`linalg.elimination_counts`).

Exit status: 0 when every executed check passes, 1 when any check
fails, 2 for unusable parameters (among them an unwritable --out path),
a size cap hit or an allocation the machine cannot serve.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from datetime import datetime, timezone
from functools import cached_property

from .errors import InvalidParameters, QgrassError, SizeCapExceeded
from .grassmann import (
    build_graph,
    intersection_numbers,
    krein_parameters,
    spectral_system,
    spectrum_json,
)
from .ladders import alpha_dominant_multiplicity, build_poset_matrices, enumerate_types, type_to_parameters
from .linalg import elimination_counts
from .nucleus import (
    boundary_case_report,
    build_alpha_family,
    compute_nucleus,
    gamma_components,
    nucleus_report_json,
    verify_actions,
    verify_bases,
)
from .qarith import verify_q_identities
from .report import CheckSet
from .subspaces import DEFAULT_POSET_CAP, DEFAULT_TABLE_CAP

SUITE_ORDER = [
    "geometry",
    "spectrum",
    "krein",
    "nucleus",
    "actions",
    "bases",
    "gamma",
    "halgebra",
    "identities",
    "boundary",
]

_DEPENDENCIES = {
    "geometry": [],
    "spectrum": ["geometry"],
    "krein": ["spectrum"],
    "nucleus": ["spectrum"],
    "actions": ["spectrum"],
    "bases": ["nucleus"],
    "gamma": ["geometry"],
    "halgebra": ["nucleus"],
    "identities": [],
    "boundary": [],
}

# the suites that use the alpha family; its build checks are reported
# once, by the first of them that runs
FAMILY_SUITES = ["actions", "bases", "gamma"]

IDENTITIES_LMAX = 12


def _parse_x_rows(text: str, q: int, n: int) -> tuple:
    """Rows of the base vertex from 'r1;r2;...': each row exactly n of
    the ASCII digits 0..q-1, so no row is reduced mod q behind the
    report's back.  An entry is one digit, so for q >= 11 only the
    entries 0..9 can be given."""
    digits = "0123456789"[:q]
    rows = []
    for part in text.split(";"):
        part = part.strip()
        if len(part) != n or not all(ch in digits for ch in part):
            raise InvalidParameters(
                f"x row {part!r} must be exactly {n} digits in 0..{len(digits) - 1}"
            )
        rows.append(tuple(int(ch) for ch in part))
    return tuple(rows)


class _Pipeline:
    """Lazily built shared objects for one (q, N, D, x) configuration;
    `name in vars(pipe)` tells whether one was built."""

    def __init__(self, q, n, d, x_rows, table_cap, poset_cap):
        self.q, self.n, self.d = q, n, d
        self.x_rows = x_rows
        self.table_cap = table_cap
        self.poset_cap = poset_cap

    @cached_property
    def gc(self):
        return build_graph(
            self.q,
            self.n,
            self.d,
            x_rows=self.x_rows,
            table_cap=self.table_cap,
            poset_cap=self.poset_cap,
        )

    @cached_property
    def nums(self):
        return intersection_numbers(self.gc)

    @cached_property
    def spectral(self):
        return spectral_system(self.gc)

    @cached_property
    def nucleus(self):
        return compute_nucleus(self.spectral)

    @cached_property
    def family(self):
        return build_alpha_family(self.gc)

    @cached_property
    def gamma(self):
        return gamma_components(self.gc, self.family)

    @cached_property
    def actions(self):
        return verify_actions(self.spectral, self.family)


def _run_suite(
    name: str, pipe: _Pipeline, artifacts: dict, meta: dict, family_checks: bool
) -> CheckSet:
    """Run one suite; family_checks adds the alpha family's build checks
    to its entry."""
    cs = CheckSet(name)
    if name == "geometry":
        cs.extend(pipe.gc.build_checks)
        _nums, ncs = pipe.nums
        cs.extend(ncs)
    elif name == "spectrum":
        ss = pipe.spectral
        cs.extend(ss.checks)
        nums, _ = pipe.nums
        artifacts["spectrum"] = spectrum_json(pipe.gc, ss, nums)
    elif name == "krein":
        _kp, kcs = krein_parameters(pipe.spectral)
        cs.extend(kcs)
    elif name == "nucleus":
        cs.extend(pipe.nucleus.checks)
    elif name in FAMILY_SUITES:
        fam = pipe.family
        if family_checks:
            cs.extend(fam.checks)
        if name == "actions":
            cs.extend(pipe.actions)
        elif name == "bases":
            cs.extend(verify_bases(pipe.nucleus, fam))
        else:
            cs.extend(pipe.gamma.checks)
    elif name == "halgebra":
        pm = build_poset_matrices(pipe.gc.geometry)
        cs.extend(pm.checks)
        q, n, d = pipe.q, pipe.n, pipe.d
        mu = [alpha_dominant_multiplicity(q, d, r) for r in range(d // 2 + 1)]
        if pipe.nucleus.boundary:
            # the multiplicity formula needs N > 2D; observe, never assert
            cs.record("alpha_dominant_multiplicities_generic", mu)
            cs.record("nucleus_endpoint_multiplicities", pipe.nucleus.mult_r)
        else:
            cs.check(
                "alpha_dominant_multiplicities_match_nucleus",
                mu,
                pipe.nucleus.mult_r,
            )
        type_map = {
            f"({mt.alpha},{mt.beta},{mt.rho})": list(type_to_parameters(n, d, mt))
            for mt in enumerate_types(n, d)
        }
        cs.record("module_types", type_map)
    elif name == "identities":
        cs.extend(verify_q_identities(IDENTITIES_LMAX, pipe.q))
    elif name == "boundary":
        # J_q(2D, D) at its standard base vertex, or the verified graph
        # itself when N = 2D
        bp = pipe
        if pipe.n != 2 * pipe.d:
            bp = _Pipeline(pipe.q, 2 * pipe.d, pipe.d, None, pipe.table_cap, pipe.poset_cap)
        doc = boundary_case_report(bp.spectral, bp.nucleus, bp.family, bp.gamma, bp.actions)
        meta["nucleus_paths"]["boundary"] = doc.pop("nucleus_paths")
        if bp is not pipe:
            meta["certificate_paths"]["boundary"] = bp.gc.certificate_path
        for flag in (
            "build_ok",
            "spectral_ok",
            "structure_ok",
            "actions_ok",
            "fibration_ok",
        ):
            cs.check_true(flag, doc[flag])
        cs.record("dims_observed", doc["nucleus_dims"])
        cs.record(
            "dimension_matches_generic_formula",
            doc["dimension_matches_generic_formula"],
        )
        artifacts["boundary"] = doc
    else:
        raise InvalidParameters(f"unknown suite {name!r}")
    return cs


def _suite_closure(requested: list[str]) -> list[str]:
    needed = set()

    def add(s):
        if s not in needed:
            for dep in _DEPENDENCIES[s]:
                add(dep)
            needed.add(s)

    for s in requested:
        add(s)
    return [s for s in SUITE_ORDER if s in needed]


def _print_summary(report: dict, stream) -> None:
    rows = []
    for name in SUITE_ORDER:
        if name not in report["suites"]:
            continue
        entry = report["suites"][name]
        n_checks = len(entry["checks"])
        n_failed = sum(1 for c in entry["checks"] if not c["passed"])
        secs = report["meta"]["timings"].get(name, 0.0)
        verdict = "pass" if n_failed == 0 else "FAIL"
        star = "*" if entry["requested"] else " "
        rows.append((name + star, verdict, n_checks, n_failed, secs))
    width = max(len(r[0]) for r in rows) if rows else 8
    print(f"{'suite':<{width}}  result  checks  failed  seconds", file=stream)
    for name, verdict, n_checks, n_failed, secs in rows:
        print(
            f"{name:<{width}}  {verdict:<6}  {n_checks:>6}  {n_failed:>6}  {secs:>7.2f}",
            file=stream,
        )
    overall = "PASS" if report["ok"] else "FAIL"
    total = sum(len(e["checks"]) for e in report["suites"].values())
    print(f"overall: {overall} ({total} checks)", file=stream)


def _finish(report: dict, out_path: str | None, stream) -> int:
    report["ok"] = all(e["passed"] for e in report["suites"].values())
    _print_summary(report, stream)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            raise InvalidParameters(f"cannot write report {out_path}: {exc}") from exc
        print(f"report written to {out_path}", file=stream)
    return 0 if report["ok"] else 1


def _cmd_verify(args) -> int:
    requested = args.suite or ["all"]
    if "all" in requested:
        requested = list(SUITE_ORDER)
    to_run = _suite_closure(requested)
    x_rows = _parse_x_rows(args.x_rows, args.q, args.n) if args.x_rows else None

    pipe = _Pipeline(
        args.q,
        args.n,
        args.d,
        x_rows,
        args.max_vertices,
        args.max_poset,
    )
    report = {
        "config": {
            "command": "verify",
            "q": args.q,
            "N": args.n,
            "D": args.d,
            "x_rows": [
                "".join(str(v) for v in row) for row in x_rows
            ]
            if x_rows
            else "standard",
            "suites_requested": requested,
            "suites_run": to_run,
            "max_vertices": args.max_vertices,
            "max_poset": args.max_poset,
        },
        "suites": {},
        "artifacts": {},
        "meta": {
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "timings": {},
            "nucleus_paths": {},
            "certificate_paths": {},
        },
    }
    family_owner = next((s for s in to_run if s in FAMILY_SUITES), None)
    with elimination_counts() as counts:
        for name in to_run:
            t0 = time.monotonic()
            cs = _run_suite(
                name, pipe, report["artifacts"], report["meta"], name == family_owner
            )
            report["meta"]["timings"][name] = round(time.monotonic() - t0, 3)
            entry = cs.as_dict()
            entry["requested"] = name in requested
            report["suites"][name] = entry
    report["meta"]["elimination"] = counts
    if "gc" in vars(pipe):
        report["meta"]["certificate_paths"]["main"] = pipe.gc.certificate_path
    # the artifact covers the suites run on their own account, not what
    # the boundary suite built on the same pipeline
    if "nucleus" in to_run:
        report["artifacts"]["nucleus"] = nucleus_report_json(
            pipe.nucleus,
            pipe.family if family_owner else None,
            pipe.gamma if "gamma" in to_run else None,
        )
        report["meta"]["nucleus_paths"]["nucleus"] = list(pipe.nucleus.paths)
    return _finish(report, args.out, sys.stdout)


def _cmd_identities(args) -> int:
    report = {
        "config": {
            "command": "identities",
            "q": args.q,
            "lmax": args.lmax,
        },
        "suites": {},
        "artifacts": {},
        "meta": {
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "timings": {},
        },
    }
    t0 = time.monotonic()
    cs = CheckSet("identities")
    cs.extend(verify_q_identities(args.lmax, args.q))
    report["meta"]["timings"]["identities"] = round(time.monotonic() - t0, 3)
    entry = cs.as_dict()
    entry["requested"] = True
    report["suites"]["identities"] = entry
    return _finish(report, args.out, sys.stdout)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgrass",
        description="Exact verification of Grassmann graph structure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run check suites on one J_q(N, D)")
    v.add_argument("--q", type=int, required=True, help="prime field size")
    v.add_argument("--n", type=int, required=True, help="ambient dimension N")
    v.add_argument("--d", type=int, required=True, help="subspace dimension D")
    v.add_argument(
        "--suite",
        action="append",
        choices=SUITE_ORDER + ["all"],
        help="suite to run (repeatable; default all); dependencies are "
        "added automatically; 'boundary' always runs on J_q(2D, D)",
    )
    v.add_argument("--out", help="write the JSON report to this path")
    v.add_argument(
        "--max-vertices",
        type=int,
        default=DEFAULT_TABLE_CAP,
        help=f"refuse vertex enumerations beyond this (default {DEFAULT_TABLE_CAP})",
    )
    v.add_argument(
        "--max-poset",
        type=int,
        default=DEFAULT_POSET_CAP,
        help=f"materialize only a poset window beyond this (default {DEFAULT_POSET_CAP})",
    )
    v.add_argument(
        "--x-rows",
        help=(
            "base vertex as semicolon-separated rows of digits 0..q-1 "
            "(0..9 for q >= 11), e.g. '10000;01000'"
        ),
    )
    v.set_defaults(func=_cmd_verify)

    i = sub.add_parser("identities", help="run the q-identity suite alone")
    i.add_argument("--q", type=int, required=True, help="prime field size")
    i.add_argument(
        "--lmax", type=int, default=IDENTITIES_LMAX, help="largest length checked"
    )
    i.add_argument("--out", help="write the JSON report to this path")
    i.set_defaults(func=_cmd_identities)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SizeCapExceeded as exc:
        print(f"size cap exceeded: {exc}", file=sys.stderr)
        return 2
    except InvalidParameters as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 2
    except QgrassError as exc:
        # anything else from the library falsifies an expected fact
        print(f"verification error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # an instance too large for this machine is refused like one past
        # a size cap, not ended in a traceback
        print(f"out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
