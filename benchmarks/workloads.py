"""Workloads of the `qgrass verify` benchmark, their seeded inputs and
the reference each report is checked against.

Every workload runs `qgrass verify --suite all` on one Grassmann graph
J_q(N, D).  The seed only picks the base vertices x: each is a uniformly
random D-dimensional subspace of F_q^N, drawn here as a random rank-D
matrix over F_q (every subspace has the same number of bases, so
rejection sampling on the rank is uniform over subspaces).  The program
sees nothing but the `--x-rows` text.

The verified report does not depend on x once `meta` (timings,
timestamp) and `config.x_rows` are removed, so one digest per workload
covers every seed.  The digests were recorded at the benchmark's first
commit; a report that hashes differently is a failed call.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    q: int
    n: int
    d: int
    # number of seeded base vertices a run cycles through
    vertices: int
    reference: str


WORKLOADS = {
    w.name: w
    for w in [
        # 651 vertices: dense |V| x |V| products, spectral idempotents and
        # Bareiss elimination in compute_nucleus carry almost all the time.
        Workload(
            "dense-j2-6-2", 2, 6, 2, 1,
            "98bbd2342baa388dbbaf158ef4dc34d7f123715e92c8d4e86fb6301518243b68",
        ),
        # Full poset of F_2^6 (2825 subspaces) on a 63-vertex graph: the
        # quadratic cover scan in build_poset_matrices dominates and every
        # dense stage is tiny.
        Workload(
            "poset-j2-6-1", 2, 6, 1, 4,
            "5801f489789580e2bb947c785a514a9fae96daf754480b0ce1fe0fbc016d8fbf",
        ),
        # N = 2D with q = 3: the boundary regime, where the alpha family
        # does not span the nucleus; compute_nucleus runs twice per call and
        # many small calls on several base vertices expose per-call costs.
        Workload(
            "boundary-j3-4-2", 3, 4, 2, 4,
            "5e45468677ac4a8377d7f2ba4bb160ead830f4dfa302b30a1dd43f404f607c81",
        ),
    ]
}


def rank_mod(rows: list[list[int]], q: int) -> int:
    """Rank of an integer matrix over the prime field F_q."""
    mat = [[v % q for v in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][c], q - 2, q)
        mat[rank] = [v * inv % q for v in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(a - f * b) % q for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def random_base_vertex(rng: random.Random, q: int, n: int, d: int) -> list[list[int]]:
    """A uniformly random D-dimensional subspace of F_q^N, as the rows of
    a random rank-D matrix (not reduced to echelon form)."""
    while True:
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(d)]
        if rank_mod(rows, q) == d:
            return rows


def seeded_x_rows(workload: Workload, seed: int) -> list[str]:
    """The workload's base vertices for this seed, as `--x-rows` texts.
    The same seed always gives the same list."""
    rng = random.Random(f"{workload.name}/{seed}")
    out = []
    for _ in range(workload.vertices):
        rows = random_base_vertex(rng, workload.q, workload.n, workload.d)
        out.append(";".join("".join(str(v) for v in row) for row in rows))
    return out


def verify_argv(workload: Workload, x_rows: str, out_path: str) -> list[str]:
    return [
        "verify",
        "--q", str(workload.q),
        "--n", str(workload.n),
        "--d", str(workload.d),
        "--suite", "all",
        "--x-rows", x_rows,
        "--out", out_path,
    ]


def report_digest(report: dict) -> str:
    """sha256 of the report without `meta` and `config.x_rows`."""
    body = {k: v for k, v in report.items() if k != "meta"}
    body["config"] = {k: v for k, v in body.get("config", {}).items() if k != "x_rows"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def call_failure(workload: Workload, status, report: dict | None) -> str | None:
    """Why one main() call failed, or None when it passed: a non-zero exit,
    a report with `ok: false`, or a report unlike the reference."""
    if status != 0:
        return f"exit status {status}"
    if report is None:
        return "no readable report"
    if report.get("ok") is not True:
        return "report has ok != true"
    digest = report_digest(report)
    if digest != workload.reference:
        return f"report digest {digest} differs from the reference"
    return None
