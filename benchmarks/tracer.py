"""Spans around the public functions of each qgrass module, recorded
from outside the package.

`Tracer.install` replaces each listed function by a wrapper in every
qgrass module namespace that holds it (modules import names from each
other, e.g. `cli` imports `build_graph` and `nucleus` imports
`column_space_ops`), so every call path is seen.  A span records its
function, start, end and parent span; a function's self time is its
spans minus the spans of wrapped functions called inside them.

Only stage- and kernel-level functions are wrapped.  Per-pair helpers
(`CanonicalSubspace.is_subspace_of`, `dim_of_mask`,
`GeometryContext.cover_type`) run hundreds of millions of times on the
poset workloads and are never wrapped.
"""

from __future__ import annotations

import functools
import importlib
import resource
import sys
import time
from array import array

PACKAGE = "qgrass"

# metric name -> (module, attribute path)
TRACED = {
    "subspaces.enumerate_subspaces": ("subspaces", "enumerate_subspaces"),
    "grassmann.build_graph": ("grassmann", "build_graph"),
    "grassmann.intersection_numbers": ("grassmann", "intersection_numbers"),
    "grassmann.structure_constants": ("grassmann", "structure_constants"),
    "grassmann.exact_int_product": ("grassmann", "exact_int_product"),
    "grassmann.spectral_system": ("grassmann", "spectral_system"),
    "grassmann.krein_parameters": ("grassmann", "krein_parameters"),
    "linalg.product": ("linalg", "ExactMatrix.__matmul__"),
    "linalg.column_space_ops": ("linalg", "column_space_ops"),
    "linalg.intersect_column_spaces": ("linalg", "intersect_column_spaces"),
    "linalg.rank_mod_prime": ("linalg", "rank_mod_prime"),
    "linalg.span_rank": ("linalg", "span_rank"),
    "linalg.in_span": ("linalg", "in_span"),
    "nucleus.compute_nucleus": ("nucleus", "compute_nucleus"),
    "nucleus.build_alpha_family": ("nucleus", "build_alpha_family"),
    "nucleus.verify_actions": ("nucleus", "verify_actions"),
    "nucleus.verify_bases": ("nucleus", "verify_bases"),
    "nucleus.gamma_components": ("nucleus", "gamma_components"),
    "nucleus.boundary_case_report": ("nucleus", "boundary_case_report"),
    "ladders.build_poset_matrices": ("ladders", "build_poset_matrices"),
    "qarith.verify_q_identities": ("qarith", "verify_q_identities"),
}

# Stages every `verify --suite all` call must enter, whatever the graph.
# Kernels (products, eliminations) are left out: a faster stage may
# legitimately stop calling them.
REQUIRED = [
    "subspaces.enumerate_subspaces",
    "grassmann.build_graph",
    "grassmann.intersection_numbers",
    "grassmann.spectral_system",
    "grassmann.krein_parameters",
    "nucleus.compute_nucleus",
    "nucleus.build_alpha_family",
    "nucleus.verify_actions",
    "nucleus.verify_bases",
    "nucleus.gamma_components",
    "nucleus.boundary_case_report",
    "ladders.build_poset_matrices",
    "qarith.verify_q_identities",
]

# ru_maxrss is read when these return for the first time.
RSS_STAGES = {
    "grassmann.build_graph": "build_graph.rss_hwm_mb",
    "grassmann.spectral_system": "spectral_system.rss_hwm_mb",
    "nucleus.compute_nucleus": "compute_nucleus.rss_hwm_mb",
    "ladders.build_poset_matrices": "build_poset_matrices.rss_hwm_mb",
}

# The int64 branch of ExactMatrix products converts its result with this
# helper; a call made directly inside a product span marks that branch.
INT64_MARKER = ("linalg", "_as_python_int_array")


class CoverageError(RuntimeError):
    """A listed function is missing, or was never entered where it must run."""


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cols(operand) -> int:
    shape = operand.a.shape
    return shape[1] if len(shape) == 2 else 1


class Tracer:
    def __init__(self):
        self.names = list(TRACED)
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.counts = {
            "subspaces.enumerated": 0,
            "grassmann.exact_int_product.macs": 0,
            "linalg.product.macs": 0,
            "linalg.product.int64_calls": 0,
        }
        self.rss: dict[str, float] = {}

    # -- installation -----------------------------------------------------
    @staticmethod
    def _resolve(modname: str, path: str):
        """(owner, attribute, function) for `path` in a qgrass module."""
        owner = importlib.import_module(f"{PACKAGE}.{modname}")
        *cls, attr = path.split(".")
        if cls:
            owner = getattr(owner, cls[0], None)
        fn = getattr(owner, attr, None)
        if not callable(fn):
            raise CoverageError(f"{PACKAGE}.{modname}.{path} is missing")
        return owner, attr, fn

    @staticmethod
    def _replace_everywhere(original, wrapper) -> None:
        for key, mod in list(sys.modules.items()):
            if mod is None or not (key == PACKAGE or key.startswith(PACKAGE + ".")):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)

    def install(self) -> None:
        """Wrap every function in TRACED; raise CoverageError, before
        wrapping anything, if one is missing."""
        resolved = [self._resolve(*where) for where in TRACED.values()]
        _owner, _attr, marker = self._resolve(*INT64_MARKER)
        for idx, (name, (owner, attr, fn)) in enumerate(zip(self.names, resolved)):
            wrapper = self._wrap(idx, fn, self._post_hook(name))
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
            else:
                self._replace_everywhere(fn, wrapper)
        self._replace_everywhere(marker, self._wrap_marker(marker))

    def _wrap(self, idx, fn, post):
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(span_start)
            span_name.append(idx)
            span_parent.append(stack[-1] if stack else -1)
            span_end.append(0.0)
            stack.append(sid)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[sid] = clock()
                stack.pop()
            if post is not None:
                post(args, result)
            return result

        return wrapper

    def _wrap_marker(self, fn):
        product_idx = self.names.index("linalg.product")
        counts, stack, span_name = self.counts, self.stack, self.span_name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and span_name[stack[-1]] == product_idx:
                counts["linalg.product.int64_calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _post_hook(self, name):
        """Counter and memory mark updated when a span of `name` returns."""
        counter = {
            "subspaces.enumerate_subspaces": (
                "subspaces.enumerated", lambda args, result: len(result)),
            "grassmann.exact_int_product": (
                "grassmann.exact_int_product.macs",
                lambda args, result: args[0].shape[0] * args[0].shape[1] * args[1].shape[1]),
            "linalg.product": (
                "linalg.product.macs",
                lambda args, result: args[0].shape[0] * args[0].shape[1] * _cols(args[1])),
        }.get(name)
        rss_key = RSS_STAGES.get(name)
        if counter is None and rss_key is None:
            return None
        counts, rss = self.counts, self.rss

        def post(args, result):
            if counter is not None:
                counts[counter[0]] += counter[1](args, result)
            if rss_key is not None and rss_key not in rss:
                rss[rss_key] = rss_mb()

        return post

    # -- results ----------------------------------------------------------
    def summary(self) -> dict:
        """Per function: inclusive seconds (outermost spans only, so a
        function nested in itself is not counted twice), self seconds and
        calls; plus the counters and stage memory marks."""
        n = len(self.span_start)
        child = [0.0] * n
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"s": 0.0, "self_s": 0.0, "calls": 0} for name in self.names}
        for i in range(n):
            idx = self.span_name[i]
            entry = out[self.names[idx]]
            entry["calls"] += 1
            entry["self_s"] += dur[i] - child[i]
            p = self.span_parent[i]
            while p >= 0 and self.span_name[p] != idx:
                p = self.span_parent[p]
            if p < 0:
                entry["s"] += dur[i]
        return {"functions": out, "counts": dict(self.counts), "rss": dict(self.rss)}

    def missing(self, summary: dict) -> list[str]:
        """Required stages that no span entered."""
        return [name for name in REQUIRED if summary["functions"][name]["calls"] == 0]
