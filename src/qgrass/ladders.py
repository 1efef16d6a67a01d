"""Ladder operators on the subspace poset relative to the base vertex.

The full poset of subspaces of F_q^N splits into layers P_{i,j}: the
subspaces u with dim(u meet x) = i and dim u = i + j.  A cover u < v
either grows the meet with x (slash) or not (backslash), and the two
cover relations give two independent lowering operators L1, L2 with
raising partners R1, R2 and grading operators K1, K2 whose diagonal
entries are half-integer powers of q.  Everything is built twice where
a relation is claimed: the lowering operators come from point-incidence
products between consecutive layers (u < v when they share all points
of u), the raising operators from their own bitwise subset test on
packed point masks, and the two are compared as transposes; the plain
cover matrix must split exactly as L1 + L2.

Matrices are scipy sparse with int64 entries; the 0/1 data makes that
exact.  K1 and K2 are kept as exponent vectors because their entries
live in Z[q^(1/2), q^(-1/2)].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import InvalidType
from .linalg import exact_int_product, row_blocks
from .qarith import SqrtQScalar, q_binomial
from .report import CheckSet
from .subspaces import GeometryContext, dims_of_counts, mask_words, point_incidence


def _sparse_equal(a, b) -> bool:
    return (a != b).nnz == 0


@dataclass
class PosetMatrices:
    geometry: GeometryContext
    dims: list[int]
    elements: list = field(repr=False)
    offsets: dict[int, int] = field(repr=False)
    ivec: np.ndarray = field(repr=False)
    jvec: np.ndarray = field(repr=False)
    L1: sp.csr_matrix = field(repr=False)
    L2: sp.csr_matrix = field(repr=False)
    R1: sp.csr_matrix = field(repr=False)
    R2: sp.csr_matrix = field(repr=False)
    cover: sp.csr_matrix = field(repr=False)
    partial: bool = False
    checks: CheckSet = None

    @property
    def size(self) -> int:
        return len(self.elements)

    def global_index(self, u) -> int:
        return self.offsets[u.dim] + self.geometry.index_of(u)

    def layer_indicator(self, i: int, j: int) -> np.ndarray:
        return (self.ivec == i) & (self.jvec == j)

    def estar(self, i: int, j: int) -> sp.csr_matrix:
        return sp.diags(
            self.layer_indicator(i, j).astype(np.int64), format="csr", dtype=np.int64
        )

    def k1_half_exponents(self) -> np.ndarray:
        """K1 is diagonal with entry q^((D - 2i)/2) on layer (i, j)."""
        return self.geometry.d - 2 * self.ivec

    def k2_half_exponents(self) -> np.ndarray:
        d = self.geometry.d
        return (self.geometry.ambient - d) - 2 * self.jvec

    def k1_entry(self, g: int) -> SqrtQScalar:
        return SqrtQScalar.of(self.geometry.q, 1, int(self.k1_half_exponents()[g]))

    def k2_entry(self, g: int) -> SqrtQScalar:
        return SqrtQScalar.of(self.geometry.q, 1, int(self.k2_half_exponents()[g]))


def _cover_pairs(inc_lo: np.ndarray, inc_hi: np.ndarray, size_lo: int):
    """Index arrays (a, b) of the pairs u_a < v_b between consecutive
    layers, from chunked point-incidence products: u lies in v exactly
    when they share all size_lo = q^l points of u."""
    rows, cols = [], []
    for blk in row_blocks(len(inc_lo), len(inc_hi)):
        counts = exact_int_product(inc_lo[blk], inc_hi.T, inc_lo.shape[1])
        a, b = np.nonzero(counts == size_lo)
        rows.append(a + blk.start)
        cols.append(b)
    return np.concatenate(rows), np.concatenate(cols)


def _raising_pairs(words_lo: np.ndarray, words_hi: np.ndarray, x_words: np.ndarray):
    """Index arrays (b, a, slash) of the pairs w_a < v_b, found from above
    by a bitwise subset test on packed point masks (no point of w
    outside v), independently of `_cover_pairs`.  slash marks the covers
    where v meets x in a point outside w, i.e. the meet with x grows."""
    rows, cols, slash = [], [], []
    for blk in row_blocks(len(words_hi), words_lo.size):
        outside = words_lo[None, :, :] & ~words_hi[blk, None, :]
        b, a = np.nonzero(~outside.any(axis=2))
        slash.append((words_hi[blk][b] & x_words & ~words_lo[a]).any(axis=1))
        rows.append(b + blk.start)
        cols.append(a)
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(slash)


def build_poset_matrices(
    geometry: GeometryContext, force_partial: bool = False
) -> PosetMatrices:
    """Build the layer projections and ladder operators, with checks.

    When the full poset exceeds the poset cap (or partial mode is
    forced), only the dimensions D-1, D, D+1 are materialized; every
    relation below restricts consistently to that window.
    """
    q, n, d = geometry.q, geometry.ambient, geometry.d
    total = geometry.poset_size()
    partial = force_partial or total > geometry.poset_cap
    dims = [d - 1, d, d + 1] if partial else list(range(n + 1))
    offsets = {}
    elements = []
    for l in dims:
        offsets[l] = len(elements)
        elements.extend(geometry.table(l))
    m = len(elements)
    npoints = q**n
    incidence = {l: point_incidence(geometry.table(l), npoints) for l in dims}
    words = {l: mask_words(geometry.table(l), npoints) for l in dims}
    x_inc = point_incidence([geometry.x], npoints).T
    x_words = mask_words([geometry.x], npoints)[0]
    # i = dim(u meet x) from the common point count q^i
    ivec = np.concatenate([
        dims_of_counts(exact_int_product(incidence[l], x_inc, npoints)[:, 0], q, d)
        for l in dims
    ])
    jvec = np.concatenate([np.full(len(geometry.table(l)), l) for l in dims]) - ivec

    lo, hi, up, down, up_slash = [], [], [], [], []
    for l in dims:
        if l + 1 not in offsets:
            continue
        a, b = _cover_pairs(incidence[l], incidence[l + 1], q**l)
        lo.append(offsets[l] + a)
        hi.append(offsets[l + 1] + b)
        b, a, slash = _raising_pairs(words[l], words[l + 1], x_words)
        up.append(offsets[l + 1] + b)
        down.append(offsets[l] + a)
        up_slash.append(slash)
    lo, hi, up, down, up_slash = (np.concatenate(v) for v in (lo, hi, up, down, up_slash))
    # a cover grows the meet with x by one (slash) or not (backslash)
    step = ivec[hi] - ivec[lo]
    if not ((step == 0) | (step == 1)).all():
        raise ArithmeticError("cover meet dimensions violate the cover dichotomy")

    def to_csr(rows, cols):
        data = np.ones(rows.size, dtype=np.int64)
        return sp.csr_matrix((data, (rows, cols)), shape=(m, m))

    pm = PosetMatrices(
        geometry=geometry,
        dims=dims,
        elements=elements,
        offsets=offsets,
        ivec=ivec,
        jvec=jvec,
        L1=to_csr(lo[step == 1], hi[step == 1]),
        L2=to_csr(lo[step == 0], hi[step == 0]),
        R1=to_csr(up[up_slash], down[up_slash]),
        R2=to_csr(up[~up_slash], down[~up_slash]),
        cover=to_csr(lo, hi),
        partial=partial,
    )

    cs = CheckSet(f"ladder operators q={q} N={n} D={d}" + (" (partial)" if partial else ""))
    layers = [
        (i, j)
        for i in range(d + 1)
        for j in range(n - d + 1)
        if i + j in offsets
    ]
    total_diag = sp.csr_matrix((m, m), dtype=np.int64)
    for i, j in layers:
        total_diag = total_diag + pm.estar(i, j)
    cs.check_true("layer_projections_sum_to_identity", _sparse_equal(total_diag, sp.identity(m, dtype=np.int64, format="csr")))
    cs.check_true("raising_is_transpose_of_lowering_slash", _sparse_equal(pm.R1, pm.L1.T.tocsr()))
    cs.check_true("raising_is_transpose_of_lowering_backslash", _sparse_equal(pm.R2, pm.L2.T.tocsr()))
    cs.check_true("cover_matrix_splits", _sparse_equal(pm.cover, pm.L1 + pm.L2))
    cs.check_true("cover_types_disjoint", pm.L1.multiply(pm.L2).nnz == 0)

    zero = sp.csr_matrix((m, m), dtype=np.int64)
    shifts_ok = True
    shift_witness = None
    for i, j in layers:
        e_ij = pm.estar(i, j)
        up_i = pm.estar(i + 1, j) if i + 1 <= d else zero
        up_j = pm.estar(i, j + 1) if j + 1 <= n - d else zero
        down_i = pm.estar(i - 1, j) if i >= 1 else zero
        down_j = pm.estar(i, j - 1) if j >= 1 else zero
        pairs = [
            (e_ij @ pm.L1, pm.L1 @ up_i, "slash lowering"),
            (e_ij @ pm.L2, pm.L2 @ up_j, "backslash lowering"),
            (e_ij @ pm.R1, pm.R1 @ down_i, "slash raising"),
            (e_ij @ pm.R2, pm.R2 @ down_j, "backslash raising"),
        ]
        for lhs, rhs, label in pairs:
            if not _sparse_equal(lhs, rhs):
                shifts_ok = False
                shift_witness = f"{label} shift at layer ({i},{j})"
    cs.check_true("ladder_support_shifts", shifts_ok, shift_witness)

    indicators = {(i, j): pm.layer_indicator(i, j) for i, j in layers}
    orthogonal = True
    for a in range(len(layers)):
        for b in range(a + 1, len(layers)):
            if (indicators[layers[a]] & indicators[layers[b]]).any():
                orthogonal = False
    cs.check_true("layer_projections_pairwise_orthogonal", orthogonal)

    counts = {}
    for i, j in layers:
        counts[f"{i},{j}"] = int(pm.layer_indicator(i, j).sum())
    expected = {
        f"{i},{j}": q_binomial(d, i, q) * q ** ((d - i) * j) * q_binomial(n - d, j, q)
        for (i, j) in layers
    }
    cs.check("layer_sizes_product_formula", expected, counts)
    # each projection is a 0/1 diagonal, so its rank is its trace
    ranks = {f"{i},{j}": int(pm.estar(i, j).diagonal().sum()) for i, j in layers}
    cs.check("layer_projection_ranks_match_sizes", expected, ranks)
    cs.record("layer_sizes", counts)

    xg = pm.global_index(geometry.x)
    cs.check("base_vertex_k1_entry", SqrtQScalar.of(q, 1, -d), pm.k1_entry(xg))
    cs.check(
        "base_vertex_k2_entry", SqrtQScalar.of(q, 1, n - d), pm.k2_entry(xg)
    )
    cs.record("poset_size", total)
    cs.record("materialized", m)
    cs.record("partial", partial)
    pm.checks = cs
    return pm


# ---------------------------------------------------------------------------
# module types


@dataclass(frozen=True)
class ModuleType:
    """Type (alpha, beta, rho) of an irreducible module: alpha and beta
    count the two kinds of lowering steps available below the top layer
    and rho is the depth offset."""

    alpha: int
    beta: int
    rho: int


def validate_type(n: int, d: int, mt: ModuleType) -> None:
    a, b, r = mt.alpha, mt.beta, mt.rho
    if r < 0:
        raise InvalidType(f"rho must be nonnegative, got {r}")
    if not (0 <= a and 2 * a <= d - r):
        raise InvalidType(f"alpha out of range: 0 <= {a} <= ({d}-{r})/2 fails")
    if not (0 <= b and 2 * b <= n - d - r):
        raise InvalidType(f"beta out of range: 0 <= {b} <= ({n}-{d}-{r})/2 fails")


def enumerate_types(n: int, d: int) -> list[ModuleType]:
    out = []
    for rho in range(min(d, n - d) + 1):
        for alpha in range((d - rho) // 2 + 1):
            for beta in range((n - d - rho) // 2 + 1):
                out.append(ModuleType(alpha, beta, rho))
    return out


def type_to_parameters(n: int, d: int, mt: ModuleType) -> tuple[int, int, int, int]:
    """Convert a module type to the quadruple (r, t, dw, e) of endpoint,
    dual endpoint, diameter, and displacement.

    Three regimes, split by beta - alpha against 0 and N - 2D; the
    formulas agree on both boundaries.
    """
    validate_type(n, d, mt)
    a, b, rho = mt.alpha, mt.beta, mt.rho
    gap = b - a
    if gap <= 0:
        return rho + a, rho + a + b, d - rho - 2 * a, rho
    if gap <= n - 2 * d:
        return rho + b, rho + a + b, d - rho - a - b, rho + a - b
    return rho + b, rho + a + b, n - d - rho - 2 * b, rho - n + 2 * d


def alpha_dominant_multiplicity(q: int, d: int, alpha: int) -> int:
    """Multiplicity q_binomial(D, alpha) - q_binomial(D, alpha - 1) of
    the modules attached to layer-alpha subspaces of the base vertex."""
    return q_binomial(d, alpha, q) - q_binomial(d, alpha - 1, q)
