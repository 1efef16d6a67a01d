"""The Grassmann graph J_q(N, D) and its adjacency algebra, exactly.

Vertices are the D-dimensional subspaces of F_q^N, adjacent when they
meet in dimension D - 1, so graph distance is D - dim(y meet z).  The
module builds the distance matrix from the Gram product of the packed
point masks (common point counts q^dim(y meet z)), verifies the D
0/1 products A_1 A_g in row blocks, and keeps their intersection matrix L
(multiplication by A_1 on coefficient vectors over A_0..A_D), which, being
tridiagonal with every c_t > 0, also certifies the graph metric.  Every
spectral claim is then checked in that (D+1)-dimensional distance
(Bose-Mesner) algebra: the minimal polynomial of the closed-form
eigenvalues, idempotency and orthogonality of the primitive idempotents
as polynomials in L, and the dual system at the base vertex.  The
multiplicities are certified by the inclusion matrices W_i of the
i-subspaces in the vertices (i < D), which are [N,i]_q x |X| 0/1
arrays; no |X| x |X| matrix of the algebra is materialized for them.
All arithmetic is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import EigenvalueCollision, InvalidParameters, InvalidQuadruple
from .linalg import (
    exact_int_product,
    int_operand,
    invert_fraction_matrix,
    product_blocks,
    rank_exact,
    rank_mod_prime,
    row_blocks,
)
from .qarith import q_binomial, q_int
from .report import CheckSet
from .subspaces import (
    DEFAULT_POSET_CAP,
    DEFAULT_TABLE_CAP,
    GeometryContext,
    count_dims,
)

RANK_VERIFY_LIMIT = 60


class GraphContext:
    """A built Grassmann graph: vertex table, exact distance matrix and,
    built on demand and cached, the inclusion matrices W_i and their
    Gram products W_i^T W_i."""

    def __init__(self, geometry: GeometryContext, dist: np.ndarray, checks: CheckSet):
        self.geometry = geometry
        self.q = geometry.q
        self.n = geometry.ambient
        self.d = geometry.d
        self.vertices = geometry.table(geometry.d)
        self.n_vertices = len(self.vertices)
        self.dist = dist
        self.x_index = geometry.x_index
        self.boundary = geometry.ambient == 2 * geometry.d
        self.build_checks = checks
        self._inclusion: dict[int, np.ndarray] = {}
        self._gram: dict[int, np.ndarray] = {}
        self._L = None  # (L, checks) of `structure_constants`

    def inclusion(self, i: int) -> np.ndarray:
        """W_i: the [N,i]_q x |X| bool inclusion matrix, row u (in the
        order of the i-subspace table) marking the vertices that contain
        u.  u lies in y exactly when y holds all q^i points of u, so W_i
        is one 0/1 product of the two tables' packed point masks.  W_0
        needs none: the zero subspace lies in every vertex, and its
        table stays unbuilt (and uncached)."""
        if i == 0:
            return np.ones((1, self.n_vertices), dtype=bool)
        if i not in self._inclusion:
            sub = self.geometry.table(i).words
            w = np.empty((len(sub), self.n_vertices), dtype=bool)
            for rows, counts in product_blocks(sub, self.vertices.words, self.q**self.n):
                w[rows] = counts == self.q**i
            self._inclusion[i] = w
        return self._inclusion[i]

    def gram(self, i: int) -> np.ndarray:
        """W_i^T W_i: entry (y, z) counts the i-subspaces of y meet z.
        A 0/1 product is at most its inner dimension, the row count of
        W_i, so the smallest unsigned dtype holding that count holds
        every entry exactly."""
        if i not in self._gram:
            w = self.inclusion(i)
            n = self.n_vertices
            out = np.empty((n, n), dtype=np.min_scalar_type(w.shape[0]))
            for rows, block in product_blocks(w.T, w, w.shape[0]):
                out[rows] = block
            self._gram[i] = out
        return self._gram[i]

    def adjacency(self) -> np.ndarray:
        """Bool adjacency by a route independent of dist: y ~ z exactly
        when y != z and one (D-1)-subspace lies in both, that is
        (W_{D-1}^T W_{D-1})[y, z] = [dim(y meet z), D-1]_q = 1."""
        adj = self.gram(self.d - 1) == 1
        np.fill_diagonal(adj, False)
        return adj

    def class_sums(self, coeff_rows: list[list[int]], right: np.ndarray) -> list[np.ndarray]:
        """sum_h c[h] (A_h @ right) for every integer row c of coeff_rows,
        exactly, for a bool or integer `right` with |X| rows.

        A 0/1 `right` meets each class A_h = (dist == h) in the 0/1
        kernel, which streams the product through `product_blocks`.  An
        integer `right` meets A_h one `row_blocks` slice of dist at a
        time, on the int64 branch of `exact_int_product` (Python ints
        when its guard fails), so no |X| x |X| integer array is built.
        The combinations are one more product of the coefficient rows
        with those D+1 results stacked, through the same kernel."""
        n, d = self.n_vertices, self.d
        if right.dtype == bool:
            prods = [exact_int_product(self.dist == h, right, n) for h in range(d + 1)]
        else:
            right, bmax = int_operand(right)
            prods = [
                np.concatenate([
                    exact_int_product(self.dist[rows] == h, right, n, 1, bmax)
                    for rows in row_blocks(n, n)
                ])
                for h in range(d + 1)
            ]
        stacked = np.stack([p.reshape(-1) for p in prods])
        sums = exact_int_product(np.array(coeff_rows, dtype=object), stacked, d + 1)
        return [row.reshape(prods[0].shape) for row in sums]


def _bfs_full_check(gc: GraphContext, cs: CheckSet) -> None:
    """All-pairs breadth-first distances by repeated boolean expansion
    (0/1 products with the adjacency matrix of `GraphContext.adjacency`,
    which does not read dist), compared with the meet-dimension
    distances."""
    n = gc.n_vertices
    adj = gc.adjacency()
    cur = np.eye(n, dtype=bool)
    bfs = np.full((n, n), -1, dtype=np.int16)
    np.fill_diagonal(bfs, 0)
    for t in range(1, gc.d + 1):
        nxt = cur.copy()
        for rows, walks in product_blocks(cur, adj, n):
            nxt[rows] |= walks > 0
        newly = nxt & ~cur
        if not newly.any():
            break
        bfs[newly] = t
        cur = nxt
    cs.check_true("bfs_reaches_every_pair", bool(cur.all()))
    cs.check_true("bfs_distances_match_meet_formula", bool((bfs == gc.dist).all()))


def _metric_certificate(gc: GraphContext) -> bool:
    """Whether the verified intersection matrix L proves both
    breadth-first checks over the edges of `GraphContext.adjacency`.

    Proof obligation (Brouwer-Cohen-Neumaier, Section 4.1).  Assume
    (1) adjacency() == (dist == 1); (2) the checks of `structure_constants`
    pass: A_0 = I, the classes A_h partition the pairs and A_1 A_g =
    sum_h L[h][g] A_h; (3) L[h][g] = 0 for |h - g| >= 2; (4) L[t][t-1] > 0
    for t = 1..D.  Let T_t be the pairs joined by a walk of at most t
    edges and B_t = {dist <= t}; T_0 = B_0 by (2).  A walk of t + 1 edges
    is an edge and then a walk of t, so T_{t+1} = T_t u supp(A_1 sum_{g<=t}
    A_g) by (1), a union of the supports of counts.  If T_t = B_t: A_1 A_0
    is class 1, and A_1 A_g (1 <= g <= t) lies on the classes h with
    L[h][g] > 0 by (2), all h <= g + 1 by (3), with h = t + 1 among them
    for g = t by (4); so T_{t+1} = B_{t+1}.  So a pair at distance h is
    first reached at step h, and T_D = B_D holds every pair by (2)."""
    d = gc.d
    L, lcs = structure_constants(gc)
    return (
        lcs.ok
        and all(L[h][g] == 0 for h in range(d + 1) for g in range(d + 1) if abs(h - g) >= 2)
        and all(L[t][t - 1] > 0 for t in range(1, d + 1))
        and bool((gc.adjacency() == (gc.dist == 1)).all())
    )


def build_graph(
    q: int,
    n: int,
    d: int,
    x_rows=None,
    table_cap: int = DEFAULT_TABLE_CAP,
    poset_cap: int = DEFAULT_POSET_CAP,
) -> GraphContext:
    """Build J_q(N, D) with its exact distance matrix.

    Distances are compared with breadth-first ones by `_metric_certificate`,
    or by the all-pairs expansion of `_bfs_full_check` where that fails.

    Requires N > D >= 1 and N >= 2D; N = 2D is allowed and flagged as
    the boundary regime.  For N < 2D the dimension-complement
    isomorphism makes (N, N - D) the normalized parameters, so such
    input is rejected rather than silently rewritten.
    """
    if not (n > d >= 1):
        raise InvalidParameters(f"need N > D >= 1, got N={n} D={d}")
    if n < 2 * d:
        raise InvalidParameters(
            f"N={n} < 2D={2 * d}; use the complement parameters (N, N-D)=({n},{n - d})"
        )
    geometry = GeometryContext(q, n, d, x_rows=x_rows, table_cap=table_cap, poset_cap=poset_cap)
    vertices = geometry.table(d)
    nv = len(vertices)
    # common point counts are q^dim(y meet z), the 0/1 product of the
    # packed point masks with themselves; any other count raises
    npoints = q**n
    words = vertices.words
    dist = np.empty((nv, nv), dtype=np.int16)
    meet_dims = count_dims(q, d)
    for rows, counts in product_blocks(words, words, npoints):
        dist[rows] = d - meet_dims(counts)
    cs = CheckSet(f"graph build q={q} N={n} D={d}")
    cs.check("vertex_count", q_binomial(n, d, q), nv)
    cs.check_true("distance_range", bool(((dist >= 0) & (dist <= d)).all()))
    cs.check_true("distance_symmetric", bool((dist == dist.T).all()))
    gc = GraphContext(geometry, dist, cs)
    if _metric_certificate(gc):
        cs.check_true("bfs_reaches_every_pair", True)
        cs.check_true("bfs_distances_match_meet_formula", True)
    else:
        _bfs_full_check(gc, cs)
    # the distance-i sphere around x is exactly the layer P_{D-i, i}:
    # every vertex meets x in dimension D - dist(x, y)
    meet_x = meet_dims(exact_int_product(words, geometry.x_words, npoints)[:, 0])
    off_layer = np.flatnonzero(meet_x != d - dist[gc.x_index])
    layer_ok = not off_layer.size
    witness = None
    if not layer_ok:
        witness = f"vertex {tuple(map(tuple, vertices.rows[int(off_layer[0])].tolist()))}"
    cs.check_true("sphere_equals_layer", layer_ok, witness)
    return gc


def structure_constants(gc: GraphContext):
    """Intersection matrix of the distance algebra: integers L[h][g] =
    p^h_{1g} with A_1 A_g = sum_h L[h][g] A_h, extracted from the D exact
    products A_1 A_g (g = 1..D) and verified class by class.  Column 0
    is A_1 A_0 = A_1, which needs no product once A_0 = I is checked.

    A_g is the bool matrix dist == g, so the products are streamed in
    row blocks by `product_blocks`.  Each pair has one distance, so the
    classes partition the pairs once every entry of dist lies in 0..D.

    L is multiplication by A_1 on coefficient vectors over A_0..A_D.
    The classes partition the pairs (checked) and are nonempty in a
    connected graph of diameter D, so the A_h have disjoint 0/1 supports
    and a coefficient vector determines its matrix and back; and
    each product A_1 A_g is checked to be constant on every class, so
    A_1 (sum_g v_g A_g) = sum_h (L v)_h A_h exactly.  Its subdiagonal
    holds c_g = L[g][g-1], which `intersection_numbers` compares with
    the closed form; c_g > 0 makes every A_g a polynomial in A_1 by the
    three-term recurrence, so the span of A_0..A_D is closed under
    multiplication and the full table p^h_{ij} follows from L.

    Cached on the graph context after the first call.
    """
    if gc._L is not None:
        return gc._L
    d = gc.d
    n = gc.n_vertices
    dist = gc.dist
    cs = CheckSet("distance algebra structure constants")
    cs.check_true("a0_is_identity", bool(((dist == 0) == np.eye(n, dtype=bool)).all()))
    cs.check_true("classes_partition_pairs", bool(((dist >= 0) & (dist <= d)).all()))
    L = [[1 if (h, g) == (1, 0) else 0 for g in range(d + 1)] for h in range(d + 1)]
    adj = dist == 1
    ok = True
    witness = None
    for g in range(1, d + 1):
        ag = dist == g
        # an empty class has a zero matrix, so any coefficient works;
        # zero keeps the table well defined
        first = [None] * (d + 1)
        for rows, prod in product_blocks(adj, ag, n):
            classes = dist[rows]
            for h in range(d + 1):
                vals = prod[classes == h]
                if not vals.size:
                    continue
                if first[h] is None:
                    first[h] = int(vals[0])
                if not (vals == first[h]).all():
                    ok = False
                    witness = f"A_1A_{g} not constant on class {h}"
        for h in range(d + 1):
            L[h][g] = first[h] if first[h] is not None else 0
    cs.check_true("products_constant_on_classes", ok, witness)
    gc._L = L, cs
    return gc._L


@dataclass
class IntersectionNumbers:
    k: int
    a: list[int]
    b: list[int]
    c: list[int]


def intersection_number_formulas(q: int, n: int, d: int) -> IntersectionNumbers:
    """Closed forms: b_i = q^(2i+1) [D-i][N-D-i], c_i = [i]^2, and
    a_i = k - b_i - c_i with k = q [D][N-D]."""
    k = q * q_int(d, q) * q_int(n - d, q)
    b = [q ** (2 * i + 1) * q_int(d - i, q) * q_int(n - d - i, q) for i in range(d + 1)]
    c = [q_int(i, q) ** 2 for i in range(d + 1)]
    a = [k - b[i] - c[i] for i in range(d + 1)]
    return IntersectionNumbers(k=k, a=a, b=b, c=c)


def intersection_numbers(gc: GraphContext):
    """Read k, a_i, b_i, c_i off the verified intersection matrix L
    (k = L[0][1], a_i = L[i][i], b_i = L[i][i+1], c_i = L[i][i-1]) and
    compare them with the closed forms, exactly."""
    q, n, d = gc.q, gc.n, gc.d
    L, lcs = structure_constants(gc)
    cs = CheckSet(f"intersection numbers q={q} N={n} D={d}")
    cs.extend(lcs)
    counted_b = [L[i][i + 1] if i < d else 0 for i in range(d + 1)]
    counted_c = [L[i][i - 1] if i > 0 else 0 for i in range(d + 1)]
    counted_a = [L[i][i] for i in range(d + 1)]
    k_counted = L[0][1]
    rows = (gc.dist == 1).sum(axis=1)
    cs.check_true("valency_constant_rows", bool((rows == k_counted).all()))
    forms = intersection_number_formulas(q, n, d)
    cs.check("valency", forms.k, k_counted)
    for i in range(d + 1):
        cs.check(f"b_{i}", forms.b[i], counted_b[i])
        cs.check(f"c_{i}", forms.c[i], counted_c[i])
        cs.check(f"a_{i}", forms.a[i], counted_a[i])
        cs.check(f"abc_sum_{i}", forms.k, counted_a[i] + counted_b[i] + counted_c[i])
    counted = IntersectionNumbers(k=k_counted, a=counted_a, b=counted_b, c=counted_c)
    cs.record("k", forms.k)
    cs.record("a", forms.a)
    cs.record("b", forms.b)
    cs.record("c", forms.c)
    return counted, cs


def eigenvalue_formulas(q: int, n: int, d: int) -> list[int]:
    """theta_i = q [D][N-D] - [i][N-i+1], decreasing in i."""
    return [
        q * q_int(d, q) * q_int(n - d, q) - q_int(i, q) * q_int(n - i + 1, q)
        for i in range(d + 1)
    ]


def dual_eigenvalue_formulas(q: int, n: int, d: int) -> list[Fraction]:
    """theta*_i as explicit rationals, from the affine function of
    q^(-i) defined by the base constants."""
    dd = q_int(d, q)
    nd = q_int(n - d, q)
    base = Fraction(-q * q_int(n - 1, q) * (dd + nd), (q - 1) * dd * nd)
    slope = Fraction(q * q_int(n, q) * q_int(n - 1, q), (q - 1) * dd * nd)
    return [base + slope * Fraction(1, q**i) for i in range(d + 1)]


def integer_coeffs(coeffs) -> tuple[list[int], int]:
    """(values, den): den the least common denominator of the rational
    coefficients and values the integers den * coeffs."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return [int(c * den) for c in coeffs], den


@dataclass
class SpectralSystem:
    gc: GraphContext
    theta: list[int]
    theta_star: list[Fraction]
    m: list[int]
    e_coeffs: list[list[Fraction]] = field(repr=False)
    checks: CheckSet = field(repr=False)
    # rank of E_0 + ... + E_i for i = 0..D as certified by the inclusion
    # matrices, None where the certificate failed
    partial_ranks: list = field(default_factory=list)

    def partial_coeffs(self, i: int) -> list[Fraction]:
        """Coefficient vector of F'_i = E_0 + ... + E_i."""
        return [sum(self.e_coeffs[t][h] for t in range(i + 1)) for h in range(self.gc.d + 1)]

    def idempotent_numerator(self, i: int):
        """(M, den) with E_i = M / den and M integral."""
        return self.class_numerator(self.e_coeffs[i])

    def class_numerator(self, coeffs: list[Fraction]):
        """(M, den) with sum_h coeffs[h] A_h = M / den, M integral and
        den the least common denominator of the coefficients: a dense
        |X| x |X| integer array, the integer class values gathered by
        `dist` (int64, or Python ints past the product guard), for the
        fallback paths and small |X|."""
        values, den = integer_coeffs(coeffs)
        table, _amax = int_operand(np.array(values, dtype=object))
        return table[self.gc.dist], den


def _inclusion_certificate(gc: GraphContext, ss: SpectralSystem, apply_idempotent):
    """rank F'_i for F'_i = E_0 + ... + E_i, i = 0..D, each None when
    its certificate fails, and the failed sub-checks, each named (a),
    (b) or (c) as in `spectral_system`."""
    q, n, d = gc.q, gc.n, gc.d
    ws = [gc.inclusion(i) for i in range(d)]
    scaled = [integer_coeffs(ss.partial_coeffs(i)) for i in range(d)]
    # (b): one kernel product per class against all the W_i^T side by side
    sums = gc.class_sums([v for v, _den in scaled], np.concatenate([w.T for w in ws], axis=1))
    start = 0
    ranks = []
    faults = []
    for i, w in enumerate(ws):
        found = len(faults)
        rows = q_binomial(n, i, q)
        rank = rank_mod_prime(w)
        if w.shape[0] != rows or rank != rows:
            faults.append(f"(a) W_{i} has rank_p {rank} on {w.shape[0]} rows, not {rows}")
        image = sums[i][:, start : start + w.shape[0]]
        start += w.shape[0]
        den = scaled[i][1]
        if not ((image[w.T] == den).all() and not image[~w.T].any()):
            faults.append(f"(b) F'_{i} W_{i}^T != W_{i}^T")
        if not _gram_is_class_sum(gc, i):
            faults.append(f"(c) W_{i}^T W_{i} != sum_h [D-h,{i}]_q A_h")
        elif not _gram_spans_partial_sum(ss, i, apply_idempotent):
            faults.append(f"(c) F'_{i} != G Q_{i}(G) for G = W_{i}^T W_{i}")
        ranks.append(rows if len(faults) == found else None)
    # F'_D = I
    unit = [Fraction(1 if h == 0 else 0) for h in range(d + 1)]
    if ss.partial_coeffs(d) == unit:
        ranks.append(gc.n_vertices)
    else:
        ranks.append(None)
        faults.append(f"F'_{d} != I")
    return ranks, faults


def _gram_is_class_sum(gc: GraphContext, i: int) -> bool:
    """W_i^T W_i = sum_h [D-h, i]_q A_h, class by class: a pair at
    distance h meets in dimension D - h, which holds [D-h, i]_q
    i-subspaces."""
    d, n = gc.d, gc.n_vertices
    lut = np.array([q_binomial(d - h, i, gc.q) for h in range(d + 1)], dtype=np.int64)
    gram = gc.gram(i)
    for rows in row_blocks(n, n):
        classes = gc.dist[rows]
        if not ((classes >= 0) & (classes <= d)).all():
            return False
        if not (gram[rows] == lut[classes]).all():
            return False
    return True


def _gram_spans_partial_sum(ss: SpectralSystem, i: int, apply_idempotent) -> bool:
    """F'_i = G Q_i(G) on coefficient vectors, for G = sum_h [D-h, i]_q A_h
    and Q_i interpolating 1/lambda on the nonzero eigenvalues of G.

    E_j G = lambda_j E_j is checked for every j; with unit sum this makes
    G = sum_j lambda_j E_j, and lambda Q_i(lambda) is 1 at every nonzero
    eigenvalue and 0 at 0, so G Q_i(G) is the sum of the E_j with
    lambda_j != 0."""
    d = ss.gc.d
    g = [Fraction(q_binomial(d - h, i, ss.gc.q)) for h in range(d + 1)]
    support = []
    for j, e in enumerate(ss.e_coeffs):
        eg = apply_idempotent(j, g)
        if not e[0]:
            return False
        lam = eg[0] / e[0]
        if eg != [lam * v for v in e]:
            return False
        support.append(lam != 0)
    image = [sum(e[h] for e, s in zip(ss.e_coeffs, support) if s) for h in range(d + 1)]
    return image == ss.partial_coeffs(i)


def spectral_system(gc: GraphContext) -> SpectralSystem:
    """Exact eigenstructure of the adjacency matrix, verified in the
    distance (Bose-Mesner) algebra.

    Eigenvalues come from the closed form only, never from numerics.
    Every matrix of the algebra is a coefficient vector over A_0..A_D,
    and the only operation is "apply L", the intersection matrix of
    `structure_constants`.

    Proof obligation.  The distance classes partition the vertex pairs
    and are nonempty, so the A_h have disjoint 0/1 supports and are
    linearly independent: a matrix of the algebra is zero exactly when
    its coefficient vector is, and two are equal exactly when their
    vectors are.  Each product A_1 A_g is verified on the dense matrices
    to equal sum_h L[h][g] A_h, so applying L is exact multiplication by
    A_1, and applying a polynomial P(L) is exact multiplication by
    P(A_1).  Hence:

    - the minimal polynomial prod_i (A_1 - theta_i I) vanishes iff the
      product of (L - theta_i) applied to the vector of A_0 is zero;
    - E_i = P_i(A_1) with P_i the Lagrange polynomial of theta_i, its
      vector is P_i(L) applied to that of A_0, and E_i M for any M in
      the algebra is P_i(L) applied to the vector of M, which gives
      idempotency (E_i E_i = E_i) and orthogonality (E_i E_j = 0).

    Only closure under A_1 is used; `structure_constants` explains why
    the whole span is closed.  The idempotents are then checked for
    unit sum, E_0 = J/|X| and reconstruction of A_1; multiplicities are
    their traces.

    Rank certificate.  The traces are compared with ranks certified
    independently by the inclusion matrices.  For 0 <= i < D let W_i
    be the [N,i]_q x |X| 0/1 matrix of the i-subspaces u in the
    vertices y (u in y), F'_i = E_0 + ... + E_i, and G_i = W_i^T W_i.

    - (a) W_i has [N,i]_q rows and rank_p W_i = [N,i]_q.  A rank mod p
      is never above the rank over Q, nor is the row count, so W_i has
      full row rank over Q and W_i^T is injective.
    - (b) F'_i W_i^T = W_i^T, evaluated as sum_h c_h (A_h W_i^T) with
      one 0/1 kernel product per class, c the coefficients of F'_i.  So
      col(W_i^T) lies in col(F'_i), and rank F'_i >= [N,i]_q.
    - (c) G_i = sum_h [D-h, i]_q A_h entry by entry (one kernel product,
      compared class by class), so G_i lies in the algebra; and
      F'_i = G_i Q_i(G_i) on coefficient vectors, Q_i interpolating
      1/lambda on the nonzero eigenvalues of G_i.  So col(F'_i) lies in
      col(G_i), inside col(W_i^T), and rank F'_i <= [N,i]_q.

    Hence rank F'_i = [N,i]_q.  The E_j are orthogonal idempotents, so
    rank F'_i = m_0 + ... + m_i, and the certified multiplicities are
    m_i = [N,i]_q - [N,i-1]_q for i < D and m_D = |X| - [N,D-1]_q, since
    F'_D = I.  They enter `rank_certificate` and its total; a failed
    sub-check leaves the entries it touches uncertified (None), with a
    witness naming (a), (b) or (c).  `partial_ranks` keeps rank F'_i
    for the nucleus.  Kantor (Math. Z. 1972) proves W_i of full rank,
    and Delsarte (JCTA 1976) identifies its row space with
    V_0 + ... + V_i; the checks above verify both facts on the instance.
    """
    q, n, d = gc.q, gc.n, gc.d
    nv = gc.n_vertices
    theta = eigenvalue_formulas(q, n, d)
    if len(set(theta)) != d + 1:
        raise EigenvalueCollision(f"eigenvalues collide: {theta}")
    cs = CheckSet(f"spectral system q={q} N={n} D={d}")
    L, lcs = structure_constants(gc)
    cs.extend(lcs)

    def apply_l(coef):
        """L coef: the vector of A_1 M when coef is that of M."""
        return [sum(row[g] * coef[g] for g in range(d + 1)) for row in L]

    ident = [Fraction(1 if h == 0 else 0) for h in range(d + 1)]
    v = ident
    for t in theta:
        v = [a - t * b for a, b in zip(apply_l(v), v)]
    cs.check_true("minimal_polynomial_vanishes", not any(v))

    def apply_idempotent(i, coef):
        """P_i(L) coef: the vector of E_i M when coef is that of M."""
        for j in range(d + 1):
            if j == i:
                continue
            lc = apply_l(coef)
            scale = Fraction(1, theta[i] - theta[j])
            coef = [(a - theta[j] * b) * scale for a, b in zip(lc, coef)]
        return coef

    e_coeffs = [apply_idempotent(i, ident) for i in range(d + 1)]
    total = [sum(e_coeffs[i][h] for i in range(d + 1)) for h in range(d + 1)]
    cs.check("idempotents_sum_to_identity", ident, total)
    cs.check(
        "e0_is_all_ones_over_size",
        [Fraction(1, nv)] * (d + 1),
        e_coeffs[0],
    )
    adj_coeffs = [Fraction(1 if h == 1 else 0) for h in range(d + 1)]
    recon = [
        sum(theta[i] * e_coeffs[i][h] for i in range(d + 1)) for h in range(d + 1)
    ]
    cs.check("adjacency_reconstruction", adj_coeffs, recon)

    ss = SpectralSystem(gc=gc, theta=theta, theta_star=[], m=[], e_coeffs=e_coeffs, checks=cs)

    ok = True
    witness = None
    for i in range(d + 1):
        if apply_idempotent(i, e_coeffs[i]) != e_coeffs[i]:
            ok = False
            witness = f"E_{i}^2 != E_{i}"
    cs.check_true("idempotency", ok, witness)
    ok = True
    witness = None
    for i in range(d + 1):
        for j in range(i + 1, d + 1):
            if any(apply_idempotent(i, e_coeffs[j])):
                ok = False
                witness = f"E_{i}E_{j} != 0"
    cs.check_true("orthogonality", ok, witness)

    # multiplicities: trace of a verified idempotent equals its rank
    mults = []
    for i in range(d + 1):
        tr = nv * e_coeffs[i][0]
        cs.check_true(f"multiplicity_{i}_integral", tr.denominator == 1 and tr > 0)
        mults.append(int(tr))
    cs.check("multiplicities_sum", nv, sum(mults))
    cs.check("m_0", 1, mults[0])
    partial, faults = _inclusion_certificate(gc, ss, apply_idempotent)
    certified = [
        None if r is None or below is None else r - below
        for r, below in zip(partial, [0] + partial[:-1])
    ]
    witness = "; ".join(faults) or None
    total_cert = None if None in certified else sum(certified)
    cs.check("rank_certificate_total", nv, total_cert, witness)
    cs.check("rank_certificate", mults, certified, witness)
    if nv <= RANK_VERIFY_LIMIT:
        for i in range(d + 1):
            mi, _ = ss.idempotent_numerator(i)
            cs.check(f"rank_E_{i}", mults[i], rank_exact(mi))
    ss.partial_ranks = partial
    ss.m = mults

    # dual eigenvalues at the base vertex
    theta_star = dual_eigenvalue_formulas(q, n, d)
    observed_star = [nv * e_coeffs[1][h] for h in range(d + 1)]
    cs.check("dual_eigenvalue_closed_form", theta_star, observed_star)
    cs.check_true("dual_eigenvalues_distinct", len(set(theta_star)) == d + 1)
    ss.theta_star = theta_star
    counts = np.bincount(gc.dist[gc.x_index], minlength=d + 1)
    cs.check_true("dual_idempotents_partition", int(counts.sum()) == nv)
    cs.check(
        "sphere_sizes",
        [q_binomial(d, i, q) * q ** (i * i) * q_binomial(n - d, i, q) for i in range(d + 1)],
        [int(v) for v in counts],
    )

    cs.record("theta", theta)
    cs.record("theta_star", theta_star)
    cs.record("multiplicities", mults)
    return ss


def krein_parameters(ss: SpectralSystem):
    """Krein parameters from E_i (hadamard) E_j = (1/|X|) sum_h q^h_{ij} E_h,
    solved exactly in the class-coefficient algebra, plus the polynomial
    ordering conditions: q^h_{ij} vanishes when one of the three indices
    exceeds the sum of the other two and is nonzero at equality."""
    gc = ss.gc
    d = gc.d
    nv = gc.n_vertices
    cs = CheckSet("krein parameters")
    e_mat = [[ss.e_coeffs[t][h] for h in range(d + 1)] for t in range(d + 1)]
    inv = invert_fraction_matrix(e_mat)  # inv[g][t]: A_g = sum_t inv[g][t] E_t
    kp = [[[Fraction(0)] * (d + 1) for _ in range(d + 1)] for _ in range(d + 1)]
    recon_ok = True
    recon_witness = None
    for i in range(d + 1):
        for j in range(i, d + 1):
            s = [ss.e_coeffs[i][g] * ss.e_coeffs[j][g] for g in range(d + 1)]
            for h in range(d + 1):
                val = nv * sum(s[g] * inv[g][h] for g in range(d + 1))
                kp[h][i][j] = val
                kp[h][j][i] = val
            # the solved parameters must reproduce the hadamard product
            recon = [
                Fraction(1, nv) * sum(kp[h][i][j] * ss.e_coeffs[h][g] for h in range(d + 1))
                for g in range(d + 1)
            ]
            if recon != s:
                recon_ok = False
                recon_witness = f"pair ({i},{j})"
    cs.check_true("krein_reconstruction", recon_ok, recon_witness)

    ok_zero = True
    ok_nonzero = True
    witness_zero = witness_nonzero = None
    for h in range(d + 1):
        for i in range(d + 1):
            for j in range(d + 1):
                hi = max(h, i, j)
                rest = h + i + j - hi
                if hi > rest and kp[h][i][j] != 0:
                    ok_zero = False
                    witness_zero = f"q^{h}_{{{i},{j}}} = {kp[h][i][j]}"
                if hi == rest and kp[h][i][j] == 0:
                    ok_nonzero = False
                    witness_nonzero = f"q^{h}_{{{i},{j}}} = 0"
    cs.check_true("krein_vanishing_above_sum", ok_zero, witness_zero)
    cs.check_true("krein_nonzero_at_sum", ok_nonzero, witness_nonzero)
    cs.record(
        "krein",
        {f"{h},{i},{j}": kp[h][i][j] for h in range(d + 1) for i in range(d + 1) for j in range(d + 1)},
    )
    return kp, cs


def tmodule_condition_violations(n: int, d: int, r: int, t: int, dw: int, e: int):
    """Which of the four admissibility conditions the quadruple
    (r, t, dw, e) violates; empty list means admissible."""
    bad = []
    half = Fraction(d - dw, 2)
    if not (0 <= half <= r <= t <= d - dw <= d):
        bad.append("chain_inequalities")
    if (e + dw + d) % 2 != 0:
        bad.append("parity")
    if abs(e) > 2 * r - d + dw:
        bad.append("endpoint_bound")
    allowed = {e + d - 2 * r, min(d - t, e + d - 2 * r + 2 * (n - 2 * d))}
    if dw not in allowed:
        bad.append("diameter_selection")
    return bad


def _qpow(q: int, e: int):
    if e >= 0:
        return q**e
    return Fraction(1, q**-e)


def tmodule_intersection_numbers(q: int, n: int, d: int, r: int, t: int, dw: int, e: int):
    """Intersection numbers of the irreducible module with parameters
    (r, t, dw, e): lists a, b, c of length dw + 1.

    Raises InvalidQuadruple unless the four admissibility conditions
    hold.  b_dw and c_0 vanish through the [0] factor in the closed
    forms; that is asserted, not patched.
    """
    bad = tmodule_condition_violations(n, d, r, t, dw, e)
    if bad:
        raise InvalidQuadruple(f"(r,t,d,e)=({r},{t},{dw},{e}) violates {bad}")
    half_minus = (d - dw - e) // 2  # integral by the parity condition
    half_plus = (e - d - dw) // 2
    base = q * q_int(d, q) * q_int(n - d, q) - q_int(t, q) * q_int(n + 1 - t, q)
    b = []
    c = []
    for i in range(dw + 1):
        bi = (
            _qpow(q, 2 * i + 1 + r + half_minus)
            * q_int(dw - i, q)
            * q_int(n - i - r - t + half_plus, q)
        )
        ci = _qpow(q, t) * q_int(i, q) * q_int(i + r - t + half_minus, q)
        b.append(bi)
        c.append(ci)
    if b[dw] != 0:
        raise ArithmeticError("b_d must vanish")
    if c[0] != 0:
        raise ArithmeticError("c_0 must vanish")
    a = [base - b[i] - c[i] for i in range(dw + 1)]
    return a, b, c


def spectrum_json(gc: GraphContext, ss: SpectralSystem, nums: IntersectionNumbers) -> dict:
    return {
        "q": gc.q,
        "N": gc.n,
        "D": gc.d,
        "theta": [int(t) for t in ss.theta],
        "mult": [int(m) for m in ss.m],
        "theta_star": [str(t) for t in ss.theta_star],
        "intersection_numbers": {
            "k": int(nums.k),
            "a": [int(v) for v in nums.a],
            "b": [int(v) for v in nums.b],
            "c": [int(v) for v in nums.c],
        },
    }
