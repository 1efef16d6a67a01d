"""The Grassmann graph J_q(N, D) and its adjacency algebra, exactly.

Vertices are the D-dimensional subspaces of F_q^N, adjacent when they
meet in dimension D - 1, so graph distance is D - dim(y meet z).  The
module builds the distance matrix from the Gram product of the point
incidence matrix (common point counts q^dim(y meet z)), verifies the D
0/1 products A_1 A_g on dense matrices, and keeps their intersection matrix L
(multiplication by A_1 on coefficient vectors over A_0..A_D).  Every
spectral claim is then checked in that (D+1)-dimensional distance
(Bose-Mesner) algebra: the minimal polynomial of the closed-form
eigenvalues, idempotency and orthogonality of the primitive idempotents
as polynomials in L, and the dual system at the base vertex.  Only the
multiplicities touch |X| x |X| matrices again, as ranks mod p of the
idempotent numerators.  All arithmetic is exact.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import EigenvalueCollision, InvalidParameters, InvalidQuadruple
from .linalg import (
    ExactMatrix,
    ExactVector,
    exact_int_product,
    invert_fraction_matrix,
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
    dims_of_counts,
    point_incidence,
)

RANK_VERIFY_LIMIT = 60
BFS_FULL_LIMIT = 1000
BFS_SAMPLE_SOURCES = 50
BFS_SAMPLE_TARGETS = 200
_BFS_SEED = 20240


class GraphContext:
    """A built Grassmann graph: vertex table and exact distance matrix."""

    def __init__(self, geometry: GeometryContext, dist: np.ndarray, checks: CheckSet):
        self.geometry = geometry
        self.q = geometry.q
        self.n = geometry.ambient
        self.d = geometry.d
        self.vertices = geometry.table(geometry.d)
        self.n_vertices = len(self.vertices)
        self.dist = dist
        self.x_index = geometry.index_of(geometry.x)
        self.boundary = geometry.ambient == 2 * geometry.d
        self.build_checks = checks
        self._adjacency: list[list[int]] | None = None
        self._L = None
        self._L_checks = None

    def distance_matrix(self, i: int) -> ExactMatrix:
        return ExactMatrix.from_class_values(
            self.dist, {h: (1 if h == i else 0) for h in range(self.d + 1)}
        )

    def adjacency_lists(self) -> list[list[int]]:
        if self._adjacency is None:
            self._adjacency = [
                np.flatnonzero(self.dist[v] == 1).tolist()
                for v in range(self.n_vertices)
            ]
        return self._adjacency


def _bfs_full_check(gc: GraphContext, cs: CheckSet) -> None:
    """All-pairs breadth-first distances by repeated boolean expansion
    (0/1 products with the adjacency matrix), compared with the
    meet-dimension distances."""
    n = gc.n_vertices
    adj = gc.dist == 1
    cur = np.eye(n, dtype=bool)
    bfs = np.full((n, n), -1, dtype=np.int16)
    np.fill_diagonal(bfs, 0)
    for t in range(1, gc.d + 1):
        nxt = cur.copy()
        for rows in row_blocks(n, n):
            nxt[rows] |= exact_int_product(cur[rows], adj, n) > 0
        newly = nxt & ~cur
        if not newly.any():
            break
        bfs[newly] = t
        cur = nxt
    cs.check_true("bfs_reaches_every_pair", bool(cur.all()))
    cs.check_true("bfs_distances_match_meet_formula", bool((bfs == gc.dist).all()))


def _bfs_sampled_check(gc: GraphContext, cs: CheckSet) -> None:
    rng = random.Random(_BFS_SEED)
    n = gc.n_vertices
    adj = gc.adjacency_lists()
    sources = rng.sample(range(n), min(n, BFS_SAMPLE_SOURCES))
    ok = True
    witness = None
    pairs = 0
    for s in sources:
        level = {s: 0}
        frontier = [s]
        t = 0
        while frontier:
            t += 1
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if w not in level:
                        level[w] = t
                        nxt.append(w)
            frontier = nxt
        targets = rng.sample(range(n), min(n, BFS_SAMPLE_TARGETS))
        for y in targets:
            pairs += 1
            if level.get(y, -1) != int(gc.dist[s, y]):
                ok = False
                witness = f"pair ({s},{y}): bfs {level.get(y)} vs {int(gc.dist[s, y])}"
    cs.check_true("bfs_sampled_distances_match", ok, witness)
    cs.record("bfs_sampled_pairs", pairs)


def build_graph(
    q: int,
    n: int,
    d: int,
    x_rows=None,
    table_cap: int = DEFAULT_TABLE_CAP,
    poset_cap: int = DEFAULT_POSET_CAP,
    cache_dir: str | None = None,
) -> GraphContext:
    """Build J_q(N, D) with its exact distance matrix.

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
    geometry = GeometryContext(
        q, n, d, x_rows=x_rows, table_cap=table_cap, poset_cap=poset_cap, cache_dir=cache_dir
    )
    vertices = geometry.table(d)
    nv = len(vertices)
    # common point counts are q^dim(y meet z); any other count raises
    npoints = q**n
    inc = point_incidence(vertices, npoints)
    dist = np.empty((nv, nv), dtype=np.int16)
    for rows in row_blocks(nv, nv):
        counts = exact_int_product(inc[rows], inc.T, npoints)
        dist[rows] = d - dims_of_counts(counts, q, d)
    cs = CheckSet(f"graph build q={q} N={n} D={d}")
    cs.check("vertex_count", q_binomial(n, d, q), nv)
    cs.check_true("distance_range", bool(((dist >= 0) & (dist <= d)).all()))
    cs.check_true("distance_symmetric", bool((dist == dist.T).all()))
    gc = GraphContext(geometry, dist, cs)
    if nv <= BFS_FULL_LIMIT:
        _bfs_full_check(gc, cs)
    else:
        _bfs_sampled_check(gc, cs)
    # the distance-i sphere around x is exactly the layer P_{D-i, i}
    layer_ok = True
    witness = None
    for y_idx, y in enumerate(vertices):
        i = int(dist[gc.x_index, y_idx])
        if geometry.pij(y) != (d - i, i):
            layer_ok = False
            witness = f"vertex {y.rows}"
            break
    cs.check_true("sphere_equals_layer", layer_ok, witness)
    return gc


def structure_constants(gc: GraphContext):
    """Intersection matrix of the distance algebra: integers L[h][g] =
    p^h_{1g} with A_1 A_g = sum_h L[h][g] A_h, extracted from the D exact
    products A_1 A_g (g = 1..D) and verified class by class.  Column 0
    is A_1 A_0 = A_1, which needs no product once A_0 = I is checked.

    A_g is the bool matrix dist == g, so the products run on the 0/1
    branch of `exact_int_product`.  Each pair has one distance, so the
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
        return gc._L, gc._L_checks
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
        for rows in row_blocks(n, n):
            prod = exact_int_product(adj[rows], ag, n)
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
    gc._L = L
    gc._L_checks = cs
    return L, cs


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


@dataclass
class SpectralSystem:
    gc: GraphContext
    theta: list[int]
    theta_star: list[Fraction]
    m: list[int]
    e_coeffs: list[list[Fraction]] = field(repr=False)
    checks: CheckSet = field(repr=False)
    _e_num_cache: dict = field(default_factory=dict, repr=False)

    def idempotent_numerator(self, i: int):
        """(M, den) with E_i = M / den and M integral."""
        if i not in self._e_num_cache:
            self._e_num_cache[i] = self.class_numerator(self.e_coeffs[i])
        return self._e_num_cache[i]

    def class_numerator(self, coeffs: list[Fraction]):
        """(M, den) with sum_h coeffs[h] A_h = M / den, M integral and
        den the least common denominator of the coefficients."""
        den = 1
        for c in coeffs:
            den = den * c.denominator // math.gcd(den, c.denominator)
        values = {h: int(coeffs[h] * den) for h in range(self.gc.d + 1)}
        return ExactMatrix.from_class_values(self.gc.dist, values), den

    def astar_diag(self) -> list[Fraction]:
        xrow = self.gc.dist[self.gc.x_index]
        return [self.theta_star[int(xrow[y])] for y in range(self.gc.n_vertices)]

    def astar_apply(self, v: ExactVector) -> ExactVector:
        diag = self.astar_diag()
        return ExactVector(np.array([dv * vv for dv, vv in zip(diag, v.a)], dtype=object))


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
    their traces, certified as ranks mod p on the dense numerators.
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
    # rank certificate: orthogonality plus unit sum make the images span
    # V directly, so the rational ranks sum to |X|; each modular rank is
    # a lower bound, so modular ranks that already sum to |X| are exact
    mod_ranks = []
    for i in range(d + 1):
        mi, _ = ss.idempotent_numerator(i)
        mod_ranks.append(rank_mod_prime(mi))
    cs.check("rank_certificate_total", nv, sum(mod_ranks))
    cs.check("rank_certificate", mults, mod_ranks)
    if nv <= RANK_VERIFY_LIMIT:
        for i in range(d + 1):
            mi, _ = ss.idempotent_numerator(i)
            cs.check(f"rank_E_{i}", mults[i], rank_exact(mi))
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
