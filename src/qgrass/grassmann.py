"""The Grassmann graph J_q(N, D) and its adjacency algebra, exactly.

Vertices are the D-dimensional subspaces of F_q^N, adjacent when they
meet in dimension D - 1, so graph distance is D - dim(y meet z).  The
graph is held as one representation, the packed point masks of its
vertices: y and z have q^dim(y meet z) common points, one popcount of
their masks, and `GraphContext.distances` reads any block of distances
from those counts.  No |X| x |X| distance matrix is stored; row x is
read once, at build.

J_q(N, D) is distance-transitive under GL(N, q) (Brouwer-Cohen-Neumaier,
Section 9.3), and the verifier uses it.  `_group_action` turns a few
explicit matrices of GL(N, q) into permutations of the vertices and of
each i-subspace table, read off the images of their point masks, and
checks on the stored permutations that each entry goes to the entry
with its image mask.  A bijection of the points keeps every common
point count, so every distance and every inclusion matrix is
preserved.  It also checks that the generated group is transitive on
the vertices, and that the part fixing the base vertex x has one orbit
per sphere of x.  Every matrix of the distance algebra,
every product of such matrices and every Gram product W_i^T W_i then
commutes with the group, so an identity between them holds once it
holds on row x.  Where a premise fails the group is trivial, and the
same code reads every row (`GraphContext.representatives`; the proof is
in `structure_constants`).  That gives the intersection matrix L
(multiplication by A_1 on coefficient vectors over A_0..A_D), which,
being tridiagonal with every c_t > 0, also certifies the graph metric.
`build_graph` verifies the action and L once and stores both on the
graph; every later certificate reads them there.
Every spectral claim is then checked in that (D+1)-dimensional distance
(Bose-Mesner) algebra: the minimal polynomial of the closed-form
eigenvalues, idempotency and orthogonality of the primitive idempotents
as polynomials in L, and the dual system at the base vertex.  The
multiplicities are certified by the inclusion matrices W_i of the
i-subspaces in the vertices (i < D), which are [N,i]_q x |X| 0/1
arrays: W_i^T W_i is checked to be a class sum whose spectral
decomposition gives back E_0 + ... + E_i, so that sum has the row
space of W_i, and its exact trace gives W_i full row rank.  No
|X| x |X| matrix of the algebra is materialized for them, and no matrix
is eliminated.  All arithmetic is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import EigenvalueCollision, FalsifiedFact, InvalidParameters, InvalidQuadruple
# exact_int_product has no caller here; the benchmark tracer finds the
# kernel it wraps as grassmann.exact_int_product
from .linalg import (
    component_labels,
    echelon_mod_p,
    exact_int_product,  # noqa: F401
    int_operand,
    invert_fraction_matrix,
    product_blocks,
    rank_exact,
    row_blocks,
)
from .qarith import q_binomial, q_int, q_power
from .report import CheckSet
from .subspaces import (
    DEFAULT_POSET_CAP,
    DEFAULT_TABLE_CAP,
    GeometryContext,
    SubspaceTable,
    all_vectors,
    count_dims,
)

RANK_VERIFY_LIMIT = 60


class GraphContext:
    """A built Grassmann graph: vertex table, row x of the distances and,
    built on demand and cached, the inclusion matrices W_i.  Every other
    distance is read from the vertex masks when needed (`distances`).

    `build_graph` sets the verified state once: `action`, the GroupAction
    of `_group_action` or None for the trivial group, and then `L` and
    `structure_checks`, the intersection matrix and its checks
    (`structure_constants`)."""

    def __init__(self, geometry: GeometryContext, checks: CheckSet):
        self.geometry = geometry
        self.q = geometry.q
        self.n = geometry.ambient
        self.d = geometry.d
        self.vertices = geometry.table(geometry.d)
        self.n_vertices = len(self.vertices)
        self.x_index = geometry.x_index
        self.boundary = geometry.ambient == 2 * geometry.d
        self.build_checks = checks
        self._meet_dims = count_dims(self.q, self.vertices.dim)
        self.xrow = self.distances([self.x_index])[0]
        self._inclusion: dict[int, np.ndarray] = {}

    @property
    def certificate_path(self) -> str:
        """How the distance-algebra certificates of this graph were
        decided: "automorphism" when a group action was verified and they
        read row x alone, "dense" when they read every vertex."""
        return "dense" if self.action is None else "automorphism"

    def distances(self, rows, cols=None) -> np.ndarray:
        """The int8 block of graph distances D - dim(y meet z), y over
        the vertices `rows` and z over `cols` (every vertex when None),
        each any index of the vertex table.  y and z have q^dim(y meet z)
        common points, so the block is the 0/1 product of their packed
        point masks (`product_blocks`), classified by `count_dims`, which
        raises on any count outside q^0..q^D.  This is the only code that
        turns masks into distances."""
        words = self.vertices.words
        left = words[rows]
        right = words if cols is None else words[cols]
        out = np.empty((len(left), len(right)), dtype=np.int8)
        for blk, counts in product_blocks(left, right, self.q**self.n):
            out[blk] = self.vertices.dim - self._meet_dims(counts)
        return out

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

    def representatives(self) -> np.ndarray:
        """One vertex per orbit of the verified group: x alone under the
        transitive `action`, and every vertex under the trivial group
        when no action was verified."""
        if self.action is not None:
            return np.array([self.x_index])
        return np.arange(self.n_vertices)

    def gram_rows(self, i: int, rows: np.ndarray):
        """Rows `rows` of W_i^T W_i as the (slice of `rows`, block) pairs
        of `product_blocks`: entry (y, z) counts the i-subspaces of
        y meet z.  No row outside `rows` is computed."""
        w = self.inclusion(i)
        return product_blocks(w.T[rows], w, w.shape[0])

    def adjacency(self) -> np.ndarray:
        """Bool adjacency by a route independent of the distances: y ~ z
        exactly when y != z and one (D-1)-subspace lies in both, that is
        (W_{D-1}^T W_{D-1})[y, z] = [dim(y meet z), D-1]_q = 1."""
        n = self.n_vertices
        adj = np.empty((n, n), dtype=bool)
        for rows, gram in self.gram_rows(self.d - 1, np.arange(n)):
            adj[rows] = gram == 1
        np.fill_diagonal(adj, False)
        return adj


def _bfs_full_check(gc: GraphContext, cs: CheckSet) -> None:
    """All-pairs breadth-first distances by repeated boolean expansion
    (0/1 products with the adjacency matrix of `GraphContext.adjacency`,
    which does not read the distances), compared with the meet-dimension
    distances of every row."""
    n = gc.n_vertices
    adj = gc.adjacency()
    cur = np.eye(n, dtype=bool)
    bfs = np.full((n, n), -1, dtype=np.int8)
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
    cs.check_true("bfs_distances_match_meet_formula", bool((bfs == gc.distances(slice(None))).all()))


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
    first reached at step h, and T_D = B_D holds every pair by (2).
    (1) is `_edges_match`."""
    d = gc.d
    L = gc.L
    return (
        gc.structure_checks.ok
        and all(L[h][g] == 0 for h in range(d + 1) for g in range(d + 1) if abs(h - g) >= 2)
        and all(L[t][t - 1] > 0 for t in range(1, d + 1))
        and _edges_match(gc)
    )


def _edges_match(gc: GraphContext) -> bool:
    """adjacency() == (dist == 1), premise (1) of `_metric_certificate`,
    read at the representative vertices (`structure_constants`): both
    sides are G-invariant, the adjacency as a function of W_{D-1}^T
    W_{D-1} with the diagonal cleared."""
    rows = gc.representatives()
    for blk, gram in gc.gram_rows(gc.d - 1, rows):
        ys = rows[blk]
        adj = gram == 1
        adj[np.arange(len(ys)), ys] = False
        if not (adj == (gc.distances(ys) == 1)).all():
            return False
    return True


def build_graph(
    q: int,
    n: int,
    d: int,
    x_rows=None,
    table_cap: int = DEFAULT_TABLE_CAP,
    poset_cap: int = DEFAULT_POSET_CAP,
) -> GraphContext:
    """Build J_q(N, D) from its vertex masks, with row x of its
    distances.

    The group action (`_group_action`) and the intersection matrix with
    its checks (`structure_constants`) are verified here, once, and
    stored on the graph.  Distances are compared with breadth-first ones
    by `_metric_certificate`, or by the all-pairs expansion of
    `_bfs_full_check` where that fails.

    `distance_range` and `distance_symmetric` read row x and column x,
    two products of the vertex masks with the operands in swapped order.
    Proof obligation for every other pair: each distance, wherever
    `GraphContext.distances` reads it, is D minus `count_dims` of the
    popcount of the AND of two table masks.  `count_dims` raises on any
    count outside q^0..q^D, so every distance returned lies in 0..D; the
    AND and its popcount are commutative, so (y, z) and (z, y) are read
    from the same count and agree.

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
    cs = CheckSet(f"graph build q={q} N={n} D={d}")
    gc = GraphContext(geometry, cs)
    xrow = gc.xrow
    cs.check("vertex_count", q_binomial(n, d, q), gc.n_vertices)
    cs.check_true("distance_range", bool(((xrow >= 0) & (xrow <= d)).all()))
    column = gc.distances(slice(None), [gc.x_index])[:, 0]
    cs.check_true("distance_symmetric", bool((xrow == column).all()))
    gc.action = _group_action(gc)
    gc.L, gc.structure_checks = structure_constants(gc)
    if _metric_certificate(gc):
        cs.check_true("bfs_reaches_every_pair", True)
        cs.check_true("bfs_distances_match_meet_formula", True)
    else:
        _bfs_full_check(gc, cs)
    # the distance-i sphere around x is exactly the layer P_{D-i, i}:
    # every vertex meets x in dimension D - dist(x, y)
    inside_x = np.bitwise_count(gc.vertices.words & geometry.x_words).sum(axis=1)
    meet_x = count_dims(q, d)(inside_x)
    off_layer = np.flatnonzero(meet_x != d - xrow)
    layer_ok = not off_layer.size
    witness = None
    if not layer_ok:
        witness = f"vertex {tuple(map(tuple, gc.vertices.rows[int(off_layer[0])].tolist()))}"
    cs.check_true("sphere_equals_layer", layer_ok, witness)
    return gc


def structure_constants(gc: GraphContext):
    """Intersection matrix of the distance algebra: integers L[h][g] =
    p^h_{1g} with A_1 A_g = sum_h L[h][g] A_h, read off the products A_1
    A_g (g = 1..D) and verified class by class.  Column 0 is A_1 A_0 =
    A_1, which needs no product once A_0 = I is checked.

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

    Proof obligation of the representative rows, which every certificate
    of this module reads.  Let G be the group generated by the vertex
    permutations of `GraphContext.action`, verified by `_group_action`,
    or the trivial group where a premise fails, and R the rows of
    `GraphContext.representatives`: {x}, or all of X.  M is G-invariant
    when M[p[y], p[z]] = M[y, z] for every generator p.  Every A_h is,
    as every distance is invariant (`_group_action`); so are products
    and integer combinations of G-invariant matrices (A_1 A_g, and
    sum_h c_h A_h with any coefficients, right or wrong), and each
    W_i^T W_i, as every W_i (i < D) is invariant by the lemma of
    `_group_action`.  Claim:
    G-invariant M and M' are equal iff their rows in R are, and M is
    constant on each distance class iff each row r in R is constant on
    each sphere S_h(r) = {z : dist(r, z) = h}, with one value per h for
    all r.  For R = X that is the definition.  For R = {x}: G is
    transitive on X, so every row (and row sum) of M is row x permuted;
    the part H of G fixing x has one orbit per sphere S_h(x), each
    nonempty, so a pair (y, z) at distance h goes to (x, z') by some g
    with g y = x, z' in S_h(x), and H moves z' to any vertex of S_h(x);
    so M is constant on each class, with its value at any (x, z), z in
    S_h(x).  Hence dist == 0 exactly
    on the diagonal, and dist lies in 0..D, iff that holds on the rows
    in R, and A_1 A_g is constant on every class iff its rows in R are
    constant on the spheres of their vertex, with those values as
    L[.][g].  Row r of A_1 A_g counts, for each z, the neighbours w of r
    with dist(w, z) = g: a column sum over the rows of the distances at
    the neighbours of r, |S_1(r)| x |X| entries read from the vertex
    masks (`GraphContext.distances`), not |X|^2.

    The rows read are set by `gc.action`; nothing is written to the
    graph.  `build_graph` stores the result as `gc.L` and
    `gc.structure_checks`.
    """
    d = gc.d
    identity = partition = ok = True
    witness = None
    first = {}  # (h, g): the value of A_1 A_g first read on class h
    for y in gc.representatives():
        row = gc.distances([y])[0]
        identity = identity and np.flatnonzero(row == 0).tolist() == [y]
        partition = partition and bool(((row >= 0) & (row <= d)).all())
        near = gc.distances(row == 1)
        for g in range(1, d + 1):
            prod = (near == g).sum(axis=0)
            for h in range(d + 1):
                vals = prod[row == h]
                if vals.size and not (vals == first.setdefault((h, g), int(vals[0]))).all():
                    ok = False
                    witness = f"A_1A_{g} not constant on class {h}"
    # an empty class has a zero matrix, so any coefficient works; zero
    # keeps the table well defined
    L = [[first.get((h, g), int((h, g) == (1, 0))) for g in range(d + 1)] for h in range(d + 1)]
    cs = CheckSet("distance algebra structure constants")
    cs.check_true("a0_is_identity", identity)
    cs.check_true("classes_partition_pairs", partition)
    cs.check_true("products_constant_on_classes", ok, witness)
    return L, cs


# ---------------------------------------------------------------------------
# the automorphism certificate: a verified action of GL(N, q) on X


@dataclass
class GroupAction:
    """Permutations verified by `_group_action`, one row per generator:
    `vertex` of the vertex table and `tables[i]` of the table of
    i-subspaces for 0 <= i < D (the single zero subspace for i = 0).
    The first `fixing` generators fix x; their part of the group has one
    orbit per sphere of x (premise 4).  Every distance and every W_i
    (i < D) is invariant under these permutations, by the lemma of
    `_group_action`."""

    vertex: np.ndarray
    tables: dict
    fixing: int


def _primitive_root(q: int) -> int:
    """The least generator of the multiplicative group of F_q, q prime."""
    return next(w for w in range(1, q) if len({pow(w, e, q) for e in range(q - 1)}) == q - 1)


def _block_generators(q: int, k: int) -> list[np.ndarray]:
    """Generators of GL(k, q), rows acting by v -> vM: the cyclic shift
    and the swap of the first two coordinates (together the symmetric
    group), the transvection e_0 -> e_0 + e_1 (with the symmetric group
    every elementary matrix, which generate SL(k, q) for q prime) and,
    when q > 2, diag(w, 1, ..., 1) for a primitive root w (every
    determinant)."""
    eye = np.eye(k, dtype=np.int64)
    gens = []
    if k > 2:  # for k = 2 the shift is the swap
        gens.append(np.roll(eye, 1, axis=1))
    if k > 1:
        trans = eye.copy()
        trans[0, 1] = 1
        gens += [eye[[1, 0, *range(2, k)]], trans]
    if q > 2:
        scale = eye.copy()
        scale[0, 0] = _primitive_root(q)
        gens.append(scale)
    return gens


def _x0_generators(q: int, n: int, d: int):
    """(mats, f): matrices of GL(N, q) stacked (g, N, N), rows acting by
    v -> vM.  The first f fix x0 = span(e_0..e_{D-1}) (no entry in the
    top-right D x (N-D) block): generators of GL(D) and GL(N-D) on the
    diagonal blocks and the link transvection e_D -> e_D + e_0, which
    together generate the stabilizer of x0.  The last one, the swap of
    e_0 and e_D, moves x0."""
    eye = np.eye(n, dtype=np.int64)
    fixing = []
    for lo, k in ((0, d), (d, n - d)):
        for blk in _block_generators(q, k):
            m = eye.copy()
            m[lo : lo + k, lo : lo + k] = blk
            fixing.append(m)
    link = eye.copy()
    link[d, 0] = 1
    fixing.append(link)
    mover = eye[[d, *range(1, d), 0, *range(d + 1, n)]]
    return np.stack(fixing + [mover]), len(fixing)


def _conjugated(mats: np.ndarray, x_rows: np.ndarray, q: int) -> np.ndarray:
    """B^-1 M B mod q for each matrix M, with B the rows of x followed
    by e_j for each non-pivot column j of x: x0 B = x, so B^-1 M B fixes
    x when M fixes x0.  B^-1 is the right half of the reduced echelon
    form of [B | I] mod q."""
    n = mats.shape[1]
    free = np.ones(n, dtype=bool)
    free[(x_rows != 0).argmax(axis=1)] = False
    eye = np.eye(n, dtype=np.int64)
    basis = np.concatenate([x_rows.astype(np.int64), eye[free]])
    aug = np.concatenate([basis, eye], axis=1)
    echelon_mod_p(aug, q, reduced=True)
    return aug[:, n:] @ mats @ basis % q


def _inverse_point_maps(q: int, n: int, mats: np.ndarray):
    """The inverses of the point maps sigma(v) = vM of the matrices, as
    a (g, q^N) array of vector indices (vector v has index sum_i v_i
    q^i), from one product of every vector with the stacked matrices;
    None when some sigma is not a bijection."""
    g = len(mats)
    npoints = q**n
    vecs = all_vectors(q, n)[:, ::-1].astype(np.int64)
    images = vecs @ mats.transpose(1, 0, 2).reshape(n, g * n) % q
    sigma = (images.reshape(npoints, g, n) @ q ** np.arange(n)).T
    inv = np.full((g, npoints), -1, dtype=np.intp)
    inv[np.arange(g)[:, None], sigma] = np.arange(npoints)
    return None if (inv < 0).any() else inv


def _image_words(words: np.ndarray, inv: np.ndarray, npoints: int) -> np.ndarray:
    """Packed point masks of the images of every table entry under every
    point map, (g, count, W): bit b of the image of S is bit sigma^-1(b)
    of S.  Per block of entries, one gather of the unpacked bits, with
    the zero padding past `npoints` mapped to itself, and one packbits;
    a block holds at most _BLOCK_BYTES / 8 unpacked bits."""
    count, width = words.shape
    g = len(inv)
    pad = np.broadcast_to(np.arange(npoints, 64 * width), (g, 64 * width - npoints))
    full = np.concatenate([inv, pad], axis=1)
    out = np.empty((count, g, width), dtype=np.uint64)
    for rows in row_blocks(count, g * 64 * width):
        bits = np.unpackbits(words[rows].view(np.uint8), axis=1, bitorder="little")
        packed = np.packbits(bits.take(full, axis=1).ravel(), bitorder="little")
        out[rows] = packed.view("<u8").reshape(-1, g, width)
    return out.transpose(1, 0, 2)


def _table_perms(table: SubspaceTable, inv: np.ndarray, npoints: int):
    """(perms, images): the (g, count, W) point masks of the images of
    every entry under every point map (`_image_words`), and (g, count)
    the table index of each image, found by its point set; None unless
    every image is a table entry and every row is a bijection of the
    table."""
    images = _image_words(table.words, inv, npoints)
    perms = table.find_masks(images.reshape(-1, images.shape[2])).reshape(images.shape[:2])
    if (perms < 0).any():
        return None
    seen = np.zeros(perms.shape, dtype=bool)
    seen[np.arange(len(perms))[:, None], perms] = True
    return (perms, images) if seen.all() else None


def _group_action(gc: GraphContext):
    """The GroupAction of the matrices of `_x0_generators`, conjugated to
    fix x, or None when one of its premises fails:

    1. each point map sigma is a bijection of F_q^N;
    2. every image of a vertex, and of an i-subspace for 1 <= i < D, is
       a table entry, each table permutation is a bijection, and on the
       stored permutations mask(p t) = sigma(mask t) for every entry t,
       against the image masks that `_image_words` reads;
    3. the generators meant to fix x fix x_index;
    4. the group has one orbit on the vertices, and the part fixing x
       has exactly D + 1 orbits on them, one per sphere of x: row x lies
       in 0..D, every sphere is nonempty, and an orbit of that part
       lies in one sphere because its generators fix x and preserve
       every distance.

    A permutation is defined through point sets and then checked on the
    arrays, so nothing rests on the matrices themselves; a generating
    set that is too small shows as extra orbits.  They are counted as
    the components of the edges joining each point to its images
    (`linalg.component_labels`): a generator's inverse is one of its
    powers, so these components are the orbits.

    Lemma (invariance), which the distances and the inclusion matrices
    rest on and which needs no check of its own.  By premise 1 sigma is
    a bijection of the points, so it commutes with AND, sigma(a & b) =
    sigma(a) & sigma(b), and keeps every popcount.  By premise 2,
    mask(p t) = sigma(mask t) for every entry t of every stored table,
    with p the generator's permutation of that table.  So for entries s
    and t of any two stored tables, mask(p s) & mask(p t) = sigma(mask s
    & mask t) has the popcount of mask s & mask t, and a relation read
    from that popcount alone holds at (p s, p t) exactly when it holds
    at (s, t).  Two such relations:
    - `GraphContext.distances`, the only code that turns masks into
      distances, reads dist(y, z) from the count of y and z, so
      dist(p y, p z) = dist(y, z) for every pair;
    - `GraphContext.inclusion` reads W_i[u, y] = [popcount(mask u &
      mask y) = q^i], with len(table(i)) rows by construction, so
      W_i[pi][:, p] == W_i for every i < D, with pi the permutation of
      table(i).  W_0 is one row of ones, kept by the zero permutation
      of table(0)."""
    q, n, d, x = gc.q, gc.n, gc.d, gc.x_index
    mats, fixing = _x0_generators(q, n, d)
    inv = _inverse_point_maps(q, n, _conjugated(mats, gc.geometry.x_rows, q))
    if inv is None:
        return None
    npoints = q**n
    stored = [gc.vertices, *(gc.geometry.table(i) for i in range(1, d))]
    found = [_table_perms(table, inv, npoints) for table in stored]
    if any(f is None for f in found):
        return None
    # premise 2 on the stored permutations: entry p[t] has the image mask
    # of entry t, one generator at a time
    for table, (perms, images) in zip(stored, found):
        if any((table.words[p] != image).any() for p, image in zip(perms, images)):
            return None
    perms = [f[0] for f in found]
    vertex = perms[0]
    xrow = gc.xrow
    if (vertex[:fixing, x] != x).any() or xrow.min() < 0 or xrow.max() > d:
        return None

    def orbits(p):
        count = p.shape[1]
        labels = component_labels(count, np.tile(np.arange(count), len(p)), p.ravel())
        return int((labels == np.arange(count)).sum())

    # the fixing part keeps x and every distance, so each of its orbits
    # lies in one sphere; D + 1 orbits and D + 1 nonempty spheres make
    # them equal
    counts = [orbits(p) for p in (vertex[:fixing], vertex)]
    if counts != [d + 1, 1] or not np.bincount(xrow, minlength=d + 1).all():
        return None
    tables = {0: np.zeros((len(mats), 1), dtype=np.intp)}
    tables.update(enumerate(perms[1:], start=1))
    return GroupAction(vertex, tables, fixing)


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
    L = gc.L
    cs = CheckSet(f"intersection numbers q={q} N={n} D={d}")
    cs.extend(gc.structure_checks)
    counted_b = [L[i][i + 1] if i < d else 0 for i in range(d + 1)]
    counted_c = [L[i][i - 1] if i > 0 else 0 for i in range(d + 1)]
    counted_a = [L[i][i] for i in range(d + 1)]
    k_counted = L[0][1]
    # row sums of A_1 at the representative vertices (`structure_constants`)
    reps = gc.representatives()
    valency_ok = all((gc.distances([y]) == 1).sum() == k_counted for y in reps)
    cs.check_true("valency_constant_rows", valency_ok)
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


def _lagrange_numerators(L, theta) -> list[tuple[list[list[int]], int]]:
    """(P, den) for each i with P_i(L) = P / den, for the Lagrange
    polynomial P_i(x) = prod_{j != i} (x - theta_j) / (theta_i - theta_j)
    of integer theta and an integer square matrix L: P is the integer
    matrix prod_{j != i} (L - theta_j I) and den the integer
    prod_{j != i} (theta_i - theta_j)."""
    size = len(L)
    out = []
    for i, ti in enumerate(theta):
        num = [[int(h == g) for g in range(size)] for h in range(size)]
        den = 1
        for j, tj in enumerate(theta):
            if j != i:
                num = [
                    [sum(L[h][k] * num[k][g] for k in range(size)) - tj * num[h][g] for g in range(size)]
                    for h in range(size)
                ]
                den *= ti - tj
        out.append((num, den))
    return out


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
        |X| x |X| integer array, the integer class values gathered by the
        distances of every row (`GraphContext.distances`; int64, or
        Python ints past the product guard), for the fallback paths and
        small |X|."""
        values, den = integer_coeffs(coeffs)
        table, _amax = int_operand(np.array(values, dtype=object))
        return table[self.gc.distances(slice(None))], den


def _inclusion_certificate(gc: GraphContext, ss: SpectralSystem, apply_idempotent, premises):
    """rank F'_i for F'_i = E_0 + ... + E_i, i = 0..D, each None when
    its certificate fails, and the failed sub-checks, each named (a),
    (b) or (c) as in `spectral_system`.  `premises` names the failed
    checks among those the trace argument of (a) rests on.  (c) reads
    the representatives of `GraphContext.representatives` (the proof
    obligation is in `structure_constants`): G_i - sum_h [D-h, i]_q A_h
    is G-invariant, so it vanishes iff its rows at the representative
    vertices do (`GraphContext.gram_rows`).  No other distance is read,
    and no matrix is eliminated.

    Proof obligation of (a) and (b), which follow from (c), the traces
    and the unit sum.  Write G = G_i = W_i^T W_i.

    - Column spaces.  col(W^T) = col(W^T W) over the reals (W^T W v = 0
      gives |W v|^2 = 0), hence over Q.  (c) checks E_j G = lambda_j E_j
      for every j and F'_i = sum of the E_j with lambda_j != 0; each
      such E_j = G E_j / lambda_j, so col(F'_i) lies in col(G).  With
      the unit sum sum_j E_j = I (checked as F'_D = I), G = sum_j E_j G
      = sum_j lambda_j E_j, so F'_i G = G and F'_i = G Q_i(G): col(F'_i)
      = col(G) = col(W_i^T), and rank F'_i = rank W_i.
    - Ranks.  F'_i is a sum of orthogonal idempotents, so it is
      idempotent and rank F'_i = tr F'_i = |X| times its coefficient on
      A_0 (A_0 = I, and every other A_h is zero on the diagonal), the
      exact Fraction m_0 + ... + m_i, not the truncated multiplicities.
      This needs the E_j to be the matrices P_j(A_1): L acts as A_1 and
      A_0 = I (`structure_constants`), and the `idempotency` and
      `orthogonality` checks.  Where one of them fails, (a) fails.
    - Verdict (a).  W_i has full row rank, so W_i^T is injective, as the
      nucleus needs, exactly when W_i has [N,i]_q rows and tr F'_i =
      [N,i]_q.  Only one direction is used, and it needs no unit sum:
      rank W_i >= rank F'_i = [N,i]_q, the row count.
    - (b) F'_i W_i^T = W_i^T.  Every column of W_i^T is G u for some u,
      and F'_i G u = G u, so (b) follows from (c) once the idempotents
      sum to I, the one premise it adds.

    A rank is certified when (a), (b) and (c) all pass; (a) is derived
    only where (c) holds, but its own conditions are reported for every
    i."""
    q, n, d = gc.q, gc.n, gc.d
    unit = [Fraction(1 if h == 0 else 0) for h in range(d + 1)]
    unit_sum = ss.partial_coeffs(d) == unit
    vertices = gc.representatives()
    ranks = []
    faults = []
    for i in range(d):
        found = len(faults)
        rows = q_binomial(n, i, q)
        stored = gc.inclusion(i).shape[0]
        trace = gc.n_vertices * ss.partial_coeffs(i)[0]
        if stored != rows:
            faults.append(f"(a) W_{i} has {stored} rows, not {rows}")
        elif premises:
            faults.append(f"(a) rank W_{i} = tr F'_{i} does not follow: {', '.join(premises)} failed")
        elif trace != rows:
            faults.append(f"(a) tr F'_{i} = {trace}, not the {rows} rows of W_{i}")
        if not unit_sum:
            faults.append(f"(b) sum_j E_j != I, so F'_{i} W_{i}^T = W_{i}^T does not follow")
        if not _gram_rows_are_class_sums(gc, i, vertices):
            faults.append(f"(c) W_{i}^T W_{i} != sum_h [D-h,{i}]_q A_h")
        elif not _gram_spans_partial_sum(ss, i, apply_idempotent):
            faults.append(f"(c) F'_{i} != G Q_{i}(G) for G = W_{i}^T W_{i}")
        ranks.append(rows if len(faults) == found else None)
    # F'_D = I
    if unit_sum:
        ranks.append(gc.n_vertices)
    else:
        ranks.append(None)
        faults.append(f"F'_{d} != I")
    return ranks, faults


def _gram_rows_are_class_sums(gc: GraphContext, i: int, vertices: np.ndarray) -> bool:
    """Rows `vertices` of W_i^T W_i = sum_h [D-h, i]_q A_h, class by
    class: a pair at distance h meets in dimension D - h, which holds
    [D-h, i]_q i-subspaces."""
    d = gc.d
    classes = np.array([q_binomial(d - h, i, gc.q) for h in range(d + 1)], dtype=np.int64)
    for blk, gram in gc.gram_rows(i, vertices):
        row = gc.distances(vertices[blk])
        if not ((row >= 0) & (row <= d)).all() or not (gram == classes[row]).all():
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
    vectors are.  `structure_constants` verifies each product A_1 A_g to
    equal sum_h L[h][g] A_h, on its representative rows (its docstring
    carries the proof), so applying L is exact multiplication by A_1, and applying a polynomial P(L) is exact
    multiplication by P(A_1).  Hence:

    - the minimal polynomial prod_i (A_1 - theta_i I) vanishes iff the
      product of (L - theta_i) applied to the vector of A_0 is zero;
    - E_i = P_i(A_1) with P_i the Lagrange polynomial of theta_i, its
      vector is P_i(L) applied to that of A_0, and E_i M for any M in
      the algebra is P_i(L) applied to the vector of M, which gives
      idempotency (E_i E_i = E_i) and orthogonality (E_i E_j = 0).
      Each P_i(L) is built once, an integer matrix over one integer
      denominator (`_lagrange_numerators`).

    Only closure under A_1 is used; `structure_constants` explains why
    the whole span is closed.  The idempotents are then checked for
    unit sum, E_0 = J/|X| and reconstruction of A_1; multiplicities are
    their traces.

    Rank certificate.  The inclusion matrices tie the traces to row
    spaces.  For 0 <= i < D let W_i be the [N,i]_q x |X| 0/1 matrix of
    the i-subspaces u in the vertices y (u in y), F'_i = E_0 + ... +
    E_i, and G_i = W_i^T W_i.

    - (a) W_i has [N,i]_q rows and full row rank over Q, so W_i^T is
      injective.  It is not evaluated by an elimination: rank W_i >=
      rank F'_i by (c), and rank F'_i = tr F'_i, the exact trace, which
      must equal [N,i]_q.  Its premises are the structure constants
      (L acts as A_1, and A_0 = I), `idempotency` and `orthogonality`.
    - (b) F'_i W_i^T = W_i^T, so col(W_i^T) lies in col(F'_i).  It is
      not evaluated: it follows from (c) once the idempotents sum to I,
      which is checked.
    - (c) G_i = sum_h [D-h, i]_q A_h entry by entry, read on the
      representative rows, so G_i lies in the algebra; and F'_i =
      G_i Q_i(G_i) on coefficient vectors, Q_i interpolating 1/lambda on
      the nonzero eigenvalues of G_i.  So col(F'_i) lies in col(G_i),
      which is col(W_i^T).

    `_inclusion_certificate` carries the proofs of (a) and (b), and (c)
    from the representatives to every row.

    Hence col(F'_i) = col(W_i^T) and rank F'_i = [N,i]_q = m_0 + ... +
    m_i, and the certified multiplicities are
    m_i = [N,i]_q - [N,i-1]_q for i < D and m_D = |X| - [N,D-1]_q, since
    F'_D = I.  They enter `rank_certificate` and its total; a failed
    sub-check leaves the entries it touches uncertified (None), with a
    witness naming (a), (b) or (c).  `partial_ranks` keeps rank F'_i
    for the nucleus.  Kantor (Math. Z. 1972) proves W_i of full rank,
    and Delsarte (JCTA 1976) identifies its row space with
    V_0 + ... + V_i and puts W_i W_i^T in the Bose-Mesner algebra of
    J_q(N, i); the checks above verify these facts on the instance.
    """
    q, n, d = gc.q, gc.n, gc.d
    nv = gc.n_vertices
    theta = eigenvalue_formulas(q, n, d)
    if len(set(theta)) != d + 1:
        raise EigenvalueCollision(f"eigenvalues collide: {theta}")
    cs = CheckSet(f"spectral system q={q} N={n} D={d}")
    L, lcs = gc.L, gc.structure_checks
    cs.extend(lcs)

    def apply_l(coef):
        """L coef: the vector of A_1 M when coef is that of M."""
        return [sum(row[g] * coef[g] for g in range(d + 1)) for row in L]

    ident = [Fraction(1 if h == 0 else 0) for h in range(d + 1)]
    v = ident
    for t in theta:
        v = [a - t * b for a, b in zip(apply_l(v), v)]
    cs.check_true("minimal_polynomial_vanishes", not any(v))

    lagrange = _lagrange_numerators(L, theta)

    def apply_idempotent(i, coef):
        """P_i(L) coef: the vector of E_i M when coef is that of M, one
        integer matrix-vector product over the common denominator."""
        num, den = lagrange[i]
        values, cden = integer_coeffs(coef)
        return [Fraction(sum(a * v for a, v in zip(row, values)), den * cden) for row in num]

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
    # the checks the trace argument of certificate (a) rests on
    trace_premises = {c.name for c in lcs.checks} | {"idempotency", "orthogonality"}
    premises = [c.name for c in cs.failures() if c.name in trace_premises]
    partial, faults = _inclusion_certificate(gc, ss, apply_idempotent, premises)
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
    counts = np.bincount(gc.xrow, minlength=d + 1)
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
            q_power(q, 2 * i + 1 + r + half_minus)
            * q_int(dw - i, q)
            * q_int(n - i - r - t + half_plus, q)
        )
        ci = q_power(q, t) * q_int(i, q) * q_int(i + r - t + half_minus, q)
        b.append(bi)
        c.append(ci)
    if b[dw] != 0:
        raise FalsifiedFact("b_d must vanish")
    if c[0] != 0:
        raise FalsifiedFact("c_0 must vanish")
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
