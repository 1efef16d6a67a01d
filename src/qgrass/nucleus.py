"""The nucleus of a base vertex and its two explicit bases.

For the base vertex x of J_q(N, D), the i-th piece of the nucleus is
N_i = B_i meet F_i V: the vectors supported within distance i of x
(the ball B_i) that lie in the span F_i V of the first D - i + 1
primitive idempotents, F_i = E_0 + ... + E_{D-i}.  Once the spectral
certificate shows F_i V to be the row space of the inclusion matrix
W_{D-i}, each piece is the image under W_{D-i} of the kernel of its
columns off the ball: the rows of W_{D-i} whose vertices all lie in
B_i when a rank mod p shows the other rows independent ("squeeze"),
and an exact nullspace times W_{D-i} otherwise ("kernel", as at the
boundary N = 2D).  Away from the boundary the dimensions are the Gaussian
binomials binom(D, i)_q, and the sum of the pieces is direct.

Two vector families indexed by the subspaces of x span the same space:
the vee vector of alpha indicates the vertices containing alpha, and
the meet vector of alpha indicates the vertices whose meet with x is
exactly alpha.  The module verifies the triangular change of basis
between them, the exact action of the adjacency and dual adjacency
matrices on both families, and the fiber structure of the distance
spheres around x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .grassmann import GraphContext, SpectralSystem, integer_coeffs
from .linalg import (
    component_labels,
    exact_int_product,
    in_span,
    int_operand,
    nullspace,
    pack_words,
    rank_exact,
    rank_mod_prime,
    row_blocks,
    span_rank,
)
from .qarith import q_binomial, q_int, q_power
from .report import CheckSet


def containment_vectors(gc: GraphContext, words: np.ndarray) -> np.ndarray:
    """Vee vectors: row a is the 0/1 indicator of the vertices containing
    the subspace with point words words[a], by a subset test of those
    words against the vertex words."""
    vwords = gc.vertices.words
    return np.array(
        [((vwords & aw) == aw).all(axis=1) for aw in words], dtype=bool
    ).reshape(len(words), gc.n_vertices)


@dataclass
class NucleusResult:
    gc: GraphContext
    # one integer array per piece N_i (int64, or Python ints past the
    # product guard), its rows a basis
    bases: list[np.ndarray]
    dims: list[int]
    estar_dims: list[int]
    e_dims: list[int]
    mult_r: list[int]
    boundary: bool
    # how each piece was found: "base_vertex" for N_0, "squeeze" or
    # "kernel" (`_inclusion_piece`), or "bareiss" when the spectral
    # checks fail
    paths: list[str]
    checks: CheckSet = field(repr=False)

    @property
    def dimension(self) -> int:
        return sum(self.dims)

    def combined_basis(self) -> np.ndarray:
        return np.concatenate(self.bases)


def compute_nucleus(ss: SpectralSystem) -> NucleusResult:
    """Compute every piece of the nucleus and verify its structure.

    Away from the boundary N = 2D the dimension claims are asserted; at
    the boundary they are recorded instead.

    Proof obligation for the pieces.  Write F_i = E_0 + ... + E_{D-i},
    B_i for the vertices within distance i of x, and W = W_{D-i} for the
    [N,D-i]_q x |X| inclusion matrix.  When the spectral checks pass,
    the rank certificate of `spectral_system` holds for F_i = F'_{D-i}:
    col(F_i) = col(W^T) by (b) and (c), and W has full row rank by (a),
    derived from (c) and the exact trace of F_i.  So rank F_i =
    [N,D-i]_q, the eigenspace-side rank, and W^T is injective.  A
    vector of col(F_i) is W^T c for exactly one c, and it lies in B_i
    exactly when W^T c vanishes on the vertices outside B_i.
    With `off` the columns of W outside B_i, that is

        N_i = {W^T c : off^T c = 0} = W^T ker(off^T),
        dim N_i = dim ker(off^T).

    `_inclusion_piece` returns this image.  A row u of `off` that is
    zero (a "free" row: every vertex over u lies in B_i) gives e_u in
    ker(off^T).  The kernel has dimension [N,D-i]_q - rank_Q(off), and
    rank_Q(off) is the rank of the non-free rows.  A rank over F_p is
    never above the rank over Q, so when the non-free rows have full
    rank mod p they are independent over Q, the kernel has dimension
    the number of free rows, and the e_u span it: the free rows of W
    are a basis of N_i ("squeeze").  Otherwise the exact nullspace K of
    off^T is computed, certified mod p by `certified_kernel` (Bareiss
    elimination when the certificate fails), and K W is a basis
    ("kernel"), since W^T is injective.  N_0 is the base vertex
    indicator, since F_0 is the identity.  For i = D, W_0 is the
    all-ones row and no vertex lies outside B_D, so the formula gives
    the constants.

    Every shortcut rests on the spectral checks, so when any of them
    fails every piece past N_0 is the exact nullspace of M_i, the
    |X| x |B_i| integer matrix den (I - F_i) on the columns of B_i, with
    F_i = Fnum / den ("bareiss"): a vector supported in B_i lies in N_i
    exactly when its restriction to B_i lies in ker M_i, and the
    eigenspace-side rank is the exact rank of Fnum.  That nullspace is
    certified mod p by `nullspace` (Bareiss elimination when the
    certificate fails); the path keeps its name.  The dense Fnum is
    built only on this fallback.

    The layer dimensions on the eigenspace side are the ranks of
    E_r B^T, B the combined basis (p rows).  When the spectral checks
    pass they are read from the p x p matrices B E_r B^T
    (`layer_grams`): E_r = P_r(A_1) is a polynomial in the symmetric A_1,
    so it is real and symmetric, and it is idempotent (checked), so with
    M = E_r B^T, M^T M = B E_r^T E_r B^T = B E_r B^T, and over the reals,
    hence over Q, rank(M^T M) = rank(M).  Scaling E_r by its
    denominator keeps the rank.  When a spectral check fails, the images
    E_r B^T themselves are formed, each one exact product of the dense
    numerator of E_r (`SpectralSystem.idempotent_numerator`) with B^T,
    as the pieces of that path already read dense numerators.
    Every exact rank here (the sum of the pieces, both kinds of layer
    dimensions) is certified mod p by `certified_kernel`, with Bareiss
    elimination as the fallback.
    """
    gc = ss.gc
    q, n, d = gc.q, gc.n, gc.d
    nv = gc.n_vertices
    cs = CheckSet(f"nucleus q={q} N={n} D={d}")
    xrow = gc.xrow
    premise = ss.checks.ok

    base_vertex = np.zeros((1, nv), dtype=np.int64)
    base_vertex[0, gc.x_index] = 1
    bases = [base_vertex]
    paths = ["base_vertex"]
    for i in range(1, d + 1):
        if premise:
            side_rank = ss.partial_ranks[d - i]
            basis, path = _inclusion_piece(gc, i)
        else:
            f_num, den = ss.class_numerator(ss.partial_coeffs(d - i))
            side_rank = rank_exact(f_num)
            ball = np.flatnonzero(xrow <= i)
            m_a = -f_num[:, ball].astype(object)
            m_a[ball, np.arange(ball.size)] += den
            null = nullspace(m_a)
            basis = np.zeros((null.shape[0], nv), dtype=object)
            basis[:, ball] = null
            path = "bareiss"
        cs.check(f"eigenspace_side_rank_{i}", sum(ss.m[: d - i + 1]), side_rank)
        bases.append(basis)
        paths.append(path)
    dims = [b.shape[0] for b in bases]

    expected_dims = [q_binomial(d, i, q) for i in range(d + 1)]
    if not gc.boundary:
        cs.check("piece_dimensions", expected_dims, dims)
    else:
        cs.record("piece_dimensions_expected_generic", expected_dims)
        cs.record("piece_dimensions_observed", dims)

    total = sum(dims)
    cs.check("sum_is_direct", total, span_rank(*bases))
    cs.record("dimension", total)

    # layer dimensions through both kinds of idempotents: the rank of the
    # combined basis cut to each sphere, and of its image under each E_r
    combined = np.concatenate(bases)
    estar_dims = [rank_exact(combined[:, xrow == r]) for r in range(d + 1)]
    if premise:
        images = layer_grams(gc, combined, [integer_coeffs(e)[0] for e in ss.e_coeffs])
    else:
        images = [
            exact_int_product(ss.idempotent_numerator(r)[0], combined.T, nv) for r in range(d + 1)
        ]
    e_dims = [rank_exact(image) for image in images]
    cs.check("layer_dimensions_agree", estar_dims, e_dims)
    if not gc.boundary:
        cs.check(
            "layer_dimensions",
            [q_binomial(d, min(r, d - r), q) for r in range(d + 1)],
            estar_dims,
        )
        cs.check(
            "layer_dimension_symmetry",
            estar_dims,
            estar_dims[::-1],
        )

    # one module of endpoint r per new dimension entering at layer r
    mult_r = []
    prev = 0
    for r in range(d // 2 + 1):
        mult_r.append(estar_dims[r] - prev)
        prev = estar_dims[r]
    cs.check_true("endpoint_multiplicities_nonnegative", all(v >= 0 for v in mult_r))
    cs.check(
        "module_dimensions_fill_nucleus",
        total,
        sum(mult_r[r] * (d - 2 * r + 1) for r in range(len(mult_r))),
    )
    cs.record("endpoint_multiplicities", mult_r)

    return NucleusResult(
        gc=gc,
        bases=bases,
        dims=dims,
        estar_dims=estar_dims,
        e_dims=e_dims,
        mult_r=mult_r,
        boundary=gc.boundary,
        paths=paths,
        checks=cs,
    )


def layer_grams(gc: GraphContext, basis: np.ndarray, coeff_rows) -> list[np.ndarray]:
    """sum_h c[h] (B A_h B^T) for each integer row c of coeff_rows, as
    p x p integer arrays, with B = basis (p rows over X);
    `compute_nucleus` reads den_r B E_r B^T off it.

    Proof obligation.  Entry (a, b) of B A_h B^T is
    sum_{y,z} B[a,y] B[b,z] [dist(y, z) = h].
    - Between two rows that are not constant it needs y and z only in S,
      the union of the supports of those rows, so it is read on S x S:
      the distances on S x S, read from the vertex masks one row block
      of S at a time (`GraphContext.distances`), and per block the class
      (distance == h) times those rows, one packed 0/1 product when they
      are 0/1 on S (every squeeze piece), an exact integer product
      otherwise.
    - A constant row c 1 (the piece i = D) needs no read: A_h 1 = k_h 1,
      so the entry against row a is c k_h (row sum of a).  A_h 1 = k_h 1
      holds once the spectral checks pass: the classes are symmetric
      (every distance is read from a commutative count, `build_graph`),
      A_1 A_h lies in their span, so it is symmetric and A_1 commutes
      with A_h; J = |X| E_0 is a polynomial in A_1
      (`e0_is_all_ones_over_size`), so A_h J = J A_h, and the row sums
      of A_h are all equal, to its row sum at x, the sphere size k_h
      (`sphere_sizes`).
    The combination over h is exact in Python ints."""
    p = basis.shape[0]
    const = (basis == basis[:, :1]).all(axis=1)
    rows = basis[~const]
    support = np.flatnonzero((rows != 0).any(axis=0))
    rows = rows[:, support]
    width = len(support)
    left = int_operand(rows)[0]
    zero_one = ((rows == 0) | (rows == 1)).all()
    right = pack_words(rows.astype(bool)) if zero_one else left.T
    on_support = [[] for _ in range(gc.d + 1)]  # blocks of A_h[S, S] rows^T
    # a packed class holds a bit per pair, an int64 one eight bytes
    for blk in row_blocks(width, width, 1 if zero_one else 8):
        block = gc.distances(support[blk], support)
        for h, parts in enumerate(on_support):
            parts.append(exact_int_product(block == h, right, width))
    sizes = np.bincount(gc.xrow, minlength=gc.d + 1).tolist()
    sums = basis.sum(axis=1).astype(object)
    level = basis[const, 0].astype(object)
    classes = []
    for parts, size in zip(on_support, sizes):
        gram = np.full((p, p), 0, dtype=object)
        gram[np.ix_(~const, ~const)] = exact_int_product(left, np.concatenate(parts), width)
        gram[:, const] = size * np.outer(sums, level)
        gram[np.ix_(const, ~const)] = gram[np.ix_(~const, const)].T
        classes.append(gram)
    return [int_operand(sum(c * g for c, g in zip(row, classes)))[0] for row in coeff_rows]


def _inclusion_piece(gc: GraphContext, i: int) -> tuple[np.ndarray, str]:
    """A basis of N_i = W^T ker(off^T) for W = W_{D-i} and `off` its
    columns outside the ball B_i, with the path that found it; see
    `compute_nucleus` for the proof.  The "kernel" path takes ker(off^T)
    from `nullspace`: certified mod p, or by Bareiss elimination when
    the certificate fails."""
    w = gc.inclusion(gc.d - i)
    off = w[:, gc.xrow > i]
    free = ~off.any(axis=1)
    if rank_mod_prime(off[~free]) == int((~free).sum()):
        return w[free].astype(np.int64), "squeeze"
    kernel = nullspace(off.T)
    return exact_int_product(kernel, w, w.shape[0]), "kernel"


# ---------------------------------------------------------------------------
# the two vector families indexed by subspaces of x


@dataclass
class AlphaFamily:
    """The p subspaces alpha of x as their dimensions, packed point words
    and table entries (`subspaces_of_base`), both families as p x |X|
    0/1 arrays, row a for alpha #a, and the containment order of the
    alphas as a p x p 0/1 matrix: zeta[a, b] when alpha #a is a subspace
    of alpha #b."""

    gc: GraphContext
    dims: np.ndarray
    words: np.ndarray = field(repr=False)
    entries: np.ndarray = field(repr=False)
    by_dim: dict[int, list[int]]
    vee: np.ndarray = field(repr=False)
    meet: np.ndarray = field(repr=False)
    zeta: np.ndarray = field(repr=False)
    h_sizes: list[int] = field(default_factory=list)
    g_sizes: list[int] = field(default_factory=list)
    checks: CheckSet = None


def subspaces_of_base(gc: GraphContext) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dims, words, entries): the dimension, the packed point words and
    the index in the table of its dimension of every subspace of the
    base vertex, ordered by dimension, then by that index, that is by
    its reduced echelon rows.

    A subspace lies in x exactly when none of its points lies outside x,
    so the l-subspaces of x are the entries of the l-subspace table
    whose words have no bit outside x's words.  `build_alpha_family`
    checks their number against the Gaussian binomials."""
    geometry = gc.geometry
    dims, entries = [], []
    for l in range(gc.d + 1):
        table = geometry.table(l)
        inside = np.flatnonzero(~(table.words & ~geometry.x_words).any(axis=1))
        dims.append(np.full(len(inside), l))
        entries.append(inside)
    words = np.concatenate([geometry.table(l).words[e] for l, e in enumerate(entries)])
    return np.concatenate(dims), words, np.concatenate(entries)


def _mobius(zeta: np.ndarray, dims: np.ndarray, q: int) -> np.ndarray:
    """The q-Moebius function of the subspace lattice of x as a p x p
    object matrix: (-1)^g q^(g(g-1)/2), g = dim b - dim a, at every pair
    with alpha #a a subspace of alpha #b, and 0 elsewhere."""
    out = np.full(zeta.shape, 0, dtype=object)
    for a, b in zip(*np.nonzero(zeta)):
        gap = int(dims[b] - dims[a])
        out[a, b] = (-1) ** gap * q ** (gap * (gap - 1) // 2)
    return out


def _check_rows(cs: CheckSet, name: str, lhs: np.ndarray, rhs: np.ndarray, label) -> None:
    """Check an identity of two arrays with one row per alpha; the
    witness is label(a) for the last row a where they differ."""
    bad = np.flatnonzero((lhs != rhs).any(axis=1))
    cs.check_true(name, not bad.size, label(int(bad[-1])) if bad.size else None)


def _alpha_label(a: int) -> str:
    return f"alpha #{a}"


def build_alpha_family(gc: GraphContext) -> AlphaFamily:
    """Indicator vectors of both families, with the counting and
    change-of-basis identities verified on the spot.

    A vertex contains alpha exactly when its meet with x does, so the
    vee vector of alpha is the sum of the meet vectors of the subspaces
    of x over it, vee = zeta meet, and Moebius inversion on the subspace
    lattice of x turns that into meet = mobius vee.
    """
    q, d = gc.q, gc.d
    nv = gc.n_vertices
    dims, words, entries = subspaces_of_base(gc)
    p = len(dims)
    by_dim = {l: np.flatnonzero(dims == l).tolist() for l in range(d + 1)}
    cs = CheckSet(f"alpha family q={q} N={gc.n} D={d}")
    cs.check(
        "alpha_count",
        sum(q_binomial(d, l, q) for l in range(d + 1)),
        p,
    )

    vee = containment_vectors(gc, words)
    # the meet vector of alpha: the vertices y with y meet x = alpha
    vx = gc.vertices.words & gc.geometry.x_words
    meet = np.array([(vx == aw).all(axis=1) for aw in words], dtype=bool).reshape(p, nv)
    h_sizes = vee.sum(axis=1).tolist()
    g_sizes = meet.sum(axis=1).tolist()

    n_, d_ = gc.n, gc.d
    cs.check(
        "containment_counts",
        [q_binomial(n_ - l, d_ - l, q) for l in dims.tolist()],
        h_sizes,
    )
    fiber_expected = []
    for l in dims.tolist():
        # vertices meeting x exactly in alpha: q^((D-l)^2) binom(N-D, D-l)
        fiber_expected.append(q ** ((d_ - l) ** 2) * q_binomial(n_ - d_, d_ - l, q))
    cs.check("fiber_counts", fiber_expected, g_sizes)
    cs.check(
        "fibers_partition_vertices",
        nv,
        sum(g_sizes),
    )

    # triangular relations between the two families
    zeta = ((words[:, None] | words[None, :]) == words[None, :]).all(axis=2)
    _check_rows(
        cs, "vee_expands_over_meets", exact_int_product(zeta, meet, p), vee, _alpha_label
    )
    _check_rows(
        cs,
        "meet_expands_over_vees",
        exact_int_product(_mobius(zeta, dims, q), vee, p),
        meet,
        _alpha_label,
    )

    # the meet vector is the distance-sphere cut of the vee vector
    xrow = gc.xrow
    cut = vee & (xrow[None, :] == d - dims[:, None])
    _check_rows(cs, "meet_is_sphere_cut_of_vee", cut, meet, _alpha_label)

    return AlphaFamily(
        gc=gc,
        dims=dims,
        words=words,
        entries=entries,
        by_dim=by_dim,
        vee=vee,
        meet=meet,
        zeta=zeta,
        h_sizes=h_sizes,
        g_sizes=g_sizes,
        checks=cs,
    )


def transition_matrices(fam: AlphaFamily):
    """The two triangular change-of-basis matrices over the subspace
    poset of x, zeta and its q-Moebius function, verified to be mutually
    inverse."""
    p = len(fam.dims)
    t_vee = fam.zeta.astype(np.int64)
    t_meet = _mobius(fam.zeta, fam.dims, fam.gc.q)
    ident = np.eye(p, dtype=np.int64)
    cs = CheckSet("alpha family transitions")
    cs.check_true(
        "vee_then_meet_is_identity", (exact_int_product(t_vee, t_meet, p) == ident).all()
    )
    cs.check_true(
        "meet_then_vee_is_identity", (exact_int_product(t_meet, t_vee, p) == ident).all()
    )
    return t_vee, t_meet, cs


# ---------------------------------------------------------------------------
# exact operator actions on the two families


def _integral(arr: np.ndarray, den: int) -> np.ndarray:
    """den * arr as an object array of Python ints; den clears every
    denominator in arr."""
    return np.array([int(den * v) for v in arr.ravel().tolist()], dtype=object).reshape(
        arr.shape
    )


def _action_coefficients(ss: SpectralSystem, fam: AlphaFamily) -> list[np.ndarray]:
    """The p x p coefficient matrices C of the four identities op F = C F
    of `verify_actions`, in its order, from the closed forms: object
    arrays of ints and Fractions."""
    gc = ss.gc
    q, n, d = gc.q, gc.n, gc.d
    p = len(fam.dims)
    dims = fam.dims
    # lower[a, b]: alpha #b is a hyperplane of alpha #a.  Two distinct
    # alphas of one dimension meet in a hyperplane of both exactly when
    # they cover a common subspace, which is then their meet.
    lower = fam.zeta.T & (dims[:, None] == dims[None, :] + 1)
    upper = lower.T
    sideways = (
        (exact_int_product(lower, upper, p) > 0)
        & (dims[:, None] == dims[None, :])
        & ~np.eye(p, dtype=bool)
    )

    c_vee, c_meet, c_dual_meet, c_dual_vee = (
        np.full((p, p), 0, dtype=object) for _ in range(4)
    )
    dd = q_int(d, q)
    nd = q_int(n - d, q)
    for a, i in enumerate(dims.tolist()):
        c_vee[a, a] = ss.theta[i]
        c_vee[a, lower[a]] = q_int(d - i + 1, q)
        c_meet[a, a] = q_int(d - i, q) * (q * nd - q_int(d - i, q))
        c_meet[a, upper[a]] = q_power(q, 2 * d - 2 * i - 1) * q_int(n - 2 * d + i + 1, q)
        c_meet[a, sideways[a]] = q_power(q, d - i)
        c_meet[a, lower[a]] = q_int(d - i + 1, q)
        c_dual_meet[a, a] = ss.theta_star[d - i]
        c_dual_vee[a, a] = ss.theta_star[d - i]
        c_dual_vee[a, upper[a]] = Fraction(
            q_power(q, -d + i + 1) * q_int(n, q) * q_int(n - 1, q), dd * nd
        )
    return [c_vee, c_meet, c_dual_meet, c_dual_vee]


def _label_perms(gc: GraphContext, fam: AlphaFamily):
    """(h, p): for each generator of the verified action that fixes x,
    the permutation pi of the alpha labels it induces, read from the
    table permutations: alpha #a of dimension l < D, entry t of
    table(l), goes to the alpha at entry tables[l][g, t], and x stays.
    None under the trivial group, or unless every pi is a bijection of
    the alphas."""
    action = gc.action
    if action is None:
        return None
    p = len(fam.dims)
    perms = np.tile(np.arange(p), (action.fixing, 1))
    for l in range(gc.d):
        alphas = np.array(fam.by_dim[l])
        label = np.full(action.tables[l].shape[1], -1)
        label[fam.entries[alphas]] = alphas
        perms[:, alphas] = label[action.tables[l][: action.fixing][:, fam.entries[alphas]]]
    if (np.sort(perms, axis=1) != np.arange(p)).any():
        return None
    return perms


def _adjacent_counts(gc: GraphContext, words: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(F A)[:, cols] for a 0/1 family F given by the packed words of its
    rows (`pack_words`), one row per alpha: entry (a, j) counts the
    neighbours of vertex cols[j] in the support of row a.  A is
    symmetric, so column y of F A reads row y of the distances only,
    read from the vertex masks one block of cols at a time."""
    nv = gc.n_vertices
    out = np.empty((len(words), len(cols)), dtype=np.int64)
    for blk in row_blocks(len(cols), nv):
        out[:, blk] = exact_int_product(words, (gc.distances(cols[blk]) == 1).T, nv)
    return out


def verify_actions(ss: SpectralSystem, fam: AlphaFamily) -> CheckSet:
    """The four operator identities, asserted with zero residual for
    every subspace of the base vertex.

    Each is one identity of p x |X| arrays, op F = C F, with F a family
    (one row per alpha), op = A or A* acting on the columns, and C a
    p x p coefficient matrix over the subspaces of x, built from the
    closed forms (`_action_coefficients`).  Column y of A F is read from
    row y of the distances (`_adjacent_counts`).  A* is diagonal,
    theta*_h at the vertices at distance h from x, so A* F scales the
    columns of F.
    Both sides are multiplied by den, the least common denominator of
    the coefficients and the theta*, and compared as integers.  The
    witness of a failed identity is the last alpha whose row differs.

    Proof obligation of the columns read.  Let H be the group generated
    by the vertex permutations v of the verified action that fix x
    (`GroupAction.fixing`), and pi the label permutation of each
    (`_label_perms`).  Two premises are checked per generator:
    F[pi][:, v] == F for both families, and C[pi][:, pi] == C for all
    four C.  The action preserves every distance (`_group_action`) and
    fixes x, so op[v][:, v] == op for op = A and A*.  Then the
    residual R = F op - C F obeys R[pi(a), v(y)] = R[a, y]:
    sum_z F[pi a, z] op[z, v y] = sum_z F[pi a, v z] op[v z, v y] =
    (F op)[a, y], and sum_b C[pi a, b] F[b, v y] =
    sum_b C[pi a, pi b] F[pi b, v y] = (C F)[a, y].  So column v(y) of
    R vanishes when column y does, and row pi(a) when row a does.  H has
    one orbit per sphere of x (premise 4), so R = 0 once its columns at
    one vertex per sphere are zero; and the rows of R that are nonzero
    anywhere are the orbit closure, under the pi, of the rows nonzero at
    those columns (R[a, h y] = R[h^-1 a, y]), so the witness is the last
    row of that closure, the row every column names.  Under the trivial
    group, or where a premise fails, every column is read."""
    gc = ss.gc
    q, n, d = gc.q, gc.n, gc.d
    p = len(fam.dims)
    dims = fam.dims
    cs = CheckSet(f"operator actions q={q} N={n} D={d}")
    coeffs = _action_coefficients(ss, fam)
    values = [*ss.theta_star, *np.concatenate([c.ravel() for c in coeffs])]
    den = math.lcm(*(v.denominator for v in values))
    scaled = [int_operand(_integral(c, den))[0] for c in coeffs]
    xrow = gc.xrow

    perms = _label_perms(gc, fam)
    invariant = perms is not None
    if invariant:
        vertex = gc.action.vertex[: gc.action.fixing]
        # pi on the rows of each family, per generator, then on the four
        # p x p coefficient matrices under every generator at once
        stacked = np.stack(scaled)
        invariant = all(
            (f[pi][:, v] == f).all() for pi, v in zip(perms, vertex) for f in (fam.vee, fam.meet)
        ) and bool((stacked[:, perms[:, :, None], perms[:, None, :]] == stacked[:, None]).all())
    if invariant:
        cols = np.unique(xrow, return_index=True)[1]
        orbit = component_labels(p, np.tile(np.arange(p), len(perms)), perms.ravel())
    else:
        cols = np.arange(gc.n_vertices)
        orbit = np.arange(p)

    vee, meet = fam.vee[:, cols], fam.meet[:, cols]
    # den (F A)[:, cols], int64 while its entries, at most k den, fit the
    # product guard
    scale, smax = int_operand(np.array([[den]], dtype=object))
    adj = _adjacent_counts(gc, pack_words(np.concatenate([fam.vee, fam.meet])), cols)
    adj = exact_int_product(adj.reshape(-1, 1), scale, 1, bmax=smax).reshape(2 * p, len(cols))
    star = int_operand(_integral(np.array(ss.theta_star, dtype=object), den))[0][xrow[cols]]
    identities = [
        ("adjacency_on_vee", adj[:p], scaled[0], vee),
        ("adjacency_on_meet", adj[p:], scaled[1], meet),
        ("dual_adjacency_on_meet", None, scaled[2], meet),
        ("dual_adjacency_on_vee", None, scaled[3], vee),
    ]
    for name, lhs, c, family in identities:
        if lhs is None:  # A* F: F with column y scaled by theta*_dist(x, y)
            lhs = np.where(family, star, 0)
        rhs = exact_int_product(c, family, p)
        bad = (lhs != rhs).any(axis=1)
        rows = np.flatnonzero(np.isin(orbit, orbit[bad]))
        witness = f"dim {dims[rows[-1]]} alpha #{rows[-1]}" if rows.size else None
        cs.check_true(name, not rows.size, witness)
    return cs


# ---------------------------------------------------------------------------
# basis verification against the nucleus


def _last_outside(basis: np.ndarray, family: np.ndarray, rows: list[int]):
    """The last of `rows` whose family vector lies outside the row span
    of basis, or None: one rank comparison when all lie inside, then one
    per row, from the last, to name the witness."""
    if in_span(basis, family[rows]):
        return None
    return next(a for a in reversed(rows) if not in_span(basis, family[[a]]))


def verify_bases(nucleus: NucleusResult, fam: AlphaFamily) -> CheckSet:
    gc = nucleus.gc
    d = gc.d
    cs = CheckSet("nucleus bases")
    p = len(fam.dims)
    if nucleus.boundary:
        # away from the boundary the family spans the nucleus; at
        # N = 2D it stays independent and contained but falls short,
        # so the spanning claim is recorded rather than asserted
        cs.record("family_size", p)
        cs.record("nucleus_dimension", nucleus.dimension)
        cs.record("family_spans_nucleus", nucleus.dimension == p)
    else:
        cs.check("family_size_equals_dimension", nucleus.dimension, p)
    cs.check("vee_family_rank", p, span_rank(fam.vee))
    cs.check("meet_family_rank", p, span_rank(fam.meet))

    # the vee vectors of the (D-i)-dimensional alphas lie in piece i
    outside = []
    for i, piece in enumerate(nucleus.bases):
        a = _last_outside(piece, fam.vee, fam.by_dim[d - i])
        if a is not None:
            outside.append(a)
    witness = None
    if outside:
        a = max(outside)
        witness = f"alpha #{a} not in piece {d - fam.dims[a]}"
    cs.check_true("vee_vectors_lie_in_their_piece", not outside, witness)

    last = _last_outside(nucleus.combined_basis(), fam.meet, list(range(p)))
    cs.check_true(
        "meet_vectors_lie_in_nucleus", last is None, None if last is None else f"alpha #{last}"
    )

    _tv, _tm, tcs = transition_matrices(fam)
    cs.extend(tcs)
    return cs


# ---------------------------------------------------------------------------
# sphere fibrations


@dataclass
class GammaReport:
    counts: list[int]
    component_sizes: list[list[int]]
    checks: CheckSet = field(repr=False)


def _components(labels: np.ndarray, members: np.ndarray) -> list[np.ndarray]:
    """members[k] grouped by labels[k], each group in the order of k."""
    if not len(labels):
        return []
    order = np.argsort(labels, kind="stable")
    return np.split(members[order], np.flatnonzero(np.diff(labels[order])) + 1)


def _edge_meets(words: np.ndarray, ka: np.ndarray, kb: np.ndarray) -> np.ndarray:
    """Per edge e, the number of bits set in both words[ka[e]] and
    words[kb[e]]: one popcount of their AND, summed over the words."""
    return np.bitwise_count(words[ka] & words[kb]).sum(axis=1, dtype=np.int64)


def gamma_components(gc: GraphContext, fam: AlphaFamily) -> GammaReport:
    """Components of the distance spheres around x under same-fiber
    edges, compared with the meet-vector fibers.

    Within the sphere at distance i, an edge y ~ z stays in a fiber
    exactly when y and z meet x in the same (D-i)-dimensional subspace;
    those components must be the fibers themselves, each connected, and
    the full sphere at distance D must be connected with all its edges.

    The edges of a sphere are read from the distances on that sphere,
    one row block at a time and above the diagonal only (the distances
    are symmetric, so each edge once), from the vertex masks
    (`GraphContext.distances`).  The points of y meet z meet x are
    the bits set in both inside-x words of y and z, so their number,
    q^dim, is one popcount per edge (`_edge_meets`); no sphere x sphere
    product is formed.

    The labels are merged block by block, so no edge list of a whole
    sphere is held.  Proof obligation: label[y] stays the least vertex
    of y's component under the edges read so far (y itself at the
    start).  `linalg.component_labels` on a block's edges, each end
    replaced by its label, gives each label the least label of its
    merged class, the least vertex of the merged component, and every
    vertex takes the new label of its old one.  The edges across fibers
    of the outer sphere, none when the dichotomy holds, are merged into
    its fiber labels at the end.
    """
    q, d = gc.q, gc.d
    cs = CheckSet(f"sphere fibrations q={q} N={gc.n} D={d}")
    # the packed points of each vertex inside x
    inside_x = gc.vertices.words & gc.geometry.x_words
    xrow = gc.xrow
    counts = []
    sizes_per_i = []
    dichotomy_ok = True

    def merged(labels, a, b):
        return component_labels(len(labels), labels[a], labels[b])[labels]

    for i in range(d + 1):
        sphere = np.flatnonzero(xrow == i)
        rows_x = inside_x[sphere]
        fiber = np.arange(len(sphere))
        # the edges across fibers of the outer sphere, none when the
        # dichotomy holds
        across = [(np.zeros(0, np.intp), np.zeros(0, np.intp))]
        for blk in row_blocks(len(sphere), len(sphere)):
            ka, kb = np.nonzero(gc.distances(sphere[blk], sphere[blk.start :]) == 1)
            ka += blk.start
            kb += blk.start
            keep = ka < kb
            ka, kb = ka[keep], kb[keep]
            meet = _edge_meets(rows_x, ka, kb)
            # the meet of adjacent same-sphere vertices cuts x in
            # dimension D-i (same fiber) or D-i-1, nothing else; the
            # classification is shared by both endpoints by symmetry
            same = meet == q ** (d - i)
            if i < d:
                dichotomy_ok &= bool((same | (meet == q ** (d - i - 1))).all())
            else:
                dichotomy_ok &= bool(same.all())
                across.append((ka[~same], kb[~same]))
            fiber = merged(fiber, ka[same], kb[same])
        comp = _components(fiber, sphere)
        roots = int((fiber == np.arange(len(sphere))).sum())
        counts.append(roots)
        sizes_per_i.append(sorted(len(v) for v in comp))

        # component characteristic vectors must be exactly the meet
        # vectors of the (D-i)-dimensional alphas
        comp_sets = sorted(tuple(v.tolist()) for v in comp)
        meet_sets = sorted(
            tuple(np.flatnonzero(fam.meet[ia]).tolist()) for ia in fam.by_dim[d - i]
        )
        cs.check_true(f"components_match_meet_vectors_{i}", comp_sets == meet_sets)
        cs.check(f"component_count_{i}", q_binomial(d, i, q), roots)
        if i == d:
            ka, kb = (np.concatenate(part) for part in zip(*across))
            full = merged(fiber, ka, kb) if len(ka) else fiber
            cs.check("outer_sphere_connected", 1, int((full == np.arange(len(sphere))).sum()))
    cs.check_true("edge_meets_obey_cover_dichotomy", dichotomy_ok)

    # fiber indicator vectors coincide with the meet vectors
    off_sphere = fam.meet & (xrow[None, :] != d - fam.dims[:, None])
    cs.check_true("fiber_vectors_supported_on_sphere", not off_sphere.any())
    return GammaReport(counts=counts, component_sizes=sizes_per_i, checks=cs)


# ---------------------------------------------------------------------------
# reports


def boundary_case_report(
    ss: SpectralSystem,
    nucleus: NucleusResult,
    fam: AlphaFamily,
    gamma: GammaReport,
    actions: CheckSet,
) -> dict:
    """Report what holds on J_q(2D, D) from its built spectral system,
    nucleus, alpha family, sphere fibrations and the checks of
    `verify_actions` on them; the dimension claims are recorded, not
    asserted, in this regime."""
    gc = ss.gc
    doc = nucleus_report_json(nucleus, fam, gamma)
    doc["boundary"] = True
    doc["nucleus_paths"] = list(nucleus.paths)
    generic = sum(q_binomial(gc.d, i, gc.q) for i in range(gc.d + 1))
    doc["generic_dimension"] = generic
    doc["dimension_matches_generic_formula"] = nucleus.dimension == generic
    doc["build_ok"] = gc.build_checks.ok
    doc["spectral_ok"] = ss.checks.ok
    doc["structure_ok"] = nucleus.checks.ok and fam.checks.ok
    doc["actions_ok"] = actions.ok
    doc["fibration_ok"] = gamma.checks.ok
    return doc


def nucleus_report_json(
    nucleus: NucleusResult, fam: AlphaFamily | None, gamma: GammaReport | None
) -> dict:
    gc = nucleus.gc
    doc = {
        "params": {"q": gc.q, "N": gc.n, "D": gc.d},
        "nucleus_dims": list(nucleus.dims),
        "dimension": nucleus.dimension,
        "mult_r": list(nucleus.mult_r),
        "layer_dims": list(nucleus.estar_dims),
    }
    if gc.boundary:
        doc["boundary"] = True
    if fam is not None:
        doc["family"] = {
            "count": len(fam.dims),
            "containment_sizes": list(fam.h_sizes),
            "fiber_sizes": list(fam.g_sizes),
        }
    if gamma is not None:
        doc["sphere_components"] = [
            {"i": i, "count": gamma.counts[i], "sizes": gamma.component_sizes[i]}
            for i in range(len(gamma.counts))
        ]
    return doc
