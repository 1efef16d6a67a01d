"""Test-only geometry oracles on single subspaces, independent of the
table and poset arrays the verifier reads: a Python Gaussian elimination
mod q, point masks from walking every point of a span, dimensions from
point counts and meets from one echelon form of the stacked rows.
Below them, the array span walk and the cover generators that the
verifier replaced, the dense certificate oracles, the whole-matrix
inclusion oracles (the subset test of the vee vectors and the full Gram
product), two patches that corrupt what the verifier reads (every block
of W_i from a corrupted whole W_i, or an edited subspace table), the
step-by-step idempotent application of the spectral system and the
Gauss-Jordan inverse the Krein parameters were once solved with."""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from qgrass import subspaces
from qgrass.grassmann import GraphContext
from qgrass.linalg import row_blocks
from qgrass.subspaces import all_vectors, projective_points


def rref_mod(rows, q: int):
    """Reduced row echelon form over Z/qZ by a Python Gaussian
    elimination.  Returns (rows, pivots) as tuples, with zero rows
    dropped."""
    mat = [[v % q for v in r] for r in rows]
    if not mat:
        return (), ()
    pivots = []
    r = 0
    for c in range(len(mat[0])):
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][c], q - 2, q)
        mat[r] = [(v * inv) % q for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(a - f * b) % q for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return tuple(tuple(mat[i]) for i in range(r)), tuple(pivots)


def vector_index(vec, q: int) -> int:
    """The index sum_i v_i q^i of a vector: its bit in a point mask."""
    return sum((v % q) * q**i for i, v in enumerate(vec))


def span_mask(rows, q: int, n: int) -> int:
    """Point mask of the row span, by walking its points one at a time."""
    points = {(0,) * n}
    for row in rows:
        points = {tuple((a + c * b) % q for a, b in zip(p, row)) for p in points for c in range(q)}
    mask = 0
    for p in points:
        mask |= 1 << vector_index(p, q)
    return mask


@dataclass(frozen=True)
class Subspace:
    """A subspace of F_q^ambient by its reduced echelon rows, with the
    pivots and the point mask of those rows."""

    q: int
    ambient: int
    rows: tuple
    pivots: tuple
    mask: int

    @property
    def dim(self) -> int:
        return len(self.rows)


def subspace(q: int, n: int, rows) -> Subspace:
    """The subspace spanned by arbitrary rows (zero rows allowed)."""
    canon, pivots = rref_mod(rows, q)
    return Subspace(q, n, canon, pivots, span_mask(canon, q, n))


def entries(table) -> list[Subspace]:
    """One Subspace per row of a SubspaceTable, in table order, its rows
    canonicalized and its mask walked by the oracles."""
    return [subspace(table.q, table.ambient, rows) for rows in table.rows.tolist()]


def base_vertex(geometry) -> Subspace:
    """The base vertex x of a GeometryContext."""
    return subspace(geometry.q, geometry.ambient, geometry.x_rows.tolist())


def table_index(table, u) -> int:
    """The index of u in a SubspaceTable, by a linear scan of its rows."""
    return table.rows.tolist().index([list(r) for r in u.rows])


def global_index(pm, u) -> int:
    """The index of u among the subspaces a PosetMatrices materializes."""
    return pm.offsets[u.dim] + table_index(pm.geometry.table(u.dim), u)


def mask_words(mask: int, npoints: int) -> np.ndarray:
    """A point mask as little-endian uint64 words over npoints points."""
    width = 8 * -(-npoints // 64)
    return np.frombuffer(mask.to_bytes(width, "little"), dtype="<u8")


def mask_dim(mask: int, q: int) -> int:
    """Dimension of a subspace from its point mask: the k with q^k
    points.  Any other point count fails."""
    count = mask.bit_count()
    k = 0
    while q**k < count:
        k += 1
    assert q**k == count, f"{count} points is no power of {q}"
    return k


def layer_of(u, x) -> tuple[int, int]:
    """(i, j) of the layer P_{i,j} holding u: i = dim(u meet x) from the
    common points, j = dim u - i."""
    i = mask_dim(u.mask & x.mask, u.q)
    return i, u.dim - i


def cover_kind(u, v, x) -> str:
    """"slash" when the cover u < v grows the meet with x, "backslash"
    when it does not; a pair that is no cover fails."""
    assert v.dim == u.dim + 1 and u.mask & v.mask == u.mask, "not a cover"
    step = layer_of(v, x)[0] - layer_of(u, x)[0]
    assert step in (0, 1), f"meet dimension steps by {step}"
    return "slash" if step else "backslash"


def meet_dim_by_rank(u, v) -> int:
    """dim(u meet v) = dim u + dim v - dim(u + v), the sum's dimension
    the rank of the stacked echelon rows (`rref_mod`)."""
    _rows, pivots = rref_mod(list(u.rows) + list(v.rows), u.q)
    return u.dim + v.dim - len(pivots)


# ---------------------------------------------------------------------------
# the cover generators the verifier replaced: from below, now the
# raising pairs swapped, and from above by walking every point of v


def covers_from_below(lo, hi):
    """Index arrays (a, b) of the covers u_a < v_b between the tables `lo`
    (dimension l) and `hi` (l + 1), generated from below: b = -1 where a
    generated basis is missing from `hi`.

    F_q^N = u + W for W the coordinate subspace on the N - l non-pivot
    columns of u, so the covers of u are u + <p> for p running over one
    representative of each projective point of W: [N - l]_q covers, all
    distinct.  With p's leading entry 1 in column c, subtracting R[c] p
    from every echelon row R of u clears column c and keeps u's pivot
    columns and leading zeros (p vanishes on the pivots and before c),
    so those rows with p slotted in at its pivot position are the
    reduced echelon basis of u + <p>, found in `hi` by binary search.
    """
    q, n, l = lo.q, lo.ambient, lo.dim
    pts = projective_points(q, n - l)
    npts = len(pts)
    lead_at = (pts != 0).argmax(axis=1)
    acc = np.min_scalar_type(q * q)
    found = []
    for blk in row_blocks(len(lo), npts * (l + 1) * n):
        rows, piv = lo.rows[blk], lo.pivots[blk]
        c = len(rows)
        at, kt = np.arange(c)[:, None, None], np.arange(npts)[None, :, None]
        free = np.ones((c, n), dtype=bool)
        free[np.arange(c)[:, None], piv] = False
        cols = np.nonzero(free)[1].reshape(c, n - l)
        p = np.zeros((c, npts, n), dtype=rows.dtype)
        p[at, kt, cols[:, None, :]] = pts
        lead = cols[:, lead_at]
        coef = rows[at, np.arange(l)[None, None, :], lead[:, :, None]].astype(acc)
        reduced = (rows[:, None].astype(acc) + (q - coef)[..., None] * p[:, :, None, :]) % q
        pos = (piv[:, None, :] < lead[..., None]).sum(axis=2)
        new = np.empty((c, npts, l + 1, n), dtype=rows.dtype)
        new[at, kt, np.arange(l) + (np.arange(l) >= pos[..., None])] = reduced
        new[at[..., 0], kt[..., 0], pos] = p
        found.append(hi.find_rows(new.reshape(c * npts, l + 1, n)))
    return np.repeat(np.arange(len(lo)), npts), np.concatenate(found)


def span_points(coeffs: np.ndarray, rows: np.ndarray, q: int) -> np.ndarray:
    """Vector indices of the combinations coeffs @ rows mod q: entry
    (r, c) is the index of sum_i coeffs[c, i] rows[r, i], for rows of
    shape (count, l, N) and coeffs of shape (s, l).  The product runs in
    the smallest unsigned type that holds l (q-1)^2, so no entry wraps
    before the reduction mod q."""
    l, n = rows.shape[1], rows.shape[2]
    acc = np.min_scalar_type(max(l, 1) * (q - 1) ** 2)
    vecs = np.matmul(coeffs.astype(acc), rows.astype(acc)) % q
    powers = q ** np.arange(n, dtype=np.min_scalar_type(q**n - 1))
    return vecs @ powers


def pack_points(points: np.ndarray, npoints: int) -> np.ndarray:
    """Rows of vector indices as packed uint64 point masks: bit p of row
    r is set when p appears in points[r]."""
    rows = len(points)
    bits = np.zeros((rows, 64 * -(-npoints // 64)), dtype=bool)
    bits[np.arange(rows)[:, None], points] = True
    return np.packbits(bits, axis=1, bitorder="little").view("<u8")


def span_words(rows: np.ndarray, q: int) -> np.ndarray:
    """Packed point masks of the row spans of `rows` (count, l, N), from
    walking the q^l points of each span: one product with every
    coefficient vector of F_q^l, in row blocks.  The tables built their
    masks this way before they became ANDs of kernel words."""
    count, l, n = rows.shape
    npoints = q**n
    coeffs = all_vectors(q, l)
    out = np.empty((count, -(-npoints // 64)), dtype=np.uint64)
    for blk in row_blocks(count, max(len(coeffs) * n, 8 * out.shape[1])):
        out[blk] = pack_points(span_points(coeffs, rows[blk], q), npoints)
    return out


def covers_from_above_by_spans(lo, hi):
    """Index arrays (b, a) of the covers w_a < v_b, generated from above
    by spans: a = -1 where a generated point set is missing from `lo`.

    Write the points of v as c R over the coefficient vectors c of
    F_q^(l+1), R the echelon rows of v.  The hyperplanes of v are the
    kernels of the [l+1]_q nonzero functionals f up to scalars, and
    kernel f holds the points c R with f . c = 0, so its mask packs
    those q^l points; distinct functionals give distinct kernels.  Each
    mask is found in `lo` by binary search over its sorted masks.
    """
    q, n, k = hi.q, hi.ambient, hi.dim
    coeffs = all_vectors(q, k)
    funcs = projective_points(q, k)
    acc = np.min_scalar_type(max(k, 1) * (q - 1) ** 2)
    values = coeffs.astype(acc) @ funcs.T.astype(acc) % q
    kernels = np.nonzero(values.T == 0)[1].reshape(len(funcs), -1)
    npoints = q**n
    width = len(funcs) * (kernels.shape[1] + 8 * hi.words.shape[1]) + len(coeffs) * n
    found = []
    for blk in row_blocks(len(hi), width):
        points = span_points(coeffs, hi.rows[blk], q)[:, kernels]
        found.append(lo.find_masks(pack_points(points.reshape(-1, kernels.shape[1]), npoints)))
    return np.repeat(np.arange(len(hi)), len(funcs)), np.concatenate(found)


# ---------------------------------------------------------------------------
# dense certificate oracles: plain int64 products of whole arrays, coded
# apart from the representative rows that the verifier reads


def gaussian_binomial(m: int, k: int, q: int) -> int:
    """[m, k]_q by the product formula; 0 when k < 0 or k > m."""
    if not 0 <= k <= m:
        return 0
    num = den = 1
    for j in range(k):
        num *= q ** (m - j) - 1
        den *= q ** (j + 1) - 1
    return num // den


def dense_adjacency(gc) -> np.ndarray:
    """y ~ z when (W_{D-1}^T W_{D-1})[y, z] = 1 and y != z, from one int64
    product of the whole inclusion matrix."""
    w = gc.inclusion(gc.d - 1).astype(np.int64)
    adj = w.T @ w == 1
    np.fill_diagonal(adj, False)
    return adj


def containment_vectors(gc, words: np.ndarray) -> np.ndarray:
    """Vee vectors by a subset test: row a is the 0/1 indicator of the
    vertices whose point words hold every bit of words[a]."""
    vwords = gc.vertices.words
    return np.array(
        [((vwords & aw) == aw).all(axis=1) for aw in words], dtype=bool
    ).reshape(len(words), gc.n_vertices)


def gram_rows_by_product(gc, i: int, rows) -> np.ndarray:
    """Rows `rows` of W_i^T W_i from one int64 product of the whole W_i,
    held sparse (scipy.sparse, exact in int64 and many times faster
    than a dense integer product at J_2(6,3))."""
    from scipy import sparse

    w = sparse.csr_array(gc.inclusion(i), dtype=np.int64)
    return (w.T[rows] @ w).toarray()


def patch_inclusion(mp, corrupt) -> None:
    """Patch `GraphContext.inclusion` so that every block it returns is
    read from corrupt(gc, i, w), w the whole W_i: its rows `rows` and
    columns `cols`, each all when None, as the accessor selects them."""
    real = GraphContext.inclusion

    def inclusion(gc, i, rows=None, cols=None):
        w = corrupt(gc, i, real(gc, i))
        w = w if rows is None else w[rows]
        return w if cols is None else w[:, cols]

    mp.setattr(GraphContext, "inclusion", inclusion)


def subspace_table(q: int, n: int, dim: int, cap=subspaces.DEFAULT_TABLE_CAP):
    """The table of dim-subspaces of F_q^n, as a `GeometryContext` builds
    it, from the kernel words of F_q^n (read when it is called)."""
    return subspaces.enumerate_subspaces(
        q, n, dim, cap, kernels=lambda: subspaces.kernel_words(q, n)
    )


def patch_table(mp, dim, edit) -> None:
    """Patch the enumeration so that the table of dim-subspaces is built
    from edit(rows), rows the reduced echelon bases of the true table in
    its order; a drop or duplicate changes W_dim's row count."""
    real = subspaces.enumerate_subspaces

    def enumerate_subspaces(q, ambient, k, *args, **kwargs):
        table = real(q, ambient, k, *args, **kwargs)
        if k != dim:
            return table
        return subspaces.SubspaceTable(q, ambient, k, edit(table.rows), kwargs["kernels"]())

    mp.setattr(subspaces, "enumerate_subspaces", enumerate_subspaces)


def rank_over_q(m) -> int:
    """Rank over Q of an integer array, by fraction-free Gaussian
    elimination in Python ints, each updated row divided by its gcd."""
    rows = [[int(v) for v in row] for row in np.asarray(m)]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][c]:
                new = [top[c] * a - rows[r][c] * b for a, b in zip(rows[r], top)]
                g = math.gcd(*new)
                rows[r] = [v // g for v in new] if g else new
        rank += 1
    return rank


def dense_certificate_verdicts(gc, ss) -> dict:
    """Verdicts of certificates (a), (b) and (c) for each i < D and of
    the edge premise, each from the whole arrays:
    (a) the exact rank of W_i over Q is its row count (`rank_over_q`);
    (b) F'_i W_i^T = W_i^T, with F'_i = M / den from `class_numerator`,
    an int64 product;
    (c) W_i^T W_i = sum_h [D-h, i]_q A_h, entry by entry, int64;
    edges: `dense_adjacency` equals dist == 1."""
    d, dist = gc.d, gc.distances(slice(None))
    in_range = bool(((dist >= 0) & (dist <= d)).all())
    a, b, c = [], [], []
    for i in range(d):
        w = gc.inclusion(i).astype(np.int64)
        a.append(rank_over_q(w) == len(w))
        m, den = ss.class_numerator(ss.partial_coeffs(i))
        b.append(bool((m.astype(np.int64) @ w.T == den * w.T).all()))
        lut = np.array([gaussian_binomial(d - h, i, gc.q) for h in range(d + 1)])
        c.append(in_range and bool((w.T @ w == lut[np.clip(dist, 0, d)]).all()))
    edges = bool((dense_adjacency(gc) == (dist == 1)).all())
    return {"a": a, "b": b, "c": c, "edges": edges}


def idempotent_by_steps(L, theta, i: int, coef):
    """P_i(L) coef, the vector of E_i M when coef is that of M, as the
    spectral system once applied it: D Fraction steps, each one product
    with L, then the shift by theta_j and the scale 1/(theta_i - theta_j)
    for every j != i."""
    for j, tj in enumerate(theta):
        if j == i:
            continue
        lc = [sum(row[g] * coef[g] for g in range(len(coef))) for row in L]
        scale = Fraction(1, theta[i] - tj)
        coef = [(a - tj * b) * scale for a, b in zip(lc, coef)]
    return coef


def invert_fraction_matrix(rows: list[list]) -> list[list[Fraction]]:
    """Exact inverse of a small square matrix by Gauss-Jordan over
    Fractions, as `krein_parameters` once inverted the coefficient matrix
    of the idempotents.  Raises ArithmeticError when singular."""
    n = len(rows)
    aug = [[Fraction(v) for v in row] + [Fraction(1 if i == j else 0) for j in range(n)]
           for i, row in enumerate(rows)]
    for c in range(n):
        p = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if p is None:
            raise ArithmeticError("singular matrix")
        aug[c], aug[p] = aug[p], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [v * inv for v in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def q_identities_by_fractions(l_max: int, q: int):
    """The q-identity suite as `qarith.verify_q_identities` ran before
    its integer table: a fresh `q_binomial` call per term (looked up on
    the module, so a monkeypatched one is seen) and the shifted sum in
    Fractions."""
    from qgrass import qarith
    from qgrass.report import CheckSet

    binom = lambda l, j: qarith.q_binomial(l, j, q)  # noqa: E731
    half = lambda j: j * (j - 1) // 2  # noqa: E731
    cs = CheckSet(f"q-identities q={q} l_max={l_max}")

    bad = None
    for l in range(0, l_max + 1):
        for j in range(0, l + 1):
            if l == 0 and j == 0:
                continue
            lhs = binom(l, j)
            rhs = q**j * binom(l - 1, j) + binom(l - 1, j - 1)
            if lhs != rhs:
                bad = f"l={l} j={j}: {lhs} != {rhs}"
                break
        if bad:
            break
    cs.check("pascal_recurrence", None, bad, witness=bad)

    bad = None
    for l in range(0, l_max + 1):
        total = sum((-1) ** j * q ** half(j) * binom(l, j) for j in range(l + 1))
        if total != (1 if l == 0 else 0):
            bad = f"l={l}: sum={total}"
            break
    cs.check("alternating_sum", None, bad, witness=bad)

    bad = None
    for l in range(2, l_max + 1):
        total = sum(
            (-1) ** j * Fraction(q) ** (half(j) - j) * binom(l, j) for j in range(l + 1)
        )
        if total != 0:
            bad = f"l={l}: sum={total}"
            break
    cs.check("alternating_sum_shifted", None, bad, witness=bad)

    cs.record("l_max", l_max)
    cs.record("q", q)
    return cs


def actions_by_dense_adjacency(ss, fam):
    """The four identities of `nucleus.verify_actions` as it checked them
    before it read one column per sphere: every column, with the A side
    one 0/1 product of the dense |X| x |X| `dist == 1` with both
    families, and as witness the last alpha whose row differs anywhere.
    The coefficient matrices come from `nucleus._action_coefficients`
    (looked up on the module, so a monkeypatched one is seen)."""
    import math

    from qgrass import nucleus
    from qgrass.linalg import exact_int_product
    from qgrass.report import CheckSet

    gc = ss.gc
    nv, p, dims = gc.n_vertices, len(fam.dims), fam.dims
    coeffs = nucleus._action_coefficients(ss, fam)
    values = [*ss.theta_star, *np.concatenate([c.ravel() for c in coeffs])]
    den = math.lcm(*(v.denominator for v in values))

    def integral(arr):
        return np.array([int(den * v) for v in arr.ravel().tolist()], dtype=object).reshape(
            arr.shape
        )

    both = np.concatenate([fam.vee, fam.meet])
    adj = integral(exact_int_product(gc.distances(slice(None)) == 1, both.T, nv).T)
    star = integral(np.array(ss.theta_star, dtype=object))[gc.xrow]
    identities = [
        ("adjacency_on_vee", adj[:p], coeffs[0], fam.vee),
        ("adjacency_on_meet", adj[p:], coeffs[1], fam.meet),
        ("dual_adjacency_on_meet", np.where(fam.meet, star, 0), coeffs[2], fam.meet),
        ("dual_adjacency_on_vee", np.where(fam.vee, star, 0), coeffs[3], fam.vee),
    ]
    cs = CheckSet(f"operator actions q={gc.q} N={gc.n} D={gc.d}")
    for name, lhs, c, family in identities:
        rhs = exact_int_product(integral(c), family, p)
        bad = np.flatnonzero((lhs != rhs).any(axis=1))
        witness = f"dim {dims[bad[-1]]} alpha #{bad[-1]}" if bad.size else None
        cs.check_true(name, not bad.size, witness)
    return cs
