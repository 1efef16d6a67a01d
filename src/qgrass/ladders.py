"""Ladder operators on the subspace poset relative to the base vertex.

The full poset of subspaces of F_q^N splits into layers P_{i,j}: the
subspaces u with dim(u meet x) = i and dim u = i + j.  A cover u < v
either grows the meet with x (slash) or not (backslash), and the two
cover relations give two independent lowering operators L1, L2 with
raising partners R1, R2 and grading operators K1, K2 whose diagonal
entries are half-integer powers of q.  The cover relation is generated
once per pair of consecutive dimensions, from above (the hyperplanes of
each v, each mask v's words AND one row of the geometry's kernel words,
`GeometryContext.kernels`, matched to the table below by one sort),
and certified: every pair by a subset test on packed point masks and
every element by the closed-form number of its covers of each kind.  Its pairs w < v are the raising pairs (R1, R2, split by a bit
test) and, swapped, the lowering pairs (L1, L2 and the plain cover
matrix, split by meet dimensions); the two are compared as transposes
and the plain cover matrix must split exactly as L1 + L2.

Every operator is a 0/1 matrix on the m materialized subspaces, held as
its pair set: the sorted, distinct int64 keys row * m + col of its
nonzero entries (`pair_keys`), so each matrix identity is an identity of
sorted integer arrays.  The layer projections E*_{i,j} are diagonal and
kept as their 0/1 diagonals.  K1 and K2 are kept as exponent vectors
because their entries live in Z[q^(1/2), q^(-1/2)].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FalsifiedFact, InvalidType
from .linalg import row_blocks
from .qarith import SqrtQScalar, q_binomial, q_int
from .report import CheckSet
from .subspaces import (
    GeometryContext,
    SubspaceTable,
    count_dims,
    find_sorted,
    projective_points,
)


def pair_keys(rows, cols, m: int) -> np.ndarray:
    """The pair set of the 0/1 matrix on m elements with ones at (rows[k],
    cols[k]): its sorted, distinct int64 keys row * m + col, so a pair
    generated twice counts once.  Duplicates go by a neighbour mask after
    the sort; np.unique takes a slower hash path for int64 under numpy 2.4."""
    keys = np.sort(np.asarray(rows, dtype=np.int64) * m + cols)
    keep = np.ones(keys.size, dtype=bool)
    keep[1:] = keys[1:] != keys[:-1]
    return keys[keep]


@dataclass
class PosetMatrices:
    """Layer data and ladder operators on the materialized subspaces.
    L1, L2, R1, R2 and cover are pair sets (`pair_keys`) over `size`
    elements; `pairs` turns one back into its row and column arrays."""

    geometry: GeometryContext
    dims: list[int]
    offsets: dict[int, int] = field(repr=False)
    ivec: np.ndarray = field(repr=False)
    jvec: np.ndarray = field(repr=False)
    L1: np.ndarray = field(repr=False)
    L2: np.ndarray = field(repr=False)
    R1: np.ndarray = field(repr=False)
    R2: np.ndarray = field(repr=False)
    cover: np.ndarray = field(repr=False)
    partial: bool = False
    checks: CheckSet = None

    @property
    def size(self) -> int:
        return len(self.ivec)

    def pairs(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row and column arrays (r, c) of a pair set, in key order."""
        rows = keys // self.size  # np.divmod takes about twice as long
        return rows, keys - rows * self.size

    def layer_indicator(self, i: int, j: int) -> np.ndarray:
        return (self.ivec == i) & (self.jvec == j)

    def estar(self, i: int, j: int) -> np.ndarray:
        """The diagonal of E*_{i,j}: the int64 0/1 indicator of layer (i, j)."""
        return self.layer_indicator(i, j).astype(np.int64)

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


def _covers_from_above(lo: SubspaceTable, hi: SubspaceTable, kernels: np.ndarray):
    """Index arrays (b, a) of the covers w_a < v_b, generated from above:
    a = -1 where a generated mask is missing from `lo`.

    The hyperplanes of v are the kernels of the [l+1]_q functionals f on
    its coefficients up to scalars, all distinct.  v's echelon rows R
    hold 1 at their own pivot p_j and 0 at the others, so f . c = g .
    (c R) for g = sum_j f_j e_(p_j): kernel f is v meet ker g, whose mask
    is v's words AND row g of `kernels` (`kernel_words`).

    Lookup certificate.  Counting the pairs (w, v) with w a hyperplane
    of v both ways gives |lo| [N-l]_q = |hi| [l+1]_q, so the generated
    masks, sorted, are the masks of `lo` each repeated [N-l]_q times
    exactly when every w of `lo` is generated [N-l]_q times and nothing
    else is.  One-word masks are matched so, by one argsort of the
    generated keys (`SubspaceTable.match_masks`); where the sorted
    arrays differ, and for masks of more than one word, each mask is
    found in `lo` by binary search (`find_masks`), a miss giving -1.
    Both give the same index for every mask of `lo`.
    """
    q, k, width = hi.q, hi.dim, hi.words.shape[1]
    funcs = projective_points(q, k).astype(np.int64)
    g = (q ** hi.pivots.astype(np.int64)) @ funcs.T
    out = []
    for blk in row_blocks(len(hi), len(funcs) * (2 * width + 1)):
        masks = (hi.words[blk, None, :] & kernels[g[blk]]).reshape(-1, width)
        # a one-word mask is its own key, matched once all are generated
        out.append(masks[:, 0] if width == 1 else lo.find_masks(masks))
    b, out = np.repeat(np.arange(len(hi)), len(funcs)), np.concatenate(out)
    if width > 1:
        return b, out
    found = lo.match_masks(out, q_int(hi.ambient - lo.dim, q))
    return b, lo.find_masks(out[:, None]) if found is None else found


def _keep_covers(lo: SubspaceTable, hi: SubspaceTable, a, b, failures: dict):
    """The generated pairs (a, b) that name two table entries with no
    point of lo[a] outside hi[b], which makes them covers (consecutive
    dimensions).  The first pair that fails fails both kinds."""
    ok = (a >= 0) & (b >= 0)
    ok[ok] = ~(lo.words[a[ok]] & ~hi.words[b[ok]]).any(axis=1)
    if not ok.all():
        k = int(np.flatnonzero(~ok)[0])
        witness = f"from above: pair ({int(a[k])}, {int(b[k])}) of dims {lo.dim}, {hi.dim} is not a cover"
        for kind in failures:
            failures[kind].append(witness)
    return a[ok], b[ok]


def _count_witness(side: str, kind: str, got, want, where) -> str | None:
    bad = np.flatnonzero(where & (got != want))
    if not bad.size:
        return None
    g = int(bad[0])
    return f"{side}: element {g} has {int(got[g])} {kind} pairs, expected {int(want[g])}"


def _ladder_shift_witness(pm: PosetMatrices) -> str | None:
    """The last failing "<label> shift at layer (i,j)" of E*_{i,j} M =
    M E*_{(i,j)+s}, over the layers, then M = L1, L2, R1, R2 with s =
    (1, 0), (0, 1), (-1, 0), (0, -1); None when all hold.  The left side
    keeps the entries (r, c) of M with layer(r) = (i, j), the right those
    with layer(c) - s = (i, j), so layer(r) != layer(c) - s breaks both."""
    d, width = pm.geometry.d, pm.geometry.ambient - pm.geometry.d + 1

    def code(i, j):  # rank in the order of the layers, -1 off them (dims are consecutive)
        l = i + j
        on = (i >= 0) & (i <= d) & (j >= 0) & (j < width) & (l >= pm.dims[0]) & (l <= pm.dims[-1])
        return np.where(on, i * width + j, -1)

    own, failed = code(pm.ivec, pm.jvec), []
    ladders = [("slash lowering", pm.L1, 1, 0), ("backslash lowering", pm.L2, 0, 1),
               ("slash raising", pm.R1, -1, 0), ("backslash raising", pm.R2, 0, -1)]
    for k, (label, keys, di, dj) in enumerate(ladders):
        r, c = pm.pairs(keys)
        left, right = own[r], code(pm.ivec - di, pm.jvec - dj)[c]
        diff = left != right
        failed.append((int(max(left[diff].max(initial=-1), right[diff].max(initial=-1))), k, label))
    last, _k, label = max(failed)
    return None if last < 0 else f"{label} shift at layer ({last // width},{last % width})"


def _operator_checks(pm: PosetMatrices, failures: dict) -> dict[str, tuple[bool, str | None]]:
    """(verdict, witness) of each check on L1, L2, R1, R2 and cover, in
    report order, each one identity of sorted key arrays.  `failures`
    holds the generation failures of each kind; the closed-form cover
    counts per element (a bincount of the rows) are added to them.

    - raising_is_transpose_of_lowering_<kind>: no failure of the kind,
      and the raising keys equal the sorted swapped lowering keys;
    - cover_matrix_splits: the sorted concatenation of the L1 and L2
      keys equals the cover keys, so a pair in both, or a duplicate,
      fails it as an entry 2 of L1 + L2 would;
    - cover_types_disjoint: no L1 key is found in the L2 keys (a binary
      search; np.intersect1d would run np.unique on both first);
    - ladder_support_shifts: `_ladder_shift_witness`.
    """
    q, n, d, m = pm.geometry.q, pm.geometry.ambient, pm.geometry.d, pm.size
    qint = np.array([q_int(k, q) for k in range(n + 1)], dtype=np.int64)
    dimvec = pm.ivec + pm.jvec
    has_up, has_down = dimvec < pm.dims[-1], dimvec > pm.dims[0]
    below = {"slash": qint[d - pm.ivec]}
    below["backslash"] = qint[n - dimvec] - below["slash"]
    above = {"backslash": qint[pm.jvec]}
    above["slash"] = qint[dimvec] - above["backslash"]
    out = {}
    for kind, lower, raising in (("slash", pm.L1, pm.R1), ("backslash", pm.L2, pm.R2)):
        found = list(failures[kind])
        for side, keys, want, where in (
            ("from below", lower, below[kind], has_up),
            ("from above", raising, above[kind], has_down),
        ):
            got = np.bincount(keys // m, minlength=m)
            found.append(_count_witness(side, kind, got, want, where))
        witness = next((w for w in found if w), None)
        r, c = pm.pairs(lower)
        ok = witness is None and np.array_equal(raising, np.sort(c * m + r))
        out[f"raising_is_transpose_of_lowering_{kind}"] = (ok, witness)
    split = np.sort(np.concatenate([pm.L1, pm.L2]))
    out["cover_matrix_splits"] = (np.array_equal(pm.cover, split), None)
    out["cover_types_disjoint"] = (not (find_sorted(pm.L2, None, pm.L1) >= 0).any(), None)
    shift_witness = _ladder_shift_witness(pm)
    out["ladder_support_shifts"] = (shift_witness is None, shift_witness)
    return out


def build_poset_matrices(geometry: GeometryContext) -> PosetMatrices:
    """Build the layer projections and ladder operators, with checks.

    When the full poset exceeds the poset cap, only the dimensions D-1,
    D, D+1 are materialized; every relation below restricts
    consistently to that window.

    Proof obligation for the cover relation.  `_covers_from_above` runs
    once for each materialized dimension pair (l, l+1); its pairs w < v
    are the raising pairs (R1, R2) and, swapped, the lowering pairs (L1,
    L2, cover).  They are certified:

    - lookup: each generated mask is named by its index in the table
      below.  One-word masks are matched by one sort: the sorted
      generated masks equal the table's distinct masks each repeated
      [N-l]_q times, which double counting predicts, so every mask is a
      table entry and the sort gives its index.  Otherwise, and for
      longer masks, each is found by binary search, a miss giving -1
      (`_covers_from_above`);
    - inclusion: every generated pair passes a subset test on the two
      point masks, so it is a cover (consecutive dimensions); a pair
      that fails, or names a subspace missing from its table, is
      dropped and fails the certificate;
    - completeness from above: every v of dimension l + 1 in layer
      (i, j) above a materialized layer has [j]_q backslash hyperplanes
      (those containing v meet x) and [l+1]_q - [j]_q slash ones, and
      no others.  A relation of distinct true covers with those counts
      at every such v is the whole cover relation of that kind, so the
      swapped pairs are the whole lowering relation and need no second
      generator;
    - counts from below: every u of dimension l with meet dimension i
      below a materialized layer has [D-i]_q distinct slash covers
      (u + <y>, y in x outside u) and [N-l]_q - [D-i]_q backslash ones.
      Given completeness this checks the meet dimensions, and a pair
      lost before the split leaves both of its ends short.

    A failed certificate of a kind fails the transpose check of that
    kind, with the first failure as witness.  The slash kind is read
    from the meet dimensions (ivec) for the lowering pairs and from a
    bit test (v meets x in a point outside w) for the raising ones, so
    the transpose checks compare two independent classifications of the
    one relation.  Every step is linear in the number of subspaces and
    covers, up to the sorting of the lookups and of the pair keys.
    """
    q, n, d = geometry.q, geometry.ambient, geometry.d
    total = geometry.poset_size()
    partial = total > geometry.poset_cap
    dims = [d - 1, d, d + 1] if partial else list(range(n + 1))
    tables = {l: geometry.table(l) for l in dims}
    offsets = {}
    m = 0
    for l in dims:
        offsets[l] = m
        m += len(tables[l])
    x_words = geometry.x_words[0]
    # i = dim(u meet x) from the common point count q^i
    meet_dims = count_dims(q, d)
    ivec = np.concatenate([
        meet_dims(np.bitwise_count(tables[l].words & x_words).sum(axis=1)) for l in dims
    ])
    dimvec = np.concatenate([np.full(len(tables[l]), l) for l in dims])
    jvec = dimvec - ivec

    failures = {"slash": [], "backslash": []}
    lo, hi, up_slash = [], [], []
    kernels = geometry.kernels
    for l in dims[:-1]:
        t_lo, t_hi = tables[l], tables[l + 1]
        b, a = _covers_from_above(t_lo, t_hi, kernels)
        w, v = _keep_covers(t_lo, t_hi, a, b, failures)
        del a, b
        lo.append(offsets[l] + w)
        hi.append(offsets[l + 1] + v)
        up_slash.append((t_hi.words[v] & x_words & ~t_lo.words[w]).any(axis=1))
    lo, hi, up_slash = (np.concatenate(v) for v in (lo, hi, up_slash))
    # a cover grows the meet with x by one (slash) or not (backslash)
    step = ivec[hi] - ivec[lo]
    if not ((step == 0) | (step == 1)).all():
        raise FalsifiedFact("cover meet dimensions violate the cover dichotomy")

    pm = PosetMatrices(
        geometry=geometry,
        dims=dims,
        offsets=offsets,
        ivec=ivec,
        jvec=jvec,
        L1=pair_keys(lo[step == 1], hi[step == 1], m),
        L2=pair_keys(lo[step == 0], hi[step == 0], m),
        R1=pair_keys(hi[up_slash], lo[up_slash], m),
        R2=pair_keys(hi[~up_slash], lo[~up_slash], m),
        cover=pair_keys(lo, hi, m),
        partial=partial,
    )
    # the checks below peak on their own temporaries
    del lo, hi, up_slash, step

    cs = CheckSet(f"ladder operators q={q} N={n} D={d}" + (" (partial)" if partial else ""))
    layers = [
        (i, j)
        for i in range(d + 1)
        for j in range(n - d + 1)
        if i + j in offsets
    ]
    indicators = {(i, j): pm.layer_indicator(i, j) for i, j in layers}
    # E*_{i,j} = diag(indicator): sum I when each element is in one layer
    layers_of = sum(indicators.values())
    cs.check_true("layer_projections_sum_to_identity", (layers_of == 1).all())
    for name, (ok, witness) in _operator_checks(pm, failures).items():
        cs.check_true(name, ok, witness)
    cs.check_true("layer_projections_pairwise_orthogonal", (layers_of <= 1).all())

    counts = {f"{i},{j}": int(indicators[(i, j)].sum()) for i, j in layers}
    expected = {
        f"{i},{j}": q_binomial(d, i, q) * q ** ((d - i) * j) * q_binomial(n - d, j, q)
        for (i, j) in layers
    }
    cs.check("layer_sizes_product_formula", expected, counts)
    # each projection is a 0/1 diagonal, so its rank is its trace
    ranks = {f"{i},{j}": int(pm.estar(i, j).sum()) for i, j in layers}
    cs.check("layer_projection_ranks_match_sizes", expected, ranks)
    cs.record("layer_sizes", counts)

    xg = offsets[d] + geometry.x_index
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
