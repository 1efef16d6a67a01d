import random
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgrass import subspaces
from qgrass.errors import InvalidParameters, SizeCapExceeded
from qgrass.ladders import build_poset_matrices
from qgrass.linalg import echelon_mod_p
from qgrass.qarith import q_binomial, q_int
from qgrass.subspaces import GeometryContext

from oracles import (
    Subspace,
    base_vertex,
    cover_kind,
    entries,
    global_index,
    layer_of,
    mask_dim,
    mask_words,
    meet_dim_by_rank,
    rref_mod,
    span_mask,
    span_words,
    subspace,
    subspace_table,
    table_index,
    vector_index,
)


def enumeration_loop_oracle(q, n, l):
    """Test-only oracle: the object-per-subspace enumeration the array
    tables replaced.  Walks pivot patterns, fills the free cells with
    itertools.product, builds one Subspace per filling (its mask from
    walking its points) and sorts by rows."""
    out = []
    for pivots in combinations(range(n), l):
        free_cells = [
            (i, c) for i in range(l) for c in range(pivots[i] + 1, n) if c not in pivots
        ]
        for assignment in product(range(q), repeat=len(free_cells)):
            rows = [[0] * n for _ in range(l)]
            for i, p in enumerate(pivots):
                rows[i][p] = 1
            for (i, c), val in zip(free_cells, assignment):
                rows[i][c] = val
            rows = tuple(tuple(r) for r in rows)
            out.append(Subspace(q, n, rows, pivots, span_mask(rows, q, n)))
    out.sort(key=lambda s: s.rows)
    return out


# every (q, N, l) with q in {2, 3, 5} and N <= 6 small enough for the
# object oracle
SMALL_TABLES = [
    (q, n, l)
    for q in (2, 3, 5)
    for n in range(1, 7)
    for l in range(n + 1)
    if q_binomial(n, l, q) <= 1500
]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_TABLES))
def test_array_table_matches_enumeration_loop(params):
    q, n, l = params
    tab = subspace_table(q, n, l, cap=None)
    oracle = enumeration_loop_oracle(q, n, l)
    assert len(tab) == len(oracle) == q_binomial(n, l, q)
    assert tab.rows.tolist() == [[list(r) for r in s.rows] for s in oracle]
    assert tab.pivots.tolist() == [list(s.pivots) for s in oracle]
    masks = [int.from_bytes(w.tobytes(), "little") for w in tab.words]
    assert masks == [s.mask for s in oracle]


def test_lookups_by_rows_and_by_mask():
    tab = subspace_table(3, 4, 2)
    order = np.arange(len(tab))
    assert (tab.find_rows(tab.rows) == order).all()
    assert (tab.find_masks(tab.words) == order).all()
    # a basis that is not reduced, and a point set that is no plane
    rows = tab.rows[:1].copy()
    rows[0, 1] = rows[0, 0]
    assert tab.find_rows(rows).tolist() == [-1]
    assert tab.find_masks(tab.words[:1] ^ tab.words[1:2]).tolist() == [-1]
    # x given by rows that span entry 5 but are not reduced is found there
    top, bottom = tab.rows[5].astype(int)
    ctx = GeometryContext(3, 4, 2, x_rows=[(top + bottom) % 3, 2 * bottom % 3])
    assert ctx.x_index == 5 and (ctx.x_rows == tab.rows[5]).all()


@pytest.mark.parametrize(
    "q,n,l,int_rows,int_masks",
    [
        (2, 6, 3, True, True),  # 18 binary digits; 64 points, one word
        (3, 4, 2, True, False),  # 8 ternary digits; 81 points, two words
        (2, 8, 8, True, False),  # 64 binary digits, the most that fit
        (2, 9, 8, False, False),  # 72 binary digits; 512 points
    ],
)
def test_integer_and_byte_keys_agree(q, n, l, int_rows, int_masks):
    # one uint64 key per row where the digits or the words fit in 64
    # bits, byte strings elsewhere: the same order and the same lookups
    tab = subspace_table(q, n, l)
    flat = tab.rows.reshape(len(tab), -1)
    row_keys, mask_keys = subspaces._keys(flat, q), subspaces._keys(tab.words, 2**64)
    assert (row_keys.dtype == np.uint64, mask_keys.dtype == np.uint64) == (int_rows, int_masks)
    for keys, raw in ((row_keys, flat), (mask_keys, tab.words)):
        byte_order = np.argsort(subspaces._byte_keys(raw), kind="stable")
        assert (np.argsort(keys, kind="stable") == byte_order).all()
    assert (np.argsort(row_keys, kind="stable") == np.arange(len(tab))).all()

    rng = np.random.default_rng(0)
    perm = rng.permutation(len(tab))
    changed = tab.rows[perm].copy()
    cells = rng.integers(0, l * n, size=len(tab))
    changed.reshape(len(tab), -1)[np.arange(len(tab)), cells] += 1
    changed %= q
    rows = np.concatenate([tab.rows[perm], changed])
    byte_rows = subspaces.find_sorted(
        subspaces._byte_keys(flat), None, subspaces._byte_keys(rows.reshape(len(rows), -1))
    )
    found = tab.find_rows(rows)
    assert (found == byte_rows).all() and (found[: len(tab)] == perm).all()

    words = np.concatenate([tab.words[perm], tab.words[perm] ^ tab.words])
    byte_masks = subspaces._byte_keys(tab.words)
    order = np.argsort(byte_masks, kind="stable")
    want = subspaces.find_sorted(byte_masks[order], order, subspaces._byte_keys(words))
    found = tab.find_masks(words)
    assert (found == want).all() and (found[: len(tab)] == perm).all()


MERGE_TABLES = [(2, 4, 2), (2, 5, 2), (2, 6, 1), (2, 6, 3), (3, 3, 1)]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(MERGE_TABLES),
    st.integers(1, 3),
    st.randoms(use_true_random=False),
    st.lists(
        st.tuples(st.sampled_from(["drop", "duplicate", "foreign"]), st.integers(0, 10**6)),
        max_size=3,
    ),
)
def test_mask_merge_equals_binary_search(params, mult, rng, edits):
    # the one-word mask keys of a table, each `mult` times in a random
    # order, then some dropped, duplicated or replaced by a key that is
    # no table mask: the merge answers exactly when the sorted keys are
    # the table's each `mult` times, and then as the binary search does
    tab = subspace_table(*params)
    keys = np.repeat(tab.words[:, 0], mult)
    rng.shuffle(keys)
    for edit, k in edits:
        k %= len(keys)
        if edit == "drop":
            keys = np.delete(keys, k)
        elif edit == "duplicate":
            keys = np.insert(keys, k, keys[k])
        else:
            keys[k] = tab.words[k % len(tab), 0] ^ tab.words[(k + 1) % len(tab), 0]
    found = tab.match_masks(keys, mult)
    whole = np.array_equal(np.sort(keys), np.sort(np.repeat(tab.words[:, 0], mult)))
    assert (found is not None) == whole
    if found is not None:
        assert np.array_equal(found, tab.find_masks(keys[:, None]))


def test_mask_merge_needs_distinct_one_word_masks():
    # a table with a repeated mask, or masks of two words, is never
    # matched by the merge, even by its own masks
    tab = subspace_table(2, 5, 2)
    assert np.array_equal(tab.match_masks(tab.words[:, 0], 1), np.arange(len(tab)))
    tab.words[1] = tab.words[0]
    tab._mask_order = None
    assert tab.match_masks(tab.words[:, 0], 1) is None
    wide = subspace_table(3, 4, 2)
    assert wide.words.shape[1] == 2 and wide.match_masks(wide.words[:, 0], 1) is None


def span_points(rows, q, n):
    # independent oracle: closure of the row span as a frozenset of tuples
    pts = {(0,) * n}
    for row in rows:
        pts = {
            tuple((a + c * b) % q for a, b in zip(p, row))
            for p in pts
            for c in range(q)
        }
    return frozenset(pts)


class TestEnumeration:
    def test_count_matches_span_closure_oracle(self):
        # all 2-subsets of nonzero vectors of F_2^5, deduplicated by point set
        q, n = 2, 5
        nonzero = [v for v in product(range(q), repeat=n) if any(v)]
        seen = set()
        for a, b in combinations(nonzero, 2):
            pts = span_points([a, b], q, n)
            if len(pts) == 4:  # a, b independent
                seen.add(pts)
        assert len(seen) == 155
        assert len(subspace_table(2, 5, 2)) == 155
        assert q_binomial(5, 2, 2) == 155

    def test_lines_of_f3_4(self):
        assert len(subspace_table(3, 4, 1)) == 40

    def test_sorted_unique_canonical(self):
        tab = subspace_table(2, 4, 2)
        keys = [tuple(map(tuple, rows)) for rows in tab.rows.tolist()]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys) == q_binomial(4, 2, 2)
        for rows, pivots in zip(keys, tab.pivots.tolist()):
            canon, piv = rref_mod(rows, 2)
            assert canon == rows and list(piv) == pivots

    def test_extreme_dimensions(self):
        zero = subspace_table(3, 4, 0)
        assert len(zero) == 1 and zero.rows.shape == (1, 0, 4)
        full = subspace_table(2, 3, 3)
        assert len(full) == 1 and np.bitwise_count(full.words).sum() == 8

    def test_dimension_outside_the_space_is_rejected(self):
        for dim in (-1, 5):
            with pytest.raises(InvalidParameters, match="0 <= dim <= ambient"):
                subspace_table(2, 4, dim)

    def test_cap_enforced_with_projection(self):
        with pytest.raises(SizeCapExceeded) as ei:
            subspace_table(2, 5, 2, cap=100)
        assert ei.value.projected == 155
        assert ei.value.cap == 100

    def test_masks_have_power_of_q_points(self):
        tab = subspace_table(3, 3, 2)
        assert (np.bitwise_count(tab.words).sum(axis=1) == 9).all()


MASK_SPACES = [(2, 6), (3, 4), (3, 5)]


def _tables(q, n):
    return [subspace_table(q, n, l, cap=None) for l in range(n + 1)]


@pytest.mark.parametrize("q,n", MASK_SPACES)
def test_kernel_word_masks_match_span_walk(q, n):
    # every table mask, the AND of the kernel words of its functionals,
    # equals the mask from walking every point of its span, and so do
    # the words of x
    for tab in _tables(q, n):
        assert np.array_equal(tab.words, span_words(tab.rows, q)), tab.dim
    ctx = GeometryContext(q, n, 2, x_rows=[[1] * n, [0, 1, 2 % q] + [0] * (n - 3)])
    assert np.array_equal(ctx.x_words, span_words(ctx.x_rows[None], q))


def _masks_under(q, n, monkeypatch, name, mutant):
    """Every table mask of F_q^N with subspaces.<name> replaced by
    mutant(real)."""
    monkeypatch.setattr(subspaces, name, mutant(getattr(subspaces, name)))
    tables = _tables(q, n)
    monkeypatch.undo()
    return tables


# mutant name -> (subspaces attribute, wrapper of the real one)
MUTANTS = {
    # g_f = e_f + sum_j R[j, f] e_(p_j), the sign of R dropped: the real
    # functionals of -R
    "no_negation": ("_functionals", lambda real: lambda q, rows, piv: real(q, (q - rows) % q, piv)),
    # the last non-pivot column gets no functional
    "dropped_free_column": ("_functionals", lambda real: lambda q, rows, piv: real(q, rows, piv)[:, :-1]),
    # the AND starts from all ones, padding bits included
    "padding_set": ("kernel_words", lambda real: lambda q, n: np.concatenate(
        [np.full((1, real(q, n).shape[1]), ~np.uint64(0)), real(q, n)[1:]])),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
@pytest.mark.parametrize("q,n", [(3, 4), (3, 5)])
def test_mask_mutants_fail_the_span_walk(q, n, mutant, monkeypatch):
    name, make = MUTANTS[mutant]
    wrong = [
        tab.dim for tab in _masks_under(q, n, monkeypatch, name, make)
        if not np.array_equal(tab.words, span_words(tab.rows, q))
    ]
    # the sign changes every table with a free entry, a dropped column
    # every table below the top, the padding only the whole space
    expected = {
        "no_negation": list(range(1, n)),
        "dropped_free_column": list(range(n)),
        "padding_set": [n],
    }[mutant]
    assert wrong == expected


def test_sign_of_the_functionals_is_free_at_q2(monkeypatch):
    name, make = MUTANTS["no_negation"]
    for tab in _masks_under(2, 6, monkeypatch, name, make):
        assert np.array_equal(tab.words, span_words(tab.rows, 2))


def meet_from_points(u, v):
    """The span of the common points of u and v, as a subspace."""
    q, n = u.q, u.ambient
    common = u.mask & v.mask
    rows = [[p // q**c % q for c in range(n)] for p in range(q**n) if common >> p & 1]
    return subspace(q, n, rows)


class TestIntersect:
    """The meet of two subspaces from their common points (the masks the
    tables hold) against dim u + dim v - rank of the stacked rows."""

    def test_two_distinct_lines_meet_trivially(self):
        lines = entries(subspace_table(2, 5, 1))
        u, v = lines[0], lines[7]
        assert u != v
        assert meet_dim_by_rank(u, v) == 0
        # brute-force common-vector scan
        assert (u.mask & v.mask).bit_count() == 1  # only the zero vector

    def test_meet_with_self_and_full_space(self):
        q, n = 2, 4
        full = entries(subspace_table(q, n, n))[0]
        for s in entries(subspace_table(q, n, 2))[:5]:
            assert meet_from_points(s, s) == s
            assert meet_from_points(s, full) == s
            assert meet_dim_by_rank(s, s) == meet_dim_by_rank(s, full) == 2

    def test_against_mask_oracle_and_dim_formula(self):
        rng = random.Random(7)
        q, n = 2, 5
        planes = entries(subspace_table(q, n, 2))
        triples = entries(subspace_table(q, n, 3))
        for _ in range(120):
            u = rng.choice(planes)
            v = rng.choice(triples)
            w = meet_from_points(u, v)
            # oracle 1: the common points are closed, a subspace
            assert w.mask == u.mask & v.mask
            assert w.dim == mask_dim(u.mask & v.mask, q)
            # oracle 2: dim u + dim v = dim meet + rank of the stacked rows
            assert w.dim == meet_dim_by_rank(u, v)
            # symmetry
            assert meet_dim_by_rank(v, u) == w.dim

    def test_q3_samples(self):
        rng = random.Random(11)
        lines = entries(subspace_table(3, 4, 1))
        planes = entries(subspace_table(3, 4, 2))
        for _ in range(60):
            u = rng.choice(lines)
            v = rng.choice(planes)
            w = meet_from_points(u, v)
            assert w.mask == u.mask & v.mask
            assert w.dim == meet_dim_by_rank(u, v)


class TestCanonicalForm:
    def test_subspace_from_rows_canonicalizes(self):
        # the base vertex takes the reduced echelon rows of its span
        rows = [(1, 1, 0, 0), (0, 1, 1, 0), (1, 0, 1, 0)]
        ctx = GeometryContext(2, 4, 2, x_rows=rows)
        canon, _ = rref_mod(rows, 2)
        assert ctx.x_rows.tolist() == [list(r) for r in canon]

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 3, 5]), st.integers(0, 5), st.integers(1, 6), st.data())
    def test_echelon_mod_q_matches_python_rref(self, q, rows, cols, data):
        # one elimination, in linalg, against the Python reference
        row = st.lists(st.integers(0, q - 1), min_size=cols, max_size=cols)
        mat = data.draw(st.lists(row, min_size=rows, max_size=rows))
        ech = np.array(mat, dtype=np.int64).reshape(rows, cols)
        pivots = echelon_mod_p(ech, q, reduced=True)
        canon, piv = rref_mod(mat, q)
        assert tuple(pivots) == piv
        assert ech[: len(piv)].tolist() == [list(r) for r in canon]
        assert not ech[len(piv):].any()

    def test_non_canonical_rows_rejected(self):
        # rows that are not in reduced echelon form name no table entry
        tab = subspace_table(2, 4, 2)
        rows = np.array([[(1, 1, 0, 0), (1, 0, 0, 0)]], dtype=tab.rows.dtype)
        assert tab.find_rows(rows).tolist() == [-1]

    def test_vector_index_is_injective(self):
        q, n = 3, 3
        seen = {vector_index(v, q) for v in product(range(q), repeat=n)}
        assert len(seen) == q**n
        # the tables index a point the same way: row vector_index(g) of
        # the kernel words has bit vector_index(w) set when g . w = 0,
        # with the coordinates split into halves of equal and unequal size
        for q, n in [(3, 3), (2, 4), (5, 2), (2, 1)]:
            kernels = subspaces.kernel_words(q, n)
            for g, w in product(product(range(q), repeat=n), repeat=2):
                bit = kernels[vector_index(g, q)] >> np.uint64(vector_index(w, q))
                assert bool(bit[0] & np.uint64(1)) == (np.dot(g, w) % q == 0)


class TestGeometryContext:
    def test_standard_base_vertex(self):
        ctx = GeometryContext(2, 5, 2)
        assert ctx.x_rows.tolist() == [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]]
        x = base_vertex(ctx)
        assert (ctx.x_words[0] == mask_words(x.mask, 32)).all()
        assert ctx.x_index == table_index(ctx.table(2), x)

    def test_explicit_base_vertex(self):
        ctx = GeometryContext(2, 5, 2, x_rows=[(0, 0, 1, 0, 0), (0, 0, 0, 1, 0)])
        assert ctx.x_rows.tolist() == [[0, 0, 1, 0, 0], [0, 0, 0, 1, 0]]
        with pytest.raises(InvalidParameters, match="x has dimension 1, expected D=2"):
            GeometryContext(2, 5, 2, x_rows=[(0, 0, 1, 0, 0)])
        with pytest.raises(InvalidParameters, match="row length"):
            GeometryContext(2, 5, 2, x_rows=[(0, 0, 1, 0, 0), (0, 0, 0, 1)])

    def test_pij_of_base_vertex(self):
        ctx = GeometryContext(2, 5, 2)
        pm = build_poset_matrices(ctx)
        x = base_vertex(ctx)
        g = global_index(pm, x)
        assert (pm.ivec[g], pm.jvec[g]) == layer_of(x, x) == (2, 0)

    def test_census_frozen_counts(self):
        pm = build_poset_matrices(GeometryContext(2, 5, 2))
        assert pm.checks.ok, pm.checks.failures()
        counts = pm.checks.values["layer_sizes"]
        assert counts["1,1"] == 42
        assert counts["2,0"] == 1
        assert counts["0,0"] == 1
        # vertices split by meet dimension with x: 1 + 42 + 112 = 155
        assert counts["2,0"] + counts["1,1"] + counts["0,2"] == 155
        assert counts["0,2"] == 112
        # the layers of each dimension add up to its table
        for l in range(6):
            total = sum(c for key, c in counts.items() if sum(map(int, key.split(","))) == l)
            assert total == q_binomial(5, l, 2)
        formula = next(c for c in pm.checks.checks if c.name == "layer_sizes_product_formula")
        assert formula.passed and formula.observed == counts

    def test_covered_count_oracle(self):
        # any 3-dimensional subspace over F_2 covers exactly [3] = 7 planes
        ctx = GeometryContext(2, 5, 2)
        u = entries(ctx.table(3))[0]
        covered = [w for w in entries(ctx.table(2)) if w.mask & u.mask == w.mask]
        assert len(covered) == 7 == q_int(3, 2)

    def test_cover_type_examples(self):
        ctx = GeometryContext(2, 5, 2)
        pm = build_poset_matrices(ctx)
        x = base_vertex(ctx)

        def kinds(u, v):
            key = global_index(pm, u) * pm.size + global_index(pm, v)
            return {name for name in ("L1", "L2", "cover") if key in getattr(pm, name)}

        # a line inside x is slash-covered by x
        line_in_x = subspace(2, 5, [(1, 0, 0, 0, 0)])
        assert kinds(line_in_x, x) == {"L1", "cover"}
        assert cover_kind(line_in_x, x, x) == "slash"
        # x is backslash-covered by any 3-space through it
        triple = subspace(2, 5, [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0)])
        assert kinds(x, triple) == {"L2", "cover"}
        assert cover_kind(x, triple, x) == "backslash"
        assert kinds(x, x) == set()
        assert kinds(triple, x) == set()

    def test_cover_dichotomy_sampled(self):
        ctx = GeometryContext(3, 4, 2)
        pm = build_poset_matrices(ctx)
        rows, cols = pm.pairs(pm.cover)
        slash = set(pm.L1.tolist())
        everything = [u for l in pm.dims for u in entries(ctx.table(l))]
        x = base_vertex(ctx)
        rng = random.Random(3)
        planes = entries(ctx.table(2))
        for _ in range(40):
            u = rng.choice(planes)
            g = global_index(pm, u)
            covers = cols[rows == g]
            # [N - l]_q covers, each slash exactly when it is in L1
            assert len(covers) == q_int(2, 3)
            for c in covers.tolist():
                kind = cover_kind(u, everything[c], x)
                assert (kind == "slash") == (g * pm.size + c in slash)

    def test_poset_cap(self):
        # past the cap the full poset is not materialized: the ladder
        # operators take the window of layers D-1..D+1 instead
        ctx = GeometryContext(2, 5, 2, poset_cap=100)
        assert ctx.poset_size() == sum(q_binomial(5, l, 2) for l in range(6)) > 100
        pm = build_poset_matrices(ctx)
        assert pm.partial and pm.dims == [1, 2, 3]
        assert pm.checks.values["poset_size"] == ctx.poset_size()

    def test_rejects_bad_dimensions(self):
        with pytest.raises(InvalidParameters):
            GeometryContext(2, 4, 4)
        with pytest.raises(InvalidParameters):
            GeometryContext(2, 4, 0)
        with pytest.raises(InvalidParameters):
            GeometryContext(6, 5, 2)

