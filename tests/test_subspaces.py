import random
from itertools import combinations, product

import pytest

from qgrass.errors import InvalidParameters, SizeCapExceeded
from qgrass.qarith import q_binomial, q_int
from qgrass.subspaces import (
    CanonicalSubspace,
    CoverType,
    GeometryContext,
    dim_meet,
    enumerate_subspaces,
    intersect,
    load_table,
    rref_mod,
    save_table,
    subspace_from_rows,
    vector_index,
)


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
        assert len(enumerate_subspaces(2, 5, 2)) == 155
        assert q_binomial(5, 2, 2) == 155

    def test_lines_of_f3_4(self):
        assert len(enumerate_subspaces(3, 4, 1)) == 40

    def test_sorted_unique_canonical(self):
        tab = enumerate_subspaces(2, 4, 2)
        keys = [s.rows for s in tab]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys) == q_binomial(4, 2, 2)
        for s in tab:
            canon, piv = rref_mod(s.rows, 2)
            assert canon == s.rows and piv == s.pivots

    def test_extreme_dimensions(self):
        zero = enumerate_subspaces(3, 4, 0)
        assert len(zero) == 1 and zero[0].dim == 0
        full = enumerate_subspaces(2, 3, 3)
        assert len(full) == 1 and full[0].mask.bit_count() == 8

    def test_cap_enforced_with_projection(self):
        with pytest.raises(SizeCapExceeded) as ei:
            enumerate_subspaces(2, 5, 2, cap=100)
        assert ei.value.projected == 155
        assert ei.value.cap == 100

    def test_masks_have_power_of_q_points(self):
        for s in enumerate_subspaces(3, 3, 2):
            assert s.mask.bit_count() == 9


class TestIntersect:
    def test_two_distinct_lines_meet_trivially(self):
        lines = enumerate_subspaces(2, 5, 1)
        u, v = lines[0], lines[7]
        assert u != v
        w = intersect(u, v)
        assert w.dim == 0
        # brute-force common-vector scan
        assert (u.mask & v.mask).bit_count() == 1  # only the zero vector

    def test_meet_with_self_and_full_space(self):
        q, n = 2, 4
        full = enumerate_subspaces(q, n, n)[0]
        for s in enumerate_subspaces(q, n, 2)[:5]:
            assert intersect(s, s) == s
            assert intersect(s, full) == s

    def test_against_mask_oracle_and_dim_formula(self):
        rng = random.Random(7)
        q, n = 2, 5
        planes = enumerate_subspaces(q, n, 2)
        triples = enumerate_subspaces(q, n, 3)
        for _ in range(120):
            u = rng.choice(planes)
            v = rng.choice(triples)
            w = intersect(u, v)
            # oracle 1: point sets intersect as sets
            assert w.mask == u.mask & v.mask
            assert w.dim == dim_meet(u, v)
            # oracle 2: dim u + dim v = dim meet + rank of the stacked rows
            _, pivots = rref_mod(list(u.rows) + list(v.rows), q)
            assert u.dim + v.dim == w.dim + len(pivots)
            # symmetry
            assert intersect(v, u) == w

    def test_q3_samples(self):
        rng = random.Random(11)
        lines = enumerate_subspaces(3, 4, 1)
        planes = enumerate_subspaces(3, 4, 2)
        for _ in range(60):
            u = rng.choice(lines)
            v = rng.choice(planes)
            w = intersect(u, v)
            assert w.mask == u.mask & v.mask

    def test_rejects_mixed_ambient(self):
        u = enumerate_subspaces(2, 4, 1)[0]
        v = enumerate_subspaces(2, 5, 1)[0]
        with pytest.raises(InvalidParameters):
            intersect(u, v)


class TestCanonicalForm:
    def test_subspace_from_rows_canonicalizes(self):
        s = subspace_from_rows(2, 4, [(1, 1, 0, 0), (0, 1, 1, 0), (1, 0, 1, 0)])
        assert s.dim == 2
        canon, _ = rref_mod(s.rows, 2)
        assert canon == s.rows

    def test_non_canonical_rows_rejected(self):
        with pytest.raises(InvalidParameters):
            CanonicalSubspace(2, 4, ((1, 1, 0, 0), (1, 0, 0, 0)))

    def test_vector_index_is_injective(self):
        q, n = 3, 3
        seen = {vector_index(v, q) for v in product(range(q), repeat=n)}
        assert len(seen) == q**n


class TestGeometryContext:
    def test_standard_base_vertex(self):
        ctx = GeometryContext(2, 5, 2)
        assert ctx.x.rows == ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0))

    def test_explicit_base_vertex(self):
        ctx = GeometryContext(2, 5, 2, x_rows=[(0, 0, 1, 0, 0), (0, 0, 0, 1, 0)])
        assert ctx.x.dim == 2
        with pytest.raises(InvalidParameters):
            GeometryContext(2, 5, 2, x_rows=[(0, 0, 1, 0, 0)])

    def test_pij_of_base_vertex(self):
        ctx = GeometryContext(2, 5, 2)
        assert ctx.pij(ctx.x) == (2, 0)

    def test_census_frozen_counts(self):
        ctx = GeometryContext(2, 5, 2)
        cs = ctx.census()
        assert cs.ok, cs.failures()
        counts = cs.values["layer_counts"]
        assert counts["1,1"] == 42
        assert counts["2,0"] == 1
        assert counts["0,0"] == 1
        # vertices split by meet dimension with x: 1 + 42 + 112 = 155
        assert counts["2,0"] + counts["1,1"] + counts["0,2"] == 155
        assert counts["0,2"] == 112
        assert cs.values["layer_count_formula_matches"] is True

    def test_covered_count_oracle(self):
        # any 3-dimensional subspace over F_2 covers exactly [3] = 7 planes
        ctx = GeometryContext(2, 5, 2)
        u = ctx.table(3)[0]
        covered = [w for w in ctx.table(2) if w.is_subspace_of(u)]
        assert len(covered) == 7 == q_int(3, 2)

    def test_cover_type_examples(self):
        ctx = GeometryContext(2, 5, 2)
        x = ctx.x
        # a line inside x is slash-covered by x
        line_in_x = subspace_from_rows(2, 5, [(1, 0, 0, 0, 0)])
        assert ctx.cover_type(line_in_x, x) is CoverType.SLASH
        # x is backslash-covered by any 3-space through it
        triple = subspace_from_rows(
            2, 5, [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0)]
        )
        assert ctx.cover_type(x, triple) is CoverType.BACKSLASH
        assert ctx.cover_type(x, x) is CoverType.NOT_COVER
        assert ctx.cover_type(triple, x) is CoverType.NOT_COVER

    def test_cover_dichotomy_sampled(self):
        ctx = GeometryContext(3, 4, 2)
        rng = random.Random(3)
        planes = ctx.table(2)
        for _ in range(40):
            u = rng.choice(planes)
            for v in ctx.covers_of(u):
                assert ctx.cover_type(u, v) in (CoverType.SLASH, CoverType.BACKSLASH)

    def test_poset_cap(self):
        ctx = GeometryContext(2, 5, 2, poset_cap=100)
        with pytest.raises(SizeCapExceeded) as ei:
            ctx.build_all_tables()
        assert ei.value.projected == sum(q_binomial(5, l, 2) for l in range(6))

    def test_rejects_bad_dimensions(self):
        with pytest.raises(InvalidParameters):
            GeometryContext(2, 4, 4)
        with pytest.raises(InvalidParameters):
            GeometryContext(2, 4, 0)
        with pytest.raises(InvalidParameters):
            GeometryContext(6, 5, 2)


class TestCache:
    def test_roundtrip(self, tmp_path):
        tab = enumerate_subspaces(3, 4, 2)
        path = tmp_path / "t.txt"
        save_table(str(path), 3, 4, 2, tab)
        back = load_table(str(path), 3, 4, 2)
        assert back == tab

    def test_count_validation(self, tmp_path):
        tab = enumerate_subspaces(2, 4, 1)
        path = tmp_path / "t.txt"
        save_table(str(path), 2, 4, 1, tab)
        text = path.read_text().splitlines()
        path.write_text("\n".join(text[:-1]) + "\n")  # drop one subspace
        with pytest.raises(InvalidParameters):
            load_table(str(path), 2, 4, 1)

    def test_header_validation(self, tmp_path):
        tab = enumerate_subspaces(2, 4, 1)
        path = tmp_path / "t.txt"
        save_table(str(path), 2, 4, 1, tab)
        with pytest.raises(InvalidParameters):
            load_table(str(path), 2, 4, 2)

    def test_context_uses_cache(self, tmp_path):
        ctx = GeometryContext(2, 5, 2, cache_dir=str(tmp_path))
        tab = ctx.table(2)
        files = list(tmp_path.iterdir())
        assert len(files) == 1
        ctx2 = GeometryContext(2, 5, 2, cache_dir=str(tmp_path))
        assert ctx2.table(2) == tab

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda text: text.replace("1 ", "x ", 1),  # non-numeric dimension
            lambda text: text.replace("0", "a", 1),  # non-numeric digit
            lambda text: "2 4 1 1x\n" + text.split("\n", 1)[1],  # header
            lambda text: text[: len(text) // 2] + "\xe9",  # non-ASCII byte
        ],
        ids=["dimension", "digit", "header", "non_ascii"],
    )
    def test_unparsable_fields(self, tmp_path, corrupt):
        tab = enumerate_subspaces(2, 4, 1)
        path = tmp_path / "t.txt"
        save_table(str(path), 2, 4, 1, tab)
        path.write_text(corrupt(path.read_text()), encoding="latin-1")
        with pytest.raises(InvalidParameters):
            load_table(str(path), 2, 4, 1)

    def test_failed_save_leaves_no_file(self, tmp_path):
        tab = enumerate_subspaces(2, 4, 1)
        path = tmp_path / "t.txt"
        broken = tab[:5] + [None] + tab[5:]  # the write dies on the sixth line
        with pytest.raises(AttributeError):
            save_table(str(path), 2, 4, 1, broken)
        assert list(tmp_path.iterdir()) == []
        # a failed rewrite keeps the complete table that was there
        save_table(str(path), 2, 4, 1, tab)
        with pytest.raises(AttributeError):
            save_table(str(path), 2, 4, 1, broken)
        assert list(tmp_path.iterdir()) == [path]
        assert load_table(str(path), 2, 4, 1) == tab

    def test_digit_format_needs_small_q(self, tmp_path):
        tab = enumerate_subspaces(11, 2, 1)
        with pytest.raises(InvalidParameters):
            save_table(str(tmp_path / "t.txt"), 11, 2, 1, tab)
