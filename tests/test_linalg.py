import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgrass import linalg
from qgrass.errors import DimensionMismatch
from qgrass.linalg import (
    ExactMatrix,
    column_space_ops,
    exact_int_product,
    in_span,
    intersect_column_spaces,
    invert_fraction_matrix,
    primitive_int_vector,
    rank_exact,
    span_rank,
)


def naive_product(a, b):
    # independent oracle: schoolbook triple loop in plain Python
    m, k = len(a), len(a[0])
    n = len(b[0])
    return [
        [sum(a[i][t] * b[t][j] for t in range(k)) for j in range(n)] for i in range(m)
    ]


def gauss_rank_fractions(rows):
    # independent oracle: plain Gauss elimination over Fractions
    mat = [[Fraction(v) for v in r] for r in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][c]
        mat[rank] = [v * inv for v in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def random_int_matrix(rng, m, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


class TestMatrixBasics:
    def test_identity_product(self):
        m = ExactMatrix.from_rows([[1, 2], [3, Fraction(1, 2)]])
        eye = ExactMatrix.identity(2)
        assert (eye @ m).equals(m)
        assert (m @ eye).equals(m)

    def test_zero_product(self):
        m = ExactMatrix.from_rows([[1, 2], [3, 4]])
        z = ExactMatrix.zeros(2, 2)
        assert (m @ z).is_zero()

    def test_shape_mismatch(self):
        a = ExactMatrix.zeros(2, 3)
        b = ExactMatrix.zeros(2, 3)
        with pytest.raises(DimensionMismatch):
            a @ b
        with pytest.raises(DimensionMismatch):
            a + ExactMatrix.zeros(3, 2)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            ExactMatrix.from_rows([[1.0, 2], [3, 4]])

    def test_trace_and_transpose(self):
        m = ExactMatrix.from_rows([[1, 2], [3, Fraction(5, 2)]])
        assert m.trace() == Fraction(7, 2)
        assert m.T.T.equals(m)

    def test_from_class_values_shares_objects(self):
        cls = np.array([[0, 1], [1, 0]], dtype=np.int8)
        half = Fraction(1, 2)
        m = ExactMatrix.from_class_values(cls, {0: 1, 1: half})
        assert m[0, 1] is half and m[1, 0] is half
        assert m._int_max() is False
        # integer values fill the integrality cache; absent classes do not count
        ints = ExactMatrix.from_class_values(cls, {0: 3, 1: -5, 2: 99})
        assert ints._int_max() == 5

    def test_from_class_values_requires_cover(self):
        cls = np.array([[0, 2]], dtype=np.int8)
        with pytest.raises(ValueError):
            ExactMatrix.from_class_values(cls, {0: 1, 1: 2})

    def test_to_int_scaled(self):
        m = ExactMatrix.from_rows([[Fraction(1, 2), 3], [Fraction(2, 3), 0]])
        scaled, den = m.to_int_scaled()
        assert den == 6
        assert scaled.a.tolist() == [[3, 18], [4, 0]]
        # an integral matrix whose cache says so is its own scaling
        ints = ExactMatrix.from_class_values(np.array([[0, 1]]), {0: 2, 1: -3})
        assert ints.to_int_scaled() == (ints, 1)

    def test_from_int_array(self):
        m = ExactMatrix.from_int_array(np.array([[True, False], [False, True]]))
        assert m.a.tolist() == [[1, 0], [0, 1]]
        assert all(type(v) is int for v in m.a.flat)
        assert m._int_max() == 1
        big = ExactMatrix.from_int_array(np.array([[-(2**40), 7]], dtype=np.int64))
        assert big.a.tolist() == [[-(2**40), 7]] and big._int_max() == 2**40


class TestProductPaths:
    def test_fast_and_object_paths_agree(self):
        rng = random.Random(1)
        a_rows = random_int_matrix(rng, 6, 5)
        b_rows = random_int_matrix(rng, 5, 7)
        a = ExactMatrix.from_rows(a_rows)
        b = ExactMatrix.from_rows(b_rows)
        fast = a @ b
        slow = np.dot(a.a, b.a)
        assert (fast.a == slow).all()
        assert fast.a.tolist() == naive_product(a_rows, b_rows)
        assert type(fast[0, 0]) is int

    def test_big_entries_fall_back_exactly(self):
        big = 2**70
        a = ExactMatrix.from_rows([[big, 1], [0, big]])
        b = ExactMatrix.from_rows([[big, 0], [1, 1]])
        c = a @ b
        assert c[0, 0] == big * big + 1
        assert c[1, 1] == big

    def test_guard_catches_int64_overflow(self):
        # the entries fit in int64 but the dot product 2 * 2^62 does not
        a = ExactMatrix.from_rows([[2**31, 2**31]])
        b = ExactMatrix.from_rows([[2**31], [2**31]])
        assert (a @ b)[0, 0] == 2**63

    def test_fraction_product(self):
        a = ExactMatrix.from_rows([[Fraction(1, 3), Fraction(2, 3)]])
        b = ExactMatrix.from_rows([[Fraction(3, 2)], [Fraction(3, 4)]])
        assert (a @ b)[0, 0] == Fraction(1, 1)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(1, 8))
    def test_random_products_match_schoolbook(self, s1, s2, k):
        rng = random.Random(s1 * 31 + s2)
        a_rows = random_int_matrix(rng, 3, k, -50, 50)
        b_rows = random_int_matrix(rng, k, 4, -50, 50)
        got = (ExactMatrix.from_rows(a_rows) @ ExactMatrix.from_rows(b_rows)).a.tolist()
        assert got == naive_product(a_rows, b_rows)


def random_bool_matrix(rng, rows, cols):
    density = rng.choice([0.0, 0.1, 0.5, 0.9, 1.0])
    return np.array(
        [[rng.random() < density for _ in range(cols)] for _ in range(rows)], dtype=bool
    ).reshape(rows, cols)


class TestBoolProduct:
    """The bit-packed popcount branch of exact_int_product against its
    int64 branch on the same 0/1 entries."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 10**6),
        st.integers(0, 7),
        st.sampled_from([0, 1, 2, 7, 63, 64, 65, 127, 128, 129, 130]),
        st.integers(0, 7),
    )
    def test_matches_int64_branch(self, seed, rows, inner, cols):
        rng = random.Random(seed)
        a = random_bool_matrix(rng, rows, inner)
        b = random_bool_matrix(rng, inner, cols)
        got = exact_int_product(a, b, inner)
        want = exact_int_product(a.astype(np.int64), b.astype(np.int64), inner)
        assert got.dtype == np.int64 and want.dtype == np.int64
        assert got.shape == (rows, cols)
        assert (got == want).all()

    @pytest.mark.parametrize("inner", [1, 63, 64, 65, 128, 130])
    def test_all_ones_count_inner(self, inner):
        # every term is 1, so each entry is exactly `inner`
        a = np.ones((3, inner), dtype=bool)
        b = np.ones((inner, 2), dtype=bool)
        assert (exact_int_product(a, b, inner) == inner).all()

    def test_row_blocks_cover_every_row(self, monkeypatch):
        # blocks of a few rows still assemble the whole product
        monkeypatch.setattr(linalg, "_BLOCK_BYTES", 64)
        rng = random.Random(5)
        a = random_bool_matrix(rng, 37, 130)
        b = random_bool_matrix(rng, 130, 5)
        assert len(list(linalg.row_blocks(37, 5))) > 1
        want = a.astype(np.int64) @ b.astype(np.int64)
        assert (exact_int_product(a, b, 130) == want).all()

    def test_inner_mismatch(self):
        with pytest.raises(DimensionMismatch):
            exact_int_product(np.ones((2, 3), bool), np.ones((3, 2), bool), 4)


class TestColumnSpace:
    def test_identity(self):
        res = column_space_ops(ExactMatrix.identity(4))
        assert res.rank == 4
        assert res.nullspace_basis.shape == (0, 4)

    def test_zero_matrix(self):
        res = column_space_ops(ExactMatrix.zeros(3, 4))
        assert res.rank == 0
        assert res.nullspace_basis.shape == (4, 4)

    def test_no_rows(self):
        # every vector solves an empty system: the nullspace of a 0 x n
        # matrix is all of Q^n, with the unit vectors as its basis
        res = column_space_ops(ExactMatrix.from_int_array(np.zeros((0, 3), dtype=bool)))
        assert res.rank == 0
        assert res.nullspace_basis.equals(ExactMatrix.identity(3))

    def test_known_rank(self):
        m = ExactMatrix.from_rows([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
        res = column_space_ops(m)
        assert res.rank == 2
        assert res.nullspace_basis.shape == (1, 3)
        assert (m @ res.nullspace_basis.T).is_zero()

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 6), st.integers(1, 6))
    def test_rank_matches_fraction_gauss_oracle(self, seed, m, n):
        rng = random.Random(seed)
        rows = random_int_matrix(rng, m, n, -6, 6)
        mat = ExactMatrix.from_rows(rows)
        res = column_space_ops(mat)
        assert res.rank == gauss_rank_fractions(rows)
        assert res.rank + res.nullspace_basis.shape[0] == n
        assert (mat @ res.nullspace_basis.T).is_zero()
        # every original column lies in the span of the pivot columns
        pivots = ExactMatrix(mat.a[:, res.pivot_columns].T)
        assert span_rank(pivots) == res.rank
        assert in_span(pivots, mat.T)

    def test_rational_matrix(self):
        m = ExactMatrix.from_rows(
            [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]]
        )
        assert rank_exact(m) == 1

    def test_column_basis_is_primitive(self):
        # the pivot column spans the column space; the intersection
        # oracle returns it as a primitive integer vector
        m = ExactMatrix.from_rows([[2, 0], [4, 0], [6, 0]])
        res = column_space_ops(m)
        assert res.rank == 1
        assert res.pivot_columns == [0]
        assert intersect_column_spaces(m, m).a.T.tolist() == [[1, 2, 3]]


class TestSpanOps:
    def test_in_span(self):
        basis = ExactMatrix.from_rows([[1, 0, 0], [0, 1, 0]])
        empty = ExactMatrix.zeros(0, 3)
        assert in_span(basis, ExactMatrix.from_rows([[3, -2, 0]]))
        assert in_span(basis, ExactMatrix.from_rows([[3, -2, 0], [0, 5, 0]]))
        assert not in_span(basis, ExactMatrix.from_rows([[0, 0, 1]]))
        assert not in_span(basis, ExactMatrix.from_rows([[1, 0, 0], [0, 0, 1]]))
        assert in_span(empty, ExactMatrix.from_rows([[0, 0, 0]]))
        assert not in_span(empty, ExactMatrix.from_rows([[1, 0, 0]]))

    def test_intersection_of_coordinate_spans(self):
        e = ExactMatrix.identity(4).a
        got = intersect_column_spaces(ExactMatrix(e[:, [0, 1]]), ExactMatrix(e[:, [1, 2]]))
        assert got.shape == (4, 1)
        assert got.a.T.tolist() in ([[0, 1, 0, 0]], [[0, -1, 0, 0]])
        assert intersect_column_spaces(ExactMatrix(e[:, [0]]), ExactMatrix(e[:, [1]])).shape == (4, 0)

    def test_intersection_dimension_formula(self):
        rng = random.Random(12)
        for _ in range(30):
            n = rng.randint(2, 6)
            ka = rng.randint(1, n)
            kb = rng.randint(1, n)
            a_cols = ExactMatrix.from_rows(random_int_matrix(rng, n, ka, -4, 4))
            b_cols = ExactMatrix.from_rows(random_int_matrix(rng, n, kb, -4, 4))
            ra = span_rank(a_cols.T)
            rb = span_rank(b_cols.T)
            rab = span_rank(a_cols.T, b_cols.T)
            inter = intersect_column_spaces(a_cols, b_cols)
            assert inter.shape == (n, ra + rb - rab)
            assert span_rank(inter.T) == inter.shape[1]
            assert in_span(a_cols.T, inter.T) and in_span(b_cols.T, inter.T)

    def test_same_span_intersection(self):
        cols = ExactMatrix.from_rows([[1, 0], [2, 1], [3, 1]])
        inter = intersect_column_spaces(cols, cols)
        assert inter.shape == (3, 2)


class TestHelpers:
    def test_primitive_int_vector(self):
        v = primitive_int_vector([Fraction(1, 2), Fraction(3, 4), 0])
        assert v.tolist() == [2, 3, 0]
        v = primitive_int_vector([-2, -4, 6])
        assert v.tolist() == [1, 2, -3]
        assert primitive_int_vector([0, 0]).tolist() == [0, 0]

    def test_invert_fraction_matrix(self):
        m = [[1, 2], [3, 4]]
        inv = invert_fraction_matrix(m)
        eye = naive_product(m, inv)
        assert eye == [[1, 0], [0, 1]]
        with pytest.raises(ArithmeticError):
            invert_fraction_matrix([[1, 2], [2, 4]])
