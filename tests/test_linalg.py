import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgrass.errors import DimensionMismatch
from qgrass.linalg import (
    ExactMatrix,
    ExactVector,
    column_space_ops,
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

    def test_matrix_vector(self):
        m = ExactMatrix.from_rows([[1, 2], [3, 4]])
        v = ExactVector([5, 6])
        assert (m @ v).tolist() == [17, 39]


class TestColumnSpace:
    def test_identity(self):
        res = column_space_ops(ExactMatrix.identity(4))
        assert res.rank == 4
        assert res.nullspace_basis == []

    def test_zero_matrix(self):
        res = column_space_ops(ExactMatrix.zeros(3, 4))
        assert res.rank == 0
        assert len(res.nullspace_basis) == 4

    def test_known_rank(self):
        m = ExactMatrix.from_rows([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
        res = column_space_ops(m)
        assert res.rank == 2
        assert len(res.nullspace_basis) == 1
        v = res.nullspace_basis[0]
        assert (m @ v).is_zero()

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 6), st.integers(1, 6))
    def test_rank_matches_fraction_gauss_oracle(self, seed, m, n):
        rng = random.Random(seed)
        rows = random_int_matrix(rng, m, n, -6, 6)
        mat = ExactMatrix.from_rows(rows)
        res = column_space_ops(mat)
        assert res.rank == gauss_rank_fractions(rows)
        assert res.rank + len(res.nullspace_basis) == n
        for v in res.nullspace_basis:
            assert (mat @ v).is_zero()
        # every original column lies in the span of the returned basis
        for j in range(n):
            assert in_span(res.column_basis, mat.col(j))

    def test_rational_matrix(self):
        m = ExactMatrix.from_rows(
            [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]]
        )
        assert rank_exact(m) == 1

    def test_column_basis_is_primitive(self):
        m = ExactMatrix.from_rows([[2, 0], [4, 0], [6, 0]])
        res = column_space_ops(m)
        assert res.rank == 1
        assert res.column_basis[0].tolist() == [1, 2, 3]


class TestSpanOps:
    def test_in_span(self):
        e1 = ExactVector([1, 0, 0])
        e2 = ExactVector([0, 1, 0])
        assert in_span([e1, e2], ExactVector([3, -2, 0]))
        assert not in_span([e1, e2], ExactVector([0, 0, 1]))
        assert in_span([], ExactVector([0, 0, 0]))
        assert not in_span([], ExactVector([1, 0, 0]))

    def test_intersection_of_coordinate_spans(self):
        e = [ExactVector([1 if i == j else 0 for i in range(4)]) for j in range(4)]
        got = intersect_column_spaces([e[0], e[1]], [e[1], e[2]])
        assert len(got) == 1
        assert got[0].tolist() in ([0, 1, 0, 0], [0, -1, 0, 0])
        assert intersect_column_spaces([e[0]], [e[1]]) == []

    def test_intersection_dimension_formula(self):
        rng = random.Random(12)
        for _ in range(30):
            n = rng.randint(2, 6)
            ka = rng.randint(1, n)
            kb = rng.randint(1, n)
            a_cols = [ExactVector([rng.randint(-4, 4) for _ in range(n)]) for _ in range(ka)]
            b_cols = [ExactVector([rng.randint(-4, 4) for _ in range(n)]) for _ in range(kb)]
            ra = span_rank(a_cols)
            rb = span_rank(b_cols)
            rab = span_rank(a_cols + b_cols)
            inter = intersect_column_spaces(a_cols, b_cols)
            assert len(inter) == ra + rb - rab
            for v in inter:
                assert in_span(a_cols, v) and in_span(b_cols, v)

    def test_same_span_intersection(self):
        cols = [ExactVector([1, 2, 3]), ExactVector([0, 1, 1])]
        inter = intersect_column_spaces(cols, cols)
        assert len(inter) == 2


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

    def test_vector_ops(self):
        a = ExactVector([1, 2, 3])
        b = ExactVector([1, 0, -3])
        assert (a + b).tolist() == [2, 2, 0]
        assert (a - b).tolist() == [0, 2, 6]
        assert (2 * a).tolist() == [2, 4, 6]
        assert a.dot(b) == -8
        assert ExactVector.zeros(3).is_zero()
        assert a.nonzero_indices() == [0, 1, 2]
