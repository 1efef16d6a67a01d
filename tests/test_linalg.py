import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgrass import linalg
from qgrass.errors import DimensionMismatch
from qgrass.linalg import (
    RANK_CERT_PRIME,
    ExactMatrix,
    certified_kernel,
    column_space_ops,
    elimination_counts,
    exact_int_product,
    in_span,
    intersect_column_spaces,
    nullspace,
    primitive_int_vector,
    rank_exact,
    rank_mod_prime,
    span_rank,
)
from qgrass.subspaces import GeometryContext


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


def exact(rows) -> ExactMatrix:
    """Nested rows of ints and Fractions as an ExactMatrix."""
    return ExactMatrix(np.array(rows, dtype=object))


class TestMatrixBasics:
    def test_identity_product(self):
        m = exact([[1, 2], [3, Fraction(1, 2)]])
        eye = ExactMatrix.from_int_array(np.eye(2, dtype=np.int64))
        assert ((eye @ m).a == m.a).all()
        assert ((m @ eye).a == m.a).all()

    def test_zero_product(self):
        m = exact([[1, 2], [3, 4]])
        z = ExactMatrix.zeros(2, 2)
        assert (m @ z).is_zero()

    def test_shape_mismatch(self):
        a = ExactMatrix.zeros(2, 3)
        b = ExactMatrix.zeros(2, 3)
        with pytest.raises(DimensionMismatch):
            a @ b

    def test_rejects_floats(self):
        # an ExactMatrix holds an object array; the integer-array entry
        # points take ints only
        with pytest.raises(TypeError):
            ExactMatrix(np.array([[1.0, 2], [3, 4]]))
        for bad in (
            np.array([[1.0, 2], [3, 4]]),
            np.array([[1.0, 2], [3, 4]], dtype=object),
            np.array([[Fraction(1, 2), 2]], dtype=object),
            np.array([[True, 2]], dtype=object),
        ):
            for fn in (rank_exact, certified_kernel, rank_mod_prime, span_rank):
                with pytest.raises(TypeError):
                    fn(bad)

    def test_trace_and_transpose(self):
        m = exact([[1, 2], [3, Fraction(5, 2)]])
        assert np.trace(m.T.a) == np.trace(m.a) == Fraction(7, 2)
        assert (m.T.a == m.a.T).all() and (m.T.T.a == m.a).all()

    def test_to_int_scaled(self):
        m = exact([[Fraction(1, 2), 3], [Fraction(2, 3), 0]])
        scaled, den = m.to_int_scaled()
        assert den == 6
        assert scaled.a.tolist() == [[3, 18], [4, 0]]
        # an integral matrix whose cache says so is its own scaling
        ints = ExactMatrix.from_int_array(np.array([[2, -3]]))
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
        a = exact(a_rows)
        b = exact(b_rows)
        fast = a @ b
        slow = np.dot(a.a, b.a)
        assert (fast.a == slow).all()
        assert fast.a.tolist() == naive_product(a_rows, b_rows)
        assert type(fast.a[0, 0]) is int

    def test_big_entries_fall_back_exactly(self):
        big = 2**70
        a = exact([[big, 1], [0, big]])
        b = exact([[big, 0], [1, 1]])
        c = a @ b
        assert c.a[0, 0] == big * big + 1
        assert c.a[1, 1] == big

    def test_guard_catches_int64_overflow(self):
        # the entries fit in int64 but the dot product 2 * 2^62 does not
        a = exact([[2**31, 2**31]])
        b = exact([[2**31], [2**31]])
        assert (a @ b).a[0, 0] == 2**63

    def test_fraction_product(self):
        a = exact([[Fraction(1, 3), Fraction(2, 3)]])
        b = exact([[Fraction(3, 2)], [Fraction(3, 4)]])
        assert (a @ b).a[0, 0] == Fraction(1, 1)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(1, 8))
    def test_random_products_match_schoolbook(self, s1, s2, k):
        rng = random.Random(s1 * 31 + s2)
        a_rows = random_int_matrix(rng, 3, k, -50, 50)
        b_rows = random_int_matrix(rng, k, 4, -50, 50)
        got = (exact(a_rows) @ exact(b_rows)).a.tolist()
        assert got == naive_product(a_rows, b_rows)


def random_bool_matrix(rng, rows, cols):
    density = rng.choice([0.0, 0.1, 0.5, 0.9, 1.0])
    return np.array(
        [[rng.random() < density for _ in range(cols)] for _ in range(rows)], dtype=bool
    ).reshape(rows, cols)


def int64_oracle(a, b):
    return a.astype(np.int64) @ b.astype(np.int64)


def assembled(blocks, shape):
    """The blocks of `product_blocks` put together, after checking that
    they cover every row once, in order."""
    out = np.zeros(shape, dtype=np.int64)
    start = 0
    for rows, block in blocks:
        assert rows.start == start and rows.stop > start
        assert block.shape == (rows.stop - rows.start, shape[1])
        out[rows] = block
        start = rows.stop
    assert start == shape[0]
    return out


class TestBoolProduct:
    """The bit-packed popcount branch of exact_int_product against its
    int64 branch on the same 0/1 entries."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 10**6),
        st.integers(0, 7),
        st.sampled_from([0, 1, 2, 7, 63, 64, 65, 127, 128, 129, 130, 256, 300]),
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
        assert (assembled(linalg.product_blocks(a, b, inner), (rows, cols)) == want).all()

    @pytest.mark.parametrize("inner", [1, 63, 64, 65, 128, 130, 255, 256, 300, 65536])
    def test_all_ones_count_inner(self, inner):
        # every term is 1, so each entry is exactly `inner`, past what a
        # uint8 holds from 256 on; blocks count in the smallest unsigned
        # dtype that holds `inner`
        a = np.ones((3, inner), dtype=bool)
        b = np.ones((inner, 2), dtype=bool)
        assert (exact_int_product(a, b, inner) == inner).all()
        for _rows, block in linalg.product_blocks(a, b, inner):
            assert block.dtype == np.min_scalar_type(inner)
            assert (block == inner).all()

    def test_row_blocks_cover_every_row(self, monkeypatch):
        # blocks of a few rows still assemble the whole product
        monkeypatch.setattr(linalg, "_BLOCK_BYTES", 64)
        rng = random.Random(5)
        a = random_bool_matrix(rng, 37, 130)
        b = random_bool_matrix(rng, 130, 5)
        assert len(list(linalg.row_blocks(37, 5))) > 1
        want = a.astype(np.int64) @ b.astype(np.int64)
        assert (exact_int_product(a, b, 130) == want).all()
        blocks = list(linalg.product_blocks(a, b, 130))
        assert len(blocks) > 1
        assert (assembled(blocks, (37, 5)) == want).all()

    def test_inner_mismatch(self):
        with pytest.raises(DimensionMismatch):
            exact_int_product(np.ones((2, 3), bool), np.ones((3, 2), bool), 4)


class TestStreamedProduct:
    """`product_blocks`, the one place a 0/1 product is blocked: empty
    and packed operands, and the packing itself."""

    @pytest.mark.parametrize("rows,inner,cols", [(0, 5, 3), (4, 70, 0), (0, 0, 0), (3, 0, 2)])
    def test_empty_operands(self, rows, inner, cols):
        a = np.ones((rows, inner), dtype=bool)
        b = np.ones((inner, cols), dtype=bool)
        got = exact_int_product(a, b, inner)
        assert got.shape == (rows, cols) and (got == inner).all()
        assert assembled(linalg.product_blocks(a, b, inner), (rows, cols)).shape == (rows, cols)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([1, 63, 64, 65, 130]))
    def test_packed_operands(self, seed, inner):
        # words of the rows of a and of the columns of b stand in for
        # either bool operand
        rng = random.Random(seed)
        a = random_bool_matrix(rng, 6, inner)
        b = random_bool_matrix(rng, inner, 5)
        wa, wb = linalg.pack_words(a), linalg.pack_words(b.T)
        want = int64_oracle(a, b)
        for left, right in [(wa, b), (a, wb), (wa, wb)]:
            assert (exact_int_product(left, right, inner) == want).all()

    def test_table_words_are_point_incidence(self):
        # a table's own words give the common point counts q^dim(meet)
        table = GeometryContext(2, 5, 2).table(2)
        bits = np.unpackbits(table.words.view(np.uint8), axis=1, bitorder="little")[:, :32]
        inc = bits.astype(bool)
        got = exact_int_product(table.words, table.words, 32)
        assert (got == int64_oracle(inc, inc.T)).all()

    def test_packed_padding_and_width_are_checked(self):
        words = np.zeros((2, 2), dtype=np.uint64)
        b = np.ones((70, 3), dtype=bool)
        with pytest.raises(DimensionMismatch):
            exact_int_product(words, b, 200)
        words[1, 1] = np.uint64(1) << np.uint64(6)
        with pytest.raises(ValueError, match="past inner 70"):
            exact_int_product(words, b, 70)
        with pytest.raises(TypeError):
            exact_int_product(words, b.astype(np.int64), 70)

    def test_pack_rows_pads_with_zeros_over_dirty_memory(self):
        # fill and free buffers of the packed size first, so that an
        # unzeroed allocation would hand back set padding bits
        for cols in (1, 7, 9, 65, 100):
            words = -(-cols // 64)
            for _ in range(4):
                dirty = np.full((5, 8 * words), 255, dtype=np.uint8)
                del dirty
            packed = linalg.pack_words(np.ones((5, cols), dtype=bool))
            assert (np.bitwise_count(packed).sum(axis=1) == cols).all()


@pytest.mark.parametrize(
    "a,b",
    [
        (np.full((1, 8), 2**30 + 7, dtype=object), np.full((8, 1), 2**30 + 7, dtype=object)),
        (np.ones((1, 8), dtype=np.int64), np.ones((8, 1), dtype=np.int64)),
        (np.ones((1, 8), dtype=bool), np.ones((8, 1), dtype=np.int64)),
        (np.ones((1, 8), dtype=bool), np.ones((8, 1), dtype=bool)),
    ],
    ids=["object", "int64", "mixed", "bool"],
)
def test_every_branch_checks_inner(a, b):
    # the int64 guard bounds a dot product by inner * amax * bmax; with
    # inner = 1 the 8-term object product below would wrap in int64
    with pytest.raises(DimensionMismatch):
        exact_int_product(a, b, 1)
    with pytest.raises(DimensionMismatch):
        exact_int_product(a, b[:4], 8)
    assert int(exact_int_product(a, b, 8)[0, 0]) == int(a[0, 0]) * int(b[0, 0]) * 8


class TestColumnSpace:
    def test_identity(self):
        res = column_space_ops(ExactMatrix.from_int_array(np.eye(4, dtype=np.int64)))
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
        assert res.nullspace_basis.a.tolist() == np.eye(3, dtype=np.int64).tolist()

    def test_known_rank(self):
        m = exact([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
        res = column_space_ops(m)
        assert res.rank == 2
        assert res.nullspace_basis.shape == (1, 3)
        assert (m @ res.nullspace_basis.T).is_zero()

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 6), st.integers(1, 6))
    def test_rank_matches_fraction_gauss_oracle(self, seed, m, n):
        rng = random.Random(seed)
        rows = random_int_matrix(rng, m, n, -6, 6)
        mat = exact(rows)
        res = column_space_ops(mat)
        assert res.rank == gauss_rank_fractions(rows)
        assert res.rank + res.nullspace_basis.shape[0] == n
        assert (mat @ res.nullspace_basis.T).is_zero()
        # every original column lies in the span of the pivot columns
        pivots = mat.a[:, res.pivot_columns].T
        assert span_rank(pivots) == res.rank
        assert in_span(pivots, mat.a.T)

    def test_rational_matrix(self):
        # Bareiss scales a rational matrix to integers; rank_exact takes
        # the integers
        m = exact(
            [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]]
        )
        assert column_space_ops(m).rank == 1
        scaled, den = m.to_int_scaled()
        assert den == 12 and rank_exact(scaled.a) == 1

    def test_column_basis_is_primitive(self):
        # the pivot column spans the column space; the intersection
        # oracle returns it as a primitive integer vector
        m = exact([[2, 0], [4, 0], [6, 0]])
        res = column_space_ops(m)
        assert res.rank == 1
        assert res.pivot_columns == [0]
        assert intersect_column_spaces(m, m).a.T.tolist() == [[1, 2, 3]]


class TestSpanOps:
    def test_in_span(self):
        basis = np.array([[1, 0, 0], [0, 1, 0]])
        empty = np.zeros((0, 3), dtype=np.int64)
        assert in_span(basis, np.array([[3, -2, 0]]))
        assert in_span(basis, np.array([[3, -2, 0], [0, 5, 0]]))
        assert not in_span(basis, np.array([[0, 0, 1]]))
        assert not in_span(basis, np.array([[1, 0, 0], [0, 0, 1]]))
        assert in_span(empty, np.array([[0, 0, 0]]))
        assert not in_span(empty, np.array([[1, 0, 0]]))
        # bool, int64 and Python ints mix
        assert in_span(basis.astype(object), np.array([[True, False, False]]))

    def test_intersection_of_coordinate_spans(self):
        e = np.eye(4, dtype=np.int64).astype(object)
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
            a_cols = exact(random_int_matrix(rng, n, ka, -4, 4))
            b_cols = exact(random_int_matrix(rng, n, kb, -4, 4))
            ra = span_rank(a_cols.a.T)
            rb = span_rank(b_cols.a.T)
            rab = span_rank(a_cols.a.T, b_cols.a.T)
            inter = intersect_column_spaces(a_cols, b_cols)
            assert inter.shape == (n, ra + rb - rab)
            assert span_rank(inter.a.T) == inter.shape[1]
            assert in_span(a_cols.a.T, inter.a.T) and in_span(b_cols.a.T, inter.a.T)

    def test_same_span_intersection(self):
        cols = exact([[1, 0], [2, 1], [3, 1]])
        inter = intersect_column_spaces(cols, cols)
        assert inter.shape == (3, 2)


def object_matrix(rows, cols, values):
    out = np.empty((rows, cols), dtype=object)
    out[...] = np.array(values, dtype=object).reshape(rows, cols)
    return out


@st.composite
def integer_matrices(draw):
    """An object array of Python ints: empty, zero, of low rank (a
    product of two random factors, so that kernels are common) or dense,
    with entries up to a few units or past 2^62."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["zero", "low_rank", "dense", "big_low_rank", "big"]))
    if kind == "zero":
        return object_matrix(rows, cols, [0] * (rows * cols))
    big = kind.startswith("big")
    entry = st.integers(-(2**70), 2**70) if kind == "big" else st.integers(-4, 4)
    if kind == "dense" or kind == "big":
        return object_matrix(rows, cols, draw(st.lists(entry, min_size=rows * cols,
                                                        max_size=rows * cols)))
    inner = draw(st.integers(0, 3))
    left = object_matrix(rows, inner, draw(st.lists(entry, min_size=rows * inner,
                                                    max_size=rows * inner)))
    right = object_matrix(inner, cols, draw(st.lists(entry, min_size=inner * cols,
                                                     max_size=inner * cols)))
    out = np.dot(left, right) if inner else object_matrix(rows, cols, [0] * (rows * cols))
    if big:
        out = out * (2**63 + 5)
    return object_matrix(rows, cols, [int(v) for v in out.flat])


def bareiss_rank(a) -> int:
    return column_space_ops(ExactMatrix(a), want_nullspace=False).rank


def is_primitive(row) -> bool:
    vals = [int(v) for v in row]
    g = 0
    for v in vals:
        g = gcd(g, v)
    first = next(v for v in vals if v)
    return g == 1 and first > 0


class TestCertifiedKernel:
    """`certified_kernel` and the ranks and span tests on top of it,
    against the Bareiss oracle `column_space_ops`."""

    @settings(max_examples=150, deadline=None)
    @given(integer_matrices())
    def test_matches_bareiss_oracle(self, a):
        rows, cols = a.shape
        oracle = column_space_ops(ExactMatrix(a))
        found = certified_kernel(a)
        if found is not None:
            rank, kernel = found
            assert type(rank) is int and rank == oracle.rank
            assert kernel.shape == (cols - rank, cols)
            assert np.issubdtype(kernel.dtype, np.integer) or all(
                type(v) is int for v in kernel.flat)
            assert not np.dot(a, kernel.T.astype(object)).any()
            assert all(is_primitive(row) for row in kernel)
            # the same space as the oracle's nullspace, row by row
            kernel_obj = ExactMatrix.from_int_array(kernel)
            assert bareiss_rank(kernel_obj.a) == kernel.shape[0]
            both = np.concatenate([kernel_obj.a, oracle.nullspace_basis.a])
            assert bareiss_rank(both) == kernel.shape[0]
        assert rank_exact(a) == oracle.rank == gauss_rank_fractions(a.tolist())
        assert rank_exact(a.T) == oracle.rank
        assert rank_mod_prime(a) <= oracle.rank
        half = rows // 2
        basis, vectors = a[:half], a[half:]
        inside = bareiss_rank(a[:half]) == oracle.rank
        assert in_span(basis, vectors) == inside

    def test_known_kernel_is_the_bareiss_nullspace(self):
        # pivots agree mod p and over Q, so the kernel rows are the
        # oracle's, primitive and signed alike
        m = exact([[1, 2, 3, 4], [2, 4, 6, 8], [1, 1, 1, 7], [0, 3, 6, 5]])
        rank, kernel = certified_kernel(m.a)
        oracle = column_space_ops(m)
        assert rank == oracle.rank == 3
        assert kernel.tolist() == oracle.nullspace_basis.a.tolist()
        assert nullspace(m.a).tolist() == kernel.tolist()

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (2, 3)])
    def test_empty_and_zero(self, shape):
        a = np.zeros(shape, dtype=np.int64)
        rank, kernel = certified_kernel(a)
        assert rank == 0
        assert kernel.tolist() == np.eye(shape[1], dtype=np.int64).tolist()
        assert rank_exact(a) == 0

    def test_full_column_rank_needs_no_kernel(self, monkeypatch):
        # rank_p = number of columns: no fraction is rebuilt, no product
        # checked
        monkeypatch.setattr(linalg, "_reconstruct", None)
        monkeypatch.setattr(linalg, "exact_int_product", None)
        rank, kernel = certified_kernel(np.array([[3, 1], [5, 2], [7, 7]]))
        assert rank == 2 and kernel.shape == (0, 2)
        assert rank_exact(np.array([[3, 5, 7], [1, 2, 7]])) == 2

    def test_reconstruction(self):
        p = RANK_CERT_PRIME
        x = np.array([3 * pow(7, -1, p) % p, p - 5, 0, 1], dtype=np.int64)
        num, den = linalg._reconstruct(x, p)
        assert num.tolist() == [3, -5, 0, 1] and den.tolist() == [7, 1, 1, 1]
        # 1/40000: the denominator is past isqrt((p - 1) / 2) = 32767
        assert linalg._reconstruct(np.array([pow(40000, -1, p)], dtype=np.int64), p) is None

    @pytest.mark.parametrize(
        "rows,rank,kernel",
        [
            # p divides the determinant: rank 1 mod p, 2 over Q
            ([[1, 0], [0, RANK_CERT_PRIME]], 2, []),
            # the echelon form holds 1/40000, past the reconstruction bound
            ([[40000, 1], [80000, 2]], 1, [[1, -40000]]),
        ],
        ids=["prime_divides_minor", "past_reconstruction_bound"],
    )
    def test_forced_fallback_gives_the_bareiss_answer(self, rows, rank, kernel):
        m = exact(rows)
        oracle = column_space_ops(m)
        assert certified_kernel(m.a) is None
        with elimination_counts() as counts:
            assert rank_exact(m.a) == rank == oracle.rank
            got = nullspace(m.a)
        assert got.tolist() == kernel == oracle.nullspace_basis.a.tolist()
        assert counts == {"certified": 0, "fallback": 2, "bareiss": 2}
        with elimination_counts() as counts:
            assert span_rank(m.a) == rank
            assert in_span(m.a[:1], m.a[1:]) == (rank == 1)
        assert counts["fallback"] >= 1 and counts["bareiss"] == counts["fallback"]

    def test_counts_only_inside_the_block(self):
        m = exact([[1, 2], [2, 4]])
        assert rank_exact(m.a) == 1
        with elimination_counts() as counts:
            assert rank_exact(m.a) == 1
            with elimination_counts() as inner:
                column_space_ops(m)
        assert counts == {"certified": 1, "fallback": 0, "bareiss": 0}
        assert inner == {"certified": 0, "fallback": 0, "bareiss": 1}

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_small_prime_never_passes_a_wrong_rank(self, p):
        # mod a small prime ranks collapse often; every certificate that
        # passes must still give the rational answer
        rng = random.Random(p)
        for _ in range(60):
            a = np.array(random_int_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), -3, 3),
                         dtype=object)
            found = certified_kernel(a, p)
            if found is not None:
                assert found[0] == bareiss_rank(a)
                assert not np.dot(a, found[1].T.astype(object)).any()


class TestHelpers:
    def test_primitive_int_vector(self):
        v = primitive_int_vector([Fraction(1, 2), Fraction(3, 4), 0])
        assert v.tolist() == [2, 3, 0]
        v = primitive_int_vector([-2, -4, 6])
        assert v.tolist() == [1, 2, -3]
        assert primitive_int_vector([0, 0]).tolist() == [0, 0]


def verify_pack_counts(monkeypatch, tmp_path, budget):
    """Calls of `pack_words` and the bits they pack, products started and
    blocks streamed during one `verify --suite all` run at J_2(5,2),
    with blocks of at most `budget` bytes."""
    from qgrass import nucleus
    from qgrass.cli import main

    counts = {"packs": 0, "bits": 0, "products": 0, "blocks": 0}
    real_pack, real_pair, real_stream = linalg.pack_words, linalg._packed_pair, linalg._stream

    def pack(m):
        counts["packs"] += 1
        counts["bits"] += m.size
        return real_pack(m)

    def pair(a, b, inner):
        counts["products"] += 1
        return real_pair(a, b, inner)

    def stream(pa, pb, inner):
        for item in real_stream(pa, pb, inner):
            counts["blocks"] += 1
            yield item

    with monkeypatch.context() as mp:
        for module in (linalg, nucleus):
            mp.setattr(module, "pack_words", pack)
        mp.setattr(linalg, "_packed_pair", pair)
        mp.setattr(linalg, "_stream", stream)
        mp.setattr(linalg, "_BLOCK_BYTES", budget)
        argv = ["verify", "--q", "2", "--n", "5", "--d", "2", "--suite", "all",
                "--out", str(tmp_path / f"report_{budget}.json")]
        assert main(argv) == 0
    return counts


def test_verify_packs_each_operand_once_per_product(monkeypatch, tmp_path):
    # cutting the run into many more blocks packs nothing more: each
    # operand is packed at most once per product, not per block, and the
    # callers that read distances a row block at a time (one product per
    # block) pack each class of a block once, so the bits packed stay
    wide = verify_pack_counts(monkeypatch, tmp_path, 1 << 20)
    narrow = verify_pack_counts(monkeypatch, tmp_path, 1 << 11)
    assert narrow["blocks"] > 2 * wide["blocks"] > 0
    assert narrow["bits"] == wide["bits"] > 0
    for counts in (wide, narrow):
        assert counts["packs"] <= 2 * counts["products"]
