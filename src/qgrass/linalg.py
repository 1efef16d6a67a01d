"""Exact dense linear algebra over the rationals.

Entries are Python ints and Fractions held in numpy object arrays.
Integer products go through one kernel, `exact_int_product`: popcounts
of bit-packed rows when both operands are 0/1 (`bool`) arrays, a checked
int64 fast path when the worst-case dot product provably fits in 63
bits, otherwise arbitrary-precision object arithmetic.
Elimination is fraction-free (Bareiss), so pivots and updates stay in
exact integer arithmetic, and emitted basis vectors are normalized to
primitive integer vectors.  No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from .errors import DimensionMismatch

_INT64_BOUND = 2**62


def _as_python_int_array(arr: np.ndarray) -> np.ndarray:
    """Object array of genuine Python ints from an int64 array, so later
    arbitrary-precision arithmetic cannot overflow silently."""
    out = arr.astype(object)
    if out.size and not type(out.flat[0]) is int:
        out = np.array(arr.tolist(), dtype=object).reshape(arr.shape)
    return out


def _abs_max(arr: np.ndarray) -> int:
    if not arr.size:
        return 0
    if arr.dtype == object:
        return max(abs(v) for v in arr.flat)
    return int(np.abs(arr).max())


# Largest temporary, in bytes, of one block of a bit-packed product.
_BLOCK_BYTES = 1 << 20


def row_blocks(rows: int, width: int):
    """Slices of `rows` rows such that a block of `width` 8-byte entries
    per row stays within _BLOCK_BYTES (at least one row per block)."""
    step = max(1, _BLOCK_BYTES // (8 * max(width, 1)))
    for start in range(0, rows, step):
        yield slice(start, min(start + step, rows))


def _pack_rows(m: np.ndarray) -> np.ndarray:
    """Rows of a bool matrix as zero-padded uint64 words."""
    rows, cols = m.shape
    words = -(-cols // 64)
    packed = np.zeros((rows, 8 * words), dtype=np.uint8)
    packed[:, : -(-cols // 8)] = np.packbits(m, axis=1, bitorder="little")
    return packed.view(np.uint64)


def _bool_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    pa = _pack_rows(a)
    pb = _pack_rows(b.T)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for rows in row_blocks(a.shape[0], b.shape[1]):
        block = out[rows]
        for w in range(pa.shape[1]):
            block += np.bitwise_count(pa[rows, w, None] & pb[None, :, w])
    return out


def exact_int_product(
    a: np.ndarray, b: np.ndarray, inner: int, amax=None, bmax=None
) -> np.ndarray:
    """Exact product of two integer arrays (bool, int64, or object arrays
    of Python ints) sharing the dimension `inner`.

    When both operands are bool arrays, the rows of `a` and the columns
    of `b` are packed into zero-padded uint64 words and each entry is
    the popcount of their bitwise and, summed over the words, in row
    blocks whose temporaries stay near 1 MiB.  For 0/1 entries a bit of
    `row & col` is set exactly when both factors of a term of the dot
    product are 1, so the popcount is the dot product; padding bits are
    0 in both operands and add nothing; the count is at most `inner`,
    so the int64 result is exact.

    Otherwise every partial sum of a row-by-column dot product is
    bounded by inner * amax * bmax, with amax and bmax the largest
    absolute entries (computed when not given).  Below 2^62 the product
    runs in int64 and cannot overflow, and the result is an int64 array;
    otherwise it falls back to Python ints and the result is an object
    array.
    """
    if a.dtype == bool and b.dtype == bool:
        if a.shape[1] != inner or b.shape[0] != inner:
            raise DimensionMismatch(f"{a.shape} @ {b.shape} with inner {inner}")
        return _bool_product(a, b)
    if amax is None:
        amax = _abs_max(a)
    if bmax is None:
        bmax = _abs_max(b)
    if inner * max(amax, 1) * max(bmax, 1) < _INT64_BOUND:
        return a.astype(np.int64, copy=False) @ b.astype(np.int64, copy=False)
    return np.dot(a.astype(object, copy=False), b.astype(object, copy=False))


def _validate_entries(a: np.ndarray) -> None:
    for v in a.flat:
        if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
            raise TypeError(f"exact matrices hold int or Fraction entries, got {type(v)}")


class ExactMatrix:
    """m x n matrix of exact entries in a numpy object array."""

    __slots__ = ("a", "_intmax")

    def __init__(self, a, validate: bool = False, _intmax=None):
        if isinstance(a, np.ndarray) and a.dtype == object and a.ndim == 2:
            self.a = a
        else:
            rows = [list(r) for r in a]
            arr = np.empty((len(rows), len(rows[0]) if rows else 0), dtype=object)
            for i, r in enumerate(rows):
                arr[i, :] = r
            self.a = arr
        if validate:
            _validate_entries(self.a)
        self._intmax = _intmax

    # -- constructors ---------------------------------------------------
    @staticmethod
    def from_rows(rows) -> "ExactMatrix":
        return ExactMatrix(rows, validate=True)

    @staticmethod
    def from_int_array(arr: np.ndarray) -> "ExactMatrix":
        """The entries of a 2-D bool or integer array as Python ints,
        with the integrality cache filled."""
        return ExactMatrix(
            _as_python_int_array(arr.astype(np.int64, copy=False)), _intmax=_abs_max(arr)
        )

    @staticmethod
    def zeros(m: int, n: int) -> "ExactMatrix":
        return ExactMatrix(np.full((m, n), 0, dtype=object), _intmax=0)

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        a = np.full((n, n), 0, dtype=object)
        for i in range(n):
            a[i, i] = 1
        return ExactMatrix(a, _intmax=1)

    @staticmethod
    def from_class_values(class_matrix: np.ndarray, values: dict) -> "ExactMatrix":
        """Matrix whose (y, z) entry is values[class_matrix[y, z]].

        The assigned objects are shared across entries, which keeps
        class-constant matrices (idempotents, distance matrices) cheap.
        When every value is an int, the integrality cache is filled from
        the values, so products need no scan of the entries.
        """
        a = np.empty(class_matrix.shape, dtype=object)
        seen = np.zeros(class_matrix.shape, dtype=bool)
        present = []
        for cls, val in values.items():
            sel = class_matrix == cls
            a[sel] = val
            seen |= sel
            if sel.any():
                present.append(val)
        if not seen.all():
            raise ValueError("class matrix holds classes without a value")
        intmax = None
        if all(type(v) is int for v in present):
            intmax = max((abs(v) for v in present), default=0)
        return ExactMatrix(a, _intmax=intmax)

    # -- basic structure ------------------------------------------------
    @property
    def shape(self):
        return self.a.shape

    @property
    def T(self) -> "ExactMatrix":
        return ExactMatrix(self.a.T.copy(), _intmax=self._intmax)

    def __getitem__(self, key):
        return self.a[key]

    # -- integrality cache ----------------------------------------------
    def _int_max(self):
        """Largest absolute entry when all entries are ints, else False."""
        if self._intmax is None:
            m = 0
            ok = True
            for v in self.a.flat:
                if type(v) is int:
                    av = -v if v < 0 else v
                    if av > m:
                        m = av
                elif isinstance(v, Fraction) or isinstance(v, bool):
                    ok = False
                    break
                elif isinstance(v, (int, np.integer)):
                    av = int(abs(v))
                    if av > m:
                        m = av
                else:
                    ok = False
                    break
            self._intmax = m if ok else False
        return self._intmax

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.shape != other.shape:
            raise DimensionMismatch(f"shapes {self.shape} and {other.shape}")
        return ExactMatrix(self.a + other.a)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.shape != other.shape:
            raise DimensionMismatch(f"shapes {self.shape} and {other.shape}")
        return ExactMatrix(self.a - other.a)

    def __mul__(self, scalar) -> "ExactMatrix":
        return ExactMatrix(self.a * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix(-self.a)

    def __matmul__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.shape[1] != other.shape[0]:
            raise DimensionMismatch(f"{self.shape} @ {other.shape}")
        k = self.shape[1]
        if k == 0 or self.shape[0] == 0 or other.shape[1] == 0:
            return ExactMatrix.zeros(self.shape[0], other.shape[1])
        am = self._int_max()
        bm = other._int_max()
        if am is False or bm is False:
            return ExactMatrix(np.dot(self.a, other.a))
        c = exact_int_product(self.a, other.a, k, am, bm)
        return ExactMatrix(c if c.dtype == object else _as_python_int_array(c))

    def trace(self):
        if self.shape[0] != self.shape[1]:
            raise DimensionMismatch("trace of a non-square matrix")
        return sum(self.a[i, i] for i in range(self.shape[0]))

    def equals(self, other: "ExactMatrix") -> bool:
        return (
            isinstance(other, ExactMatrix)
            and self.shape == other.shape
            and bool((self.a == other.a).all())
        )

    def is_zero(self) -> bool:
        return bool((self.a == 0).all())

    def to_int_scaled(self):
        """Return (M_int, den) with M = M_int / den and M_int integral;
        an integral matrix is returned as is."""
        if self._int_max() is not False:
            return self, 1
        den = 1
        for v in self.a.flat:
            if isinstance(v, Fraction):
                den = den * v.denominator // gcd(den, v.denominator)
        if den == 1:
            out = np.empty(self.shape, dtype=object)
            flat_out = out.reshape(-1)
            for i, v in enumerate(self.a.flat):
                flat_out[i] = int(v) if isinstance(v, Fraction) else v
            return ExactMatrix(out), 1
        out = np.empty(self.shape, dtype=object)
        flat_out = out.reshape(-1)
        for i, v in enumerate(self.a.flat):
            w = v * den
            flat_out[i] = int(w) if isinstance(w, Fraction) else w
        return ExactMatrix(out), den

    def __repr__(self) -> str:
        return f"ExactMatrix(shape={self.shape})"


def primitive_int_vector(entries) -> np.ndarray:
    """Scale a rational vector to a primitive integer vector: clear
    denominators, divide by the content, make the first nonzero entry
    positive.  The zero vector stays zero."""
    vals = [Fraction(v) if not isinstance(v, Fraction) else v for v in entries]
    den = 1
    for v in vals:
        den = den * v.denominator // gcd(den, v.denominator)
    ints = [int(v * den) for v in vals]
    g = 0
    for v in ints:
        g = gcd(g, v)
        if g == 1:
            break
    if g > 1:
        ints = [v // g for v in ints]
    for v in ints:
        if v != 0:
            if v < 0:
                ints = [-w for w in ints]
            break
    return np.array(ints, dtype=object)


def _bareiss_echelon(a: np.ndarray):
    """In-place fraction-free row echelon form of an integer object
    array.  Returns (rank, pivot_columns).

    One-step Bareiss: after step k every entry of the live submatrix is
    a (k+1)-minor of the input, and the division by the previous pivot
    is exact.  When the column below a pivot is already zero the update
    degenerates to scaling by piv/prev, skipped entirely when the two
    coincide.
    """
    m, n = a.shape
    prev = 1
    r = 0
    pivots = []
    for c in range(n):
        if r == m:
            break
        col = a[r:, c]
        nz = np.flatnonzero(col != 0)
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            a[[r, p], :] = a[[p, r], :]
        piv = a[r, c]
        below = a[r + 1 :, c]
        bnz = np.flatnonzero(below != 0)
        if bnz.size == 0:
            if piv != prev and r + 1 < m and c + 1 < n:
                a[r + 1 :, c + 1 :] = a[r + 1 :, c + 1 :] * piv // prev
        else:
            tail = a[r + 1 :, c + 1 :]
            if tail.size:
                a[r + 1 :, c + 1 :] = (tail * piv - np.outer(below, a[r, c + 1 :])) // prev
            a[r + 1 :, c] = 0
        pivots.append(c)
        prev = piv
        r += 1
    return r, pivots


@dataclass
class ColumnSpaceResult:
    rank: int
    pivot_columns: list[int]
    # rows: a basis of the nullspace, as primitive integer vectors
    nullspace_basis: ExactMatrix


def _nullspace_from_echelon(ech: np.ndarray, rank: int, pivots: list[int], ncols: int):
    """Back-substitute one basis vector per free column, as exact
    Fractions, then normalize to primitive integer vectors, the rows of
    the result."""
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    out = np.full((len(free), ncols), 0, dtype=object)
    for row, f in enumerate(free):
        v = {f: Fraction(1)}
        for k in range(rank - 1, -1, -1):
            pc = pivots[k]
            if pc > f:
                continue
            s = Fraction(0)
            for c, val in v.items():
                if c > pc:
                    e = ech[k, c]
                    if e:
                        s += e * val
            if s:
                v[pc] = -s / ech[k, pc]
        vec = [v.get(c, Fraction(0)) for c in range(ncols)]
        out[row] = primitive_int_vector(vec)
    return ExactMatrix(out)


def column_space_ops(
    m: ExactMatrix, want_nullspace: bool = True, check_nullspace: bool = True
) -> ColumnSpaceResult:
    """Rank, pivot columns, and an integer nullspace basis.

    The original columns of m at the pivot positions are a basis of its
    column space.  The nullspace basis is verified against m exactly,
    by one product, unless check_nullspace is False.
    """
    scaled, _den = m.to_int_scaled()
    work = scaled.a.copy()
    rank, pivots = _bareiss_echelon(work)
    nullspace = ExactMatrix.zeros(0, m.shape[1])
    if want_nullspace:
        nullspace = _nullspace_from_echelon(work, rank, pivots, m.shape[1])
        if check_nullspace and not (m @ nullspace.T).is_zero():
            raise ArithmeticError("nullspace vector fails m @ v = 0")
    return ColumnSpaceResult(rank, list(pivots), nullspace)


def rank_exact(m: ExactMatrix) -> int:
    return column_space_ops(m, want_nullspace=False).rank


RANK_CERT_PRIME = 2**31 - 1


def rank_mod_prime(m: ExactMatrix, p: int = RANK_CERT_PRIME) -> int:
    """Rank of an integer matrix over F_p by vectorized elimination.

    Always a lower bound for the rational rank; the caller supplies the
    argument that promotes it to equality (reduction mod p can only
    collapse rows).  Entries must be integers.
    """
    if m._int_max() is False:
        raise TypeError("rank_mod_prime needs an integer matrix")
    a = (m.a % p).astype(np.int64)
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        # entries stay in [0, p); products fit int64 since (p-1)^2 < 2^63
        inv = pow(int(a[r, c]), p - 2, p)
        a[r, c:] = a[r, c:] * inv % p
        below = a[r + 1 :, c]
        mask = below != 0
        if mask.any():
            a[r + 1 :, c:][mask] = (
                a[r + 1 :, c:][mask] - np.outer(below[mask], a[r, c:])
            ) % p
        r += 1
    return r


def intersect_column_spaces(a_mat: ExactMatrix, b_mat: ExactMatrix) -> ExactMatrix:
    """Basis of col(A) meet col(B), as the columns of the result, from
    the nullspace of [A | -B].

    A nullspace vector (u, w) satisfies A u = B w, so A u runs over the
    intersection; the pivot columns among these images are a basis, each
    normalized to a primitive integer vector.
    """
    if a_mat.shape[0] != b_mat.shape[0]:
        raise DimensionMismatch("the two bases live in different spaces")
    stacked = np.concatenate([a_mat.a, -b_mat.a], axis=1)
    null = column_space_ops(ExactMatrix(stacked)).nullspace_basis
    images = a_mat @ ExactMatrix(null.a[:, : a_mat.shape[1]].T)
    pivots = column_space_ops(images, want_nullspace=False).pivot_columns
    out = np.full((a_mat.shape[0], len(pivots)), 0, dtype=object)
    for j, c in enumerate(pivots):
        out[:, j] = primitive_int_vector(images.a[:, c])
    return ExactMatrix(out)


def span_rank(*families: ExactMatrix) -> int:
    """Dimension of the span of the rows of all the given matrices."""
    return rank_exact(ExactMatrix(np.concatenate([f.a for f in families], axis=0)))


def in_span(basis: ExactMatrix, vectors: ExactMatrix) -> bool:
    """Whether every row of `vectors` lies in the row span of `basis`,
    by one rank comparison."""
    return span_rank(basis) == span_rank(basis, vectors)


def invert_fraction_matrix(rows: list[list]) -> list[list[Fraction]]:
    """Exact inverse of a small square matrix by Gauss-Jordan over
    Fractions.  Raises ArithmeticError when singular."""
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
