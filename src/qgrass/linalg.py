"""Exact dense linear algebra over the rationals.

Entries are Python ints and Fractions held in numpy object arrays.
Integer products go through one kernel, `exact_int_product`: a checked
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


def exact_int_product(
    a: np.ndarray, b: np.ndarray, inner: int, amax=None, bmax=None
) -> np.ndarray:
    """Exact product of two integer arrays (int64, or object arrays of
    Python ints) sharing the dimension `inner`.

    Every partial sum of a row-by-column dot product is bounded by
    inner * amax * bmax, with amax and bmax the largest absolute entries
    (computed when not given).  Below 2^62 the product runs in int64 and
    cannot overflow, and the result is an int64 array; otherwise it
    falls back to Python ints and the result is an object array.
    """
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


class ExactVector:
    """Length-n vector of exact entries."""

    __slots__ = ("a",)

    def __init__(self, entries, validate: bool = False):
        if isinstance(entries, np.ndarray) and entries.dtype == object and entries.ndim == 1:
            self.a = entries
        else:
            self.a = np.array(list(entries), dtype=object)
        if validate:
            _validate_entries(self.a)

    @staticmethod
    def zeros(n: int) -> "ExactVector":
        return ExactVector(np.full(n, 0, dtype=object))

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i):
        return self.a[i]

    def __add__(self, other: "ExactVector") -> "ExactVector":
        if self.n != other.n:
            raise DimensionMismatch(f"vector sizes {self.n} and {other.n}")
        return ExactVector(self.a + other.a)

    def __sub__(self, other: "ExactVector") -> "ExactVector":
        if self.n != other.n:
            raise DimensionMismatch(f"vector sizes {self.n} and {other.n}")
        return ExactVector(self.a - other.a)

    def __mul__(self, scalar) -> "ExactVector":
        return ExactVector(self.a * scalar)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExactVector)
            and self.n == other.n
            and bool((self.a == other.a).all())
        )

    def __hash__(self):
        return hash(tuple(self.a.tolist()))

    def is_zero(self) -> bool:
        return bool((self.a == 0).all())

    def nonzero_indices(self):
        return [i for i, v in enumerate(self.a) if v != 0]

    def dot(self, other: "ExactVector"):
        if self.n != other.n:
            raise DimensionMismatch(f"vector sizes {self.n} and {other.n}")
        return sum(x * y for x, y in zip(self.a, other.a))

    def tolist(self) -> list:
        return list(self.a)

    def __repr__(self) -> str:
        return f"ExactVector({self.tolist()!r})"


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

    @staticmethod
    def from_columns(cols: list[ExactVector]) -> "ExactMatrix":
        if not cols:
            raise DimensionMismatch("no columns given")
        n = cols[0].n
        a = np.empty((n, len(cols)), dtype=object)
        for j, c in enumerate(cols):
            if c.n != n:
                raise DimensionMismatch("column lengths differ")
            a[:, j] = c.a
        return ExactMatrix(a)

    # -- basic structure ------------------------------------------------
    @property
    def shape(self):
        return self.a.shape

    @property
    def T(self) -> "ExactMatrix":
        return ExactMatrix(self.a.T.copy(), _intmax=self._intmax)

    def col(self, j: int) -> ExactVector:
        return ExactVector(self.a[:, j].copy())

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
        if isinstance(other, ExactVector):
            if self.shape[1] != other.n:
                raise DimensionMismatch(f"{self.shape} @ vector of {other.n}")
            return ExactVector(self._product(other.a.reshape(-1, 1), None)[:, 0])
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.shape[1] != other.shape[0]:
            raise DimensionMismatch(f"{self.shape} @ {other.shape}")
        return ExactMatrix(self._product(other.a, other))

    def _product(self, b: np.ndarray, other) -> np.ndarray:
        k = self.shape[1]
        if k == 0 or self.shape[0] == 0 or b.shape[1] == 0:
            return np.full((self.shape[0], b.shape[1]), 0, dtype=object)
        am = self._int_max()
        bm = other._int_max() if other is not None else _int_max_of(b)
        if am is False or bm is False:
            return np.dot(self.a, b)
        c = exact_int_product(self.a, b, k, am, bm)
        return c if c.dtype == object else _as_python_int_array(c)

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
        """Return (M_int, den) with M = M_int / den and M_int integral."""
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


def _int_max_of(arr: np.ndarray):
    m = 0
    for v in arr.flat:
        if type(v) is int:
            av = -v if v < 0 else v
            if av > m:
                m = av
        else:
            return False
    return m


def primitive_int_vector(entries) -> ExactVector:
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
    return ExactVector(np.array(ints, dtype=object))


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
    column_basis: list[ExactVector]
    nullspace_basis: list[ExactVector]


def _nullspace_from_echelon(ech: np.ndarray, rank: int, pivots: list[int], ncols: int):
    """Back-substitute one basis vector per free column, as exact
    Fractions, then normalize to primitive integer vectors."""
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    out = []
    for f in free:
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
        out.append(primitive_int_vector(vec))
    return out


def column_space_ops(
    m: ExactMatrix, want_nullspace: bool = True, check_nullspace: bool = True
) -> ColumnSpaceResult:
    """Rank, a column basis, and an integer nullspace basis.

    The column basis consists of the original columns of m at the pivot
    positions, normalized to primitive integer vectors (an exact member
    of the column space either way).  Each nullspace vector is verified
    against m exactly unless check_nullspace is False.
    """
    scaled, _den = m.to_int_scaled()
    work = scaled.a.copy()
    rank, pivots = _bareiss_echelon(work)
    basis = [primitive_int_vector(m.a[:, c]) for c in pivots]
    nullspace: list[ExactVector] = []
    if want_nullspace:
        nullspace = _nullspace_from_echelon(work, rank, pivots, m.shape[1])
        if check_nullspace:
            for v in nullspace:
                if not (m @ v).is_zero():
                    raise ArithmeticError("nullspace vector fails m @ v = 0")
    return ColumnSpaceResult(rank, list(pivots), basis, nullspace)


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


def intersect_column_spaces(
    basis_a: list[ExactVector], basis_b: list[ExactVector], length: int | None = None
) -> list[ExactVector]:
    """Basis of span(A) meet span(B), from the nullspace of [A | -B].

    A nullspace vector (a, b) satisfies A a = B b, so A a runs over the
    intersection; the images are reduced to a basis of primitive integer
    vectors.
    """
    if not basis_a or not basis_b:
        return []
    n = basis_a[0].n
    if length is not None and length != n:
        raise DimensionMismatch("basis vectors have unexpected length")
    a_mat = ExactMatrix.from_columns(basis_a)
    b_mat = ExactMatrix.from_columns(basis_b)
    if b_mat.shape[0] != n:
        raise DimensionMismatch("the two bases live in different spaces")
    stacked = np.concatenate([a_mat.a, -b_mat.a], axis=1)
    result = column_space_ops(ExactMatrix(stacked), check_nullspace=True)
    images = []
    for v in result.nullspace_basis:
        img = a_mat @ ExactVector(v.a[: len(basis_a)])
        if not img.is_zero():
            images.append(img)
    if not images:
        return []
    reduced = column_space_ops(ExactMatrix.from_columns(images), want_nullspace=False)
    return reduced.column_basis


def span_rank(vectors: list[ExactVector]) -> int:
    if not vectors:
        return 0
    return rank_exact(ExactMatrix.from_columns(vectors))


def in_span(basis: list[ExactVector], v: ExactVector) -> bool:
    """Exact membership test by rank comparison."""
    if v.is_zero():
        return True
    if not basis:
        return False
    r0 = span_rank(basis)
    r1 = span_rank(basis + [v])
    return r0 == r1


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
