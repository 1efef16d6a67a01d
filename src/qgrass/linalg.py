"""Exact dense linear algebra over the rationals.

The verify path hands integer numpy arrays to every function here: bool
or int64, or object arrays of Python ints where an entry or a product
would not fit the int64 guard.  Integer products go through one kernel,
`exact_int_product`, which checks that both operands have the stated
inner dimension on every branch.  A 0/1 product (bool arrays, or uint64
words already packed) is blocked in one place, `product_blocks`: each
operand is packed once into zero-padded uint64 words (`pack_words`,
the one packer of bool rows), and the popcounts of row & column words
are summed, one block of rows at a time, into the smallest unsigned
dtype that holds the inner dimension.  The product is exact because
padding bits are zero, every entry is at most the inner dimension, and
the blocks cover every row; callers reduce each block as it streams,
and `exact_int_product` assembles the blocks into an int64 array.
Other integer products take a checked int64 fast path when the
worst-case dot product provably fits in 63 bits, otherwise
arbitrary-precision object arithmetic.
Exact ranks, span tests and nullspaces are decided by one int64
elimination mod p = 2^31 - 1 (`certified_kernel`): the reduced echelon
form mod p gives a rank that can only be too low, its kernel vectors are
rebuilt as fractions and checked against the matrix by one exact
product, and that check proves the rank and the kernel over Q.  When a
certificate fails, fraction-free (Bareiss) elimination decides instead,
in exact integer arithmetic; it also serves the tests as the oracle.
Basis vectors are primitive integer vectors either way.  ExactMatrix,
Python ints and Fractions in an object array, is the operand type of
that Bareiss fallback (`column_space_ops`) and of the test-only
`intersect_column_spaces`; no ExactMatrix is built on the verify path
unless a certificate or a spectral check fails.  The connected
components of a graph given by its edge list (`component_labels`, read
by the sphere fibrations of `nucleus`) are labelled here too.  No
floating point anywhere.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from .errors import DimensionMismatch, FalsifiedFact

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


def row_blocks(rows: int, width: int, itemsize: int = 8):
    """Slices of `rows` rows such that a block of `width` entries of
    `itemsize` bytes per row stays within _BLOCK_BYTES (at least one row
    per block)."""
    step = max(1, _BLOCK_BYTES // (itemsize * max(width, 1)))
    for start in range(0, rows, step):
        yield slice(start, min(start + step, rows))


def pack_words(m: np.ndarray) -> np.ndarray:
    """The rows of a bool matrix as zero-padded uint64 words, the packed
    operand that `product_blocks` takes."""
    width = m.shape[1]
    nbytes = -(-width // 8)
    packed = np.zeros((m.shape[0], 8 * -(-width // 64)), dtype=np.uint8)
    packed[:, :nbytes] = np.packbits(np.ascontiguousarray(m), axis=1, bitorder="little")
    return packed.view(np.uint64)


def _packed_operand(m: np.ndarray, inner: int, side: str) -> np.ndarray:
    """The packed words of the rows of a (`side` "a"), or of the columns
    of b (`side` "b").  A uint64 array is taken as words already packed,
    once its shape and its zero padding are checked; a bool array is
    packed here, once."""
    words = -(-inner // 64)
    if m.ndim != 2:
        raise DimensionMismatch(f"{side} of shape {m.shape} is not a matrix")
    if m.dtype == np.uint64:
        if m.shape[1] != words:
            raise DimensionMismatch(f"packed {side} of shape {m.shape} with inner {inner}")
        if inner % 64 and m.size and (m[:, -1] >> np.uint64(inner % 64)).any():
            raise ValueError(f"packed {side} has bits set past inner {inner}")
        return m
    if (m.shape[1] if side == "a" else m.shape[0]) != inner:
        raise DimensionMismatch(f"{side} of shape {m.shape} with inner {inner}")
    return pack_words(m if side == "a" else m.T)


def _packed_pair(a: np.ndarray, b: np.ndarray, inner: int):
    """(pa, pb): the words of the rows of a, (n, words), and of the
    columns of b, held contiguous per word, (words, m)."""
    pa = _packed_operand(a, inner, "a")
    pb = np.ascontiguousarray(_packed_operand(b, inner, "b").T)
    return pa, pb


def _stream(pa: np.ndarray, pb: np.ndarray, inner: int):
    """The blocks of `product_blocks` from the packed pair: per word, an
    `&` and a popcount into preallocated temporaries, added into the
    block's accumulator.  The word of each row is first broadcast into
    the temporary, since numpy's `&` of two contiguous rows is several
    times faster than of a row and a broadcast column."""
    n, m = pa.shape[0], pb.shape[1]
    acc_dtype = np.min_scalar_type(inner)
    step = next(row_blocks(n, m), slice(0, 0)).stop
    tmp = np.empty((step, m), dtype=np.uint64)
    cnt = np.empty((step, m), dtype=np.uint8)
    for rows in row_blocks(n, m):
        k = rows.stop - rows.start
        acc = np.zeros((k, m), dtype=acc_dtype)
        t, c = tmp[:k], cnt[:k]
        for w in range(pb.shape[0]):
            np.copyto(t, pa[rows, w, None])
            np.bitwise_and(t, pb[w], out=t)
            np.bitwise_count(t, out=c)
            np.add(acc, c, out=acc)
        yield rows, acc


def product_blocks(a: np.ndarray, b: np.ndarray, inner: int):
    """The 0/1 product a @ b as an iterator of (rows, block) pairs:
    `rows` a slice of the rows of a and `block` the exact product of
    those rows with b, a fresh array that the caller may keep.  Callers
    reduce each block as it comes, so no n x m result is held unless
    they keep one.

    `a` is a bool (n, inner) matrix or the packed words of its rows; `b`
    is a bool (inner, m) matrix or the packed words of its columns, so a
    point-incidence Gram product takes one table's words twice.  Packed
    words are uint64 arrays of shape (count, ceil(inner / 64)), bit t of
    a row in bit t % 64 of word t // 64, as `pack_words` and
    `SubspaceTable.words` lay them out.  Shapes are checked and each
    operand is packed once, when this is called; the words of b are
    held contiguous per word, (words, m).

    Proof obligation.  For 0/1 entries bit t of row & col is set exactly
    when both factors of the t-th term of the dot product are 1, so the
    popcount summed over the words is the dot product, provided:
    - padding bits are zero: `pack_words` pads with zero bytes, and a
      packed operand with a bit set past `inner` is refused;
    - every entry fits the accumulator: an entry counts at most `inner`
      terms, the accumulator is the smallest unsigned dtype holding
      `inner`, and one word's popcount (at most 64) fits its uint8;
    - the blocks cover every row: they are `row_blocks(n, m)`, which
      keeps a block's uint64 temporary near _BLOCK_BYTES.
    """
    return _stream(*_packed_pair(a, b, inner), inner)


def exact_int_product(
    a: np.ndarray, b: np.ndarray, inner: int, amax=None, bmax=None
) -> np.ndarray:
    """Exact product of two integer arrays (bool, int64, or object arrays
    of Python ints) sharing the dimension `inner`; raises
    DimensionMismatch unless a has `inner` columns and b `inner` rows.

    When both operands are 0/1 (bool arrays, or packed words as
    `product_blocks` takes them) the int64 result is assembled from the
    blocks of `product_blocks`.  Its proof obligation: padding bits are
    zero, every entry is at most `inner` and so fits the accumulator,
    and the blocks cover every row (details in its docstring).

    Otherwise every partial sum of a row-by-column dot product is
    bounded by inner * amax * bmax, with amax and bmax the largest
    absolute entries (computed when not given).  Below 2^62 the product
    runs in int64 and cannot overflow, and the result is an int64 array;
    otherwise it falls back to Python ints and the result is an object
    array.  The bound trusts `inner`, hence the shape check.
    """
    zero_one = (np.dtype(bool), np.dtype(np.uint64))
    if a.dtype in zero_one and b.dtype in zero_one:
        pa, pb = _packed_pair(a, b, inner)
        out = np.empty((pa.shape[0], pb.shape[1]), dtype=np.int64)
        for rows, block in _stream(pa, pb, inner):
            out[rows] = block
        return out
    if np.uint64 in (a.dtype, b.dtype):
        raise TypeError("packed words multiply only 0/1 operands")
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != inner or b.shape[0] != inner:
        raise DimensionMismatch(f"{a.shape} @ {b.shape} with inner {inner}")
    if amax is None:
        amax = _abs_max(a)
    if bmax is None:
        bmax = _abs_max(b)
    if inner * max(amax, 1) * max(bmax, 1) < _INT64_BOUND:
        return a.astype(np.int64, copy=False) @ b.astype(np.int64, copy=False)
    return np.dot(a.astype(object, copy=False), b.astype(object, copy=False))


class ExactMatrix:
    """m x n matrix of exact entries (Python ints and Fractions) in a 2-D
    numpy object array: the operand type of Bareiss elimination
    (`column_space_ops`) and of `intersect_column_spaces`."""

    __slots__ = ("a", "_intmax")

    def __init__(self, a: np.ndarray, _intmax=None):
        if not (isinstance(a, np.ndarray) and a.dtype == object and a.ndim == 2):
            raise TypeError("an ExactMatrix holds a 2-D object array")
        self.a = a
        self._intmax = _intmax

    @staticmethod
    def from_int_array(arr: np.ndarray) -> "ExactMatrix":
        """The entries of a 2-D bool, integer or Python-int object array
        as Python ints, with the integrality cache filled."""
        if arr.dtype != object:
            arr = arr.astype(np.int64, copy=False)
        return ExactMatrix(_as_python_int_array(arr), _intmax=_abs_max(arr))

    @staticmethod
    def zeros(m: int, n: int) -> "ExactMatrix":
        return ExactMatrix(np.full((m, n), 0, dtype=object), _intmax=0)

    # -- basic structure ------------------------------------------------
    @property
    def shape(self):
        return self.a.shape

    @property
    def T(self) -> "ExactMatrix":
        return ExactMatrix(self.a.T.copy(), _intmax=self._intmax)

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


def column_space_ops(m: ExactMatrix, want_nullspace: bool = True) -> ColumnSpaceResult:
    """Rank, pivot columns, and an integer nullspace basis, by Bareiss
    elimination: the fallback where `certified_kernel` fails, and the
    oracle it is tested against.

    The original columns of m at the pivot positions are a basis of its
    column space.  The nullspace basis is verified against m exactly,
    by one product.
    """
    _count("bareiss")
    scaled, _den = m.to_int_scaled()
    work = scaled.a.copy()
    rank, pivots = _bareiss_echelon(work)
    nullspace = ExactMatrix.zeros(0, m.shape[1])
    if want_nullspace:
        nullspace = _nullspace_from_echelon(work, rank, pivots, m.shape[1])
        if not (m @ nullspace.T).is_zero():
            raise FalsifiedFact("nullspace vector fails m @ v = 0")
    return ColumnSpaceResult(rank, list(pivots), nullspace)


# ---------------------------------------------------------------------------
# certified elimination mod p

RANK_CERT_PRIME = 2**31 - 1

# Counts of the eliminations that decided a rank or a kernel, for the
# `elimination_counts` block that is open, if any.
_COUNTS: ContextVar[dict | None] = ContextVar("qgrass_elimination_counts", default=None)


@contextmanager
def elimination_counts():
    """Count, inside the block, the ranks and kernels decided by
    `certified_kernel` ("certified"), its failed certificates
    ("fallback") and the Bareiss eliminations run ("bareiss": each
    fallback, and every direct `column_space_ops` call)."""
    counts = {"certified": 0, "fallback": 0, "bareiss": 0}
    token = _COUNTS.set(counts)
    try:
        yield counts
    finally:
        _COUNTS.reset(token)


def _count(key: str) -> None:
    counts = _COUNTS.get()
    if counts is not None:
        counts[key] += 1


def int_operand(m: np.ndarray):
    """(a, amax): the entries of a bool, integer or Python-int object
    array as an int64 array when they fit the product guard and as
    Python ints otherwise, with their largest absolute value.  Any other
    entry (a float, a Fraction, a bool object) raises TypeError."""
    if m.dtype == object:
        if not all(type(v) is int for v in m.flat):
            raise TypeError("an integer array is needed")
    elif m.dtype != bool and not np.issubdtype(m.dtype, np.integer):
        raise TypeError(f"an integer array is needed, not {m.dtype}")
    amax = _abs_max(m)
    if m.dtype == object and amax >= _INT64_BOUND:
        return m, amax
    return m.astype(np.int64, copy=False), amax


def _elimination_operand(m: np.ndarray):
    """(a, amax) as `int_operand` gives them, but a bool array kept as
    it is, with amax 1: `_residues` converts it once, and
    `exact_int_product` takes it."""
    return (m, 1) if m.dtype == bool else int_operand(m)


def _residues(a: np.ndarray, p: int) -> np.ndarray:
    """The entries of an `_elimination_operand` mod p, as a fresh int64
    array and the only copy made: 0/1 entries lie in [0, p) already, so
    a bool array is converted once and not reduced."""
    if a.dtype == bool:
        return a.astype(np.int64)
    return (a % p).astype(np.int64, copy=False)


def echelon_mod_p(a: np.ndarray, p: int, reduced: bool) -> list[int]:
    """In place: the row echelon form over F_p of an int64 array of
    residues in [0, p), each pivot scaled to 1, and reduced (zero above
    every pivot as well) when `reduced`.  Returns the pivot columns;
    the rows past their count end zero.  The reduced form is unique to
    the row space, which is how `subspaces.GeometryContext` brings the
    base vertex to its table rows (p = q).

    Entries stay in [0, p) after each step, and (p - 1)^2 + p < 2^63
    for p < 2^31, so the int64 updates cannot overflow."""
    rows = a.shape[0]
    pivots: list[int] = []
    for c in range(a.shape[1]):
        r = len(pivots)
        if r == rows:
            break
        nz = a[r:, c].nonzero()[0]
        if not nz.size:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        row = a[r, c:]
        row *= pow(int(row[0]), p - 2, p)
        row %= p
        if reduced:
            hit = a[:, c].nonzero()[0]
            hit = hit[hit != r]
        else:
            hit = r + 1 + a[r + 1 :, c].nonzero()[0]
        if hit.size:
            block = a[hit, c:]
            block -= block[:, :1] * row
            block %= p
            a[hit, c:] = block
        pivots.append(c)
    return pivots


def rank_mod_prime(m, p: int = RANK_CERT_PRIME) -> int:
    """Rank of an integer matrix over F_p by vectorized elimination.

    Always a lower bound for the rational rank; the caller supplies the
    argument that promotes it to equality (reduction mod p can only
    collapse rows).  m is a bool, integer or Python-int object array.
    """
    return len(echelon_mod_p(_residues(_elimination_operand(m)[0], p), p, reduced=False))


def _reconstruct(x: np.ndarray, p: int):
    """(num, den), int64 arrays with num = den * x (mod p), |num| <= B
    and 0 < den <= B for B = isqrt((p - 1) / 2), entry by entry; None
    when some entry has no such fraction.

    The extended Euclidean algorithm on (p, x), run on all entries at
    once, keeps r = s x (mod p) for each remainder r and its cofactor s,
    and stops at the first remainder <= B.  Since 2 B^2 < p, at most one
    fraction of that size matches x, and this one is it when any does
    (Wang's rational reconstruction).  |s| stays below p, so the
    updates fit int64."""
    bound = math.isqrt((p - 1) // 2)
    r0 = np.full(x.shape, p, dtype=np.int64)
    r1 = x.copy()
    s0 = np.zeros(x.shape, dtype=np.int64)
    s1 = np.ones(x.shape, dtype=np.int64)
    live = r1 > bound
    while live.any():
        quot = r0[live] // r1[live]
        r0[live], r1[live] = r1[live], r0[live] - quot * r1[live]
        s0[live], s1[live] = s1[live], s0[live] - quot * s1[live]
        live = r1 > bound
    sign = np.where(s1 < 0, -1, 1)
    num, den = r1 * sign, s1 * sign
    if not ((den > 0) & (den <= bound)).all():
        return None
    return num, den


def _kernel_rows(num, den, pivots: list[int], free: np.ndarray, n: int) -> np.ndarray:
    """One integer kernel row per free column f: num / den on the pivot
    columns and 1 on f, times the least common denominator of the row,
    then divided by its content and signed so that the first nonzero
    entry is positive, as `primitive_int_vector` does.  int64 when every
    entry fits, Python ints otherwise."""
    k = len(free)
    scale = [math.lcm(*row) for row in den.tolist()]
    top = max(scale, default=1) * max(_abs_max(num), 1)
    dtype = np.int64 if top < _INT64_BOUND else object
    if dtype is object:
        num, den = num.astype(object), den.astype(object)
    lcd = np.array(scale, dtype=dtype)
    out = np.zeros((k, n), dtype=dtype)
    out[:, pivots] = num * (lcd[:, None] // den)
    out[np.arange(k), free] = lcd
    out //= np.gcd.reduce(out, axis=1)[:, None]
    first = out[np.arange(k), (out != 0).argmax(axis=1)]
    return out * np.where(first < 0, -1, 1)[:, None]


def certified_kernel(m, p: int = RANK_CERT_PRIME):
    """(rank, K) for an integer matrix m with n columns: its rank over Q
    and the rows of K a basis of its kernel over Q, primitive integer
    vectors; None when the certificate below fails, and then the caller
    falls back to Bareiss (`column_space_ops`).  m is a bool, integer or
    Python-int object array, and p a prime below 2^31, so that
    `echelon_mod_p` cannot overflow.

    The reduced row echelon form of m mod p gives rank_p and, for each
    free (non-pivot) column f, the kernel vector mod p that is 1 on f, 0
    on the other free columns and minus column f of the echelon form on
    the pivot columns.  Each pivot entry is rebuilt as a fraction by
    `_reconstruct`, the denominators of each row are cleared, and
    m K^T = 0 is checked exactly by `exact_int_product`.

    Proof obligation.  rank_p <= rank_Q always: a minor that vanishes
    over Q vanishes mod p.  K has n - rank_p rows, and they are
    independent, since row f is a nonzero multiple of the unit on its
    own free column and zero on the other free columns.  Each row lies
    in ker_Q by the exact product.  So dim ker_Q >= n - rank_p, that is
    rank_Q <= rank_p, hence rank_Q = rank_p and K, with dim ker_Q rows,
    is a basis of ker_Q.  When m has full column rank mod p the kernel
    is empty and nothing is rebuilt or checked.  Any failure (an entry
    past the reconstruction bound, a nonzero product because p divides
    a minor, or a rebuilt fraction that is not the rational entry)
    returns None; no wrong rank or kernel is ever returned.
    """
    ints, amax = _elimination_operand(m)
    n = ints.shape[1]
    ech = _residues(ints, p)
    pivots = echelon_mod_p(ech, p, reduced=True)
    rank = len(pivots)
    is_free = np.ones(n, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    if not free.size:
        return rank, np.zeros((0, n), dtype=np.int64)
    fractions = _reconstruct((p - ech[:rank, free].T) % p, p)
    del ech  # a bool m is converted again for the product: one copy at a time
    if fractions is None:
        return None
    kernel = _kernel_rows(*fractions, pivots, free, n)
    if exact_int_product(ints, kernel.T, n, amax=amax).any():
        return None
    return rank, kernel


def _certified(m: np.ndarray):
    """`certified_kernel` of m, counted as certified or as a fallback."""
    found = certified_kernel(m)
    _count("fallback" if found is None else "certified")
    return found


def nullspace(m: np.ndarray) -> np.ndarray:
    """A basis of the kernel of an integer array (as `certified_kernel`
    takes it), as the rows of an integer array: certified mod p when
    `certified_kernel` succeeds, the Bareiss nullspace otherwise."""
    found = _certified(m)
    if found is not None:
        return found[1]
    return column_space_ops(ExactMatrix.from_int_array(m)).nullspace_basis.a


def rank_exact(m: np.ndarray) -> int:
    """The rank over Q of an integer array, by `certified_kernel` of m or
    of m^T, whichever has fewer columns, so that the elimination loop is
    short and a full rank needs no kernel; Bareiss when the certificate
    fails."""
    if m.shape[1] > m.shape[0]:
        m = m.T
    found = _certified(m)
    if found is not None:
        return found[0]
    return column_space_ops(ExactMatrix.from_int_array(m), want_nullspace=False).rank


def intersect_column_spaces(a_mat: ExactMatrix, b_mat: ExactMatrix) -> ExactMatrix:
    """Basis of col(A) meet col(B), as the columns of the result, from
    the nullspace of [A | -B].

    A nullspace vector (u, w) satisfies A u = B w, so A u runs over the
    intersection; the pivot columns among these images are a basis, each
    normalized to a primitive integer vector.  The verify path does not
    call it; the tests intersect dense column spaces with it as an
    oracle for the nucleus pieces.
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


def span_rank(*families: np.ndarray) -> int:
    """Dimension of the span of the rows of all the given integer arrays
    (bool, int64 or Python ints, mixed freely)."""
    return rank_exact(np.concatenate([int_operand(f)[0] for f in families]))


def in_span(basis: np.ndarray, vectors: np.ndarray) -> bool:
    """Whether every row of `vectors` lies in the row span of `basis`,
    by one rank comparison."""
    return span_rank(basis) == span_rank(basis, vectors)


def component_labels(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Label of each vertex 0..n-1 of the graph with edges (a[e], b[e]):
    the least vertex of its component, by min-label propagation.

    The edges are read both ways and sorted by source once.  A round
    gives every vertex the least label among its own and its
    neighbours' (one `np.minimum.reduceat` over the sorted edges), then
    jumps pointers, lab = lab[lab], until they settle; rounds repeat
    until no label changes.

    Proof obligation.  A label is always a vertex of the same component
    (so is a neighbour's label, and a label's label), and labels never
    rise, so the rounds end.  At the end no edge joins two labels, so
    the label is constant on a component; its least vertex m can only
    carry label m, so that constant is m.  Hence the roots, the vertices
    with lab == arange, are one per component.
    """
    lab = np.arange(n)
    if not len(a):
        return lab
    src = np.concatenate([a, b])
    order = np.argsort(src, kind="stable")
    src, dst = src[order], np.concatenate([b, a])[order]
    starts = np.flatnonzero(np.concatenate([[True], src[1:] != src[:-1]]))
    owners = src[starts]
    while True:
        new = lab.copy()
        new[owners] = np.minimum(lab[owners], np.minimum.reduceat(lab[dst], starts))
        while True:
            jumped = new[new]
            if (jumped == new).all():
                break
            new = jumped
        if (new == lab).all():
            return lab
        lab = new
