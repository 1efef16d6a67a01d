"""Subspaces of F_q^N as rows of the tables the verifier reads them
from.

A SubspaceTable holds every subspace of one dimension: its reduced row
echelon basis, unique to the subspace, as one small-int array sorted by
the flattened rows, and its point mask (bit p set when vector p lies in
the subspace) packed into uint64 words.  That is the one
representation of the geometry P_q(N), and this module is the one
place that turns echelon rows into point masks: a mask is the AND of
the kernels of N - l functionals read off the rows (`echelon_words`),
each a row of the kernel words of every functional of F_q^N
(`kernel_words`).  A `GeometryContext` builds that array once, when its
first table has passed its size cap check, and every table of the
geometry and the cover generator of `ladders` read it.  A subspace is a
table row: it is found by its echelon rows (`find_rows`) or by its
point words, by binary search (`find_masks`) or, for a batch of
one-word masks that holds every entry equally often, by one sort
(`match_masks`).  Pair relations become 0/1 products of the
words (`linalg.product_blocks`), the common point count of two
subspaces is q^dim of their meet (`count_dims`), and the layers P_{i,j}
and covers around a base vertex x are the arrays of
`ladders.build_poset_matrices`.  `GeometryContext` holds x as its
echelon rows, its words and its index in the table of D-subspaces, and
builds each table once per run, under its size cap; tables live only
in memory, since building one costs less than reading and checking a
stored copy would.
"""

from __future__ import annotations

import functools
from itertools import combinations

import numpy as np

from .errors import FalsifiedFact, InvalidParameters, SizeCapExceeded
from .linalg import echelon_mod_p, row_blocks
from .qarith import FieldContext, q_binomial

DEFAULT_TABLE_CAP = 20000
DEFAULT_POSET_CAP = 60000


def count_dims(q: int, top: int):
    """Dimensions from point counts, for subspaces of dimension at most
    `top`: a function taking point counts to the dimensions k with
    count == q^k, elementwise, raising FalsifiedFact (with the first
    bad count) when a count is no such power.  Its lookup is built once,
    here, so a caller classifying a streamed product builds it once per
    product; each call is one clipped gather, into int8 (the dtype of
    `GraphContext.distances`).  Entry c of the lookup is k for c = q^k
    and -1 elsewhere, including 0, which no subspace counts, and one
    entry past q^top, so clipping sends every count out of range
    (negative or above q^top) to a -1."""
    lookup = np.full(q**top + 2, -1, dtype=np.int8)
    for k in range(top + 1):
        lookup[q**k] = k

    def dims(counts) -> np.ndarray:
        counts = np.asarray(counts)
        out = lookup.take(counts, mode="clip")
        bad = out < 0
        if bad.any():
            first = int(counts.flat[int(bad.argmax(axis=None))])
            raise FalsifiedFact(f"point count {first} is not a power of {q} up to {q}^{top}")
        return out

    return dims


def all_vectors(q: int, k: int) -> np.ndarray:
    """Every vector of F_q^k as a row of a (q^k, k) small-int array, in
    the order of itertools.product(range(q), repeat=k)."""
    codes = np.arange(q**k)
    places = q ** np.arange(k - 1, -1, -1)
    return (codes[:, None] // places % q).astype(_digit_dtype(q))


def projective_points(q: int, k: int) -> np.ndarray:
    """One representative of every 1-dimensional subspace of F_q^k, the
    one whose first nonzero entry is 1: a ([k]_q, k) array."""
    vecs = all_vectors(q, k)
    nonzero = vecs != 0
    lead = vecs[np.arange(len(vecs)), nonzero.argmax(axis=1)]
    return vecs[nonzero.any(axis=1) & (lead == 1)]


def _digit_dtype(q: int):
    return np.min_scalar_type(q - 1)


def kernel_words(q: int, n: int) -> np.ndarray:
    """Packed point masks of ker g = {w : g . w = 0} for every functional
    g of F_q^N, row g for the vector of index sum_i g_i q^i, as a
    (q^N, W) uint64 array built in row blocks of g; row 0 is every point
    with zero padding.  g . w is the product of the low N // 2
    coordinates plus that of the rest, so each bit is one comparison of
    an entry of the low products with one of the negated high products."""
    npoints, h = q**n, n // 2
    width = -(-npoints // 64)
    low, high = (all_vectors(q, k)[:, ::-1].astype(np.int64) for k in (h, n - h))
    low, neg_high = low @ low.T % q, (q - high @ high.T % q) % q
    out = np.empty((npoints, width), dtype=np.uint64)
    for blk in row_blocks(npoints, 16 * width):
        g = np.arange(blk.start, blk.stop)
        bits = np.zeros((len(g), 64 * width), dtype=bool)
        bits[:, :npoints] = (low[g % q**h, None] == neg_high[g // q**h, :, None]).reshape(len(g), -1)
        out[blk] = np.packbits(bits, axis=1, bitorder="little").view("<u8")
    return out


def _functionals(q: int, rows: np.ndarray, pivots: np.ndarray) -> np.ndarray:
    """(count, N - l): the index of g_f = e_f - sum_j R[j, f] e_(p_j) for
    each non-pivot column f of the echelon rows R (count, l, N) with
    pivots p (count, l), in increasing order of f.  The index is summed
    at every column f, one product with the rows, and read off at the
    non-pivot ones."""
    count, l, n = rows.shape
    free = np.ones((count, n), dtype=bool)
    free[np.arange(count)[:, None], pivots] = False
    every = q ** np.arange(n) + ((q**pivots)[:, None, :] @ ((q - rows.astype(np.int64)) % q))[:, 0]
    return every[free].reshape(count, n - l)


def echelon_words(q: int, rows: np.ndarray, pivots: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Packed point masks of the row spans u of reduced echelon rows R
    (count, l, N) with pivots p (count, l): the AND of the kernel words
    `kernels` (`kernel_words(q, N)`) of the zero functional and of the
    N - l functionals g_f of `_functionals`, one per non-pivot column f.
    When l = N there is no g_f, and the mask is every point, with zero
    padding.

    Proof: R[j] holds 1 at its own pivot p_j and 0 at the others, so
    g_f . R[j] = R[j, f] - R[j, f] = 0 and every g_f vanishes on u.
    g_f holds 1 at f and 0 at every other non-pivot column, so the N - l
    functionals are independent and their common kernel has dimension
    l.  It contains u, of dimension l, so it is u."""
    out = np.repeat(kernels[:1], len(rows), axis=0)
    for g in _functionals(q, rows, pivots).T:
        out &= kernels[g]
    return out


def _keys(a: np.ndarray, base: int) -> np.ndarray:
    """Rows of a 2-d unsigned array of digits below `base` as keys whose
    order is the numeric lexicographic order of the rows, for sorting and
    exact lookups.  When base ** width fits in 64 bits each row is one
    uint64, the row read as a number in base `base`; otherwise it is an
    opaque byte string of big-endian entries (`_byte_keys`), which numpy
    compares bytewise, several times slower."""
    width = a.shape[1]
    if base**width > 2**64:
        return _byte_keys(a)
    places = np.array([base**k for k in range(width - 1, -1, -1)], dtype=np.uint64)
    return a.astype(np.uint64) @ places


def _byte_keys(a: np.ndarray) -> np.ndarray:
    """Rows of a 2-d unsigned array as opaque byte strings whose byte
    order is the numeric lexicographic order of the rows."""
    if a.shape[1] == 0:
        return np.zeros(len(a), dtype=np.dtype((np.void, 1)))
    big = np.ascontiguousarray(a, dtype=a.dtype.newbyteorder(">"))
    return big.view(np.dtype((np.void, big.shape[1] * big.itemsize))).ravel()


class SubspaceTable:
    """The dim-dimensional subspaces of F_q^ambient in table order, that
    is sorted by their flattened reduced echelon rows, held as arrays:

    - rows: (count, dim, ambient) small ints, the reduced echelon basis;
    - pivots: (count, dim), the pivot column of each row;
    - words: (count, W) uint64, the packed point mask over the q^ambient
      vector indices (vector v has index sum_i v_i q^i), each the AND
      of the kernel words `kernels` of N - dim functionals that vanish
      on the rows (`echelon_words`, with the proof that their common
      kernel is the subspace).
    """

    def __init__(self, q: int, ambient: int, dim: int, rows: np.ndarray, kernels: np.ndarray):
        self.q = q
        self.ambient = ambient
        self.dim = dim
        self.rows = rows
        self.pivots = (rows != 0).argmax(axis=2)
        self.words = echelon_words(q, rows, self.pivots, kernels)
        self._row_keys = None
        self._mask_order = None

    def __len__(self) -> int:
        return len(self.rows)

    def find_rows(self, rows: np.ndarray) -> np.ndarray:
        """Table index of each reduced echelon basis in `rows` (k, dim,
        ambient), or -1 where it is not in the table.  The table is
        sorted by its rows, so this is a binary search."""
        if self._row_keys is None:
            self._row_keys = _keys(self.rows.reshape(len(self), -1), self.q)
        return find_sorted(self._row_keys, None, _keys(rows.reshape(len(rows), -1), self.q))

    def _sorted_masks(self) -> tuple[np.ndarray, np.ndarray]:
        """(keys, order): the mask keys in increasing order, and the
        table index of each."""
        if self._mask_order is None:
            keys = _keys(self.words, 2**64)
            order = np.argsort(keys, kind="stable")
            self._mask_order = (keys[order], order)
        return self._mask_order

    def find_masks(self, words: np.ndarray) -> np.ndarray:
        """Table index of each packed point mask in `words`, or -1 where
        no table entry has that point set."""
        keys, order = self._sorted_masks()
        return find_sorted(keys, order, _keys(words, 2**64))

    def match_masks(self, keys: np.ndarray, mult: int):
        """Table index of each one-word mask key in `keys` (uint64) when,
        sorted, they are the table's distinct mask keys each repeated
        `mult` times, from one argsort; None otherwise, and always for
        masks of more than one word.

        Lookup certificate: equal sorted arrays put every key on a table
        key, and distinct table keys make that entry the only one with
        the key, so each index is the one `find_masks` returns, and
        every entry is hit exactly `mult` times."""
        if self.words.shape[1] != 1 or len(keys) != mult * len(self):
            return None
        table_keys, order = self._sorted_masks()
        if not (table_keys[1:] > table_keys[:-1]).all():
            return None
        by_key = np.argsort(keys).reshape(len(self), mult)
        if not (keys[by_key] == table_keys[:, None]).all():
            return None
        found = np.empty(len(keys), dtype=np.intp)
        found[by_key] = order[:, None]
        return found


def find_sorted(sorted_keys: np.ndarray, order, wanted: np.ndarray) -> np.ndarray:
    """Positions of `wanted` in `sorted_keys` (mapped through `order`
    when the keys were sorted by it), -1 for keys that are absent."""
    pos = np.searchsorted(sorted_keys, wanted)
    inside = pos < len(sorted_keys)
    hit = np.zeros(len(wanted), dtype=bool)
    hit[inside] = sorted_keys[pos[inside]] == wanted[inside]
    found = pos if order is None else order[np.minimum(pos, len(order) - 1)]
    return np.where(hit, found, -1)


def _echelon_blocks(q: int, ambient: int, dim: int):
    """Reduced echelon rows of every dim-subspace, one array per pivot
    pattern: the pivots hold 1, the free cells (right of a row's pivot,
    outside the pivot columns) take every assignment in F_q, and all
    other cells are 0.  The assignments of k cells are built once per k."""
    dtype = _digit_dtype(q)
    fills = {}
    for pivots in combinations(range(ambient), dim):
        pivset = set(pivots)
        cells = [
            (i, c)
            for i in range(dim)
            for c in range(pivots[i] + 1, ambient)
            if c not in pivset
        ]
        if len(cells) not in fills:
            fills[len(cells)] = all_vectors(q, len(cells))
        fill = fills[len(cells)]
        block = np.zeros((len(fill), dim, ambient), dtype=dtype)
        block[:, np.arange(dim), np.array(pivots, dtype=np.intp)] = 1
        if cells:
            ri, ci = (np.array(v, dtype=np.intp) for v in zip(*cells))
            block[:, ri, ci] = fill
        yield block


def enumerate_subspaces(
    q: int, ambient: int, dim: int, cap: int | None = DEFAULT_TABLE_CAP, *, kernels
):
    """All dim-dimensional subspaces of F_q^ambient as a SubspaceTable,
    sorted by their flattened echelon rows.

    Generation walks pivot column patterns and fills the free cells, so
    each subspace is produced exactly once, already canonical: a reduced
    echelon basis is unique to its row space, and every pattern with
    every filling is one.  The projected count q_binomial(ambient, dim,
    q) is checked against the cap before any work starts, and against
    the rows produced.  `kernels` is a function returning the kernel
    words of F_q^ambient (`GeometryContext.kernels`), called only after
    the cap check.
    """
    FieldContext(q)
    if not 0 <= dim <= ambient:
        raise InvalidParameters(f"need 0 <= dim <= ambient, got dim={dim} ambient={ambient}")
    projected = q_binomial(ambient, dim, q)
    if cap is not None and projected > cap:
        raise SizeCapExceeded(
            f"enumeration of {projected} {dim}-subspaces of F_{q}^{ambient} exceeds cap {cap}"
            " (--max-vertices)",
            projected,
            cap,
        )
    rows = np.concatenate(list(_echelon_blocks(q, ambient, dim)))
    if len(rows) != projected:
        raise FalsifiedFact(
            f"enumeration produced {len(rows)} subspaces, expected {projected}"
        )
    rows = rows[np.argsort(_keys(rows.reshape(len(rows), -1), q), kind="stable")]
    return SubspaceTable(q, ambient, dim, rows, kernels())


class GeometryContext:
    """Subspace tables of F_q^N around a base vertex x of dimension D.

    Tables are built lazily per dimension, subject to a per-table cap,
    and kept for the life of the context; `poset_cap` bounds the
    full poset that `ladders.build_poset_matrices` materializes, which
    splits it into the layers P_{i,j} (dim(u meet x) = i, dim u = i + j).
    """

    def __init__(
        self,
        q: int,
        ambient: int,
        d: int,
        x_rows=None,
        table_cap: int = DEFAULT_TABLE_CAP,
        poset_cap: int = DEFAULT_POSET_CAP,
    ):
        FieldContext(q)
        if not (1 <= d < ambient):
            raise InvalidParameters(f"need 1 <= D < N, got N={ambient} D={d}")
        self.q = q
        self.ambient = ambient
        self.d = d
        self.table_cap = table_cap
        self.poset_cap = poset_cap
        if x_rows is None:
            x_rows = np.eye(d, ambient, dtype=np.int64)
        if any(len(row) != ambient for row in x_rows):
            raise InvalidParameters("row length does not match ambient dimension")
        # the reduced echelon form is unique to the row space, so x gets
        # the rows its table entry has, whatever rows span it
        ech = np.array(x_rows, dtype=np.int64).reshape(len(x_rows), ambient) % q
        pivots = echelon_mod_p(ech, q, reduced=True)
        if len(pivots) != d:
            raise InvalidParameters(f"x has dimension {len(pivots)}, expected D={d}")
        self.x_rows = ech[:d].astype(_digit_dtype(q))
        self._tables: dict[int, SubspaceTable] = {}

    def table(self, dim: int) -> SubspaceTable:
        if dim not in self._tables:
            self._tables[dim] = enumerate_subspaces(
                self.q, self.ambient, dim, self.table_cap, kernels=lambda: self.kernels
            )
        return self._tables[dim]

    @functools.cached_property
    def kernels(self) -> np.ndarray:
        """`kernel_words(q, N)`, built once for the context, when the
        first table to need it has passed its cap check; every table and
        the cover generator of `ladders` read it."""
        return kernel_words(self.q, self.ambient)

    @functools.cached_property
    def x_words(self) -> np.ndarray:
        """x's point words, (1, W), from its table entry, after that table's cap check."""
        table = self.table(self.d)
        return table.words[table.find_rows(self.x_rows[None])]

    @property
    def x_index(self) -> int:
        """The index of x in the table of D-subspaces."""
        return int(self.table(self.d).find_rows(self.x_rows[None])[0])

    def poset_size(self) -> int:
        return sum(q_binomial(self.ambient, l, self.q) for l in range(self.ambient + 1))
