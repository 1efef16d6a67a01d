"""Subspaces of F_q^N in canonical form and the geometry around a base
subspace x.

Every subspace is stored as its reduced row echelon basis, so equality
is tuple equality.  Each subspace also carries a bitmask over the q^N
vectors of the ambient space; meets and containment reduce to integer
bit operations, which keeps pair scans cheap at desk scale.
"""

from __future__ import annotations

import enum
import os
from itertools import combinations, product

from .errors import InvalidParameters, SizeCapExceeded
from .qarith import FieldContext, q_binomial, q_int
from .report import CheckSet

DEFAULT_TABLE_CAP = 20000
DEFAULT_POSET_CAP = 60000


def rref_mod(rows, q: int):
    """Reduced row echelon form over Z/qZ.  Returns (rows, pivots) as
    tuples, with zero rows dropped."""
    mat = [list(r) for r in rows]
    if not mat:
        return (), ()
    n = len(mat[0])
    fc = FieldContext(q)
    pivots = []
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, len(mat)):
            if mat[i][c] % q:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = fc.inv(mat[r][c])
        mat[r] = [(v * inv) % q for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] % q:
                f = mat[i][c] % q
                mat[i] = [(a - f * b) % q for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    rows_out = tuple(tuple(v % q for v in mat[i]) for i in range(r))
    return rows_out, tuple(pivots)


def vector_index(vec, q: int) -> int:
    idx = 0
    for i, v in enumerate(vec):
        idx += (v % q) * q**i
    return idx


def _span_mask(rows, q: int, n: int) -> int:
    """Bitmask over vector indices of every point in the row span."""
    points = [(0,) * n]
    for row in rows:
        new = []
        for c in range(q):
            shifted = tuple((c * v) % q for v in row)
            for p in points:
                new.append(tuple((a + b) % q for a, b in zip(p, shifted)))
        points = new
    mask = 0
    for p in points:
        mask |= 1 << vector_index(p, q)
    return mask


class CanonicalSubspace:
    """A subspace of F_q^N held in reduced row echelon form."""

    __slots__ = ("q", "ambient", "rows", "pivots", "mask")

    def __init__(self, q: int, ambient: int, rows, pivots=None, mask=None):
        self.q = q
        self.ambient = ambient
        self.rows = tuple(tuple(v % q for v in r) for r in rows)
        if pivots is None:
            canon, pivots = rref_mod(self.rows, q)
            if canon != self.rows:
                raise InvalidParameters("rows are not in reduced echelon form")
        self.pivots = tuple(pivots)
        self.mask = _span_mask(self.rows, q, ambient) if mask is None else mask

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_subspace_of(self, other: "CanonicalSubspace") -> bool:
        return self.mask & other.mask == self.mask

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CanonicalSubspace)
            and self.q == other.q
            and self.ambient == other.ambient
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.q, self.ambient, self.rows))

    def __repr__(self) -> str:
        return f"CanonicalSubspace(q={self.q}, ambient={self.ambient}, rows={self.rows})"


def subspace_from_rows(q: int, ambient: int, rows) -> CanonicalSubspace:
    """Canonicalize arbitrary spanning rows (zero rows allowed)."""
    for r in rows:
        if len(r) != ambient:
            raise InvalidParameters("row length does not match ambient dimension")
    canon, piv = rref_mod(rows, q)
    return CanonicalSubspace(q, ambient, canon, piv)


def dim_of_mask(mask: int, q: int) -> int:
    """Dimension of a subspace from its point count q^d."""
    pc = mask.bit_count()
    d = 0
    m = 1
    while m < pc:
        m *= q
        d += 1
    if m != pc:
        raise ArithmeticError(f"point count {pc} is not a power of {q}")
    return d


def dim_meet(u: CanonicalSubspace, v: CanonicalSubspace) -> int:
    """dim(u meet v) by counting common points."""
    return dim_of_mask(u.mask & v.mask, u.q)


def _nullspace_mod(mat, q: int):
    """Basis of the right nullspace of an integer matrix over Z/qZ."""
    if not mat:
        return []
    ncols = len(mat[0])
    rows, pivots = rref_mod(mat, q)
    pivset = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivset:
            continue
        vec = [0] * ncols
        vec[f] = 1
        # reduced form: row k reads v[pivots[k]] + row[k][f] * v[f] = 0
        for k, pc in enumerate(pivots):
            vec[pc] = (-rows[k][f]) % q
        basis.append(tuple(vec))
    return basis


def intersect(u: CanonicalSubspace, v: CanonicalSubspace) -> CanonicalSubspace:
    """Meet of two subspaces, from the nullspace of the stacked system.

    A vector lies in both row spaces exactly when it is a*U with
    (a, b) in the left nullspace of the stacked matrix [U; V].
    """
    if u.q != v.q or u.ambient != v.ambient:
        raise InvalidParameters("subspaces live in different ambient spaces")
    q, n = u.q, u.ambient
    if u.dim == 0 or v.dim == 0:
        return CanonicalSubspace(q, n, ())
    stacked = [list(r) for r in u.rows] + [list(r) for r in v.rows]
    transposed = [[stacked[i][c] for i in range(len(stacked))] for c in range(n)]
    left_null = _nullspace_mod(transposed, q)
    span_rows = []
    for coeffs in left_null:
        a = coeffs[: u.dim]
        w = [0] * n
        for ai, row in zip(a, u.rows):
            if ai:
                w = [(x + ai * y) % q for x, y in zip(w, row)]
        if any(w):
            span_rows.append(w)
    return subspace_from_rows(q, n, span_rows)


def enumerate_subspaces(q: int, ambient: int, dim: int, cap: int | None = DEFAULT_TABLE_CAP):
    """All dim-dimensional subspaces of F_q^ambient, sorted by their
    flattened echelon rows.

    Generation walks pivot column patterns and fills the free cells, so
    each subspace is produced exactly once, already canonical.  The
    projected count q_binomial(ambient, dim, q) is checked against the
    cap before any work starts.
    """
    FieldContext(q)
    if dim < 0 or dim > ambient:
        return []
    projected = q_binomial(ambient, dim, q)
    if cap is not None and projected > cap:
        raise SizeCapExceeded(
            f"enumeration of {projected} subspaces exceeds cap {cap}", projected, cap
        )
    out = []
    for pivots in combinations(range(ambient), dim):
        pivset = set(pivots)
        free_cells = [
            (i, c)
            for i in range(dim)
            for c in range(pivots[i] + 1, ambient)
            if c not in pivset
        ]
        base = [[0] * ambient for _ in range(dim)]
        for i, p in enumerate(pivots):
            base[i][p] = 1
        for assignment in product(range(q), repeat=len(free_cells)):
            rows = [r[:] for r in base]
            for (i, c), val in zip(free_cells, assignment):
                rows[i][c] = val
            out.append(
                CanonicalSubspace(q, ambient, tuple(tuple(r) for r in rows), pivots)
            )
    out.sort(key=lambda s: s.rows)
    if len(out) != projected:
        raise ArithmeticError(
            f"enumeration produced {len(out)} subspaces, expected {projected}"
        )
    return out


class CoverType(enum.Enum):
    NOT_COVER = "not_cover"
    SLASH = "slash"
    BACKSLASH = "backslash"


def save_table(path: str, q: int, ambient: int, dim: int, table) -> None:
    """Write a subspace table: header 'q ambient dim count', then one
    line per subspace with its dimension and row-major digits.

    The table goes to a temporary file in the same directory, which
    replaces `path` only once it is complete and on disk, so a write
    that fails or is killed part way never leaves a truncated table at
    `path`.
    """
    if q >= 10:
        raise InvalidParameters("digit cache format supports q < 10 only")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            fh.write(f"{q} {ambient} {dim} {len(table)}\n")
            for s in table:
                digits = "".join(str(v) for row in s.rows for v in row)
                fh.write(f"{s.dim} {digits}\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_table(path: str, q: int, ambient: int, dim: int):
    """Read a table written by save_table, validating the count against
    the Gaussian binomial and every line against the header.

    Any unparsable header or line (a non-numeric field, a byte outside
    ASCII) raises InvalidParameters, like every other malformed cache.
    """
    try:
        with open(path, encoding="ascii") as fh:
            header = fh.readline().split()
            if len(header) != 4:
                raise InvalidParameters(f"malformed cache header in {path}")
            hq, hn, hl, hcount = (int(v) for v in header)
            if (hq, hn, hl) != (q, ambient, dim):
                raise InvalidParameters(
                    f"cache {path} is for q={hq} n={hn} l={hl}, wanted q={q} n={ambient} l={dim}"
                )
            expected = q_binomial(ambient, dim, q)
            if hcount != expected:
                raise InvalidParameters(
                    f"cache header count {hcount} disagrees with q_binomial {expected}"
                )
            table = []
            for line in fh:
                parts = line.split()
                if not parts:
                    continue
                d = int(parts[0])
                digits = parts[1] if len(parts) > 1 else ""
                if d != dim or len(digits) != d * ambient:
                    raise InvalidParameters(f"malformed cache line in {path}: {line!r}")
                rows = tuple(
                    tuple(int(digits[i * ambient + c]) for c in range(ambient))
                    for i in range(d)
                )
                if any(v >= q for row in rows for v in row):
                    raise InvalidParameters(f"cache digit out of range in {path}")
                table.append(CanonicalSubspace(q, ambient, rows))
            if len(table) != expected:
                raise InvalidParameters(
                    f"cache {path} holds {len(table)} subspaces, expected {expected}"
                )
    except ValueError as exc:
        raise InvalidParameters(f"unreadable cache file {path}: {exc}") from exc
    return table


class GeometryContext:
    """Subspace tables of F_q^N and the partition P_{i,j} relative to a
    base vertex x of dimension D.

    P_{i,j} collects the subspaces u with dim(u meet x) = i and
    dim u = i + j.  Tables are built lazily per dimension, subject to a
    per-table cap, and can be persisted to a cache directory.
    """

    def __init__(
        self,
        q: int,
        ambient: int,
        d: int,
        x_rows=None,
        table_cap: int = DEFAULT_TABLE_CAP,
        poset_cap: int = DEFAULT_POSET_CAP,
        cache_dir: str | None = None,
    ):
        FieldContext(q)
        if not (1 <= d < ambient):
            raise InvalidParameters(f"need 1 <= D < N, got N={ambient} D={d}")
        self.q = q
        self.ambient = ambient
        self.d = d
        self.table_cap = table_cap
        self.poset_cap = poset_cap
        self.cache_dir = cache_dir
        if x_rows is None:
            rows = tuple(
                tuple(1 if c == i else 0 for c in range(ambient)) for i in range(d)
            )
            self.x = CanonicalSubspace(q, ambient, rows)
        else:
            self.x = subspace_from_rows(q, ambient, x_rows)
            if self.x.dim != d:
                raise InvalidParameters(
                    f"x has dimension {self.x.dim}, expected D={d}"
                )
        self._tables: dict[int, list[CanonicalSubspace]] = {}
        self._index: dict[int, dict] = {}

    def _cache_path(self, dim: int) -> str | None:
        if self.cache_dir is None or self.q >= 10:
            return None
        return os.path.join(
            self.cache_dir, f"subspaces_q{self.q}_n{self.ambient}_l{dim}.txt"
        )

    def table(self, dim: int):
        if dim not in self._tables:
            path = self._cache_path(dim)
            tab = None
            if path is not None and os.path.exists(path):
                tab = load_table(path, self.q, self.ambient, dim)
            if tab is None:
                tab = enumerate_subspaces(self.q, self.ambient, dim, self.table_cap)
                if path is not None:
                    os.makedirs(self.cache_dir, exist_ok=True)
                    save_table(path, self.q, self.ambient, dim, tab)
            self._tables[dim] = tab
            self._index[dim] = {s.rows: i for i, s in enumerate(tab)}
        return self._tables[dim]

    def index_of(self, s: CanonicalSubspace) -> int:
        self.table(s.dim)
        return self._index[s.dim][s.rows]

    def poset_size(self) -> int:
        return sum(q_binomial(self.ambient, l, self.q) for l in range(self.ambient + 1))

    def build_all_tables(self):
        total = self.poset_size()
        if total > self.poset_cap:
            raise SizeCapExceeded(
                f"full poset of {total} subspaces exceeds cap {self.poset_cap}",
                total,
                self.poset_cap,
            )
        for l in range(self.ambient + 1):
            self.table(l)
        return total

    def pij(self, u: CanonicalSubspace):
        i = dim_meet(u, self.x)
        return i, u.dim - i

    def cover_type(self, u: CanonicalSubspace, v: CanonicalSubspace) -> CoverType:
        """Classify the cover u < v (dim v = dim u + 1) by whether the
        meet with x grows (slash) or not (backslash)."""
        if v.dim != u.dim + 1 or not u.is_subspace_of(v):
            return CoverType.NOT_COVER
        iu = dim_meet(u, self.x)
        iv = dim_meet(v, self.x)
        if iv == iu + 1:
            return CoverType.SLASH
        if iv == iu:
            return CoverType.BACKSLASH
        raise ArithmeticError(
            f"cover meet dimensions {iu} -> {iv} violate the cover dichotomy"
        )

    def covers_of(self, u: CanonicalSubspace):
        """Subspaces v with u < v and dim v = dim u + 1."""
        if u.dim == self.ambient:
            return []
        return [v for v in self.table(u.dim + 1) if u.is_subspace_of(v)]

    def covered_by(self, u: CanonicalSubspace):
        """Subspaces w with w < u and dim w = dim u - 1."""
        if u.dim == 0:
            return []
        return [w for w in self.table(u.dim - 1) if w.is_subspace_of(u)]

    def census(self, full_poset: bool = True) -> CheckSet:
        """Count the layers P_{i,j} and verify the structural facts that
        do not depend on spectral data:

        - every table has q_binomial(N, l, q) members;
        - the (i, j) indices fall in 0..D and 0..N-D and the layer
          counts add up layer by layer;
        - every u with dim u = l covers exactly [l] subspaces;
        - every cover pair classifies as slash or backslash.

        The observed layer counts are recorded together with the product
        formula q_binomial(D,i,q) * q^((D-i)j) * q_binomial(N-D,j,q) as
        an observation only, not an assertion.
        """
        cs = CheckSet(f"geometry census q={self.q} N={self.ambient} D={self.d}")
        q, n, d = self.q, self.ambient, self.d
        dims = range(n + 1) if full_poset else [d]
        if full_poset:
            self.build_all_tables()
        counts: dict[tuple, int] = {}
        index_ok = True
        witness = None
        for l in dims:
            tab = self.table(l)
            cs.check(f"table_count_l{l}", q_binomial(n, l, q), len(tab))
            for u in tab:
                i, j = self.pij(u)
                if not (0 <= i <= d and 0 <= j <= n - d):
                    index_ok = False
                    witness = f"u={u.rows} -> (i,j)=({i},{j})"
                counts[(i, j)] = counts.get((i, j), 0) + 1
        cs.check_true("layer_indices_in_range", index_ok, witness)
        for l in dims:
            total_l = sum(c for (i, j), c in counts.items() if i + j == l)
            cs.check(f"layer_partition_l{l}", q_binomial(n, l, q), total_l)

        if full_poset:
            cover_ok = True
            cover_witness = None
            for l in range(1, n + 1):
                lower = self.table(l - 1)
                for u in self.table(l):
                    covered = [w for w in lower if w.is_subspace_of(u)]
                    if len(covered) != q_int(l, q):
                        cover_ok = False
                        cover_witness = f"dim {l} subspace covers {len(covered)}"
                        break
                    for w in covered:
                        t = self.cover_type(w, u)
                        if t is CoverType.NOT_COVER:
                            cover_ok = False
                            cover_witness = f"{w.rows} under {u.rows}"
                            break
                if not cover_ok:
                    break
            cs.check_true("covered_counts_and_dichotomy", cover_ok, cover_witness)

        observed = {f"{i},{j}": c for (i, j), c in sorted(counts.items())}
        predicted = {
            f"{i},{j}": q_binomial(d, i, q) * q ** ((d - i) * j) * q_binomial(n - d, j, q)
            for (i, j) in sorted(counts)
        }
        cs.record("layer_counts", observed)
        cs.record("layer_count_product_formula", predicted)
        cs.record(
            "layer_count_formula_matches",
            all(observed[k] == predicted[k] for k in observed),
        )
        return cs
