"""Test-only geometry oracles on single subspaces, independent of the
table and poset arrays the verifier reads: a Python Gaussian elimination
mod q, point masks from walking every point of a span, dimensions from
point counts and meets from one echelon form of the stacked rows."""

from dataclasses import dataclass

import numpy as np


def rref_mod(rows, q: int):
    """Reduced row echelon form over Z/qZ by a Python Gaussian
    elimination.  Returns (rows, pivots) as tuples, with zero rows
    dropped."""
    mat = [[v % q for v in r] for r in rows]
    if not mat:
        return (), ()
    pivots = []
    r = 0
    for c in range(len(mat[0])):
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][c], q - 2, q)
        mat[r] = [(v * inv) % q for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(a - f * b) % q for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return tuple(tuple(mat[i]) for i in range(r)), tuple(pivots)


def vector_index(vec, q: int) -> int:
    """The index sum_i v_i q^i of a vector: its bit in a point mask."""
    return sum((v % q) * q**i for i, v in enumerate(vec))


def span_mask(rows, q: int, n: int) -> int:
    """Point mask of the row span, by walking its points one at a time."""
    points = {(0,) * n}
    for row in rows:
        points = {tuple((a + c * b) % q for a, b in zip(p, row)) for p in points for c in range(q)}
    mask = 0
    for p in points:
        mask |= 1 << vector_index(p, q)
    return mask


@dataclass(frozen=True)
class Subspace:
    """A subspace of F_q^ambient by its reduced echelon rows, with the
    pivots and the point mask of those rows."""

    q: int
    ambient: int
    rows: tuple
    pivots: tuple
    mask: int

    @property
    def dim(self) -> int:
        return len(self.rows)


def subspace(q: int, n: int, rows) -> Subspace:
    """The subspace spanned by arbitrary rows (zero rows allowed)."""
    canon, pivots = rref_mod(rows, q)
    return Subspace(q, n, canon, pivots, span_mask(canon, q, n))


def entries(table) -> list[Subspace]:
    """One Subspace per row of a SubspaceTable, in table order, its rows
    canonicalized and its mask walked by the oracles."""
    return [subspace(table.q, table.ambient, rows) for rows in table.rows.tolist()]


def base_vertex(geometry) -> Subspace:
    """The base vertex x of a GeometryContext."""
    return subspace(geometry.q, geometry.ambient, geometry.x_rows.tolist())


def table_index(table, u) -> int:
    """The index of u in a SubspaceTable, by a linear scan of its rows."""
    return table.rows.tolist().index([list(r) for r in u.rows])


def global_index(pm, u) -> int:
    """The index of u among the subspaces a PosetMatrices materializes."""
    return pm.offsets[u.dim] + table_index(pm.geometry.table(u.dim), u)


def mask_words(mask: int, npoints: int) -> np.ndarray:
    """A point mask as little-endian uint64 words over npoints points."""
    width = 8 * -(-npoints // 64)
    return np.frombuffer(mask.to_bytes(width, "little"), dtype="<u8")


def mask_dim(mask: int, q: int) -> int:
    """Dimension of a subspace from its point mask: the k with q^k
    points.  Any other point count fails."""
    count = mask.bit_count()
    k = 0
    while q**k < count:
        k += 1
    assert q**k == count, f"{count} points is no power of {q}"
    return k


def layer_of(u, x) -> tuple[int, int]:
    """(i, j) of the layer P_{i,j} holding u: i = dim(u meet x) from the
    common points, j = dim u - i."""
    i = mask_dim(u.mask & x.mask, u.q)
    return i, u.dim - i


def cover_kind(u, v, x) -> str:
    """"slash" when the cover u < v grows the meet with x, "backslash"
    when it does not; a pair that is no cover fails."""
    assert v.dim == u.dim + 1 and u.mask & v.mask == u.mask, "not a cover"
    step = layer_of(v, x)[0] - layer_of(u, x)[0]
    assert step in (0, 1), f"meet dimension steps by {step}"
    return "slash" if step else "backslash"


def meet_dim_by_rank(u, v) -> int:
    """dim(u meet v) = dim u + dim v - dim(u + v), the sum's dimension
    the rank of the stacked echelon rows (`rref_mod`)."""
    _rows, pivots = rref_mod(list(u.rows) + list(v.rows), u.q)
    return u.dim + v.dim - len(pivots)
