"""Test-only geometry oracles on single subspaces, independent of the
table and poset arrays the verifier reads: dimensions from point counts
and meets from one echelon form of the stacked rows."""

from qgrass.subspaces import rref_mod


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
