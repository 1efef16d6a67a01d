"""Subspace enumeration and the poset layers around a base vertex.

Subspaces of F_q^N are represented by their reduced-echelon row basis,
so each subspace has exactly one representation and equality is literal.
The base vertex x splits the poset into layers P_{i,j} by the meet
dimension i = dim(u meet x) and the complement count j = dim u - i.
The whole poset is read from `build_poset_matrices`, which holds it as
arrays: the layer of every subspace (`layer_indicator`) and its covers,
split into slash covers (L1, the meet with x grows) and backslash covers
(L2, it does not), as sets of index pairs.
"""

from qgrass.ladders import build_poset_matrices
from qgrass.qarith import q_binomial
from qgrass.subspaces import GeometryContext

q, n, d = 2, 4, 2
geometry = GeometryContext(q, n, d)

print(f"subspaces of F_{q}^{n} by dimension:")
for l in range(n + 1):
    table = geometry.table(l)
    assert len(table) == q_binomial(n, l, q)
    print(f"  dim {l}: {len(table)} subspaces")

lines = geometry.table(1)
print()
print("every 1-dimensional subspace, by its echelon basis row:")
for row in lines.rows[:, 0].tolist():
    print(f"  {''.join(str(v) for v in row)}")

pm = build_poset_matrices(geometry)
print()
print(f"base vertex x = row space of the first {d} unit vectors")
pm.checks.require()
print(f"  poset: {len(pm.checks.checks)} structural checks pass")

print()
print("layers P_(i,j) with their sizes (rows i = meet with x):")
for i in range(d + 1):
    row = [int(pm.layer_indicator(i, j).sum()) for j in range(n - d + 1)]
    print(f"  i={i}: {row}")
print(f"  total {pm.size} subspaces")

print()
# the first line of the table in layer (1, 0), that is inside x
g = int(pm.layer_indicator(1, 0).argmax())
line = tuple(geometry.table(1).rows[g - pm.offsets[1], 0].tolist())
print(f"covers of the line {line} inside x, classified by")
print("whether the meet with x grows (slash) or not (backslash):")
kinds = {
    kind: int((pm.pairs(keys)[0] == g).sum())
    for kind, keys in (("slash", pm.L1), ("backslash", pm.L2))
}
print(f"  {kinds}")
assert kinds["slash"] == 1  # only v = x extends the meet past the line

print()
print("done: geometry layer structure verified")
