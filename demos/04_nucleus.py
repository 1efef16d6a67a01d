"""The nucleus of J_2(5,2) at a base vertex, with its two bases.

The nucleus is the direct sum of the subspaces N_i cut out by crossing
coordinate balls with eigenspace sums.  Its two natural bases are
indexed by the subspaces alpha of the base vertex: the containment
vectors (alpha^vee) and the exact-meet vectors (alpha^N).  All four
operator action identities are verified with zero residual.
"""

from qgrass.grassmann import build_graph, spectral_system
from qgrass.nucleus import (
    build_alpha_family,
    compute_nucleus,
    gamma_components,
    nucleus_report_json,
    verify_actions,
    verify_bases,
)

gc = build_graph(2, 5, 2)
ss = spectral_system(gc)
nd = compute_nucleus(ss)
nd.checks.require()
print(f"nucleus pieces N_i have dimensions {nd.dims}, total {nd.dimension}")
print(f"layer dimensions through either idempotent family: {nd.estar_dims}")
print(f"irreducible module multiplicities by endpoint: {nd.mult_r}")

fam = build_alpha_family(gc)
fam.checks.require()
print()
print("the five subspaces alpha of x index both families:")
for dim, h, g in zip(fam.dims.tolist(), fam.h_sizes, fam.g_sizes):
    print(f"  dim {dim}: |H_alpha| = {h:>3}   |G_alpha| = {g:>3}")

cs = verify_actions(ss, fam)
cs.require()
print()
print("operator actions, each an exact vector identity over all alpha:")
for c in cs.checks:
    print(f"  {c.name}: zero residual")

bs = verify_bases(nd, fam)
bs.require()
print()
print("both families are bases of the nucleus; the two triangular")
print("transition matrices are mutually inverse over the subspace poset")

rep = gamma_components(gc, fam)
rep.checks.require()
print()
print("distance spheres fiber over the meet with x:")
for i, (count, sizes) in enumerate(zip(rep.counts, rep.component_sizes)):
    print(f"  sphere {i}: {count} component(s) of sizes {sizes}")

print()
print(f"report: {nucleus_report_json(nd, fam, rep)}")
print()
print("done: nucleus structure verified exactly")
