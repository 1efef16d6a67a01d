"""Nucleus computation, the two vector families, and sphere fibrations."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings

import qgrass.nucleus
from qgrass.grassmann import GraphContext, build_graph, spectral_system
from qgrass.ladders import alpha_dominant_multiplicity
from qgrass.linalg import (
    ExactMatrix,
    column_space_ops,
    intersect_column_spaces,
    rank_mod_prime,
    span_rank,
)
from qgrass.nucleus import (
    boundary_case_report,
    build_alpha_family,
    compute_nucleus,
    gamma_components,
    nucleus_report_json,
    subspaces_of_base,
    transition_matrices,
    verify_actions,
    verify_bases,
)
from qgrass.report import CheckSet
from qgrass.subspaces import dim_of_mask

from strategies import instances_with_base_vertex


def dense_oracle_pieces(ss):
    """Test-only reference for the nucleus pieces: the coordinate ball
    B_i intersected with the column space of E_0 + ... + E_{D-i}, both
    spanned explicitly and intersected by exact elimination.  Each piece
    is a matrix whose rows are a basis."""
    gc = ss.gc
    d, nv = gc.d, gc.n_vertices
    xrow = gc.dist[gc.x_index]
    pieces = []
    for i in range(d + 1):
        coords = ExactMatrix.from_int_array(np.eye(nv, dtype=np.int64)[:, xrow <= i])
        if i == 0:
            pieces.append(coords.T)
            continue
        values = {
            h: sum(ss.e_coeffs[t][h] for t in range(d - i + 1)) for h in range(d + 1)
        }
        f_mat = ExactMatrix.from_class_values(gc.dist, values)
        pivots = column_space_ops(f_mat, want_nullspace=False).pivot_columns
        pieces.append(intersect_column_spaces(coords, ExactMatrix(f_mat.a[:, pivots])).T)
    return pieces


def dense_rank_certificate(ss):
    """Test-only oracle: the certificate the verifier ran on dense
    |X| x |X| numerators before the inclusion matrices.  Returns rank_p
    of the D+1 idempotent numerators (lower bounds for the ranks, exact
    once they sum to |X|) and rank_p of the numerators of
    F_i = E_0 + ... + E_{D-i} for i = 1..D, the eigenspace-side ranks."""
    d = ss.gc.d
    ranks = [rank_mod_prime(ss.idempotent_numerator(i)[0]) for i in range(d + 1)]
    sides = [
        rank_mod_prime(ss.class_numerator(ss.partial_coeffs(d - i))[0]) for i in range(1, d + 1)
    ]
    return ranks, sides


def observed(cs, name):
    return next(c.observed for c in cs.checks if c.name == name)


@settings(max_examples=10, deadline=None)
@given(instances_with_base_vertex())
def test_inclusion_certificate_matches_dense_oracle(instance):
    q, n, d, x_rows = instance
    ss = spectral_system(build_graph(q, n, d, x_rows=x_rows))
    ss.checks.require()
    nd = compute_nucleus(ss)
    nd.checks.require()
    ranks, sides = dense_rank_certificate(ss)
    assert sum(ranks) == ss.gc.n_vertices
    assert observed(ss.checks, "rank_certificate") == ranks == ss.m
    assert [observed(nd.checks, f"eigenspace_side_rank_{i}") for i in range(1, d + 1)] == sides


def assert_same_pieces(nd, oracle):
    assert nd.dims == [b.shape[0] for b in oracle]
    for basis, ref in zip(nd.bases, oracle):
        assert span_rank(basis) == basis.shape[0]
        assert span_rank(basis, ref) == ref.shape[0]


def check_rows(cs):
    return [(c.name, c.expected, c.observed, c.passed) for c in cs.checks]


@settings(max_examples=10, deadline=None)
@given(instances_with_base_vertex())
# one instance per path of the middle piece: the squeeze away from the
# boundary, the kernel at N = 2D
@example((2, 5, 2, ((0, 0, 0, 1, 0), (0, 0, 0, 0, 1))))
@example((3, 4, 2, ((1, 0, 2, 0), (0, 1, 1, 2))))
def test_pieces_match_dense_oracle(instance):
    q, n, d, x_rows = instance
    ss = spectral_system(build_graph(q, n, d, x_rows=x_rows))
    ss.checks.require()
    nd = compute_nucleus(ss)
    nd.checks.require()
    assert nd.paths[0] == "base_vertex"
    assert set(nd.paths[1:]) <= {"squeeze", "kernel"}
    assert_same_pieces(nd, dense_oracle_pieces(ss))


@pytest.fixture(scope="module")
def oracle252(j252_spectral):
    return dense_oracle_pieces(j252_spectral)


@pytest.fixture(scope="module")
def nucleus252(j252_spectral):
    nd = compute_nucleus(j252_spectral)
    nd.checks.require()
    return nd


@pytest.fixture(scope="module")
def fam252(j252):
    fam = build_alpha_family(j252)
    fam.checks.require()
    return fam


@pytest.fixture(scope="module")
def j341_spectral(j341):
    ss = spectral_system(j341)
    ss.checks.require()
    return ss


def test_nucleus_dimensions_frozen(nucleus252):
    assert nucleus252.dims == [1, 3, 1]
    assert nucleus252.dimension == 5
    assert nucleus252.mult_r == [1, 2]
    assert nucleus252.estar_dims == [1, 3, 1]
    assert nucleus252.e_dims == [1, 3, 1]
    assert not nucleus252.boundary


def test_nucleus_paths(nucleus252, oracle252):
    assert nucleus252.paths == ["base_vertex", "squeeze", "squeeze"]
    assert_same_pieces(nucleus252, oracle252)


def test_forced_kernel_path(nucleus252, oracle252, j252_spectral, monkeypatch):
    # a modular rank that under-reports breaks every squeeze, the empty
    # one of the top piece included, so each piece past the base vertex
    # must come from the exact kernel
    real = qgrass.nucleus.rank_mod_prime
    monkeypatch.setattr(qgrass.nucleus, "rank_mod_prime", lambda m: real(m) - 1)
    nd = compute_nucleus(j252_spectral)
    assert nd.paths == ["base_vertex", "kernel", "kernel"]
    assert nd.dims == nucleus252.dims
    assert check_rows(nd.checks) == check_rows(nucleus252.checks)
    assert_same_pieces(nd, oracle252)


def test_corrupted_free_row_fails_layers_and_bases():
    # a free row of W_1 (a point of x) with one vertex of the sphere
    # B_1 - B_0 cleared stays free, so the squeeze hands it out as a
    # basis vector of N_1 although it has left F_1 V; the layer count
    # and the vee family both see it
    gc = build_graph(2, 5, 2)
    ss = spectral_system(gc)
    ss.checks.require()
    w = gc.inclusion(1)
    xrow = gc.dist[gc.x_index]
    u = int(np.flatnonzero(~w[:, xrow > 1].any(axis=1))[0])
    y = int(np.flatnonzero(w[u] & (xrow == 1))[0])
    w[u, y] = False
    nd = compute_nucleus(ss)
    assert nd.paths == ["base_vertex", "squeeze", "squeeze"]
    assert "layer_dimensions_agree" in failing(nd.checks)
    fam = build_alpha_family(gc)
    fam.checks.require()
    assert "vee_vectors_lie_in_their_piece" in failing(verify_bases(nd, fam))


def test_unverified_spectrum_takes_no_shortcut(nucleus252, oracle252, j252_spectral):
    # the shortcuts rest on the spectral checks; with one failing, every
    # piece past the base vertex comes from exact elimination
    failed = CheckSet("spectral system")
    failed.extend(j252_spectral.checks)
    failed.check("forced_failure", True, False)
    ss = dataclasses.replace(j252_spectral, checks=failed)
    nd = compute_nucleus(ss)
    assert nd.paths == ["base_vertex", "bareiss", "bareiss"]
    assert check_rows(nd.checks) == check_rows(nucleus252.checks)
    assert_same_pieces(nd, oracle252)


def test_failed_certificate_takes_no_shortcut(nucleus252, oracle252, monkeypatch):
    # a dropped row of W_1 fails the rank certificate, and with it the
    # premise of every shortcut
    real = GraphContext.inclusion
    monkeypatch.setattr(
        GraphContext, "inclusion", lambda gc, i: real(gc, i)[1:] if i == 1 else real(gc, i)
    )
    ss = spectral_system(build_graph(2, 5, 2))
    assert {c.name for c in ss.checks.failures()} == {"rank_certificate_total", "rank_certificate"}
    nd = compute_nucleus(ss)
    assert nd.paths == ["base_vertex", "bareiss", "bareiss"]
    assert check_rows(nd.checks) == check_rows(nucleus252.checks)
    assert_same_pieces(nd, oracle252)


def test_nucleus_check_names(nucleus252):
    names = {c.name for c in nucleus252.checks.checks}
    assert {
        "piece_dimensions",
        "sum_is_direct",
        "layer_dimensions_agree",
        "layer_dimensions",
        "layer_dimension_symmetry",
        "module_dimensions_fill_nucleus",
        "eigenspace_side_rank_1",
        "eigenspace_side_rank_2",
    } <= names


def test_nucleus_extreme_pieces(nucleus252, j252):
    # the bottom piece is the base vertex indicator, the top piece the
    # all-ones line
    (bottom,) = nucleus252.bases[0].a
    assert list(np.flatnonzero(bottom != 0)) == [j252.x_index]
    (top,) = nucleus252.bases[2].a
    vals = set(top.tolist())
    assert len(vals) == 1 and 0 not in vals


def test_multiplicities_match_alpha_dominant(nucleus252):
    q, d = nucleus252.gc.q, nucleus252.gc.d
    assert nucleus252.mult_r == [
        alpha_dominant_multiplicity(q, d, r) for r in range(d // 2 + 1)
    ]


def test_subspaces_of_base_cover_x(j252):
    alphas = subspaces_of_base(j252)
    assert [a.dim for a in alphas] == [0, 1, 1, 1, 2]
    assert all(a.is_subspace_of(j252.geometry.x) for a in alphas)
    assert alphas[-1].mask == j252.geometry.x.mask


def test_family_sizes_frozen(fam252):
    assert fam252.h_sizes == [155, 15, 15, 15, 1]
    assert fam252.g_sizes == [112, 14, 14, 14, 1]
    assert sum(fam252.g_sizes) == 155
    names = {c.name for c in fam252.checks.checks}
    assert {
        "containment_counts",
        "fiber_counts",
        "fibers_partition_vertices",
        "vee_expands_over_meets",
        "meet_expands_over_vees",
        "meet_is_sphere_cut_of_vee",
    } <= names


def test_family_extremes(fam252, j252):
    # the zero subspace sees every vertex; x sees itself twice over
    assert all(v == 1 for v in fam252.vee[0].tolist())
    assert list(np.flatnonzero(fam252.vee[-1])) == [j252.x_index]
    assert list(np.flatnonzero(fam252.meet[-1])) == [j252.x_index]


def test_action_identities(j252_spectral, fam252):
    cs = verify_actions(j252_spectral, fam252)
    names = {c.name for c in cs.checks}
    assert names == {
        "adjacency_on_vee",
        "adjacency_on_meet",
        "dual_adjacency_on_meet",
        "dual_adjacency_on_vee",
    }
    cs.require()


def test_bases_of_nucleus(nucleus252, fam252):
    cs = verify_bases(nucleus252, fam252)
    names = {c.name for c in cs.checks}
    assert {
        "family_size_equals_dimension",
        "vee_family_rank",
        "meet_family_rank",
        "vee_vectors_lie_in_their_piece",
        "meet_vectors_lie_in_nucleus",
        "vee_then_meet_is_identity",
        "meet_then_vee_is_identity",
    } <= names
    cs.require()


def test_transition_entries(fam252):
    t_vee, t_meet, cs = transition_matrices(fam252)
    cs.require()
    p = len(fam252.alphas)
    # containment pattern: zero subspace under everything, x over all
    assert all(t_vee[0][j] == 1 for j in range(p))
    assert [t_vee[i][p - 1] for i in range(p)] == [1, 1, 1, 1, 1]
    # signed inverse: gap-2 entry carries q^1, gap-1 entries carry -1
    assert t_meet[0][p - 1] == 2
    assert t_meet[0][1] == -1
    assert t_meet[1][p - 1] == -1
    assert t_meet[0][0] == 1


def test_gamma_components_frozen(j252, fam252):
    rep = gamma_components(j252, fam252)
    rep.checks.require()
    assert rep.counts == [1, 3, 1]
    assert rep.component_sizes == [[1], [14, 14, 14], [112]]
    names = {c.name for c in rep.checks.checks}
    assert {
        "components_match_meet_vectors_1",
        "component_count_2",
        "outer_sphere_connected",
        "edge_meets_obey_cover_dichotomy",
        "fiber_vectors_supported_on_sphere",
    } <= names


def pair_loop_fibers(gc):
    """Test-only oracle: per sphere around x, the fibers (components of
    the edges whose ends meet x in the same subspace) as sorted member
    lists, the number of components under all edges, and whether every
    edge obeys the cover dichotomy, from one dim_of_mask call per
    adjacent pair as gamma_components computed them before the
    incidence product."""
    q, d = gc.q, gc.d
    xmask = gc.geometry.x.mask
    masks = [v.mask for v in gc.vertices]
    xrow = gc.dist[gc.x_index]
    fibers, full_counts, dichotomy = [], [], True
    for i in range(d + 1):
        sphere = [int(v) for v in np.flatnonzero(xrow == i)]
        fiber = {v: {v} for v in sphere}
        full = {v: {v} for v in sphere}

        def join(parts, a, b):
            if parts[a] is not parts[b]:
                merged = parts[a] | parts[b]
                for v in merged:
                    parts[v] = merged

        for ka, a in enumerate(sphere):
            for b in sphere[ka + 1:]:
                if gc.dist[a, b] != 1:
                    continue
                join(full, a, b)
                dmx = dim_of_mask(masks[a] & masks[b] & xmask, q)
                if dmx == d - i:
                    join(fiber, a, b)
                elif dmx != d - i - 1:
                    dichotomy = False
        fibers.append(sorted({tuple(sorted(p)) for p in fiber.values()}))
        full_counts.append(len({id(p) for p in full.values()}))
    return fibers, full_counts, dichotomy


@pytest.mark.parametrize("q,n,d", [(2, 4, 2), (2, 5, 2), (3, 4, 2)])
def test_gamma_components_match_pair_loop(q, n, d):
    gc = build_graph(q, n, d)
    fam = build_alpha_family(gc)
    rep = gamma_components(gc, fam)
    rep.checks.require()
    fibers, full_counts, dichotomy = pair_loop_fibers(gc)
    assert dichotomy
    assert rep.counts == [len(f) for f in fibers]
    assert rep.component_sizes == [sorted(len(c) for c in f) for f in fibers]
    assert full_counts[d] == 1
    for i in range(d + 1):
        meet_sets = sorted(
            tuple(int(v) for v in np.flatnonzero(fam.meet[ia]))
            for ia, a in enumerate(fam.alphas)
            if a.dim == d - i
        )
        assert fibers[i] == meet_sets


@settings(max_examples=6, deadline=None)
@given(instances_with_base_vertex())
def test_gamma_components_match_pair_loop_at_random_base_vertex(instance):
    q, n, d, x_rows = instance
    gc = build_graph(q, n, d, x_rows=x_rows)
    fam = build_alpha_family(gc)
    rep = gamma_components(gc, fam)
    rep.checks.require()
    fibers, full_counts, dichotomy = pair_loop_fibers(gc)
    assert dichotomy and full_counts[d] == 1
    assert rep.component_sizes == [sorted(len(c) for c in f) for f in fibers]
    for i in range(d + 1):
        assert fibers[i] == sorted(
            tuple(np.flatnonzero(fam.meet[ia]).tolist()) for ia in fam.by_dim[d - i]
        )


@pytest.mark.parametrize("outer", [False, True], ids=["inner-spheres", "outer-sphere"])
def test_meet_count_off_the_dichotomy_fails(monkeypatch, outer):
    # meet counts that are neither q^(D-i) nor q^(D-i-1): inner spheres
    # inflated by q^2, or the outer sphere (where every count is 1) by 3
    real = qgrass.nucleus.exact_int_product

    def inflate(a, b, inner):
        out = real(a, b, inner)
        if (out.max(initial=0) <= 1) == outer:
            return out * (3 if outer else 4)
        return out

    monkeypatch.setattr(qgrass.nucleus, "exact_int_product", inflate)
    gc = build_graph(2, 4, 2)
    rep = gamma_components(gc, build_alpha_family(gc))
    verdicts = {c.name: c.passed for c in rep.checks.checks}
    assert not verdicts["edge_meets_obey_cover_dichotomy"]


def test_degenerate_line_case(j341, j341_spectral):
    nd = compute_nucleus(j341_spectral)
    nd.checks.require()
    assert nd.dims == [1, 1]
    assert nd.dimension == 2
    assert nd.mult_r == [1]
    fam = build_alpha_family(j341)
    fam.checks.require()
    assert fam.h_sizes == [40, 1]
    assert fam.g_sizes == [39, 1]
    verify_actions(j341_spectral, fam).require()
    verify_bases(nd, fam).require()
    rep = gamma_components(j341, fam)
    rep.checks.require()
    assert rep.counts == [1, 1]
    assert rep.component_sizes == [[1], [39]]


def test_boundary_report():
    doc = boundary_case_report(2, 2)
    assert doc["boundary"] is True
    assert doc["params"] == {"q": 2, "N": 4, "D": 2}
    # at N = 2D the generic dimension formula genuinely fails: the
    # nucleus is larger than the sum of the q-binomials
    assert doc["nucleus_dims"] == [1, 5, 1]
    assert doc["dimension"] == 7
    assert doc["generic_dimension"] == 5
    assert doc["dimension_matches_generic_formula"] is False
    assert doc["mult_r"] == [1, 4]
    # the free rows of W_1 fall short of the middle piece here
    assert doc["nucleus_paths"] == ["base_vertex", "kernel", "squeeze"]
    # the structural identities hold regardless of the boundary
    for flag in (
        "build_ok",
        "spectral_ok",
        "structure_ok",
        "actions_ok",
        "fibration_ok",
    ):
        assert doc[flag] is True
    assert doc["family"]["count"] == 5
    assert doc["sphere_components"][1]["sizes"] == [6, 6, 6]


def test_report_json_shape(nucleus252, fam252, j252):
    gamma = gamma_components(j252, fam252)
    doc = nucleus_report_json(nucleus252, fam252, gamma)
    assert doc["params"] == {"q": 2, "N": 5, "D": 2}
    assert doc["nucleus_dims"] == [1, 3, 1]
    assert doc["dimension"] == 5
    assert doc["mult_r"] == [1, 2]
    assert doc["layer_dims"] == [1, 3, 1]
    assert "boundary" not in doc
    assert doc["family"]["count"] == 5
    assert [c["count"] for c in doc["sphere_components"]] == [1, 3, 1]
    bare = nucleus_report_json(nucleus252, None, None)
    assert "family" not in bare and "sphere_components" not in bare


# ---------------------------------------------------------------------------
# failure paths: a corrupted eigenvalue or family entry must fail exactly
# the checks that read it, each naming the last failing alpha


def failing(*checksets):
    return {c.name: c.witness for cs in checksets for c in cs.checks if not c.passed}


def flipped(rows, a, y):
    """A copy of the family `rows` with entry y of row a flipped."""
    out = rows.copy()
    out[a, y] = not out[a, y]
    return out


def test_corrupt_theta_fails_adjacency_on_vee(j252_spectral, fam252):
    theta = list(j252_spectral.theta)
    theta[1] += 1
    ss = dataclasses.replace(j252_spectral, theta=theta)
    assert failing(verify_actions(ss, fam252)) == {"adjacency_on_vee": "dim 1 alpha #3"}


def test_corrupt_theta_star_fails_dual_adjacency_on_vee(j252_spectral, fam252):
    # A* reads the same list on both sides of the meet identity, which is
    # diagonal, so only the vee identity sees the change
    theta_star = list(j252_spectral.theta_star)
    theta_star[1] += 1
    ss = dataclasses.replace(j252_spectral, theta_star=theta_star)
    assert failing(verify_actions(ss, fam252)) == {
        "dual_adjacency_on_vee": "dim 1 alpha #3",
    }


def test_corrupt_vee_entry(j252, j252_spectral, nucleus252, monkeypatch):
    real = qgrass.nucleus.containment_vectors
    monkeypatch.setattr(
        qgrass.nucleus,
        "containment_vectors",
        lambda gc, alphas: flipped(real(gc, alphas), 2, gc.x_index),
    )
    fam = build_alpha_family(j252)
    assert failing(fam.checks) == {
        "containment_counts": None,
        "vee_expands_over_meets": "alpha #2",
        "meet_expands_over_vees": "alpha #2",
    }
    assert failing(verify_actions(j252_spectral, fam)) == {
        "adjacency_on_vee": "dim 2 alpha #4",
        "dual_adjacency_on_vee": "dim 1 alpha #2",
    }
    assert failing(verify_bases(nucleus252, fam)) == {
        "vee_vectors_lie_in_their_piece": "alpha #2 not in piece 1",
    }


def test_corrupt_meet_entry(j252, j252_spectral, nucleus252, fam252):
    # a vertex on the outer sphere, so the corrupted row leaves the nucleus
    y = int(np.flatnonzero(j252.dist[j252.x_index] == 2)[0])
    fam = dataclasses.replace(fam252, meet=flipped(fam252.meet, 1, y))
    assert failing(verify_actions(j252_spectral, fam)) == {
        "adjacency_on_meet": "dim 2 alpha #4",
        "dual_adjacency_on_meet": "dim 1 alpha #1",
    }
    assert failing(verify_bases(nucleus252, fam)) == {
        "meet_vectors_lie_in_nucleus": "alpha #1",
    }
    assert failing(gamma_components(j252, fam).checks) == {
        "components_match_meet_vectors_1": None,
        "fiber_vectors_supported_on_sphere": None,
    }
