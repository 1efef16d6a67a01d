"""Nucleus computation, the two vector families, and sphere fibrations."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qgrass.nucleus
from qgrass.grassmann import build_graph, spectral_system
from qgrass.ladders import alpha_dominant_multiplicity
from qgrass.linalg import (
    ExactMatrix,
    ExactVector,
    column_space_ops,
    intersect_column_spaces,
    span_rank,
)
from qgrass.nucleus import (
    boundary_case_report,
    build_alpha_family,
    compute_nucleus,
    containment_vectors,
    gamma_components,
    nucleus_report_json,
    subspaces_of_base,
    transition_matrices,
    verify_actions,
    verify_bases,
)
from qgrass.report import CheckSet
from qgrass.subspaces import subspace_from_rows


def dense_oracle_pieces(ss):
    """Test-only reference for the nucleus pieces: the coordinate ball
    B_i intersected with the column space of E_0 + ... + E_{D-i}, both
    spanned explicitly and intersected by exact elimination."""
    gc = ss.gc
    d, nv = gc.d, gc.n_vertices
    xrow = gc.dist[gc.x_index]
    pieces = []
    for i in range(d + 1):
        coords = []
        for y in np.flatnonzero(xrow <= i):
            e = np.full(nv, 0, dtype=object)
            e[y] = 1
            coords.append(ExactVector(e))
        if i == 0:
            pieces.append(coords)
            continue
        values = {
            h: sum(ss.e_coeffs[t][h] for t in range(d - i + 1)) for h in range(d + 1)
        }
        f_mat = ExactMatrix.from_class_values(gc.dist, values)
        f_cols = column_space_ops(f_mat, want_nullspace=False)
        pieces.append(intersect_column_spaces(coords, f_cols.column_basis))
    return pieces


def assert_same_pieces(nd, oracle):
    assert nd.dims == [len(b) for b in oracle]
    for basis, ref in zip(nd.bases, oracle):
        assert span_rank(basis) == len(basis)
        assert span_rank(basis + ref) == len(ref)


def check_rows(cs):
    return [(c.name, c.expected, c.observed, c.passed) for c in cs.checks]


@st.composite
def instances_with_base_vertex(draw):
    q, n, d = draw(st.sampled_from([(2, 4, 2), (2, 5, 2), (2, 5, 1), (3, 4, 1), (3, 4, 2)]))
    row = st.tuples(*[st.integers(0, q - 1)] * n)
    rows = draw(st.lists(row, min_size=d, max_size=d))
    assume(subspace_from_rows(q, n, rows).dim == d)
    return q, n, d, tuple(rows)


@settings(max_examples=10, deadline=None)
@given(instances_with_base_vertex())
def test_pieces_match_dense_oracle(instance):
    q, n, d, x_rows = instance
    ss = spectral_system(build_graph(q, n, d, x_rows=x_rows))
    ss.checks.require()
    nd = compute_nucleus(ss)
    nd.checks.require()
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
    assert nucleus252.paths == ["base_vertex", "squeeze", "constants"]
    assert_same_pieces(nucleus252, oracle252)


def test_forced_bareiss_fallback(nucleus252, oracle252, j252_spectral, monkeypatch):
    # a modular rank that under-reports breaks every squeeze, so each
    # piece between the extremes must be recomputed exactly
    real = qgrass.nucleus.rank_mod_prime
    monkeypatch.setattr(qgrass.nucleus, "rank_mod_prime", lambda m: real(m) - 1)
    nd = compute_nucleus(j252_spectral)
    assert nd.paths == ["base_vertex", "bareiss", "constants"]
    assert nd.dims == nucleus252.dims
    assert check_rows(nd.checks) == check_rows(nucleus252.checks)
    assert_same_pieces(nd, oracle252)


def _unit_vectors_on_sphere_1(gc, alphas):
    """Inside the ball B_1 but not fixed by F_1."""
    sphere = np.flatnonzero(gc.dist[gc.x_index] == 1)
    out = []
    for y in sphere[: len(alphas)]:
        e = np.full(gc.n_vertices, 0, dtype=object)
        e[y] = 1
        out.append(ExactVector(e))
    return out


def _ones_among_vees(gc, alphas):
    """Fixed by F_1 but not supported in the ball B_1."""
    vees = containment_vectors(gc, alphas)
    return [ExactVector(np.full(gc.n_vertices, 1, dtype=object))] + vees[1:]


@pytest.mark.parametrize("fake", [_unit_vectors_on_sphere_1, _ones_among_vees])
def test_squeeze_rejects_vectors_outside_the_piece(
    nucleus252, j252_spectral, monkeypatch, fake
):
    monkeypatch.setattr(qgrass.nucleus, "containment_vectors", fake)
    nd = compute_nucleus(j252_spectral)
    assert nd.paths == ["base_vertex", "bareiss", "constants"]
    assert check_rows(nd.checks) == check_rows(nucleus252.checks)


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
    (bottom,) = nucleus252.bases[0]
    assert list(np.flatnonzero(bottom.a != 0)) == [j252.x_index]
    (top,) = nucleus252.bases[2]
    vals = set(top.a.tolist())
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
    assert all(v == 1 for v in fam252.vee[0].a.tolist())
    assert list(np.flatnonzero(fam252.vee[-1].a != 0)) == [j252.x_index]
    assert list(np.flatnonzero(fam252.meet[-1].a != 0)) == [j252.x_index]


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
    # the containment vectors fall short of the middle piece here
    assert doc["nucleus_paths"] == ["base_vertex", "bareiss", "constants"]
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
