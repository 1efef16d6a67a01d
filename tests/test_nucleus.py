"""Nucleus computation, the two vector families, and sphere fibrations."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qgrass.cli
import qgrass.nucleus
from qgrass.grassmann import (
    GraphContext,
    SpectralSystem,
    build_graph,
    integer_coeffs,
    intersection_numbers,
    spectral_system,
)
from qgrass.ladders import alpha_dominant_multiplicity
from qgrass.linalg import (
    ExactMatrix,
    certified_kernel,
    column_space_ops,
    elimination_counts,
    exact_int_product,
    intersect_column_spaces,
    rank_exact,
    rank_mod_prime,
    span_rank,
)
from qgrass.nucleus import (
    boundary_case_report,
    build_alpha_family,
    component_labels,
    compute_nucleus,
    gamma_components,
    layer_grams,
    nucleus_report_json,
    subspaces_of_base,
    transition_matrices,
    verify_actions,
    verify_bases,
)
from qgrass.report import CheckSet

from oracles import (
    actions_by_dense_adjacency,
    base_vertex,
    containment_vectors,
    entries,
    gram_rows_by_product,
    mask_dim,
    patch_inclusion,
    patch_table,
)
from strategies import instances_with_base_vertex


def dense_oracle_pieces(ss):
    """Test-only reference for the nucleus pieces: the coordinate ball
    B_i intersected with the column space of E_0 + ... + E_{D-i}, both
    spanned explicitly and intersected by exact elimination.  Each piece
    is an object array of Python ints whose rows are a basis."""
    gc = ss.gc
    d, nv = gc.d, gc.n_vertices
    xrow = gc.xrow
    pieces = []
    for i in range(d + 1):
        coords = ExactMatrix.from_int_array(np.eye(nv, dtype=np.int64)[:, xrow <= i])
        if i == 0:
            pieces.append(coords.T.a)
            continue
        values = np.array(
            [sum(ss.e_coeffs[t][h] for t in range(d - i + 1)) for h in range(d + 1)],
            dtype=object,
        )
        f_mat = ExactMatrix(values[gc.distances(slice(None))])
        pivots = column_space_ops(f_mat, want_nullspace=False).pivot_columns
        pieces.append(intersect_column_spaces(coords, ExactMatrix(f_mat.a[:, pivots])).T.a)
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
    # a free row of W_1 (a point u of x) with one vertex y of the sphere
    # B_1 - B_0 cleared stays free, so the squeeze hands it out as a
    # basis vector of N_1 although it has left F_1 V; the layer count
    # sees it, and so does the vee family, read through the corrupted
    # accessor (its count of vertices over u) and through the true one
    gc = build_graph(2, 5, 2)
    ss = spectral_system(gc)
    ss.checks.require()
    w = gc.inclusion(1)
    xrow = gc.xrow
    u = int(np.flatnonzero(~w[:, xrow > 1].any(axis=1))[0])
    y = int(np.flatnonzero(w[u] & (xrow == 1))[0])

    def cleared(gc, i, w):
        if i == 1:
            w[u, y] = False
        return w

    with pytest.MonkeyPatch.context() as mp:
        patch_inclusion(mp, cleared)
        nd = compute_nucleus(ss)
        assert "containment_counts" in failing(build_alpha_family(gc).checks)
    assert nd.paths == ["base_vertex", "squeeze", "squeeze"]
    assert "layer_dimensions_agree" in failing(nd.checks)
    fam = build_alpha_family(gc)
    fam.checks.require()
    assert "vee_vectors_lie_in_their_piece" in failing(verify_bases(nd, fam))


@pytest.mark.parametrize("q,n,d", [(2, 4, 2), (3, 4, 2)])
def test_failed_kernel_certificate_falls_back_to_bareiss(q, n, d, monkeypatch):
    # at N = 2D the middle piece comes from an exact kernel; with every
    # certificate failing, Bareiss gives the same piece, vector for vector
    ss = spectral_system(build_graph(q, n, d))
    ss.checks.require()
    with elimination_counts() as certified:
        ref = compute_nucleus(ss)
    assert "kernel" in ref.paths
    assert certified["fallback"] == certified["bareiss"] == 0 < certified["certified"]
    monkeypatch.setattr(qgrass.linalg, "certified_kernel", lambda m, p=None: None)
    with elimination_counts() as counts:
        nd = compute_nucleus(ss)
    assert nd.paths == ref.paths
    assert check_rows(nd.checks) == check_rows(ref.checks)
    assert counts["certified"] == 0 and counts["fallback"] == counts["bareiss"] > 0
    for basis, ref_basis in zip(nd.bases, ref.bases):
        assert np.array_equal(basis, ref_basis)
    assert_same_pieces(nd, dense_oracle_pieces(ss))


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
    # a dropped entry of table(1), so a dropped row of W_1, fails the
    # rank certificate, and with it the premise of every shortcut
    patch_table(monkeypatch, 1, lambda rows: rows[1:])
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
    (bottom,) = nucleus252.bases[0]
    assert list(np.flatnonzero(bottom != 0)) == [j252.x_index]
    (top,) = nucleus252.bases[2]
    vals = set(top.tolist())
    assert len(vals) == 1 and 0 not in vals


def test_multiplicities_match_alpha_dominant(nucleus252):
    q, d = nucleus252.gc.q, nucleus252.gc.d
    assert nucleus252.mult_r == [
        alpha_dominant_multiplicity(q, d, r) for r in range(d // 2 + 1)
    ]


def test_subspaces_of_base_cover_x(j252):
    dims, words, at = subspaces_of_base(j252)
    masks = [int.from_bytes(w.tobytes(), "little") for w in words]
    # each alpha's words are those of its entry in the table of its dimension
    for l in range(3):
        assert (j252.geometry.table(l).words[at[dims == l]] == words[dims == l]).all()
    x = base_vertex(j252.geometry)
    assert dims.tolist() == [0, 1, 1, 1, 2]
    assert all(m & x.mask == m for m in masks)
    assert masks[-1] == x.mask
    # oracle: the table entries inside x, by dimension then table order
    inside = [
        u for l in range(3) for u in entries(j252.geometry.table(l)) if u.mask & x.mask == u.mask
    ]
    assert masks == [u.mask for u in inside]


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
    p = len(fam252.dims)
    # containment pattern: zero subspace under everything, x over all
    assert all(t_vee[0][j] == 1 for j in range(p))
    assert [t_vee[i][p - 1] for i in range(p)] == [1, 1, 1, 1, 1]
    # signed inverse: gap-2 entry carries q^1, gap-1 entries carry -1
    assert t_meet[0][p - 1] == 2
    assert t_meet[0][1] == -1
    assert t_meet[1][p - 1] == -1
    assert t_meet[0][0] == 1


@pytest.mark.parametrize("q,n,d", [(2, 5, 2), (3, 4, 2), (2, 6, 3)])
def test_gamma_labels_each_sphere_once(q, n, d, monkeypatch):
    # every edge of the outer sphere is same-fibre, so its fibre labels
    # already say whether it is connected: one labelling pass per sphere,
    # one merge per row block of its edges
    calls = []
    real = qgrass.nucleus.component_labels
    monkeypatch.setattr(
        qgrass.nucleus, "component_labels", lambda k, a, b: calls.append(k) or real(k, a, b)
    )
    gc = build_graph(q, n, d)
    rep = gamma_components(gc, build_alpha_family(gc))
    rep.checks.require()
    sizes = np.bincount(gc.xrow).tolist()
    assert calls == [k for k in sizes for _blk in qgrass.linalg.row_blocks(k, k)]
    if (q, n, d) == (2, 6, 3):  # its spheres of 784 and 512 take several blocks
        assert len(calls) > len(sizes)


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
    edge obeys the cover dichotomy, from one mask_dim call per
    adjacent pair as gamma_components computed them before the
    incidence product."""
    q, d = gc.q, gc.d
    xmask = base_vertex(gc.geometry).mask
    masks = [v.mask for v in entries(gc.vertices)]
    xrow = gc.xrow
    dist = gc.distances(slice(None))
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
                if dist[a, b] != 1:
                    continue
                join(full, a, b)
                dmx = mask_dim(masks[a] & masks[b] & xmask, q)
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
            for ia in np.flatnonzero(fam.dims == d - i)
        )
        assert fibers[i] == meet_sets


@pytest.mark.parametrize("q,n,d", [(2, 5, 2), (3, 4, 2)])
def test_gamma_merges_labels_across_row_blocks(q, n, d, monkeypatch):
    # one sphere row per block: the labels merged block by block are the
    # pair-loop fibres; with every outer-sphere edge read as crossing
    # fibres, the outer sphere is still connected through those edges
    gc = build_graph(q, n, d)
    fam = build_alpha_family(gc)
    fibers, _full_counts, _dichotomy = pair_loop_fibers(gc)
    monkeypatch.setattr(qgrass.linalg, "_BLOCK_BYTES", 8)
    rep = gamma_components(gc, fam)
    rep.checks.require()
    assert rep.component_sizes == [sorted(len(c) for c in f) for f in fibers]
    real = qgrass.nucleus._edge_meets
    monkeypatch.setattr(qgrass.nucleus, "_edge_meets", lambda *args: real(*args) + 1)
    verdicts = {c.name: c.passed for c in gamma_components(gc, fam).checks.checks}
    assert not verdicts["edge_meets_obey_cover_dichotomy"]
    assert not verdicts[f"component_count_{d}"]
    assert verdicts["outer_sphere_connected"]


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


class DisjointSets:
    """Test-only oracle for `component_labels`: the per-edge union-find
    that gamma_components used before the label propagation.  A root is
    always the least member of its set."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        p = self.parent
        while p[a] != a:
            p[a] = p[p[a]]
            a = p[a]
        return a

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


@st.composite
def edge_lists(draw):
    """(n, a, b): random edges on n vertices, some vertices isolated,
    often with a long path through a shuffled vertex order (the slowest
    case for label propagation), edges in either direction."""
    n = draw(st.integers(0, 60))
    if n == 0:
        return 0, [], []
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
    if draw(st.booleans()):
        path = draw(st.permutations(range(draw(st.integers(1, n)))))
        flips = draw(st.lists(st.booleans(), min_size=len(path), max_size=len(path)))
        edges += [(v, u) if f else (u, v) for u, v, f in zip(path, path[1:], flips)]
    edges = draw(st.permutations(edges))
    return n, [u for u, _v in edges], [v for _u, v in edges]


@settings(max_examples=300, deadline=None)
@given(edge_lists())
def test_component_labels_match_union_find(graph):
    n, a, b = graph
    dsu = DisjointSets(n)
    for u, v in zip(a, b):
        dsu.union(u, v)
    want = np.array([dsu.find(k) for k in range(n)], dtype=np.int64)
    got = component_labels(n, np.array(a, dtype=np.intp), np.array(b, dtype=np.intp))
    assert got.tolist() == want.tolist()
    assert int((got == np.arange(n)).sum()) == len(set(want.tolist()))


@pytest.mark.parametrize("n", [1, 2, 65, 1000])
def test_component_labels_on_long_paths(n):
    # a path through a reversed order and one through an interleaved
    # order: every vertex ends on label 0
    for order in (np.arange(n)[::-1], np.concatenate([np.arange(0, n, 2), np.arange(1, n, 2)])):
        got = component_labels(n, order[:-1], order[1:])
        assert not got.any()
    assert component_labels(n, np.zeros(0, np.intp), np.zeros(0, np.intp)).tolist() == list(
        range(n)
    )


@pytest.mark.parametrize("outer", [False, True], ids=["inner-spheres", "outer-sphere"])
def test_meet_count_off_the_dichotomy_fails(monkeypatch, outer):
    # per-edge meet counts that are neither q^(D-i) nor q^(D-i-1): inner
    # spheres inflated by q^2, or the outer sphere (where every count is
    # 1) by 3
    real = qgrass.nucleus._edge_meets

    def inflate(words, ka, kb):
        out = real(words, ka, kb)
        if out.size and (out.max() <= 1) == outer:
            out = out * (3 if outer else 4)
        return out

    monkeypatch.setattr(qgrass.nucleus, "_edge_meets", inflate)
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
    gc = build_graph(2, 4, 2)
    ss = spectral_system(gc)
    fam = build_alpha_family(gc)
    doc = boundary_case_report(
        ss, compute_nucleus(ss), fam, gamma_components(gc, fam), verify_actions(ss, fam)
    )
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


def columns_read(monkeypatch):
    """The number of columns of each `_adjacent_counts` call, in order."""
    read = []
    counts = qgrass.nucleus._adjacent_counts
    monkeypatch.setattr(
        qgrass.nucleus,
        "_adjacent_counts",
        lambda gc, f, cols: read.append(len(cols)) or counts(gc, f, cols),
    )
    return read


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
    # entry x of the row of W_1 at alpha #2, a point of x: its vee vector
    _dims, _words, alphas = subspaces_of_base(j252)
    patch_inclusion(
        monkeypatch, lambda gc, i, w: flipped(w, alphas[2], gc.x_index) if i == 1 else w
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


@pytest.mark.parametrize("dense", [False, True], ids=["representatives", "every_row"])
@pytest.mark.parametrize("q,n,d", [(2, 5, 2), (3, 4, 2), (2, 6, 3)])
def test_inclusion_reads_match_whole_matrix_oracles(q, n, d, dense):
    # the vee family and the Gram rows read W_i at chosen rows only; the
    # subset test and the product of the whole W_i give them back
    with pytest.MonkeyPatch.context() as mp:
        if dense:
            mp.setattr(qgrass.grassmann, "_group_action", lambda gc: None)
        gc = build_graph(q, n, d)
    assert gc.certificate_path == ("dense" if dense else "automorphism")
    fam = build_alpha_family(gc)
    assert np.array_equal(fam.vee, containment_vectors(gc, fam.words))
    for i in range(d):
        for rows in (np.arange(gc.n_vertices), np.array([gc.x_index])):
            got = np.empty((len(rows), gc.n_vertices), dtype=np.int64)
            for blk, gram in gc.gram_rows(i, rows):
                got[blk] = gram
            assert np.array_equal(got, gram_rows_by_product(gc, i, rows)), (i, len(rows))


def test_corrupt_meet_entry(j252, j252_spectral, nucleus252, fam252, monkeypatch):
    # a vertex on the outer sphere, so the corrupted row leaves the nucleus;
    # the meet family is no longer invariant, so every column is read
    y = int(np.flatnonzero(j252.xrow == 2)[0])
    fam = dataclasses.replace(fam252, meet=flipped(fam252.meet, 1, y))
    read = columns_read(monkeypatch)
    assert failing(verify_actions(j252_spectral, fam)) == {
        "adjacency_on_meet": "dim 2 alpha #4",
        "dual_adjacency_on_meet": "dim 1 alpha #1",
    }
    assert read == [j252.n_vertices]
    assert failing(verify_bases(nucleus252, fam)) == {
        "meet_vectors_lie_in_nucleus": "alpha #1",
    }
    assert failing(gamma_components(j252, fam).checks) == {
        "components_match_meet_vectors_1": None,
        "fiber_vectors_supported_on_sphere": None,
    }


# ---------------------------------------------------------------------------
# layer dimensions from p x p Gram matrices


@pytest.fixture(scope="module", params=[(2, 4, 2), (2, 5, 2), (3, 4, 2), (2, 6, 3)], ids=str)
def layered(request):
    """(ss, nucleus, coefficient rows of the E_r, the images den_r E_r B^T
    of the combined basis B from the dense numerators of the E_r)."""
    q, n, d = request.param
    ss = spectral_system(build_graph(q, n, d))
    ss.checks.require()
    nd = compute_nucleus(ss)
    nd.checks.require()
    basis_t = nd.combined_basis().T
    nv = ss.gc.n_vertices
    images = [exact_int_product(ss.idempotent_numerator(r)[0], basis_t, nv) for r in range(d + 1)]
    return ss, nd, [integer_coeffs(e)[0] for e in ss.e_coeffs], images


def test_layer_grams_match_class_sums_oracle(layered):
    # B (den E_r B^T), with the images from the dense numerators of the
    # E_r, is the Gram route's matrix entry for entry, and both give
    # e_dims
    ss, nd, coeffs, images = layered
    basis = nd.combined_basis()
    grams = layer_grams(ss.gc, basis, coeffs)
    for gram, image in zip(grams, images):
        assert gram.shape == (len(basis), len(basis))
        assert (gram.astype(object) == np.dot(basis.astype(object), image.astype(object))).all()
    assert nd.e_dims == [rank_exact(g) for g in grams] == [rank_exact(i) for i in images]


@pytest.mark.parametrize("mutation", ["coefficient", "row"])
def test_layer_gram_mutations_break_the_agreement(layered, mutation, monkeypatch):
    # a wrong c_h, or one basis row shifted by a vertex, on the Gram side
    # only: its ranks leave those of the dense images, and the layer
    # dimensions no longer agree
    ss, nd, coeffs, images = layered
    real = qgrass.nucleus.layer_grams

    def mutated(gc, basis, coeff_rows):
        if mutation == "coefficient":
            coeff_rows = [list(row) for row in coeff_rows]
            coeff_rows[1][0] += 1
        else:
            basis = basis.copy()
            basis[1] = np.roll(basis[1], 1)
        return real(gc, basis, coeff_rows)

    monkeypatch.setattr(qgrass.nucleus, "layer_grams", mutated)
    got = compute_nucleus(ss)
    assert got.e_dims != [rank_exact(i) for i in images] == nd.e_dims
    assert "layer_dimensions_agree" in failing(got.checks)


def test_unverified_spectrum_reads_the_class_sums(j252_spectral, nucleus252, monkeypatch):
    # with a spectral check failing, the images E_r B^T are formed from
    # the dense numerators of the E_r, and the layer checks read as before
    calls = []
    real = SpectralSystem.idempotent_numerator
    monkeypatch.setattr(
        SpectralSystem, "idempotent_numerator", lambda ss, r: calls.append(r) or real(ss, r)
    )
    monkeypatch.setattr(qgrass.nucleus, "layer_grams", None)
    failed = CheckSet("spectral system")
    failed.extend(j252_spectral.checks)
    failed.check("forced_failure", True, False)
    nd = compute_nucleus(dataclasses.replace(j252_spectral, checks=failed))
    assert calls == [0, 1, 2]
    assert nd.e_dims == nucleus252.e_dims


# ---------------------------------------------------------------------------
# operator actions at one column per sphere


@pytest.fixture(scope="module", params=[(2, 5, 2), (3, 4, 2)], ids=str)
def acting(request):
    gc = build_graph(*request.param)
    ss = spectral_system(gc)
    ss.checks.require()
    fam = build_alpha_family(gc)
    fam.checks.require()
    return ss, fam


def verdicts(cs):
    return [(c.name, c.passed, c.witness) for c in cs.checks]


def one_entry(coeffs, fam):
    coeffs[1][1, 2] += 1


def one_diagonal(k):
    """The diagonal entry of one point of x in coefficient matrix k: the
    points of x are one orbit, so the change breaks C[pi][:, pi] == C."""

    def change(coeffs, fam):
        a = fam.by_dim[1][0]
        coeffs[k][a, a] += 1

    return change


def one_class(coeffs, fam):
    # every diagonal entry of the dimension-1 alphas: invariant
    for a in fam.by_dim[1]:
        coeffs[0][a, a] += 1


def one_row(fam):
    meet = fam.meet.copy()
    meet[1] = fam.vee[1]
    return dataclasses.replace(fam, meet=meet)


def one_dimension(fam):
    # the meet rows of every dimension-1 alpha: invariant
    meet = fam.meet.copy()
    meet[fam.by_dim[1]] = fam.vee[fam.by_dim[1]]
    return dataclasses.replace(fam, meet=meet)


@pytest.mark.parametrize("trivial", [False, True], ids=["action", "trivial-group"])
@pytest.mark.parametrize(
    "coeff_change,family_change,reduced",
    [
        (None, None, True),
        (one_entry, None, False),
        *((one_diagonal(k), None, False) for k in range(4)),
        (one_class, None, True),
        (None, one_row, False),
        (None, one_dimension, True),
    ],
    ids=[
        "none",
        "coefficient-entry",
        *(f"coefficient-diagonal-{k}" for k in range(4)),
        "coefficient-class",
        "family-row",
        "family-dimension",
    ],
)
def test_actions_match_all_columns_oracle(
    acting, coeff_change, family_change, reduced, trivial, monkeypatch
):
    # the same verdicts and witnesses as every column of the dense
    # product; one column per sphere is read exactly when the group is
    # verified and the change keeps both invariance premises
    ss, fam = acting
    if family_change is not None:
        fam = family_change(fam)
    real = qgrass.nucleus._action_coefficients

    def coefficients(ss, fam):
        coeffs = real(ss, fam)
        if coeff_change is not None:
            coeff_change(coeffs, fam)
        return coeffs

    monkeypatch.setattr(qgrass.nucleus, "_action_coefficients", coefficients)
    if trivial:
        monkeypatch.setattr(ss.gc, "action", None)
    read = columns_read(monkeypatch)
    got = verdicts(verify_actions(ss, fam))
    assert got == verdicts(actions_by_dense_adjacency(ss, fam))
    assert all(passed for _n, passed, _w in got) == (coeff_change is family_change is None)
    assert read == [ss.gc.d + 1 if reduced and not trivial else ss.gc.n_vertices]


def test_actions_hold_no_square_array(monkeypatch):
    # a passing run reads D + 1 rows of the distances; under the trivial
    # group every row is read, a block at a time, and the p x |X| counts
    # are scaled in int64 (a peak of 181 KB at J_2(6,2), against 293 KB
    # for Python ints), below |X|^2 / 2 bytes; no |X| x |X| bool is held
    # either way
    gc = build_graph(2, 6, 2)
    ss = spectral_system(gc)
    fam = build_alpha_family(gc)
    nv = gc.n_vertices
    monkeypatch.setattr(qgrass.linalg, "_BLOCK_BYTES", 8 * nv * 8)
    for action in (gc.action, None):
        monkeypatch.setattr(gc, "action", action)
        verify_actions(ss, fam).require()
        tracemalloc.start()
        try:
            verify_actions(ss, fam)
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < nv * nv // (8 if action is not None else 2), peak


def test_passing_run_allocates_no_square_array():
    # J_2(7,2), 2667 vertices, from the build through the sphere
    # fibrations: the traced peak stays below |X|^2 bytes (7.1 MB), the
    # size of one int8 |X| x |X| distance matrix
    tracemalloc.start()
    try:
        gc = build_graph(2, 7, 2)
        _nums, ncs = intersection_numbers(gc)
        ss = spectral_system(gc)
        nd = compute_nucleus(ss)
        fam = build_alpha_family(gc)
        checks = [gc.build_checks, ncs, ss.checks, nd.checks, fam.checks]
        checks += [verify_actions(ss, fam), verify_bases(nd, fam), gamma_components(gc, fam).checks]
        _now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    for cs in checks:
        cs.require()
    assert gc.certificate_path == "automorphism"
    assert peak < gc.n_vertices**2, peak


def test_squeeze_rank_copies_its_rows_once():
    # the squeeze rows of J_2(7,2) at i = 1 (124 x 2480, bool) become
    # one int64 array of residues, 0/1 needing no reduction: the traced
    # peak of `rank_mod_prime` is that copy and the elimination's row
    # temporaries.  `certified_kernel` of the transpose adds the reduced
    # form's column blocks, below one more copy
    gc = build_graph(2, 7, 2)
    w = gc.inclusion(gc.d - 1)
    off = w[:, gc.xrow > 1]
    rows = off[off.any(axis=1)]
    assert rows.shape == (124, 2480)
    copy = rows.size * 8
    for elimination, operand, bound in (
        (rank_mod_prime, rows, 1.25 * copy),
        (certified_kernel, rows.T, 2 * copy),
    ):
        tracemalloc.start()
        try:
            elimination(operand)
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, (elimination.__name__, peak, copy)


def test_gamma_forms_no_product(monkeypatch):
    # the only 0/1 products of gamma_components are the distance reads of
    # the sphere blocks, each on vertices of one sphere, each row once;
    # the meet counts of every block come from `_edge_meets`
    gc = build_graph(2, 6, 2)
    fam = build_alpha_family(gc)
    real_distances, real_stream = GraphContext.distances, qgrass.linalg._stream
    real_meets = qgrass.nucleus._edge_meets
    vertices = np.arange(gc.n_vertices)
    inside, reads, meets = [], [], []

    def distances(self, rows, cols=None):
        reads.append((vertices[rows], vertices if cols is None else vertices[cols]))
        inside.append(True)
        try:
            return real_distances(self, rows, cols)
        finally:
            inside.pop()

    def stream(pa, pb, inner):
        if not inside:
            raise AssertionError("a 0/1 product streamed in gamma_components")
        return real_stream(pa, pb, inner)

    monkeypatch.setattr(GraphContext, "distances", distances)
    monkeypatch.setattr(qgrass.linalg, "_stream", stream)
    monkeypatch.setattr(
        qgrass.nucleus, "_edge_meets", lambda *args: meets.append(1) or real_meets(*args)
    )
    gamma_components(gc, fam).checks.require()
    assert len(meets) == len(reads) > 0
    for ys, zs in reads:
        assert len(set(gc.xrow[np.concatenate([ys, zs])].tolist())) == 1
    assert sorted(np.concatenate([ys for ys, _zs in reads]).tolist()) == vertices.tolist()
