"""Graph construction, spectra, Krein parameters, and module data.

Oracles here avoid the code paths under test: common neighbors are
counted directly from subspace masks, dual eigenvalues are rederived
from the counted products through the explicit quadratic in A, and the
module intersection numbers are validated through the characteristic
polynomial of the tridiagonal matrix they define.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from qgrass import grassmann
from qgrass.errors import InvalidParameters, InvalidQuadruple
from qgrass.grassmann import (
    _bfs_full_check,
    build_graph,
    dual_eigenvalue_formulas,
    eigenvalue_formulas,
    exact_int_product,
    intersection_number_formulas,
    intersection_numbers,
    krein_parameters,
    spectral_system,
    spectrum_json,
    structure_constants,
    tmodule_condition_violations,
    tmodule_intersection_numbers,
)
from qgrass.linalg import ExactMatrix
from qgrass.report import CheckSet
from qgrass.subspaces import dim_of_mask

from strategies import instances_with_base_vertex

J252_THETA = [42, 11, -3]
J252_MULT = [1, 30, 124]
J252_THETA_STAR = [Fraction(30), Fraction(55, 7), Fraction(-45, 14)]


def count_common_neighbors(gc, a: int, b: int) -> int:
    """Brute-force count of w adjacent to both a and b, straight from
    the subspace masks."""
    masks = [v.mask for v in gc.vertices]
    d = gc.d
    total = 0
    for w in range(gc.n_vertices):
        if w in (a, b):
            continue
        if (
            dim_of_mask(masks[w] & masks[a], gc.q) == d - 1
            and dim_of_mask(masks[w] & masks[b], gc.q) == d - 1
        ):
            total += 1
    return total


def poly_from_roots(roots):
    """Monic polynomial with the given roots, little-endian coefficients."""
    p = [Fraction(1)]
    for r in roots:
        shifted = [Fraction(0)] + p
        p = [s - Fraction(r) * c for s, c in zip(shifted, p + [Fraction(0)])]
    return p


def charpoly_tridiag(a, b, c):
    """det(lambda I - T) for T with diagonal a, subdiagonal b, and
    superdiagonal c (c[0] unused), by the three-term recurrence."""
    prev = [Fraction(1)]
    cur = [-Fraction(a[0]), Fraction(1)]
    for i in range(1, len(a)):
        shifted = [Fraction(0)] + cur
        lam_minus = [
            s - Fraction(a[i]) * v
            for s, v in zip(shifted, cur + [Fraction(0)])
        ]
        w = Fraction(b[i - 1]) * Fraction(c[i])
        nxt = [
            lv - w * (prev[j] if j < len(prev) else Fraction(0))
            for j, lv in enumerate(lam_minus)
        ]
        prev, cur = cur, nxt
    return cur


def test_poly_oracles_agree():
    # the two polynomial builders must agree on a diagonal matrix
    diag = [3, -1, 7]
    assert charpoly_tridiag(diag, [0, 0], [0, 0, 0]) == poly_from_roots(diag)


def test_build_rejects_bad_parameters():
    with pytest.raises(InvalidParameters):
        build_graph(2, 2, 2)
    with pytest.raises(InvalidParameters):
        build_graph(2, 5, 0)
    with pytest.raises(InvalidParameters, match="complement"):
        build_graph(2, 3, 2)
    with pytest.raises(InvalidParameters):
        build_graph(4, 5, 2)


def test_boundary_flag():
    gc = build_graph(2, 4, 2)
    assert gc.boundary
    assert gc.n_vertices == 35
    assert not build_graph(2, 5, 1).boundary


def test_j252_shape(j252):
    assert j252.n_vertices == 155
    assert not j252.boundary
    assert int(j252.dist[j252.x_index, j252.x_index]) == 0
    names = {c.name for c in j252.build_checks.checks}
    assert "bfs_distances_match_meet_formula" in names
    assert "sphere_equals_layer" in names


def test_j252_distance_against_intersection(j252):
    # independent distance route: subspace intersection via nullspace
    from qgrass.subspaces import intersect

    rng = random.Random(11)
    n = j252.n_vertices
    for _ in range(60):
        a, b = rng.randrange(n), rng.randrange(n)
        meet = intersect(j252.vertices[a], j252.vertices[b])
        assert int(j252.dist[a, b]) == j252.d - meet.dim


def test_j252_intersection_numbers(j252):
    nums, cs = intersection_numbers(j252)
    cs.require()
    assert nums.k == 42
    assert nums.b == [42, 24, 0]
    assert nums.c == [0, 1, 9]
    assert nums.a == [0, 17, 33]


def test_j252_common_neighbor_counts(j252):
    # representative pair per distance class, counted from masks alone
    x = j252.x_index
    expected = {0: 42, 1: 17, 2: 9}
    for h, want in expected.items():
        if h == 0:
            # diagonal of A^2 is the valency
            y = x
            got = sum(
                1
                for w in range(j252.n_vertices)
                if w != x
                and dim_of_mask(
                    j252.vertices[w].mask & j252.vertices[x].mask, j252.q
                )
                == j252.d - 1
            )
        else:
            y = int(np.flatnonzero(j252.dist[x] == h)[0])
            got = count_common_neighbors(j252, x, y)
        assert got == want, f"class {h}"


def test_j252_spectral_frozen(j252_spectral):
    ss = j252_spectral
    assert ss.theta == J252_THETA
    assert ss.m == J252_MULT
    assert ss.theta_star == J252_THETA_STAR
    names = {c.name for c in ss.checks.checks}
    assert "minimal_polynomial_vanishes" in names
    assert "idempotency" in names
    assert "orthogonality" in names
    assert "rank_certificate" in names


def test_j252_sphere_sizes(j252_spectral):
    sizes = next(
        c.observed for c in j252_spectral.checks.checks if c.name == "sphere_sizes"
    )
    assert sizes == [1, 42, 112]


def test_theta_star_independent_oracle(j252):
    """Rebuild E_1 coefficients from counted common neighbors through
    (A^2 - 39A - 126I) / -434 and compare the scaled values."""
    x = j252.x_index
    reps = [int(np.flatnonzero(j252.dist[x] == h)[0]) for h in (1, 2)]
    a2 = {0: 42, 1: count_common_neighbors(j252, x, reps[0]), 2: count_common_neighbors(j252, x, reps[1])}
    t0, t1, t2 = J252_THETA
    den = (t1 - t0) * (t1 - t2)
    coeffs = [
        Fraction(a2[h] - (t0 + t2) * (1 if h == 1 else 0) + t0 * t2 * (1 if h == 0 else 0), den)
        for h in range(3)
    ]
    assert [155 * c for c in coeffs] == J252_THETA_STAR


def test_dual_formula_complete_graph():
    # K_7 as J_2(3,1): E_1 = I - J/7 gives the dual eigenvalues directly
    assert dual_eigenvalue_formulas(2, 3, 1) == [Fraction(6), Fraction(-1)]


def test_theta_star_zero_is_first_multiplicity(j252_spectral):
    assert j252_spectral.theta_star[0] == j252_spectral.m[1]


def test_j252_krein(j252_spectral):
    kp, cs = krein_parameters(j252_spectral)
    cs.require()
    # q^0_{ij} = delta_ij m_i and q^h_{0j} = delta_hj
    assert kp[0][1][1] == 30
    assert kp[0][2][2] == 124
    assert kp[0][1][2] == 0
    assert kp[0][0][0] == 1
    for h in range(3):
        for j in range(3):
            assert kp[h][0][j] == (1 if h == j else 0)
    assert kp[1][1][2] == kp[1][2][1]


def test_j341_complete_graph(j341):
    assert j341.n_vertices == 40
    off = ~np.eye(40, dtype=bool)
    assert (j341.dist[off] == 1).all()
    ss = spectral_system(j341)
    ss.checks.require()
    assert ss.theta == [39, -1]
    assert ss.m == [1, 39]


def test_boundary_spectral_passes():
    gc = build_graph(2, 4, 2)
    gc.build_checks.require()
    ss = spectral_system(gc)
    ss.checks.require()
    assert ss.theta == [18, 3, -3]
    assert sum(ss.m) == 35


def test_structure_constants_empty_class():
    # a distance class that never occurs has a zero matrix; its row of
    # the intersection matrix is zero rather than an index error
    gc = build_graph(3, 4, 1)
    gc.d = 2
    gc._L = None
    L, cs = structure_constants(gc)
    assert cs.ok
    assert L[2] == [0, 0, 0]
    assert L[0][1] == 39
    assert L[1] == [1, 38, 0]


def test_structure_constants_cached(j252):
    p1, _ = structure_constants(j252)
    p2, _ = structure_constants(j252)
    assert p1 is p2


# ---------------------------------------------------------------------------
# dense oracle for the distance-algebra checks


def dense_spectral_oracle(ss):
    """The dense checks the spectral system once ran on |X| x |X|
    matrices: the minimal polynomial product over the built adjacency
    matrix, and idempotency and orthogonality of the materialized
    idempotents.  Returns the three verdicts."""
    gc, theta, d = ss.gc, ss.theta, ss.gc.d
    eye = ExactMatrix.identity(gc.n_vertices)
    adj = ExactMatrix.from_class_values(gc.dist, {h: int(h == 1) for h in range(d + 1)})
    prod = adj - theta[0] * eye
    for t in theta[1:]:
        prod = prod @ (adj - t * eye)
    nums = [ss.idempotent_numerator(i) for i in range(d + 1)]
    idem = all((m @ m).equals(den * m) for m, den in nums)
    orth = all(
        (nums[i][0] @ nums[j][0]).is_zero()
        for i in range(d + 1)
        for j in range(i + 1, d + 1)
    )
    return {
        "minimal_polynomial_vanishes": prod.is_zero(),
        "idempotency": idem,
        "orthogonality": orth,
    }


def dense_product_table(gc):
    """p[h][i][j] from all (D+1)(D+2)/2 dense products A_i A_j, as plain
    int64 matmuls (entries at most |X|, far from overflow)."""
    d = gc.d
    a64 = [(gc.dist == i).astype(np.int64) for i in range(d + 1)]
    p = [[[None] * (d + 1) for _ in range(d + 1)] for _ in range(d + 1)]
    for i in range(d + 1):
        for j in range(i, d + 1):
            prod = a64[i] @ a64[j]
            for h in range(d + 1):
                vals = prod[gc.dist == h]
                assert (vals == vals[0]).all()
                p[h][i][j] = p[h][j][i] = int(vals[0])
    return p


def table_from_recurrence(L):
    """p[h][i][j] from L alone: A_{i+1} M = (A_1 A_i M - a_i A_i M -
    b_{i-1} A_{i-1} M) / c_{i+1} on coefficient vectors."""
    d = len(L) - 1

    def apply_l(v):
        return [sum(row[g] * v[g] for g in range(d + 1)) for row in L]

    p = [[[None] * (d + 1) for _ in range(d + 1)] for _ in range(d + 1)]
    for j in range(d + 1):
        unit = [Fraction(1 if h == j else 0) for h in range(d + 1)]
        ops = [unit, apply_l(unit)]
        for i in range(1, d):
            nxt = [
                (x - L[i][i] * y - L[i - 1][i] * z) / L[i + 1][i]
                for x, y, z in zip(apply_l(ops[i]), ops[i], ops[i - 1])
            ]
            ops.append(nxt)
        for i in range(d + 1):
            for h in range(d + 1):
                p[h][i][j] = ops[i][h]
    return p


def _verdicts(ss):
    names = ("minimal_polynomial_vanishes", "idempotency", "orthogonality")
    return {c.name: c.passed for c in ss.checks.checks if c.name in names}


@pytest.mark.parametrize("q,n,d", [(2, 4, 2), (2, 5, 1), (2, 5, 2), (3, 4, 1), (3, 4, 2)])
def test_algebra_checks_match_dense_oracle(q, n, d):
    gc = build_graph(q, n, d)
    assert gc.n_vertices <= 155
    ss = spectral_system(gc)
    ss.checks.require()
    assert _verdicts(ss) == dense_spectral_oracle(ss)
    assert all(dense_spectral_oracle(ss).values())
    L, _ = structure_constants(gc)
    dense = dense_product_table(gc)
    assert table_from_recurrence(L) == dense
    assert [[dense[h][1][g] for g in range(d + 1)] for h in range(d + 1)] == L


@pytest.mark.parametrize("q,n,d", [(2, 4, 2), (2, 5, 1), (3, 4, 2)])
def test_wrong_eigenvalues_fail_both_paths(q, n, d, monkeypatch):
    import qgrass.grassmann as grassmann

    right = eigenvalue_formulas(q, n, d)
    wrong = right[:-1] + [right[-1] - 1]
    monkeypatch.setattr(grassmann, "eigenvalue_formulas", lambda *_: list(wrong))
    ss = spectral_system(build_graph(q, n, d))
    assert ss.theta == wrong
    assert _verdicts(ss) == dense_spectral_oracle(ss)
    assert not any(_verdicts(ss).values())


# D >= 2: for D = 1 the idempotents read only column 0 of L, which is
# fixed, so a corrupted a_1 never reaches the dense matrices
@pytest.mark.parametrize("q,n,d", [(2, 4, 2), (2, 5, 2), (3, 4, 2)])
def test_corrupt_intersection_matrix_fails(q, n, d):
    gc = build_graph(q, n, d)
    L, _ = structure_constants(gc)
    L[1][1] += 1
    ss = spectral_system(gc)
    algebra, dense = _verdicts(ss), dense_spectral_oracle(ss)
    assert not algebra["minimal_polynomial_vanishes"]
    # the dense minimal polynomial reads the built graph, not L, so it
    # still vanishes; the idempotents come from L and fail either way
    assert dense["minimal_polynomial_vanishes"]
    assert not algebra["idempotency"]
    assert not dense["idempotency"]


def test_exact_int_product_fallback():
    big = np.array([[2**40, 0], [0, 2**40]], dtype=object)
    out = exact_int_product(big, big, 2)
    assert out[0, 0] == 2**80
    small = np.eye(3, dtype=np.int64)
    assert (exact_int_product(small, small, 3) == small).all()


def test_eigenvalue_formulas_frozen():
    assert eigenvalue_formulas(2, 5, 2) == J252_THETA
    assert eigenvalue_formulas(2, 6, 2) == [90, 27, -3]
    assert eigenvalue_formulas(3, 4, 1) == [39, -1]


def test_spectrum_json(j252, j252_spectral):
    nums, _ = intersection_numbers(j252)
    doc = spectrum_json(j252, j252_spectral, nums)
    assert doc["q"] == 2 and doc["N"] == 5 and doc["D"] == 2
    assert doc["theta"] == J252_THETA
    assert doc["mult"] == J252_MULT
    assert doc["theta_star"] == ["30", "55/7", "-45/14"]
    assert doc["intersection_numbers"]["k"] == 42
    assert doc["intersection_numbers"]["c"] == [0, 1, 9]


# ---------------------------------------------------------------------------
# irreducible module data


def admissible_quadruples(n, d, box=None):
    out = []
    rmax = box if box is not None else d
    for r in range(rmax + 1):
        for t in range(r, d + 1):
            for dw in range(d + 1):
                for e in range(-2 * d, 2 * d + 1):
                    if not tmodule_condition_violations(n, d, r, t, dw, e):
                        out.append((r, t, dw, e))
    return out


J252_ADMISSIBLE = {
    (0, 0, 2, 0),
    (1, 1, 1, 1),
    (1, 1, 1, -1),
    (1, 1, 0, 0),
    (1, 2, 0, 0),
    (2, 2, 0, 0),
    (2, 2, 0, 2),
}


def test_admissible_set_frozen():
    assert set(admissible_quadruples(5, 2)) == J252_ADMISSIBLE


def test_condition_violation_labels():
    assert tmodule_condition_violations(5, 2, 0, 0, 2, 0) == []
    assert "parity" in tmodule_condition_violations(5, 2, 0, 0, 2, 1)
    assert "chain_inequalities" in tmodule_condition_violations(5, 2, 2, 1, 0, 0)
    # only the diameter selection fails here
    assert tmodule_condition_violations(5, 2, 2, 2, 0, -2) == ["diameter_selection"]


def test_tmodule_rejects_inadmissible():
    with pytest.raises(InvalidQuadruple):
        tmodule_intersection_numbers(2, 5, 2, 0, 0, 2, 1)
    with pytest.raises(InvalidQuadruple):
        tmodule_intersection_numbers(2, 5, 2, 2, 2, 0, -2)


def test_tmodule_reproduces_graph_numbers():
    for q, n, d in [(2, 5, 2), (3, 7, 3), (2, 8, 3)]:
        a, b, c = tmodule_intersection_numbers(q, n, d, 0, 0, d, 0)
        forms = intersection_number_formulas(q, n, d)
        assert a == forms.a
        assert b == forms.b
        assert c == forms.c


def test_tmodule_frozen_small_modules():
    a, b, c = tmodule_intersection_numbers(2, 5, 2, 1, 1, 1, 1)
    assert (a, b, c) == ([-1, 9], [12, 0], [0, 2])
    a, b, c = tmodule_intersection_numbers(2, 5, 2, 1, 1, 1, -1)
    assert (a, b, c) == ([3, 5], [8, 0], [0, 6])
    a, b, c = tmodule_intersection_numbers(2, 5, 2, 1, 1, 0, 0)
    assert a == [11]
    a, b, c = tmodule_intersection_numbers(2, 5, 2, 2, 2, 0, 0)
    assert a == [-3]


@pytest.mark.parametrize("q,n,d", [(2, 5, 2), (2, 6, 2), (3, 7, 2), (2, 9, 4)])
def test_tmodule_eigenvalue_oracle(q, n, d):
    """The tridiagonal matrix built from a module's intersection numbers
    must have characteristic polynomial prod(lambda - theta_j) over the
    consecutive eigenvalue window starting at the dual endpoint."""
    theta = eigenvalue_formulas(q, n, d)
    quads = admissible_quadruples(n, d)
    assert quads, "no admissible quadruples found"
    for r, t, dw, e in quads:
        a, b, c = tmodule_intersection_numbers(q, n, d, r, t, dw, e)
        assert t + dw <= d
        assert b[dw] == 0 and c[0] == 0
        assert all(v > 0 for v in b[:dw])
        assert all(v > 0 for v in c[1:])
        got = charpoly_tridiag(a, b, c)
        want = poly_from_roots(theta[t : t + dw + 1])
        assert got == want, f"quadruple {(r, t, dw, e)}"


def pair_loop_distances(gc):
    """Test-only oracle: the distance matrix from one dim_of_mask call
    per vertex pair, as build_graph computed it before the point
    incidence product."""
    masks = [v.mask for v in gc.vertices]
    nv = len(masks)
    dist = np.zeros((nv, nv), dtype=np.int16)
    for a in range(nv):
        for b in range(a + 1, nv):
            dist[a, b] = dist[b, a] = gc.d - dim_of_mask(masks[a] & masks[b], gc.q)
    return dist


@pytest.mark.parametrize("q,n,d", [(2, 4, 2), (2, 5, 2), (3, 4, 2)])
def test_incidence_distances_match_pair_loop(q, n, d):
    gc = build_graph(q, n, d)
    gc.build_checks.require()
    assert (gc.dist == pair_loop_distances(gc)).all()


@settings(max_examples=6, deadline=None)
@given(instances_with_base_vertex())
def test_incidence_distances_match_pair_loop_at_random_base_vertex(instance):
    q, n, d, x_rows = instance
    gc = build_graph(q, n, d, x_rows=x_rows)
    gc.build_checks.require()
    assert (gc.dist == pair_loop_distances(gc)).all()


@pytest.mark.parametrize("true_dist", [1, 2])
def test_corrupted_distance_fails_bfs_check(true_dist):
    # the expansion reads its edges from dist == 1, so a corruption shows
    # where it contradicts that graph's metric: a distinct pair at 0
    gc = build_graph(2, 4, 2)
    a, b = 0, int(np.flatnonzero(gc.dist[0] == true_dist)[0])
    gc.dist[a, b] = gc.dist[b, a] = 0
    cs = CheckSet("bfs")
    _bfs_full_check(gc, cs)
    verdicts = {c.name: c.passed for c in cs.checks}
    assert verdicts == {
        "bfs_reaches_every_pair": True,
        "bfs_distances_match_meet_formula": False,
    }


def test_distance_two_rewritten_as_one_passes_bfs_check():
    # known gap: the expansion takes its edges from dist == 1, so on a
    # graph of diameter 2 a distance-2 pair rewritten as 1 is still the
    # metric of its own edges; the distance-algebra checks catch it
    gc = build_graph(2, 4, 2)
    a, b = 0, int(np.flatnonzero(gc.dist[0] == 2)[0])
    gc.dist[a, b] = gc.dist[b, a] = 1
    cs = CheckSet("bfs")
    _bfs_full_check(gc, cs)
    assert cs.ok and {c.name for c in cs.checks} == {
        "bfs_reaches_every_pair",
        "bfs_distances_match_meet_formula",
    }
    _nums, ncs = intersection_numbers(gc)
    assert {c.name for c in ncs.failures()} >= {
        "products_constant_on_classes",
        "valency_constant_rows",
    }


def test_point_count_not_power_of_q_raises(monkeypatch):
    # a common point count of 3 over F_2 is no subspace meet
    real = grassmann.exact_int_product

    def corrupt(a, b, inner, *args):
        out = real(a, b, inner, *args)
        out[0, -1] = 3
        return out

    monkeypatch.setattr(grassmann, "exact_int_product", corrupt)
    with pytest.raises(ArithmeticError, match="not a power of 2"):
        build_graph(2, 4, 2)
