"""Graph construction, spectra, Krein parameters, and module data.

Oracles here avoid the code paths under test: common neighbors are
counted directly from subspace masks, dual eigenvalues are rederived
from the counted products through the explicit quadratic in A, and the
module intersection numbers are validated through the characteristic
polynomial of the tridiagonal matrix they define.
"""

import dataclasses
import json
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qgrass import grassmann, linalg
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
    orbit_labels,
    spectral_system,
    spectrum_json,
    structure_constants,
    tmodule_condition_violations,
    tmodule_intersection_numbers,
)
from qgrass.qarith import q_binomial
from qgrass.report import CheckSet
from qgrass.subspaces import count_dims

from oracles import (
    base_vertex,
    dense_adjacency,
    dense_certificate_verdicts,
    entries,
    idempotent_by_steps,
    invert_fraction_matrix,
    layer_of,
    mask_dim,
    meet_dim_by_rank,
    patch_inclusion,
    patch_table,
)
from strategies import instances_with_base_vertex

J252_THETA = [42, 11, -3]
J252_MULT = [1, 30, 124]
J252_THETA_STAR = [Fraction(30), Fraction(55, 7), Fraction(-45, 14)]


def count_common_neighbors(gc, a: int, b: int) -> int:
    """Brute-force count of w adjacent to both a and b, straight from
    the subspace masks."""
    masks = [v.mask for v in entries(gc.vertices)]
    d = gc.d
    total = 0
    for w in range(gc.n_vertices):
        if w in (a, b):
            continue
        if (
            mask_dim(masks[w] & masks[a], gc.q) == d - 1
            and mask_dim(masks[w] & masks[b], gc.q) == d - 1
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
    assert int(j252.xrow[j252.x_index]) == 0
    names = {c.name for c in j252.build_checks.checks}
    assert "bfs_distances_match_meet_formula" in names
    assert "sphere_equals_layer" in names


@pytest.mark.parametrize("q,n,d", [(2, 5, 2), (3, 4, 2)])
def test_sphere_layer_check_matches_per_vertex_loop(monkeypatch, q, n, d):
    # distances read from the wrong row (x's table index shifted by one):
    # the vectorized check must fail with the witness of the per-vertex
    # pij loop it replaced, the first vertex off its layer
    real = grassmann.GeometryContext.x_index
    monkeypatch.setattr(
        grassmann.GeometryContext, "x_index", property(lambda self: real.fget(self) + 1)
    )
    gc = build_graph(q, n, d)
    verdict = next(c for c in gc.build_checks.checks if c.name == "sphere_equals_layer")
    x = base_vertex(gc.geometry)
    oracle = next(
        f"vertex {y.rows}"
        for k, y in enumerate(entries(gc.vertices))
        if layer_of(y, x) != (d - int(gc.xrow[k]), int(gc.xrow[k]))
    )
    assert not verdict.passed and verdict.witness == oracle


def test_j252_distance_against_intersection(j252):
    # independent distance route: dim of the meet from the rank of the
    # stacked echelon rows
    rng = random.Random(11)
    n = j252.n_vertices
    verts = entries(j252.vertices)
    for _ in range(60):
        a, b = rng.randrange(n), rng.randrange(n)
        meet = meet_dim_by_rank(verts[a], verts[b])
        assert int(j252.distances([a], [b])[0, 0]) == j252.d - meet


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
    verts = entries(j252.vertices)
    expected = {0: 42, 1: 17, 2: 9}
    for h, want in expected.items():
        if h == 0:
            # diagonal of A^2 is the valency
            y = x
            got = sum(
                1
                for w in range(j252.n_vertices)
                if w != x
                and mask_dim(verts[w].mask & verts[x].mask, j252.q) == j252.d - 1
            )
        else:
            y = int(np.flatnonzero(j252.xrow == h)[0])
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
    reps = [int(np.flatnonzero(j252.xrow == h)[0]) for h in (1, 2)]
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


KREIN_INSTANCES = [(2, 5, 1), (2, 5, 2), (3, 4, 2), (2, 6, 3)]


def test_invert_fraction_matrix():
    m = [[1, 2], [3, 4]]
    inv = invert_fraction_matrix(m)
    eye = [[sum(m[i][t] * inv[t][j] for t in range(2)) for j in range(2)] for i in range(2)]
    assert eye == [[1, 0], [0, 1]]
    with pytest.raises(ArithmeticError):
        invert_fraction_matrix([[1, 2], [2, 4]])


@pytest.mark.parametrize("q,n,d", KREIN_INSTANCES)
def test_krein_eigenmatrix_is_the_inverse_oracle(q, n, d, monkeypatch):
    # the eigenvalues P_t(g) that `krein_parameters` reads through
    # apply_idempotent are the entries of the inverse of the idempotent
    # coefficient matrix, and the Krein parameters solved with that
    # inverse are the same
    ss = spectral_system(build_graph(q, n, d))
    ss.checks.require()
    e = ss.e_coeffs
    inv = invert_fraction_matrix([[e[t][h] for h in range(d + 1)] for t in range(d + 1)])
    real = ss.apply_idempotent
    read = {}

    def recording(t, coef):
        out = real(t, coef)
        read[coef.index(1), t] = out[0] / e[t][0]
        return out

    monkeypatch.setattr(ss, "apply_idempotent", recording)
    kp, cs = krein_parameters(ss)
    cs.require()
    assert read == {(g, t): inv[g][t] for g in range(d + 1) for t in range(d + 1)}
    nv = ss.gc.n_vertices
    for i in range(d + 1):
        for j in range(d + 1):
            s = [e[i][g] * e[j][g] for g in range(d + 1)]
            for h in range(d + 1):
                assert kp[h][i][j] == nv * sum(s[g] * inv[g][h] for g in range(d + 1))


@pytest.mark.parametrize(
    "q,n,d,pair", [(*inst, pair) for inst, pair in zip(KREIN_INSTANCES, ["1,1", "2,2", "2,2", "3,3"])]
)
def test_wrong_eigenvalue_fails_krein_reconstruction(q, n, d, pair, monkeypatch):
    # P_1(1), the eigenvalue of A_1 on V_1, doubled where the eigenmatrix
    # is read: the solved parameters no longer give back the products
    ss = spectral_system(build_graph(q, n, d))
    real = ss.apply_idempotent
    unit = [Fraction(int(h == 1)) for h in range(d + 1)]

    def doubled(t, coef):
        out = real(t, coef)
        return [2 * v for v in out] if (t, coef) == (1, unit) else out

    monkeypatch.setattr(ss, "apply_idempotent", doubled)
    _kp, cs = krein_parameters(ss)
    assert failing(cs)["krein_reconstruction"] == f"pair ({pair})"


def test_j341_complete_graph(j341):
    assert j341.n_vertices == 40
    off = ~np.eye(40, dtype=bool)
    assert (j341.distances(slice(None))[off] == 1).all()
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
    gc.action = None  # verified for D = 1; every row is read
    L, cs = structure_constants(gc)
    assert cs.ok
    assert L[2] == [0, 0, 0]
    assert L[0][1] == 39
    assert L[1] == [1, 38, 0]


def test_class_numerator_gathers_integer_class_values(j252_spectral):
    # sum_h c_h A_h as den times the coefficients, gathered by dist: an
    # int64 array while the values fit the product guard, Python ints
    # past it
    ss = j252_spectral
    dist = ss.gc.distances(slice(None))
    for coeffs in ss.e_coeffs:
        num, den = ss.class_numerator(coeffs)
        values = [c * den for c in coeffs]
        assert all(v.denominator == 1 for v in values)
        assert num.dtype == np.int64 and num.shape == dist.shape
        assert (num == np.array([int(v) for v in values])[dist]).all()
    num, den = ss.class_numerator([Fraction(2**70, 3), Fraction(-1), Fraction(1, 3)])
    assert den == 3 and num.dtype == object
    assert all(type(v) is int for v in num.flat)
    assert (num == np.array([2**70, -3, 1], dtype=object)[dist]).all()


# ---------------------------------------------------------------------------
# dense oracle for the distance-algebra checks


def exact_matmul(a, b):
    """a @ b of integer arrays, exactly: in int64 while no dot product
    can reach 2^62, in numpy object arrays of Python ints otherwise."""
    bound = a.shape[1] * max(int(np.abs(a).max()), 1) * max(int(np.abs(b).max()), 1)
    if bound < 2**62:
        return a.astype(np.int64) @ b.astype(np.int64)
    return a.astype(object) @ b.astype(object)


def dense_spectral_oracle(ss):
    """The dense checks the spectral system once ran on |X| x |X|
    matrices: the minimal polynomial product over the built adjacency
    matrix, and idempotency and orthogonality of the materialized
    idempotents.  Returns the three verdicts."""
    gc, theta, d = ss.gc, ss.theta, ss.gc.d
    eye = np.eye(gc.n_vertices, dtype=np.int64)
    dist = gc.distances(slice(None))
    adj = (dist == 1).astype(np.int64)
    prod = adj - theta[0] * eye
    for t in theta[1:]:
        prod = exact_matmul(prod, adj - t * eye)
    nums = [ss.idempotent_numerator(i) for i in range(d + 1)]
    idem = all((exact_matmul(m, m) == den * m).all() for m, den in nums)
    orth = all(
        not exact_matmul(nums[i][0], nums[j][0]).any()
        for i in range(d + 1)
        for j in range(i + 1, d + 1)
    )
    return {
        "minimal_polynomial_vanishes": not prod.any(),
        "idempotency": idem,
        "orthogonality": orth,
    }


def dense_product_table(gc):
    """p[h][i][j] from all (D+1)(D+2)/2 dense products A_i A_j, as plain
    int64 matmuls (entries at most |X|, far from overflow)."""
    d = gc.d
    dist = gc.distances(slice(None))
    a64 = [(dist == i).astype(np.int64) for i in range(d + 1)]
    p = [[[None] * (d + 1) for _ in range(d + 1)] for _ in range(d + 1)]
    for i in range(d + 1):
        for j in range(i, d + 1):
            prod = a64[i] @ a64[j]
            for h in range(d + 1):
                vals = prod[dist == h]
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
    gc.L[1][1] += 1
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
    """Test-only oracle: the distance matrix from one mask_dim call
    per vertex pair, as build_graph computed it before the point
    incidence product."""
    masks = [v.mask for v in entries(gc.vertices)]
    nv = len(masks)
    dist = np.zeros((nv, nv), dtype=np.int16)
    for a in range(nv):
        for b in range(a + 1, nv):
            dist[a, b] = dist[b, a] = gc.d - mask_dim(masks[a] & masks[b], gc.q)
    return dist


@pytest.mark.parametrize("q,n,d", [(2, 4, 2), (2, 5, 2), (3, 4, 2)])
def test_incidence_distances_match_pair_loop(q, n, d):
    gc = build_graph(q, n, d)
    gc.build_checks.require()
    assert (gc.distances(np.arange(gc.n_vertices)) == pair_loop_distances(gc)).all()


@settings(max_examples=6, deadline=None)
@given(instances_with_base_vertex())
def test_incidence_distances_match_pair_loop_at_random_base_vertex(instance):
    q, n, d, x_rows = instance
    gc = build_graph(q, n, d, x_rows=x_rows)
    gc.build_checks.require()
    assert (gc.distances(np.arange(gc.n_vertices)) == pair_loop_distances(gc)).all()


def corrupt_pair(mp, a: int, b: int, value: int) -> None:
    """Make every block that `GraphContext.distances` reads carry `value`
    at the pairs (a, b) and (b, a)."""
    real = grassmann.GraphContext.distances

    def distances(gc, rows, cols=None):
        block = real(gc, rows, cols)
        ys = np.arange(gc.n_vertices)[rows]
        zs = np.arange(gc.n_vertices)[slice(None) if cols is None else cols]
        for y, z in ((a, b), (b, a)):
            block[np.ix_(ys == y, zs == z)] = value
        return block

    mp.setattr(grassmann.GraphContext, "distances", distances)


def read_every_row(mp) -> None:
    """Refuse the group action, so that the certificates read every row."""
    mp.setattr(grassmann, "_group_action", lambda gc: None)


def reverify(gc) -> None:
    """Verify the action, the intersection matrix and the Gram class
    sums of a built graph again, as `build_graph` does, after a test
    changed what they read."""
    gc.action = grassmann._group_action(gc)
    gc.L, gc.structure_checks = structure_constants(gc)
    reps = gc.representatives()
    gc.gram_class_sums = [grassmann._gram_rows_are_class_sums(gc, i, reps) for i in range(gc.d)]


def test_reverify_refreshes_every_verified_attribute():
    # the attributes `build_graph` sets beyond `GraphContext.__init__`
    # are the verified state; `reverify` copies the build's sequence by
    # hand, so each of them must be written again
    gc = build_graph(2, 4, 2)
    bare = grassmann.GraphContext(gc.geometry, CheckSet("bare"))
    verified = set(vars(gc)) - set(vars(bare))
    assert "gram_class_sums" in verified
    sentinel = object()
    for name in verified:
        setattr(gc, name, sentinel)
    reverify(gc)
    assert [name for name in sorted(verified) if getattr(gc, name) is sentinel] == []


def test_passing_geometry_run_reads_row_x_once(monkeypatch, capsys):
    # the build reads row x into `xrow`; the intersection matrix, the
    # valency check and the Gram class sums, whose only representative
    # is x on the automorphism path, read it there
    from qgrass.cli import main

    real = grassmann.GraphContext.distances
    rows_x = []

    def distances(gc, rows, cols=None):
        rows_x.append(np.arange(gc.n_vertices)[rows].tolist() == [gc.x_index])
        return real(gc, rows, cols)

    monkeypatch.setattr(grassmann.GraphContext, "distances", distances)
    assert main(["verify", "--q", "2", "--n", "5", "--d", "2", "--suite", "geometry"]) == 0
    capsys.readouterr()
    assert sum(rows_x) == 1


@pytest.mark.parametrize("true_dist", [1, 2])
def test_corrupted_distance_fails_bfs_check(true_dist, monkeypatch):
    # the expansion takes its edges from the inclusion matrix W_1, not
    # from the distances, so a distinct pair read as 0 shows as a mismatch
    gc = build_graph(2, 4, 2)
    b = int(np.flatnonzero(gc.distances([0])[0] == true_dist)[0])
    corrupt_pair(monkeypatch, 0, b, 0)
    cs = CheckSet("bfs")
    _bfs_full_check(gc, cs)
    verdicts = {c.name: c.passed for c in cs.checks}
    assert verdicts == {
        "bfs_reaches_every_pair": True,
        "bfs_distances_match_meet_formula": False,
    }


def test_distance_two_rewritten_as_one_fails_bfs_check(monkeypatch):
    # on a graph of diameter 2 a distance-2 pair read as 1 is still the
    # metric of the edges dist == 1; the edges from W_1 see it, and so
    # do the distance-algebra checks on every row
    gc = build_graph(2, 4, 2)
    b = int(np.flatnonzero(gc.distances([0])[0] == 2)[0])
    corrupt_pair(monkeypatch, 0, b, 1)
    read_every_row(monkeypatch)
    reverify(gc)
    cs = CheckSet("bfs")
    _bfs_full_check(gc, cs)
    assert {c.name for c in cs.failures()} == {"bfs_distances_match_meet_formula"}
    _nums, ncs = intersection_numbers(gc)
    assert {c.name for c in ncs.failures()} >= {
        "products_constant_on_classes",
        "valency_constant_rows",
    }


def test_bfs_edges_come_from_the_inclusion_matrix():
    # y ~ z exactly when one (D-1)-subspace lies in both; on J_2(5,2)
    # that is dist == 1, read from a product that never sees dist
    gc = build_graph(2, 5, 2)
    assert gc.inclusion(1).shape == (31, 155)
    assert (gc.adjacency() == (gc.distances(slice(None)) == 1)).all()


# ---------------------------------------------------------------------------
# the metric certificate: the breadth-first verdict read off the verified
# intersection matrix, against the all-pairs expansion of _bfs_full_check

BFS_CHECKS = ("bfs_reaches_every_pair", "bfs_distances_match_meet_formula")


def bfs_verdicts(cs):
    return [(c.name, c.passed, c.witness) for c in cs.checks if c.name in BFS_CHECKS]


def full_bfs_verdicts(gc):
    cs = CheckSet("bfs")
    _bfs_full_check(gc, cs)
    return bfs_verdicts(cs)


@pytest.mark.parametrize("q,n,d", [(2, 4, 2), (2, 5, 2), (3, 4, 2), (2, 6, 1)])
def test_metric_certificate_matches_full_bfs(q, n, d):
    gc = build_graph(q, n, d)
    assert grassmann._metric_certificate(gc)
    passing = [(name, True, None) for name in BFS_CHECKS]
    assert bfs_verdicts(gc.build_checks) == full_bfs_verdicts(gc) == passing


@settings(max_examples=6, deadline=None)
@given(instances_with_base_vertex())
def test_metric_certificate_matches_full_bfs_at_random_base_vertex(instance):
    q, n, d, x_rows = instance
    gc = build_graph(q, n, d, x_rows=x_rows)
    assert grassmann._metric_certificate(gc)
    assert bfs_verdicts(gc.build_checks) == full_bfs_verdicts(gc)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 34), st.integers(0, 34), st.integers(0, 2))
def test_metric_certificate_never_passes_a_broken_metric(a, b, value):
    # one pair of J_2(4,2) read wrong, every row read: the certificate
    # holds only on the true metric, and never where the all-pairs
    # expansion fails
    gc = build_graph(2, 4, 2)
    unchanged = int(gc.distances([a], [b])[0, 0]) == value
    with pytest.MonkeyPatch.context() as mp:
        corrupt_pair(mp, a, b, value)
        read_every_row(mp)
        reverify(gc)
        certified = grassmann._metric_certificate(gc)
        assert certified == unchanged
        if not all(ok for _name, ok, _witness in full_bfs_verdicts(gc)):
            assert not certified


def test_certified_build_runs_no_all_pairs_expansion(monkeypatch):
    def expansion(gc, cs):
        raise AssertionError("the all-pairs expansion ran")

    monkeypatch.setattr(grassmann, "_bfs_full_check", expansion)
    build_graph(2, 5, 2).build_checks.require()


@pytest.mark.parametrize("fault", ["two_off_diagonal", "c_d_zero"])
def test_broken_certificate_premise_runs_full_bfs(monkeypatch, fault):
    real_constants = grassmann.structure_constants

    def constants(gc):
        L, cs = real_constants(gc)
        L = [row[:] for row in L]
        if fault == "two_off_diagonal":
            L[2][0] = 1
        else:
            L[gc.d][gc.d - 1] = 0
        return L, cs

    ran = []

    def expansion(gc, cs):
        ran.append(gc)
        _bfs_full_check(gc, cs)

    monkeypatch.setattr(grassmann, "structure_constants", constants)
    monkeypatch.setattr(grassmann, "_bfs_full_check", expansion)
    gc = build_graph(2, 5, 2)
    assert ran == [gc]
    assert bfs_verdicts(gc.build_checks) == full_bfs_verdicts(gc)


def test_build_checks_above_a_thousand_vertices():
    # J_3(5,2) has 1,210 vertices; every pair is certified, none sampled
    gc = build_graph(3, 5, 2)
    assert gc.n_vertices == 1210
    assert [c.name for c in gc.build_checks.checks] == [
        "vertex_count",
        "distance_range",
        "distance_symmetric",
        "bfs_reaches_every_pair",
        "bfs_distances_match_meet_formula",
        "sphere_equals_layer",
    ]
    gc.build_checks.require()
    assert "bfs_sampled_pairs" not in gc.build_checks.values


# ---------------------------------------------------------------------------
# the rank certificate from the inclusion matrices: each sub-check fails
# on its own corruption and names itself in the witness


def failing(*checksets):
    return {c.name: c.witness for cs in checksets for c in cs.checks if not c.passed}


ROW_EDITS = {
    "drop": lambda rows: rows[1:],
    "duplicate": lambda rows: np.concatenate([rows, rows[:1]]),
}


@pytest.mark.parametrize("corrupt", ["drop", "duplicate"])
def test_bad_row_count_of_w1_fails_certificate_a(corrupt, monkeypatch):
    # one entry of table(1) dropped or duplicated: W_1 has one row per
    # entry, so (a) sees the row count.  The action finds an image mask
    # missing from table(1), or two entries with one mask, so the run
    # takes the dense path, whose edges through that line are wrong
    patch_table(monkeypatch, 1, ROW_EDITS[corrupt])
    gc = build_graph(2, 5, 2)
    ss = spectral_system(gc)
    assert gc.certificate_path == "dense"
    assert "bfs_distances_match_meet_formula" in failing(gc.build_checks)
    bad = failing(ss.checks)
    assert set(bad) == {"rank_certificate_total", "rank_certificate"}
    rows = 30 if corrupt == "drop" else 32
    assert bad["rank_certificate"].startswith(f"(a) W_1 has {rows} rows, not 31")
    assert ss.partial_ranks == [1, None, 155]
    cert = next(c for c in ss.checks.checks if c.name == "rank_certificate")
    assert cert.observed == [1, None, None]


def test_wrong_theta_fails_certificate_c(monkeypatch):
    # (b) is derived from (a) and (c), so the wrong idempotents are seen
    # by (c): E_j G = lambda_j E_j fails, and no F'_i with i < D is
    # certified
    right = eigenvalue_formulas(2, 5, 2)
    wrong = [right[0], right[1] + 1, right[2]]
    monkeypatch.setattr(grassmann, "eigenvalue_formulas", lambda *_: list(wrong))
    ss = spectral_system(build_graph(2, 5, 2))
    bad = failing(ss.checks)
    assert set(bad) == {
        "minimal_polynomial_vanishes",
        "e0_is_all_ones_over_size",
        "idempotency",
        "orthogonality",
        "multiplicity_0_integral",
        "multiplicity_1_integral",
        "multiplicity_2_integral",
        "multiplicities_sum",
        "m_0",
        "rank_certificate_total",
        "rank_certificate",
        "dual_eigenvalue_closed_form",
    }
    assert "(c) F'_1 != G Q_1(G) for G = W_1^T W_1" in bad["rank_certificate"]
    assert "(b)" not in bad["rank_certificate"]
    assert ss.partial_ranks == [None, None, 155]
    cert = next(c for c in ss.checks.checks if c.name == "rank_certificate")
    assert cert.observed == [None, None, None]


@pytest.mark.parametrize("q,n,d", [(2, 5, 2), (3, 4, 2), (2, 5, 1)])
def test_unit_sum_gates_the_derived_certificate_b(q, n, d, monkeypatch):
    # E_0 halved, so the idempotents do not sum to I and F'_i W_i^T =
    # W_i^T is false for every i, with (c) forced to pass: the unit sum
    # names (b) for every i.  E_0^2 != E_0 too, and (a), derived from the
    # traces of the idempotents, names that premise
    real = grassmann._lagrange_numerators

    def halved(L, theta):
        (num, den), *rest = real(L, theta)
        return [(num, 2 * den), *rest]

    monkeypatch.setattr(grassmann, "_lagrange_numerators", halved)
    monkeypatch.setattr(grassmann, "_gram_spans_partial_sum", lambda *_: True)
    gc = build_graph(q, n, d)
    ss = spectral_system(gc)
    assert not any(dense_certificate_verdicts(gc, ss)["b"])
    bad = failing(ss.checks)
    assert "idempotents_sum_to_identity" in bad
    assert ss.partial_ranks == [None] * (d + 1)
    for i in range(d):
        assert f"(b) sum_j E_j != I, so F'_{i} W_{i}^T" in bad["rank_certificate"]
        assert f"(a) rank W_{i} = tr F'_{i} does not follow: idempotency failed" in bad["rank_certificate"]
        assert f"(c) W_{i}" not in bad["rank_certificate"]


def test_spectral_system_reads_few_distances(monkeypatch):
    # (b) is derived from (a) and (c), not evaluated, so a passing
    # spectral system at J_2(7,2) reads the distances of the
    # representative rows of (c) and no row block of every vertex
    gc = build_graph(2, 7, 2)
    real = grassmann.GraphContext.distances
    pairs = []

    def counting(self, rows, cols=None):
        block = real(self, rows, cols)
        pairs.append(block.size)
        return block

    monkeypatch.setattr(grassmann.GraphContext, "distances", counting)
    ss = spectral_system(gc)
    ss.checks.require()
    assert gc.certificate_path == "automorphism"
    assert sum(pairs) < gc.n_vertices**2 // 100, sum(pairs)


@pytest.mark.parametrize("q,n,d", [(2, 6, 2), (2, 6, 3)])
def test_spectral_system_reads_no_graph(q, n, d, monkeypatch):
    # past RANK_VERIFY_LIMIT a passing spectral system is algebra over L:
    # the class sums of (c) were read at build, so no 0/1 product starts,
    # neither a distance read nor a Gram product
    gc = build_graph(q, n, d)
    assert gc.n_vertices > grassmann.RANK_VERIFY_LIMIT
    real = linalg._stream
    streams = []

    def stream(pa, pb, inner):
        streams.append(pa.shape)
        return real(pa, pb, inner)

    monkeypatch.setattr(linalg, "_stream", stream)
    ss = spectral_system(gc)
    ss.checks.require()
    assert streams == []


@pytest.mark.parametrize("q,n,d", [(3, 4, 2), (2, 5, 2)])
def test_verify_reads_each_gram_row_once_per_graph(q, n, d, monkeypatch, capsys, tmp_path):
    # row x of W_i^T W_i is read by the build, once for each i < D, and
    # the edge premise of the metric and certificate (c) both take it
    # from there: one call per graph built and i
    import qgrass.cli

    built, calls = [], []
    real_build, real_gram = qgrass.cli.build_graph, grassmann.GraphContext.gram_rows

    def build(*args, **kwargs):
        built.append(real_build(*args, **kwargs))
        return built[-1]

    def gram_rows(gc, i, rows):
        calls.append((id(gc), i))
        return real_gram(gc, i, rows)

    monkeypatch.setattr(qgrass.cli, "build_graph", build)
    monkeypatch.setattr(grassmann.GraphContext, "gram_rows", gram_rows)
    argv = ["verify", "--q", str(q), "--n", str(n), "--d", str(d), "--suite", "all"]
    assert qgrass.cli.main(argv + ["--out", str(tmp_path / "r.json")]) == 0
    capsys.readouterr()
    assert len(built) == (1 if n == 2 * d else 2)
    assert sorted(calls) == sorted((id(gc), i) for gc in built for i in range(d))


def test_corrupted_distance_fails_certificate_c(monkeypatch):
    gc = build_graph(2, 5, 2)
    b = int(np.flatnonzero(gc.distances([0])[0] == 2)[0])
    corrupt_pair(monkeypatch, 0, b, 1)
    read_every_row(monkeypatch)
    reverify(gc)
    bad = failing(spectral_system(gc).checks)
    assert set(bad) == {
        "products_constant_on_classes",
        "minimal_polynomial_vanishes",
        "e0_is_all_ones_over_size",
        "idempotency",
        "orthogonality",
        "multiplicity_0_integral",
        "multiplicity_1_integral",
        "multiplicity_2_integral",
        "multiplicities_sum",
        "rank_certificate_total",
        "rank_certificate",
        "dual_eigenvalue_closed_form",
    }
    assert "(c) W_1^T W_1 != sum_h [D-h,1]_q A_h" in bad["rank_certificate"]


# ---------------------------------------------------------------------------
# certificate (a) derived from (c) and the exact traces, with no elimination


def elimination_operands(monkeypatch):
    """Copies of the operands of every elimination in `linalg` while the
    test runs, in order: each `echelon_mod_p` (the ranks and kernels mod
    p) and each Bareiss `column_space_ops`."""
    operands = []
    real_echelon, real_bareiss = linalg.echelon_mod_p, linalg.column_space_ops

    def echelon(a, *args, **kwargs):
        operands.append(a.copy())
        return real_echelon(a, *args, **kwargs)

    def bareiss(m, *args, **kwargs):
        operands.append(m.a.copy())
        return real_bareiss(m, *args, **kwargs)

    monkeypatch.setattr(linalg, "echelon_mod_p", echelon)
    monkeypatch.setattr(linalg, "column_space_ops", bareiss)
    return operands


def test_passing_spectral_system_runs_no_elimination(monkeypatch):
    # J_2(6,2) has 651 vertices, past the exact idempotent ranks of
    # small |X|: every W_i is certified from (c) and the traces
    gc = build_graph(2, 6, 2)
    assert gc.n_vertices > grassmann.RANK_VERIFY_LIMIT
    operands = elimination_operands(monkeypatch)
    ss = spectral_system(gc)
    ss.checks.require()
    assert ss.partial_ranks == [1, 63, 651]
    assert operands == []


def test_duplicated_row_fails_the_inverse_and_certificate_a(monkeypatch):
    # the row count alone decides: no elimination of the corrupted W_1
    patch_table(monkeypatch, 1, ROW_EDITS["duplicate"])
    gc = build_graph(2, 5, 2)
    assert gc.certificate_path == "dense"
    operands = elimination_operands(monkeypatch)
    ss = spectral_system(gc)
    assert operands == []
    assert failing(ss.checks)["rank_certificate"].startswith("(a) W_1 has 32 rows, not 31")
    assert ss.partial_ranks == [1, None, 155]


@pytest.mark.parametrize("corruption", ["complement", "lower_threshold"])
@pytest.mark.parametrize("q,n,d", [(2, 5, 2), (3, 4, 2), (2, 6, 3)])
def test_corrupted_w_fails_the_inverse_and_falls_back(q, n, d, corruption, monkeypatch):
    # W_{D-1} read with a wrong popcount rule: its complement, or
    # u and y meeting in q^(i-1) points in place of q^i.  Either is kept
    # by the action as W_{D-1} is (the lemma of `_group_action`), so
    # the run stays on the automorphism path; the corrupted matrix
    # still has full rank, and the traces are right, so (a) holds and
    # (c) names the fault at row x, with no elimination
    def corrupted(gc, i, w):
        if i != gc.d - 1:
            return w
        if corruption == "complement":
            return ~w
        sub = gc.geometry.table(i).words
        w = np.empty_like(w)
        for rows, counts in linalg.product_blocks(sub, gc.vertices.words, gc.q**gc.n):
            w[rows] = counts == gc.q ** (i - 1)
        return w

    patch_inclusion(monkeypatch, corrupted)
    gc = build_graph(q, n, d)
    assert gc.certificate_path == "automorphism"
    w = gc.inclusion(d - 1)
    assert linalg.rank_mod_prime(w) == len(w)
    operands = elimination_operands(monkeypatch)
    ss = spectral_system(gc)
    assert operands == []
    assert ss.partial_ranks[d - 1] is None
    witness = failing(ss.checks)["rank_certificate"]
    assert "(a)" not in witness
    assert f"W_{d - 1}^T W_{d - 1} != sum_h" in witness


@pytest.mark.parametrize("which", ["first", "last"])
@pytest.mark.parametrize("q,n,d", [(2, 5, 2), (3, 4, 2), (2, 5, 1)])
def test_broken_idempotency_fails_derived_certificate_a(q, n, d, which, monkeypatch):
    # one Lagrange denominator doubled halves E_0 or E_D, so E^2 != E,
    # with (c) forced to pass.  Halving E_D leaves every tr F'_i with
    # i < D exact: only the idempotency premise names (a) there
    real = grassmann._lagrange_numerators
    k = 0 if which == "first" else d

    def doubled(L, theta):
        out = real(L, theta)
        num, den = out[k]
        out[k] = (num, 2 * den)
        return out

    monkeypatch.setattr(grassmann, "_lagrange_numerators", doubled)
    monkeypatch.setattr(grassmann, "_gram_spans_partial_sum", lambda *_: True)
    ss = spectral_system(build_graph(q, n, d))
    bad = failing(ss.checks)
    assert "idempotency" in bad
    assert ss.partial_ranks[:d] == [None] * d
    for i in range(d):
        assert f"(a) rank W_{i} = tr F'_{i} does not follow: idempotency failed" in bad["rank_certificate"]


def test_certificate_a_reads_the_exact_trace(monkeypatch):
    # tr F'_1 moved by 1/2 while every premise holds: the truncated
    # multiplicities would still sum to the 31 rows of W_1
    gc = build_graph(2, 5, 2)
    ss = spectral_system(gc)
    real = ss.partial_coeffs
    half = Fraction(1, 2 * gc.n_vertices)

    def shifted(i):
        coeffs = real(i)
        return [coeffs[0] + half, *coeffs[1:]] if i == 1 else coeffs

    monkeypatch.setattr(ss, "partial_coeffs", shifted)
    monkeypatch.setattr(grassmann, "_gram_spans_partial_sum", lambda *_: True)
    ranks, faults = grassmann._inclusion_certificate(gc, ss, [])
    assert int(gc.n_vertices * shifted(1)[0]) == 31
    assert ranks == [1, None, 155]
    assert faults == ["(a) tr F'_1 = 63/2, not the 31 rows of W_1"]


@pytest.mark.parametrize("q,n,d", [(2, 6, 2), (3, 4, 2), (2, 6, 3)])
def test_passing_verify_eliminates_no_inclusion_matrix(q, n, d, monkeypatch, capsys):
    from qgrass.cli import main

    operands = elimination_operands(monkeypatch)
    assert main(["verify", "--q", str(q), "--n", str(n), "--d", str(d), "--suite", "all"]) == 0
    # W_i, 0 < i < D, of the main graph and, when N != 2D, of the
    # boundary graph J_q(2D, D), neither as it is nor transposed; W_0 is
    # the all-ones row, which the bases suite ranks as the constant piece
    inclusion = []
    for gn in {n, 2 * d}:
        gc = build_graph(q, gn, d)
        inclusion += [w for i in range(1, d) for w in (gc.inclusion(i), gc.inclusion(i).T)]
    assert operands, "the nucleus squeeze ranks are eliminations"
    for a in operands:
        assert not any(a.shape == w.shape and (a == w).all() for w in inclusion)


# ---------------------------------------------------------------------------
# the primitive idempotents as precomputed Lagrange matrices P_i(L)


def apply_lagrange(lagrange, i, coef):
    num, den = lagrange[i]
    return [sum(Fraction(a, den) * v for a, v in zip(row, coef)) for row in num]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda size: st.tuples(
        st.lists(st.lists(st.integers(-6, 6), min_size=size, max_size=size), min_size=size, max_size=size),
        st.lists(st.integers(-40, 40), min_size=size, max_size=size, unique=True),
        st.lists(st.fractions(max_denominator=30), min_size=size, max_size=size),
    )
))
def test_lagrange_matrices_match_the_step_loop(args):
    L, theta, coef = args
    lagrange = grassmann._lagrange_numerators(L, theta)
    for i in range(len(theta)):
        assert apply_lagrange(lagrange, i, coef) == idempotent_by_steps(L, theta, i, coef)


@pytest.mark.parametrize("theta_off", [0, 1], ids=["closed_form", "wrong_theta"])
@pytest.mark.parametrize("q,n,d", [(2, 5, 1), (2, 5, 2), (3, 4, 2), (2, 6, 3)])
def test_idempotent_checks_match_the_step_loop(q, n, d, theta_off, monkeypatch):
    theta = eigenvalue_formulas(q, n, d)
    theta[1] += theta_off
    monkeypatch.setattr(grassmann, "eigenvalue_formulas", lambda *_: list(theta))
    ss = spectral_system(build_graph(q, n, d))
    L, _ = structure_constants(ss.gc)
    ident = [Fraction(int(h == 0)) for h in range(d + 1)]
    e = [idempotent_by_steps(L, theta, i, ident) for i in range(d + 1)]
    assert ss.e_coeffs == e
    idem = [idempotent_by_steps(L, theta, i, e[i]) == e[i] for i in range(d + 1)]
    orth = [
        not any(idempotent_by_steps(L, theta, i, e[j]))
        for i in range(d + 1)
        for j in range(i + 1, d + 1)
    ]
    verdicts = {c.name: c.passed for c in ss.checks.checks}
    assert verdicts["idempotency"] == all(idem)
    assert verdicts["orthogonality"] == all(orth)
    assert all(idem + orth) == (theta_off == 0)


def test_point_count_not_power_of_q_raises(monkeypatch):
    # a common point count of 3 over F_2 is no subspace meet
    real = grassmann.product_blocks

    def corrupt(a, b, inner):
        for rows, out in real(a, b, inner):
            out[0, -1] = 3
            yield rows, out

    monkeypatch.setattr(grassmann, "product_blocks", corrupt)
    with pytest.raises(ArithmeticError, match="not a power of 2"):
        build_graph(2, 4, 2)


def test_point_count_in_a_later_block_raises(monkeypatch):
    # small blocks, with the bad count in the last one only: the lookup
    # is built once per product and every block is classified
    monkeypatch.setattr(linalg, "_BLOCK_BYTES", 1024)
    real = grassmann.product_blocks
    seen = []

    def corrupt(a, b, inner):
        blocks = list(real(a, b, inner))
        for k, (rows, out) in enumerate(blocks):
            seen.append(rows.start)
            if k == len(blocks) - 1 and rows.start > 0:
                out[-1, 0] = 5
            yield rows, out

    monkeypatch.setattr(grassmann, "product_blocks", corrupt)
    with pytest.raises(ArithmeticError, match="point count 5 is not a power of 2 up to 2\\^2"):
        build_graph(2, 4, 2)
    assert len(seen) > 2


def test_count_dims_gathers_every_count():
    dims = count_dims(3, 2)
    counts = np.array([[1, 3, 9], [9, 3, 1]], dtype=np.uint8)
    assert dims(counts).tolist() == [[0, 1, 2], [2, 1, 0]]
    # zero, a non-power, past q^top, negative: the first bad count is named
    for bad in (0, 4, 10, 27, 255, -3):
        arr = np.array([1, 3, 9, 3, bad, 2], dtype=np.int64)
        with pytest.raises(ArithmeticError, match=f"point count {bad} is not"):
            dims(arr)


# ---------------------------------------------------------------------------
# the automorphism certificate: row x under a verified GL(N, q) action,
# against the dense products it replaces


def certified(q, n, d, x_rows=None, dense=False):
    """(gc, ss) of one instance, on the automorphism path or, with
    `dense`, with every premise refused so that the dense products
    decide."""
    with pytest.MonkeyPatch.context() as mp:
        if dense:
            read_every_row(mp)
        gc = build_graph(q, n, d, x_rows=x_rows)
        ss = spectral_system(gc)
    return gc, ss


def check_table(cs):
    return [(c.name, c.passed, c.witness, c.expected, c.observed) for c in cs.checks]


@settings(max_examples=10, deadline=None)
@given(instances_with_base_vertex())
def test_automorphism_path_matches_dense_oracle(instance):
    q, n, d, x_rows = instance
    fast, fast_ss = certified(q, n, d, x_rows)
    slow, slow_ss = certified(q, n, d, x_rows, dense=True)
    assert (fast.certificate_path, slow.certificate_path) == ("automorphism", "dense")
    assert structure_constants(fast)[0] == structure_constants(slow)[0]
    assert check_table(fast.build_checks) == check_table(slow.build_checks)
    assert check_table(fast_ss.checks) == check_table(slow_ss.checks)
    assert fast_ss.partial_ranks == slow_ss.partial_ranks
    fast_ss.checks.require()


@pytest.mark.parametrize("q,n,d", [(2, 5, 2), (3, 4, 2)])
def test_invariant_corruption_fails_both_paths_alike(q, n, d, monkeypatch):
    # the complement of W_1 is a popcount rule, [popcount != q], so the
    # action keeps it as it keeps W_1 (the lemma of `_group_action`):
    # the row checks themselves must see the fault, with the dense
    # verdicts and witnesses
    patch_inclusion(monkeypatch, lambda gc, i, w: ~w if i == 1 else w)
    fast, fast_ss = certified(q, n, d)
    slow, slow_ss = certified(q, n, d, dense=True)
    assert (fast.certificate_path, slow.certificate_path) == ("automorphism", "dense")
    assert check_table(fast.build_checks) == check_table(slow.build_checks)
    assert check_table(fast_ss.checks) == check_table(slow_ss.checks)
    assert fast_ss.partial_ranks == slow_ss.partial_ranks
    assert "bfs_distances_match_meet_formula" in failing(fast.build_checks)
    assert "(c) W_1^T W_1 != sum_h [D-h,1]_q A_h" in failing(fast_ss.checks)["rank_certificate"]


@pytest.mark.parametrize("q,n,d", [(2, 5, 1), (2, 5, 2), (3, 4, 2)])
def test_invariant_relabeling_of_dist_fails_both_paths_alike(q, n, d):
    # every distance read as D - dist keeps every premise of the action
    # (a relabeling of the classes is as invariant as they are), so the
    # row checks must fail A_0 = I and the metric where the dense ones do
    real = grassmann.GraphContext.distances
    verdicts = []
    for dense in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            if dense:
                read_every_row(mp)
            mp.setattr(
                grassmann.GraphContext, "distances", lambda gc, *args: d - real(gc, *args)
            )
            gc = build_graph(q, n, d)
            L, cs = structure_constants(gc)
            verdicts.append((gc.certificate_path, L, check_table(cs), grassmann._metric_certificate(gc)))
    (fast_path, *fast), (slow_path, *slow) = verdicts
    assert (fast_path, slow_path) == ("automorphism", "dense")
    assert fast == slow
    assert "a0_is_identity" in failing(cs)
    assert not fast[2]


def program_verdicts(gc, ss):
    """The verifier's verdicts on what `dense_certificate_verdicts`
    decides but (b), which it derives and does not evaluate: (c) from
    the witness of `rank_certificate`, the edges from the premise that
    `_metric_certificate` derives them from, the class sum of W_{D-1}
    with A_0 = I."""
    witness = next(c for c in ss.checks.checks if c.name == "rank_certificate").witness or ""
    a0 = "a0_is_identity" not in failing(gc.structure_checks)
    return {
        "c": [f"(c) W_{i}^T W_{i} != sum_h [D-h,{i}]_q A_h" not in witness for i in range(gc.d)],
        "edges": gc.gram_class_sums[gc.d - 1] and a0,
    }


@pytest.mark.parametrize(
    "corruption,dense",
    [
        pytest.param(corruption, dense, id=f"{corruption}-{'every_row' if dense else 'representatives'}")
        for dense in (False, True)
        for corruption in ("none", "complement_of_w", "flip_w_entry", "copied_words")
        if dense or corruption != "flip_w_entry"
    ],
)
@pytest.mark.parametrize("q,n,d", [(2, 5, 2), (3, 4, 2), (2, 5, 1)])
def test_certificates_match_dense_int64_oracles(q, n, d, corruption, dense):
    # the complement of W_{D-1} (W_1 at D = 2) is a popcount rule, so
    # the action keeps it (the lemma of `_group_action`); one entry of
    # W_{D-1} flipped, off row x of its Gram product when D = 2, is no
    # popcount rule, so only the run that reads every row is held to see
    # it; and vertex 0 given the point words of the last vertex, the
    # data every distance is read from, leaves two vertices with one
    # image, so no vertex permutation
    real_table = grassmann.GeometryContext.table

    def copied(geometry, dim):
        table = real_table(geometry, dim)
        if dim == geometry.d:
            table.words[0] = table.words[-1]
        return table

    def flipped(gc, i, w):
        if i != gc.d - 1:
            return w
        u = int(np.flatnonzero(~w[:, gc.x_index])[-1]) if len(w) > 1 else 0
        w = w.copy()
        w[u, -1] = not w[u, -1]
        return w

    with pytest.MonkeyPatch.context() as mp:
        if dense:
            read_every_row(mp)
        if corruption == "complement_of_w":
            patch_inclusion(mp, lambda gc, i, w: ~w if i == gc.d - 1 else w)
        if corruption == "flip_w_entry":
            patch_inclusion(mp, flipped)
        if corruption == "copied_words":
            mp.setattr(grassmann.GeometryContext, "table", copied)
        gc = build_graph(q, n, d)
        ss = spectral_system(gc)
        want = dense_certificate_verdicts(gc, ss)
        got = program_verdicts(gc, ss)
        assert got["c"] == want["c"]
        if "a0_is_identity" in failing(gc.structure_checks):
            # the derived premise is refused, and the all-pairs expansion
            # of `_bfs_full_check` decides the metric
            assert not grassmann._metric_certificate(gc)
        else:
            assert got["edges"] == want["edges"]
        # a certified rank rests on (a) and (b), which the exact rank of
        # W_i and the dense product decide
        for i in range(d):
            if ss.partial_ranks[i] is not None:
                assert want["a"][i] and want["b"][i], i
        assert (gc.adjacency() == dense_adjacency(gc)).all()
    if corruption == "copied_words":
        assert "a0_is_identity" in failing(ss.checks)
    path = "dense" if dense or corruption == "copied_words" else "automorphism"
    assert gc.certificate_path == path
    verdicts = [*want["a"], *want["b"], *want["c"], want["edges"]]
    assert all(verdicts) == (corruption == "none")


def square_products(monkeypatch):
    """Sizes n of the n x n 0/1 products streamed while the test runs,
    in order, from every caller of the kernel but the distance reads of
    `GraphContext.distances`: the products of the algebra."""
    sizes, reading = [], []
    real_stream, real_distances = linalg._stream, grassmann.GraphContext.distances

    def stream(pa, pb, inner):
        if pa.shape[0] == pb.shape[1] and not reading:
            sizes.append(pa.shape[0])
        return real_stream(pa, pb, inner)

    def distances(gc, *args):
        reading.append(True)
        try:
            return real_distances(gc, *args)
        finally:
            reading.pop()

    monkeypatch.setattr(linalg, "_stream", stream)
    monkeypatch.setattr(grassmann.GraphContext, "distances", distances)
    return sizes


def test_passing_run_makes_no_square_product(monkeypatch, capsys, tmp_path):
    # J_2(6,2) verify --suite all: no |X| x |X| product of the algebra,
    # neither of the graph (651 vertices) nor of its boundary J_2(4,2)
    # (35): no A_1 A_g, no Gram product W_i^T W_i.  Distances are read
    # from the vertex masks (`GraphContext.distances`), not multiplied
    from qgrass.cli import main

    sizes = square_products(monkeypatch)
    out = tmp_path / "r.json"
    argv = ["verify", "--q", "2", "--n", "6", "--d", "2", "--suite", "all", "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    assert [s for s in sizes if s in (35, 651)] == []
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["meta"]["certificate_paths"] == {"main": "automorphism", "boundary": "automorphism"}


@pytest.mark.parametrize("q,n,d", [(2, 5, 2), (2, 4, 2)])
def test_verify_checks_the_action_and_constants_once_per_graph(q, n, d, monkeypatch, capsys, tmp_path):
    # `build_graph` verifies the group action and the intersection
    # matrix, and every later certificate reads them from the graph: one
    # call of each per graph built, J_q(N, D) and, when N != 2D, the
    # boundary graph J_q(2D, D)
    import qgrass.cli

    built = []
    calls = {"_group_action": [], "structure_constants": []}
    real_build = qgrass.cli.build_graph

    def build(*args, **kwargs):
        built.append(real_build(*args, **kwargs))
        return built[-1]

    def counted(real, seen):
        return lambda gc: seen.append(gc) or real(gc)

    monkeypatch.setattr(qgrass.cli, "build_graph", build)
    for name, seen in calls.items():
        monkeypatch.setattr(grassmann, name, counted(getattr(grassmann, name), seen))
    argv = ["verify", "--q", str(q), "--n", str(n), "--d", str(d), "--suite", "all"]
    assert qgrass.cli.main(argv + ["--out", str(tmp_path / "r.json")]) == 0
    capsys.readouterr()
    assert len(built) == (1 if n == 2 * d else 2)
    assert calls == {name: built for name in calls}


def _drop_link(mp):
    real = grassmann._x0_generators

    def gens(q, n, d):
        mats, fixing = real(q, n, d)
        return np.delete(mats, fixing - 1, axis=0), fixing - 1

    mp.setattr(grassmann, "_x0_generators", gens)


def _swap_images(dim):
    """A mutation that swaps two images in the stored permutation of
    the table of dim-subspaces under the first generator, after the
    lookup: still a bijection of the table, but entries 0 and 1 no
    longer go to the entries with their image masks."""

    def mutate(mp):
        real = grassmann._table_perms

        def perms(table, inv, npoints):
            found = real(table, inv, npoints)
            if found is not None and table.dim == dim:
                p = found[0]
                p[0, [0, 1]] = p[0, [1, 0]]
            return found

        mp.setattr(grassmann, "_table_perms", perms)

    return mutate


def _mask_outside_table(mp):
    real = grassmann._image_words

    def words(table_words, inv, npoints):
        out = real(table_words, inv, npoints).copy()
        out[0, 0] = 0  # the empty point set: no subspace, not even {0}
        return out

    mp.setattr(grassmann, "_image_words", words)


def _singular_generator(mp):
    real = grassmann._x0_generators

    def gens(q, n, d):
        mats, fixing = real(q, n, d)
        mats = mats.copy()
        mats[0, 0] = 0
        return mats, fixing

    mp.setattr(grassmann, "_x0_generators", gens)


def _fixing_generator_moves_x(mp):
    real = grassmann._x0_generators

    def gens(q, n, d):
        mats, fixing = real(q, n, d)
        mats = mats.copy()
        mats[0] = mats[-1]
        return mats, fixing

    mp.setattr(grassmann, "_x0_generators", gens)


MUTATIONS = {
    "drop_link_transvection": _drop_link,
    "swap_two_vertex_images": _swap_images(2),
    "swap_two_line_images": _swap_images(1),
    "image_mask_outside_table": _mask_outside_table,
    "singular_generator": _singular_generator,
    "fixing_generator_moves_x": _fixing_generator_moves_x,
}


def verify_report(q, n, d, out, mutate=None):
    """(report, square product sizes) of `verify --suite all`, with the
    mutation applied to the automorphism certificate."""
    from qgrass.cli import main

    with pytest.MonkeyPatch.context() as mp:
        sizes = square_products(mp)
        if mutate is not None:
            mutate(mp)
        argv = ["verify", "--q", str(q), "--n", str(n), "--d", str(d), "--suite", "all"]
        assert main(argv + ["--out", str(out)]) == 0
    return json.loads(out.read_text(encoding="utf-8")), sizes


@pytest.mark.parametrize("q,n,d", [(2, 5, 2), (3, 4, 2)])
@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_broken_premise_runs_dense_with_the_same_report(q, n, d, mutation, tmp_path, capsys):
    # each fault of the certificate sends every graph of the run to the
    # dense products, which then decide the same report
    good, good_sizes = verify_report(q, n, d, tmp_path / "good.json")
    bad, bad_sizes = verify_report(q, n, d, tmp_path / "bad.json", MUTATIONS[mutation])
    capsys.readouterr()
    nv = q_binomial(n, d, q)
    assert good_sizes.count(nv) == 0
    # the Gram products W_i^T W_i on every row, one per i < D at build,
    # from which the edges are derived
    assert bad_sizes.count(nv) == d
    assert set(bad["meta"]["certificate_paths"].values()) == {"dense"}
    assert set(good["meta"]["certificate_paths"].values()) == {"automorphism"}
    bad.pop("meta")
    good.pop("meta")
    assert bad == good


def test_action_certificate_builds_no_inclusion_matrix(monkeypatch):
    # the invariance of every W_i is derived, not checked (the lemma of
    # `_group_action`): at J_2(6,3), where W_1 and W_2 are the largest
    # arrays of the build, no `GraphContext.inclusion` call comes from
    # inside the action certificate
    real_action, real_inclusion = grassmann._group_action, grassmann.GraphContext.inclusion
    inside, calls = [], []

    def action(gc):
        inside.append(True)
        try:
            return real_action(gc)
        finally:
            inside.pop()

    def inclusion(gc, i, rows=None, cols=None):
        if inside:
            calls.append(i)
        return real_inclusion(gc, i, rows, cols)

    monkeypatch.setattr(grassmann, "_group_action", action)
    monkeypatch.setattr(grassmann.GraphContext, "inclusion", inclusion)
    gc = build_graph(2, 6, 3)
    assert gc.certificate_path == "automorphism"
    assert calls == []


def test_build_and_spectral_read_inclusion_at_the_subspaces_of_x(monkeypatch):
    # J_2(6,3): every block of W_i read by the build and the spectral
    # system is one column (the i-subspaces of x, found on column x) or
    # at most [D,i]_q rows (those subspaces), never the whole W_i
    real = grassmann.GraphContext.inclusion
    shapes = []

    def inclusion(gc, i, rows=None, cols=None):
        w = real(gc, i, rows, cols)
        shapes.append((i, w.shape))
        return w

    monkeypatch.setattr(grassmann.GraphContext, "inclusion", inclusion)
    gc = build_graph(2, 6, 3)
    ss = spectral_system(gc)
    ss.checks.require()
    assert gc.certificate_path == "automorphism"
    assert {i for i, _shape in shapes} == {0, 1, 2}
    for i, (nrows, ncols) in shapes:
        assert nrows <= q_binomial(3, i, 2) or ncols <= 1, (i, nrows, ncols)


def test_build_and_spectral_hold_no_whole_inclusion_matrix():
    # J_2(7,3), 11,811 vertices: the traced peak of the build and the
    # spectral system stays below [N,D-1]_q x |X| bytes (31.5 MB), the
    # size of W_{D-1} as bool
    tracemalloc.start()
    try:
        gc = build_graph(2, 7, 3)
        ss = spectral_system(gc)
        _now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    gc.build_checks.require()
    ss.checks.require()
    assert gc.certificate_path == "automorphism"
    assert peak < q_binomial(7, 2, 2) * gc.n_vertices, peak


def test_action_records_the_generators_that_fix_x(j252):
    # the first `fixing` generators fix x, the last one moves it; the
    # vertex table is table(D)
    action = j252.action
    x = j252.x_index
    vertex = action.tables[j252.d]
    assert vertex.shape[1] == j252.n_vertices
    assert 0 < action.fixing < len(vertex)
    assert (vertex[: action.fixing, x] == x).all()
    assert (vertex[action.fixing :, x] != x).all()



def orbit_closure(perms, point):
    """The orbit of `point` under the permutations `perms`, by breadth-first
    search over the images."""
    orbit, frontier = {point}, [point]
    while frontier:
        frontier = [int(p[y]) for y in frontier for p in perms if int(p[y]) not in orbit]
        orbit.update(frontier)
    return orbit


@settings(max_examples=60, deadline=None)
@example((4, []))
@given(
    st.integers(1, 9).flatmap(
        lambda n: st.lists(st.permutations(range(n)), max_size=3).map(lambda ps: (n, ps))
    )
)
def test_orbit_labels_match_orbit_closure(case):
    # each point is labelled by the least point of its orbit, with no
    # generator included: every point is then its own orbit
    n, perms = case
    labels = orbit_labels(np.array(perms, dtype=np.intp).reshape(len(perms), n))
    assert labels.tolist() == [min(orbit_closure(perms, y)) for y in range(n)]


@pytest.mark.parametrize("q,n,d", [(2, 5, 2), (3, 4, 2), (2, 6, 3)])
def test_spheres_are_the_distance_classes_of_x(q, n, d):
    # the orbits of the part fixing x partition the vertices as row x
    # does, each labelled by its least vertex
    gc = build_graph(q, n, d)
    action = gc.action
    least = np.array([np.flatnonzero(gc.xrow == h)[0] for h in range(d + 1)])
    assert (action.spheres == least[gc.xrow]).all()
    assert action.sphere_representatives().tolist() == sorted(least.tolist())


def test_induced_permutations_of_the_subspaces_of_x(j252):
    # the subspaces of x, labelled as in the alpha family: every
    # generator fixing x permutes them, and a table permutation that
    # sends a point of x outside x leaves no bijection of the labels
    from qgrass.nucleus import subspaces_of_base

    dims, _words, entries = subspaces_of_base(j252)
    action = j252.action
    perms = action.induced(dims, entries)
    assert perms.shape == (action.fixing, len(dims))
    assert (np.sort(perms, axis=1) == np.arange(len(dims))).all()
    assert (perms[:, dims == j252.d] == np.flatnonzero(dims == j252.d)).all()
    lines = action.tables[1].copy()
    inside = entries[dims == 1][0]
    outside = np.setdiff1d(np.arange(lines.shape[1]), entries[dims == 1])[0]
    lines[0, [inside, outside]] = lines[0, [outside, inside]]
    tables = [*action.tables[:1], lines, *action.tables[2:]]
    assert dataclasses.replace(action, tables=tables).induced(dims, entries) is None


def test_permutes_reads_rows_and_columns_per_generator():
    # family[r][:, c] == family for each generator's pair (r, c)
    family = np.array([[1, 2], [2, 1]])
    swap = np.array([[1, 0]])
    assert grassmann.GroupAction.permutes(family, swap, swap)
    assert not grassmann.GroupAction.permutes(family, swap, np.array([[0, 1]]))
    assert grassmann.GroupAction.permutes(family, np.empty((0, 2), dtype=np.intp), swap[:0])

def held_arrays(obj, seen=None):
    """Every numpy array reachable from obj through the attributes of
    qgrass objects and through dicts, lists and tuples."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, dict):
        items = list(obj.values())
    elif isinstance(obj, (list, tuple)):
        items = list(obj)
    elif type(obj).__module__.startswith("qgrass") and hasattr(obj, "__dict__"):
        items = list(vars(obj).values())
    else:
        return []
    return [a for item in items for a in held_arrays(item, seen)]


@pytest.mark.parametrize("q,n,d", [(2, 5, 2), (3, 4, 2)])
def test_dense_path_keeps_no_square_array(q, n, d):
    # the dense path reads every row of the Gram products, of the
    # distances and of the class sums as they stream, and keeps none
    gc, _ss = certified(q, n, d, dense=True)
    assert gc.certificate_path == "dense"
    nv = gc.n_vertices
    square = [a for a in held_arrays(gc) if a.ndim == 2 and a.shape[0] == a.shape[1] == nv]
    assert square == []


def test_distance_matrix_is_int8(j252):
    assert j252.xrow.dtype == np.int8
    assert j252.distances([0, 1], [2]).dtype == np.int8
    assert count_dims(2, 3)(np.array([1, 2, 4, 8])).dtype == np.int8
