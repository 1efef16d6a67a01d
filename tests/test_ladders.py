"""Poset ladder operators, layer bookkeeping, and module types."""

from fractions import Fraction

import numpy as np
import pytest

from qgrass import ladders
from qgrass.errors import InvalidType
from qgrass.grassmann import tmodule_condition_violations
from qgrass.ladders import (
    ModuleType,
    alpha_dominant_multiplicity,
    build_poset_matrices,
    enumerate_types,
    type_to_parameters,
    validate_type,
)
from qgrass.qarith import SqrtQScalar, q_binomial, q_int
from qgrass.subspaces import CoverType, GeometryContext

from test_grassmann import J252_ADMISSIBLE, admissible_quadruples


@pytest.fixture(scope="module")
def poset25():
    pm = build_poset_matrices(GeometryContext(2, 5, 2))
    pm.checks.require()
    return pm


def test_full_poset_shape(poset25):
    assert not poset25.partial
    assert poset25.dims == [0, 1, 2, 3, 4, 5]
    assert poset25.size == sum(q_binomial(5, l, 2) for l in range(6)) == 374


def test_cover_count_against_two_formulas(poset25):
    # count covers from above (each (l+1)-space covers [l+1] subspaces)
    # and from below (each l-space is covered by [N-l] spaces)
    from_above = sum(
        q_binomial(5, l + 1, 2) * q_int(l + 1, 2) for l in range(5)
    )
    from_below = sum(q_binomial(5, l, 2) * q_int(5 - l, 2) for l in range(5))
    assert from_above == from_below == 2077
    assert poset25.cover.nnz == 2077
    assert poset25.L1.nnz + poset25.L2.nnz == 2077


def test_layer_sizes(poset25):
    sizes = next(
        c.observed
        for c in poset25.checks.checks
        if c.name == "layer_sizes_product_formula"
    )
    assert sizes["2,0"] == 1
    assert sizes["0,0"] == 1
    assert sizes["1,0"] == 3
    assert sizes["0,1"] == 28
    assert sum(sizes.values()) == 374


def test_lowering_lands_one_layer_up(poset25):
    # a line inside x sits in layer (1, 0); its slash covers must all
    # lie in layer (2, 0), which is the single vertex x
    geometry = poset25.geometry
    line = next(u for u in geometry.table(1) if geometry.pij(u) == (1, 0))
    g = poset25.global_index(line)
    row = poset25.L1.getrow(g)
    assert row.nnz == 1
    (col,) = row.indices
    assert poset25.ivec[col] == 2 and poset25.jvec[col] == 0
    assert col == poset25.global_index(geometry.x)


def test_grading_entries(poset25):
    x = poset25.geometry.x
    at_x = poset25.k1_entry(poset25.global_index(x))
    assert at_x.is_rational() and at_x.as_fraction() == Fraction(1, 2)
    zero_g = poset25.offsets[0]
    k2 = poset25.k2_entry(zero_g)
    assert not k2.is_rational()
    assert k2 == SqrtQScalar.of(2, 1, 3)
    assert k2.coeff == Fraction(2) and k2.half == 1


def test_partial_mode_forced():
    pm = build_poset_matrices(GeometryContext(2, 5, 2), force_partial=True)
    pm.checks.require()
    assert pm.partial
    assert pm.dims == [1, 2, 3]
    assert pm.size == 31 + 155 + 155


def test_partial_mode_from_cap():
    pm = build_poset_matrices(GeometryContext(2, 5, 2, poset_cap=300))
    pm.checks.require()
    assert pm.partial and pm.size == 341


def test_type_validation():
    with pytest.raises(InvalidType):
        validate_type(5, 2, ModuleType(0, 0, -1))
    with pytest.raises(InvalidType):
        validate_type(5, 2, ModuleType(2, 0, 0))
    with pytest.raises(InvalidType):
        validate_type(5, 2, ModuleType(0, 2, 0))
    validate_type(5, 2, ModuleType(1, 1, 0))


J252_TYPES = {
    ModuleType(0, 0, 0): (0, 0, 2, 0),
    ModuleType(1, 0, 0): (1, 1, 0, 0),
    ModuleType(0, 1, 0): (1, 1, 1, -1),
    ModuleType(0, 0, 1): (1, 1, 1, 1),
    ModuleType(1, 1, 0): (1, 2, 0, 0),
    ModuleType(0, 1, 1): (2, 2, 0, 0),
    ModuleType(0, 0, 2): (2, 2, 0, 2),
}


def test_types_frozen_for_5_2():
    types = enumerate_types(5, 2)
    assert set(types) == set(J252_TYPES)
    image = {mt: type_to_parameters(5, 2, mt) for mt in types}
    assert image == J252_TYPES
    assert set(image.values()) == J252_ADMISSIBLE


@pytest.mark.parametrize("n,d", [(5, 2), (6, 2), (7, 2), (7, 3), (8, 3)])
def test_types_cover_admissible_quadruples(n, d):
    image = {mt: type_to_parameters(n, d, mt) for mt in enumerate_types(n, d)}
    admissible = set(admissible_quadruples(n, d))
    hits = [quad for quad in image.values() if quad in admissible]
    assert set(hits) == admissible
    assert len(hits) == len(admissible)


def test_some_valid_types_leave_the_admissible_region():
    # with N = 6, D = 2 the mixed types below satisfy the type bounds
    # but their parameter quadruples fail the quadruple conditions
    for mt in (ModuleType(1, 2, 0), ModuleType(0, 1, 2)):
        validate_type(6, 2, mt)
        quad = type_to_parameters(6, 2, mt)
        assert tmodule_condition_violations(6, 2, *quad)


@pytest.mark.parametrize("n,d", [(5, 2), (6, 2), (7, 3), (9, 4)])
def test_conversion_special_cases(n, d):
    assert type_to_parameters(n, d, ModuleType(0, 0, 0)) == (0, 0, d, 0)
    for alpha in range(d // 2 + 1):
        assert type_to_parameters(n, d, ModuleType(alpha, 0, 0)) == (
            alpha,
            alpha,
            d - 2 * alpha,
            0,
        )
    for beta in range(1, n - 2 * d + 1):
        assert type_to_parameters(n, d, ModuleType(0, beta, 0)) == (
            beta,
            beta,
            d - beta,
            -beta,
        )


def test_alpha_dominant_multiplicities():
    assert [alpha_dominant_multiplicity(2, 2, a) for a in range(2)] == [1, 2]
    assert [alpha_dominant_multiplicity(3, 2, a) for a in range(2)] == [1, 3]
    assert alpha_dominant_multiplicity(2, 3, 1) == 6
    for q, d in [(2, 2), (2, 3), (3, 3), (2, 4), (5, 2)]:
        assert alpha_dominant_multiplicity(q, d, 0) == 1
        total = sum(
            alpha_dominant_multiplicity(q, d, a) for a in range(d // 2 + 1)
        )
        assert total == q_binomial(d, d // 2, q)


def test_structural_check_names(poset25):
    names = {c.name for c in poset25.checks.checks}
    assert {
        "layer_projections_sum_to_identity",
        "layer_projections_pairwise_orthogonal",
        "raising_is_transpose_of_lowering_slash",
        "raising_is_transpose_of_lowering_backslash",
        "cover_matrix_splits",
        "cover_types_disjoint",
        "ladder_support_shifts",
        "layer_sizes_product_formula",
        "layer_projection_ranks_match_sizes",
        "base_vertex_k1_entry",
        "base_vertex_k2_entry",
    } <= names


def pair_scan_oracle(pm):
    """Test-only oracle: the cover relations as build_poset_matrices
    found them before the incidence products, by one is_subspace_of
    test per pair of consecutive layers and cover_type per cover, with
    the raising pairs from a second scan from above.  Returns sets of
    global index pairs keyed like the PosetMatrices fields."""
    geometry = pm.geometry
    out = {name: set() for name in ("L1", "L2", "R1", "R2", "cover")}
    for l in pm.dims:
        if l + 1 not in pm.offsets:
            continue
        off_lo, off_hi = pm.offsets[l], pm.offsets[l + 1]
        for a, u in enumerate(geometry.table(l)):
            for b, v in enumerate(geometry.table(l + 1)):
                if not u.is_subspace_of(v):
                    continue
                out["cover"].add((off_lo + a, off_hi + b))
                kind = "L1" if geometry.cover_type(u, v) is CoverType.SLASH else "L2"
                out[kind].add((off_lo + a, off_hi + b))
        for b, v in enumerate(geometry.table(l + 1)):
            for a, w in enumerate(geometry.table(l)):
                if w.is_subspace_of(v):
                    kind = "R1" if geometry.cover_type(w, v) is CoverType.SLASH else "R2"
                    out[kind].add((off_hi + b, off_lo + a))
    return out


def nonzero_pairs(mat):
    coo = mat.tocoo()
    assert (coo.data == 1).all()
    return set(zip(coo.row.tolist(), coo.col.tolist()))


@pytest.mark.parametrize(
    "q,n,d,partial",
    [(2, 5, 2, False), (2, 5, 2, True), (3, 4, 2, False), (2, 7, 1, True)],
    ids=["F2^5-full", "F2^5-partial", "F3^4-full", "F2^7-partial"],
)
def test_incidence_covers_match_pair_scan(q, n, d, partial):
    # F_3^4 (81 points) and F_2^7 (128) take two 64-bit words per mask;
    # over F_2 no point has a scalar multiple in the other word
    pm = build_poset_matrices(GeometryContext(q, n, d), force_partial=partial)
    pm.checks.require()
    oracle = pair_scan_oracle(pm)
    for name, pairs in oracle.items():
        assert nonzero_pairs(getattr(pm, name)) == pairs, name
    geometry = pm.geometry
    assert [(int(i), int(j)) for i, j in zip(pm.ivec, pm.jvec)] == [
        geometry.pij(u) for u in pm.elements
    ]


@pytest.mark.parametrize("slash", [True, False], ids=["slash", "backslash"])
def test_dropped_raising_pair_fails_transpose_check(monkeypatch, slash):
    # drop the first raising pair of the given kind; only the transpose
    # check of that kind may fail
    real = ladders._raising_pairs
    dropped = []

    def lossy(words_lo, words_hi, x_words):
        b, a, kinds = real(words_lo, words_hi, x_words)
        hits = np.flatnonzero(kinds == slash)
        if dropped or not hits.size:
            return b, a, kinds
        dropped.append((int(b[hits[0]]), int(a[hits[0]])))
        keep = np.arange(b.size) != hits[0]
        return b[keep], a[keep], kinds[keep]

    monkeypatch.setattr(ladders, "_raising_pairs", lossy)
    pm = build_poset_matrices(GeometryContext(2, 4, 2))
    assert len(dropped) == 1
    verdicts = {c.name: c.passed for c in pm.checks.checks}
    hit, miss = ("slash", "backslash") if slash else ("backslash", "slash")
    assert not verdicts[f"raising_is_transpose_of_lowering_{hit}"]
    assert verdicts[f"raising_is_transpose_of_lowering_{miss}"]
