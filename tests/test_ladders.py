"""Poset ladder operators, layer bookkeeping, and module types."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

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
from qgrass.linalg import exact_int_product, row_blocks
from qgrass.subspaces import DEFAULT_POSET_CAP, GeometryContext, kernel_words, projective_points

from oracles import (
    base_vertex,
    cover_kind,
    covers_from_above_by_spans,
    covers_from_below,
    entries,
    global_index,
    layer_of,
    mask_words,
)
from strategies import instances_with_base_vertex
from test_grassmann import J252_ADMISSIBLE, admissible_quadruples


def pair_set_csr(pm, keys):
    """Test-only oracle representation: the pair set `keys` (sorted keys
    row * size + col) as the scipy CSR matrix the ladder operators were
    before.  Every key is one stored entry of value 1, so a repeated key
    stays two entries, which the row pointers count twice and sparse
    arithmetic sums to 2."""
    rows, cols = pm.pairs(keys)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=pm.size))])
    return sp.csr_matrix(
        (np.ones(keys.size, dtype=np.int64), cols, indptr), shape=(pm.size, pm.size)
    )


def estar_csr(pm, i, j):
    return sp.diags(pm.estar(i, j), format="csr", dtype=np.int64)


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
    assert pair_set_csr(poset25, poset25.cover).nnz == 2077
    assert pair_set_csr(poset25, poset25.L1).nnz + pair_set_csr(poset25, poset25.L2).nnz == 2077


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
    x = base_vertex(geometry)
    line = next(u for u in entries(geometry.table(1)) if layer_of(u, x) == (1, 0))
    g = global_index(poset25, line)
    row = pair_set_csr(poset25, poset25.L1).getrow(g)
    assert row.nnz == 1
    (col,) = row.indices
    assert poset25.ivec[col] == 2 and poset25.jvec[col] == 0
    assert col == global_index(poset25, x)


def test_grading_entries(poset25):
    at_x = poset25.k1_entry(global_index(poset25, base_vertex(poset25.geometry)))
    assert at_x.is_rational() and at_x.as_fraction() == Fraction(1, 2)
    zero_g = poset25.offsets[0]
    k2 = poset25.k2_entry(zero_g)
    assert not k2.is_rational()
    assert k2 == SqrtQScalar.of(2, 1, 3)
    assert k2.coeff == Fraction(2) and k2.half == 1


def test_partial_mode_forced():
    pm = build_poset_matrices(GeometryContext(2, 5, 2, poset_cap=0))
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


def sparse_shift_oracle(pm):
    """Test-only oracle: the ladder_support_shifts witness from the four
    sparse products per layer that `_ladder_shift_witness` replaced, the
    last failing (layer, label) in the loop's order, or None."""
    d, n, m = pm.geometry.d, pm.geometry.ambient, pm.size
    layers = [(i, j) for i in range(d + 1) for j in range(n - d + 1) if i + j in pm.offsets]
    estars = {layer: estar_csr(pm, *layer) for layer in layers}
    L1, L2, R1, R2 = (pair_set_csr(pm, getattr(pm, name)) for name in ("L1", "L2", "R1", "R2"))
    zero = sp.csr_matrix((m, m), dtype=np.int64)
    witness = None
    for i, j in layers:
        e_ij = estars[(i, j)]
        for lhs, rhs, label in [
            (e_ij @ L1, L1 @ estars.get((i + 1, j), zero), "slash lowering"),
            (e_ij @ L2, L2 @ estars.get((i, j + 1), zero), "backslash lowering"),
            (e_ij @ R1, R1 @ estars.get((i - 1, j), zero), "slash raising"),
            (e_ij @ R2, R2 @ estars.get((i, j - 1), zero), "backslash raising"),
        ]:
            if (lhs != rhs).nnz:
                witness = f"{label} shift at layer ({i},{j})"
    return witness


@pytest.fixture(scope="module")
def poset342_partial():
    pm = build_poset_matrices(GeometryContext(3, 4, 2, poset_cap=0))
    pm.checks.require()
    return pm


def with_moved_entry(pm, name, k, target, move_row):
    """pm with entry k of the ladder `name` moved to row or column `target`."""
    rows, cols = pm.pairs(getattr(pm, name))
    (rows if move_row else cols)[k] = target
    return dataclasses.replace(pm, **{name: np.sort(rows * pm.size + cols)})


@settings(max_examples=60, deadline=None)
@given(st.booleans(), st.sampled_from(["L1", "L2", "R1", "R2"]), st.booleans(), st.data())
def test_moved_entry_shift_witness_matches_sparse_products(
    poset25, poset342_partial, full, name, move_row, data
):
    # the gather and the sparse products name the same last broken
    # (layer, label), in the full poset and in the partial window
    pm = poset25 if full else poset342_partial
    assert ladders._ladder_shift_witness(pm) is None and sparse_shift_oracle(pm) is None
    k = data.draw(st.integers(0, getattr(pm, name).size - 1))
    moved = with_moved_entry(pm, name, k, data.draw(st.integers(0, pm.size - 1)), move_row)
    assert ladders._ladder_shift_witness(moved) == sparse_shift_oracle(moved)


def test_slash_cover_moved_to_a_backslash_partner_fails_shift_check(poset25):
    pm = poset25
    r = int(pm.pairs(pm.L1)[0][0])
    other = np.flatnonzero((pm.ivec == pm.ivec[r]) & (pm.jvec == pm.jvec[r] + 1))[0]
    moved = with_moved_entry(pm, "L1", 0, other, move_row=False)
    witness = ladders._ladder_shift_witness(moved)
    assert witness is not None and witness == sparse_shift_oracle(moved)


@pytest.mark.parametrize(
    "name,row_layer,col_layer",
    [("R1", None, (2, 2)), ("L1", (0, 2), (2, 0))],
)
def test_shift_witness_reads_no_layer_outside_the_window(name, row_layer, col_layer):
    # in the D-1..D+1 window of F_2^6, D = 3, the moved column's layer
    # less the shift, (3,2) or (1,0), lies above or below the window and
    # ranks after the row's layer: only the row's layer may be named
    pm = build_poset_matrices(GeometryContext(2, 6, 3, poset_cap=0))
    rows, _cols = pm.pairs(getattr(pm, name))
    k = 0 if row_layer is None else int(np.flatnonzero(pm.layer_indicator(*row_layer)[rows])[0])
    target = int(np.flatnonzero(pm.layer_indicator(*col_layer))[0])
    moved = with_moved_entry(pm, name, k, target, move_row=False)
    witness = ladders._ladder_shift_witness(moved)
    assert witness is not None and witness == sparse_shift_oracle(moved)


def sparse_operator_checks(pm):
    """Test-only oracle: the checks of `ladders._operator_checks`, with no
    generation failure, as build_poset_matrices made them on scipy CSR
    matrices: the closed-form cover counts from the row pointers, the
    transposes and the split by sparse comparison, disjointness by an
    elementwise product and the shift witness from the sparse products."""
    q, n, d = pm.geometry.q, pm.geometry.ambient, pm.geometry.d
    L1, L2, R1, R2, cover = (
        pair_set_csr(pm, getattr(pm, name)) for name in ("L1", "L2", "R1", "R2", "cover")
    )
    qint = np.array([q_int(k, q) for k in range(n + 1)], dtype=np.int64)
    dimvec = pm.ivec + pm.jvec
    has_up, has_down = dimvec < pm.dims[-1], dimvec > pm.dims[0]
    below = {"slash": qint[d - pm.ivec]}
    below["backslash"] = qint[n - dimvec] - below["slash"]
    above = {"backslash": qint[pm.jvec]}
    above["slash"] = qint[dimvec] - above["backslash"]
    out = {}
    for kind, lower, raising in (("slash", L1, R1), ("backslash", L2, R2)):
        witnesses = [
            ladders._count_witness(side, kind, np.diff(mat.indptr), want, where)
            for side, mat, want, where in (
                ("from below", lower, below[kind], has_up),
                ("from above", raising, above[kind], has_down),
            )
        ]
        witness = next((w for w in witnesses if w), None)
        ok = witness is None and (raising != lower.T.tocsr()).nnz == 0
        out[f"raising_is_transpose_of_lowering_{kind}"] = (ok, witness)
    out["cover_matrix_splits"] = ((cover != L1 + L2).nnz == 0, None)
    out["cover_types_disjoint"] = (L1.multiply(L2).nnz == 0, None)
    shift_witness = sparse_shift_oracle(pm)
    out["ladder_support_shifts"] = (shift_witness is None, shift_witness)
    return out


KIND_PARTNER = {"L1": "L2", "L2": "L1", "R1": "R2", "R2": "R1"}
PAIR_CHANGES = [
    (name, change)
    for name in ("L1", "L2", "R1", "R2", "cover")
    for change in ("drop", "duplicate", "move", "switch", "copy")
    if name in KIND_PARTNER or change in ("drop", "duplicate", "move")
]


@settings(max_examples=80, deadline=None)
@given(st.booleans(), st.sampled_from(PAIR_CHANGES), st.data())
def test_changed_pair_verdicts_match_sparse_checks(poset25, poset342_partial, full, edit, data):
    # drop, duplicate or move one pair of a relation, switch it to the
    # other kind or copy it there too: the key-array checks and the old
    # sparse checks give the same verdicts and witnesses, and a real
    # change fails one
    pm = poset25 if full else poset342_partial
    no_failures = {"slash": [], "backslash": []}
    verdicts = ladders._operator_checks(pm, no_failures)
    assert verdicts == sparse_operator_checks(pm)
    assert all(ok for ok, _witness in verdicts.values())
    name, change = edit
    keys = getattr(pm, name)
    k = data.draw(st.integers(0, keys.size - 1))
    if change == "drop":
        fields = {name: np.delete(keys, k)}
    elif change == "duplicate":
        fields = {name: np.insert(keys, k, keys[k])}
    elif change == "move":
        rows, cols = pm.pairs(keys)
        (rows if data.draw(st.booleans()) else cols)[k] = data.draw(st.integers(0, pm.size - 1))
        fields = {name: np.sort(rows * pm.size + cols)}
    else:
        partner = KIND_PARTNER[name]
        fields = {
            name: keys if change == "copy" else np.delete(keys, k),
            partner: np.sort(np.append(getattr(pm, partner), keys[k])),
        }
    changed = dataclasses.replace(pm, **fields)
    verdicts = ladders._operator_checks(changed, no_failures)
    assert verdicts == sparse_operator_checks(changed)
    if change == "copy" or not np.array_equal(fields[name], keys):
        assert not all(ok for ok, _witness in verdicts.values())


def pair_scan_oracle(pm):
    """Test-only oracle: the cover relations as build_poset_matrices
    found them before the incidence products, by one subset test of the
    point masks per pair of consecutive layers and a point-count
    classification per cover (`oracles.cover_kind`), with the raising
    pairs from a second scan from above.  Returns sets of
    global index pairs keyed like the PosetMatrices fields."""
    geometry = pm.geometry
    x = base_vertex(geometry)
    out = {name: set() for name in ("L1", "L2", "R1", "R2", "cover")}
    for l in pm.dims:
        if l + 1 not in pm.offsets:
            continue
        off_lo, off_hi = pm.offsets[l], pm.offsets[l + 1]
        lower, upper = entries(geometry.table(l)), entries(geometry.table(l + 1))
        for a, u in enumerate(lower):
            for b, v in enumerate(upper):
                if u.mask & v.mask != u.mask:
                    continue
                out["cover"].add((off_lo + a, off_hi + b))
                kind = "L1" if cover_kind(u, v, x) == "slash" else "L2"
                out[kind].add((off_lo + a, off_hi + b))
        for b, v in enumerate(upper):
            for a, w in enumerate(lower):
                if w.mask & v.mask == w.mask:
                    kind = "R1" if cover_kind(w, v, x) == "slash" else "R2"
                    out[kind].add((off_hi + b, off_lo + a))
    return out


def assert_layers_match_objects(pm):
    """(i, j) of every materialized subspace, from its own object."""
    geometry = pm.geometry
    x = base_vertex(geometry)
    assert [(int(i), int(j)) for i, j in zip(pm.ivec, pm.jvec)] == [
        layer_of(u, x) for l in pm.dims for u in entries(geometry.table(l))
    ]


def window(q, n, d, partial, x_rows=None):
    """The geometry of J_q(N, D), with a poset cap of 0 when `partial`,
    so that only the window of dimensions D-1..D+1 is materialized."""
    cap = 0 if partial else DEFAULT_POSET_CAP
    return GeometryContext(q, n, d, x_rows=x_rows, poset_cap=cap)


def nonzero_pairs(pm, keys):
    mat = pair_set_csr(pm, keys)
    mat.sum_duplicates()
    assert (mat.data == 1).all()
    coo = mat.tocoo()
    return set(zip(coo.row.tolist(), coo.col.tolist()))


@pytest.mark.parametrize(
    "q,n,d,partial",
    [(2, 5, 2, False), (2, 5, 2, True), (3, 4, 2, False), (2, 7, 1, True)],
    ids=["F2^5-full", "F2^5-partial", "F3^4-full", "F2^7-partial"],
)
def test_incidence_covers_match_pair_scan(q, n, d, partial):
    # F_3^4 (81 points) and F_2^7 (128) take two 64-bit words per mask;
    # over F_2 no point has a scalar multiple in the other word
    pm = build_poset_matrices(window(q, n, d, partial))
    pm.checks.require()
    oracle = pair_scan_oracle(pm)
    for name, pairs in oracle.items():
        assert nonzero_pairs(pm, getattr(pm, name)) == pairs, name
    assert_layers_match_objects(pm)


@settings(max_examples=6, deadline=None)
@given(instances_with_base_vertex(), st.booleans())
def test_incidence_covers_match_pair_scan_at_random_base_vertex(instance, partial):
    q, n, d, x_rows = instance
    pm = build_poset_matrices(window(q, n, d, partial, x_rows))
    pm.checks.require()
    for name, pairs in pair_scan_oracle(pm).items():
        assert nonzero_pairs(pm, getattr(pm, name)) == pairs, name
    assert_layers_match_objects(pm)


def point_incidence(table, npoints):
    """Test-only: the bool point-incidence matrix of a table, entry
    (r, p) set when vector p lies in subspace r, unpacked from its
    words."""
    words = np.ascontiguousarray(table.words)
    bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
    return bits[:, :npoints].astype(bool)


def _cover_pairs(inc_lo, inc_hi, size_lo):
    """Test-only oracle (the verify path before generated covers):
    index arrays (a, b) of the pairs u_a < v_b between consecutive
    layers, from chunked point-incidence products: u lies in v exactly
    when they share all size_lo = q^l points of u."""
    rows, cols = [], []
    for blk in row_blocks(len(inc_lo), len(inc_hi)):
        counts = exact_int_product(inc_lo[blk], inc_hi.T, inc_lo.shape[1])
        a, b = np.nonzero(counts == size_lo)
        rows.append(a + blk.start)
        cols.append(b)
    return np.concatenate(rows), np.concatenate(cols)


def _raising_pairs(words_lo, words_hi, x_words):
    """Test-only oracle: index arrays (b, a, slash) of the pairs
    w_a < v_b, by a bitwise subset test of every pair of packed point
    masks; slash marks the covers where v meets x in a point outside
    w."""
    rows, cols, slash = [], [], []
    for blk in row_blocks(len(words_hi), words_lo.size):
        outside = words_lo[None, :, :] & ~words_hi[blk, None, :]
        b, a = np.nonzero(~outside.any(axis=2))
        slash.append((words_hi[blk][b] & x_words & ~words_lo[a]).any(axis=1))
        rows.append(b + blk.start)
        cols.append(a)
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(slash)


@pytest.mark.parametrize(
    "q,n,d,partial",
    [(2, 5, 2, False), (2, 5, 2, True), (3, 4, 2, False), (2, 7, 1, True), (2, 6, 1, False)],
    ids=["F2^5-full", "F2^5-partial", "F3^4-full", "F2^7-partial", "F2^6-full"],
)
def test_generated_covers_match_quadratic_scans(q, n, d, partial):
    # the two quadratic scans the generators replaced, as oracles for
    # every relation built from below (cover, L1, L2) and above (R1, R2)
    geometry = window(q, n, d, partial)
    pm = build_poset_matrices(geometry)
    pm.checks.require()
    npoints = q**n
    x_words = mask_words(base_vertex(geometry).mask, npoints)
    want = {name: set() for name in ("L1", "L2", "R1", "R2", "cover")}
    for l in pm.dims[:-1]:
        lo, hi = geometry.table(l), geometry.table(l + 1)
        off_lo, off_hi = pm.offsets[l], pm.offsets[l + 1]
        a, b = _cover_pairs(
            point_incidence(lo, npoints), point_incidence(hi, npoints), q**l
        )
        for u, v in zip((a + off_lo).tolist(), (b + off_hi).tolist()):
            want["cover"].add((u, v))
            want["L1" if pm.ivec[v] > pm.ivec[u] else "L2"].add((u, v))
        b, a, slash = _raising_pairs(lo.words, hi.words, x_words)
        for v, u, s in zip((b + off_hi).tolist(), (a + off_lo).tolist(), slash.tolist()):
            want["R1" if s else "R2"].add((v, u))
    for name, pairs in want.items():
        assert nonzero_pairs(pm, getattr(pm, name)) == pairs, name


def _verdicts(pm):
    return {c.name: (c.passed, c.witness) for c in pm.checks.checks}


def closed_form_count(pm, side, kind, g):
    """The closed-form number of covers of `kind` of element g on that
    side: its covers from below, or its hyperplanes from above."""
    q, n, d = pm.geometry.q, pm.geometry.ambient, pm.geometry.d
    i, j = int(pm.ivec[g]), int(pm.jvec[g])
    if side == "from below":
        return q_int(d - i, q) if kind == "slash" else q_int(n - i - j, q) - q_int(d - i, q)
    return q_int(j, q) if kind == "backslash" else q_int(i + j, q) - q_int(j, q)


def assert_lost_cover(pm, l, w, v):
    """A build that lost the cover w < v (table indices in dimensions l
    and l+1) before the split: both of its ends are one pair short, w
    from below and v from above, and the kind of the cover fails its
    transpose check with w's witness, reported first; the other kind
    passes."""
    geometry = pm.geometry
    lower, upper = entries(geometry.table(l))[w], entries(geometry.table(l + 1))[v]
    kind = cover_kind(lower, upper, base_vertex(geometry))
    lowering, raising = (pm.L1, pm.R1) if kind == "slash" else (pm.L2, pm.R2)
    gw, gv = pm.offsets[l] + w, pm.offsets[l + 1] + v
    for side, keys, g in (("from below", lowering, gw), ("from above", raising, gv)):
        got = np.bincount(keys // pm.size, minlength=pm.size)[g]
        assert got == closed_form_count(pm, side, kind, g) - 1, side
    want = closed_form_count(pm, "from below", kind, gw)
    witness = f"from below: element {gw} has {want - 1} {kind} pairs, expected {want}"
    other = "backslash" if kind == "slash" else "slash"
    assert_transpose_verdicts(pm, {kind: (False, witness), other: (True, None)})


def assert_transpose_verdicts(pm, want):
    verdicts = _verdicts(pm)
    for kind, verdict in want.items():
        assert verdicts[f"raising_is_transpose_of_lowering_{kind}"] == verdict, kind


def dropping(select, dropped):
    """A `_covers_from_above` that drops the first generated pair (b, a)
    with select(lo, hi, b, a) true (elementwise), once, and records
    (l, w, v) of the lost cover w < v in `dropped`."""
    real = ladders._covers_from_above

    def lossy(lo, hi, kernels):
        b, a = real(lo, hi, kernels)
        hits = np.flatnonzero(select(lo, hi, b, a))
        if dropped or not hits.size:
            return b, a
        dropped.append((lo.dim, int(a[hits[0]]), int(b[hits[0]])))
        keep = np.arange(b.size) != hits[0]
        return b[keep], a[keep]

    return lossy


@pytest.mark.parametrize("slash", [True, False], ids=["slash", "backslash"])
def test_dropped_raising_pair_fails_transpose_check(monkeypatch, slash):
    # drop the first generated raising pair of the given kind, read by
    # the bit test from above (v meets x in a point outside w); the
    # lowering pairs are the raising pairs swapped, so the cover is lost
    # from both sides and only the transpose check of its kind fails
    geometry = GeometryContext(2, 4, 2)
    x_words = mask_words(base_vertex(geometry).mask, 16)

    def select(lo, hi, b, a):
        return (hi.words[b] & x_words & ~lo.words[a]).any(axis=1) == slash

    dropped = []
    monkeypatch.setattr(ladders, "_covers_from_above", dropping(select, dropped))
    pm = build_poset_matrices(geometry)
    assert len(dropped) == 1
    l, w, v = dropped[0]
    assert cover_kind(entries(geometry.table(l))[w], entries(geometry.table(l + 1))[v],
                      base_vertex(geometry)) == ("slash" if slash else "backslash")
    assert_lost_cover(pm, *dropped[0])


@pytest.mark.parametrize("slash", [True, False], ids=["slash", "backslash"])
def test_dropped_cover_from_below_fails_count_certificate(monkeypatch, slash):
    # a generator that loses one cover of u whose kind, read from the
    # point counts of the meets with x, is the given one: the distinct
    # count of u's covers of that kind falls short of its closed form,
    # over F_2^5
    geometry = GeometryContext(2, 5, 2)
    x_words = mask_words(base_vertex(geometry).mask, 32)

    def select(lo, hi, b, a):
        def meet(words):
            return np.bitwise_count(words & x_words).sum(axis=1)

        return (meet(hi.words[b]) > meet(lo.words[a])) == slash

    dropped = []
    monkeypatch.setattr(ladders, "_covers_from_above", dropping(select, dropped))
    pm = build_poset_matrices(geometry)
    assert len(dropped) == 1
    assert_lost_cover(pm, *dropped[0])


@pytest.mark.parametrize("below", [True, False], ids=["from_below", "from_above"])
@pytest.mark.parametrize("fault", ["not_subset", "missing", "duplicate"])
def test_bad_generated_pair_fails_certificate(monkeypatch, below, fault):
    # rewrite one end of a generated pair between lines and planes: the
    # plane it names as the line's cover (from below) or the line it
    # names as the plane's hyperplane (from above), to a subspace that
    # breaks the inclusion (first pair), or to no table entry (the first
    # pair whose other end lies in the last entry, so a -1 read as that
    # entry would pass); or (duplicate) rewrite another pair of the same
    # line (from below) or plane (from above) as a copy of the first,
    # which loses the cover that pair named
    geometry = GeometryContext(2, 4, 2)
    real = ladders._covers_from_above
    touched, lost = [], []

    def faulty(lo, hi, kernels):
        b, a = real(lo, hi, kernels)
        if touched or lo.dim != 1:
            return b, a
        b, a = b.copy(), a.copy()
        end, other, last = (b, a, len(hi) - 1) if below else (a, b, len(lo) - 1)
        k = 0
        if fault == "duplicate":
            j = int(np.flatnonzero(other == other[0])[1])
            lost.append((1, int(a[j]), int(b[j])))
            a[j], b[j] = a[0], b[0]
        elif fault == "missing":
            k = int(np.flatnonzero(end == last)[0])
            end[k] = -1
        elif below:
            b[0] = np.flatnonzero((lo.words[a[0]] & ~hi.words).any(axis=1))[0]
        else:
            a[0] = np.flatnonzero((lo.words & ~hi.words[b[0]]).any(axis=1))[0]
        touched.append((int(a[k]), int(b[k])))
        return b, a

    monkeypatch.setattr(ladders, "_covers_from_above", faulty)
    pm = build_poset_matrices(geometry)
    assert len(touched) == 1
    if fault == "duplicate":
        assert_lost_cover(pm, *lost[0])
    else:
        a0, b0 = touched[0]
        witness = f"from above: pair ({a0}, {b0}) of dims 1, 2 is not a cover"
        assert_transpose_verdicts(pm, {"slash": (False, witness), "backslash": (False, witness)})


def test_generators_count_and_agree_over_f3():
    # every generated pair is a true cover, none is repeated and no
    # table entry is missed: each plane gets [l+1]_q hyperplanes and,
    # swapped, each line [N-l]_q covers, the pairs generated from below
    # by the oracle, over F_3^5 (243 points, four words per mask)
    geometry = GeometryContext(3, 5, 2)
    for l in range(2, 4):
        lo, hi = geometry.table(l), geometry.table(l + 1)
        failures = {"slash": [], "backslash": []}
        b, a = ladders._covers_from_above(lo, hi, kernel_words(3, 5))
        assert [v.size for v in ladders._keep_covers(lo, hi, a, b, failures)] == [a.size] * 2
        assert failures == {"slash": [], "backslash": []}
        assert np.bincount(b).tolist() == [q_int(l + 1, 3)] * len(hi)
        assert np.bincount(a).tolist() == [q_int(5 - l, 3)] * len(lo)
        assert len(set(zip(a.tolist(), b.tolist()))) == a.size
        a2, b2 = covers_from_below(lo, hi)
        assert set(zip(a.tolist(), b.tolist())) == set(zip(a2.tolist(), b2.tolist()))


def covers_by_search(lo, hi, kernels):
    """Test-only oracle: the pairs (b, a) of `_covers_from_above` with
    every generated mask found in `lo` by binary search (`find_masks`),
    as before the merge."""
    q, k, width = hi.q, hi.dim, hi.words.shape[1]
    funcs = projective_points(q, k).astype(np.int64)
    g = (q ** hi.pivots.astype(np.int64)) @ funcs.T
    masks = (hi.words[:, None, :] & kernels[g]).reshape(-1, width)
    return np.repeat(np.arange(len(hi)), len(funcs)), lo.find_masks(masks)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(2, 5, 1), (2, 5, 2), (2, 6, 2), (3, 3, 1)]),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
)
def test_cover_merge_falls_back_to_the_search(params, g, b):
    # with the true kernel words, and with one point bit of them flipped
    # (which turns some generated masks foreign), the generator gives the
    # binary search's pairs, misses (-1) included
    q, n, l = params
    geometry = GeometryContext(q, n, 1)
    lo, hi = geometry.table(l), geometry.table(l + 1)
    flipped, bit = geometry.kernels.copy(), b % q**n
    flipped[g % q**n, bit // 64] ^= np.uint64(1 << (bit % 64))
    for words in (geometry.kernels, flipped):
        found = ladders._covers_from_above(lo, hi, words)
        for new, old in zip(found, covers_by_search(lo, hi, words)):
            assert np.array_equal(new, old)


def test_passing_poset_run_never_searches_for_a_cover(capsys, monkeypatch):
    # at J_2(6,1) every mask is one word, and the generated masks of each
    # dimension pair sort to the table's masks each [N-l]_q times, so
    # `_covers_from_above` matches them all by the merge
    from qgrass import subspaces
    from qgrass.cli import main

    dims, searched, inside = [], [], []
    real_covers, real_find = ladders._covers_from_above, subspaces.SubspaceTable.find_masks

    def covers(lo, hi, kernels):
        dims.append(lo.dim)
        inside.append(True)
        try:
            return real_covers(lo, hi, kernels)
        finally:
            inside.pop()

    def find_masks(table, words):
        if inside:
            searched.append(table.dim)
        return real_find(table, words)

    monkeypatch.setattr(ladders, "_covers_from_above", covers)
    monkeypatch.setattr(subspaces.SubspaceTable, "find_masks", find_masks)
    assert main(["verify", "--q", "2", "--n", "6", "--d", "1", "--suite", "all"]) == 0
    capsys.readouterr()
    assert dims == list(range(6))
    assert searched == []


@pytest.mark.parametrize(
    "q,n,d,partial",
    [
        (2, 5, 2, False), (2, 5, 2, True), (3, 4, 2, False), (3, 4, 2, True),
        (2, 7, 1, True), (2, 7, 3, True), (3, 5, 2, False),
    ],
    ids=[
        "F2^5-full", "F2^5-partial", "F3^4-full", "F3^4-partial",
        "F2^7-D1-partial", "F2^7-D3-partial", "F3^5-full",
    ],
)
def test_generators_match_the_replaced_ones(q, n, d, partial):
    # the lowering covers of each materialized layer pair (l, l+1), the
    # raising pairs swapped, equal pair for pair (with multiplicity) the
    # covers u + <p> generated from below; the raising pairs from
    # hyperplane masks equal, entry for entry, those from walking the
    # points of each v
    geometry = window(q, n, d, partial)
    pm = build_poset_matrices(geometry)
    pm.checks.require()
    keys = []
    for l in pm.dims[:-1]:
        lo, hi = geometry.table(l), geometry.table(l + 1)
        b2, a2 = ladders._covers_from_above(lo, hi, kernel_words(q, n))
        for new, old in zip((b2, a2), covers_from_above_by_spans(lo, hi)):
            assert np.array_equal(new, old)
        a, b = covers_from_below(lo, hi)
        assert (b >= 0).all()
        assert np.array_equal(np.sort(a * len(hi) + b), np.sort(a2 * len(hi) + b2))
        keys.append((a + pm.offsets[l]) * pm.size + b + pm.offsets[l + 1])
    assert np.array_equal(pm.cover, np.sort(np.concatenate(keys)))
