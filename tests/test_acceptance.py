"""Acceptance gate: one test per acceptance criterion.

Every criterion prints exactly one PASS/FAIL line (bypassing pytest's
capture so the lines appear in any run) and asserts its facts with
exact arithmetic; the two large-instance criteria also enforce their
wall-clock budgets.
"""

import json
import time
from contextlib import contextmanager

import pytest

from qgrass.cli import main
from qgrass.grassmann import (
    build_graph,
    intersection_numbers,
    krein_parameters,
    spectral_system,
    tmodule_intersection_numbers,
)
from qgrass.ladders import alpha_dominant_multiplicity, build_poset_matrices
from qgrass.nucleus import (
    boundary_case_report,
    build_alpha_family,
    compute_nucleus,
    gamma_components,
    verify_actions,
    verify_bases,
)
from qgrass.qarith import verify_q_identities
from qgrass.subspaces import GeometryContext


@pytest.fixture
def criterion(capfd):
    """Context manager printing one PASS/FAIL line per criterion, with
    capture disabled so the line is visible in every run mode."""

    @contextmanager
    def _criterion(num: int, desc: str):
        t0 = time.monotonic()
        try:
            yield
        except BaseException:
            with capfd.disabled():
                print(f"criterion {num:2d}: FAIL  {desc}", flush=True)
            raise
        with capfd.disabled():
            print(
                f"criterion {num:2d}: PASS  {desc} ({time.monotonic() - t0:.1f}s)",
                flush=True,
            )

    return _criterion


def test_criterion_01_spectrum_end_to_end(criterion):
    with criterion(1, "J_2(5,2) spectrum end to end within 60s"):
        t0 = time.monotonic()
        gc = build_graph(2, 5, 2)
        gc.build_checks.require()
        assert gc.n_vertices == 155
        nums, ncs = intersection_numbers(gc)
        ncs.require()
        assert nums.k == 42
        assert nums.b == [42, 24, 0]
        assert nums.c == [0, 1, 9]
        assert nums.a == [0, 17, 33]
        ss = spectral_system(gc)
        ss.checks.require()
        assert ss.theta == [42, 11, -3]
        assert ss.m == [1, 30, 124]
        names = {c.name for c in ss.checks.checks}
        assert "minimal_polynomial_vanishes" in names
        assert time.monotonic() - t0 < 60.0


def test_criterion_02_nucleus_dimensions(criterion, j252_spectral):
    with criterion(2, "J_2(5,2) nucleus dims (1,3,1), mult (1,2), direct sum"):
        nd = compute_nucleus(j252_spectral)
        nd.checks.require()
        assert nd.dims == [1, 3, 1]
        assert nd.dimension == 5
        assert nd.mult_r == [1, 2]
        direct = next(c for c in nd.checks.checks if c.name == "sum_is_direct")
        assert direct.passed


def test_criterion_03_action_identities(criterion, j252, j252_spectral):
    with criterion(3, "J_2(5,2) all four operator actions, zero residuals"):
        fam = build_alpha_family(j252)
        fam.checks.require()
        assert len(fam.dims) == 5
        cs = verify_actions(j252_spectral, fam)
        cs.require()
        assert {c.name for c in cs.checks} == {
            "adjacency_on_vee",
            "adjacency_on_meet",
            "dual_adjacency_on_meet",
            "dual_adjacency_on_vee",
        }


def test_criterion_04_sphere_fibrations(criterion, j252):
    with criterion(4, "J_2(5,2) sphere components (1,3,1), outer sphere connected"):
        fam = build_alpha_family(j252)
        rep = gamma_components(j252, fam)
        rep.checks.require()
        assert rep.counts == [1, 3, 1]
        assert rep.component_sizes[2] == [112]
        assert rep.component_sizes[1] == [14, 14, 14]
        names = {c.name for c in rep.checks.checks}
        assert "outer_sphere_connected" in names
        for i in range(3):
            assert f"components_match_meet_vectors_{i}" in names


def test_criterion_05_both_bases(criterion, j252, j252_spectral):
    with criterion(5, "J_2(5,2) both families are bases with inverse transitions"):
        nd = compute_nucleus(j252_spectral)
        fam = build_alpha_family(j252)
        cs = verify_bases(nd, fam)
        cs.require()
        names = {c.name for c in cs.checks}
        assert "vee_then_meet_is_identity" in names
        assert "meet_then_vee_is_identity" in names


def test_criterion_06_krein_polynomial_order(criterion, j252_spectral):
    with criterion(6, "J_2(5,2) Krein parameters vanish/persist by index sums"):
        _kp, cs = krein_parameters(j252_spectral)
        cs.require()
        names = {c.name for c in cs.checks}
        assert "krein_vanishing_above_sum" in names
        assert "krein_nonzero_at_sum" in names


def test_criterion_07_second_instances(criterion, j341):
    with criterion(7, "J_2(6,2) full re-pass within 15min; J_3(4,1) nucleus dim 2"):
        t0 = time.monotonic()
        gc = build_graph(2, 6, 2)
        gc.build_checks.require()
        assert gc.n_vertices == 651
        nums, ncs = intersection_numbers(gc)
        ncs.require()
        assert nums.k == 90
        ss = spectral_system(gc)
        ss.checks.require()
        assert ss.theta == [90, 27, -3]
        assert ss.m == [1, 62, 588]
        nd = compute_nucleus(ss)
        nd.checks.require()
        assert nd.dims == [1, 3, 1]
        assert nd.dimension == 5
        assert nd.mult_r == [1, 2]
        fam = build_alpha_family(gc)
        fam.checks.require()
        verify_actions(ss, fam).require()
        verify_bases(nd, fam).require()
        rep = gamma_components(gc, fam)
        rep.checks.require()
        assert rep.counts == [1, 3, 1]
        assert rep.component_sizes[2] == [560]
        assert time.monotonic() - t0 < 900.0

        ss41 = spectral_system(j341)
        ss41.checks.require()
        nd41 = compute_nucleus(ss41)
        nd41.checks.require()
        assert nd41.dimension == 2
        assert nd41.dims == [1, 1]


def test_criterion_08_identity_suite(criterion):
    with criterion(8, "q-identities up to length 12 for q in {2,3,5} within 1s"):
        t0 = time.monotonic()
        for q in (2, 3, 5):
            verify_q_identities(12, q).require()
        assert time.monotonic() - t0 < 1.0


def test_criterion_09_poset_algebra(criterion, j252_spectral):
    with criterion(9, "poset ladder identities at q=2, N=5 plus multiplicities"):
        pm = build_poset_matrices(GeometryContext(2, 5, 2))
        pm.checks.require()
        names = {c.name for c in pm.checks.checks}
        assert {
            "raising_is_transpose_of_lowering_slash",
            "raising_is_transpose_of_lowering_backslash",
            "layer_projections_sum_to_identity",
            "ladder_support_shifts",
            "layer_projection_ranks_match_sizes",
        } <= names
        mu = [alpha_dominant_multiplicity(2, 2, r) for r in range(2)]
        assert mu == [1, 2]
        nd = compute_nucleus(j252_spectral)
        assert nd.mult_r == mu


def test_criterion_10_boundary_mode(criterion):
    with criterion(10, "J_2(4,2) completes and is flagged boundary, report-only dims"):
        gc = build_graph(2, 4, 2)
        ss = spectral_system(gc)
        fam = build_alpha_family(gc)
        doc = boundary_case_report(
            ss, compute_nucleus(ss), fam, gamma_components(gc, fam), verify_actions(ss, fam)
        )
        assert doc["boundary"] is True
        assert doc["params"] == {"q": 2, "N": 4, "D": 2}
        for flag in (
            "build_ok",
            "spectral_ok",
            "structure_ok",
            "actions_ok",
            "fibration_ok",
        ):
            assert doc[flag] is True
        # dims are present as observations, with the generic comparison
        # recorded rather than asserted
        assert len(doc["nucleus_dims"]) == 3
        assert doc["dimension_matches_generic_formula"] is False


def test_criterion_11_trivial_module_numbers(criterion, j252):
    with criterion(11, "endpoint-zero module numbers reproduce the graph's"):
        nums, _cs = intersection_numbers(j252)
        a, b, c = tmodule_intersection_numbers(2, 5, 2, 0, 0, 2, 0)
        assert a == nums.a
        assert b == nums.b
        assert c == nums.c


@pytest.mark.parametrize(
    "q,n,d,vertices,mult,nucleus_dims",
    [
        (3, 5, 2, 1210, [1, 120, 1089], [1, 4, 1]),
        (2, 7, 2, 2667, [1, 126, 2540], [1, 3, 1]),
    ],
    ids=["J_3(5,2)", "J_2(7,2)"],
)
def test_criterion_12_verify_all_past_a_thousand_vertices(
    criterion, tmp_path, q, n, d, vertices, mult, nucleus_dims
):
    with criterion(12, f"J_{q}({n},{d}) verify --suite all on the automorphism path"):
        out = tmp_path / "report.json"
        argv = ["verify", "--q", str(q), "--n", str(n), "--d", str(d), "--suite", "all"]
        assert main(argv + ["--out", str(out)]) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["ok"] is True
        assert all(result["passed"] for result in doc["suites"].values())
        counts = [c["observed"] for c in doc["suites"]["geometry"]["checks"] if c["name"] == "vertex_count"]
        assert counts == [vertices]
        assert doc["artifacts"]["spectrum"]["mult"] == mult
        assert doc["artifacts"]["nucleus"]["nucleus_dims"] == nucleus_dims
        assert doc["artifacts"]["nucleus"]["dimension"] == sum(nucleus_dims)
        assert doc["meta"]["certificate_paths"] == {"main": "automorphism", "boundary": "automorphism"}
