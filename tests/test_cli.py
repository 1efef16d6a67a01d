"""Command-line interface: suites, report files, exit codes."""

import hashlib
import io
import json

import pytest

from qgrass import subspaces
from qgrass.cli import SUITE_ORDER, _finish, main
from qgrass.grassmann import RANK_VERIFY_LIMIT, build_graph
from qgrass.qarith import q_binomial
from qgrass.report import CheckSet


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _without_meta(doc):
    doc = dict(doc)
    doc.pop("meta")
    return json.dumps(doc, sort_keys=True)


def test_full_verify_run(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(
        ["verify", "--q", "2", "--n", "5", "--d", "2", "--suite", "all", "--out", str(out)]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "overall: PASS" in text
    doc = _load(out)
    assert doc["ok"] is True
    assert set(doc["suites"]) == set(SUITE_ORDER)
    assert all(e["requested"] for e in doc["suites"].values())
    assert doc["artifacts"]["spectrum"]["theta"] == [42, 11, -3]
    assert doc["artifacts"]["spectrum"]["mult"] == [1, 30, 124]
    assert doc["artifacts"]["nucleus"]["nucleus_dims"] == [1, 3, 1]
    assert doc["artifacts"]["boundary"]["params"] == {"q": 2, "N": 4, "D": 2}
    assert doc["config"]["x_rows"] == "standard"
    assert "timestamp" in doc["meta"] and "timings" in doc["meta"]
    assert doc["meta"]["nucleus_paths"] == {
        "nucleus": ["base_vertex", "squeeze", "squeeze"],
        "boundary": ["base_vertex", "kernel", "squeeze"],
    }


# sha256 of the `verify --suite all` report minus `meta`, as written when
# every nucleus piece came from dense Bareiss intersections; the faster
# paths must reproduce it byte for byte
PINNED_REPORTS = {
    (2, 5, 2): "4a71325c2d1fef02348a72227742e3e2f0d7bc47c2136ea03f738c37d2af0a4f",
    (3, 4, 2): "0f0d667e9aa431b7dead093b568cb5ce7e133fa9854fc8a71aa0e9f14cfd78db",
}


@pytest.mark.parametrize("q,n,d", sorted(PINNED_REPORTS))
def test_report_outside_meta_pinned(tmp_path, capsys, q, n, d):
    out = tmp_path / "r.json"
    argv = ["verify", "--q", str(q), "--n", str(n), "--d", str(d), "--suite", "all"]
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    text = _without_meta(_load(out))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_REPORTS[(q, n, d)]


def test_verify_path_builds_no_dense_vertex_matrix(built_matrices, capsys):
    # above the small-|X| exact rank checks, no |X| x |X| numerator of
    # the algebra and no |X| x |B_i| ball matrix is built on the way,
    # away from the boundary and at N = 2D alike
    for (q, n, d), ball_sizes in [((2, 5, 2), {43, 155}), ((3, 4, 2), {49, 130})]:
        built_matrices.clear()
        argv = ["verify", "--q", str(q), "--n", str(n), "--d", str(d)]
        argv += ["--suite", "spectrum", "--suite", "nucleus", "--suite", "bases"]
        assert main(argv) == 0
        capsys.readouterr()
        gc = build_graph(q, n, d)
        nv = gc.n_vertices
        assert nv > RANK_VERIFY_LIMIT
        xrow = gc.dist[gc.x_index]
        wide = {nv} | {int((xrow <= i).sum()) for i in range(1, gc.d + 1)}
        assert wide == ball_sizes
        shapes = {obj.shape for obj in built_matrices}
        assert shapes and not {s for s in shapes if s[0] == nv and s[1] in wide}


FAMILY_CHECKS = {
    "alpha_count",
    "containment_counts",
    "fiber_counts",
    "fibers_partition_vertices",
    "vee_expands_over_meets",
    "meet_expands_over_vees",
    "meet_is_sphere_cut_of_vee",
}


@pytest.mark.parametrize(
    "suites,owner",
    [(["gamma"], "gamma"), (["bases", "gamma"], "bases"), (["all"], "actions")],
)
def test_family_checks_reported_once(tmp_path, capsys, suites, owner):
    # the alpha family's build checks go to the first suite using it
    out = tmp_path / "r.json"
    argv = ["verify", "--q", "2", "--n", "4", "--d", "2", "--out", str(out)]
    for s in suites:
        argv += ["--suite", s]
    assert main(argv) == 0
    capsys.readouterr()
    doc = _load(out)
    carriers = [
        (suite, c["name"])
        for suite, entry in doc["suites"].items()
        for c in entry["checks"]
        if c["name"] in FAMILY_CHECKS
    ]
    assert sorted(carriers) == sorted((owner, name) for name in FAMILY_CHECKS)


def test_reports_identical_outside_meta(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    argv = ["verify", "--q", "2", "--n", "5", "--d", "2", "--suite", "spectrum"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert _without_meta(_load(a)) == _without_meta(_load(b))


def test_dependencies_run_unrequested(tmp_path, capsys):
    out = tmp_path / "r.json"
    rc = main(
        ["verify", "--q", "2", "--n", "5", "--d", "2", "--suite", "spectrum", "--out", str(out)]
    )
    assert rc == 0
    capsys.readouterr()
    doc = _load(out)
    assert set(doc["suites"]) == {"geometry", "spectrum"}
    assert doc["suites"]["geometry"]["requested"] is False
    assert doc["suites"]["spectrum"]["requested"] is True


def test_boundary_suite_alone(tmp_path, capsys):
    out = tmp_path / "b.json"
    rc = main(
        ["verify", "--q", "2", "--n", "4", "--d", "2", "--suite", "boundary", "--out", str(out)]
    )
    assert rc == 0
    capsys.readouterr()
    doc = _load(out)
    assert set(doc["suites"]) == {"boundary"}
    art = doc["artifacts"]["boundary"]
    assert art["boundary"] is True
    assert art["dimension_matches_generic_formula"] is False


def test_boundary_graph_full_pipeline(capsys):
    # N = 2D with every suite: hypothesis-bound claims are recorded,
    # everything else is asserted, and the run passes
    rc = main(["verify", "--q", "2", "--n", "4", "--d", "2", "--suite", "all"])
    assert rc == 0
    assert "overall: PASS" in capsys.readouterr().out


def test_invalid_parameters_exit_two(capsys):
    assert main(["verify", "--q", "4", "--n", "5", "--d", "2"]) == 2
    assert main(["verify", "--q", "2", "--n", "3", "--d", "2"]) == 2
    err = capsys.readouterr().err
    assert "complement" in err


@pytest.mark.parametrize("corrupt", ["truncate", "non_numeric", "duplicate_line"])
def test_bad_cache_file_exit_two(tmp_path, capsys, corrupt):
    argv = ["verify", "--q", "2", "--n", "4", "--d", "1", "--suite", "geometry",
            "--cache-dir", str(tmp_path / "cache"), "--out", str(tmp_path / "r.json")]
    assert main(argv) == 0
    (path,) = (tmp_path / "cache").iterdir()
    text = path.read_text()
    if corrupt == "truncate":
        path.write_text(text[: len(text) // 2])
    elif corrupt == "non_numeric":
        path.write_text(text.replace("1 ", "x ", 1))
    else:
        # one subspace written over another: every line parses and the
        # count holds, but the table is no longer the full one in order
        lines = text.splitlines(keepends=True)
        path.write_text("".join(lines[:3] + [lines[1]] + lines[4:]))
    capsys.readouterr()
    # every later run reports the bad file instead of dying on it
    for _ in range(2):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "invalid parameters" in err and str(path) in err
        assert "Traceback" not in err


@pytest.mark.parametrize("blocked", ["cache_dir_is_a_file", "table_is_a_directory"])
def test_unusable_cache_path_exit_two(tmp_path, capsys, blocked):
    cache = tmp_path / "cache"
    if blocked == "cache_dir_is_a_file":
        cache.write_text("")
        blocker = cache
    else:
        blocker = cache / "subspaces_q2_n4_l2.txt"
        blocker.mkdir(parents=True)
    argv = ["verify", "--q", "2", "--n", "4", "--d", "2", "--suite", "geometry",
            "--cache-dir", str(cache)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "invalid parameters" in err and str(blocker) in err
    assert "Traceback" not in err


def test_verify_builds_objects_only_for_the_alphas(monkeypatch, capsys):
    # the verify path keeps subspace tables as arrays: CanonicalSubspace
    # objects (and their span walks) are made for x and the subspaces of
    # x, a bounded number per alpha, never one per table entry
    calls = {"span": 0, "init": 0}
    span_mask, init = subspaces._span_mask, subspaces.CanonicalSubspace.__init__

    def counted_span(*args):
        calls["span"] += 1
        return span_mask(*args)

    def counted_init(self, *args, **kwargs):
        calls["init"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(subspaces, "_span_mask", counted_span)
    monkeypatch.setattr(subspaces.CanonicalSubspace, "__init__", counted_init)
    assert main(["verify", "--q", "2", "--n", "5", "--d", "2", "--suite", "all"]) == 0
    capsys.readouterr()
    # J_2(5,2) and the boundary suite's J_2(4,2) have 5 alphas each; one
    # object per table entry would be at least the 374 subspaces of F_2^5
    alphas = 2 * sum(q_binomial(2, l, 2) for l in range(3))
    assert calls["span"] <= 3 * alphas
    assert calls["init"] <= 5 * alphas < 374


def test_size_cap_exit_two(capsys):
    rc = main(["verify", "--q", "2", "--n", "5", "--d", "2", "--max-vertices", "10"])
    assert rc == 2
    assert "cap" in capsys.readouterr().err


def test_failed_check_maps_to_exit_one(capsys):
    cs = CheckSet("spectrum")
    cs.check("demo", 1, 2)
    entry = cs.as_dict()
    entry["requested"] = True
    report = {
        "config": {},
        "suites": {"spectrum": entry},
        "artifacts": {},
        "meta": {"timestamp": "", "timings": {}},
    }
    assert _finish(report, None, io.StringIO()) == 1
    capsys.readouterr()


def test_identities_command(tmp_path, capsys):
    out = tmp_path / "i.json"
    rc = main(["identities", "--q", "3", "--lmax", "12", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    doc = _load(out)
    assert doc["ok"] is True
    assert doc["config"] == {"command": "identities", "q": 3, "lmax": 12}


def test_x_rows_override(tmp_path, capsys):
    out = tmp_path / "x.json"
    rc = main(
        [
            "verify",
            "--q", "2", "--n", "5", "--d", "2",
            "--suite", "nucleus",
            "--x-rows", "00100;00010",
            "--out", str(out),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    doc = _load(out)
    assert doc["config"]["x_rows"] == ["00100", "00010"]
    assert doc["artifacts"]["nucleus"]["nucleus_dims"] == [1, 3, 1]


def test_x_rows_malformed(capsys):
    rc = main(
        ["verify", "--q", "2", "--n", "5", "--d", "2", "--x-rows", "001;01"]
    )
    assert rc == 2
    capsys.readouterr()
