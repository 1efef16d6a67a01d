"""Command-line interface: suites, report files, exit codes."""

import hashlib
import io
import json

import pytest

from qgrass.cli import SUITE_ORDER, _finish, main
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
        "nucleus": ["base_vertex", "squeeze", "constants"],
        "boundary": ["base_vertex", "bareiss", "constants"],
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


@pytest.mark.parametrize("corrupt", ["truncate", "non_numeric"])
def test_bad_cache_file_exit_two(tmp_path, capsys, corrupt):
    argv = ["verify", "--q", "2", "--n", "4", "--d", "1", "--suite", "geometry",
            "--cache-dir", str(tmp_path / "cache"), "--out", str(tmp_path / "r.json")]
    assert main(argv) == 0
    (path,) = (tmp_path / "cache").iterdir()
    text = path.read_text()
    if corrupt == "truncate":
        path.write_text(text[: len(text) // 2])
    else:
        path.write_text(text.replace("1 ", "x ", 1))
    capsys.readouterr()
    # every later run reports the bad file instead of dying on it
    for _ in range(2):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "invalid parameters" in err and str(path) in err
        assert "Traceback" not in err


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
