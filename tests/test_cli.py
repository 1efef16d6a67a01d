"""Command-line interface: suites, report files, exit codes."""

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qgrass import cli, grassmann, ladders, linalg, nucleus, subspaces
from qgrass.cli import SUITE_ORDER, _finish, main
from qgrass.grassmann import RANK_VERIFY_LIMIT, SpectralSystem, build_graph
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


@pytest.mark.parametrize("q,n,d", [(2, 6, 2), (3, 4, 2), (2, 6, 1)])
def test_verify_runs_no_bareiss_elimination(tmp_path, capsys, monkeypatch, built_matrices, q, n, d):
    # every exact rank and kernel of these runs is certified mod p, on
    # integer arrays: no ExactMatrix is built
    shapes = []
    real = linalg._bareiss_echelon
    monkeypatch.setattr(linalg, "_bareiss_echelon", lambda a: shapes.append(a.shape) or real(a))
    out = tmp_path / "r.json"
    argv = ["verify", "--q", str(q), "--n", str(n), "--d", str(d), "--suite", "all"]
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert shapes == [] and built_matrices == []
    counts = _load(out)["meta"]["elimination"]
    assert counts["fallback"] == counts["bareiss"] == 0 < counts["certified"]


def test_bad_prime_shows_in_fallback_count(tmp_path, capsys, monkeypatch):
    # mod 3 many ranks of J_3(4,2) collapse; each failed certificate is
    # counted and decided by Bareiss, and the report stays the same
    argv = ["verify", "--q", "3", "--n", "4", "--d", "2", "--suite", "all", "--out"]
    real = linalg.certified_kernel
    monkeypatch.setattr(linalg, "certified_kernel", lambda m, p=3: real(m, p))
    out = tmp_path / "bad_prime.json"
    assert main(argv + [str(out)]) == 0
    capsys.readouterr()
    doc = _load(out)
    counts = doc["meta"]["elimination"]
    assert counts["fallback"] > 0 and counts["bareiss"] == counts["fallback"]
    text = _without_meta(doc)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_REPORTS[(3, 4, 2)]


def dense_operands(monkeypatch, capsys, q, n, d, premise=True):
    """(exit code, shapes): one `verify` run of the spectrum, nucleus and
    bases suites, with the shape of every operand of `certified_kernel`
    and `column_space_ops` and of every `class_numerator` result.  With
    `premise` False the spectral system carries one failed check, so the
    nucleus may take no shortcut."""
    shapes = set()
    real_kernel, real_bareiss = linalg.certified_kernel, linalg.column_space_ops
    real_numerator, real_spectral = SpectralSystem.class_numerator, cli.spectral_system

    def kernel(m, *args):
        shapes.add(m.shape)
        return real_kernel(m, *args)

    def bareiss(m, *args, **kwargs):
        shapes.add(m.shape)
        return real_bareiss(m, *args, **kwargs)

    def numerator(self, coeffs):
        found = real_numerator(self, coeffs)
        shapes.add(found[0].shape)
        return found

    def failing_spectral(gc):
        ss = real_spectral(gc)
        ss.checks.check("forced_failure", True, False)
        return ss

    with monkeypatch.context() as mp:
        mp.setattr(linalg, "certified_kernel", kernel)
        mp.setattr(linalg, "column_space_ops", bareiss)
        mp.setattr(SpectralSystem, "class_numerator", numerator)
        if not premise:
            mp.setattr(cli, "spectral_system", failing_spectral)
        argv = ["verify", "--q", str(q), "--n", str(n), "--d", str(d)]
        rc = main(argv + ["--suite", "spectrum", "--suite", "nucleus", "--suite", "bases"])
    capsys.readouterr()
    return rc, shapes


def dense_shapes(q, n, d, ball_sizes):
    """The |X| x |X| and |X| x |B_i| shapes of J_q(N, D), after checking
    that |X| is past the small-|X| exact rank checks."""
    gc = build_graph(q, n, d)
    nv = gc.n_vertices
    assert nv > RANK_VERIFY_LIMIT
    xrow = gc.xrow
    wide = {nv} | {int((xrow <= i).sum()) for i in range(1, gc.d + 1)}
    assert wide == ball_sizes
    return {(nv, w) for w in wide}


DENSE_GUARD_CASES = [((2, 5, 2), {43, 155}), ((3, 4, 2), {49, 130})]


def test_verify_path_builds_no_dense_vertex_matrix(monkeypatch, capsys):
    # above the small-|X| exact rank checks, no |X| x |X| numerator of
    # the algebra and no |X| x |B_i| ball matrix is eliminated or built
    # on the way, away from the boundary and at N = 2D alike
    for qnd, ball_sizes in DENSE_GUARD_CASES:
        rc, shapes = dense_operands(monkeypatch, capsys, *qnd)
        assert rc == 0
        assert shapes and not shapes & dense_shapes(*qnd, ball_sizes)


def test_dense_guard_sees_the_bareiss_path(monkeypatch, capsys):
    # mutation: with the spectral premise false every piece past the
    # base vertex comes from the dense "bareiss" path, and the guard
    # above must see its |X| x |X| numerators and |X| x |B_i| matrices
    qnd, ball_sizes = DENSE_GUARD_CASES[0]
    rc, shapes = dense_operands(monkeypatch, capsys, *qnd, premise=False)
    assert rc == 1
    assert shapes & dense_shapes(*qnd, ball_sizes) == dense_shapes(*qnd, ball_sizes)


@pytest.mark.parametrize("q,n,d,builds", [(3, 4, 2, 1), (2, 5, 2, 2)])
def test_boundary_suite_reuses_the_verified_graph(monkeypatch, capsys, q, n, d, builds):
    # at N = 2D the boundary suite reads the graph the other suites
    # verified; otherwise it builds J_q(2D, D) once more
    calls = []
    real = cli.build_graph
    monkeypatch.setattr(cli, "build_graph", lambda *a, **k: calls.append(a) or real(*a, **k))
    assert main(["verify", "--q", str(q), "--n", str(n), "--d", str(d), "--suite", "all"]) == 0
    capsys.readouterr()
    assert len(calls) == builds
    assert calls[-1][1:] == (2 * d, d)


@pytest.mark.parametrize(
    "q,n,d,suites,graphs",
    [(3, 4, 2, ["all"], [4]), (3, 4, 2, ["boundary"], [4]), (2, 5, 2, ["all"], [5, 4])],
)
def test_operator_actions_checked_once_per_graph(monkeypatch, capsys, q, n, d, suites, graphs):
    # at N = 2D the boundary suite reads the actions suite's checks; the
    # J_q(2D, D) of an N != 2D run is a second graph with its own
    seen = []
    real = nucleus.verify_actions

    def spy(ss, fam):
        seen.append(ss.gc.n)
        return real(ss, fam)

    monkeypatch.setattr(cli, "verify_actions", spy)
    monkeypatch.setattr(nucleus, "verify_actions", spy)
    argv = ["verify", "--q", str(q), "--n", str(n), "--d", str(d)]
    for s in suites:
        argv += ["--suite", s]
    assert main(argv) == 0
    capsys.readouterr()
    assert seen == graphs


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


def test_size_cap_exit_two(capsys):
    rc = main(["verify", "--q", "2", "--n", "5", "--d", "2", "--max-vertices", "10"])
    assert rc == 2
    assert "cap" in capsys.readouterr().err


def test_window_cap_names_the_table_and_the_flag(capsys):
    # the vertex table (651 entries) is under the cap, and the nucleus
    # suite passes; the halgebra window's table of 3-subspaces (1,395)
    # is not, and the message names that table and the flag
    caps = ["--q", "2", "--n", "6", "--d", "2", "--max-vertices", "700", "--max-poset", "100"]
    assert main(["verify", *caps, "--suite", "nucleus"]) == 0
    capsys.readouterr()
    assert main(["verify", *caps, "--suite", "all"]) == 2
    err = capsys.readouterr().err
    assert "enumeration of 1395 3-subspaces of F_2^6 exceeds cap 700 (--max-vertices)" in err


def test_size_cap_is_checked_before_the_kernel_words(capsys, monkeypatch):
    # the kernel words of F_2^20 would take 128 GiB: an oversized
    # request must stop at the table cap before anything of size q^N
    def refuse(q, n):
        raise AssertionError(f"kernel words of F_{q}^{n} built before the cap")

    monkeypatch.setattr(subspaces, "kernel_words", refuse)
    assert main(["verify", "--q", "2", "--n", "20", "--d", "2"]) == 2
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


def test_falsified_fact_maps_to_exit_one(capsys, monkeypatch):
    # a point count that no subspace can have (the meet dimensions read
    # with a lookup one dimension short) raises FalsifiedFact inside the
    # halgebra suite; it is reported like any other falsified fact
    real = ladders.count_dims
    monkeypatch.setattr(ladders, "count_dims", lambda q, top: real(q, top - 1))
    rc = main(["verify", "--q", "2", "--n", "4", "--d", "2", "--suite", "halgebra"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == "verification error: point count 4 is not a power of 2 up to 2^1\n"
    assert captured.out == ""


@pytest.mark.parametrize("q,n,d", [(2, 5, 2), (3, 4, 2)])
def test_verify_enumerates_no_table_of_the_base_dimension(q, n, d, monkeypatch, capsys):
    # the subspaces of x are read from the tables of F_q^N (the boundary
    # suite's own graph is J_q(2D, D)); nothing enumerates F_q^D again
    calls = []
    real = subspaces.enumerate_subspaces

    def counting(q, ambient, dim, *args, **kwargs):
        calls.append((ambient, dim))
        return real(q, ambient, dim, *args, **kwargs)

    for module in (subspaces, grassmann, ladders, nucleus, cli):
        if hasattr(module, "enumerate_subspaces"):
            monkeypatch.setattr(module, "enumerate_subspaces", counting)
    assert main(["verify", "--q", str(q), "--n", str(n), "--d", str(d), "--suite", "all"]) == 0
    capsys.readouterr()
    assert calls and {ambient for ambient, _dim in calls} <= {n, 2 * d}


def test_program_arithmetic_error_is_not_a_verdict(monkeypatch):
    # an ArithmeticError that is no library fact (here a division by
    # zero) is a program fault: main lets it through with its traceback
    # instead of reporting it as a falsified fact
    def broken(geometry):
        return 1 // 0

    monkeypatch.setattr(cli, "build_poset_matrices", broken)
    with pytest.raises(ZeroDivisionError):
        main(["verify", "--q", "2", "--n", "4", "--d", "2", "--suite", "halgebra"])


def test_out_of_memory_exits_two_with_one_line(capsys, monkeypatch):
    # an allocation the machine cannot serve, as numpy raises it for an
    # operand too large for memory, ends in exit 2 and one line on
    # stderr, not a traceback
    def build(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.73 GiB for an array with shape (10998, 33372)")

    monkeypatch.setattr(cli, "build_graph", build)
    assert main(["verify", "--q", "2", "--n", "5", "--d", "2", "--suite", "geometry"]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["out of memory: Unable to allocate 2.73 GiB for an array with shape (10998, 33372)"]


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


def test_x_rows_spanning_set_gives_the_same_report(tmp_path, capsys):
    # three rows that span the plane 10000;01100 give the report of its
    # reduced echelon rows, outside meta and the echoed config.x_rows
    docs = []
    for k, x_rows in enumerate(["11100;01100;10000", "10000;01100"]):
        out = tmp_path / f"x{k}.json"
        argv = ["verify", "--q", "2", "--n", "5", "--d", "2", "--x-rows", x_rows]
        assert main(argv + ["--out", str(out)]) == 0
        doc = _load(out)
        del doc["config"]["x_rows"]
        docs.append(_without_meta(doc))
    capsys.readouterr()
    assert docs[0] == docs[1]


def test_x_rows_malformed(capsys):
    # a short row, a digit outside ASCII that str.isdigit accepts, and a
    # digit of q or more, which is refused rather than reduced mod q
    for q, x_rows in [("2", "001;01"), ("2", "1000\u00b2;01000"), ("2", "12000;01000"),
                      ("3", "10000;01300")]:
        rc = main(["verify", "--q", q, "--n", "5", "--d", "2", "--x-rows", x_rows])
        assert rc == 2
        err = capsys.readouterr().err
        assert "invalid parameters" in err and "Traceback" not in err


def test_x_rows_message_names_the_accepted_digits_past_q_ten(capsys):
    # an entry is one ASCII digit, so at q = 11 only 0..9 can be given,
    # and the message names that range, not 0..10
    for x_rows in ["1a0", "1,10,0"]:
        rc = main(["verify", "--q", "11", "--n", "3", "--d", "1", "--x-rows", x_rows])
        assert rc == 2
        err = capsys.readouterr().err
        assert "invalid parameters" in err and "Traceback" not in err
        assert "digits in 0..9" in err and "0..10" not in err


def test_unwritable_out_exit_two(tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    argv = ["verify", "--q", "2", "--n", "4", "--d", "1", "--suite", "geometry", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "invalid parameters" in err and str(out) in err
    assert "Traceback" not in err
    assert not out.parent.exists()


def test_verify_writes_no_table_files(tmp_path):
    # subspace tables are never stored: a run in a fresh interpreter with
    # QGRASS_CACHE_DIR set, as older versions read it, leaves it untouched
    cache = tmp_path / "cache"
    env = dict(os.environ, QGRASS_CACHE_DIR=str(cache))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cli.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")]
    )
    argv = ["verify", "--q", "2", "--n", "4", "--d", "1", "--suite", "geometry"]
    proc = subprocess.run(
        [sys.executable, "-m", "qgrass.cli", *argv],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert not cache.exists() or not any(cache.iterdir())


@pytest.mark.parametrize(
    "argv,paths",
    [
        (["--q", "2", "--n", "5", "--d", "2", "--suite", "all"],
         {"main": "automorphism", "boundary": "automorphism"}),
        (["--q", "3", "--n", "4", "--d", "2", "--suite", "all"], {"main": "automorphism"}),
        (["--q", "2", "--n", "5", "--d", "2", "--suite", "boundary"], {"boundary": "automorphism"}),
        (["--q", "2", "--n", "5", "--d", "2", "--suite", "identities"], {}),
    ],
)
def test_meta_records_certificate_paths(tmp_path, capsys, argv, paths):
    # one entry per built graph: the run's own, and J_q(2D, D) when the
    # boundary suite builds it
    out = tmp_path / "r.json"
    assert main(["verify", *argv, "--out", str(out)]) == 0
    capsys.readouterr()
    assert _load(out)["meta"]["certificate_paths"] == paths
