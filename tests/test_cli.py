"""End-to-end command line behavior: exit codes, formats, determinism."""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammashell import cli, facets, genfun, homology, shelling
from gammashell.cli import main
from gammashell.complexes import ComplexParams
from gammashell.facets import enumerate_facets, format_facets
from gammashell.genfun import series_g_r, series_P
from gammashell.homology import boundary_matrix, matrix_to_triplets
from gammashell.series import MSeries, dump_series


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# -- exit codes ---------------------------------------------------------------


def test_domain_errors_exit_2(capsys):
    for argv in (
        ["fvector", "--p", "0", "--n", "2"],
        ["genfun"],
        ["genfun", "P", "--truncate", "1"],
        ["genfun", "P", "--check-alignment"],
        ["export", "matrix", "--n", "2"],
        ["betti", "--n", "2", "--method", "shelling", "--shuffle-check"],
        ["betti", "--n", "3", "--seed", "5"],
        ["identity", "dixon", "--n-max", "0"],
        ["identity", "aigner", "--n-max", "-1"],
        ["identity", "3f2", "--max", "-1"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert not out
        assert "error" in err


def test_usage_error_writes_no_file(tmp_path, capsys):
    target = tmp_path / "matrix.txt"
    code, out, err = run(capsys, "export", "matrix", "--n", "2", "--output", str(target))
    assert code == 2
    assert not out
    assert "error" in err
    assert not target.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["shelling", "--n", "3"],
        ["betti", "--n", "3"],
        ["export", "facets", "--n", "3"],
        ["genfun", "--check-alignment", "--n-max", "3"],
    ],
    ids=["shelling", "betti", "export", "genfun"],
)
def test_csv_without_a_table_is_refused_before_any_facet_is_listed(
    tmp_path, capsys, monkeypatch, argv
):
    # only fvector and identity have a table: the parser refuses csv for the
    # other commands, so none of them starts and nothing is written
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return enumerate_facets(*args, **kwargs)

    for module in (facets, shelling):
        monkeypatch.setattr(module, "enumerate_facets", counted)
    target = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as info:
        main([*argv, "--format", "csv", "--output", str(target)])
    out, err = capsys.readouterr()
    assert info.value.code == 2
    assert not out
    assert "invalid choice: 'csv'" in err
    assert not target.exists()
    assert not calls


@pytest.mark.parametrize(
    "argv",
    [["betti", "--n", "2"], ["export", "facets", "--n", "2"]],
    ids=["report", "export"],
)
def test_unwritable_output_exits_4(tmp_path, capsys, argv):
    target = tmp_path / "missing-dir" / "out.txt"
    code, out, err = run(capsys, *argv, "--output", str(target))
    assert code == 4
    assert not out
    assert err.startswith("i/o error: ")
    assert not target.exists()


def test_negative_witness_limit_exits_2(capsys, monkeypatch):
    # refused under the flag's own name, before any facet is listed
    calls = []
    monkeypatch.setattr(facets, "enumerate_facets", lambda *args: calls.append(args))
    code, out, err = run(
        capsys, "shelling", "--n", "3", "--order", "reversed", "--witness-limit", "-1"
    )
    assert code == 2
    assert not out
    assert "--witness-limit must be at least 0" in err
    assert not calls


@pytest.mark.parametrize(
    "argv,message",
    [
        (["P", "--truncate", "1"], "--truncate must be at least 2, got 1"),
        (["XY", "--truncate", "0"], "--truncate must be at least 1, got 0"),
        (["g", "--r", "0"], "--r must be at least 1, got 0"),
        (["g", "--r", "2", "--truncate", "3"], "--truncate must be at least 4, got 3"),
        (["--check-alignment", "--n-max", "1"], "--n-max must be at least 2, got 1"),
    ],
    ids=["P", "XY", "g-r", "g-truncate", "alignment"],
)
def test_series_bounds_are_refused_under_the_flag_names(capsys, monkeypatch, argv, message):
    # the builders' bounds, refused before any series is built
    calls = []
    for name in ("series_P", "series_XY", "series_g_r", "alignment_check"):
        monkeypatch.setattr(genfun, name, lambda *args, **kwargs: calls.append(args))
    code, out, err = run(capsys, "genfun", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not calls


def test_argparse_rejections_raise_system_exit(capsys):
    with pytest.raises(SystemExit) as info:
        main(["fvector"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["identity", "unknown-kind"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["shelling", "--n", "3", "--threads", "2"])
    assert info.value.code == 2
    # a budget below 1 is a usage error, not a budget overrun
    with pytest.raises(SystemExit) as info:
        main(["betti", "--n", "2", "--cell-budget", "-1"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["fvector", "--n", "3", "--enumerate", "--face-budget", "0"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["betti", "--n", "2", "--cell-budget", "abc"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["genfun", "XY", "--series-budget", "0"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["identity", "dixon", "--term-budget", "-5"])
    assert info.value.code == 2
    capsys.readouterr()


def test_failed_verification_exits_1(capsys):
    code, out, err = run(
        capsys, "shelling", "--n", "2", "--order", "reversed",
        "--witness-mode", "exhaustive",
    )
    assert code == 1
    report = json.loads(out)
    assert report["pass"] is False
    assert report["results"]["is_shelling"] is False
    assert report["results"]["violation_count"] > 0


def test_budget_overruns_exit_3(capsys):
    for argv in (
        ["fvector", "--n", "4", "--enumerate", "--face-budget", "10"],
        ["export", "facets", "--n", "3", "--face-budget", "2"],
        ["shelling", "--n", "3", "--face-budget", "10"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 3, argv
        assert "budget" in err


# runs main(argv) under a 1 GB address-space limit and prints, as JSON, its
# exit code, what it wrote, and how long the main call took
_BOUNDED_MAIN = """
import contextlib, io, json, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
from gammashell.cli import main
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    start = time.perf_counter()
    code = main(sys.argv[1:])
    seconds = time.perf_counter() - start
print(json.dumps({"code": code, "out": out.getvalue(), "err": err.getvalue(),
                  "seconds": seconds}))
"""


def child_env(**extra):
    """The environment of a child interpreter importing this checkout's src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src,
                **extra)


def run_bounded(*argv):
    """main(argv) in a child process, so a runaway fails fast and alone."""
    proc = subprocess.run(
        [sys.executable, "-c", _BOUNDED_MAIN, *argv],
        capture_output=True, text=True, env=child_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize(
    "argv",
    [
        ["export", "facets", "--p", "8", "--n", "10", "--face-budget", "10"],
        ["shelling", "--n", "11"],
        ["betti", "--p", "3", "--n", "11", "--method", "shelling"],
    ],
    ids=["export-p8n10", "shelling-n11", "betti-shelling-n11"],
)
def test_small_facet_budget_stops_a_huge_search_at_once(argv):
    # Gamma_8(10) has 10^8 vertices and Gamma_3(11) 108849859 facets, over
    # the default budget: the closed-form facet count must refuse before the
    # search tabulates a vertex or lists a facet
    child = run_bounded(*argv)
    assert child["seconds"] < 1.0
    assert child["code"] == 3
    assert not child["out"]
    assert "budget" in child["err"]


# runs main(argv + ["--p", "1", "--n", n]) with n just past a lowered
# recursion limit, which keeps the closed-form facet count (quadratic in n
# at p = 1) cheap
_PAST_THE_RECURSION_LIMIT = """
import sys
from gammashell.cli import main
sys.setrecursionlimit(200)
n = str(sys.getrecursionlimit() + 100)
sys.exit(main([*sys.argv[1:], "--p", "1", "--n", n]))
"""


@pytest.mark.parametrize(
    "argv",
    [["shelling"], ["export", "facets"], ["betti", "--method", "shelling"]],
    ids=["shelling", "export-facets", "betti-shelling"],
)
def test_a_facet_longer_than_the_recursion_limit_is_listed(argv):
    # Gamma_1(n) has one facet, (1) < (2) < ... < (n), and the facet search
    # goes one level deeper per vertex
    proc = subprocess.run(
        [sys.executable, "-c", _PAST_THE_RECURSION_LIMIT, *argv],
        capture_output=True, text=True, env=child_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_small_face_budget_stops_a_huge_enumeration_at_once():
    # the face count must refuse at the budget without listing all 10^8
    # vertices of Gamma_8(10) first
    child = run_bounded("fvector", "--p", "8", "--n", "10", "--enumerate",
                        "--face-budget", "10")
    assert child["seconds"] < 1.0
    assert child["code"] == 3
    assert not child["out"]
    assert "budget" in child["err"]


@pytest.mark.parametrize(
    "argv",
    [
        ["betti", "--p", "3", "--n", "9"],
        ["betti", "--p", "3", "--n", "10", "--method", "matrix"],
    ],
    ids=["both-n9", "matrix-n10"],
)
def test_over_budget_matrix_route_is_refused_before_any_work(argv):
    # the cell counts come from the f-vector formula: no route runs, no face
    # is listed, and no smaller boundary matrix is eliminated first
    child = run_bounded(*argv)
    assert child["seconds"] < 1.0
    assert child["code"] == 3
    assert not child["out"]
    assert "budget" in child["err"]


@pytest.mark.parametrize(
    "argv",
    [
        ["genfun", "XY", "--truncate", "60"],
        ["genfun", "g", "--r", "3", "--truncate", "40"],
        ["identity", "dixon", "--n-max", "100000"],
        ["identity", "3f2", "--max", "150"],
        ["genfun", "--check-alignment", "--n-max", "100"],
    ],
    ids=["XY-T60", "g3-T40", "dixon-100000", "3f2-150", "alignment-100"],
)
def test_over_budget_series_and_sums_are_refused_before_any_work(argv):
    child = run_bounded(*argv)
    assert child["seconds"] < 1.0
    assert child["code"] == 3
    assert not child["out"]
    assert "budget" in child["err"]


@pytest.mark.parametrize(
    "argv,flag,count",
    [
        (["genfun", "P", "--truncate", "4"], "--series-budget", 5**3),
        (["genfun", "g", "--r", "2", "--truncate", "4"], "--series-budget", 2 * 5**3),
        (["identity", "dixon", "--n-max", "3"], "--term-budget", 2 + 3 + 4),
        (["identity", "aigner", "--n-max", "4"], "--term-budget", 2 + 3 + 4 + 5),
        (["identity", "3f2", "--max", "2"], "--term-budget", 3**3),
        (["export", "matrix", "--n", "3", "--k", "1"], "--face-budget", 27 + 27),
    ],
    ids=["P", "g", "dixon", "aigner", "3f2", "export-matrix"],
)
def test_budgets_count_box_cells_and_binomial_terms(capsys, argv, flag, count):
    code, out, err = run(capsys, *argv, flag, str(count))
    assert code == 0, err
    assert json.loads(out)["constants"][flag[2:].replace("-", "_")] == count
    code, out, err = run(capsys, *argv, flag, str(count - 1))
    assert code == 3
    assert not out
    assert f"{count} " in err and "budget" in err


def test_alignment_budget_counts_the_box_of_its_largest_offset(capsys):
    # offsets 0..3 give XY at T = n_max + 3, a box of (n_max + 4)^3 cells;
    # the budget stays out of this report, so its reference digest holds
    code, out, err = run(capsys, "genfun", "--check-alignment", "--n-max", "4",
                         "--series-budget", "512")
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "13a3ca659db799914058df880545bfbb07b54521c3ccabf4ec6e74cee91451f4"
    )
    code, out, err = run(capsys, "genfun", "--check-alignment", "--n-max", "4",
                         "--series-budget", "511")
    assert code == 3
    assert not out
    assert "512 " in err and "budget" in err


def test_alignment_budget_follows_the_offsets(capsys, monkeypatch):
    # a fifth offset puts XY at T = n_max + 4, a box of (n_max + 5)^3 cells
    monkeypatch.setattr(genfun, "DELTAS", (0, 1, 2, 3, 4))
    argv = ["genfun", "--check-alignment", "--n-max", "4", "--series-budget"]
    assert run(capsys, *argv, "728")[0] == 3
    assert run(capsys, *argv, "729")[0] != 3


# exit code and stdout SHA-256 of the reports built from the shelling and
# alignment records, frozen from the field-by-field copies they replaced
RECORD_REPORTS = {
    "shelling": (
        ["shelling", "--p", "3", "--n", "4"], 0,
        "025adfc0c4fd7b7e8e25c6953686e51c91bfe96227d38f54cee308fc8ea875f5",
    ),
    "shelling-reversed": (
        ["shelling", "--p", "3", "--n", "4", "--order", "reversed",
         "--witness-limit", "5"], 1,
        "5ac1ba8725bef6f7de6680404ce137e544efb2defca84089919c08aab9279359",
    ),
    "alignment-n12": (
        ["genfun", "--check-alignment", "--n-max", "12"], 0,
        "61ec2ab21fdf289a330a7b2536c5ebfd7af82d85b74ea9e98d66e9f018c13df5",
    ),
}


@pytest.mark.parametrize("name", RECORD_REPORTS)
def test_reports_built_from_records_are_frozen(capsys, name):
    argv, expected_code, digest = RECORD_REPORTS[name]
    code, out, err = run(capsys, *argv)
    assert code == expected_code, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    res = json.loads(out)["results"]
    if name == "shelling-reversed":
        # every pair list, and the tuple keys of the witnesses, are filled
        assert res["violations"] and res["fallbacks"] and res["witnesses"]
    if name == "alignment-n12":
        # int keys became strings before sorting: "10" sorts before "2"
        assert list(res["alternating_counts"])[:3] == ["1", "10", "11"]


def load_bench():
    """perfbench/run.py, loaded by path and never installed.

    Its frozen dataclass looks its module up in sys.modules while it is
    built, so the module is registered there before it runs.
    """
    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


BENCH = load_bench()
# the digests the benchmark checks each workload report against
BENCH_REFERENCE = json.loads(BENCH.REFERENCE_FILE.read_text(encoding="utf-8"))
# the benchmark's workloads and the smoke test's smaller shapes; a seeded
# argv template at two seeds
BENCH_RUNS = [
    (w, seed)
    for w in [*BENCH.WORKLOADS.values(), *BENCH.workloads(4, 4, 4).values()]
    for seed in ((3, 8) if w.seeded else (0,))
]


def test_bench_runs_cover_every_reference():
    assert {w.key for w, _ in BENCH_RUNS} == BENCH_REFERENCE.keys()


@pytest.mark.parametrize(
    "workload,seed", BENCH_RUNS, ids=[f"{w.name}-seed{seed}" for w, seed in BENCH_RUNS]
)
def test_reports_match_the_benchmark_reference_digests(capsys, workload, seed):
    code, out, err = run(capsys, *workload.command(seed))
    assert code == 0, err
    assert BENCH.report_digest(out.encode(), workload, seed) == BENCH_REFERENCE[workload.key]


@pytest.mark.parametrize("p,n,expected", [(14284, 2, 0), (14285, 2, 3), (10, 2000, 3)])
def test_fvector_refuses_at_once_counts_too_long_to_print(capsys, p, n, expected):
    # 2^14284 has 4300 digits, the most that Python prints by default
    start = time.perf_counter()
    code, out, err = run(capsys, "fvector", "--p", str(p), "--n", str(n))
    assert time.perf_counter() - start < 1.0
    assert code == expected, err
    if expected:
        assert not out
        assert "digits" in err and "budget" in err
    else:
        assert len(str(max(json.loads(out)["results"]["f_vector"]))) == 4300


def test_disagreeing_series_constructions_exit_1(capsys, monkeypatch):
    # of the two builds of series_XY, only the alternating one uses P
    closed_P = genfun._closed_P

    def shifted_P(T):
        return closed_P(T) + MSeries.monomial(3, T, (2, 2, 2))

    monkeypatch.setattr(genfun, "_closed_P", shifted_P)
    code, out, err = run(capsys, "genfun", "--check-alignment", "--n-max", "2")
    assert code == 1
    assert not out
    assert "verification failure" in err and "series_XY" in err


def test_alignment_without_a_pinned_offset_exits_1_with_its_report(capsys, monkeypatch):
    count = genfun.alternating_homology_count
    monkeypatch.setattr(genfun, "alternating_homology_count", lambda n: count(n) + 1)
    code, out, err = run(capsys, "genfun", "--check-alignment", "--n-max", "3")
    assert code == 1, err
    report = json.loads(out)
    res = report["results"]
    assert res["pinned_delta"] is None
    assert not any(res["matches"].values())
    assert res["end_to_end"] == {}
    assert res["end_to_end_ok"] is False
    assert report["pass"] is False


def test_internal_errors_are_not_verification_failures(capsys, monkeypatch):
    def recurse(args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setitem(cli._COMMANDS, "fvector", recurse)
    with pytest.raises(RecursionError):
        main(["fvector", "--n", "2"])


@pytest.mark.parametrize("order,exit_code", [("canonical", 0), ("reversed", 1)])
def test_shelling_enumerates_the_facets_once(capsys, monkeypatch, order, exit_code):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return enumerate_facets(*args, **kwargs)

    for module in (facets, shelling):
        monkeypatch.setattr(module, "enumerate_facets", counted)
    code, out, err = run(capsys, "shelling", "--n", "3", "--order", order)
    assert code == exit_code, err
    assert json.loads(out)["results"]["facet_count"] == 37
    assert len(calls) == 1


# -- json reports -------------------------------------------------------------


def test_fvector_report(capsys):
    report = run_json(capsys, "fvector", "--n", "3", "--enumerate")
    assert report["command"] == "fvector"
    assert report["pass"] is True
    assert report["results"]["f_vector"] == [1, 27, 27, 1]
    assert report["results"]["f_vector_enumerated"] == [1, 27, 27, 1]
    assert report["results"]["reduced_euler"] == 0
    assert report["params"] == {"p": 3, "n": 3}


def test_shelling_report(capsys):
    report = run_json(capsys, "shelling", "--n", "2", "--witness-mode", "both")
    res = report["results"]
    assert res["facet_count"] == 7
    assert res["total_pairs"] == 21
    assert res["constructed"] == 21
    assert res["fallback_count"] == 0
    assert res["disagreement_count"] == 0
    assert res["is_shelling"] is True
    assert len(res["witnesses"]) == 21
    for key, (j, v) in res["witnesses"].items():
        i, k = map(int, key.split(","))
        assert i < k and 0 <= j < k
        assert len(v) == 3


def test_betti_report_carries_both_routes(capsys):
    report = run_json(capsys, "betti", "--n", "2", "--shuffle-check")
    res = report["results"]
    assert res["betti_from_shelling"] == [0, 6, 0]
    assert res["betti_from_matrix"] == [0, 6, 0]
    assert res["match"] is True
    assert res["euler_poincare"] is True
    assert res["alternating_betti_sum"] == 6
    assert res["shuffle_check"] is True


def test_betti_shuffle_check_builds_and_ranks_each_matrix_once(capsys, monkeypatch):
    # no face is listed and each d_k is assembled once; one elimination per
    # matrix in canonical order, one in shuffled order
    listed, assembled, eliminations = [], [], []

    def counting(calls, fn, key):
        def counted(*args):
            calls.append(key(*args))
            return fn(*args)

        return counted

    for name, calls, key in [
        ("enumerate_faces", listed, lambda params, dim: dim),
        ("_indexed_boundary", assembled, lambda params, k, *rest: k),
        ("_eliminate", eliminations, lambda active: None),
    ]:
        monkeypatch.setattr(homology, name, counting(calls, getattr(homology, name), key))
    report = run_json(capsys, "betti", "--n", "3", "--shuffle-check")
    assert report["results"]["shuffle_check"] is True
    assert listed == []
    assert assembled == [0, 1, 2]
    assert len(eliminations) == 6


def test_disagreeing_betti_routes_exit_1(capsys, monkeypatch):
    # each check must compare two routes, not one route with itself; at n = 4
    # the relative chain has one matrix of nonzero rank, d_2
    from_shelling = shelling.betti_from_shelling
    steps = homology._steps

    def shifted(params):
        betti = from_shelling(params)
        return (betti[0] + 1, *betti[1:])

    def losing_a_pivot(*args):
        # the seeded elimination of each matrix drops its first pivot
        yield from list(steps(*args))[1:]

    for module, name, fake, key in [
        (shelling, "betti_from_shelling", shifted, "match"),
        (homology, "_steps", losing_a_pivot, "shuffle_check"),
    ]:
        with monkeypatch.context() as patch:
            patch.setattr(module, name, fake)
            code, out, err = run(capsys, "betti", "--n", "4", "--shuffle-check")
        assert code == 1, err
        report = json.loads(out)
        assert report["results"][key] is False
        assert report["pass"] is False


def test_identity_report(capsys):
    report = run_json(capsys, "identity", "dixon", "--n-max", "6")
    res = report["results"]
    assert res["checked"] == 6
    assert res["failed"] == 0
    assert [row["lhs"] for row in res["table"]] == [0, -6, 0, 90, 0, -1680]


def test_aigner_report(capsys):
    report = run_json(capsys, "identity", "aigner", "--n-max", "4")
    res = report["results"]
    assert res["checked"] == 4
    assert res["failed"] == 0
    assert [row["lhs"] for row in res["table"]] == [0, -2, 0, 6]
    assert {row["linear_sum"] for row in res["table"]} == {0}


def test_alignment_report(capsys):
    report = run_json(capsys, "genfun", "--check-alignment", "--n-max", "3")
    res = report["results"]
    assert res["pinned_delta"] == 1
    assert res["matches"] == {"0": False, "1": True, "2": False, "3": False}
    assert res["end_to_end_ok"] is True


def test_g_series_report(capsys):
    report = run_json(capsys, "genfun", "g", "--r", "2")
    res = report["results"]
    assert res["series"] == "g"
    assert res["r"] == 2
    assert res["truncation"] == 6
    expected = series_g_r(2, 6).coeffs
    assert res["terms"] == len(expected)
    assert res["coefficients"] == {
        " ".join(map(str, e)): c for e, c in sorted(expected.items())
    }


# -- text summaries -----------------------------------------------------------

TEXT = {
    "fvector": (
        ["fvector", "--n", "2", "--enumerate"],
        "p=3 n=2\n"
        "f-vector: 1 8 1\n"
        "reduced Euler characteristic: 6\n"
        "enumerated: 1 8 1\n"
        "match: yes\n"
        "PASS\n",
    ),
    "shelling": (
        ["shelling", "--n", "2"],
        "p=3 n=2 order=canonical mode=constructive\n"
        "facets: 7  pairs: 21  constructed: 21  fallbacks: 0\n"
        "violations: 0  disagreements: 0\n"
        "is shelling: yes\n"
        "PASS\n",
    ),
    "shelling-reversed": (
        ["shelling", "--n", "3", "--order", "reversed"],
        "p=3 n=3 order=reversed mode=constructive\n"
        "facets: 37  pairs: 666  constructed: 0  fallbacks: 618\n"
        "violations: 48  disagreements: 0\n"
        "is shelling: no\n"
        "FAIL\n",
    ),
    "betti": (
        ["betti", "--n", "2", "--shuffle-check"],
        "p=3 n=2\n"
        "betti (shelling): 0 6 0\n"
        "betti (matrix):   0 6 0\n"
        "match: yes\n"
        "alternating Betti sum: 6  reduced Euler: 6  Euler-Poincare: yes\n"
        "shuffle check (seed 0): yes\n"
        "PASS\n",
    ),
    "betti-matrix": (
        ["betti", "--n", "3", "--method", "matrix"],
        "p=3 n=3\n"
        "betti (matrix):   0 12 12 0\n"
        "alternating Betti sum: 0  reduced Euler: 0  Euler-Poincare: yes\n"
        "PASS\n",
    ),
    "betti-shelling": (
        ["betti", "--n", "3", "--method", "shelling"],
        "p=3 n=3\n"
        "betti (shelling): 0 12 12 0\n"
        "alternating Betti sum: 0  reduced Euler: 0  Euler-Poincare: yes\n"
        "PASS\n",
    ),
    "identity": (
        ["identity", "dixon", "--n-max", "3"],
        "identity dixon: checked 3, failed 0\n"
        "n=1  lhs=0  rhs=0  ok=yes\n"
        "n=2  lhs=-6  rhs=-6  ok=yes\n"
        "n=3  lhs=0  rhs=0  ok=yes\n"
        "PASS\n",
    ),
    "identity-aigner": (
        ["identity", "aigner", "--n-max", "2"],
        "identity aigner: checked 2, failed 0\n"
        "n=1  lhs=0  rhs=0  linear_sum=0  ok=yes\n"
        "n=2  lhs=-2  rhs=-2  linear_sum=0  ok=yes\n"
        "PASS\n",
    ),
    "genfun": (
        ["genfun", "--check-alignment", "--n-max", "2"],
        "pinned offset delta: 1\n"
        "signed counts (n=2..2): -6\n"
        "delta=0: diagonal 0  matches=no\n"
        "delta=1: diagonal -6  matches=yes\n"
        "delta=2: diagonal 0  matches=no\n"
        "delta=3: diagonal 90  matches=no\n"
        "n=1: alternating_homology_count=0  dixon_lhs=0  dixon_rhs=0  "
        "neg_reduced_euler=0  product_coefficient=0  xy_diagonal=0  ok=yes\n"
        "n=2: alternating_homology_count=-6  dixon_lhs=-6  dixon_rhs=-6  "
        "neg_reduced_euler=-6  product_coefficient=-6  xy_diagonal=-6  ok=yes\n"
        "end-to-end: yes\n"
        "PASS\n",
    ),
}


@pytest.mark.parametrize("argv,expected", TEXT.values(), ids=list(TEXT))
def test_text_summaries(capsys, argv, expected):
    code, out, err = run(capsys, *argv, "--format", "text")
    assert code == {"PASS": 0, "FAIL": 1}[expected.splitlines()[-1]], err
    assert out == expected


# -- payload formats ----------------------------------------------------------


def test_genfun_text_payload_is_the_series_dump(capsys):
    code, out, err = run(capsys, "genfun", "P", "--truncate", "4", "--format", "text")
    assert code == 0
    assert out == dump_series(series_P(4))


def test_export_facets_content(capsys):
    params = ComplexParams(3, 2)
    expected = format_facets(params, enumerate_facets(params))
    report = run_json(capsys, "export", "facets", "--n", "2")
    assert report["results"]["content"] == expected
    code, out, _ = run(capsys, "export", "facets", "--n", "2", "--format", "text")
    assert code == 0
    assert out == expected


def test_export_matrix_content(capsys):
    expected = matrix_to_triplets(boundary_matrix(ComplexParams(3, 2), 1))
    code, out, _ = run(
        capsys, "export", "matrix", "--n", "2", "--k", "1", "--format", "text"
    )
    assert code == 0
    assert out == expected == "%% 8 1\n0 0 1\n7 0 -1\n"


def test_export_matrix_lists_its_faces_under_the_raised_budgets(capsys, monkeypatch):
    # 121287375 faces of dimension 3 at p=3 n=12: over the default face
    # budget, but within the two raised here; the stub lists none of them
    budgets = []

    def listing(params, dim, budget="the default"):
        budgets.append(budget)
        return []

    monkeypatch.setattr(homology, "enumerate_faces", listing)
    code, _, err = run(capsys, "export", "matrix", "--p", "3", "--n", "12", "--k", "4",
                       "--face-budget", "2000000000",
                       "--cell-budget", "1000000000000000000")
    assert code == 0, err
    # the cell budget priced both lists, so neither is priced again
    assert budgets == [None, None]


# SHA-256 of the export matrix payloads for p=3 n=3, frozen from the
# assembly through a (row, col) -> +-1 dict sorted in row-major order
MATRIX_DIGESTS = {
    0: "75dfdd31dadb2aa55b4c73543d7cd91227acefa6f757c1d60fb42ecbb13a61ff",
    1: "f84a32e2afd76727c99aea4a20cfcb6c563178d14d8e5a7734d5f44098e99ad8",
    2: "bc6600bd6ba51c31c1228c8da8acc73a6fb2481df9da71ba069ccf82f736b32c",
}


@pytest.mark.parametrize("k", sorted(MATRIX_DIGESTS))
def test_export_matrix_bytes_are_frozen(capsys, k):
    code, out, _ = run(
        capsys, "export", "matrix", "--n", "3", "--k", str(k), "--format", "text"
    )
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == MATRIX_DIGESTS[k]
    report = run_json(capsys, "export", "matrix", "--n", "3", "--k", str(k))
    assert report["results"]["content"] == out
    assert report["results"]["entries"] == out.count("\n") - 1


def test_export_writes_payload_to_file(tmp_path, capsys):
    target = tmp_path / "facets.txt"
    report = run_json(
        capsys, "export", "facets", "--n", "2", "--output", str(target)
    )
    params = ComplexParams(3, 2)
    assert target.read_text() == format_facets(params, enumerate_facets(params))
    assert report["results"]["written"] == str(target)
    assert "content" not in report["results"]
    code, out, _ = run(
        capsys, "export", "facets", "--n", "2", "--format", "text",
        "--output", str(target),
    )
    assert code == 0
    assert out == f"wrote {report['results']['bytes']} bytes to {target}\nPASS\n"


def test_report_commands_write_rendered_output_to_file(tmp_path, capsys):
    target = tmp_path / "betti.json"
    code, out, err = run(capsys, "betti", "--n", "2", "--output", str(target))
    assert code == 0
    assert out == ""
    report = json.loads(target.read_text())
    assert report["results"]["match"] is True


def test_csv_tables(capsys):
    code, out, _ = run(capsys, "identity", "dixon", "--n-max", "3", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,lhs,rhs,equal"
    assert len(lines) == 4
    code, out, _ = run(capsys, "fvector", "--n", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "dim,count"
    code, out, _ = run(capsys, "identity", "aigner", "--n-max", "2", "--format", "csv")
    assert code == 0
    assert out == "n,lhs,rhs,linear_sum,equal\n1,0,0,0,True\n2,-2,-2,0,True\n"


def test_threeF2_scan(capsys):
    report = run_json(capsys, "identity", "3f2", "--max", "3")
    res = report["results"]
    assert res["checked"] == 64
    assert res["failed"] == 0
    assert res["failures"] == []
    assert "table" not in res


# -- determinism --------------------------------------------------------------

REPEATED = [
    ["fvector", "--n", "3", "--enumerate"],
    ["shelling", "--n", "3", "--witness-mode", "both"],
    ["betti", "--n", "3"],
    ["identity", "dixon", "--n-max", "8"],
    ["genfun", "XY", "--truncate", "5"],
    ["export", "facets", "--n", "3"],
]


@pytest.mark.parametrize("argv", REPEATED, ids=[a[0] for a in REPEATED])
def test_repeated_runs_are_byte_identical(capsys, argv):
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second
    assert first[0] == 0


# runs main on each argv in turn and prints its exit code and the SHA-256 of
# what it wrote to stdout, one argv per line
_DIGESTS = """
import contextlib, hashlib, io, json, sys
from gammashell.cli import main
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage exit
            code = exc.code
    print(code, hashlib.sha256(out.getvalue().encode()).hexdigest())
"""

HASH_SEEDED = [
    ["fvector", "--n", "3", "--enumerate"],
    ["shelling", "--n", "3", "--order", "reversed", "--format", "text"],
    ["betti", "--n", "3", "--shuffle-check", "--seed", "5"],
    ["genfun", "--check-alignment", "--n-max", "3"],
    ["export", "facets", "--n", "3"],
    ["identity", "3f2", "--format", "csv"],
]


def test_reports_do_not_depend_on_the_hash_seed():
    runs = []
    for seed in ("0", "12345"):
        proc = subprocess.run(
            [sys.executable, "-c", _DIGESTS, json.dumps(HASH_SEEDED)],
            capture_output=True, text=True, env=child_env(PYTHONHASHSEED=seed),
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        runs.append(proc.stdout.splitlines())
    assert len(runs[0]) == len(HASH_SEEDED)
    # the reversed order is not a shelling and exits 1; the rest pass
    assert [line.split()[0] for line in runs[0]] == ["0", "1", "0", "0", "0", "0"]
    assert runs[0] == runs[1]


SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "schema" / "report.json").read_text()
)


@pytest.mark.parametrize("argv", REPEATED, ids=[a[0] for a in REPEATED])
def test_reports_carry_the_schema_envelope(capsys, argv):
    report = run_json(capsys, *argv)
    assert sorted(report) == sorted(SCHEMA["required"])
    assert report["command"] in SCHEMA["properties"]["command"]["enum"]
    assert isinstance(report["pass"], bool)


@st.composite
def argvs(draw):
    """A small argv for any subcommand, in JSON or text; some are invalid."""

    def num(low: int, high: int) -> str:
        # seven draws in eight lie in low..high, small enough to compute; the
        # rest lie one or two below low, mostly out of range
        if draw(st.integers(0, 7)) < 7:
            return str(draw(st.integers(low, high)))
        return str(draw(st.integers(low - 2, low - 1)))

    def pick(*choices) -> str:
        return draw(st.sampled_from(choices))

    command = pick(*cli._COMMANDS)
    argv = [command]
    if command in ("fvector", "shelling", "betti", "export"):
        n = num(1, 4 if command in ("fvector", "export") else 3)
        argv += ["--p", num(1, 3), "--n", n]
    if command == "fvector":
        argv += ["--enumerate"] if draw(st.booleans()) else []
    elif command == "shelling":
        argv += ["--order", pick("canonical", "reversed"),
                 "--witness-mode", pick("constructive", "exhaustive", "both")]
    elif command == "betti":
        method = pick("both", "shelling", "matrix")
        argv += ["--method", method]
        # the shuffle check runs on the matrix route only
        if method != "shelling" and draw(st.booleans()):
            argv += ["--shuffle-check", "--seed", num(0, 4)]
    elif command == "identity":
        argv += [pick("dixon", "3f2", "aigner"), "--n-max", num(1, 4), "--max", num(0, 4)]
    elif command == "genfun":
        # one series or the alignment check, and a truncation each series
        # admits, so that most draws compute
        series = pick("P", "XY", "g", "--check-alignment")
        if series == "--check-alignment":
            argv += [series, "--n-max", num(2, 4)]
        else:
            r = draw(st.integers(1, 2))
            low = {"P": 2, "XY": 1, "g": 2 * r}[series]
            argv += [series, "--truncate", num(low, 4), "--r", str(r)]
    elif command == "export":
        # export matrix needs a boundary dimension --k in 0..n-1
        what = pick("facets", "matrix")
        argv += [what]
        if what == "matrix" or draw(st.booleans()):
            argv += ["--k", num(0, max(int(n) - 1, 0))]
    return argv + ["--format", pick("json", "text")]


@settings(max_examples=150)
@given(argvs())
def test_drawn_argvs_keep_the_exit_code_contract(argv):
    # capsys is function-scoped, which hypothesis refuses under @given
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage exit
            code = exc.code
    assert code in range(5), (argv, err.getvalue())
    if code in (0, 1) and argv[-1] == "json":
        report = json.loads(out.getvalue())
        assert sorted(report) == sorted(SCHEMA["required"])
        assert report["pass"] == (code == 0)


# seconds each child of the hash-seed fuzz may run; the drawn argvs take ~0.1 s
FUZZ_CAP = 30


# one drawn example: distinct argvs, since the simplest draw repeats one argv
@settings(max_examples=1)
@given(st.lists(argvs(), min_size=8, max_size=8, unique_by=tuple))
def test_drawn_argvs_end_within_the_cap_whatever_the_hash_seed(batch):
    runs = []
    for seed in ("0", "12345"):
        proc = subprocess.run(
            [sys.executable, "-c", _DIGESTS, json.dumps(batch)],
            capture_output=True, text=True, env=child_env(PYTHONHASHSEED=seed),
            timeout=FUZZ_CAP,
        )
        assert proc.returncode == 0, proc.stderr
        runs.append(proc.stdout.splitlines())
    assert len(runs[0]) == len(batch)
    for line, argv in zip(runs[0], batch):
        assert int(line.split()[0]) in range(5), argv
    assert runs[0] == runs[1]


# -- cold start ---------------------------------------------------------------

# prints, as its last line, the modules the case imported beyond start-up
_PROBE = """
import sys
before = set(sys.modules)
{case}
print()
print(" ".join(sorted(set(sys.modules) - before)))
"""


def _new_modules(case: str) -> set[str]:
    """Modules a fresh interpreter (no site hooks) imports to run case."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _PROBE.format(case=case)],
        capture_output=True, text=True, env=child_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def _ours(modules: set[str]) -> set[str]:
    return {m for m in modules if m.split(".")[0] == "gammashell"}


def test_building_the_parser_loads_only_the_budget_constants():
    new = _new_modules("from gammashell.cli import build_parser; build_parser()")
    assert not new & {"dataclasses", "typing"}
    assert _ours(new) == {
        "gammashell", "gammashell.cli", "gammashell.errors", "gammashell.complexes",
    }


UNUSED = {
    "shelling": (["shelling", "--n", "2"], {
        "gammashell.series", "gammashell.genfun", "gammashell.homology",
        "gammashell.identities",
    }),
    "alignment": (["genfun", "--check-alignment", "--n-max", "2"], {
        "gammashell.homology", "gammashell.shelling",
    }),
}


@pytest.mark.parametrize("name", sorted(UNUSED))
def test_a_command_loads_no_module_it_does_not_use(name):
    argv, unused = UNUSED[name]
    new = _new_modules(f"from gammashell.cli import main; main({argv!r})")
    assert not new & {"dataclasses", "typing"}
    assert _ours(new)
    assert not _ours(new) & unused
