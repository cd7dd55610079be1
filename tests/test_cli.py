"""End-to-end command line behavior: exit codes, formats, determinism."""

import json
import time
from pathlib import Path

import pytest

from gammashell import (
    MSeries,
    boundary_matrix,
    cli,
    dump_series,
    enumerate_facets,
    format_facets,
    genfun,
    homology,
    make_complex,
    matrix_to_triplets,
    series_g_r,
    series_P,
    shelling,
)
from gammashell.cli import main


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
        ["shelling", "--n", "2", "--format", "csv"],
        ["betti", "--n", "2", "--method", "shelling", "--shuffle-check"],
        ["identity", "dixon", "--n-max", "0"],
        ["identity", "aigner", "--n-max", "-1"],
        ["identity", "3f2", "--max", "-1"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert not out
        assert "error" in err


def test_usage_error_writes_no_file(tmp_path, capsys):
    target = tmp_path / "facets.csv"
    code, out, err = run(
        capsys, "export", "facets", "--n", "2", "--format", "csv",
        "--output", str(target),
    )
    assert code == 2
    assert not out
    assert "error" in err
    assert not target.exists()


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


def test_negative_witness_limit_exits_2(capsys):
    code, out, err = run(
        capsys, "shelling", "--n", "3", "--order", "reversed", "--witness-limit", "-1"
    )
    assert code == 2
    assert not out
    assert "witness_limit" in err


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


def test_small_facet_budget_stops_a_huge_search_at_once(capsys):
    # Gamma_8(10) has 10^8 vertices: the facet search must stop at the
    # budget without tabulating them or scanning further coordinate boxes
    start = time.perf_counter()
    code, out, err = run(capsys, "export", "facets", "--p", "8", "--n", "10",
                         "--face-budget", "10")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert not out
    assert "budget" in err


def test_disagreeing_series_constructions_exit_1(capsys, monkeypatch):
    # only the alternating build of series_XY uses series_P
    def shifted_P(T, construction="both"):
        return series_P(T, construction) + MSeries.monomial(3, T, (2, 2, 2))

    monkeypatch.setattr(genfun, "series_P", shifted_P)
    code, out, err = run(capsys, "genfun", "--check-alignment", "--n-max", "2")
    assert code == 1
    assert not out
    assert "verification failure" in err and "series_XY" in err


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

    for module in (cli, shelling):
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
    calls = {"boundary_matrix": 0, "matrix_rank": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    for name in calls:
        wrapped = counting(name, getattr(homology, name))
        for module in (cli, homology):
            monkeypatch.setattr(module, name, wrapped)
    report = run_json(capsys, "betti", "--n", "3", "--shuffle-check")
    assert report["results"]["shuffle_check"] is True
    assert calls == {"boundary_matrix": 3, "matrix_rank": 3}


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
    "identity": (
        ["identity", "dixon", "--n-max", "3"],
        "identity dixon: checked 3, failed 0\n"
        "n=1  lhs=0  rhs=0  ok=yes\n"
        "n=2  lhs=-6  rhs=-6  ok=yes\n"
        "n=3  lhs=0  rhs=0  ok=yes\n"
        "PASS\n",
    ),
    "genfun": (
        ["genfun", "--check-alignment", "--n-max", "2"],
        "pinned offset delta: 1\n"
        "delta=0: matches=no\n"
        "delta=1: matches=yes\n"
        "delta=2: matches=no\n"
        "delta=3: matches=no\n"
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
    assert code == 0, err
    assert out == expected


# -- payload formats ----------------------------------------------------------


def test_genfun_text_payload_is_the_series_dump(capsys):
    code, out, err = run(capsys, "genfun", "P", "--truncate", "4", "--format", "text")
    assert code == 0
    assert out == dump_series(series_P(4))


def test_export_facets_content(capsys):
    params = make_complex(3, 2)
    expected = format_facets(params, enumerate_facets(params))
    report = run_json(capsys, "export", "facets", "--n", "2")
    assert report["results"]["content"] == expected
    code, out, _ = run(capsys, "export", "facets", "--n", "2", "--format", "text")
    assert code == 0
    assert out == expected


def test_export_matrix_content(capsys):
    expected = matrix_to_triplets(boundary_matrix(make_complex(3, 2), 1))
    code, out, _ = run(
        capsys, "export", "matrix", "--n", "2", "--k", "1", "--format", "text"
    )
    assert code == 0
    assert out == expected == "%% 8 1\n0 0 1\n7 0 -1\n"


def test_export_writes_payload_to_file(tmp_path, capsys):
    target = tmp_path / "facets.txt"
    report = run_json(
        capsys, "export", "facets", "--n", "2", "--output", str(target)
    )
    params = make_complex(3, 2)
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


SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "schema" / "report.json").read_text()
)


@pytest.mark.parametrize("argv", REPEATED, ids=[a[0] for a in REPEATED])
def test_reports_carry_the_schema_envelope(capsys, argv):
    report = run_json(capsys, *argv)
    assert sorted(report) == sorted(SCHEMA["required"])
    assert report["command"] in SCHEMA["properties"]["command"]["enum"]
    assert isinstance(report["pass"], bool)
