"""Acceptance gate: thirteen end-to-end guarantees with runtime budgets.

Each test times its own body, asserts the mathematical claim, and prints a
single `[acceptance NN] description: PASS (T s)` line (visible under
`pytest -s`).  Budgets are generous ceilings, not benchmarks; the whole file
runs in well under two minutes on commodity hardware.
"""

import itertools
import json
import time

from gammashell import (
    aigner_rhs,
    alignment_check,
    betti_from_shelling,
    betti_numbers,
    det_I_minus_X,
    dixon_lhs,
    dixon_rhs,
    enumerate_faces,
    enumerate_facets,
    f_vector_enumerated,
    f_vector_formula,
    facet_certificate,
    homology_facets_by_criterion,
    homology_facets_direct,
    make_complex,
    master_theorem_check,
    matrix_A,
    matrix_B,
    power_sum_lhs,
    reduced_euler_characteristic,
    series_P,
    series_XY,
    series_g_r,
    threeF2_lhs,
    threeF2_rhs,
    verify_euler_poincare,
    verify_shelling,
    x_family,
)
from gammashell.cli import main
from gammashell.series import MSeries

from .conftest import is_maximal_bruteforce


class _Timed:
    def __init__(self, number, description, budget):
        self.number = number
        self.description = description
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance {self.number:02d}] {self.description}: "
              f"{status} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} took {elapsed:.1f}s, "
                f"budget {self.budget}s"
            )
        return False


def test_acceptance_01_cube_sum_closed_form():
    with _Timed(1, "alternating cube sums match the closed form, n <= 40", 1):
        for n in range(1, 41):
            assert dixon_lhs(n) == dixon_rhs(n)


def test_acceptance_02_euler_characteristic_bridge():
    with _Timed(2, "reduced Euler characteristic is minus the cube sum, n <= 10", 1):
        for n in range(1, 11):
            chi = reduced_euler_characteristic(f_vector_formula(make_complex(3, n)))
            assert chi == -dixon_lhs(n)


def test_acceptance_03_face_counts():
    with _Timed(3, "enumerated f-vectors match the binomial formula, p <= 3, n <= 6", 30):
        for p in (1, 2, 3):
            for n in range(1, 7):
                params = make_complex(p, n)
                assert f_vector_enumerated(params) == f_vector_formula(params)


def test_acceptance_04_facet_criterion():
    with _Timed(4, "facet criterion agrees with insertion maximality, p = 3, n <= 5", 60):
        for n in range(1, 6):
            params = make_complex(3, n)
            for dim in range(n):
                for face in enumerate_faces(params, dim):
                    assert (
                        facet_certificate(params, face).is_facet
                        == is_maximal_bruteforce(params, face)
                    )


def test_acceptance_05_shelling():
    with _Timed(5, "canonical order shells the complex, n <= 7, both witness routes", 600):
        for n in range(1, 5):
            report = verify_shelling(make_complex(3, n), witness_mode="both")
            assert report.is_shelling
            assert report.disagreements == []
            assert report.fallbacks == []
        mid = verify_shelling(make_complex(3, 5))
        assert mid.is_shelling
        assert mid.fallbacks == []
        big = verify_shelling(make_complex(3, 6))
        assert big.is_shelling
        assert big.fallbacks == []
        assert big.total_pairs == 8377 * 8376 // 2
        assert big.constructed == big.total_pairs
        huge = verify_shelling(make_complex(3, 7))
        assert huge.facet_count == 54133
        assert huge.total_pairs == 54133 * 54132 // 2
        assert huge.constructed == huge.total_pairs
        assert huge.fallbacks == []
        assert huge.is_shelling


def test_acceptance_06_homology_facets():
    with _Timed(6, "twist criterion equals direct attachment, n <= 6", 600):
        for n in range(1, 7):
            params = make_complex(3, n)
            by_criterion = homology_facets_by_criterion(params)
            assert by_criterion == homology_facets_direct(params)
            if n == 6:
                assert len(by_criterion) == 4656


def test_acceptance_07_betti_numbers():
    with _Timed(
        7,
        "shelling and matrix Betti numbers agree, with Euler-Poincare; "
        "the matrix route also at p=3 n=6 and, without a cell budget, n=7",
        300,
    ):
        for p, ns in ((3, range(1, 6)), (2, range(1, 7))):
            for n in ns:
                params = make_complex(p, n)
                assert betti_from_shelling(params) == betti_numbers(params)
                assert verify_euler_poincare(params)
        assert betti_numbers(make_complex(2, 6)) == (0, 2, 20, 44, 6, 0, 0)
        assert betti_from_shelling(make_complex(3, 5)) == (0, 24, 396, 372, 0, 0)
        six = make_complex(3, 6)
        assert betti_numbers(six) == betti_from_shelling(six) == (
            0, 30, 948, 3138, 540, 0, 0,
        )
        seven = make_complex(3, 7)
        assert betti_numbers(seven, budget=None) == betti_from_shelling(seven) == (
            0, 36, 1860, 13704, 12240, 360, 0, 0,
        )


def test_acceptance_08_series_constructions():
    with _Timed(8, "dual series constructions agree; g_r diagonals count facets", 120):
        series_P(12, construction="both")
        series_XY(10, construction="both")
        series_XY(14, construction="both")
        for r in (1, 2, 3):
            g = series_g_r(r, 7)
            for m in range(2, 8):
                expected = sum(
                    1
                    for f in x_family(make_complex(3, m - 1))
                    if len(f) == r - 1
                )
                assert g.coefficient((m, m, m)) == expected


def test_acceptance_09_master_theorem():
    with _Timed(9, "determinant coefficient identity holds for both matrices, n <= 6", 60):
        cycle = {
            (0, 0, 0): 1, (1, 0, 0): -1, (0, 1, 0): -1, (0, 0, 1): -1,
            (1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1,
        }
        skew = {(0, 0, 0): 1, (1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1}
        assert det_I_minus_X(matrix_A(), 2) == MSeries(3, 2, cycle)
        assert det_I_minus_X(matrix_B(), 2) == MSeries(3, 2, skew)
        for matrix in (matrix_A(), matrix_B()):
            for n in range(1, 7):
                assert master_theorem_check(matrix, (n, n, n))


def test_acceptance_10_diagonal_alignment():
    with _Timed(10, "diagonal offset is pinned at one and the identity chain closes", 600):
        report = alignment_check(n_max=8)
        assert report.pinned_delta == 1
        assert [d for d, hit in report.matches.items() if hit] == [1]
        assert report.end_to_end_ok
        for values in report.end_to_end.values():
            assert len(set(values.values())) == 1


def test_acceptance_11_hypergeometric_table():
    with _Timed(11, "the well-poised 3F2 sum matches its closed form on 0..8", 10):
        for triple in itertools.product(range(9), repeat=3):
            assert threeF2_lhs(*triple) == threeF2_rhs(*triple)
        for n in range(1, 41):
            assert threeF2_lhs(n, n, n) == dixon_lhs(n)
            assert power_sum_lhs(n, 2) == aigner_rhs(n)


def test_acceptance_12_deterministic_reports(capsys):
    with _Timed(12, "reports are byte-identical across repeats", 120):
        commands = [
            ["fvector", "--n", "4", "--enumerate"],
            ["shelling", "--n", "4", "--witness-mode", "both"],
            ["betti", "--n", "3", "--shuffle-check"],
            ["identity", "dixon", "--n-max", "10"],
            ["identity", "3f2", "--max", "4"],
            ["genfun", "XY", "--truncate", "6"],
            ["genfun", "--check-alignment", "--n-max", "4"],
            ["export", "facets", "--n", "4"],
            ["export", "matrix", "--n", "3", "--k", "1"],
        ]
        for argv in commands:
            outputs = []
            for _ in range(2):
                assert main(list(argv)) == 0, argv
                outputs.append(capsys.readouterr().out)
            assert outputs[0] == outputs[1], argv
            json.loads(outputs[0])


def test_acceptance_13_four_coordinate_report():
    with _Timed(
        13,
        "four-coordinate canonical order shells the complex, n <= 5; the signed "
        "criterion count is the power sum for p=2 n <= 8, p=4 n <= 6, p=5 n <= 5",
        600,
    ):
        counts = {}
        for n in range(1, 6):
            params = make_complex(4, n)
            report = verify_shelling(params)
            counts[n] = report.facet_count
            assert report.is_shelling, n
            assert report.fallbacks == [], n
            assert report.constructed == report.total_pairs, n
        assert counts == {1: 1, 2: 15, 3: 129, 4: 1419, 5: 16151}
        print(f"    four-coordinate survey: facets {counts}, all shellable")
        for p, n_max in ((2, 8), (4, 6), (5, 5)):
            for n in range(1, n_max + 1):
                params = make_complex(p, n)
                signed = sum(
                    -1 if len(f) % 2 else 1
                    for f in homology_facets_by_criterion(params)
                )
                assert signed == power_sum_lhs(n, p), (p, n)
                assert signed == -reduced_euler_characteristic(
                    f_vector_formula(params)
                ), (p, n)
