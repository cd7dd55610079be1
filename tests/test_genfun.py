"""Generating function routes to the alternating binomial identities."""

import itertools
from pathlib import Path

import pytest

from gammashell import genfun
from gammashell.complexes import (
    ComplexParams,
    f_vector_formula,
    reduced_euler_characteristic,
)
from gammashell.errors import DomainError, VerificationError
from gammashell.genfun import (
    alignment_check,
    alternating_homology_count,
    det_I_minus_X,
    dixon_product_coefficient,
    master_theorem_check,
    master_theorem_inverse_coefficient,
    master_theorem_product_coefficient,
    matrix_A,
    matrix_B,
    series_g_r,
    series_P,
    series_XY,
)
from gammashell.identities import (
    aigner_rhs,
    dixon_lhs,
    dixon_rhs,
    power_sum_lhs,
    threeF2_lhs,
    threeF2_rhs,
)
from gammashell.series import MSeries, dump_series
from gammashell.shelling import homology_families

GOLDEN = Path(__file__).parent / "golden"


# -- closed-form identities ---------------------------------------------------


def test_alternating_cube_sum_examples():
    assert dixon_lhs(2) == -6
    assert dixon_lhs(3) == 0
    assert dixon_lhs(4) == 90
    assert dixon_rhs(2) == -6
    assert dixon_rhs(3) == 0
    assert dixon_rhs(4) == 90


def test_lhs_matches_rhs_for_small_n():
    for n in range(1, 26):
        assert dixon_lhs(n) == dixon_rhs(n)
        assert power_sum_lhs(n, 2) == aigner_rhs(n)


def test_first_power_telescopes():
    assert all(power_sum_lhs(n, 1) == 0 for n in range(1, 12))


def test_identity_domain_errors():
    with pytest.raises(DomainError):
        dixon_lhs(0)
    with pytest.raises(DomainError):
        dixon_rhs(-1)
    with pytest.raises(DomainError):
        power_sum_lhs(3, 0)
    with pytest.raises(DomainError):
        threeF2_lhs(1, -1, 1)
    with pytest.raises(DomainError):
        threeF2_rhs(-1, 0, 0)


def test_threeF2_examples():
    assert threeF2_lhs(1, 1, 1) == 0
    assert threeF2_lhs(2, 1, 1) == -2
    assert threeF2_rhs(2, 1, 1) == -2
    assert threeF2_lhs(2, 0, 0) == 0
    assert threeF2_rhs(2, 0, 0) == 0


def test_threeF2_agrees_everywhere_small():
    for n1, n2, n3 in itertools.product(range(6), repeat=3):
        assert threeF2_lhs(n1, n2, n3) == threeF2_rhs(n1, n2, n3), (n1, n2, n3)


def test_threeF2_specializes_to_the_cube_sum():
    for n in range(1, 9):
        assert threeF2_lhs(n, n, n) == dixon_lhs(n)


# -- the column series P and its powers ---------------------------------------


def test_series_P_is_a_column_indicator():
    p = series_P(6)
    assert p.coefficient((1, 2, 2)) == 1
    assert p.coefficient((2, 2, 2)) == 0
    assert p.coefficient((1, 1, 1)) == 0
    for e, c in p.coeffs.items():
        assert c == 1
        assert min(e) == 1 and max(e) > 1


def test_series_P_constructions_agree():
    # series_P raises VerificationError unless its two builds agree
    series_P(8)


def test_series_P_compares_its_two_constructions(monkeypatch):
    closed_P = genfun._closed_P

    def shifted_P(T):
        return closed_P(T) + MSeries.monomial(3, T, (2, 2, 2))

    monkeypatch.setattr(genfun, "_closed_P", shifted_P)
    with pytest.raises(VerificationError, match="series_P"):
        series_P(6)


def test_series_P_rejects_bad_input():
    with pytest.raises(DomainError):
        series_P(1)


def test_g_1_is_P():
    assert series_g_r(1, 6) == series_P(6)


def test_g_2_needs_two_in_every_coordinate():
    g2 = series_g_r(2, 6)
    for e in g2.coeffs:
        assert min(e) >= 2


def test_g_r_diagonal_counts_facets_by_size():
    # the diagonal coefficient at (m, m, m) counts facets of the complex on
    # m - 1 values whose x-family member has exactly r - 1 vertices
    for r in (2, 3):
        g = series_g_r(r, 7)
        for m in range(2, 6):
            expected = sum(
                1
                for f in homology_families(ComplexParams(3, m - 1))[0]
                if len(f) == r - 1
            )
            assert g.coefficient((m, m, m)) == expected


def test_series_g_r_rejects_bad_input():
    with pytest.raises(DomainError):
        series_g_r(0, 6)
    with pytest.raises(DomainError):
        series_g_r(3, 5)


# -- the full signed series XY ------------------------------------------------


def test_series_XY_examples():
    xy = series_XY(6)
    assert xy.coefficient((1, 1, 1)) == 1
    assert xy.coefficient((2, 2, 2)) == 0
    assert xy.coefficient((3, 3, 3)) == -6


def test_series_XY_constructions_agree():
    # series_XY raises VerificationError unless its two builds agree
    series_XY(8)


def test_series_XY_diagonal_is_the_cube_sum():
    xy = series_XY(7)
    for n in range(1, 7):
        assert xy.coefficient((n + 1,) * 3) == dixon_lhs(n)


def test_series_XY_rejects_bad_input():
    with pytest.raises(DomainError):
        series_XY(0)


@pytest.mark.parametrize(
    "name,factory",
    [("series_P_T6.txt", lambda: series_P(6)), ("series_XY_T6.txt", lambda: series_XY(6))],
)
def test_series_golden_files(name, factory):
    assert dump_series(factory()) == (GOLDEN / name).read_text()


# -- determinant route --------------------------------------------------------


def test_det_of_the_cycle_matrix():
    det = det_I_minus_X(matrix_A(), 3)
    assert det.coeffs == {
        (0, 0, 0): 1,
        (1, 0, 0): -1,
        (0, 1, 0): -1,
        (0, 0, 1): -1,
        (1, 1, 0): 1,
        (1, 0, 1): 1,
        (0, 1, 1): 1,
    }


def test_det_of_the_skew_matrix():
    det = det_I_minus_X(matrix_B(), 3)
    assert det.coeffs == {
        (0, 0, 0): 1,
        (1, 1, 0): 1,
        (1, 0, 1): 1,
        (0, 1, 1): 1,
    }


def test_product_coefficient_example():
    matrix = ((1, 1), (1, 1))
    assert master_theorem_product_coefficient(matrix, (2, 2)) == 6
    assert master_theorem_check(matrix, (2, 2))


@pytest.mark.parametrize("matrix_factory", [matrix_A, matrix_B])
def test_master_theorem_on_the_named_matrices(matrix_factory):
    for n in range(1, 5):
        assert master_theorem_check(matrix_factory(), (n, n, n))


def test_master_theorem_rejects_bad_input():
    for extract in (master_theorem_check, master_theorem_inverse_coefficient):
        with pytest.raises(DomainError):
            extract(((1, 0), (0, 1), (0, 0)), (1, 1))
        with pytest.raises(DomainError):
            extract(matrix_A(), (1, 1))


def test_dixon_product_coefficient_matches_the_sum():
    for n in range(1, 6):
        assert dixon_product_coefficient(n) == dixon_lhs(n)
    with pytest.raises(DomainError):
        dixon_product_coefficient(0)


# -- diagonal alignment -------------------------------------------------------


def test_alternating_homology_count_examples():
    assert alternating_homology_count(2) == -6
    assert alternating_homology_count(3) == 0
    assert alternating_homology_count(4) == 90


@pytest.mark.parametrize(
    "p,n_max", [(1, 12), (2, 30), (3, 16), (4, 9), (6, 5)]
)
def test_signed_count_is_the_power_sum_and_minus_euler(p, n_max):
    for n in range(1, n_max + 1):
        params = ComplexParams(p, n)
        count = alternating_homology_count(n, p)
        assert count == power_sum_lhs(n, p), n
        assert count == -reduced_euler_characteristic(f_vector_formula(params)), n


def test_alignment_pins_the_unit_offset():
    report = alignment_check(n_max=4)
    assert report.pinned_delta == 1
    assert [d for d, hit in report.matches.items() if hit] == [1]
    assert report.end_to_end_ok
    for values in report.end_to_end.values():
        assert len(set(values.values())) == 1


def test_alignment_check_rejects_bad_input():
    with pytest.raises(DomainError):
        alignment_check(n_max=1)
