"""Face enumeration, f-vectors, and Euler characteristics."""

import itertools
from math import comb
from types import SimpleNamespace

import pytest
from hypothesis import given

from gammashell import complexes
from gammashell.complexes import (
    ComplexParams,
    canonical_face,
    check_vertex,
    enumerate_faces,
    f_vector_enumerated,
    f_vector_formula,
    is_face,
    order_key,
    reduced_euler_characteristic,
    sigma_word,
)
from gammashell.errors import BudgetError, DomainError
from gammashell.genfun import alignment_check, series_g_r, series_P
from gammashell.homology import betti_from_ranks
from gammashell.identities import (
    aigner_rhs,
    dixon_lhs,
    dixon_rhs,
    power_sum_lhs,
    threeF2_lhs,
    threeF2_rhs,
)
from gammashell.series import MSeries
from gammashell.shelling import verify_shelling

from .conftest import all_faces_bruteforce, faces


@pytest.mark.parametrize("p,n", [(0, 2), (3, 0), (-1, 4), (2, -2)])
def test_complex_params_rejects_bad_parameters(p, n):
    with pytest.raises(DomainError):
        ComplexParams(p, n)


@pytest.mark.parametrize(
    "p,n", [(3, "3"), ("3", 3), (3, 2.0), (2.0, 3), (True, 3), (3, False), (None, 2)]
)
def test_complex_params_rejects_non_integer_parameters(p, n):
    with pytest.raises(DomainError):
        ComplexParams(p, n)


@pytest.mark.parametrize(
    "call",
    [
        lambda: MSeries(2.5, 3),
        lambda: MSeries(3, 2.5),
        lambda: MSeries(True, 3),
        lambda: MSeries(3, False),
        lambda: series_P(2.5),
        lambda: series_g_r(2.5, 6),
        lambda: alignment_check(2.5),
        lambda: power_sum_lhs(3, 2.0),
        lambda: power_sum_lhs(2.0, 3),
        lambda: dixon_rhs(2.0),
        lambda: aigner_rhs(True),
        lambda: threeF2_lhs(1.5, 1, 1),
        lambda: threeF2_rhs(1, 1, "1"),
        lambda: verify_shelling(ComplexParams(3, 2), witness_limit=2.5),
        lambda: verify_shelling(ComplexParams(3, 2), witness_limit=True),
        lambda: betti_from_ranks(f_vector_formula(ComplexParams(3, 3)), [1]),
        lambda: betti_from_ranks(f_vector_formula(ComplexParams(3, 1)), [1.0]),
        # ranks of no chain complex: a negative one, and beta_2 = f_2 - rank d_2 = 1 - 3
        lambda: betti_from_ranks(f_vector_formula(ComplexParams(2, 3)), [-5, 0, 0]),
        lambda: betti_from_ranks(f_vector_formula(ComplexParams(2, 3)), [1, 2, 3]),
    ],
)
def test_integer_inputs_reject_other_types(call):
    with pytest.raises(DomainError):
        call()


def test_check_vertex_rejects_bad_coordinates():
    params = ComplexParams(3, 4)
    assert check_vertex(params, [1, 2, 4]) == (1, 2, 4)
    with pytest.raises(DomainError):
        check_vertex(params, (1, 2))
    with pytest.raises(DomainError):
        check_vertex(params, (1, 2, 5))
    with pytest.raises(DomainError):
        check_vertex(params, (0, 2, 3))


def test_canonical_face_sorts_by_first_coordinate():
    params = ComplexParams(3, 4)
    face = canonical_face(params, [(3, 3, 4), (1, 1, 2), (2, 2, 3)])
    assert face == ((1, 1, 2), (2, 2, 3), (3, 3, 4))


def test_is_face_examples():
    params = ComplexParams(2, 4)
    assert is_face(params, [])
    assert is_face(params, [(1, 1)])
    assert is_face(params, [(1, 1), (2, 2)])
    assert is_face(params, [(2, 2), (1, 1)])
    assert not is_face(params, [(1, 1), (1, 2)])
    assert not is_face(params, [(1, 2), (2, 2)])


@given(faces())
def test_generated_faces_are_faces(pair):
    params, face = pair
    assert is_face(params, face)


@given(faces(max_p=2, max_n=4))
def test_flattening_a_coordinate_breaks_the_face(pair):
    params, face = pair
    if len(face) < 2:
        return
    # copy one coordinate of the second vertex from the first
    v = list(face[1])
    v[0] = face[0][0]
    assert not is_face(params, (face[0], tuple(v)) + face[2:])


@pytest.mark.parametrize("p,n", [(1, 3), (2, 3), (3, 3), (2, 4)])
def test_enumerate_faces_matches_subset_filtering(p, n):
    params = ComplexParams(p, n)
    for dim in range(-1, n):
        got = enumerate_faces(params, dim)
        expected = all_faces_bruteforce(params, dim)
        assert sorted(got) == sorted(expected)


def test_enumerate_faces_is_sorted_and_duplicate_free():
    for p, n in ((3, 4), (2, 5), (4, 3)):
        params = ComplexParams(p, n)
        for dim in range(-1, n):
            got = enumerate_faces(params, dim)
            assert len(set(got)) == len(got)
            assert got == sorted(got, key=sigma_word)
            assert all(is_face(params, f) for f in got)


def test_enumerate_faces_degenerate_dimensions():
    params = ComplexParams(3, 2)
    assert enumerate_faces(params, -1) == [()]
    assert enumerate_faces(params, 2) == []
    assert enumerate_faces(params, -2) == []


def test_enumerate_faces_budget():
    params = ComplexParams(3, 6)
    # the faces come back as a list, so the budget is checked at the call
    with pytest.raises(BudgetError, match="dimension 2"):
        enumerate_faces(params, 2, budget=100)


def test_f_vector_formula_examples():
    assert f_vector_formula(ComplexParams(3, 2)) == (1, 8, 1)
    assert f_vector_formula(ComplexParams(3, 4)) == (1, 64, 216, 64, 1)
    assert f_vector_formula(ComplexParams(2, 4)) == (1, 16, 36, 16, 1)
    assert f_vector_formula(ComplexParams(1, 5)) == tuple(
        comb(5, s) for s in range(6)
    )


def test_f_vector_formula_running_product_equals_comb():
    for p in range(1, 6):
        for n in range(1, 61):
            expected = tuple(comb(n, s) ** p for s in range(n + 1))
            assert f_vector_formula(ComplexParams(p, n)) == expected
    assert f_vector_formula(ComplexParams(1, 2000)) == tuple(
        comb(2000, s) for s in range(2001)
    )


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_f_vector_enumerated_equals_formula(p, n):
    params = ComplexParams(p, n)
    assert f_vector_enumerated(params) == f_vector_formula(params)


@pytest.mark.parametrize("p,n", [(2, 9), (4, 5)])
def test_f_vector_enumerated_equals_formula_at_larger_sizes(p, n):
    params = ComplexParams(p, n)
    assert f_vector_enumerated(params) == f_vector_formula(params)


@pytest.mark.parametrize(
    "p,n", [(p, n) for p, top in ((1, 5), (2, 4), (3, 3)) for n in range(1, top + 1)]
)
def test_f_vector_enumerated_counts_the_brute_force_faces(p, n, monkeypatch):
    # with the closed form off by one, the count must still be that of the
    # brute-force lists, which never read it: an enumeration that returned
    # the formula would pass every check against the true formula
    params = ComplexParams(p, n)
    formula = complexes.f_vector_formula
    monkeypatch.setattr(
        complexes, "f_vector_formula", lambda params: tuple(f + 1 for f in formula(params))
    )
    assert f_vector_enumerated(params) == tuple(
        len(all_faces_bruteforce(params, dim)) for dim in range(-1, n)
    )


def test_f_vector_enumerated_budget(monkeypatch):
    # the closed form sizes the budget: no face is visited first
    def no_enumeration(*args, **kwargs):
        raise AssertionError("the face enumeration started")

    monkeypatch.setattr(complexes, "itertools", SimpleNamespace(product=no_enumeration))
    with pytest.raises(BudgetError, match="346 faces"):
        f_vector_enumerated(ComplexParams(3, 4), budget=10)


def test_f_vector_symmetry():
    for p, n in itertools.product(range(1, 4), range(1, 7)):
        f = f_vector_formula(ComplexParams(p, n))
        assert f == tuple(reversed(f))


def test_reduced_euler_examples():
    assert reduced_euler_characteristic((1, 8, 1)) == 6
    assert reduced_euler_characteristic((1, 27, 27, 1)) == 0
    for n in range(1, 7):
        assert reduced_euler_characteristic(f_vector_formula(ComplexParams(1, n))) == 0


def test_reduced_euler_requires_reduced_f_vector():
    with pytest.raises(DomainError):
        reduced_euler_characteristic((8, 1))
    with pytest.raises(DomainError):
        reduced_euler_characteristic(())


def test_euler_characteristic_equals_negated_cube_sum():
    for n in range(1, 11):
        chi = reduced_euler_characteristic(f_vector_formula(ComplexParams(3, n)))
        assert chi == -dixon_lhs(n)


def test_order_key_sorts_by_dimension_then_sigma_word():
    faces_list = [
        ((2, 2, 2),),
        ((1, 1, 1), (2, 2, 2)),
        ((1, 1, 2),),
        ((1, 2, 1), (2, 3, 3)),
    ]
    ordered = sorted(faces_list, key=order_key)
    assert ordered == [
        ((1, 1, 1), (2, 2, 2)),
        ((1, 2, 1), (2, 3, 3)),
        ((1, 1, 2),),
        ((2, 2, 2),),
    ]
