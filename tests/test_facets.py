"""Facet recognition, twist sets, shift vectors, and the exchange format."""

import itertools

import pytest

from gammashell import facets as facets_module
from gammashell.complexes import ComplexParams, enumerate_faces, is_face, order_key
from gammashell.errors import BudgetError, DomainError, PreconditionError
from gammashell.facets import (
    enumerate_facets,
    facet_certificate,
    facet_counts,
    facet_from_shift_vectors,
    format_facets,
    shift_vectors,
    twist_sets,
)

from .conftest import (
    REFERENCE_SHAPES,
    all_faces_bruteforce,
    cached_facets,
    is_maximal_bruteforce,
    reference_enumerate_facets,
)

# facet counts of Delta(n), frozen from enumeration cross-checked against
# brute-force maximality below
DELTA_FACET_COUNTS = {1: 1, 2: 7, 3: 37, 4: 217, 5: 1327, 6: 8377}


def test_facet_certificate_examples():
    params = ComplexParams(3, 2)
    cert = facet_certificate(params, [(1, 1, 1), (2, 2, 2)])
    assert cert.p1 and cert.p2 and cert.p3 and cert.is_facet
    cert = facet_certificate(params, [(1, 1, 1)])
    assert not cert.p1 and cert.p2 and cert.p3 and not cert.is_facet
    cert = facet_certificate(params, [(2, 2, 1)])
    assert cert.is_facet


def test_facet_certificate_rejects_bad_input():
    params = ComplexParams(3, 3)
    with pytest.raises(DomainError):
        facet_certificate(params, [])
    with pytest.raises(DomainError):
        facet_certificate(params, [(1, 1, 1), (1, 2, 2)])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_certificate_agrees_with_bruteforce_maximality(n):
    params = ComplexParams(3, n)
    for dim in range(n):
        for face in all_faces_bruteforce(params, dim):
            assert (
                facet_certificate(params, face).is_facet
                == is_maximal_bruteforce(params, face)
            ), face


# subset filtering over 4**4 vertices is infeasible, so walk the streamed
# faces and keep only the insertion test as the independent oracle
@pytest.mark.parametrize("p,n", [(1, 4), (2, 4), (4, 3), (4, 4)])
def test_certificate_generalizes_beyond_three_coordinates(p, n):
    params = ComplexParams(p, n)
    for dim in range(n):
        for face in enumerate_faces(params, dim):
            assert (
                facet_certificate(params, face).is_facet
                == is_maximal_bruteforce(params, face)
            ), face


@pytest.mark.parametrize("n", sorted(DELTA_FACET_COUNTS))
def test_enumerate_facets_counts(n):
    assert len(cached_facets(3, n)) == DELTA_FACET_COUNTS[n]


def test_enumerate_facets_sorted_and_certified():
    for n in (2, 3, 4):
        fs = list(cached_facets(3, n))
        assert fs == sorted(fs, key=order_key)
        assert len(set(fs)) == len(fs)
        params = ComplexParams(3, n)
        assert all(facet_certificate(params, f).is_facet for f in fs)


@pytest.mark.parametrize(
    "p,n", [(1, 6), (2, 6), (3, 5), (3, 6), (3, 7), (4, 4), (4, 5), (5, 3)]
)
def test_enumerate_facets_is_in_order_key_order(p, n):
    fs = enumerate_facets(ComplexParams(p, n))
    assert fs == sorted(fs, key=order_key)


def test_enumerate_facets_equals_maximal_faces():
    for p, n in [(2, 3), (3, 3)]:
        params = ComplexParams(p, n)
        maximal = [
            face
            for dim in range(n)
            for face in all_faces_bruteforce(params, dim)
            if is_maximal_bruteforce(params, face)
        ]
        assert sorted(cached_facets(p, n)) == sorted(maximal)


def test_enumerate_facets_budget(monkeypatch):
    # the closed-form count refuses before the search starts
    def no_search(*args, **kwargs):
        raise AssertionError("the facet search started")

    monkeypatch.setattr(facets_module, "_chain_search", no_search)
    with pytest.raises(BudgetError, match="37 facets"):
        enumerate_facets(ComplexParams(3, 3), budget=5)


def test_facet_counts_pinned_totals():
    # Gamma_3(8) as the shelling sweep counts it; Gamma_3(11) is the first
    # Delta(n) over the default face budget of 10^8
    assert sum(facet_counts(ComplexParams(3, 8))) == 355993
    assert sum(facet_counts(ComplexParams(3, 11))) == 108849859


@pytest.mark.parametrize("p,n", REFERENCE_SHAPES)
def test_enumerate_facets_matches_the_frozen_search(p, n):
    params = ComplexParams(p, n)
    want = reference_enumerate_facets(params)
    assert enumerate_facets(params) == want
    by_size = [0] * (n + 1)
    for f in want:
        by_size[len(f)] += 1
    assert facet_counts(params) == tuple(by_size)
    count = len(want)
    for budget in (0, 5, count - 1, count):
        try:
            want_budgeted = reference_enumerate_facets(params, budget)
        except BudgetError:
            with pytest.raises(BudgetError):
                enumerate_facets(params, budget)
        else:
            assert enumerate_facets(params, budget) == want_budgeted


def test_complex_is_nonpure_and_disconnected():
    for n in range(2, 7):
        fs = cached_facets(3, n)
        sizes = {len(f) for f in fs}
        assert len(sizes) >= 2
        assert 1 in sizes  # an isolated vertex


def test_twist_sets_example():
    params = ComplexParams(3, 5)
    sets = twist_sets(params, [(1, 1, 2), (2, 5, 5)])
    assert sets.a_sets == ((1, 2), (0,))
    assert sets.b_sets == ((2,), (1, 2))


def test_twist_sets_requires_nonempty_face():
    with pytest.raises(DomainError):
        twist_sets(ComplexParams(3, 3), [])
    # vertices that do not increase strictly, and a repeated vertex
    for face in [((1, 2), (2, 1)), ((1, 1), (1, 1))]:
        with pytest.raises(DomainError, match="is not a face"):
            twist_sets(ComplexParams(2, 3), face)


@pytest.mark.parametrize("p,n", [(2, 5), (3, 4), (4, 3)])
def test_twist_sets_are_the_single_steps_that_stay_faces(p, n):
    # oracle: move one coordinate of one vertex by one and ask is_face; a
    # coordinate leaving [1, n] is not a face
    params = ComplexParams(p, n)
    values = range(1, n + 1)
    for facet in cached_facets(p, n):
        sets = twist_sets(params, facet)
        for ell, v in enumerate(facet):
            for step, allowed in ((1, sets.a_sets[ell]), (-1, sets.b_sets[ell])):
                for a in range(p):
                    w = v[:a] + (v[a] + step,) + v[a + 1 :]
                    moved = facet[:ell] + (w,) + facet[ell + 1 :]
                    stays = w[a] in values and is_face(params, moved)
                    assert (a in allowed) == stays, (facet, ell, a, step)


def test_shift_vectors_example():
    params = ComplexParams(3, 4)
    vectors = shift_vectors(params, [(1, 2, 2), (2, 4, 4)])
    assert vectors == ((1, 1, 3), (2, 2, 1), (2, 2, 1))
    assert all(sum(v) == 5 for v in vectors)


def test_shift_vectors_requires_facet():
    params = ComplexParams(3, 4)
    with pytest.raises(PreconditionError):
        shift_vectors(params, [(2, 2, 2)])


def test_shift_vector_columns_encode_the_facet_conditions():
    # column l has minimum 1 over the coordinate positions: the first column
    # encodes P2, middle columns P3 at each junction, the last column P1
    for n in (2, 3, 4):
        params = ComplexParams(3, n)
        for facet in cached_facets(3, n):
            vectors = shift_vectors(params, facet)
            for col in range(len(facet) + 1):
                assert min(v[col] for v in vectors) == 1, (facet, col)


@pytest.mark.parametrize("p,n", [(2, 4), (3, 4), (4, 3)])
def test_shift_vector_round_trip(p, n):
    params = ComplexParams(p, n)
    for facet in cached_facets(p, n):
        assert facet_from_shift_vectors(params, shift_vectors(params, facet)) == facet


def test_facet_from_shift_vectors_validation():
    params = ComplexParams(3, 4)
    with pytest.raises(DomainError):
        facet_from_shift_vectors(params, [(1, 4), (1, 4)])  # wrong count
    with pytest.raises(DomainError):
        facet_from_shift_vectors(params, [(1, 4), (1, 4), (2, 2, 1)])  # ragged
    with pytest.raises(DomainError):
        facet_from_shift_vectors(params, [(1, 4), (1, 4), (2, 2)])  # bad sum
    with pytest.raises(DomainError):
        facet_from_shift_vectors(params, [(0, 5), (1, 4), (1, 4)])  # zero entry
    for vectors in (5, [5, 5, 5]):
        with pytest.raises(DomainError, match="not a collection"):
            facet_from_shift_vectors(params, vectors)
    with pytest.raises(PreconditionError):
        facet_from_shift_vectors(params, [(2, 3), (1, 4), (1, 4)])  # not a facet


def test_format_facets_shape():
    params = ComplexParams(3, 2)
    text = format_facets(params, list(cached_facets(3, 2)))
    lines = text.splitlines()
    assert lines[0] == "# p=3 n=2"
    assert lines[1] == "(1,1,1) (2,2,2)"
    assert text.endswith("\n")


@pytest.mark.parametrize("n", [2, 3, 4])
def test_facet_golden_files(n):
    import pathlib

    golden = pathlib.Path(__file__).parent / "golden" / f"facets_p3_n{n}.txt"
    params = ComplexParams(3, n)
    text = format_facets(params, list(cached_facets(3, n)))
    assert text == golden.read_text()
