"""Boundary matrices, exact sparse rank, and matrix-route Betti numbers."""

import itertools
import random
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import invariant_factors

from gammashell import homology
from gammashell.complexes import (
    ComplexParams,
    _alternating,
    enumerate_faces,
    f_vector_formula,
    reduced_euler_characteristic,
)
from gammashell.errors import BudgetError, DomainError
from gammashell.homology import (
    SparseBoundaryMatrix,
    _pivots,
    betti_numbers,
    boundary_matrix,
    chain_ranks,
    is_torsion_free,
    matrix_rank,
    matrix_to_triplets,
    shuffled_rank,
    sparse_rank,
)
from gammashell.shelling import betti_from_shelling


def to_sympy(matrix: SparseBoundaryMatrix) -> sympy.Matrix:
    dense = sympy.zeros(matrix.rows, matrix.cols)
    for (r, c), v in matrix.entries.items():
        dense[r, c] = v
    return dense


def test_boundary_matrix_of_the_single_edge():
    m = boundary_matrix(ComplexParams(3, 2), 1)
    assert (m.rows, m.cols) == (8, 1)
    assert m.entries == {(0, 0): 1, (7, 0): -1}


def test_boundary_matrix_at_dimension_zero_is_the_augmentation():
    m = boundary_matrix(ComplexParams(3, 2), 0)
    assert (m.rows, m.cols) == (1, 8)
    assert m.entries == {(0, c): -1 for c in range(8)}


@pytest.mark.parametrize("p,n", [(1, 4), (2, 3), (3, 3), (3, 4)])
def test_boundary_columns_have_alternating_signs(p, n):
    params = ComplexParams(p, n)
    for k in range(n):
        m = boundary_matrix(params, k)
        by_col: dict[int, list[int]] = {}
        for (r, c), v in m.entries.items():
            by_col.setdefault(c, []).append(v)
        assert set(by_col) == set(range(m.cols))
        for vals in by_col.values():
            assert len(vals) == k + 1
            assert sum(vals) == (0 if k % 2 else -1)


def sparse_compose(outer: SparseBoundaryMatrix, inner: SparseBoundaryMatrix):
    """Entries of outer @ inner, computed straight from the entry dicts."""
    outer_by_col: dict[int, list[tuple[int, int]]] = {}
    for (r, c), v in outer.entries.items():
        outer_by_col.setdefault(c, []).append((r, v))
    product: dict[tuple[int, int], int] = {}
    for (mid, c), v in inner.entries.items():
        for r, w in outer_by_col.get(mid, ()):
            key = (r, c)
            product[key] = product.get(key, 0) + w * v
    return {k: v for k, v in product.items() if v}


@pytest.mark.parametrize("p,n", [(1, 4), (2, 4), (3, 4)])
def test_consecutive_boundaries_compose_to_zero(p, n):
    params = ComplexParams(p, n)
    for k in range(n - 1):
        outer = boundary_matrix(params, k)
        inner = boundary_matrix(params, k + 1)
        assert sparse_compose(outer, inner) == {}


def face_of_index(params: ComplexParams, r: int, index: int) -> tuple:
    """The face with r vertices at an index of the chain's integer order."""
    subsets = list(itertools.combinations(range(1, params.n + 1), r))
    columns = []
    for _ in range(params.p):
        index, rank = divmod(index, len(subsets))
        columns.append(subsets[rank])
    # the last coordinate is the least significant digit
    return tuple(zip(*reversed(columns)))


SMALL_GRID = [(p, n) for p in (1, 2, 3) for n in range(1, 5)] + [(4, n) for n in range(1, 4)]


@pytest.mark.parametrize("p,n", SMALL_GRID)
def test_chain_and_entries_view_match_the_single_matrices(p, n):
    # the entries view reads by_row in row-major order, on the single
    # matrices and on the relative chain alike
    params = ComplexParams(p, n)
    single = [boundary_matrix(params, k) for k in range(n)]
    chain = list(homology._boundary_chain(params))
    assert [m.k for m in chain] == list(range(n))
    for m in single:
        # every k-face has k + 1 faces of dimension k - 1
        assert sum(map(len, m.by_row)) == (m.k + 1) * m.cols
    for m in single + chain:
        entries = m.entries
        assert len(entries) == sum(map(len, m.by_row))
        assert list(entries) == sorted(entries)
        for (r, c), v in entries.items():
            assert m.by_row[r][c] == v


# -- relative chain ----------------------------------------------------------


def in_diagonal_stars(params: ComplexParams, face: tuple) -> bool:
    """Brute force: face plus some (i, ..., i) is a chain, strictly increasing
    in every coordinate."""
    for i in range(1, params.n + 1):
        chain = sorted(set(face) | {(i,) * params.p})
        if all(a < b for u, v in zip(chain, chain[1:]) for a, b in zip(u, v)):
            return True
    return False


def relative_chain_and_kept(params, monkeypatch):
    """The relative chain, and per dimension -1, 0, ... the full face index
    of each of its rows and columns, read off the assembly's face maps."""
    maps = []
    real = homology._indexed_boundary

    def recording(*args):
        matrix, col_of = real(*args)
        maps.append(col_of)
        return matrix, col_of

    monkeypatch.setattr(homology, "_indexed_boundary", recording)
    chain = list(homology._boundary_chain(params))
    monkeypatch.undo()
    kept = [list(range(chain[0].rows))]  # the empty face, index 0, if kept
    for m, col_of in zip(chain, maps):
        # kept faces are numbered by rank in the integer face order
        assert [c for c in col_of if c >= 0] == list(range(m.cols))
        kept.append([f for f, c in enumerate(col_of) if c >= 0])
    return chain, kept


@pytest.mark.parametrize("p,n", SMALL_GRID)
def test_relative_chain_keeps_the_faces_outside_the_diagonal_stars(p, n, monkeypatch):
    params = ComplexParams(p, n)
    chain, kept = relative_chain_and_kept(params, monkeypatch)
    assert [chain[0].rows] + [m.cols for m in chain] == list(map(len, kept))
    for dim in range(-1, n):
        outside = {f for f in enumerate_faces(params, dim) if not in_diagonal_stars(params, f)}
        assert {face_of_index(params, dim + 1, f) for f in kept[dim + 1]} == outside


@pytest.mark.parametrize("p,n", SMALL_GRID)
def test_relative_chain_is_the_full_chain_restricted(p, n, monkeypatch):
    # decoded to their sigma-order positions, the kept faces carry exactly
    # boundary_matrix's entries and signs between them
    params = ComplexParams(p, n)
    chain, kept = relative_chain_and_kept(params, monkeypatch)
    position = [
        {face: i for i, face in enumerate(enumerate_faces(params, dim))}
        for dim in range(-1, n)
    ]
    sigma = [
        [position[r][face_of_index(params, r, f)] for f in faces]
        for r, faces in enumerate(kept)
    ]
    for k, m in enumerate(chain):
        oracle = boundary_matrix(params, k)
        rows, cols = sigma[k], sigma[k + 1]
        keep_rows, keep_cols = set(rows), set(cols)
        assert {(rows[r], cols[c]): v for (r, c), v in m.entries.items()} == {
            (r, c): v
            for (r, c), v in oracle.entries.items()
            if r in keep_rows and c in keep_cols
        }


@pytest.mark.parametrize(
    "p,n", [(p, n) for p, top in ((1, 4), (2, 5), (3, 6), (4, 5)) for n in range(1, top + 1)]
)
def test_relative_chain_has_the_full_chains_betti_numbers_and_torsion_verdict(p, n):
    params = ComplexParams(p, n)
    full = [boundary_matrix(params, k) for k in range(n)]
    # _pivots eliminates a copy; _cleared_ranks then takes the rows themselves
    full_verdict = all(unimodular for m in full for _, unimodular in _pivots(m.by_row))
    faces, ranks, _ = homology._cleared_ranks(full)
    assert betti_numbers(params) == homology.betti_from_ranks(faces, ranks)
    assert is_torsion_free(params) is (True if full_verdict else None)


def test_boundary_matrix_rejects_bad_dimensions():
    params = ComplexParams(3, 2)
    with pytest.raises(DomainError):
        boundary_matrix(params, -1)
    with pytest.raises(DomainError):
        boundary_matrix(params, 2)


def test_boundary_matrix_budget():
    with pytest.raises(BudgetError, match="dimension 1"):
        boundary_matrix(ComplexParams(3, 3), 1, budget=100)
    m = boundary_matrix(ComplexParams(3, 3), 1, budget=None)
    assert (m.rows, m.cols) == (27, 27)


@pytest.mark.parametrize(
    "route", [betti_numbers, is_torsion_free, chain_ranks], ids=lambda f: f.__name__
)
def test_over_budget_chain_is_refused_before_any_face_is_listed(monkeypatch, route):
    def assembling(*args, **kwargs):
        raise AssertionError("a boundary matrix was assembled")

    monkeypatch.setattr(homology, "_indexed_boundary", assembling)
    # d_0 and d_1 of Gamma_3(9) fit in the budget, d_2 has 46656x592704 cells
    with pytest.raises(BudgetError, match="dimension 2 has 46656x592704 cells"):
        route(ComplexParams(3, 9))


def test_sparse_rank_matches_sympy_on_random_matrices():
    rng = random.Random(0)
    for _ in range(25):
        n_rows = rng.randint(1, 8)
        n_cols = rng.randint(1, 10)
        dense = [
            [rng.randint(-3, 3) if rng.random() < 0.5 else 0 for _ in range(n_cols)]
            for _ in range(n_rows)
        ]
        rows = [
            {c: v for c, v in enumerate(row) if v}
            for row in dense
        ]
        assert sparse_rank(rows) == sympy.Matrix(dense).rank()


def test_sparse_rank_ignores_explicit_zeros():
    assert sparse_rank([{0: 0}]) == 0
    assert sparse_rank([{0: 0, 1: 0}, {1: 0}]) == 0
    assert sparse_rank([{0: 1, 1: 0}, {0: 2, 1: 0}]) == 1


@pytest.mark.parametrize(
    "rows", [[{0: 1.5, 1: 2}, {0: 3, 1: 1}], [{0: "1"}, {0: 1}]]
)
def test_sparse_rank_rejects_non_integer_entries(rows):
    with pytest.raises(DomainError, match="not an int"):
        sparse_rank(rows)


# -- frozen elimination reference ---------------------------------------------
#
# The elimination below rescans every live column for the pivot, one min()
# per step.  It is kept verbatim (plus the pivot record) as an oracle for the
# pivot queue in sparse_rank and must not be changed with it.  It counts an
# explicit zero entry as a nonzero, so it is fed rows without zeros.


def _reference_normalize_row(row):
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for c in row:
            row[c] //= g


def _reference_sparse_rank(rows, pivots):
    active = {i: dict(r) for i, r in enumerate(rows) if r}
    col_rows = {}
    for i, row in active.items():
        for c in row:
            col_rows.setdefault(c, set()).add(i)
    rank = 0
    while active:
        pivot_col = min(col_rows, key=lambda c: (len(col_rows[c]), c))
        pivots.append(pivot_col)
        candidates = col_rows[pivot_col]
        pivot_row_id = min(
            candidates,
            key=lambda i: (abs(active[i][pivot_col]) != 1, len(active[i]), i),
        )
        pivot_row = active[pivot_row_id]
        pivot_val = pivot_row[pivot_col]
        rank += 1
        for i in list(candidates):
            if i == pivot_row_id:
                continue
            row = active[i]
            factor = row[pivot_col]
            for c in row:
                col_rows[c].discard(i)
            new_row = {}
            for c in set(row) | set(pivot_row):
                val = pivot_val * row.get(c, 0) - factor * pivot_row.get(c, 0)
                if val:
                    new_row[c] = val
            _reference_normalize_row(new_row)
            if new_row:
                active[i] = new_row
                for c in new_row:
                    col_rows.setdefault(c, set()).add(i)
            else:
                del active[i]
        for c in pivot_row:
            col_rows[c].discard(pivot_row_id)
            if not col_rows[c]:
                del col_rows[c]
        del active[pivot_row_id]
    return rank


def reference_pivots(rows):
    pivots = []
    nonzero = [{c: v for c, v in r.items() if v} for r in rows]
    rank = _reference_sparse_rank(nonzero, pivots)
    assert rank == len(pivots)
    return pivots


@st.composite
def integer_matrices(draw):
    """Sparse rows with entries in -3..3, explicit zeros kept, of any shape.

    Absent and zero entries make up most draws so rows stay sparse; some
    rows are multiples of earlier ones, which makes rank deficits and rows
    that cancel to nothing.
    """
    n_rows = draw(st.integers(0, 9))
    n_cols = draw(st.integers(1, 9))
    entry = st.one_of(st.none(), st.just(0), st.integers(-3, 3))
    rows = []
    for _ in range(n_rows):
        if rows and draw(st.integers(0, 3)) == 0:
            source = draw(st.sampled_from(rows))
            scale = draw(st.sampled_from([1, -1, 2, -3]))
            rows.append({c: scale * v for c, v in source.items()})
        else:
            drawn = {c: draw(entry) for c in range(n_cols)}
            rows.append({c: v for c, v in drawn.items() if v is not None})
    return rows


@settings(max_examples=300)
@given(integer_matrices())
def test_sparse_rank_matches_the_frozen_elimination(rows):
    expected = reference_pivots(rows)
    assert sparse_rank(rows) == len(expected)
    assert [c for c, _ in _pivots(rows)] == expected


@pytest.mark.parametrize("p,n", [(1, 4), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)])
def test_pivot_sequence_matches_the_frozen_elimination(p, n, monkeypatch):
    seen = []
    real = homology._eliminate

    def recording(active):
        # the elimination updates its rows in place: copy them first, each
        # at its row id, which breaks ties in the pivot row choice
        rows = [{} for _ in range(max(active, default=-1) + 1)]
        for i, row in active.items():
            rows[i] = dict(row)
        seen.append(rows)
        return real(active)

    monkeypatch.setattr(homology, "_eliminate", recording)
    params = ComplexParams(p, n)
    for k in range(n):
        m = boundary_matrix(params, k)
        matrix_rank(m)
        for seed in range(3):
            shuffled_rank(m, seed)
    assert len(seen) == 4 * n
    monkeypatch.undo()  # else the replays below would be recorded too
    for rows in seen:
        assert [c for c, _ in _pivots(rows)] == reference_pivots(rows)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_matrix_rank_matches_sympy_on_boundary_matrices(k):
    m = boundary_matrix(ComplexParams(3, 3), k)
    assert matrix_rank(m) == to_sympy(m).rank()


@pytest.mark.parametrize(
    "rank", [matrix_rank, lambda m: shuffled_rank(m, 0)], ids=["matrix_rank", "shuffled_rank"]
)
def test_matrix_rank_leaves_the_matrix_intact(rank):
    m = boundary_matrix(ComplexParams(3, 3), 1)
    before = [dict(row) for row in m.by_row]
    rank(m)
    assert m.by_row == before


def test_shuffled_rank_is_permutation_invariant():
    m = boundary_matrix(ComplexParams(3, 3), 1)
    base = matrix_rank(m)
    for seed in range(4):
        assert shuffled_rank(m, seed) == base


# -- cleared rank chain ----------------------------------------------------------


@st.composite
def simplicial_complexes(draw):
    """Faces by dimension, -1 first, of a random complex on up to 7 vertices.

    A few random top faces are drawn and closed downward, so the complex is
    generic rather than one of the Gamma_p(n).
    """
    n_vertices = draw(st.integers(1, 7))
    vertex = st.integers(0, n_vertices - 1)
    top_face = st.sets(vertex, min_size=1, max_size=5)
    tops = draw(st.lists(top_face, min_size=1, max_size=6))
    faces = {()}
    for top in tops:
        for size in range(1, len(top) + 1):
            faces.update(itertools.combinations(sorted(top), size))
    return [
        sorted(f for f in faces if len(f) == size)
        for size in range(1 + max(len(f) for f in faces))
    ]


def boundary_chain(by_dim):
    """d_0, d_1, ... of a complex given by its faces of dimension -1, 0, ..."""
    chain = []
    for k in range(len(by_dim) - 1):
        row_index = {f: i for i, f in enumerate(by_dim[k])}
        by_row = [{} for _ in by_dim[k]]
        for c, face in enumerate(by_dim[k + 1]):
            for m in range(1, k + 2):
                sub = face[: m - 1] + face[m:]
                by_row[row_index[sub]][c] = -1 if m % 2 else 1
        chain.append(SparseBoundaryMatrix(k, len(by_dim[k + 1]), by_row))
    return chain


def assert_cleared_ranks_are_full_ranks(make_chain, seeds):
    # the cleared ranks eliminate the rows of the matrices they rank in
    # place, so each call gets a fresh chain
    chain = make_chain()
    faces = [chain[0].rows] + [m.cols for m in chain]
    expected = [matrix_rank(m) for m in chain]
    assert homology._cleared_ranks(iter(make_chain())) == (faces, expected, None)
    for seed in seeds:
        assert homology._cleared_ranks(iter(make_chain()), seed) == (faces, expected, expected)


@settings(max_examples=100)
@given(simplicial_complexes(), st.integers(0, 2**32))
def test_cleared_ranks_match_full_ranks_on_random_complexes(by_dim, seed):
    assert_cleared_ranks_are_full_ranks(lambda: boundary_chain(by_dim), [seed])


GAMMA_GRID = [
    (p, n) for p, top in ((1, 5), (2, 5), (3, 5), (4, 4)) for n in range(1, top + 1)
]


@pytest.mark.parametrize("p,n", GAMMA_GRID)
def test_cleared_ranks_match_full_ranks_on_gamma(p, n):
    params = ComplexParams(p, n)
    assert_cleared_ranks_are_full_ranks(
        lambda: [boundary_matrix(params, k) for k in range(n)], range(3)
    )


def test_betti_numbers_examples():
    assert betti_numbers(ComplexParams(3, 1)) == (0, 0)
    assert betti_numbers(ComplexParams(3, 2)) == (0, 6, 0)
    assert betti_numbers(ComplexParams(3, 4)) == (0, 18, 114, 6, 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_full_simplex_has_trivial_homology(n):
    # p = 1 gives the full simplex on n vertices, which is contractible
    assert betti_numbers(ComplexParams(1, n)) == (0,) * (n + 1)


@pytest.mark.parametrize("p,n", [(1, 4), (2, 4), (2, 5), (3, 4)])
def test_matrix_route_agrees_with_the_shelling_route(p, n):
    params = ComplexParams(p, n)
    assert betti_numbers(params) == betti_from_shelling(params)


@pytest.mark.parametrize("p,n", [(1, 3), (2, 4), (3, 3), (3, 4)])
def test_euler_poincare(p, n):
    params = ComplexParams(p, n)
    assert _alternating(betti_numbers(params)) == reduced_euler_characteristic(
        f_vector_formula(params)
    )


def test_triplet_rendering():
    m = boundary_matrix(ComplexParams(3, 2), 1)
    assert matrix_to_triplets(m) == "%% 8 1\n0 0 1\n7 0 -1\n"


# -- torsion certificate --------------------------------------------------------


def certified(rows):
    return all(unimodular for _, unimodular in _pivots(rows))


def invariant_factor_set(dense) -> set:
    """sympy's invariant factors, the oracle independent of the elimination."""
    return set(invariant_factors(dense, domain=sympy.ZZ))


@pytest.mark.parametrize(
    "rows",
    [
        [{0: 2}],
        # [[1, 0], [1, 2]]: Z/2 torsion behind a pivot of 2
        [{0: 1}, {0: 1, 1: 2}],
        [{0: 2, 1: 4}],
        # [[1, 1], [1, -1]]: unit pivots, but the update divides a row by 2
        [{0: 1, 1: 1}, {0: 1, 1: -1}],
    ],
)
def test_non_unimodular_eliminations_are_not_certified(rows):
    assert not certified(rows)


@settings(max_examples=300)
@given(integer_matrices())
def test_certified_matrices_have_unit_invariant_factors(rows):
    if not certified(rows):
        return
    cols = 1 + max((c for r in rows for c in r), default=0)
    dense = sympy.Matrix(len(rows), cols, lambda i, j: rows[i].get(j, 0))
    assert invariant_factor_set(dense) <= {0, 1}


TORSION_FREE_CASES = (
    [(1, 3)]
    + [(2, n) for n in range(1, 8)]
    + [(3, n) for n in range(1, 7)]
    + [(4, n) for n in range(1, 6)]
    # 0.3 s, kept out of Tier-1, which has no time to spare
    + [pytest.param(2, 8, marks=pytest.mark.slow)]
)


@pytest.mark.parametrize("p,n", TORSION_FREE_CASES)
def test_integral_homology_is_torsion_free(p, n):
    params = ComplexParams(p, n)
    assert is_torsion_free(params) is True
    if p <= 3 and n <= 4:
        for k in range(n):
            dense = to_sympy(boundary_matrix(params, k))
            assert invariant_factor_set(dense) <= {0, 1}


def test_torsion_certificate_is_undecided_on_a_non_unit_pivot(monkeypatch):
    # every Gamma is torsion-free, so only a chain put in its place reaches
    # the undecided answer; a pivot of 2 proves nothing, so never False
    def chain(params, budget=None):
        yield SparseBoundaryMatrix(0, 1, [{0: 2}])

    monkeypatch.setattr(homology, "_boundary_chain", chain)
    assert is_torsion_free(ComplexParams(3, 2)) is None


@pytest.mark.slow
def test_matrix_route_at_n8():
    # the cleared chain without a budget; the figures match the frozen
    # homology-facet census of test_criterion_matches_direct_attachment_at_n8
    betti = betti_numbers(ComplexParams(3, 8), budget=None)
    assert betti == (0, 42, 3222, 42510, 100530, 26640, 90, 0, 0)
