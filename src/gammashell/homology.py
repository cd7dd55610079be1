"""Reduced simplicial homology of Gamma_p(n) over the rationals.

Boundary matrices are assembled straight into one {column: +-1} dict per
row.  boundary_matrix orders its faces by sigma word, the order of
enumerate_faces.  The chain d_0, d_1, ... that the ranks read lists no
face: it indexes each face by the lex ranks of its coordinates' subsets of
[n], much as Ripser indexes simplices by the combinatorial number system,
and reads each row index off a small drop table.  chain_ranks builds that
chain itself and eliminates each matrix's rows in place, so no matrix a
caller holds is ever changed.  Every rank counts the steps of one
fraction-free integer elimination, _eliminate, so Betti numbers are exact
integers.  The complexes here are homotopy equivalent to wedges of spheres,
hence integral homology is free and rational ranks tell the whole story.
The same elimination certifies that, and is_torsion_free reads it: when
every pivot is +-1 and no row is divided by a gcd > 1, every row operation
is unimodular and every nonzero elementary divisor is 1 (Dumas,
Heckenbach, Saunders and Welker, 2003).

The chain is that of the relative complex (Gamma, A), for A the union of
the closed stars st(v) of the vertices v = (i, ..., i) of the diagonal
facet G.  Gamma is an order complex, hence a flag complex, so each
intersection of these stars is the star of a face of G, a cone; A is
contractible by the nerve lemma (Bjorner, "Topological methods", Handbook
of Combinatorics, 1995, Thm 10.6).  The long exact sequence of the pair
then gives reduced H_k(Gamma; Z) = H_k(Gamma, A; Z) for every k.  The
isomorphism holds over Z, so the torsion certificate may run on the
relative chain too.  Its chain complex is the full one with the rows and
columns of A's faces deleted, so no new boundary formula is needed.  A face
F lies in A iff some (i, ..., i) lies in F or is comparable with every
vertex of F: for some i, each coordinate subset of F has the same pair
(#elements below i, i in subset).  The empty face lies in A.  At p = 3,
n = 5 the chain keeps 318 of the full chain's 5630 nonzeros.  G is a
fixed face: nothing here reads the shelling.

The Betti numbers rank the chain d_0, d_1, ... bottom-up with clearing
(Chen and Kerber, 2011; Bauer, "Ripser", 2021): since d_k d_{k+1} = 0,
the rows of d_{k+1} named by the pivot columns of d_k's elimination are
rational combinations of the other rows and are dropped before d_{k+1} is
eliminated.  That holds over Q only, so the torsion certificate runs its
eliminations on whole matrices, with no row cleared.  The cell budget
prices the full chain's matrices from the f-vector formula, an upper bound
on the relative chain's, so an over-budget matrix is refused before it is
assembled.
"""

from __future__ import annotations

import heapq
import itertools
import random
from bisect import bisect_left
from collections.abc import Container, Iterable, Iterator, Sequence
from math import gcd
from operator import add

from .complexes import (
    DEFAULT_CELL_BUDGET,
    ComplexParams,
    Face,
    enumerate_faces,
    f_vector_formula,
)
from .errors import DomainError, Record, _check_budget, _require_at_least, _require_ints

__all__ = [
    "SparseBoundaryMatrix",
    "betti_from_ranks",
    "betti_numbers",
    "boundary_matrix",
    "chain_ranks",
    "is_torsion_free",
    "matrix_rank",
    "matrix_to_triplets",
    "shuffled_rank",
    "sparse_rank",
]


class SparseBoundaryMatrix(Record):
    """Signed incidence matrix of dimension-k faces over dimension-(k-1) faces.

    by_row holds one dict per row, mapping each column to its +-1 entry;
    row faces are obtained from the column face by omitting one vertex,
    with sign (-1)^m for the m-th vertex (1-based).  k = 0 maps vertices to
    the single empty-face row.  rows is len(by_row).  Faces are in
    sigma-word order from boundary_matrix and in integer face order from
    the chain (see _indexed_boundary); ranks do not depend on the order.
    """

    _fields = ("k", "rows", "cols", "by_row")

    def __init__(self, k: int, cols: int, by_row: list[dict[int, int]]) -> None:
        super().__init__(k, len(by_row), cols, by_row)

    @property
    def entries(self) -> dict[tuple[int, int], int]:
        """(row, col) -> +-1, a copy built from by_row in row-major order."""
        return {(r, c): v for r, row in enumerate(self.by_row) for c, v in row.items()}


def _check_cells(
    params: ComplexParams, budget: int | None, dims: Iterable[int]
) -> None:
    """Refuse the first d_k, k in dims, whose f_{k-1} x f_k cells exceed budget.

    The sizes come from f_vector_formula, so no face is listed first.
    """
    f = f_vector_formula(params)
    for k in dims:
        what = f"cells (the boundary matrix at dimension {k} has {f[k]}x{f[k + 1]} cells)"
        _check_budget(f[k] * f[k + 1], budget, what)


def _assemble(k: int, sub_faces: list[Face], faces: list[Face]) -> SparseBoundaryMatrix:
    """d_k from the (k-1)-faces (its rows) and the k-faces (its columns).

    The rows fill in column order, so each dict holds its columns ascending.
    """
    by_row: list[dict[int, int]] = [{} for _ in sub_faces]
    row_of = dict(zip(sub_faces, by_row))
    # combinations(face, k) omits vertex k first, then k - 1, ..., 0
    # (0-based); omitting vertex m carries the sign (-1)^(m + 1)
    signs = [(-1) ** (m + 1) for m in range(k, -1, -1)]
    for c, face in enumerate(faces):
        for sub, sign in zip(itertools.combinations(face, k), signs):
            row_of[sub][c] = sign
    return SparseBoundaryMatrix(k, len(faces), by_row)


def boundary_matrix(
    params: ComplexParams, k: int, budget: int | None = DEFAULT_CELL_BUDGET
) -> SparseBoundaryMatrix:
    """Assemble the boundary matrix taking k-faces to (k-1)-faces."""
    _require_ints(k=k)
    if k < 0 or k > params.n - 1:
        raise DomainError(f"boundary dimension {k} outside [0, {params.n - 1}]")
    _check_cells(params, budget, (k,))
    # f_{k-1} x f_k cells bound each face list, so neither is priced again
    return _assemble(k, enumerate_faces(params, k - 1, None), enumerate_faces(params, k, None))


def _cone_masks(n: int, subsets: list[tuple[int, ...]]) -> list[int]:
    """Per r-subset s of range(n): one bit for each diagonal vertex (i, ..., i).

    The bit of i names the pair (#elements of s below i, i in s).  The masks
    of a face's p subsets share a bit iff for that i every vertex of the
    face lies below (i, ..., i) in each coordinate, above it in each, or on
    it: iff the face lies in the star of (i, ..., i).
    """
    width = 2 * len(subsets[0]) + 2  # the pairs of one i
    return [
        sum(1 << (i * width + 2 * bisect_left(s, i) + (i in s)) for i in range(n))
        for s in subsets
    ]


def _indexed_boundary(
    params: ComplexParams, k: int, row_of: list[int]
) -> tuple[SparseBoundaryMatrix, list[int]]:
    """d_k with its kept faces in integer order, assembled without a face tuple.

    A face with r vertices is the p-tuple of its coordinates' r-subsets of
    [n], indexed by the mixed-radix number of their lex ranks, base C(n, r),
    coordinate 0 most significant: the order of
    product(combinations(range(n), r), repeat=p).  Omitting vertex m drops
    the m-th element of every subset, so a row's face index is a sum of
    drop-table entries, one per coordinate, each scaled by its radix.

    The relative chain deletes the faces of A (see _cone_masks).  row_of
    maps each (k-1)-face index to its row, or to -1 when the face is
    deleted.  Returns d_k and the same map for the k-faces, their columns,
    which are the rows of d_{k+1}.
    """
    p, n = params.p, params.n
    lower = {s: i for i, s in enumerate(itertools.combinations(range(n), k))}
    base = len(lower)  # C(n, k), the radix of the rows
    upper = list(itertools.combinations(range(n), k + 1))
    # drop[s][m]: the rank of subset s without its m-th element (0-based)
    drop = [tuple(lower[s[:m] + s[m + 1 :]] for m in range(k + 1)) for s in upper]
    cone = _cone_masks(n, upper)
    # per column prefix: the row offsets of coordinates 0..p-2, one tuple
    # over m, and the AND of their cone masks
    prefixes = [((0,) * (k + 1), -1)]
    for j in range(p - 1):
        weight = base ** (p - 1 - j)
        prefixes = [
            (tuple(a + weight * d for a, d in zip(prefix, ds)), mask & m)
            for prefix, mask in prefixes
            for ds, m in zip(drop, cone)
        ]
    signs = [(-1) ** (m + 1) for m in range(k + 1)]
    by_row: list[dict[int, int]] = [{} for r in row_of if r >= 0]
    col_of: list[int] = []
    # the rows fill in column order, so each dict holds its columns ascending
    c = 0
    for prefix, mask in prefixes:
        for ds, m in zip(drop, cone):
            if mask & m:
                col_of.append(-1)
                continue
            for row, sign in zip(map(add, prefix, ds), signs):
                r = row_of[row]
                if r >= 0:
                    by_row[r][c] = sign
            col_of.append(c)
            c += 1
    return SparseBoundaryMatrix(k, c, by_row), col_of


def _boundary_chain(
    params: ComplexParams, budget: int | None = DEFAULT_CELL_BUDGET
) -> Iterator[SparseBoundaryMatrix]:
    """d_0, ..., d_{n-1} of (Gamma, A) in integer face order (see _indexed_boundary).

    The first step refuses an over-budget chain (see _check_cells), before
    any matrix is assembled.  Each d_k is built when the consumer asks for
    it, so only the matrices the consumer holds are alive.
    """
    _check_cells(params, budget, range(params.n))
    # the empty face lies in every star
    row_of = [-1]
    for k in range(params.n):
        matrix, row_of = _indexed_boundary(params, k, row_of)
        yield matrix


def _normalize_row(row: dict[int, int]) -> bool:
    """Divide row by the gcd of its entries; True iff that gcd was > 1."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return False
    if g > 1:
        for c in row:
            row[c] //= g
    return g > 1


def _pivots(rows: list[dict[int, int]]) -> Iterator[tuple[int, bool]]:
    """sparse_rank's elimination of a checked copy of rows (see _eliminate)."""
    active: dict[int, dict[int, int]] = {}
    for i, r in enumerate(rows):
        row = {}
        for c, v in r.items():
            if type(v) is not int:
                raise DomainError(f"row {i} column {c}: entry {v!r} is not an int")
            if v:
                row[c] = v
        if row:
            active[i] = row
    return _eliminate(active)


def _eliminate(active: dict[int, dict[int, int]]) -> Iterator[tuple[int, bool]]:
    """Yield (pivot column, unimodular) after each fraction-free elimination step.

    active maps row ids to nonempty rows of nonzero ints; the rows are
    updated in place.  The pivot column is the one meeting the fewest rows,
    ties going to the smallest column index, and the pivot row the shortest
    with a unit entry preferred, which keeps fill-in and coefficient growth
    small; rows are divided by their gcd after every update.  The pivot
    column is taken from a min-heap of (row count, column) entries with lazy
    deletion, so no step rescans the live columns: only the pivot row's
    columns can change their count in a step, so the step pushes a fresh
    entry for each of them still live, and a popped entry is discarded when
    its column is gone or its count is stale.  The pivots are those of a
    full rescan for the (count, column) minimum.  A step is unimodular when
    its pivot is +-1 and none of its row updates divided a row by a gcd > 1;
    then it changes no elementary divisor.
    """
    # each live column's row ids: a list of a few ids costs far less than a set
    col_rows: dict[int, list[int]] = {}
    for i, row in active.items():
        for c in row:
            col_rows.setdefault(c, []).append(i)
    queue = [(len(ids), c) for c, ids in col_rows.items()]
    heapq.heapify(queue)
    while active:
        count, pivot_col = heapq.heappop(queue)
        candidates = col_rows.get(pivot_col)
        if candidates is None or len(candidates) != count:
            continue
        # the step clears the pivot column from every row that holds it
        del col_rows[pivot_col]
        if count == 1:
            (pivot_row_id,) = candidates
        else:
            pivot_row_id = min(
                candidates,
                key=lambda i: (abs(active[i][pivot_col]) != 1, len(active[i]), i),
            )
        pivot_row = active.pop(pivot_row_id)
        pivot_val = pivot_row.pop(pivot_col)
        unit = unimodular = pivot_val in (1, -1)
        for i in candidates:
            if i == pivot_row_id:
                continue
            row = active[i]
            factor = row.pop(pivot_col)
            if unit:
                # row - factor*pivot_val*pivot_row is pivot_val times the
                # update pivot_val*row - factor*pivot_row: same support and gcd
                factor *= pivot_val
            else:
                for c in row:
                    row[c] *= pivot_val
            # only columns of the pivot row can enter or leave this row
            for c, v in pivot_row.items():
                val = row.get(c)
                if val is None:
                    row[c] = -factor * v
                    col_rows[c].append(i)
                else:
                    val -= factor * v
                    if val:
                        row[c] = val
                    else:
                        del row[c]
                        col_rows[c].remove(i)
            if _normalize_row(row):
                unimodular = False
            if not row:
                del active[i]
        # every row count that changed in this step belongs to a pivot-row column
        for c in pivot_row:
            ids = col_rows[c]
            ids.remove(pivot_row_id)
            if ids:
                heapq.heappush(queue, (len(ids), c))
            else:
                del col_rows[c]
        yield pivot_col, unimodular


def sparse_rank(rows: list[dict[int, int]]) -> int:
    """Exact rank of an integer matrix given as one dict per row.

    Zero entries are dropped on the way in; an entry that is not an int
    raises DomainError.  The rank is the number of steps of _eliminate's
    fraction-free elimination, whose pivot choice keeps fill-in and
    coefficient growth small.
    """
    return sum(1 for _ in _pivots(rows))


def _steps(
    matrix: SparseBoundaryMatrix, seed: int, cleared: Container[int] = ()
) -> Iterator[tuple[int, bool]]:
    """Yield (pivot face, unimodular) for each step of matrix's seeded elimination.

    The rows of matrix.by_row, without the empty rows and the rows in
    cleared (face indices), and its columns are permuted by a seeded shuffle
    into new rows, so the matrix stays intact; each pivot column is mapped
    back to its face index.  The rows hold nonzero ints: nothing is checked.
    """
    _require_ints(seed=seed)
    rng = random.Random(seed)
    row_perm = list(range(matrix.rows))
    col_perm = list(range(matrix.cols))
    rng.shuffle(row_perm)
    rng.shuffle(col_perm)
    face = [0] * matrix.cols
    for f, c in enumerate(col_perm):
        face[c] = f
    relabel = col_perm.__getitem__
    active = {
        row_perm[r]: dict(zip(map(relabel, row), row.values()))
        for r, row in enumerate(matrix.by_row)
        if row and r not in cleared
    }
    for c, unimodular in _eliminate(active):
        yield face[c], unimodular


def _in_place(
    matrix: SparseBoundaryMatrix, cleared: Container[int] = ()
) -> Iterator[tuple[int, bool]]:
    """_eliminate on matrix's own rows in face order, without the rows in cleared.

    The rows are taken out of by_row, so the elimination frees each one it
    is done with: only a matrix that nothing else reads may come here.
    """
    active = {r: row for r, row in enumerate(matrix.by_row) if row and r not in cleared}
    matrix.by_row.clear()
    return _eliminate(active)


def matrix_rank(matrix: SparseBoundaryMatrix) -> int:
    """Rank of a sparse boundary matrix over the rationals; matrix stays intact."""
    return sparse_rank(matrix.by_row)


def shuffled_rank(matrix: SparseBoundaryMatrix, seed: int) -> int:
    """Rank after a seeded permutation of rows and columns.

    The value must equal matrix_rank for every seed; used to spot-check
    that the elimination does not depend on the face enumeration order.
    """
    return sum(1 for _ in _steps(matrix, seed))


def chain_ranks(
    params: ComplexParams,
    budget: int | None = DEFAULT_CELL_BUDGET,
    seed: int | None = None,
) -> tuple[list[int], list[int], list[int] | None]:
    """_cleared_ranks of the relative chain, built here under the cell budget."""
    return _cleared_ranks(_boundary_chain(params, budget), seed)


def _cleared_ranks(
    matrices: Iterable[SparseBoundaryMatrix], seed: int | None = None
) -> tuple[list[int], list[int], list[int] | None]:
    """Face counts and ranks of d_0, d_1, ..., by eliminations that clear rows bottom-up.

    The face counts are those the matrices map between, f_-1, f_0, ...:
    d_0's rows, then each matrix's columns.

    The matrices are consecutive boundaries, d_k followed by d_{k+1}.  Each
    is eliminated once, without the rows of d_{k+1} named by the pivot
    columns Q of d_k's elimination, which leaves the rank over Q unchanged:
    every row y of d_k has y . d_{k+1} = 0, and the columns Q are
    independent with |Q| = rank d_k, so for each q in Q the row space of
    d_k holds a y with y restricted to Q equal to e_q.  Row q of d_{k+1} is
    then a rational combination of the rows outside Q.  Over Z it need not
    be, so the clearing says nothing about elementary divisors.

    With a seed, a second chain eliminates every matrix under shuffled_rank's
    seeded permutation and clears from its own pivots, mapped back to the
    unpermuted faces; its ranks come last, else None.  The seeded chain
    runs first, on new rows; the elimination in face order then takes each
    matrix's own rows (see _in_place), so the matrices must be read by
    nothing else.
    """
    faces: list[int] = []
    ranks: list[int] = []
    shuffled: list[int] | None = None if seed is None else []
    cleared: set[int] = set()
    shuffled_cleared: set[int] = set()
    for matrix in matrices:
        if not faces:
            faces.append(matrix.rows)
        faces.append(matrix.cols)
        if shuffled is not None:
            shuffled_cleared = {f for f, _ in _steps(matrix, seed, shuffled_cleared)}
            shuffled.append(len(shuffled_cleared))
        cleared = {f for f, _ in _in_place(matrix, cleared)}
        ranks.append(len(cleared))
    return faces, ranks, shuffled


def betti_from_ranks(faces: Sequence[int], ranks: Sequence[int]) -> tuple[int, ...]:
    """Betti numbers (beta_-1, ..., beta_{n-1}) of a chain d_0, ..., d_{n-1}.

    faces are its face counts f_-1, ..., f_{n-1} and ranks are rank d_0,
    ..., rank d_{n-1}; beta_k = f_k - rank d_k - rank d_{k+1}, with
    rank d_-1 = rank d_n = 0.  For the full chain of a nonempty complex the
    empty-face row makes beta_-1 vanish; the relative chain has no such row.
    Ranks of no chain complex (some beta_k < 0) raise DomainError.
    """
    if len(ranks) != len(faces) - 1:
        raise DomainError(f"need {len(faces) - 1} ranks, got {len(ranks)}")
    _require_at_least(
        0,
        **{f"f_{k - 1}": f for k, f in enumerate(faces)},
        **{f"rank d_{k}": r for k, r in enumerate(ranks)},
    )
    r = [0, *ranks, 0]
    betti = tuple(f - r[i] - r[i + 1] for i, f in enumerate(faces))
    if min(betti) < 0:
        raise DomainError(f"ranks {tuple(ranks)} give a negative Betti number: {betti}")
    return betti


def betti_numbers(
    params: ComplexParams, budget: int | None = DEFAULT_CELL_BUDGET
) -> tuple[int, ...]:
    """Reduced Betti numbers (beta_-1, ..., beta_{n-1}) from matrix ranks.

    They are those of the relative chain (see the module docstring).
    """
    faces, ranks, _ = chain_ranks(params, budget)
    return betti_from_ranks(faces, ranks)


def matrix_to_triplets(matrix: SparseBoundaryMatrix) -> str:
    """Render a boundary matrix in coordinate triplet text form.

    A `%% rows cols` header, then one `row col value` line per entry in
    row-major order.
    """
    lines = [f"%% {matrix.rows} {matrix.cols}"]
    for r, row in enumerate(matrix.by_row):
        for c, v in sorted(row.items()):
            lines.append(f"{r} {c} {v}")
    return "\n".join(lines) + "\n"


def is_torsion_free(params: ComplexParams) -> bool | None:
    """True when the exact elimination certifies free integral homology, else None.

    Each boundary matrix of the relative chain, whose integral homology is
    that of Gamma_p(n) (see the module docstring), is built once, under the
    default cell budget, and run whole, with no row cleared, through the
    elimination that ranks it: a cleared row is a combination of the others
    over Q but not always over Z, so clearing would hide the elementary
    divisors.  When every step is unimodular, every nonzero elementary
    divisor is 1.  Otherwise the answer is None (undecided): nothing here
    can prove torsion, so this never returns False.
    """
    for matrix in _boundary_chain(params):
        if not all(unimodular for _, unimodular in _in_place(matrix)):
            return None
    return True
