"""Reduced simplicial homology of Gamma_p(n) over the rationals.

Boundary matrices are assembled in the canonical face order and ranks are
computed exactly by fraction-free integer elimination, so Betti numbers are
exact integers.  The complexes here are homotopy equivalent to wedges of
spheres, hence integral homology is free and rational ranks tell the whole
story; a small Smith-form routine is included to spot-check the absence of
torsion on tiny instances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd
from typing import Sequence

from .complexes import (
    ComplexParams,
    enumerate_faces,
    f_vector_formula,
    reduced_euler_characteristic,
)
from .errors import BudgetError, DomainError

# f_{k-1} * f_k cells; C(12,6)^3 squared is already out of reach
DEFAULT_CELL_BUDGET = 10**8


@dataclass(frozen=True)
class SparseBoundaryMatrix:
    """Signed incidence matrix of dimension-k faces over dimension-(k-1) faces.

    entries maps (row, col) to +-1; row faces are obtained from the column
    face by omitting one vertex, with sign (-1)^m for the m-th vertex
    (1-based).  k = 0 maps vertices to the single empty-face row.
    """

    k: int
    rows: int
    cols: int
    entries: dict[tuple[int, int], int]


def boundary_matrix(
    params: ComplexParams, k: int, budget: int | None = DEFAULT_CELL_BUDGET
) -> SparseBoundaryMatrix:
    """Assemble the boundary matrix taking k-faces to (k-1)-faces."""
    if k < 0 or k > params.n - 1:
        raise DomainError(f"boundary dimension {k} outside [0, {params.n - 1}]")
    sub_faces = list(enumerate_faces(params, k - 1))
    faces = list(enumerate_faces(params, k))
    if budget is not None and len(sub_faces) * len(faces) > budget:
        raise BudgetError(
            f"boundary matrix at dimension {k} has {len(sub_faces)}x{len(faces)} "
            f"cells, over the budget of {budget}"
        )
    row_index = {f: i for i, f in enumerate(sub_faces)}
    entries: dict[tuple[int, int], int] = {}
    for c, face in enumerate(faces):
        for m in range(1, k + 2):
            sub = face[: m - 1] + face[m:]
            sign = -1 if m % 2 else 1
            entries[(row_index[sub], c)] = sign
    return SparseBoundaryMatrix(k, len(sub_faces), len(faces), entries)


def _normalize_row(row: dict[int, int]) -> None:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for c in row:
            row[c] //= g


def sparse_rank(rows: list[dict[int, int]]) -> int:
    """Exact rank of an integer matrix given as one dict per row.

    Fraction-free elimination: the pivot column is the one meeting the
    fewest rows and the pivot row the shortest with a unit entry preferred,
    which keeps fill-in and coefficient growth small; rows are divided by
    their gcd after every update.
    """
    active: dict[int, dict[int, int]] = {
        i: dict(r) for i, r in enumerate(rows) if r
    }
    col_rows: dict[int, set[int]] = {}
    for i, row in active.items():
        for c in row:
            col_rows.setdefault(c, set()).add(i)
    rank = 0
    while active:
        pivot_col = min(col_rows, key=lambda c: (len(col_rows[c]), c))
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
            new_row: dict[int, int] = {}
            for c in set(row) | set(pivot_row):
                val = pivot_val * row.get(c, 0) - factor * pivot_row.get(c, 0)
                if val:
                    new_row[c] = val
            _normalize_row(new_row)
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


def matrix_rank(matrix: SparseBoundaryMatrix) -> int:
    """Rank of a sparse boundary matrix over the rationals."""
    rows: list[dict[int, int]] = [dict() for _ in range(matrix.rows)]
    for (r, c), v in matrix.entries.items():
        rows[r][c] = v
    return sparse_rank(rows)


def shuffled_rank(matrix: SparseBoundaryMatrix, seed: int) -> int:
    """Rank after a seeded permutation of rows and columns.

    The value must equal matrix_rank for every seed; used to spot-check
    that the elimination does not depend on the face enumeration order.
    """
    rng = random.Random(seed)
    row_perm = list(range(matrix.rows))
    col_perm = list(range(matrix.cols))
    rng.shuffle(row_perm)
    rng.shuffle(col_perm)
    rows: list[dict[int, int]] = [dict() for _ in range(matrix.rows)]
    for (r, c), v in matrix.entries.items():
        rows[row_perm[r]][col_perm[c]] = v
    return sparse_rank(rows)


def betti_from_ranks(params: ComplexParams, ranks: Sequence[int]) -> tuple[int, ...]:
    """Reduced Betti numbers (beta_-1, ..., beta_{n-1}) from rank d_0..d_{n-1}.

    beta_k = f_k - rank d_k - rank d_{k+1}, with rank d_-1 = rank d_n = 0;
    the empty-face row makes beta_-1 vanish for every nonempty complex.
    """
    f = f_vector_formula(params)
    r = [0, *ranks, 0]
    return tuple(f[i] - r[i] - r[i + 1] for i in range(params.n + 1))


def betti_numbers(
    params: ComplexParams, budget: int | None = DEFAULT_CELL_BUDGET
) -> tuple[int, ...]:
    """Reduced Betti numbers (beta_-1, ..., beta_{n-1}) from matrix ranks."""
    ranks = [matrix_rank(boundary_matrix(params, k, budget)) for k in range(params.n)]
    return betti_from_ranks(params, ranks)


def verify_euler_poincare(
    params: ComplexParams, budget: int | None = DEFAULT_CELL_BUDGET
) -> bool:
    """True iff the alternating f-sum equals the alternating Betti sum."""
    f = f_vector_formula(params)
    betti = betti_numbers(params, budget)
    alt_f = reduced_euler_characteristic(f)
    alt_b = sum(b if i % 2 else -b for i, b in enumerate(betti))
    return alt_f == alt_b


def matrix_to_triplets(matrix: SparseBoundaryMatrix) -> str:
    """Render a boundary matrix in coordinate triplet text form.

    A `%% rows cols` header, then one `row col value` line per entry in
    row-major order.
    """
    lines = [f"%% {matrix.rows} {matrix.cols}"]
    for (r, c), v in sorted(matrix.entries.items()):
        lines.append(f"{r} {c} {v}")
    return "\n".join(lines) + "\n"


def elementary_divisors(matrix: SparseBoundaryMatrix) -> list[int]:
    """Nonnegative diagonal of the Smith normal form (small matrices only).

    Dense cubic-ish elimination over the integers; intended for the torsion
    spot-check on n <= 3, not for production rank computation.
    """
    a = [[0] * matrix.cols for _ in range(matrix.rows)]
    for (r, c), v in matrix.entries.items():
        a[r][c] = v

    rows, cols = matrix.rows, matrix.cols
    divisors = []
    top = 0
    while top < min(rows, cols):
        pivot = min(
            (
                (abs(a[r][c]), r, c)
                for r in range(top, rows)
                for c in range(top, cols)
                if a[r][c]
            ),
            default=None,
        )
        if pivot is None:
            break
        _, pr, pc = pivot
        a[top], a[pr] = a[pr], a[top]
        for r in range(rows):
            a[r][top], a[r][pc] = a[r][pc], a[r][top]
        dirty = True
        while dirty:
            dirty = False
            for r in range(top + 1, rows):
                if a[r][top]:
                    q = a[r][top] // a[top][top]
                    for c in range(top, cols):
                        a[r][c] -= q * a[top][c]
                    if a[r][top]:
                        a[top], a[r] = a[r], a[top]
                        dirty = True
            for c in range(top + 1, cols):
                if a[top][c]:
                    q = a[top][c] // a[top][top]
                    for r in range(top, rows):
                        a[r][c] -= q * a[r][top]
                    if a[top][c]:
                        for r in range(rows):
                            a[r][top], a[r][c] = a[r][c], a[r][top]
                        dirty = True
        divisors.append(abs(a[top][top]))
        top += 1
    # enforce the divisibility chain
    for i in range(len(divisors)):
        for j in range(i + 1, len(divisors)):
            if divisors[j] % divisors[i]:
                g = gcd(divisors[i], divisors[j])
                divisors[i], divisors[j] = g, divisors[i] * divisors[j] // g
    divisors.sort()
    return divisors


def is_torsion_free(params: ComplexParams) -> bool:
    """True iff every boundary matrix has unit elementary divisors.

    Wedge-of-spheres homotopy types have free integral homology, so this
    should always hold; it is a debug check for small n.
    """
    for k in range(params.n):
        if any(d > 1 for d in elementary_divisors(boundary_matrix(params, k))):
            return False
    return True
