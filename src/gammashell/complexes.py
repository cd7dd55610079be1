"""The complexes Gamma_p(n): faces, f-vectors, Euler characteristics.

Vertices are p-tuples with entries in [1, n].  A face is a set of vertices
that can be ordered so that every coordinate increases strictly from one
vertex to the next; Delta(n) denotes the p = 3 member of the family.  All
structure derives from the pair (p, n) and nothing is materialized until an
enumeration is requested.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence
from math import comb
from operator import itemgetter

from .errors import DomainError, Record, _check_budget, _require_at_least, _require_ints

__all__ = [
    "DEFAULT_CELL_BUDGET",
    "DEFAULT_FACE_BUDGET",
    "ComplexParams",
    "canonical_face",
    "check_vertex",
    "enumerate_faces",
    "f_vector_enumerated",
    "f_vector_formula",
    "is_face",
    "order_key",
    "reduced_euler_characteristic",
    "sigma_word",
]

Vertex = tuple[int, ...]
Face = tuple[Vertex, ...]

# Sum_s C(n,s)^p explodes near n = 12 for p = 3; enumeration stops here.
# A listed facet costs ~115 B (measured at p=3 n=8), so a facet listing
# this budget admits may hold ~11 GB.
DEFAULT_FACE_BUDGET = 10**8
# f_{k-1} * f_k boundary matrix cells; C(12,6)^3 squared is already out of reach
DEFAULT_CELL_BUDGET = 10**8


class ComplexParams(Record):
    """Parameters (p, n) identifying the complex Gamma_p(n)."""

    _fields = ("p", "n")

    def __init__(self, p: int, n: int) -> None:
        _require_at_least(1, p=p, n=n)
        super().__init__(p, n)


def check_vertex(params: ComplexParams, vertex: Sequence[int]) -> Vertex:
    """Return the vertex as a tuple, rejecting wrong arity, type or range."""
    try:
        v = tuple(vertex)
    except TypeError:
        raise DomainError(f"vertex {vertex!r} is not a sequence of coordinates") from None
    if len(v) != params.p:
        raise DomainError(f"vertex {v} does not have arity {params.p}")
    n = params.n
    for c in v:
        if type(c) is not int or c < 1 or c > n:
            fault = ("non-integer coordinate" if type(c) is not int
                     else f"coordinate outside [1, {n}]")
            raise DomainError(f"vertex {v} has a {fault}")
    return v


def canonical_face(params: ComplexParams, vertices: Iterable[Sequence[int]]) -> Face:
    """Validate the vertices and return them sorted by first coordinate.

    Strict coordinatewise increase makes any single coordinate a valid sort
    key, so this is the normal form for faces.  Each vertex is checked, but
    not that the vertices form a face; facets.facet_certificate checks that.
    """
    try:
        vs = [check_vertex(params, v) for v in vertices]
    except TypeError:
        raise DomainError(f"{vertices!r} is not a collection of vertices") from None
    vs.sort(key=itemgetter(0))
    return tuple(vs)


def is_face(params: ComplexParams, vertices: Iterable[Sequence[int]]) -> bool:
    """True iff the vertices form a face of Gamma_p(n).

    The empty collection is the empty face and always counts.
    """
    face = canonical_face(params, vertices)
    for prev, cur in zip(face, face[1:]):
        if any(b <= a for a, b in zip(prev, cur)):
            return False
    return True


def sigma_word(face: Face) -> tuple[int, ...]:
    """Flatten a face into its coordinate sequence, vertex by vertex."""
    return tuple(c for v in face for c in v)


def order_key(face: Face):
    """Sort key for the facet order: dimension descending, sigma word ascending."""
    return (-len(face), sigma_word(face))


def enumerate_faces(
    params: ComplexParams, dim: int, budget: int | None = DEFAULT_FACE_BUDGET
) -> list[Face]:
    """Every face of the given dimension once, sorted by sigma word.

    A face of dimension d chooses d+1 values independently in each of the p
    coordinates, so the count is C(n, d+1)^p.  Dimensions outside [-1, n-1]
    have no faces.  Sigma-word order is the order of boundary_matrix's rows
    and columns; the matrix route's chain indexes its faces by integers
    instead and lists none (see homology._indexed_boundary).
    """
    _require_ints(dim=dim)
    if dim < -1 or dim > params.n - 1:
        return []
    if dim == -1:
        return [()]
    r = dim + 1
    _check_budget(comb(params.n, r) ** params.p, budget, f"faces of dimension {dim}")
    values = range(1, params.n + 1)
    columns = itertools.product(itertools.combinations(values, r), repeat=params.p)
    faces = [tuple(zip(*cols)) for cols in columns]
    # all vertices have p coordinates: tuple order is sigma-word order here
    faces.sort()
    return faces


def f_vector_formula(params: ComplexParams) -> tuple[int, ...]:
    """Reduced f-vector (f_-1, f_0, ..., f_{n-1}) from the closed-form counts.

    f_{s-1} = C(n, s)^p; the s = 0 term is the empty face.  The binomials
    come in one running product, C(n, s+1) = C(n, s) (n - s) / (s + 1).
    """
    n = params.n
    row = [1]
    for s in range(n):
        row.append(row[-1] * (n - s) // (s + 1))
    return tuple(c**params.p for c in row)


def f_vector_enumerated(
    params: ComplexParams, budget: int | None = DEFAULT_FACE_BUDGET
) -> tuple[int, ...]:
    """Reduced f-vector obtained by depth-first chain extension.

    Independent of the closed-form count: every face is visited exactly once
    by growing its vertex chain through each strictly larger successor.  The
    stack holds one lazy successor iterator per chain level, so no vertex is
    listed before its turn.  The closed form only sizes the budget, before
    the first face is visited.
    """
    _check_budget(sum(f_vector_formula(params)), budget, "faces")
    p, n = params.p, params.n
    counts = [0] * (n + 1)
    counts[0] = 1
    stack = [itertools.product(range(1, n + 1), repeat=p)]
    while stack:
        v = next(stack[-1], None)
        if v is None:
            stack.pop()
            continue
        counts[len(stack)] += 1
        stack.append(itertools.product(*(range(c + 1, n + 1) for c in v)))
    return tuple(counts)


def reduced_euler_characteristic(f_vector: Sequence[int]) -> int:
    """Alternating sum Sum_i (-1)^i f_i over the reduced f-vector.

    The input starts at f_-1, so even positions carry sign -1.
    """
    if not f_vector or f_vector[0] != 1:
        raise DomainError("reduced f-vector must start with f_-1 = 1")
    return _alternating(f_vector)


def _alternating(values: Iterable[int]) -> int:
    """Sum_i (-1)^(i+1) v_i: the Euler-Poincare sign rule of reduced vectors."""
    return sum(v if i % 2 else -v for i, v in enumerate(values))
