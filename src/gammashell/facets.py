"""Facet recognition, enumeration, twists, and shift vectors.

A nonempty face F = {v_1 < ... < v_r} of Gamma_p(n) is a facet exactly when

  P1: some coordinate of v_r equals n          (nothing can be appended),
  P2: some coordinate of v_1 equals 1          (nothing can be prepended),
  P3: every difference v_{l+1} - v_l has a coordinate equal to 1
                                               (nothing fits in between).

Twists move a single coordinate of a single vertex by one step; a twist is
safe when the one condition it can break survives.  Shift vectors encode a
facet as p compositions of n + 1 (first value, consecutive differences,
distance from n + 1), one per coordinate position.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence
from functools import cache
from math import comb
from operator import eq, sub

from .complexes import (
    DEFAULT_FACE_BUDGET,
    ComplexParams,
    Face,
    Vertex,
    canonical_face,
)
from .errors import DomainError, PreconditionError, Record, _check_budget, _require_ints

__all__ = [
    "DOWN",
    "UP",
    "FacetCertificate",
    "TwistSets",
    "apply_twist",
    "enumerate_facets",
    "facet_certificate",
    "facet_counts",
    "facet_from_shift_vectors",
    "format_facets",
    "is_safe_twist",
    "parse_facets",
    "shift_vectors",
    "twist_sets",
]

UP = "up"
DOWN = "down"


class FacetCertificate(Record):
    """Outcome of the three facet conditions for one face."""

    _fields = ("face", "p1", "p2", "p3")

    @property
    def is_facet(self) -> bool:
        return self.p1 and self.p2 and self.p3


class TwistSets(Record):
    """Per-vertex twistable coordinate positions (0-based).

    a_sets[l] holds positions where vertex l can move up: the difference to
    the next vertex exceeds 1, or the value is below n at the last vertex.
    b_sets[l] holds positions where vertex l can move down: the difference
    to the previous vertex exceeds 1, or the value is above 1 at the first.
    """

    _fields = ("a_sets", "b_sets")


def facet_certificate(params: ComplexParams, face: Iterable[Sequence[int]]) -> FacetCertificate:
    """Evaluate P1-P3 on a nonempty face.

    The minimum coordinate gap between consecutive vertices decides both
    questions: a gap below 1 means the vertices do not form a face, and P3
    asks for every gap to equal 1.
    """
    f = canonical_face(params, face)
    if not f:
        raise DomainError("facet conditions are undefined for the empty face")
    gaps = [min(map(sub, cur, prev)) for prev, cur in zip(f, f[1:])]
    if min(gaps, default=1) < 1:
        raise DomainError(f"{f} is not a face of Gamma_{params.p}({params.n})")
    p1 = max(f[-1]) == params.n
    p2 = min(f[0]) == 1
    p3 = max(gaps, default=1) == 1
    return FacetCertificate(f, p1, p2, p3)


def _require_facet(params: ComplexParams, face: Iterable[Sequence[int]]) -> Face:
    """The canonical form of face; PreconditionError unless it is a facet."""
    cert = facet_certificate(params, face)
    if not cert.is_facet:
        raise PreconditionError(f"{cert.face} is not a facet")
    return cert.face


def _chain_search(params: ComplexParams, twistable: bool = False) -> list[Face]:
    """Facet chains by depth-first search of the chain DAG, in order_key order.

    A facet is a path that starts at a vertex satisfying P2, follows edges at
    minimum difference 1 (P3) and ends at the first vertex with a coordinate
    equal to n (P1), which no edge leaves; the search emits a chain at each
    such terminal vertex.  The first visit to v lists its edges, scanning its
    coordinate box in itertools.product order, and caches the list, so no
    box is scanned twice.

    With twistable set, the DAG keeps only the paths selected by the
    down-twist criterion: it starts only at vertices that are not all ones
    and keeps only edges whose maximum difference exceeds 1.  A path that
    reaches a non-terminal vertex with no such edge is a dead end.  Each
    predicate is tested once per vertex or edge, not once per facet through
    it.  _signed_chain_count counts the same chains on the slack cube.
    """
    n = params.n

    @cache
    def successors(v: Vertex) -> list[tuple[Vertex, bool]]:
        # every difference w - v is at least 1, so its minimum is 1 iff some
        # w_i = v_i + 1, and its maximum exceeds 1 iff w is not v + (1, ..., 1)
        step = tuple(c + 1 for c in v)
        return [
            (w, max(w) == n)
            for w in itertools.product(*(range(c, n + 1) for c in step))
            if any(map(eq, w, step)) and (not twistable or w != step)
        ]
    out: list[Face] = []

    def follow(chain: Face, out_edges) -> None:
        for w, terminal in out_edges:
            if terminal:
                out.append(chain + (w,))
            else:
                follow(chain + (w,), successors(w))

    # the starts, vertices with P2, are the successors of a virtual vertex 0
    follow((), successors((0,) * params.p))
    # the search emits chains in sigma-word order, so a stable sort by
    # length alone gives complexes.order_key's order
    out.sort(key=len, reverse=True)
    return out


def _signed_chain_count(params: ComplexParams) -> int:
    """Sum of (-1)^len over the criterion-pruned chains, in one pass over slack.

    A vertex v has slack s = n - v in [0, n]^p and is terminal (P1) iff
    min(s) = 0.  Its criterion edges go to every t with 0 <= t <= s - 1,
    some t_i = s_i - 1 (P3) and t != s - 1.  With h(s) = 1 at a terminal s,
    g(s) elsewhere, and Q(a) the sum of h over 0 <= t <= a (0 if a has a
    negative coordinate), the signed count of the chain tails after s is
    g(s) = -(Q(s - 1) - Q(s - 2) - h(s - 1)).  The starts are the edges out
    of the virtual vertex 0, so the count is h at slack (n, ..., n).  h and
    the prefix sums along each axis (over every axis, Q) are flat lists in
    itertools.product order; no chain or edge list is built.
    """
    p, side = params.p, params.n + 1
    strides = [side ** (p - 1 - i) for i in range(p)]
    diag = sum(strides)
    h = [0] * side**p
    sums = [[0] * side**p for _ in range(p)]  # sums[i]: prefix over axes i..p-1
    q = sums[0]
    axes = list(zip(range(p), strides, sums))[::-1]
    for idx, s in enumerate(itertools.product(range(side), repeat=p)):
        low, below = min(s), idx - diag
        if low == 0:
            val = 1
        else:
            val = h[below] - q[below] + (q[below - diag] if low > 1 else 0)
        h[idx] = val
        for i, stride, acc in axes:
            if s[i]:
                val += acc[idx - stride]
            acc[idx] = val
    return h[-1]


def enumerate_facets(params: ComplexParams, budget: int | None = DEFAULT_FACE_BUDGET) -> list[Face]:
    """All facets of Gamma_p(n), sorted by dimension descending then sigma word.

    Depth-first construction: start at vertices satisfying P2, extend only by
    successors at minimum difference 1 (P3), and emit once a coordinate hits
    n (P1), after which no extension exists.  Each vertex's successors are
    listed once, on its first visit, so no coordinate box is scanned twice.
    BudgetError is raised before the search when facet_counts sums to more
    than budget.
    """
    _check_budget(sum(facet_counts(params)), budget, "facets")
    return _chain_search(params)


def twist_sets(params: ComplexParams, face: Iterable[Sequence[int]]) -> TwistSets:
    """Compute the up- and down-twistable positions of every vertex of a face."""
    return _twist_sets(params, facet_certificate(params, face).face)


def _jumps(params: ComplexParams, f: Face) -> list[Vertex]:
    """The r + 1 jumps along the padded chain (0, ..., 0) < f < (n + 1, ..., n + 1).

    Jump l is chain vertex l + 1 minus chain vertex l; at coordinate a it is
    entry l of shift vector a.  On a facet every jump holds a 1: P2 for the
    first, P3 between vertices, P1 for the last.
    """
    p = params.p
    # the chain's coordinates in one row: p zeros, the vertices, p values n + 1
    flat = sum(f, (0,) * p) + (params.n + 1,) * p
    # each entry minus the one p places before, grouped p at a time
    return list(zip(*[map(sub, flat[p:], flat)] * p))


def _twist_sets(params: ComplexParams, f: Face) -> TwistSets:
    """twist_sets of a validated face: A_l reads jump l + 1 and B_l jump l."""
    wide = [tuple(a for a, d in enumerate(jump) if d > 1) for jump in _jumps(params, f)]
    return TwistSets(tuple(wide[1:]), tuple(wide[:-1]))


def apply_twist(
    params: ComplexParams,
    face: Iterable[Sequence[int]],
    ell: int,
    position: int,
    direction: str,
) -> Face:
    """Move one coordinate of vertex ell by one step and return the new face.

    ell and position are 0-based; direction is "up" or "down".  The twist
    must be applicable, i.e. position must lie in A_ell (up) or B_ell (down),
    which guarantees the result is again a face.
    """
    _require_ints(ell=ell, position=position)
    return _twist(params, facet_certificate(params, face).face, ell, position, direction)


def _twist(params: ComplexParams, f: Face, ell: int, position: int, direction: str) -> Face:
    """apply_twist on a validated face f, with ell and position known ints."""
    sets = _twist_sets(params, f)
    if direction == UP:
        allowed = sets.a_sets
        step = 1
    elif direction == DOWN:
        allowed = sets.b_sets
        step = -1
    else:
        raise DomainError(f"direction must be 'up' or 'down', got {direction!r}")
    if ell < 0 or ell >= len(f):
        raise PreconditionError(f"vertex index {ell} out of range for {f}")
    if position not in allowed[ell]:
        raise PreconditionError(
            f"position {position} is not {direction}-twistable at vertex {ell} of {f}"
        )
    v = f[ell]
    w = tuple(c + step if a == position else c for a, c in enumerate(v))
    return f[:ell] + (w,) + f[ell + 1 :]


def is_safe_twist(
    params: ComplexParams,
    facet: Iterable[Sequence[int]],
    ell: int,
    position: int,
    direction: str,
) -> bool:
    """True iff the twist preserves the one facet condition it can break.

    A twist of vertex ell narrows one jump of the padded chain and widens
    the other: an up-twist widens jump ell, below the vertex, and a
    down-twist widens jump ell + 1, above it.  Only the widened jump can
    lose its 1, so the twist is safe iff that jump still holds one; a safe
    twist of a facet is again a facet.
    """
    f = _require_facet(params, facet)
    _require_ints(ell=ell, position=position)
    g = _twist(params, f, ell, position, direction)
    return min(_jumps(params, g)[ell + (direction == DOWN)]) == 1


def shift_vectors(
    params: ComplexParams, facet: Iterable[Sequence[int]]
) -> tuple[tuple[int, ...], ...]:
    """Encode a facet as p compositions of n + 1, one per coordinate position.

    Composition a reads (v_1[a], v_2[a] - v_1[a], ..., n + 1 - v_r[a]), the
    jumps of the padded chain at coordinate a.  The facet conditions make
    every entry positive, and prefix sums invert the encoding exactly.
    """
    return tuple(zip(*_jumps(params, _require_facet(params, facet))))


def facet_counts(params: ComplexParams) -> tuple[int, ...]:
    """The number of facets with r vertices, r = 0, ..., n, in closed form.

    Shift vectors biject them with the p-tuples of compositions of n + 1 into
    r + 1 parts in which every column (the parts at one index) holds a 1:
    P2, P3 and P1 in turn.  With j given columns free of 1s, taking 1 from each of
    their entries leaves C(n - j, r) compositions per coordinate, so
    inclusion-exclusion over the columns gives
    f_r = Sum_j (-1)^j C(r + 1, j) C(n - j, r)^p; terms with n - j < r vanish.
    """
    n, p = params.n, params.p
    return tuple(
        sum((-1) ** j * comb(r + 1, j) * comb(n - j, r) ** p
            for j in range(min(r + 1, n - r) + 1))
        for r in range(n + 1)
    )


def facet_from_shift_vectors(
    params: ComplexParams, vectors: Sequence[Sequence[int]]
) -> Face:
    """Rebuild the facet encoded by p compositions of n + 1 via prefix sums."""
    try:
        vectors = [tuple(vec) for vec in vectors]
    except TypeError:
        raise DomainError(f"shift vectors {vectors!r} are not a collection of sequences") from None
    if len(vectors) != params.p:
        raise DomainError(f"need {params.p} shift vectors, got {len(vectors)}")
    lengths = {len(v) for v in vectors}
    if len(lengths) != 1 or lengths.pop() < 2:
        raise DomainError("shift vectors must share a common length of at least 2")
    for vec in vectors:
        if any(type(e) is not int or e < 1 for e in vec):
            raise DomainError(f"shift vector {vec} has a non-int or non-positive entry")
        if sum(vec) != params.n + 1:
            raise DomainError(f"shift vector {vec} does not sum to {params.n + 1}")
    # read across, the prefix sums are the vertices, then (n + 1, ..., n + 1)
    return _require_facet(params, tuple(zip(*map(itertools.accumulate, vectors)))[:-1])


def format_facets(params: ComplexParams, facets: Sequence[Face]) -> str:
    """Render facets in the text exchange format.

    Header line `# p=<p> n=<n>`, then one facet per line with vertices as
    parenthesized comma-separated integers separated by single spaces.
    """
    lines = [f"# p={params.p} n={params.n}"]
    for f in facets:
        lines.append(" ".join("(" + ",".join(str(c) for c in v) + ")" for v in f))
    return "\n".join(lines) + "\n"


def parse_facets(text: str) -> tuple[ComplexParams, list[Face]]:
    """Parse the text exchange format back into parameters and facets.

    A line that is not a face, or repeats one, raises DomainError, and a
    face that is not a facet raises PreconditionError.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("#"):
        raise DomainError("facet text must start with a '# p=<p> n=<n>' header")
    try:
        fields = dict(part.split("=") for part in lines[0].lstrip("# ").split())
        p, n = int(fields["p"]), int(fields["n"])
    except (KeyError, ValueError) as exc:
        raise DomainError(f"malformed facet header {lines[0]!r}") from exc
    params = ComplexParams(p, n)
    facets: dict[Face, None] = {}
    for ln in lines[1:]:
        verts = []
        for tok in ln.split():
            if not (tok.startswith("(") and tok.endswith(")")):
                raise DomainError(f"malformed vertex token {tok!r}")
            try:
                verts.append(tuple(int(c) for c in tok[1:-1].split(",")))
            except ValueError as exc:
                raise DomainError(f"malformed vertex token {tok!r}") from exc
        face = _require_facet(params, verts)
        if face in facets:
            raise DomainError(f"facet {face} is listed twice")
        facets[face] = None
    return params, list(facets)
