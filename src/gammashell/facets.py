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
from dataclasses import dataclass
from operator import sub
from typing import Iterable, Sequence

from .complexes import (
    ComplexParams,
    Face,
    Vertex,
    canonical_face,
)
from .errors import BudgetError, DomainError, PreconditionError

UP = "up"
DOWN = "down"


@dataclass(frozen=True)
class FacetCertificate:
    """Outcome of the three facet conditions for one face."""

    face: Face
    p1: bool
    p2: bool
    p3: bool

    @property
    def is_facet(self) -> bool:
        return self.p1 and self.p2 and self.p3


@dataclass(frozen=True)
class TwistSets:
    """Per-vertex twistable coordinate positions (0-based).

    a_sets[l] holds positions where vertex l can move up: the difference to
    the next vertex exceeds 1, or the value is below n at the last vertex.
    b_sets[l] holds positions where vertex l can move down: the difference
    to the previous vertex exceeds 1, or the value is above 1 at the first.
    """

    a_sets: tuple[tuple[int, ...], ...]
    b_sets: tuple[tuple[int, ...], ...]


def facet_certificate(params: ComplexParams, face: Iterable[Sequence[int]]) -> FacetCertificate:
    """Evaluate P1-P3 on a nonempty face.

    The minimum coordinate gap between consecutive vertices decides both
    questions: a gap below 1 means the vertices do not form a face, and P3
    asks for every gap to equal 1.
    """
    f = canonical_face(params, face)
    if not f:
        raise DomainError("facet conditions are undefined for the empty face")
    gaps = [min(b - a for a, b in zip(prev, cur)) for prev, cur in zip(f, f[1:])]
    if any(g < 1 for g in gaps):
        raise DomainError(f"{f} is not a face of Gamma_{params.p}({params.n})")
    p1 = max(f[-1]) == params.n
    p2 = min(f[0]) == 1
    p3 = all(g == 1 for g in gaps)
    return FacetCertificate(f, p1, p2, p3)


def _chain_search(
    params: ComplexParams, budget: int | None = None, twistable: bool = False
) -> list[Face]:
    """Facet chains by depth-first extension, sorted like complexes.order_key.

    Starts at the vertices satisfying P2, extends only along edges at minimum
    difference 1 (P3) and emits a chain once its last vertex has a
    coordinate equal to n (P1), which no extension passes.  Each vertex's
    edges, with whether their head is terminal, are worked out once per
    search: the first visit scans the vertex's coordinate box in
    itertools.product order and follows each edge as it is found, and the
    list is memoised only when that scan completes.  Every edge raises every
    coordinate, so no vertex is entered again while its first visit runs,
    and a budget stops the search before any further box is scanned.

    With twistable set, the search keeps only the facets selected by the
    down-twist criterion: it starts only at vertices that are not all ones
    and follows only edges whose maximum difference exceeds 1.  A chain that
    reaches a non-terminal vertex with no such edge is a dead end and emits
    nothing.  Each predicate is tested once per vertex or edge, not once per
    facet through it.
    """
    n = params.n
    out: list[Face] = []
    memo: dict[Vertex, list[tuple[Vertex, bool]]] = {}

    def scan(v: Vertex):
        """Yield the edges out of v as found; memoise them once all are."""
        found = []
        for w in itertools.product(*(range(c + 1, n + 1) for c in v)):
            diffs = list(map(sub, w, v))
            if min(diffs) == 1 and (not twistable or max(diffs) > 1):
                edge = (w, max(w) == n)
                found.append(edge)
                yield edge
        memo[v] = found

    def follow(chain: Face, edges) -> None:
        for w, terminal in edges:
            if terminal:
                out.append(chain + (w,))
                if budget is not None and len(out) > budget:
                    raise BudgetError(f"facet count exceeds the budget of {budget}")
            else:
                follow(chain + (w,), memo[w] if w in memo else scan(w))

    starts = (
        (v, max(v) == n)
        for v in itertools.product(range(1, n + 1), repeat=params.p)
        if min(v) == 1 and (not twistable or max(v) > 1)
    )
    follow((), starts)
    # the search emits chains in sigma-word order, so a stable sort by
    # length alone gives complexes.order_key's order
    out.sort(key=len, reverse=True)
    return out


def enumerate_facets(
    params: ComplexParams, budget: int | None = None
) -> list[Face]:
    """All facets of Gamma_p(n), sorted by dimension descending then sigma word.

    Depth-first construction: start at vertices satisfying P2, extend only by
    successors at minimum difference 1 (P3), and emit once a coordinate hits
    n (P1), after which no extension exists.  Each vertex's successors are
    memoised once its first visit has scanned them, so no coordinate box is
    scanned twice.  BudgetError is raised as soon as more than budget facets
    have been found.
    """
    return _chain_search(params, budget)


def twist_sets(params: ComplexParams, face: Iterable[Sequence[int]]) -> TwistSets:
    """Compute the up- and down-twistable positions of every vertex."""
    f = canonical_face(params, face)
    if not f:
        raise DomainError("twist sets are undefined for the empty face")
    n = params.n
    r = len(f)
    a_sets = []
    b_sets = []
    for l, v in enumerate(f):
        if l + 1 < r:
            nxt = f[l + 1]
            a_sets.append(tuple(a for a in range(params.p) if nxt[a] - v[a] > 1))
        else:
            a_sets.append(tuple(a for a in range(params.p) if v[a] < n))
        if l > 0:
            prev = f[l - 1]
            b_sets.append(tuple(a for a in range(params.p) if v[a] - prev[a] > 1))
        else:
            b_sets.append(tuple(a for a in range(params.p) if v[a] > 1))
    return TwistSets(tuple(a_sets), tuple(b_sets))


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
    f = canonical_face(params, face)
    sets = twist_sets(params, f)
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

    An up-twist of the first vertex can only lose P2; an up-twist elsewhere
    can only lose P3 at the junction below the vertex.  A down-twist of the
    last vertex can only lose P1; a down-twist elsewhere can only lose P3 at
    the junction above.  Every other condition survives automatically, so a
    safe twist of a facet is again a facet.
    """
    cert = facet_certificate(params, facet)
    if not cert.is_facet:
        raise PreconditionError(f"{cert.face} is not a facet")
    g = apply_twist(params, cert.face, ell, position, direction)
    r = len(g)
    if direction == UP:
        if ell == 0:
            return min(g[0]) == 1
        return min(b - a for a, b in zip(g[ell - 1], g[ell])) == 1
    if ell == r - 1:
        return max(g[-1]) == params.n
    return min(b - a for a, b in zip(g[ell], g[ell + 1])) == 1


def shift_vectors(
    params: ComplexParams, facet: Iterable[Sequence[int]]
) -> tuple[tuple[int, ...], ...]:
    """Encode a facet as p compositions of n + 1, one per coordinate position.

    Composition a reads (v_1[a], v_2[a] - v_1[a], ..., n + 1 - v_r[a]).  The
    facet conditions make every entry positive, and prefix sums invert the
    encoding exactly.
    """
    cert = facet_certificate(params, facet)
    if not cert.is_facet:
        raise PreconditionError(f"{cert.face} is not a facet")
    f = cert.face
    n = params.n
    vectors = []
    for a in range(params.p):
        col = [v[a] for v in f]
        vectors.append(
            tuple([col[0]] + [y - x for x, y in zip(col, col[1:])] + [n + 1 - col[-1]])
        )
    return tuple(vectors)


def facet_from_shift_vectors(
    params: ComplexParams, vectors: Sequence[Sequence[int]]
) -> Face:
    """Rebuild the facet encoded by p compositions of n + 1 via prefix sums."""
    if len(vectors) != params.p:
        raise DomainError(f"need {params.p} shift vectors, got {len(vectors)}")
    lengths = {len(v) for v in vectors}
    if len(lengths) != 1 or lengths.pop() < 2:
        raise DomainError("shift vectors must share a common length of at least 2")
    for vec in vectors:
        if any(e < 1 for e in vec):
            raise DomainError(f"shift vector {tuple(vec)} has a non-positive entry")
        if sum(vec) != params.n + 1:
            raise DomainError(f"shift vector {tuple(vec)} does not sum to {params.n + 1}")
    r = len(vectors[0]) - 1
    columns = []
    for vec in vectors:
        prefix = list(itertools.accumulate(vec))[:r]
        columns.append(prefix)
    face = tuple(tuple(col[l] for col in columns) for l in range(r))
    cert = facet_certificate(params, face)
    if not cert.is_facet:
        raise PreconditionError(f"shift vectors {vectors} do not encode a facet")
    return face


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
    """Parse the text exchange format back into parameters and facets."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("#"):
        raise DomainError("facet text must start with a '# p=<p> n=<n>' header")
    try:
        fields = dict(part.split("=") for part in lines[0].lstrip("# ").split())
        p, n = int(fields["p"]), int(fields["n"])
    except (KeyError, ValueError) as exc:
        raise DomainError(f"malformed facet header {lines[0]!r}") from exc
    params = ComplexParams(p, n)
    facets = []
    for ln in lines[1:]:
        verts = []
        for tok in ln.split():
            if not (tok.startswith("(") and tok.endswith(")")):
                raise DomainError(f"malformed vertex token {tok!r}")
            try:
                verts.append(tuple(int(c) for c in tok[1:-1].split(",")))
            except ValueError as exc:
                raise DomainError(f"malformed vertex token {tok!r}") from exc
        facets.append(canonical_face(params, verts))
    return params, facets
