"""Shelling verification for the canonical facet order on Gamma_p(n).

Facets are ordered by dimension (largest first) and then lexicographically
by sigma word.  The order is a shelling iff for every pair i < k there are
j < k and v in F_k with

    F_i /\\ F_k  subset of  F_j /\\ F_k  =  F_k - {v}.

Witnesses come from a constructive route that peels a privately twistable
vertex off F_k (a safe down-twist, or a replacement one dimension up), with
an exhaustive search fallback, or from the exhaustive search alone.  The
same machinery identifies homology facets: those attaching along their
entire boundary, each of which contributes one sphere of its dimension.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import sub

from .complexes import ComplexParams, Face, Vertex, order_key
from .errors import DomainError, PreconditionError, VerificationError
from .facets import _chain_search, enumerate_facets, facet_certificate

__all__ = [
    "order_O_compare",
    "sort_facets",
    "BlockPartition",
    "block_partition",
    "ShellingReport",
    "verify_shelling",
    "shelling_witness",
    "homology_facet_by_criterion",
    "homology_facets_by_criterion",
    "homology_facets_direct",
    "betti_from_shelling",
    "x_family",
    "y_family",
]


def order_O_compare(f1: Face, f2: Face) -> int:
    """-1, 0, or 1 as f1 comes before, equals, or follows f2 in the order.

    Higher dimension sorts first; ties break lexicographically on the sigma
    word, which is injective on facets of equal dimension.
    """
    k1, k2 = order_key(f1), order_key(f2)
    return -1 if k1 < k2 else (0 if k1 == k2 else 1)


def sort_facets(facets) -> list[Face]:
    """Sort facets into the canonical shelling order."""
    return sorted(facets, key=order_key)


@dataclass(frozen=True)
class BlockPartition:
    """Shared and private vertices of a facet pair, grouped into runs.

    Each block is a maximal run of vertices consecutive within its facet:
    c_blocks and i_blocks follow the first facet's vertex sequence, k_blocks
    the second's.  For two facets the private partitions always have the
    same number of blocks.
    """

    c_blocks: tuple[tuple[Vertex, ...], ...]
    i_blocks: tuple[tuple[Vertex, ...], ...]
    k_blocks: tuple[tuple[Vertex, ...], ...]


def _membership_runs(seq: Face, keep) -> tuple[tuple[Vertex, ...], ...]:
    blocks = []
    current: list[Vertex] = []
    for v in seq:
        if keep(v):
            current.append(v)
        elif current:
            blocks.append(tuple(current))
            current = []
    if current:
        blocks.append(tuple(current))
    return tuple(blocks)


def block_partition(params: ComplexParams, face_i: Face, face_k: Face) -> BlockPartition:
    """Partition both vertex sequences into shared and private blocks.

    Walk each facet in order, cutting a block whenever membership in the
    shared vertex set flips.  When both inputs are facets, the private
    partitions are checked to have equal block counts.
    """
    fi = tuple(tuple(v) for v in face_i)
    fk = tuple(tuple(v) for v in face_k)
    shared = set(fi) & set(fk)
    c_blocks = _membership_runs(fi, lambda v: v in shared)
    i_blocks = _membership_runs(fi, lambda v: v not in shared)
    k_blocks = _membership_runs(fk, lambda v: v not in shared)
    both_facets = (
        facet_certificate(params, fi).is_facet
        and facet_certificate(params, fk).is_facet
    )
    if both_facets and len(i_blocks) != len(k_blocks):
        raise VerificationError(
            f"private block counts differ for facets {fi} and {fk}: "
            f"{len(i_blocks)} vs {len(k_blocks)}"
        )
    return BlockPartition(c_blocks, i_blocks, k_blocks)


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of mask, ascending."""
    digits = bin(mask)[:1:-1]
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


def _sweep(facets: list[Face]):
    """Incidence bitsets of each facet F_k against the facets before it.

    Keeps contain[v], the set of indices j < k with v in F_j, as one Python
    int per vertex.  Yields (k, earlier, cols, peels, bad) for k in order:
    earlier holds every j < k, cols[l] is contain[v_l], peels[l] holds the
    j < k with F_k - F_j = {v_l} (prefix and suffix ANDs of cols give the
    earlier facets holding every other vertex), and bad holds the i < k
    containing every peelable vertex, the pairs no peel can witness.
    """
    contain: dict[Vertex, int] = {}
    for k, f in enumerate(facets):
        earlier = (1 << k) - 1
        cols = [contain.get(v, 0) for v in f]
        suffix = [earlier]
        for col in reversed(cols):
            suffix.append(suffix[-1] & col)
        suffix.reverse()
        peels = []
        prefix = bad = earlier
        for col, rest in zip(cols, suffix[1:]):
            peel = prefix & rest & ~col
            peels.append(peel)
            if peel:
                bad &= col
            prefix &= col
        yield k, earlier, cols, peels, bad
        bit = 1 << k
        for v in f:
            contain[v] = contain.get(v, 0) | bit


class _Twists:
    """The constructive route over one ordered facet list."""

    def __init__(self, params: ComplexParams, facets: list[Face]):
        self.p, self.n = params.p, params.n
        self.facets = facets
        vertices = sorted({v for f in facets for v in f})
        self.vbit = {v: 1 << i for i, v in enumerate(vertices)}
        self.masks = [sum(self.vbit[v] for v in f) for f in facets]
        self.index = {f: i for i, f in enumerate(facets)}

    def twistable(self, k: int) -> list[tuple[int, int]]:
        """(l, a) for each vertex v_l of F_k with nonempty down-twist set B_l.

        a is the left-most position of B_l; vertices come in order.
        """
        got = []
        f = self.facets[k]
        for l, v in enumerate(f):
            if l == 0:
                pos = next((a for a, c in enumerate(v) if c > 1), None)
            else:
                prev = f[l - 1]
                pos = next((a for a, c in enumerate(v) if c - prev[a] > 1), None)
            if pos is not None:
                got.append((l, pos))
        return got

    def construct(self, k: int, l: int, a: int) -> tuple[int, Vertex] | None:
        """Witness (j, v_l) with j < k and F_j /\\ F_k exactly F_k - {v_l}.

        Down-twists v_l at position a (the left-most entry of B_l).  When the
        twist alone would break a facet condition, one replacement vertex
        restores it a dimension up: the vertex above v_l with every other
        coordinate advanced, or the all-n vertex after the last position.
        Returns None if the candidate is absent or fails the check; callers
        then fall back to exhaustive search.
        """
        f = self.facets[k]
        r = len(f)
        v = f[l]
        w = tuple(c - 1 if idx == a else c for idx, c in enumerate(v))
        if l < r - 1:
            nxt = f[l + 1]
            gaps = [nxt[idx] - v[idx] for idx in range(self.p) if idx != a]
            if gaps and min(gaps) == 1:
                cand = f[:l] + (w,) + f[l + 1 :]
            else:
                u = tuple(c if idx == a else c + 1 for idx, c in enumerate(v))
                cand = f[:l] + (w, u) + f[l + 1 :]
        else:
            if any(v[idx] == self.n for idx in range(self.p) if idx != a):
                cand = f[:l] + (w,)
            else:
                cand = f[:l] + (w, (self.n,) * self.p)
        j = self.index.get(cand)
        if j is None or j >= k:
            return None
        # verify the witness condition instead of trusting the construction
        if self.masks[j] & self.masks[k] != self.masks[k] & ~self.vbit[v]:
            return None
        return (j, v)

    def witness(
        self, i: int, k: int, peels: list[int], cands: dict
    ) -> tuple[int, Vertex] | None:
        """Witness for (i, k), constructive where possible, else by search.

        cands maps l to construct(k, l, a) for twistable vertices v_l in
        order.  Unless it is empty (search only), it holds the first
        twistable vertex missing from F_i, if there is one.  The search
        takes the first vertex of F_k missing from F_i that an earlier
        facet peels off, with the earliest such facet.
        """
        mi = self.masks[i]
        f = self.facets[k]
        for l, res in cands.items():
            if not mi & self.vbit[f[l]]:
                if res is not None:
                    return res
                break
        for v, peel in zip(f, peels):
            if peel and not mi & self.vbit[v]:
                return ((peel & -peel).bit_length() - 1, v)
        return None


@dataclass
class ShellingReport:
    """Outcome of the pairwise check over one ordered facet list.

    witnesses holds the first witness_limit pairs in scan order (k ascending,
    then i); violations and fallbacks are complete.  fallbacks lists pairs
    where the constructive route failed and search found a witness anyway;
    disagreements lists pairs where the two routes differed in existence
    (only populated in mode "both", expected empty).
    """

    p: int
    n: int
    mode: str
    facet_count: int
    total_pairs: int
    constructed: int
    witnesses: dict[tuple[int, int], tuple[int, Vertex]]
    witness_limit: int
    violations: list[tuple[int, int]]
    fallbacks: list[tuple[int, int]]
    disagreements: list[tuple[int, int]] = field(default_factory=list)

    @property
    def is_shelling(self) -> bool:
        return not self.violations


_MODES = ("constructive", "exhaustive", "both")


def _normalize_order(params: ComplexParams, order) -> list[Face]:
    facets = [tuple(tuple(v) for v in f) for f in order]
    canonical = enumerate_facets(params)
    if len(facets) != len(canonical) or set(facets) != set(canonical):
        raise DomainError("order must list every facet exactly once")
    return facets


def verify_shelling(
    params: ComplexParams,
    order=None,
    *,
    witness_mode: str = "constructive",
    witness_limit: int = 100,
) -> ShellingReport:
    """Check the pairwise shelling condition for every pair i < k.

    order defaults to the canonical facet order; an explicit order must be a
    permutation of the facets.  One sweep over k settles all pairs (i, k) at
    once with bitsets over i.  The search route: a pair has a witness iff
    F_i misses some vertex of F_k that an earlier facet peels off, so the
    pairs without one are those containing every peelable vertex (the
    restriction criterion of Bjorner and Wachs for nonpure shellings).  The
    constructive route groups the pairs by the first twistable vertex of
    F_k missing from F_i and builds one candidate per group; pairs whose
    candidate fails, or with no such vertex, go to the search.

    witness_mode selects the constructive route (with search fallback), the
    search alone, or both with an existence cross-check.  Witnesses are
    worked out pair by pair for the first witness_limit pairs only.
    """
    if order is None:
        facets = enumerate_facets(params)
    else:
        facets = _normalize_order(params, order)
    return _verify_order(params, facets, witness_mode, witness_limit)


def _verify_order(
    params: ComplexParams, facets: list[Face], witness_mode: str, witness_limit: int
) -> ShellingReport:
    """The body of verify_shelling for a list known to order every facet once."""
    if witness_mode not in _MODES:
        raise DomainError(f"witness_mode must be one of {_MODES}")
    if witness_limit < 0:
        raise DomainError(f"witness_limit must be nonnegative, got {witness_limit}")
    twists = _Twists(params, facets)
    constructed = 0
    witnesses: dict[tuple[int, int], tuple[int, Vertex]] = {}
    violations: list[tuple[int, int]] = []
    fallbacks: list[tuple[int, int]] = []
    disagreements: list[tuple[int, int]] = []
    for k, earlier, cols, peels, bad in _sweep(facets):
        cands: dict[int, tuple[int, Vertex] | None] = {}
        if witness_mode == "exhaustive":
            search = earlier
        else:
            search = built = 0
            rest = earlier
            for l, a in twists.twistable(k):
                group = rest & ~cols[l]
                if group:
                    rest ^= group
                    cands[l] = twists.construct(k, l, a)
                    if cands[l] is None:
                        search |= group
                    else:
                        built |= group
            search |= rest
            constructed += built.bit_count()
            fallbacks += [(i, k) for i in _bits(search & ~bad)]
            if witness_mode == "both":
                disagreements += [(i, k) for i in _bits(built & bad)]
        violating = search & bad
        violations += [(i, k) for i in _bits(violating)]
        room = witness_limit - len(witnesses)
        if room > 0:
            for i in _bits(earlier & ~violating)[:room]:
                witnesses[(i, k)] = twists.witness(i, k, peels, cands)
    t = len(facets)
    return ShellingReport(
        p=params.p,
        n=params.n,
        mode=witness_mode,
        facet_count=t,
        total_pairs=t * (t - 1) // 2,
        constructed=constructed,
        witnesses=witnesses,
        witness_limit=witness_limit,
        violations=violations,
        fallbacks=fallbacks,
        disagreements=disagreements,
    )


def shelling_witness(face_i, face_k, facets_in_order) -> tuple[int, Vertex] | None:
    """Witness (j, v) for an ordered facet pair, or None if none exists.

    The complex parameters are inferred from the facet list: p is the vertex
    arity and n the largest coordinate present (every facet touches n).
    """
    facets = [tuple(tuple(v) for v in f) for f in facets_in_order]
    if not facets:
        raise DomainError("facet list is empty")
    p = len(facets[0][0])
    n = max(c for f in facets for v in f for c in v)
    params = ComplexParams(p, n)
    fi = tuple(tuple(v) for v in face_i)
    fk = tuple(tuple(v) for v in face_k)
    try:
        i = facets.index(fi)
        k = facets.index(fk)
    except ValueError as exc:
        raise DomainError("both faces must appear in the facet list") from exc
    if i == k:
        raise PreconditionError("the pair must consist of two distinct facets")
    if i > k:
        raise PreconditionError("the first facet must precede the second")
    twists = _Twists(params, facets)
    cands = {l: twists.construct(k, l, a) for l, a in twists.twistable(k)}
    _, _, _, peels, _ = next(itertools.islice(_sweep(facets), k, None))
    return twists.witness(i, k, peels, cands)


def _down_twistable(params: ComplexParams, face: Face) -> bool:
    """Check that a canonical face is a facet, then apply the criterion.

    One pass over the junctions: every vertex must have p coordinates, the
    coordinate differences at each junction must have minimum 1 (P3, which
    with P1 and P2 also keeps every coordinate increasing within 1..n), and
    the criterion asks for a maximum above 1 at every junction and for the
    first vertex to exceed 1 somewhere.  Raises PreconditionError if the
    face is not a facet.
    """
    p = params.p
    first = face[0]
    if len(first) != p or min(first) != 1 or max(face[-1]) != params.n:
        raise PreconditionError(f"{face} is not a facet")
    twistable = max(first) > 1
    for prev, cur in zip(face, face[1:]):
        diffs = list(map(sub, cur, prev))
        if len(cur) != p or min(diffs) != 1:
            raise PreconditionError(f"{face} is not a facet")
        if max(diffs) == 1:
            twistable = False
    return twistable


def homology_facet_by_criterion(params: ComplexParams, facet) -> bool:
    """True iff every vertex of the facet has a nonempty down-twist set.

    The first vertex must exceed 1 somewhere and every later vertex must
    exceed its predecessor by more than 1 somewhere.  Applied to single
    vertices as well, where it reads: the vertex is not all ones.
    """
    cert = facet_certificate(params, facet)
    if not cert.is_facet:
        raise PreconditionError(f"{cert.face} is not a facet")
    return _down_twistable(params, cert.face)


def homology_facets_by_criterion(params: ComplexParams) -> list[Face]:
    """All facets selected by the down-twist criterion, in canonical order.

    Runs the facet search pruned by the criterion instead of filtering every
    facet: it starts only at first vertices that are not all ones, follows
    only junctions whose maximum difference exceeds 1, and drops chains that
    reach a dead end before a coordinate hits n.  homology_facet_by_criterion
    checks single faces junction by junction, independently of the search.
    """
    return _chain_search(params, twistable=True)


def homology_facets_direct(params: ComplexParams, order=None) -> list[Face]:
    """Facets attaching along their entire boundary, by direct containment.

    F_k qualifies iff every face F_k - {v} lies in some earlier facet; for a
    single vertex the boundary is the empty face, so any earlier facet
    suffices.  An explicit order must also be a shelling, which the same
    sweep checks; the default canonical order is used as given.
    """
    if order is None:
        facets = enumerate_facets(params)
    else:
        facets = _normalize_order(params, order)
    out = []
    violating = 0
    for k, _, _, peels, bad in _sweep(facets):
        if all(peels):
            out.append(facets[k])
        violating += bad.bit_count()
    if order is not None and violating:
        raise PreconditionError(f"order is not a shelling ({violating} violating pairs)")
    return out


def betti_from_shelling(params: ComplexParams) -> tuple[int, ...]:
    """Reduced Betti numbers (beta_-1, ..., beta_{n-1}) by counting spheres.

    Each facet that attaches along its entire boundary contributes one
    sphere of its dimension; nothing else contributes.
    """
    betti = [0] * (params.n + 1)
    for f in homology_facets_direct(params):
        betti[len(f)] += 1
    return tuple(betti)


def x_family(params: ComplexParams) -> list[Face]:
    """Homology facets whose last vertex is not (n, ..., n).

    Uses the down-twist criterion, which the suite checks against the direct
    attachment computation.
    """
    top = (params.n,) * params.p
    return [f for f in homology_facets_by_criterion(params) if f[-1] != top]


def y_family(params: ComplexParams) -> list[Face]:
    """Homology facets whose last vertex is (n, ..., n).

    These are exactly the x-family members of the next smaller complex with
    the all-n vertex appended.
    """
    top = (params.n,) * params.p
    return [f for f in homology_facets_by_criterion(params) if f[-1] == top]
