"""Shelling verification for the canonical facet order on Gamma_p(n).

Facets are ordered by dimension (largest first) and then lexicographically
by sigma word.  The order is a shelling iff for every pair i < k there are
j < k and v in F_k with

    F_i /\\ F_k  subset of  F_j /\\ F_k  =  F_k - {v}.

Witnesses come from a constructive route that peels a privately twistable
vertex off F_k (a safe down-twist, or a replacement one dimension up), with
an exhaustive search fallback, or from the exhaustive search alone.  The
constructive route numbers vertices in radix n + 2, so a twist is one
subtraction and each jump of the padded chain is read from a table.  The
same machinery identifies homology facets: those attaching along their
entire boundary, each of which contributes one sphere of its dimension.
"""

from __future__ import annotations

from itertools import groupby

from .complexes import ComplexParams, Face, Vertex, canonical_face
from .errors import DomainError, Record, VerificationError, _require_at_least
from .facets import _chain_search, _jumps, _require_facet, enumerate_facets, facet_certificate

__all__ = [
    "BlockPartition",
    "ShellingReport",
    "betti_from_shelling",
    "block_partition",
    "homology_facet_by_criterion",
    "homology_facets_by_criterion",
    "homology_facets_direct",
    "homology_families",
    "verify_shelling",
]


class BlockPartition(Record):
    """Shared and private vertices of a facet pair, grouped into runs.

    Each block is a maximal run of vertices consecutive within its facet:
    c_blocks and i_blocks follow the first facet's canonical vertex order,
    k_blocks the second's.  For two facets the private partitions always
    have the same number of blocks.
    """

    _fields = ("c_blocks", "i_blocks", "k_blocks")


def block_partition(params: ComplexParams, face_i: Face, face_k: Face) -> BlockPartition:
    """Partition both vertex sequences into shared and private blocks.

    Walk each face in canonical order, cutting a block whenever membership
    in the shared vertex set flips.  When both inputs are facets, the
    private partitions are checked to have equal block counts.
    """
    cert_i, cert_k = facet_certificate(params, face_i), facet_certificate(params, face_k)
    fi, fk = cert_i.face, cert_k.face
    is_shared = (set(fi) & set(fk)).__contains__
    fi_runs = [(shared, tuple(run)) for shared, run in groupby(fi, is_shared)]
    c_blocks = tuple(run for shared, run in fi_runs if shared)
    i_blocks = tuple(run for shared, run in fi_runs if not shared)
    k_blocks = tuple(tuple(run) for shared, run in groupby(fk, is_shared) if not shared)
    if cert_i.is_facet and cert_k.is_facet and len(i_blocks) != len(k_blocks):
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


class _Table(dict):
    """A dict that fills a missing key with fill(key) and keeps it."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


class _Twists:
    """The constructive route over one ordered facet list.

    Vertices get ids in radix R = n + 2, position a weighing R^(p-1-a).  On
    the padded chain (0, ..., 0) < F < (n + 1, ..., n + 1) every jump has its
    coordinates in 1..n + 1 < R, so a jump's id is the difference of two
    vertex ids, with no borrow.  Two predicates are kept per jump id, each
    worked out the first time the jump is seen: the first position whose
    coordinate exceeds 1, and, as a bitmask over a, whether a coordinate
    other than a equals 1.
    """

    def __init__(self, params: ComplexParams, facets: list[Face]):
        p, n = params.p, params.n
        radix = n + 2
        self.place = place = [radix ** (p - 1 - a) for a in range(p)]
        self.ones = sum(place)
        self.top = (n + 1) * self.ones
        self.all_n = (n,) * p
        self.facets = facets
        self.index = {f: i for i, f in enumerate(facets)}

        def digits(i: int) -> list[int]:
            return [i // w % radix for w in place]

        def first_wide(j: int) -> int | None:
            return next((a for a, c in enumerate(digits(j)) if c > 1), None)

        def beside_one(j: int) -> int:
            unit = [b for b, c in enumerate(digits(j)) if c == 1]
            return sum(1 << a for a in range(p) if any(b != a for b in unit))

        self.ids = _Table(lambda v: sum(c * w for c, w in zip(v, place)))
        self.vertex = _Table(lambda i: tuple(digits(i)))
        self.first_wide = _Table(first_wide)
        self.beside_one = _Table(beside_one)

    def twistable(self, k: int) -> list[tuple[int, int]]:
        """(l, a) for each vertex v_l of F_k with nonempty down-twist set B_l.

        a is the left-most position of B_l, where jump l exceeds 1; vertices
        come in order.
        """
        ids, first_wide = self.ids, self.first_wide
        got = []
        prev = 0
        for l, v in enumerate(self.facets[k]):
            i = ids[v]
            a = first_wide[i - prev]
            if a is not None:
                got.append((l, a))
            prev = i
        return got

    def construct(self, k: int, l: int, a: int) -> tuple[int, Vertex] | None:
        """Witness (j, v_l) with j < k and F_j /\\ F_k exactly F_k - {v_l}.

        Down-twists v_l at position a (the left-most entry of B_l).  When the
        twist alone would break a facet condition, because no coordinate of
        jump l + 1 but a equals 1, one replacement vertex restores it a
        dimension up: the vertex above v_l with every other coordinate
        advanced, or the all-n vertex after the last position.  Returns None
        if the candidate is absent or fails the check; callers then fall
        back to exhaustive search.
        """
        f = self.facets[k]
        v, after = f[l], f[l + 1 :]
        i = self.ids[v]
        step = self.place[a]
        twisted = (self.vertex[i - step],)
        if not self.beside_one[(self.ids[after[0]] if after else self.top) - i] >> a & 1:
            twisted += (self.vertex[i + self.ones - step] if after else self.all_n,)
        j = self.index.get(f[:l] + twisted + after)
        if j is None or j >= k:
            return None
        # verify the witness condition on the found facet instead of trusting
        # the construction: F_j holds the vertices of F_k before v at its
        # start and those after v at its end, and not v, so F_k - F_j = {v}
        g = self.facets[j]
        if v in g or g[:l] != f[:l] or g[len(g) - len(after) :] != after:
            return None
        return (j, v)


def _witness(
    f: Face, i: int, cols: list[int], peels: list[int], cands: dict
) -> tuple[int, Vertex] | None:
    """Witness for (i, k), constructive where possible, else by search.

    f is F_k, and cols and peels are the sweep's bitsets for it: F_i holds
    v_l iff bit i of cols[l] is set.  cands maps l to construct(k, l, a) for
    twistable vertices v_l in order.  Unless it is empty (search only), it
    holds the first twistable vertex missing from F_i, if there is one.  The
    search takes the first vertex of F_k missing from F_i that an earlier
    facet peels off, with the earliest such facet.
    """
    for l, res in cands.items():
        if not cols[l] >> i & 1:
            if res is not None:
                return res
            break
    for v, col, peel in zip(f, cols, peels):
        if peel and not col >> i & 1:
            return ((peel & -peel).bit_length() - 1, v)
    return None


class ShellingReport(Record):
    """Outcome of the pairwise check over one ordered facet list.

    witnesses maps a pair (i, k) to its witness (j, v); violations,
    fallbacks and disagreements list pairs (i, k).  Pairs come in scan order
    (k ascending, then i); each of the four keeps the first witness_limit
    of its pairs, and the *_count fields count them all.  fallbacks are
    pairs where the constructive route failed and search found a witness
    anyway; disagreements are pairs where the two routes differed in
    existence (only found in mode "both", expected none).  Its dict and
    list fields make it unhashable.
    """

    _fields = (
        "p", "n", "mode", "facet_count", "total_pairs", "constructed",
        "witnesses", "witness_limit", "violations", "violation_count",
        "fallbacks", "fallback_count", "disagreements", "disagreement_count",
    )

    @property
    def is_shelling(self) -> bool:
        return not self.violation_count


_MODES = ("constructive", "exhaustive", "both")


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
    worked out pair by pair for the first witness_limit pairs only, and the
    violation, fallback and disagreement lists keep as many pairs each.
    """
    facets = enumerate_facets(params)
    if order is not None:
        try:
            ordered = [canonical_face(params, f) for f in order]
        except TypeError:
            raise DomainError(f"order {order!r} is not a collection of faces") from None
        if len(ordered) != len(facets) or set(ordered) != set(facets):
            raise DomainError("order must list every facet exactly once")
        facets = ordered
    return _verify_order(params, facets, witness_mode, witness_limit)


def _tally(pairs: list[tuple[int, int]], mask: int, k: int, limit: int) -> int:
    """Keep pairs (i, k), i in mask, up to limit in all; count every one."""
    room = limit - len(pairs)
    if room > 0 and mask:
        pairs += [(i, k) for i in _bits(mask)[:room]]
    return mask.bit_count()


def _verify_order(
    params: ComplexParams, facets: list[Face], witness_mode: str, witness_limit: int
) -> ShellingReport:
    """The body of verify_shelling for a list known to order every facet once."""
    if witness_mode not in _MODES:
        raise DomainError(f"witness_mode must be one of {_MODES}")
    _require_at_least(0, witness_limit=witness_limit)
    # search alone needs no twists
    twists = None if witness_mode == "exhaustive" else _Twists(params, facets)
    constructed = violation_count = fallback_count = disagreement_count = 0
    witnesses: dict[tuple[int, int], tuple[int, Vertex]] = {}
    violations: list[tuple[int, int]] = []
    fallbacks: list[tuple[int, int]] = []
    disagreements: list[tuple[int, int]] = []
    for k, earlier, cols, peels, bad in _sweep(facets):
        cands: dict[int, tuple[int, Vertex] | None] = {}
        if witness_mode == "exhaustive":
            search = earlier
        else:
            # the pairs left to group, and those whose group's candidate failed
            rest = earlier
            failed = 0
            for l, a in twists.twistable(k):
                kept = rest & cols[l]
                if kept != rest:
                    res = cands[l] = twists.construct(k, l, a)
                    if res is None:
                        failed |= rest ^ kept
                    rest = kept
            search = failed | rest
            constructed += k - search.bit_count()
            fallback = search & ~bad
            if fallback:
                fallback_count += _tally(fallbacks, fallback, k, witness_limit)
            if witness_mode == "both":
                disagreement_count += _tally(
                    disagreements, (earlier ^ search) & bad, k, witness_limit
                )
        violating = search & bad
        if violating:
            violation_count += _tally(violations, violating, k, witness_limit)
        room = witness_limit - len(witnesses)
        if room > 0:
            for i in _bits(earlier & ~violating)[:room]:
                witnesses[(i, k)] = _witness(facets[k], i, cols, peels, cands)
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
        violation_count=violation_count,
        fallbacks=fallbacks,
        fallback_count=fallback_count,
        disagreements=disagreements,
        disagreement_count=disagreement_count,
    )


def homology_facet_by_criterion(params: ComplexParams, facet) -> bool:
    """True iff every vertex of the facet has a nonempty down-twist set.

    Vertex l can move down where jump l of the padded chain exceeds 1.  On a
    face no jump has a coordinate below 1, so this reads: no jump but the
    last is (1, ..., 1).  For a single vertex: it is not all ones.
    """
    jumps = _jumps(params, _require_facet(params, facet))
    return (1,) * params.p not in jumps[:-1]


def homology_facets_by_criterion(params: ComplexParams) -> list[Face]:
    """All facets selected by the down-twist criterion, in canonical order.

    Runs the facet search pruned by the criterion instead of filtering every
    facet: it starts only at first vertices that are not all ones, follows
    only junctions whose maximum difference exceeds 1, and drops chains that
    reach a dead end before a coordinate hits n.  homology_facet_by_criterion
    checks single faces junction by junction, independently of the search.
    """
    return _chain_search(params, twistable=True)


def homology_facets_direct(params: ComplexParams) -> list[Face]:
    """Facets attaching along their entire boundary, by direct containment.

    F_k qualifies iff every face F_k - {v} lies in some earlier facet of the
    canonical order; for a single vertex the boundary is the empty face, so
    any earlier facet suffices.  The spheres count the homology only if the
    order is a shelling, so a pair (i, k) without a witness raises
    VerificationError.
    """
    facets = enumerate_facets(params)
    found = []
    for k, _, _, peels, bad in _sweep(facets):
        if bad:
            i = (bad & -bad).bit_length() - 1
            raise VerificationError(
                f"facet order is not a shelling: pair ({i}, {k}) has no witness"
            )
        if all(peels):
            found.append(facets[k])
    return found


def betti_from_shelling(params: ComplexParams) -> tuple[int, ...]:
    """Reduced Betti numbers (beta_-1, ..., beta_{n-1}) by counting spheres.

    Each facet that attaches along its entire boundary contributes one
    sphere of its dimension; nothing else contributes.
    """
    betti = [0] * (params.n + 1)
    for f in homology_facets_direct(params):
        betti[len(f)] += 1
    return tuple(betti)


def homology_families(params: ComplexParams) -> tuple[list[Face], list[Face]]:
    """The homology facets split by their last vertex: (x-family, y-family).

    The x-family ends below (n, ..., n), the y-family at it; the y-family is
    the x-family of the next smaller complex with the all-n vertex appended.
    Both come from one criterion search, which the suite checks against the
    direct attachment computation.
    """
    top = (params.n,) * params.p
    found = homology_facets_by_criterion(params)
    return [f for f in found if f[-1] != top], [f for f in found if f[-1] == top]
