"""The canonical facet order, its shelling property, and homology facets."""

import random
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gammashell import shelling
from gammashell.complexes import (
    ComplexParams,
    f_vector_formula,
    order_key,
    reduced_euler_characteristic,
)
from gammashell.errors import DomainError, PreconditionError, VerificationError
from gammashell.facets import enumerate_facets
from gammashell.genfun import alternating_homology_count
from gammashell.identities import dixon_lhs, power_sum_lhs
from gammashell.shelling import (
    ShellingReport,
    _Twists,
    betti_from_shelling,
    block_partition,
    homology_facet_by_criterion,
    homology_facets_by_criterion,
    homology_facets_direct,
    homology_families,
    verify_shelling,
)

from .conftest import (
    REFERENCE_SHAPES,
    cached_facets,
    facet_pairs,
    reference_enumerate_facets,
)

# homology facet counts of Delta(n) by vertex count, frozen from the direct
# attachment computation and cross-checked against matrix-rank Betti numbers
HOMOLOGY_CENSUS = {
    2: {1: 6},
    3: {1: 12, 2: 12},
    4: {1: 18, 2: 114, 3: 6},
    5: {1: 24, 2: 396, 3: 372},
    6: {1: 30, 2: 948, 3: 3138, 4: 540},
}


def _compare(f1, f2):
    """-1, 0, or 1 as f1 comes before, equals, or follows f2 under order_key."""
    k1, k2 = order_key(f1), order_key(f2)
    return (k1 > k2) - (k1 < k2)


def test_order_compare_is_a_total_order():
    fs = list(cached_facets(3, 3))
    for a, b in zip(fs, fs[1:]):
        assert _compare(a, b) == -1
        assert _compare(b, a) == 1
    assert all(_compare(f, f) == 0 for f in fs)


def test_sort_facets_is_deterministic_and_idempotent():
    fs = list(cached_facets(3, 4))
    shuffled = fs[::-1]
    once = sorted(shuffled, key=order_key)
    assert once == fs
    assert sorted(once, key=order_key) == once


def test_block_partition_structure():
    params = ComplexParams(3, 3)
    f_i = ((1, 1, 1), (2, 2, 2), (3, 3, 3))
    f_k = ((1, 1, 2), (3, 3, 3))
    part = block_partition(params, f_i, f_k)
    assert part.c_blocks == (((3, 3, 3),),)
    assert part.i_blocks == (((1, 1, 1), (2, 2, 2)),)
    assert part.k_blocks == (((1, 1, 2),),)


def test_block_partition_validates_both_faces():
    # the first face is not a facet, which must not skip the second
    params = ComplexParams(3, 3)
    with pytest.raises(DomainError):
        block_partition(params, [(1, 1, 1)], [(9, 9, 9)])
    with pytest.raises(DomainError):
        block_partition(params, [(9, 9, 9)], [(1, 1, 1)])
    # the faces are validated into canonical order before the blocks are cut
    facets = cached_facets(3, 3)
    for f_i in facets:
        for f_k in facets:
            reverse = block_partition(params, f_i[::-1], f_k[::-1])
            assert reverse == block_partition(params, f_i, f_k)


@given(facet_pairs())
def test_block_partition_invariants(args):
    params, pool, i, k = args
    f_i, f_k = pool[i], pool[k]
    part = block_partition(params, f_i, f_k)
    shared = set(f_i) & set(f_k)
    flat_c = [v for blk in part.c_blocks for v in blk]
    flat_i = [v for blk in part.i_blocks for v in blk]
    flat_k = [v for blk in part.k_blocks for v in blk]
    assert flat_c == [v for v in f_i if v in shared]
    assert flat_i == [v for v in f_i if v not in shared]
    assert flat_k == [v for v in f_k if v not in shared]
    # facets always split their private vertices into equally many blocks
    assert len(part.i_blocks) == len(part.k_blocks)
    # blocks are maximal runs: consecutive in the facet, never mergeable
    for blocks, seq in ((part.i_blocks, f_i), (part.k_blocks, f_k)):
        positions = {v: idx for idx, v in enumerate(seq)}
        for blk in blocks:
            idxs = [positions[v] for v in blk]
            assert idxs == list(range(idxs[0], idxs[0] + len(blk)))


@pytest.mark.parametrize("p,n", [(1, 4), (2, 5), (3, 4)])
def test_canonical_order_is_a_shelling(p, n):
    report = verify_shelling(ComplexParams(p, n))
    assert report.is_shelling
    assert report.violations == []
    assert report.violation_count == 0
    t = report.facet_count
    assert report.total_pairs == t * (t - 1) // 2


@pytest.mark.parametrize("n", [2, 3])
def test_reversed_order_is_not_a_shelling(n):
    params = ComplexParams(3, n)
    reversed_order = list(cached_facets(3, n))[::-1]
    report = verify_shelling(params, reversed_order, witness_mode="exhaustive")
    assert not report.is_shelling
    assert len(report.violations) >= 1
    assert report.violation_count >= len(report.violations)


def test_pair_lists_are_capped_at_the_witness_limit():
    params = ComplexParams(3, 3)
    order = list(cached_facets(3, 3))[::-1]
    full = verify_shelling(params, order, witness_mode="both", witness_limit=10**6)
    capped = verify_shelling(params, order, witness_mode="both", witness_limit=7)
    assert capped.violation_count > 7
    assert not capped.is_shelling
    for name in ("violation", "fallback", "disagreement"):
        pairs = getattr(full, name + "s")
        assert getattr(full, name + "_count") == len(pairs)
        assert getattr(capped, name + "_count") == len(pairs)
        assert getattr(capped, name + "s") == pairs[:7]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_witness_routes_agree(n):
    report = verify_shelling(ComplexParams(3, n), witness_mode="both")
    assert report.is_shelling
    assert report.disagreements == []
    assert report.disagreement_count == 0
    # the constructive route never needed the search fallback
    assert report.fallbacks == []
    assert report.fallback_count == 0
    assert report.constructed == report.total_pairs


def test_witness_limit_caps_stored_witnesses():
    report = verify_shelling(ComplexParams(3, 3), witness_limit=5)
    assert len(report.witnesses) == 5
    assert report.total_pairs == 666


def test_verify_shelling_rejects_bad_input():
    params = ComplexParams(3, 2)
    with pytest.raises(DomainError):
        verify_shelling(params, witness_mode="telepathy")
    with pytest.raises(DomainError):
        verify_shelling(params, witness_limit=-1)
    with pytest.raises(DomainError):
        verify_shelling(params, list(cached_facets(3, 2))[:-1])
    with pytest.raises(DomainError):
        verify_shelling(params, list(cached_facets(3, 3)))
    for order in ([1, 2, 3], 5):
        with pytest.raises(DomainError, match="not a collection"):
            verify_shelling(params, order)


@given(facet_pairs(), st.sampled_from(["constructive", "exhaustive", "both"]))
def test_stored_witnesses_satisfy_the_condition(args, mode):
    params, pool, i, k = args
    # pairs are stored in scan order (k, then i): this limit ends at (i, k)
    limit = k * (k - 1) // 2 + i + 1
    report = verify_shelling(params, witness_mode=mode, witness_limit=limit)
    assert len(report.witnesses) == limit
    assert list(report.witnesses)[-1] == (i, k)
    sets = [set(f) for f in pool]
    for (a, b), (j, v) in report.witnesses.items():
        assert j < b
        assert v in sets[b]
        shared = sets[j] & sets[b]
        assert shared == sets[b] - {v}
        assert sets[a] & sets[b] <= shared


def test_pair_without_a_witness_is_a_violation():
    # reversed order: the big facet comes last, all singletons before it
    pool = list(cached_facets(3, 2))[::-1]
    edge = ((1, 1, 1), (2, 2, 2))
    singleton = ((1, 1, 2),)
    pair = (pool.index(singleton), pool.index(edge))
    report = verify_shelling(ComplexParams(3, 2), pool, witness_limit=10**6)
    assert pair in report.violations
    assert pair not in report.witnesses


def test_constructed_witness_is_checked_on_the_faces():
    # down-twisting the last vertex (3,) of ((1,), (3,)) gives (2,), and the
    # all-n vertex appended after it is (3,) again: the candidate is the
    # earlier facet, but it holds v, so the check must refuse it
    twists = _Twists(ComplexParams(1, 3), [((1,), (2,), (3,)), ((1,), (3,))])
    assert twists.twistable(1) == [(1, 0)]
    assert twists.construct(1, 1, 0) is None
    # on Gamma_2(3) both twistable vertices of ((1, 2), (3, 3)) give witnesses:
    # the first through a replacement vertex, the last through the all-n one
    pool = list(cached_facets(2, 3))
    twists = _Twists(ComplexParams(2, 3), pool)
    k = pool.index(((1, 2), (3, 3)))
    got = [twists.construct(k, l, a) for l, a in twists.twistable(k)]
    assert got == [
        (pool.index(((1, 1), (2, 2), (3, 3))), (1, 2)),
        (pool.index(((1, 2), (2, 3))), (3, 3)),
    ]
    for j, v in got:
        assert set(pool[j]) & set(pool[k]) == set(pool[k]) - {v}


# -- frozen tuple-based constructive route -----------------------------------
#
# twistable and construct as they read before vertices carried radix ids:
# each builds its vertices and candidates coordinate by coordinate.  Kept
# verbatim as an oracle for _Twists and must not be changed with it.


class _FrozenTwists:
    def __init__(self, params, facets):
        self.p, self.n = params.p, params.n
        self.facets = facets
        self.index = {f: i for i, f in enumerate(facets)}

    def twistable(self, k):
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

    def construct(self, k, l, a):
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
        # verify the witness condition instead of trusting the construction:
        # F_j /\ F_k = F_k - {v} iff F_k - F_j = {v}
        if set(f).difference(cand) != {v}:
            return None
        return (j, v)


@pytest.mark.parametrize(
    "p, n_max", [(1, 7), (2, 6), (3, 5), (4, 4), (5, 3)], ids=lambda x: str(x)
)
def test_twists_match_the_frozen_tuple_route(p, n_max):
    for n in range(1, n_max + 1):
        params = ComplexParams(p, n)
        canonical = list(cached_facets(p, n))
        shuffled = canonical[:]
        random.Random(n).shuffle(shuffled)
        for order in (canonical, canonical[::-1], shuffled):
            twists, frozen = _Twists(params, order), _FrozenTwists(params, order)
            for k in range(len(order)):
                got = twists.twistable(k)
                assert got == frozen.twistable(k), (n, order[k])
                for l, a in got:
                    assert twists.construct(k, l, a) == frozen.construct(k, l, a), (
                        n, order[k], l,
                    )


def test_homology_criterion_examples():
    params = ComplexParams(3, 2)
    assert homology_facet_by_criterion(params, ((1, 1, 2),))
    assert not homology_facet_by_criterion(params, ((1, 1, 1), (2, 2, 2)))
    with pytest.raises(PreconditionError):
        homology_facet_by_criterion(params, ((1, 1, 1),))


@pytest.mark.parametrize(
    "p,n", [(2, 4), (3, 4), (3, 5), (3, 1), (3, 2), (3, 3), (3, 6)]
)
def test_homology_criterion_matches_direct_attachment(p, n):
    params = ComplexParams(p, n)
    assert homology_facets_by_criterion(params) == homology_facets_direct(params)


@pytest.mark.parametrize(
    "p,n", [(1, 6), (2, 5), (3, 1), (3, 2), (3, 3), (3, 4), (4, 3), (4, 4)]
)
def test_criterion_scan_matches_the_per_facet_criterion(p, n):
    params = ComplexParams(p, n)
    assert homology_facets_by_criterion(params) == [
        f for f in enumerate_facets(params) if homology_facet_by_criterion(params, f)
    ]


@lru_cache(maxsize=None)
def _reference_homology_facets_by_criterion(params):
    """The scan that enumerated every facet and then filtered it with the
    per-facet criterion; cached, as two tests run it on the same shapes."""
    return [
        f
        for f in reference_enumerate_facets(params)
        if homology_facet_by_criterion(params, f)
    ]


@pytest.mark.parametrize("p,n", REFERENCE_SHAPES)
def test_criterion_scan_matches_the_frozen_filter_scan(p, n):
    params = ComplexParams(p, n)
    assert homology_facets_by_criterion(params) == (
        _reference_homology_facets_by_criterion(params)
    )


def _signed(facets):
    return sum(-1 if len(f) % 2 else 1 for f in facets)


@pytest.mark.parametrize(
    "p,n", [(p, n) for p in range(2, 6) for n in range(1, 6)] + [(3, 6), (3, 7)]
)
def test_signed_chain_count_matches_the_listed_facets(p, n):
    params = ComplexParams(p, n)
    count = alternating_homology_count(n, p)
    assert count == _signed(homology_facets_by_criterion(params))
    assert count == _signed(_reference_homology_facets_by_criterion(params))


def test_per_facet_criterion_rejects_non_facets():
    params = ComplexParams(3, 3)
    assert homology_facet_by_criterion(params, ((1, 1, 2), (2, 3, 3)))
    for face, error in (
        (((1, 1), (2, 2, 2), (3, 3, 3)), DomainError),  # arity of the first vertex
        (((1, 3),), DomainError),  # arity of a single vertex
        (((1, 1, 1), (2, 2), (3, 3, 3)), DomainError),  # arity of a later vertex
        (((2, 2, 2), (3, 3, 3)), PreconditionError),  # P2
        (((1, 1, 1), (2, 2, 2)), PreconditionError),  # P1
        (((1, 1, 1), (3, 3, 3)), PreconditionError),  # P3: no difference equal to 1
        (((1, 1, 1), (2, 2, 1), (3, 3, 3)), DomainError),  # not increasing
    ):
        with pytest.raises(error):
            homology_facet_by_criterion(params, face)


@pytest.mark.slow
def test_criterion_matches_direct_attachment_at_n8():
    # ~40 s on a 2-core machine, nearly all of it in the direct attachment sweep
    params = ComplexParams(3, 8)
    direct = homology_facets_direct(params)
    assert homology_facets_by_criterion(params) == direct
    assert len(direct) == 173034
    betti = [0] * 9
    for f in direct:
        betti[len(f)] += 1
    assert tuple(betti) == (0, 42, 3222, 42510, 100530, 26640, 90, 0, 0)


def test_homology_census():
    for n, expected in HOMOLOGY_CENSUS.items():
        if n > 4:
            continue
        census = {}
        for f in homology_facets_direct(ComplexParams(3, n)):
            census[len(f)] = census.get(len(f), 0) + 1
        assert census == expected


def test_betti_from_shelling_examples():
    assert betti_from_shelling(ComplexParams(3, 1)) == (0, 0)
    assert betti_from_shelling(ComplexParams(3, 2)) == (0, 6, 0)
    assert betti_from_shelling(ComplexParams(3, 3)) == (0, 12, 12, 0)
    assert betti_from_shelling(ComplexParams(3, 4)) == (0, 18, 114, 6, 0)
    assert betti_from_shelling(ComplexParams(3, 5)) == (0, 24, 396, 372, 0, 0)


def test_betti_from_shelling_refuses_an_order_that_is_not_a_shelling(monkeypatch):
    # counted along the reversed order, Gamma_3(3) would read (0, 11, 11, 0)
    # against the true (0, 12, 12, 0)
    params = ComplexParams(3, 3)
    backwards = enumerate_facets(params)[::-1]
    monkeypatch.setattr(shelling, "enumerate_facets", lambda params: backwards)
    with pytest.raises(VerificationError, match="not a shelling"):
        betti_from_shelling(params)


def test_betti_alternating_sum_is_the_euler_characteristic():
    for p, n in [(3, 2), (3, 3), (3, 4), (3, 5), (2, 4), (2, 5)]:
        params = ComplexParams(p, n)
        betti = betti_from_shelling(params)
        alt = sum(b if i % 2 else -b for i, b in enumerate(betti))
        assert alt == reduced_euler_characteristic(f_vector_formula(params))
        if p == 3:
            assert alt == -dixon_lhs(n)
        if p == 2:
            assert alt == -power_sum_lhs(n, 2)


def test_family_split_partitions_homology_facets():
    for n in range(2, 6):
        params = ComplexParams(3, n)
        xs, ys = homology_families(params)
        assert sorted(xs + ys) == sorted(homology_facets_by_criterion(params))
        assert not (set(xs) & set(ys))
        top = (n, n, n)
        assert all(f[-1] != top for f in xs)
        assert all(f[-1] == top for f in ys)


def test_y_family_appends_the_top_vertex_to_the_smaller_x_family():
    for n in range(2, 6):
        ys = homology_families(ComplexParams(3, n))[1]
        xs_below = homology_families(ComplexParams(3, n - 1))[0]
        lifted = sorted(g + ((n, n, n),) for g in xs_below)
        assert sorted(ys) == lifted


# -- frozen per-pair reference ------------------------------------------------
#
# The pairwise scan below checks one pair (i, k) at a time with the
# constructive route, an exhaustive search over single-vertex peels, and a
# memo per (k, l, a) and per k.  It is kept verbatim as an oracle for the
# bitset sweep in verify_shelling and must not be changed with it.


class _ReferenceEngine:
    def __init__(self, params, facets):
        self.facets = facets
        self.p, self.n = params.p, params.n
        vertices = sorted({v for f in facets for v in f})
        self.vbit = {v: 1 << i for i, v in enumerate(vertices)}
        self.masks = [self._mask(f) for f in facets]
        self.index = {f: i for i, f in enumerate(facets)}
        self._twistable = {}
        self._construct_memo = {}
        self._peel = {}

    def _mask(self, face):
        m = 0
        for v in face:
            m |= self.vbit[v]
        return m

    def twistable(self, k):
        got = self._twistable.get(k)
        if got is None:
            got = []
            f = self.facets[k]
            for l, v in enumerate(f):
                if l == 0:
                    pos = next((a for a, c in enumerate(v) if c > 1), None)
                else:
                    prev = f[l - 1]
                    pos = next(
                        (a for a, c in enumerate(v) if c - prev[a] > 1), None
                    )
                if pos is not None:
                    got.append((l, self.vbit[v], pos))
            self._twistable[k] = got
        return got

    def construct(self, k, l, a):
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
        if self.masks[j] & self.masks[k] != self.masks[k] & ~self.vbit[v]:
            return None
        return j

    def constructive(self, i, k):
        mi = self.masks[i]
        for l, bit, a in self.twistable(k):
            if bit & mi:
                continue
            key = (k, l, a)
            if key not in self._construct_memo:
                self._construct_memo[key] = self.construct(k, l, a)
            j = self._construct_memo[key]
            if j is None:
                return None
            return (j, self.facets[k][l])
        return None

    def peel_witnesses(self, k):
        got = self._peel.get(k)
        if got is None:
            got = {}
            bk = self.masks[k]
            want = bk.bit_count()
            for j in range(k):
                d = bk & ~self.masks[j]
                if d.bit_count() == 1 and d not in got:
                    got[d] = j
                    if len(got) == want:
                        break
            self._peel[k] = got
        return got

    def exhaustive(self, i, k):
        got = self.peel_witnesses(k)
        mi = self.masks[i]
        for v in self.facets[k]:
            bit = self.vbit[v]
            if bit & mi:
                continue
            j = got.get(bit)
            if j is not None:
                return (j, v)
        return None


def _reference_shelling(params, facets, witness_mode, witness_limit):
    eng = _ReferenceEngine(params, facets)
    total = built = 0
    wits, bad, fell, dis = {}, [], [], []
    for k in range(len(facets)):
        for i in range(k):
            total += 1
            if witness_mode == "exhaustive":
                res = eng.exhaustive(i, k)
            else:
                res = eng.constructive(i, k)
                if res is not None:
                    built += 1
                    if witness_mode == "both" and eng.exhaustive(i, k) is None:
                        dis.append((i, k))
                else:
                    res = eng.exhaustive(i, k)
                    if res is not None:
                        fell.append((i, k))
            if res is None:
                bad.append((i, k))
            elif len(wits) < witness_limit:
                wits[(i, k)] = res
    return ShellingReport(
        p=params.p,
        n=params.n,
        mode=witness_mode,
        facet_count=len(facets),
        total_pairs=total,
        constructed=built,
        witnesses=wits,
        witness_limit=witness_limit,
        violations=bad,
        violation_count=len(bad),
        fallbacks=fell,
        fallback_count=len(fell),
        disagreements=dis,
        disagreement_count=len(dis),
    )


def _reference_homology_facets(params, facets):
    eng = _ReferenceEngine(params, facets)
    return [f for k, f in enumerate(facets) if len(eng.peel_witnesses(k)) == len(f)]


@st.composite
def shuffled_orders(draw):
    """(params, order): a facet permutation of a small complex."""
    p, n = draw(st.sampled_from([(1, 4), (2, 4), (3, 3), (4, 2)]))
    return ComplexParams(p, n), draw(st.permutations(cached_facets(p, n)))


@given(
    shuffled_orders(),
    st.sampled_from(["constructive", "exhaustive", "both"]),
    st.sampled_from([0, 1, 5, 10**6]),
)
def test_sweep_matches_the_per_pair_reference(case, mode, limit):
    params, order = case
    got = verify_shelling(params, order, witness_mode=mode, witness_limit=limit)
    want = _reference_shelling(params, list(order), mode, limit)
    for name in (
        "p", "n", "mode", "facet_count", "total_pairs", "constructed", "witnesses",
        "witness_limit", "violation_count", "fallback_count", "disagreement_count",
    ):
        assert getattr(got, name) == getattr(want, name), name
    # the pair lists keep the reference's first witness_limit pairs
    for name in ("violations", "fallbacks", "disagreements"):
        assert getattr(got, name) == getattr(want, name)[:limit], name
    assert list(got.witnesses) == list(want.witnesses)


@pytest.mark.parametrize("n", range(1, 6))
def test_direct_attachment_matches_the_per_pair_reference(n):
    params = ComplexParams(3, n)
    reference = _reference_homology_facets(params, list(cached_facets(3, n)))
    assert homology_facets_direct(params) == reference
