"""Shared fixtures, brute-force oracles, and hypothesis configuration.

The oracles here deliberately avoid the library's own shortcuts: faces come
from filtering raw vertex subsets and maximality from attempting every
single-vertex insertion, so they stay meaningful as cross-checks.
"""

import itertools
from functools import lru_cache

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from gammashell import BudgetError, enumerate_facets, is_face, make_complex

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def all_vertices(params):
    return list(itertools.product(range(1, params.n + 1), repeat=params.p))


def all_faces_bruteforce(params, dim):
    """Every face of one dimension by subset filtering; tiny inputs only."""
    if dim == -1:
        return [()]
    out = []
    for combo in itertools.combinations(all_vertices(params), dim + 1):
        if is_face(params, combo):
            out.append(combo)
    return out


def is_maximal_bruteforce(params, face):
    """A face is maximal iff no single-vertex insertion is again a face."""
    present = set(face)
    for v in all_vertices(params):
        if v not in present and is_face(params, tuple(face) + (v,)):
            return False
    return True


def reference_enumerate_facets(params, budget=None):
    """Frozen copy of the facet search that scanned a whole coordinate box at
    every node of the chain tree; the memoised search must match it, order and
    budget behaviour included."""
    p, n = params.p, params.n
    out = []

    def extend(chain):
        last = chain[-1]
        if max(last) == n:
            out.append(tuple(chain))
            if budget is not None and len(out) > budget:
                raise BudgetError(f"facet count exceeds the budget of {budget}")
            return
        for w in itertools.product(*(range(c + 1, n + 1) for c in last)):
            if min(a - b for a, b in zip(w, last)) == 1:
                chain.append(w)
                extend(chain)
                chain.pop()

    for v in itertools.product(range(1, n + 1), repeat=p):
        if min(v) == 1:
            extend([v])
    out.sort(key=len, reverse=True)
    return out


# the shapes on which the facet and criterion searches are compared with
# their frozen references
REFERENCE_SHAPES = [(1, 1), (1, 6), (2, 8)] + [(3, n) for n in range(1, 8)] + [
    (4, 5), (5, 3)
]


@lru_cache(maxsize=None)
def cached_facets(p, n):
    return tuple(enumerate_facets(make_complex(p, n)))


@st.composite
def faces(draw, max_p=3, max_n=5):
    """A random (params, face) pair; the face is always valid and nonempty."""
    p = draw(st.integers(min_value=1, max_value=max_p))
    n = draw(st.integers(min_value=1, max_value=max_n))
    r = draw(st.integers(min_value=1, max_value=n))
    cols = [
        sorted(draw(st.sets(st.integers(1, n), min_size=r, max_size=r)))
        for _ in range(p)
    ]
    return make_complex(p, n), tuple(zip(*cols))


@st.composite
def facets(draw, max_p=3, max_n=4):
    """A random (params, facet) pair drawn from the full facet list."""
    p = draw(st.integers(min_value=1, max_value=max_p))
    n = draw(st.integers(min_value=1, max_value=max_n))
    pool = cached_facets(p, n)
    idx = draw(st.integers(min_value=0, max_value=len(pool) - 1))
    return make_complex(p, n), pool[idx]


@st.composite
def facet_pairs(draw, max_n=4):
    """Two facets of the same Delta(n) at distinct order positions i < k."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    pool = cached_facets(3, n)
    k = draw(st.integers(min_value=1, max_value=len(pool) - 1))
    i = draw(st.integers(min_value=0, max_value=k - 1))
    return make_complex(3, n), list(pool), i, k
