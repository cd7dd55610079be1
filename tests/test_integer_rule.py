"""The package's one integer rule: the entry loops that apply it inline,
and errors._require_at_least at each lower bound.  Nothing here is built at
import, so a mutant of the rule fails these tests instead of their import."""

import pytest

from gammashell.complexes import ComplexParams, check_vertex, f_vector_formula
from gammashell.errors import DomainError
from gammashell.facets import facet_from_shift_vectors
from gammashell.genfun import dixon_product_coefficient, series_g_r, series_P, series_XY
from gammashell.homology import betti_from_ranks, sparse_rank
from gammashell.identities import aigner_rhs, dixon_rhs, power_sum_lhs, threeF2_lhs, threeF2_rhs
from gammashell.series import MSeries
from gammashell.shelling import verify_shelling


def shift_vectors(first):
    """facet_from_shift_vectors at p=3 n=2, with first as the first vector."""
    return facet_from_shift_vectors(ComplexParams(3, 2), [first, (1, 2), (1, 2)])


# each call holds one bad entry, and the message names its fault
ENTRY_CALLS = {
    "check_vertex_bool": (
        "non-integer coordinate", lambda: check_vertex(ComplexParams(3, 2), (True, 1, 1))
    ),
    "check_vertex_float": (
        "non-integer coordinate", lambda: check_vertex(ComplexParams(3, 2), (1.0, 1, 1))
    ),
    "check_vertex_int": (
        "not a sequence of coordinates", lambda: check_vertex(ComplexParams(3, 2), 5)
    ),
    "MSeries_exponent_bool": ("non-int entry", lambda: MSeries(2, 3, {(True, 0): 1})),
    "MSeries_coefficient_bool": ("not an int", lambda: MSeries(2, 3, {(0, 0): True})),
    "sparse_rank_bool": ("not an int", lambda: sparse_rank([{0: True}])),
    "shift_vectors_bool": ("non-int", lambda: shift_vectors((True, 2))),
    "shift_vectors_str": ("non-int", lambda: shift_vectors(("1", 2))),
}


@pytest.mark.parametrize("fault,call", ENTRY_CALLS.values(), ids=list(ENTRY_CALLS))
def test_non_int_entries_raise_domain_error(fault, call):
    with pytest.raises(DomainError, match=fault):
        call()


# each lower bound: (argument name, bound, the call with that argument set to
# the value given).  alignment_check's n_max >= 2 kept its message, and
# test_genfun and the records of test_package check both sides of it.
BOUNDS = {
    "ComplexParams_p": ("p", 1, lambda v: ComplexParams(v, 1)),
    "ComplexParams_n": ("n", 1, lambda v: ComplexParams(1, v)),
    "MSeries_num_vars": ("num_vars", 1, lambda v: MSeries(v, 0)),
    "MSeries_truncation": ("truncation", 0, lambda v: MSeries(1, v)),
    "MSeries.__pow__": ("exponent", 0, lambda v: MSeries.const(1, 0, 1) ** v),
    "series_P": ("T", 2, series_P),
    "series_XY": ("T", 1, series_XY),
    "series_g_r_r": ("r", 1, lambda v: series_g_r(v, 2)),
    "series_g_r_T": ("T", 4, lambda v: series_g_r(2, v)),
    "dixon_product_coefficient": ("n", 1, dixon_product_coefficient),
    "betti_from_ranks": (
        "rank d_0",
        0,
        lambda v: betti_from_ranks(f_vector_formula(ComplexParams(2, 3)), [v, 0, 0]),
    ),
    "power_sum_lhs_n": ("n", 1, lambda v: power_sum_lhs(v, 3)),
    "power_sum_lhs_p": ("p", 1, lambda v: power_sum_lhs(3, v)),
    "dixon_rhs": ("n", 1, dixon_rhs),
    "aigner_rhs": ("n", 1, aigner_rhs),
    "threeF2_lhs": ("n2", 0, lambda v: threeF2_lhs(1, v, 1)),
    "threeF2_rhs": ("n3", 0, lambda v: threeF2_rhs(1, 1, v)),
    "verify_shelling": (
        "witness_limit", 0, lambda v: verify_shelling(ComplexParams(3, 1), witness_limit=v)
    ),
}


@pytest.mark.parametrize("name,low,call", BOUNDS.values(), ids=list(BOUNDS))
def test_each_lower_bound_is_inclusive(name, low, call):
    with pytest.raises(DomainError, match=f"^{name} must be at least {low}, got {low - 1}$"):
        call(low - 1)
    call(low)
