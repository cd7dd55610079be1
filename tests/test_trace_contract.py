"""The names the benchmark's tracer wraps must exist in the package.

perfbench/traced.py replaces functions by name and derives span counts from
their return values; a rename or a changed return type under src/ would
otherwise surface only as a failed traced benchmark run.  The tracer is
loaded by path and never installed.
"""

import importlib.util
from pathlib import Path

import pytest

from gammashell.complexes import ComplexParams
from gammashell.facets import enumerate_facets
from gammashell.homology import boundary_matrix, sparse_rank
from gammashell.series import MSeries
from gammashell.shelling import (
    homology_facets_by_criterion,
    homology_facets_direct,
    verify_shelling,
)

TRACED_PY = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = load_tracer()
PARAMS = ComplexParams(3, 2)
# a real return value for every traced function that has a count
SAMPLES = {
    ("facets", "enumerate_facets"): lambda: enumerate_facets(PARAMS),
    ("shelling", "verify_shelling"): lambda: verify_shelling(PARAMS),
    ("shelling", "homology_facets_direct"): lambda: homology_facets_direct(PARAMS),
    ("shelling", "homology_facets_by_criterion"): (
        lambda: homology_facets_by_criterion(PARAMS)
    ),
    ("homology", "boundary_matrix"): lambda: boundary_matrix(PARAMS, 1),
    ("homology", "sparse_rank"): lambda: sparse_rank([{0: 1}, {0: 1, 1: 1}]),
}


@pytest.mark.parametrize(
    "module,name",
    [(m, f) for m, functions in TRACER.TRACED.items() for f in functions],
)
def test_every_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"gammashell.{module}"), name))


def test_every_traced_method_exists():
    for method in TRACER.TRACED_METHODS.values():
        assert callable(getattr(MSeries, method))


def test_every_count_accepts_a_real_return_value():
    counted = {
        (m, f): count
        for m, functions in TRACER.TRACED.items()
        for f, count in functions.items()
        if count is not None
    }
    assert set(counted) == set(SAMPLES)
    for key, count in counted.items():
        value = count(SAMPLES[key]())
        values = value if isinstance(value, list) else [value]
        assert all(isinstance(v, int) for v in values), key
    nnz = counted[("homology", "boundary_matrix")](boundary_matrix(PARAMS, 1))
    assert nnz == 2
