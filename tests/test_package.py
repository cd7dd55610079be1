"""The package surface: each name exported by the one module that defines
it, the read-only value records that its functions return, and the
DomainError its entry points raise on a non-int argument."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import gammashell
from gammashell.complexes import ComplexParams, enumerate_faces
from gammashell.errors import DomainError, Record
from gammashell.facets import UP, FacetCertificate, apply_twist, twist_sets
from gammashell.genfun import (
    alignment_check,
    dixon_product_coefficient,
    master_theorem_check,
    matrix_A,
    series_g_r,
    series_P,
    series_XY,
)
from gammashell.homology import boundary_matrix, chain_ranks, shuffled_rank
from gammashell.identities import power_sum_lhs, threeF2_lhs
from gammashell.series import MSeries
from gammashell.shelling import block_partition, verify_shelling


def test_each_module_defines_every_name_it_exports():
    modules = {
        info.name: importlib.import_module(f"gammashell.{info.name}")
        for info in pkgutil.iter_modules(gammashell.__path__)
    }
    owners = {}
    for module in modules.values():
        for name in module.__all__:
            assert name not in owners, f"{name} is in {owners[name].__name__} too"
            owners[name] = module
            assert name in vars(module), f"{module.__name__} does not bind {name}"
            value = vars(module)[name]
            if inspect.isfunction(value) or inspect.isclass(value):
                assert value.__module__ == module.__name__, name
    # the package itself binds only its version and the submodules imported
    public = {name for name in vars(gammashell) if not name.startswith("__")}
    assert public <= set(modules)
    assert not hasattr(gammashell, "__all__")


def test_every_import_is_read_or_exported():
    # no linter runs in Tier-1: an import whose last reader was deleted
    # must fail here
    for path in sorted(Path(gammashell.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, read, exported = set(), set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import | ast.ImportFrom):
                if getattr(node, "module", None) != "__future__":
                    imported.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Assign) and "__all__" in {
                getattr(t, "id", None) for t in node.targets
            }:
                exported = set(ast.literal_eval(node.value))
        unused = sorted(imported - read - exported)
        assert not unused, f"{path.name} imports {unused} and never reads them"


RECORDS = {
    "params": (ComplexParams(3, 2), "ComplexParams(p=3, n=2)"),
    "certificate": (
        FacetCertificate(((1, 2, 3),), True, False, True),
        "FacetCertificate(face=((1, 2, 3),), p1=True, p2=False, p3=True)",
    ),
    "report": (
        verify_shelling(ComplexParams(3, 1)),
        "ShellingReport(p=3, n=1, mode='constructive', facet_count=1, total_pairs=0, ",
    ),
    "alignment": (
        alignment_check(2),
        "AlignmentReport(n_max=2, deltas=(0, 1, 2, 3), alternating_counts={1: 0, 2: -6}, ",
    ),
    "matrix": (
        boundary_matrix(ComplexParams(3, 1), 0),
        "SparseBoundaryMatrix(k=0, rows=1, cols=1, by_row=[{0: -1}])",
    ),
    "series": (
        MSeries(1, 2, {(1,): 3}),
        "MSeries(num_vars=1, truncation=2, coeffs={(1,): 3})",
    ),
    "twists": (
        twist_sets(ComplexParams(3, 2), ((1, 1, 2),)),
        "TwistSets(a_sets=((0, 1),), b_sets=((2,),))",
    ),
    "blocks": (
        block_partition(ComplexParams(3, 2), ((1, 1, 2),), ((1, 1, 1), (2, 2, 2))),
        "BlockPartition(c_blocks=(), i_blocks=(((1, 1, 2),),), "
        "k_blocks=(((1, 1, 1), (2, 2, 2)),))",
    ),
}
# the records holding a dict or a list
UNHASHABLE = {"report", "alignment", "matrix", "series"}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_read_only_values_of_one_class(name):
    record, shown = RECORDS[name]
    field = next(iter(vars(record)))
    with pytest.raises(AttributeError, match="read-only"):
        setattr(record, field, 4)
    with pytest.raises(AttributeError, match="read-only"):
        delattr(record, field)
    for other, _ in RECORDS.values():
        # records of two classes never compare equal, whatever their fields
        assert (record == other) is (record is other)
    assert repr(record).startswith(shown)
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(tuple(vars(record).values()))


def test_records_bind_their_declared_fields_by_position_or_by_name():
    for info in pkgutil.iter_modules(gammashell.__path__):
        importlib.import_module(f"gammashell.{info.name}")
    # RECORDS holds one instance of every record class
    assert {type(r) for r, _ in RECORDS.values()} == set(Record.__subclasses__())
    for record, _ in RECORDS.values():
        cls = type(record)
        assert tuple(vars(record)) == cls._fields
        if "__init__" not in vars(cls):
            fields = vars(record)
            assert cls(*fields.values()) == cls(**fields) == record
    face = ((1, 2, 3),)
    cert = FacetCertificate(face, True, False, True)
    assert FacetCertificate(face, True, p3=True, p2=False) == cert
    for args, kwargs in [
        ((face, True, False), {}),
        ((face, True, False, True, True), {}),
        ((face, True, False), {"p4": True}),
        ((face, True, False, True), {"face": face}),
    ]:
        with pytest.raises(TypeError):
            FacetCertificate(*args, **kwargs)


# each entry point called with one int argument, named first, replaced by a
# str, a float or a bool
NON_INT_CALLS = {
    "series_P": ("T", lambda: series_P("3")),
    "series_XY": ("T", lambda: series_XY("3")),
    "series_g_r": ("T", lambda: series_g_r(1, "3")),
    "alignment_check": ("n_max", lambda: alignment_check("3")),
    "alignment_check_float": ("n_max", lambda: alignment_check(2.5)),
    "dixon_product_coefficient": ("n", lambda: dixon_product_coefficient("3")),
    "enumerate_faces": ("dim", lambda: enumerate_faces(ComplexParams(3, 2), "1")),
    "enumerate_faces_budget": (
        "budget", lambda: enumerate_faces(ComplexParams(3, 2), 1, budget="100")
    ),
    "boundary_matrix": ("k", lambda: boundary_matrix(ComplexParams(3, 2), "1")),
    "master_theorem_check_k": (
        r"k\[0\]", lambda: master_theorem_check(matrix_A(), ("1", 1, 1))
    ),
    "MSeries.__pow__": ("exponent", lambda: MSeries.const(3, 4, 1) ** "2"),
    "shuffled_rank": ("seed", lambda: shuffled_rank(boundary_matrix(ComplexParams(3, 2), 1), "x")),
    "shuffled_rank_float": (
        "seed", lambda: shuffled_rank(boundary_matrix(ComplexParams(3, 2), 1), 1.5)
    ),
    "apply_twist": ("ell", lambda: apply_twist(ComplexParams(3, 2), ((1, 1, 2),), "0", 0, UP)),
    "series_P_bool": ("T", lambda: series_P(True)),
    "series_XY_bool": ("T", lambda: series_XY(True)),
    "series_g_r_bool": ("r", lambda: series_g_r(True, 4)),
    "alignment_check_bool": ("n_max", lambda: alignment_check(True)),
    "dixon_product_coefficient_bool": ("n", lambda: dixon_product_coefficient(True)),
    "enumerate_faces_bool": ("dim", lambda: enumerate_faces(ComplexParams(3, 2), True)),
    "boundary_matrix_bool": ("k", lambda: boundary_matrix(ComplexParams(3, 2), True)),
    "master_theorem_check_k_bool": (
        r"k\[0\]", lambda: master_theorem_check(matrix_A(), (True, 1, 1))
    ),
    "MSeries.__pow___bool": ("exponent", lambda: MSeries.const(3, 4, 1) ** True),
    "shuffled_rank_bool": (
        "seed", lambda: shuffled_rank(boundary_matrix(ComplexParams(3, 2), 1), True)
    ),
    "chain_ranks_bool": (
        "seed", lambda: chain_ranks(ComplexParams(3, 2), seed=True)
    ),
    "apply_twist_bool": (
        "ell", lambda: apply_twist(ComplexParams(3, 2), ((1, 1, 2),), False, 0, UP)
    ),
    "ComplexParams_bool": ("p", lambda: ComplexParams(True, 2)),
    "MSeries_bool": ("num_vars", lambda: MSeries(True, 2)),
    "MSeries.truncate_bool": ("truncation", lambda: MSeries.const(1, 2, 1).truncate(True)),
    "power_sum_lhs_bool": ("n", lambda: power_sum_lhs(True, 3)),
    "threeF2_lhs_bool": ("n1", lambda: threeF2_lhs(True, 1, 1)),
    "verify_shelling_bool": (
        "witness_limit", lambda: verify_shelling(ComplexParams(3, 1), witness_limit=True)
    ),
}


@pytest.mark.parametrize("name,call", NON_INT_CALLS.values(), ids=list(NON_INT_CALLS))
def test_non_int_arguments_raise_domain_error(name, call):
    with pytest.raises(DomainError, match=f"^{name} must be an integer"):
        call()
