"""The package surface: one name per module __all__, resolved lazily, and
the read-only value records that its functions return."""

import importlib
import pkgutil

import pytest

import gammashell
from gammashell import ComplexParams, FacetCertificate, make_complex, verify_shelling


def test_package_exports_the_union_of_the_module_export_lists():
    owners = {}
    for info in pkgutil.iter_modules(gammashell.__path__):
        module = importlib.import_module(f"gammashell.{info.name}")
        for name in module.__all__:
            assert name not in owners, f"{name} is in {owners[name].__name__} too"
            owners[name] = module
    assert sorted(gammashell.__all__) == sorted(owners)
    for name, module in owners.items():
        assert getattr(gammashell, name) is getattr(module, name)
    namespace = {}
    exec("from gammashell import *", namespace)
    for name, module in owners.items():
        assert namespace[name] is getattr(module, name)
    with pytest.raises(AttributeError):
        gammashell.no_such_name
    listed = dir(gammashell)
    assert listed == sorted(listed)
    assert set(owners) | {"__version__"} <= set(listed)


RECORDS = {
    "params": (ComplexParams(3, 2), "ComplexParams(p=3, n=2)"),
    "certificate": (
        FacetCertificate(((1, 2, 3),), True, False, True),
        "FacetCertificate(face=((1, 2, 3),), p1=True, p2=False, p3=True)",
    ),
    "report": (
        verify_shelling(make_complex(3, 1)),
        "ShellingReport(p=3, n=1, mode='constructive', facet_count=1, total_pairs=0, ",
    ),
}


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
    if name == "report":
        # the report holds dicts and lists
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(tuple(vars(record).values()))
