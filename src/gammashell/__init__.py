"""Shellability toolkit for the complexes Gamma_p(n) of increasing tuple chains.

Faces are chains of p-tuples increasing in every coordinate; facets admit a
three-condition characterization, the dimension-then-lex order is a shelling,
and counting the facets that attach along their whole boundary reproduces the
alternating sums of powers of binomial coefficients through an explicit
generating-function bridge.

Importing the package loads none of its modules.  Each module lists its
public names in its own __all__; the package exports their union, resolved
on first access (PEP 562), so a command loads only the modules it uses.
"""

__version__ = "0.1.0"

_exports: dict[str, str] = {}  # public name -> defining module, filled once


def _scan() -> dict[str, str]:
    """Import every module once and map each name in its __all__ to it."""
    if not _exports:
        import importlib
        import pkgutil

        found = {}
        for info in pkgutil.iter_modules(__path__):
            module = importlib.import_module(f"{__name__}.{info.name}")
            found.update(dict.fromkeys(module.__all__, info.name))
        _exports.update(found)
    return _exports


def __getattr__(name: str):
    import importlib

    if name == "__all__":
        return sorted(_scan())
    if name.startswith("_"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    if name not in _exports:
        # a submodule (cli, shelling, ...) is imported on its own, with no scan
        try:
            return importlib.import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
        if name not in _scan():
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_exports[name]}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_scan()))
