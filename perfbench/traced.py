"""Run one gammashell CLI command in-process with spans around its layers.

    python3 perfbench/traced.py SPANS.json <cli argv...>

Each traced function is replaced, in its defining module and in every
gammashell module that imported it by name, by a wrapper recording a span
[name, start, end, parent index, count].  MSeries.__mul__ and invert_unit are
wrapped on the class.  Counts come from return values.  Spans are kept in
memory and written to SPANS.json when the command ends; the report goes to
stdout unchanged.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import io
import json
import pkgutil
import sys
import time
from contextlib import redirect_stdout

# module -> {function: count taken from its return value, or None}
TRACED = {
    "cli": {"main": None},
    "complexes": {"enumerate_faces": None},
    "facets": {
        "enumerate_facets": len,
        "facet_certificate": None,
        "twist_sets": None,
    },
    "shelling": {
        "verify_shelling": lambda r: [r.total_pairs, len(r.fallbacks), r.constructed],
        "homology_facets_direct": len,
        "homology_facets_by_criterion": len,
        "homology_facet_by_criterion": None,
        "betti_from_shelling": None,
    },
    "homology": {
        "boundary_matrix": lambda m: len(m.entries),
        "sparse_rank": lambda rank: rank,
        "matrix_rank": None,
        "shuffled_rank": None,
        "betti_numbers": None,
    },
    "genfun": {
        "series_XY": None,
        "series_P": None,
        "alternating_homology_count": None,
        "alignment_check": None,
        "dixon_product_coefficient": None,
    },
    "identities": {"dixon_lhs": None, "dixon_rhs": None, "power_sum_lhs": None},
}
# span name -> method of series.MSeries
TRACED_METHODS = {"series.mul": "__mul__", "series.invert_unit": "invert_unit"}


class Tracer:
    """Spans of one single-threaded run, appended in the order they open."""

    def __init__(self):
        self.spans: list = []
        self.stack = [-1]

    def wrap(self, name, fn, count):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        if inspect.isgeneratorfunction(fn):
            # the span runs from the first resume to exhaustion; the callers
            # consume it whole, so nothing else runs in between
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                inner = fn(*args, **kwargs)
                idx = len(spans)
                spans.append(None)
                parent, start, produced = stack[-1], clock(), 0
                try:
                    while True:
                        stack.append(idx)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            stack.pop()
                        produced += 1
                        yield item
                finally:
                    spans[idx] = [name, start, clock(), parent, produced]

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = [name, start, end, parent, None]
            if count is not None:
                spans[idx][4] = count(result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    import gammashell

    modules = {
        info.name: importlib.import_module(f"gammashell.{info.name}")
        for info in pkgutil.iter_modules(gammashell.__path__)
    }
    modules[""] = gammashell
    for mod_name, functions in TRACED.items():
        for fn_name, count in functions.items():
            original = getattr(modules[mod_name], fn_name)
            wrapped = tracer.wrap(f"{mod_name}.{fn_name}", original, count)
            for module in modules.values():
                for attr, value in vars(module).items():
                    if value is original:
                        setattr(module, attr, wrapped)
    mseries = modules["series"].MSeries
    for span_name, method in TRACED_METHODS.items():
        setattr(mseries, method, tracer.wrap(
            span_name, getattr(mseries, method), lambda s: len(s.coeffs)))


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from gammashell import cli

    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            code = cli.main(cli_argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh, separators=(",", ":"))
    sys.stdout.write(buf.getvalue())
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
