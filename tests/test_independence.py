"""Route independence: the two sides of a cross-check share no code.

A static call graph of the package is built from its source with ast.  Its
nodes are the top-level functions and classes, "module.name", and the
methods, "module.Class.method".  A node reaches every package name its body
reads: a module's own names, names imported with `from .x import y`, which
resolve to the module that defines them, `self.m` and `cls.m` within the
class and its package bases, `super().m` within the bases, and `m` read off
an imported module or a package class.  Reading a class reaches its
__init__.  Calls on values of unknown type (`matrix.entries`) are not
resolved, so the graph can miss an edge but never invent one that the
source does not name.

For each pair of routes, the nodes reachable from one side must be
disjoint from those reachable from the other.  The shared helpers in
ALLOWED, and the pair's own kernels, are neither counted nor followed.

Every node must also be used from a root: a function of the CLI, a layer
the benchmark's tracer wraps, a name a script imports, a side of a pair, or
a DECLARED claim or oracle that only the suite runs.  Code that nothing
uses is deleted, not kept.
"""

import ast
from pathlib import Path

import gammashell

from .test_trace_contract import TRACED_PY, TRACER

PACKAGE = Path(gammashell.__file__).parent
ROOT = Path(__file__).resolve().parents[1]

ALLOWED = {
    "errors._require_ints": "the integer-input rule of every entry point",
    "errors._require_at_least": "the lower-bound rule of every entry point",
    "errors._check_budget": "the one budget comparison",
    "errors.Record": "the value-record base: fields, equality, repr",
    "errors.DomainError": "an error type",
    "errors.PreconditionError": "an error type",
    "errors.BudgetError": "an error type",
    "errors.VerificationError": "an error type",
    "complexes.ComplexParams": "the validated (p, n) input of both routes",
    "homology.SparseBoundaryMatrix": "the matrix record that both assemblies fill",
    "homology._check_cells": "the matrix route's one budget rule",
    "complexes.f_vector_formula": "prices the chain for _check_cells",
}

# (one side's entry points, the other side's, the kernels both may run)
PAIRS = {
    "relative chain vs single matrices": (
        ["homology._boundary_chain"],
        ["homology.boundary_matrix"],
        {},
    ),
    "canonical vs shuffled chain": (
        ["homology._in_place"],
        ["homology._steps"],
        {"homology._eliminate": "the one elimination: the shuffle tests that the ranks do "
                                "not depend on face order, not the elimination itself"},
    ),
    "shelling vs matrix ranks": (
        ["shelling.betti_from_shelling"],
        ["homology.chain_ranks", "homology.betti_from_ranks"],
        {},
    ),
    "constructive witnesses vs search": (
        ["shelling._Twists", "shelling._Twists.twistable", "shelling._Twists.construct"],
        ["shelling._sweep"],
        {},
    ),
    "facet counts vs facet search": (
        ["facets.facet_counts"],
        ["facets._chain_search"],
        {},
    ),
    "signed chain count vs signed series": (
        ["facets._signed_chain_count"],
        ["genfun.series_XY"],
        {},
    ),
    "criterion on one facet vs pruned search": (
        ["shelling.homology_facet_by_criterion"],
        ["facets._chain_search"],
        {},
    ),
    "criterion vs direct sweep": (
        ["shelling.homology_facets_by_criterion"],
        ["shelling.homology_facets_direct"],
        {"facets._chain_search": "the one facet search: pruned by the criterion on "
                                 "one side, whole before the sweep on the other"},
    ),
    "dixon sum vs closed form": (["identities.dixon_lhs"], ["identities.dixon_rhs"], {}),
    "dixon product coefficient vs sum": (
        ["genfun.dixon_product_coefficient"],
        ["identities.dixon_lhs"],
        {},
    ),
}

# used by no command, traced layer or script; each is kept for the claim of
# the paper that the suite checks with it, or as an oracle of a test
DECLARED = {
    "facets.shift_vectors": "claim: bijection of facets with p compositions of n + 1",
    "facets.facet_from_shift_vectors": "claim: bijection, the inverse of shift_vectors",
    "shelling.block_partition": "claim: two facets have as many private blocks",
    "genfun.master_theorem_check": "claim: master theorem, product vs inverse coefficient",
    "genfun.matrix_A": "claim: master theorem, the matrix of x - y, y - z, z - x",
    "genfun.matrix_B": "claim: master theorem, the matrix of y - z, z - x, x - y",
    "homology.is_torsion_free": "claim: the integral homology is free",
    "complexes.is_face": "oracle: the face test of enumerations and the facet criterion",
    "complexes.order_key": "oracle: the canonical order of the facet search",
}


class CallGraph:
    def __init__(self, package: Path) -> None:
        # node -> (module, qualified class of a method or None, definition)
        self.nodes: dict[str, tuple[str, str | None, ast.AST]] = {}
        self.bases: dict[str, list[str]] = {}
        self.imports: dict[str, dict[str, str]] = {}
        for path in package.glob("*.py"):
            module, tree = path.stem, ast.parse(path.read_text(encoding="utf-8"))
            self.imports[module] = {
                alias.asname or alias.name: (
                    f"{node.module}.{alias.name}" if node.module else alias.name
                )
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names
            }
            for node in tree.body:
                if isinstance(node, ast.FunctionDef | ast.ClassDef):
                    self.nodes[f"{module}.{node.name}"] = (module, None, node)
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef):
                            self.nodes[f"{module}.{node.name}.{item.name}"] = (
                                module, f"{module}.{node.name}", item,
                            )
        for name, (module, _, node) in list(self.nodes.items()):
            if isinstance(node, ast.ClassDef):
                found = (self.lookup(module, b.id) for b in node.bases if isinstance(b, ast.Name))
                self.bases[name] = [b for b in found if b in self.nodes]
        # for used(): the nodes each node uses, and the attribute names it reads
        self.links: dict[str, tuple[set[str], set[str]]] = {}
        for name, (_, _, node) in self.nodes.items():
            out, reads = self.edges(name), set()
            if isinstance(node, ast.ClassDef):
                out.update(self.bases[name])
                out.update(f"{name}.{item.name}" for item in node.body
                           if isinstance(item, ast.FunctionDef)
                           and item.name.startswith("__") and item.name.endswith("__"))
            else:
                reads = {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}
            self.links[name] = out, reads

    def resolve(self, qualified: str) -> str:
        """A module-level name to the node that defines it, through re-imports."""
        module, _, name = qualified.partition(".")
        if qualified not in self.nodes and name in self.imports.get(module, {}):
            return self.resolve(self.imports[module][name])
        return qualified

    def lookup(self, module: str, name: str) -> str:
        """A name read in module: its own definition, an import, or a module."""
        if f"{module}.{name}" in self.nodes:
            return f"{module}.{name}"
        return self.resolve(self.imports[module].get(name, name))

    def method(self, cls: str, name: str, own: bool = True) -> str | None:
        """name looked up in cls (if own) and then in its package bases."""
        if own and f"{cls}.{name}" in self.nodes:
            return f"{cls}.{name}"
        for base in self.bases.get(cls, []):
            found = self.method(base, name)
            if found:
                return found
        return None

    def edges(self, name: str) -> set[str]:
        module, cls, node = self.nodes[name]
        if isinstance(node, ast.ClassDef):
            init = self.method(name, "__init__")
            return {init} if init else set()
        out = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(self.lookup(module, sub.id))
            elif isinstance(sub, ast.Attribute):
                owner = sub.value
                if isinstance(owner, ast.Name) and owner.id in ("self", "cls") and cls:
                    out.add(self.method(cls, sub.attr))
                elif (
                    isinstance(owner, ast.Call)
                    and isinstance(owner.func, ast.Name)
                    and owner.func.id == "super"
                    and cls
                ):
                    out.add(self.method(cls, sub.attr, own=False))
                elif isinstance(owner, ast.Name):
                    target = self.lookup(module, owner.id)
                    if target in self.nodes:
                        out.add(self.method(target, sub.attr))
                    else:
                        # an imported package module, or nothing of ours
                        out.add(self.resolve(f"{target}.{sub.attr}"))
        return {n for n in out if n in self.nodes and n != name}

    def reach(self, starts: list[str], kernels=()) -> set[str]:
        """Every node reachable from starts, entering no ALLOWED or kernel
        node or method."""
        skip = ALLOWED.keys() | set(kernels)
        seen: set[str] = set()
        stack = list(starts)
        while stack:
            name = stack.pop()
            if name in seen or name in skip or name.rpartition(".")[0] in skip:
                continue
            seen.add(name)
            stack.extend(self.edges(name))
        return seen

    def used(self, starts, read=()) -> set[str]:
        """Every node used from starts, ALLOWED or not.

        Beyond the edges: a used class uses its package bases and its dunder
        methods, since an operator is not an edge.  A named method is used
        when its class is and a used function, or read, reads an attribute
        of its name, since the graph cannot type the value it is read on.
        """
        methods = [(m, cls, m.rpartition(".")[2]) for m, (_, cls, _) in self.nodes.items() if cls]
        seen: set[str] = set()
        names = set(read)
        stack = list(starts)
        while stack:
            while stack:
                name = stack.pop()
                if name not in seen:
                    seen.add(name)
                    out, reads = self.links[name]
                    stack.extend(out)
                    names |= reads
            stack = [m for m, cls, attr in methods
                     if cls in seen and attr in names and m not in seen]
        return seen


def test_each_allowed_and_declared_name_is_a_node():
    graph = CallGraph(PACKAGE)
    for left, right, kernels in PAIRS.values():
        for name in (*left, *right, *kernels):
            assert name in graph.nodes, name
    for name in ALLOWED:
        assert name in graph.nodes, name


def test_the_graph_follows_imports_methods_and_classes():
    graph = CallGraph(PACKAGE)
    # a `from .complexes import ...` call, and a class read reaching __init__
    assert "complexes.enumerate_faces" in graph.edges("homology.boundary_matrix")
    assert "homology.SparseBoundaryMatrix.__init__" in graph.edges(
        "homology.SparseBoundaryMatrix"
    )
    # super().__init__ inside the class resolves to the package base
    assert "errors.Record.__init__" in graph.edges("homology.SparseBoundaryMatrix.__init__")
    # a used class uses its base and its operators; a named method, a read
    used = graph.used(["series.MSeries"])
    assert {"errors.Record", "errors.Record.__eq__", "series.MSeries.__mul__"} <= used
    assert "series.MSeries.invert_unit" not in used
    assert "series.MSeries.invert_unit" in graph.used(["series.MSeries"], {"invert_unit"})


def test_the_two_sides_of_each_cross_check_share_no_code():
    graph = CallGraph(PACKAGE)
    for pair, (left, right, kernels) in PAIRS.items():
        shared = graph.reach(left, kernels) & graph.reach(right, kernels)
        assert not shared, f"{pair}: both sides reach {sorted(shared)}"


def root_names(graph: CallGraph) -> tuple[set[str], set[str]]:
    """The nodes used from outside the suite, and the attributes the tracer's
    counts read off what its layers return."""
    roots = {name for name, (module, _, _) in graph.nodes.items() if module == "cli"}
    roots.update(f"{module}.{name}" for module, names in TRACER.TRACED.items() for name in names)
    roots.update(f"series.MSeries.{method}" for method in TRACER.TRACED_METHODS.values())
    for path in sorted((ROOT / "scripts").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gammashell."):
                module = node.module.removeprefix("gammashell.")
                roots.update(graph.resolve(f"{module}.{alias.name}") for alias in node.names)
    for left, right, _ in PAIRS.values():
        roots.update(left, right)
    counts = next(
        node.value for node in ast.parse(TRACED_PY.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "TRACED" for t in node.targets)
    )
    read = {sub.attr for sub in ast.walk(counts) if isinstance(sub, ast.Attribute)}
    return roots & graph.nodes.keys(), read


def test_every_definition_is_reached_or_declared():
    graph = CallGraph(PACKAGE)
    roots, read = root_names(graph)
    problems = [f"{name}: declared, but defined nowhere" for name in DECLARED
                if name not in graph.nodes]
    problems += [f"{name}: its reason names no claim or oracle" for name, why in DECLARED.items()
                 if not why.startswith(("claim: ", "oracle: "))]
    declared = DECLARED.keys() & graph.nodes.keys()
    problems += [f"{name}: declared, but reached without it" for name in sorted(declared)
                 if name in graph.used(roots | declared - {name}, read)]
    used = graph.used(roots | declared, read)
    problems += [f"{name}: reached from no root and declared for no claim"
                 for name in graph.nodes if name not in used]
    assert not problems, "\n".join(problems)
