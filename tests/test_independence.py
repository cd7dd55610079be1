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
ALLOWED are neither counted nor followed.
"""

import ast
from pathlib import Path

import gammashell

PACKAGE = Path(gammashell.__file__).parent

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

# (one side's entry points, the other side's)
PAIRS = {
    "relative chain vs single matrices": (
        ["homology._boundary_chain"],
        ["homology.boundary_matrix"],
    ),
    "shelling vs matrix ranks": (
        ["shelling.betti_from_shelling"],
        ["homology.chain_ranks", "homology.betti_from_ranks"],
    ),
    "constructive witnesses vs search": (
        ["shelling._Twists", "shelling._Twists.twistable", "shelling._Twists.construct"],
        ["shelling._sweep"],
    ),
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

    def reach(self, starts: list[str]) -> set[str]:
        """Every node reachable from starts, entering no ALLOWED node or method."""
        seen: set[str] = set()
        stack = list(starts)
        while stack:
            name = stack.pop()
            if name in seen or name in ALLOWED or name.rpartition(".")[0] in ALLOWED:
                continue
            seen.add(name)
            stack.extend(self.edges(name))
        return seen


def test_each_allowed_and_declared_name_is_a_node():
    graph = CallGraph(PACKAGE)
    for sides in PAIRS.values():
        for name in (*sides[0], *sides[1]):
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


def test_the_two_sides_of_each_cross_check_share_no_code():
    graph = CallGraph(PACKAGE)
    for pair, (left, right) in PAIRS.items():
        shared = graph.reach(left) & graph.reach(right)
        assert not shared, f"{pair}: both sides reach {sorted(shared)}"
