"""The package's modules import one another without a cycle, every public
function, class and method has a caller in the package, and no module in the
package or the tests imports a name it never uses."""

import ast
from collections import Counter
from pathlib import Path

import cosserat2d

PACKAGE = Path(cosserat2d.__file__).parent
TESTS = Path(__file__).parent


def module_graph(package: Path) -> dict[str, set[str]]:
    # module -> the package modules it imports relatively, anywhere in its body;
    # __init__ re-exports the others and is left out
    modules = {p.stem for p in package.glob("*.py")} - {"__init__"}
    graph = {}
    for name in sorted(modules):
        tree = ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
        targets = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:  # from . import a, b
                    targets.update(alias.name for alias in node.names)
                else:  # from .a import x
                    targets.add(node.module.split(".")[0])
        graph[name] = targets & modules
    return graph


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    # the first cycle a depth-first search meets, as a closed path, or None
    done, path = set(), []

    def visit(node):
        if node in path:
            return path[path.index(node):] + [node]
        if node in done:
            return None
        path.append(node)
        for target in sorted(graph[node]):
            cycle = visit(target)
            if cycle:
                return cycle
        path.pop()
        done.add(node)
        return None

    for node in sorted(graph):
        cycle = visit(node)
        if cycle:
            return cycle
    return None


def test_module_graph_is_acyclic():
    graph = module_graph(PACKAGE)
    # both forms are read: "from . import energy" and "from .energy import x"
    assert {"energy", "minimizers"} <= graph["cli"] and "energy" in graph["minimizers"]
    cycle = find_cycle(graph)
    assert cycle is None, "import cycle: " + " → ".join(cycle)


def test_cycle_is_named():
    graph = {"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": {"a"}}
    assert find_cycle(graph) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b"}, "b": set(), "c": {"a", "b"}}) is None


def unreferenced(package: Path) -> list[str]:
    # "module.name" of each public module-level function or class, and
    # "module.Class.name" of each public method or property of such a class, that
    # no code in the package names outside its own definition; __init__'s
    # re-exports are not callers. A method is matched by its name alone, and
    # operators (__matmul__, __sub__, __rmul__) are out of scope, as the AST
    # cannot tell the type of an operand.
    defined, used = [], Counter()
    for path in sorted(package.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            if own and not own.startswith("_"):
                defined.append((own, f"{path.stem}.{own}", 0))
                if isinstance(top, ast.ClassDef):
                    # each public method, with the uses of its name in its own body
                    defined += [(m.name, f"{path.stem}.{own}.{m.name}", _names(m)[m.name])
                                for m in top.body
                                if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
            names = _names(top)
            names.pop(own, None)
            used.update(names)
    return [qualified for name, qualified, own_uses in defined if used[name] <= own_uses]


def _names(node: ast.AST) -> Counter:
    # how often each name and attribute is read under node
    return Counter(sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
                   if isinstance(sub, (ast.Name, ast.Attribute)))


def unused_imports(path: Path) -> list[str]:
    # each name the module's imports bind and no expression of it reads;
    # the names listed in __all__ count as read
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [name for name in bound if name not in used]


#: Public names with no caller in the package, each kept for its reason.
UNCALLED = {
    "planar.Mat2.diagonal": "the constructor of the README's quick start",
}


def test_every_public_function_and_class_has_a_caller():
    # and every public method and property of a public class
    assert [name for name in unreferenced(PACKAGE) if name not in UNCALLED] == []


def test_no_module_imports_a_name_it_never_uses():
    paths = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
    unused = {path.name: names for path in paths if (names := unused_imports(path))}
    assert unused == {}


def test_uncalled_names_and_unused_imports_are_named(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import Unused, uncalled\n")
    (tmp_path / "a.py").write_text(
        "def called():\n    pass\n\n"
        "def uncalled():\n    return uncalled() or called()\n\n"
        "class Unused:\n    pass\n\n"
        "def _private():\n    pass\n\n"
        "class Used:\n"
        "    def read(self):\n        return self.read() or self.ok\n\n"
        "    @property\n    def ok(self):\n        return Used()\n\n"
        "    def __sub__(self, other):\n        pass\n\n"
        "print(Used())\n"
    )
    assert unreferenced(tmp_path) == ["a.uncalled", "a.Unused", "a.Used.read"]
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path, sys\nfrom json import dumps as d, loads\n"
        "__all__ = ['loads']\nprint(sys)\n"
    )
    assert unused_imports(module) == ["os", "d"]
