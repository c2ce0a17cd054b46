"""The package's modules import one another without a cycle."""

import ast
from pathlib import Path

import cosserat2d

PACKAGE = Path(cosserat2d.__file__).parent


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

