"""The package's public surface and the shape of its import graph."""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import plam

SOURCES = Path(plam.__file__).resolve().parent


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from plam import *", namespace)
    assert set(plam.__all__) <= set(namespace)


def _plam_imports(node: ast.AST, modules: set[str]) -> set[str]:
    """The plam modules an import statement names; `from . import x`
    names x when x is a module and the package otherwise."""
    if isinstance(node, ast.Import):
        dotted = [alias.name for alias in node.names]
    elif node.level:
        dotted = [".".join(filter(None, ("plam", node.module)))]
    else:
        dotted = [node.module or ""]
    found = set()
    for name in dotted:
        head, _, rest = name.partition(".")
        if head != "plam":
            continue
        if rest:
            found.add(rest.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            found |= {a.name if a.name in modules else "__init__" for a in node.names}
        else:
            found.add("__init__")
    return found


def _module_trees() -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SOURCES.glob("*.py"))
    }


def test_no_import_sits_inside_a_function():
    for name, tree in _module_trees().items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    assert not isinstance(node, (ast.Import, ast.ImportFrom)), (
                        f"{name}.py:{node.lineno} imports inside {fn.name}"
                    )


def test_the_import_graph_between_plam_modules_is_acyclic():
    trees = _module_trees()
    graph = {
        name: {
            target
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for target in _plam_imports(node, set(trees))
        }
        - {name}
        for name, tree in trees.items()
    }
    assert graph["syntax"] == set()
    assert "smallstep" not in graph["bigstep"] | graph["sampler"]
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        raise AssertionError(f"import cycle: {exc.args[1]}") from None
