"""The package's import graph. Module-level imports inside hypermoment form
a DAG, so any module can be imported first; importing a module loads only
the layers it builds on, and the package itself imports none of them."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src"
MODULES = sorted(p.stem for p in (SRC / "hypermoment").glob("*.py") if p.stem != "__init__")


def _imported_modules(node, found):
    """Add to found the package modules that node imports when the module
    runs: function bodies are skipped, class bodies are not."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(child, ast.ImportFrom) and child.level == 1:
            if child.module:
                found.add(child.module.split(".")[0])
            else:
                found.update(a.name for a in child.names)
        elif isinstance(child, ast.ImportFrom) and (child.module or "").startswith("hypermoment."):
            found.add(child.module.split(".")[1])
        elif isinstance(child, ast.Import):
            found.update(a.name.split(".")[1] for a in child.names if a.name.startswith("hypermoment."))
        else:
            _imported_modules(child, found)
    return found


def import_graph():
    """{module: modules of the package it imports at module level}."""
    return {
        m: _imported_modules(ast.parse((SRC / "hypermoment" / f"{m}.py").read_text()), set()) & set(MODULES)
        for m in MODULES
    }


def find_cycle(graph):
    """One import cycle of graph as a list of modules, first repeated last,
    or None."""
    done, path = set(), []

    def visit(m):
        if m in path:
            return path[path.index(m):] + [m]
        if m in done:
            return None
        path.append(m)
        for dep in sorted(graph[m]):
            cycle = visit(dep)
            if cycle:
                return cycle
        path.pop()
        done.add(m)
        return None

    for m in sorted(graph):
        cycle = visit(m)
        if cycle:
            return cycle
    return None


def test_cycle_finder():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": set()}) is None
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]


def test_module_imports_form_a_dag():
    graph = import_graph()
    assert {"inputs", "riemann", "solver"} <= graph["cli"] and "state" in graph["inputs"]
    assert find_cycle(graph) is None, " -> ".join(find_cycle(graph))


def _loaded(code):
    """Names in sys.modules after code runs in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(' '.join(sys.modules))"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_bare_package_loads_no_module():
    loaded = _loaded("import hypermoment")
    assert "hypermoment" in loaded
    assert not {m for m in loaded if m.startswith("hypermoment.")}


def test_state_loads_no_layer_above_it():
    loaded = _loaded("import hypermoment.state")
    assert {m for m in loaded if m.startswith("hypermoment.")} == {
        "hypermoment.index", "hypermoment.hermite", "hypermoment.state"
    }
    assert "scipy" not in loaded


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_first(module):
    assert f"hypermoment.{module}" in _loaded(f"import hypermoment.{module}")


def test_scipy_stays_behind_riemann():
    # riemann is the one module that imports scipy; every layer below it and
    # the solver beside it load without it
    layers = ("index", "hermite", "state", "assembly", "spectral", "solver", "inputs")
    loaded = _loaded("\n".join(f"import hypermoment.{m}" for m in layers))
    assert {f"hypermoment.{m}" for m in layers} <= loaded
    assert "hypermoment.riemann" not in loaded
    assert "scipy" not in loaded
