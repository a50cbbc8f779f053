"""The package's public names: every exported name exists, and the README's
library tour runs as printed."""

import ast
import contextlib
import importlib
import io
import pathlib
import pkgutil
import re

import pytest

import siltlab

REPO = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(info.name for info in pkgutil.iter_modules(siltlab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_are_defined(name):
    module = importlib.import_module(f"siltlab.{name}")
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_imports_resolve():
    tree = ast.parse(pathlib.Path(siltlab.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        source = importlib.import_module(f"siltlab.{node.module}")
        for alias in node.names:
            name = alias.asname or alias.name
            assert getattr(siltlab, name) is getattr(source, alias.name)


def test_readme_library_tour_prints_false():
    """The tour's block, run statement by statement as at the interactive
    prompt, echoes the value of its last line only."""
    readme = (REPO / "README.md").read_text()
    tour = readme.split("## Library tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    namespace: dict = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for stmt in ast.parse(block).body:
            code = compile(ast.Interactive([stmt]), "README.md", "single")
            exec(code, namespace)
    assert out.getvalue() == "False\n"
