"""The package's modules import one another in one direction only."""

import ast
from pathlib import Path

import pytest

LAYERS = ("polyring", "linstruct", "compose", "catalog", "dioph", "cli")
SRC = Path(__file__).resolve().parents[1] / "src" / "matform"


def relative_imports(module: str):
    """The package modules `module` imports, lazy imports included."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                yield node.module.split(".")[0]
            else:  # from . import a, b
                yield from (alias.name for alias in node.names)


def test_layers_are_every_module():
    assert set(LAYERS) == {p.stem for p in SRC.glob("*.py")} - {"__init__"}


@pytest.mark.parametrize("module", LAYERS)
def test_imports_only_lower_layers(module):
    rank = LAYERS.index(module)
    upward = [name for name in relative_imports(module)
              if LAYERS.index(name) >= rank]
    assert upward == [], f"{module} imports {upward}"
