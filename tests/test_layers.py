"""The package's modules import one another in one direction only, and
the test modules read the paper's solution tables from their one owner,
`tests/paper.py`."""

import ast
from pathlib import Path

import pytest

import paper

LAYERS = ("polyring", "linstruct", "compose", "catalog", "dioph", "cli")
SRC = Path(__file__).resolve().parents[1] / "src" / "matform"
TESTS = Path(__file__).resolve().parent


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


def int_rows(tree):
    """Each tuple or list literal in `tree` whose items are ints or the
    strings of ints, read as a tuple of ints."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Tuple, ast.List)):
            try:
                row = tuple(int(item) for item in ast.literal_eval(node))
            except (TypeError, ValueError):  # not a literal of ints
                continue
            yield row


@pytest.mark.parametrize("path", sorted(TESTS.glob("test_*.py")),
                         ids=lambda path: path.name)
def test_no_published_row_is_transcribed_again(path):
    """Rows 2-4 of the paper's solution tables are spelled in
    `tests/paper.py` only: a second copy could drift from it unseen."""
    rows = {row for table in paper.SOLUTION_TABLES.values()
            for row in table.rows[1:]}
    copies = [row for row in int_rows(ast.parse(path.read_text()))
              if row in rows]
    assert copies == [], f"{path.name} spells {copies}"
