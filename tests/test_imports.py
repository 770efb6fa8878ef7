"""Every name that a module of ``src/ontorules`` imports at the top level is
read somewhere in that module: a dead import makes a reader check callers
that do not exist before trusting that a change to the name is local."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ontorules"


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name)
def test_every_top_level_import_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {(alias.asname or alias.name).partition(".")[0]
                for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
                for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    assert sorted(imported - read) == []
