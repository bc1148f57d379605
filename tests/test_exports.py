"""The public names of each layer resolve.

Tools that walk a layer's ``__all__`` (and the package itself, which
re-exports from the layers) break on a stale name left behind when a
definition is deleted, so every listed name must exist.
"""

import ast
import importlib
from pathlib import Path

import pytest

import qcactus

LAYERS = ("qexact", "groups", "crystals", "uqsl2")


@pytest.mark.parametrize("layer", LAYERS)
def test_every_name_in_all_resolves(layer):
    mod = importlib.import_module(f"qcactus.{layer}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_package_reexports_exist_in_their_layers():
    tree = ast.parse(Path(qcactus.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert {node.module for node in imports} == set(LAYERS)
    for node in imports:
        mod = importlib.import_module(f"qcactus.{node.module}")
        for alias in node.names:
            assert alias.name in mod.__all__, f"{node.module}.{alias.name}"
            assert hasattr(qcactus, alias.asname or alias.name)
