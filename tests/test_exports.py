"""The public names of each layer resolve.

Tools that walk a layer's ``__all__`` (and the package itself, which
re-exports from the layers) break on a stale name left behind when a
definition is deleted, so every listed name must exist.  The benchmark's
tracer (``perfbench/tracer.py``, loaded here read-only) names the
functions and methods it times, and each of those must resolve too.
"""

import ast
import importlib
import importlib.util
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


def _load_tracer():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_trace_names_resolve():
    # the tracer wraps only public names, so a name that no longer
    # resolves would silently read 0 in its per-layer metric
    tracer = _load_tracer()
    classes = {cls: layer for layer, by_cls in tracer.METHODS.items() for cls in by_cls}
    for layer, by_cls in tracer.METHODS.items():
        mod = importlib.import_module(f"qcactus.{layer}")
        for cls, methods in by_cls.items():
            assert cls in mod.__all__, f"{layer}.{cls}"
            missing = [m for m in methods if m not in vars(getattr(mod, cls))]
            assert missing == [], f"{layer}.{cls}"
    for group, names in tracer.GROUPS.items():
        layer = group.split(".")[0]
        assert layer in LAYERS, group
        mod = importlib.import_module(f"qcactus.{layer}")
        for name in names:
            cls, _, method = name.rpartition(".")
            if cls:
                assert classes.get(cls) == layer and method in tracer.METHODS[layer][cls], name
            else:
                assert name in mod.__all__ and callable(getattr(mod, name)), f"{group}: {name}"
