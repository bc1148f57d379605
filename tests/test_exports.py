"""The public names of each layer resolve.

Tools that walk a layer's ``__all__`` (and the package itself, which
re-exports from the layers, loading each on first use) break on a stale
name left behind when a definition is deleted, so every listed name must
exist.  The benchmark's tracer (``perfbench/tracer.py``, loaded here
read-only) names the functions and methods it times, and each of those
must resolve too.  The value types that validate on construction
(``CrystalMap``, ``UqModule``) have no second, unchecked way to be built,
and every public crystal entry that takes a shape applies the package's one
shape rule, ``qcactus._shape``, before it reads a cache.
"""

import ast
import importlib
import importlib.util
import os
from pathlib import Path
import re
import subprocess
import sys

import pytest

import qcactus

LAYERS = ("qexact", "groups", "crystals", "uqsl2")


@pytest.mark.parametrize("layer", LAYERS)
def test_every_name_in_all_resolves(layer):
    mod = importlib.import_module(f"qcactus.{layer}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)


# the names ``from qcactus import *`` bound when the package imported its
# layers eagerly, plus the common base of the verification errors
STAR_NAMES = [
    "BraidWord", "CactusWord", "ChainElement", "CrystalMap", "QMatrix",
    "QRational", "Qpow", "TensorWord", "UqModule", "VerificationError",
    "braiding_matrix", "braiding_obstruction", "cactus_action", "cactus_relation_instances",
    "chain_crystal", "check_coboundary", "commutor_S", "commutor_c", "crystal_dot", "crystals",
    "decompose", "groups", "irreducible", "is_regular_at_infinity", "lattice_check_and_reduce",
    "monomial_sqrt", "parse_qrational", "project_to_symmetric", "qexact", "qpow",
    "quantum_factorial", "quantum_int", "reduce_mod_qhalf", "s_hat", "schutzenberger",
    "tensor_e", "tensor_f", "tensor_module", "unitarized_matrix", "uqsl2", "verify_action",
    "verify_kt07", "words",
]


def test_package_exports_resolve_to_their_layers():
    assert sorted(qcactus.__all__) == STAR_NAMES
    assert set(STAR_NAMES) <= set(dir(qcactus))
    layers = {layer: importlib.import_module(f"qcactus.{layer}") for layer in LAYERS}
    for layer, mod in layers.items():
        assert getattr(qcactus, layer) is mod
    for name in set(STAR_NAMES) - set(LAYERS) - {"VerificationError"}:
        homes = [mod for mod in layers.values() if name in mod.__all__]
        assert len(homes) == 1, name
        assert getattr(qcactus, name) is getattr(homes[0], name)
    star = {}
    exec("from qcactus import *", star)
    assert sorted(set(star) - {"__builtins__"}) == STAR_NAMES
    assert all(star[name] is getattr(qcactus, name) for name in STAR_NAMES)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        qcactus.no_such_name


def test_a_fresh_import_resolves_a_layer_by_attribute():
    src = str(Path(qcactus.__file__).resolve().parent.parent)
    code = "import qcactus; print(qcactus.uqsl2.irreducible(1).dim)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "2\n"


def test_readme_lists_every_cache():
    # the README's "Caches" list names each lru_cache of the layers, no more
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    bullets = readme[readme.index("\nCaches:"):].split("\n\n")[1]  # after the intro paragraph
    listed = set(re.findall(rf"`((?:{'|'.join(LAYERS)})\.\w+)`", bullets))
    cached = {f"{layer}.{name}" for layer in LAYERS
              for name, value in vars(importlib.import_module(f"qcactus.{layer}")).items()
              if hasattr(value, "cache_info")}
    assert listed == cached


VALUE_TYPES = {"CrystalMap", "UqModule"}


def test_value_types_are_built_only_through_their_constructors():
    # an unchecked factory must not come back: no object.__new__ of a value
    # type (or of cls inside one), no slot-filling helper, and no __reduce__
    # of its own, so that unpickling goes through the constructor too;
    # qexact._store fills the slots of QRational, which is not such a type
    package = Path(qcactus.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # the innermost class around each node: ast.walk meets outer classes first
        owner = {id(node): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for node in ast.walk(cls)}
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.FunctionDef) and (
                    node.name == "_crystal_map"
                    or (node.name == "_store" and path.name != "qexact.py")
                    or (owner.get(id(node)) in VALUE_TYPES
                        and node.name in ("__new__", "__reduce__"))):
                found.append(f"{where} def {node.name}")
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__new__":
                target = ast.unparse(node.args[0]) if node.args else ""
                if target in VALUE_TYPES or owner.get(id(node)) in VALUE_TYPES:
                    found.append(f"{where} object.__new__({target})")
    assert found == []


# the parameters through which a public crystal entry takes a shape
SHAPE_PARAMETERS = {"shape", "shape_a", "shape_b", "shape_c", "base_shape", "domain", "codomain",
                    "triples"}


def _public_functions(tree):
    """(qualified name, def) of each public function, and method of a public class, of a module."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and (
                        not item.name.startswith("_") or item.name == "__init__"):
                    yield f"{node.name}.{item.name}", item


def test_crystal_entries_apply_the_shape_rule_before_any_cache():
    # the cached cores' keys compare True == 1.0 == 1, so an entry that takes
    # a shape calls _shape before it calls a private function of the layer or
    # commutor_c; a call runs after its arguments, so calls are ordered by
    # where they end.  TensorWord.from_weights reads no core: its chain
    # elements check each weight.
    path = Path(qcactus.__file__).resolve().parent / "crystals.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    cores = {node.name for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name.startswith("_")}
    cores = cores - {"_shape"} | {"commutor_c"}
    guarded, unchecked = set(), []
    for name, node in _public_functions(tree):
        if not SHAPE_PARAMETERS & {arg.arg for arg in node.args.args}:
            continue
        guarded.add(name)
        calls = sorted(((call.end_lineno, call.end_col_offset), ast.unparse(call.func))
                       for call in ast.walk(node) if isinstance(call, ast.Call))
        called = [func for _, func in calls]
        first_core = next((i for i, func in enumerate(called) if func in cores), len(called))
        if "_shape" not in called[:first_core] and name != "TensorWord.from_weights":
            unchecked.append(name)
    assert unchecked == []
    assert guarded >= {
        "words", "decompose", "CrystalMap.__init__", "CrystalMap.identity", "schutzenberger",
        "commutor_S", "commutor_c", "cactus_action", "cactus_generator_images",
        "unique_component_isomorphism", "cactus_square_failures", "check_coboundary",
        "crystal_dot"}


def test_one_shape_rule_in_the_package():
    package = Path(qcactus.__file__).resolve().parent
    assert [path.name for path in sorted(package.glob("*.py"))
            if "_check_shape" in path.read_text(encoding="utf-8")] == []


def test_verification_errors_share_one_base():
    from qcactus import crystals, uqsl2

    for error in (crystals.CrystalInvariantError, uqsl2.CalibrationError,
                  uqsl2.LatticeError, uqsl2.UnitarizationError):
        assert issubclass(error, qcactus.VerificationError)
        assert issubclass(error, RuntimeError)


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
