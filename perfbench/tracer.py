"""Layer tracer for one benchmark operation, run inside the child process.

``install()`` wraps, in every loaded ``qcactus`` module, the functions
named in each layer's ``__all__`` (plus ``cli.run``) and a few public
methods of exported classes (``METHODS``).  Nothing private is wrapped.
Each wrapped call updates, in memory:

* per name: call count, inclusive time of outermost calls, self time
  (duration minus the wrapped calls it made);
* per layer: self time, i.e. time inside the layer minus the time of
  nested calls into other layers, so the layers' self times and the
  root's add up to the root's duration;
* per metric group (``GROUPS``): summed counts and self times, and the
  inclusive time of outermost calls into the group;
* spans (name, start, end, parent span, op id) for the root call and
  the calls it makes directly.

``dump()`` writes all of it, with every ``lru_cache``'s ``cache_info()``,
as one JSON file when the operation ends.
"""

import json
import sys
import time

_clock = time.perf_counter

# Public methods of exported classes that are wrapped, by module.
METHODS = {
    "qexact": {"QRational": ("__init__", "__add__", "__radd__", "__sub__", "__rsub__",
                             "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                             "__neg__", "__pow__")},
    "crystals": {"CrystalMap": ("__init__", "compose", "inverse", "identity",
                                "morphism_failures")},
    "uqsl2": {"QMatrix": ("__matmul__", "inverse")},
}

ARITHMETIC = tuple(f"QRational.{m}" for m in METHODS["qexact"]["QRational"][1:])

# Metric groups: the wrapped names whose counts and times each one sums.
GROUPS = {
    "qexact.arith": ARITHMETIC,
    "uqsl2.matmul": ("QMatrix.__matmul__",),
    "uqsl2.inverse": ("QMatrix.inverse",),
    "uqsl2.frame": ("isotypic_frame", "module_components", "highest_weight_vectors"),
    "uqsl2.unitarize": ("unitarized_matrix", "rop_r_inverse_sqrt"),
    "uqsl2.module": ("irreducible", "tensor_module", "module_for_shape"),
    "uqsl2.braiding": ("braiding_matrix", "flip_matrix", "block_scalars", "check_yang_baxter"),
    "uqsl2.lattice": ("lattice_check_and_reduce",),
    "uqsl2.kt07": ("verify_kt07",),
    "crystals.tensor_rule": ("tensor_e", "tensor_f", "eps", "phi"),
    "crystals.words": ("words",),
    "crystals.crystalmap": ("CrystalMap.__init__", "CrystalMap.compose", "extend_map"),
    "crystals.decompose": ("decompose", "component_of"),
    "crystals.commutor": ("commutor_c", "commutor_S", "schutzenberger"),
    "crystals.cactus_action": ("cactus_action", "cactus_generator_images"),
    "groups.verify_action": ("verify_action",),
}

LAYERS = ("qexact", "groups", "crystals", "uqsl2", "cli")


class _Stat:
    __slots__ = ("count", "total", "self", "active", "group")

    def __init__(self, group):
        self.count = 0
        self.total = 0.0
        self.self = 0.0
        self.active = 0
        self.group = group


class _Group:
    __slots__ = ("depth", "total")

    def __init__(self):
        self.depth = 0
        self.total = 0.0


class Tracer:
    """Aggregates and spans for one operation (one process)."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.stack = []  # frames: [layer, time in wrapped children, time in other layers]
        self.stats = {}
        self.groups = {name: _Group() for name in GROUPS}
        self.layer_self = {}
        self.spans = []
        self.counts = {"qrational_construct": 0, "arith_results": 0, "monomial_den": 0,
                       "matmul_cells": 0, "matmul_nonzero": 0, "checks": 0}
        self.caches = {}
        self._group_of = {n: g for g, names in GROUPS.items() for n in names}

    # -- wrapping ----------------------------------------------------------

    def wrap(self, fn, name, layer, before=None, after=None):
        stat = self.stats.setdefault(name, _Stat(self._group_of.get(name)))
        group = self.groups.get(stat.group)
        stack, spans, layer_self = self.stack, self.spans, self.layer_self
        layer_self.setdefault(layer, 0.0)
        op_id = self.op_id

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            depth = len(stack)
            parent = stack[-1] if depth else None
            frame = [layer, 0.0, 0.0]
            span = None
            if depth <= 1:
                span = len(spans)
                spans.append([name, 0.0, 0.0, -1 if depth == 0 else 0, op_id])
            stack.append(frame)
            stat.active += 1
            if group is not None:
                group.depth += 1
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                dur = end - start
                stat.count += 1
                stat.self += dur - frame[1]
                stat.active -= 1
                if not stat.active:
                    stat.total += dur
                if group is not None:
                    group.depth -= 1
                    if not group.depth:
                        group.total += dur
                if parent is None or parent[0] != layer:
                    layer_self[layer] += dur - frame[2]
                    if parent is not None:
                        parent[2] += dur
                else:
                    parent[2] += frame[2]
                if parent is not None:
                    parent[1] += dur
                if span is not None:
                    spans[span][1:3] = [start, end]
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def run_root(self, name, layer, fn, *args):
        """Call fn as the root span of the operation."""
        return self.wrap(fn, name, layer)(*args)

    def install(self, package):
        """Wrap the public layer names of every loaded module of ``package``."""
        prefix = package.__name__ + "."
        modules = [package] + [m for n, m in sorted(sys.modules.items())
                               if n.startswith(prefix) and m is not None]
        replaced = {}  # id of the original (kept alive here) -> (original, wrapper)
        for mod in modules:
            layer = mod.__name__[len(prefix):]
            if layer not in LAYERS:
                continue
            self.caches[layer] = [v for v in vars(mod).values() if hasattr(v, "cache_info")]
            names = list(getattr(mod, "__all__", ()))
            if layer == "cli":
                names = ["run"]
            for name in names:
                fn = getattr(mod, name)
                if callable(fn) and not isinstance(fn, type):
                    replaced[id(fn)] = (fn, self.wrap(fn, name, layer, **self._hooks(name)))
            for cls_name, methods in METHODS.get(layer, {}).items():
                self._wrap_methods(getattr(mod, cls_name), cls_name, layer, methods)
        # rebind every module-level alias and default argument of a wrapped function
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in replaced:
                    setattr(mod, attr, replaced[id(value)][1])
        for fn, _ in replaced.values():
            defaults = getattr(fn, "__defaults__", None)
            if defaults:
                fn.__defaults__ = tuple(replaced[id(d)][1] if id(d) in replaced else d
                                        for d in defaults)

    def _wrap_methods(self, cls, cls_name, layer, methods):
        if cls_name == "QRational":
            self._qrational = cls
        for meth in methods:
            raw = cls.__dict__[meth]
            name = f"{cls_name}.{meth}"
            if name == "QRational.__init__":
                setattr(cls, meth, self._counting(raw, "qrational_construct"))
            elif isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(self.wrap(raw.__func__, name, layer)))
            else:
                setattr(cls, meth, self.wrap(raw, name, layer, **self._hooks(name)))

    def _hooks(self, name):
        """Counters that need a call's arguments or result."""
        if name in ARITHMETIC:
            return {"after": self._arith_result}
        if name == "QMatrix.__matmul__":
            return {"before": self._matmul_cells}
        if name == "verify_action":
            return {"before": self._relation_checks}
        return {}

    # -- counters ------------------------------------------------------------

    def _counting(self, fn, key):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _arith_result(self, result):
        if isinstance(result, self._qrational):
            self.counts["arith_results"] += 1
            if len(result.denominator.items()) == 1:
                self.counts["monomial_den"] += 1

    def _matmul_cells(self, args):
        a, b = args[0], args[1]
        rows, inner = a.rows, a.cols
        if inner != b.rows:
            return
        cols = b.cols
        self.counts["matmul_cells"] += rows * inner * cols
        col_nz = [0] * inner
        for row in a.entries:
            for k, x in enumerate(row):
                if x:
                    col_nz[k] += 1
        self.counts["matmul_nonzero"] += sum(
            col_nz[k] * sum(1 for y in b.entries[k] if y) for k in range(inner) if col_nz[k]
        )

    def _relation_checks(self, args):
        gen_images, relations = args[0], args[1]
        domain = len(next(iter(gen_images.values()))) if gen_images else 0
        self.counts["checks"] += len(relations) * domain

    # -- output --------------------------------------------------------------

    def _group_totals(self, group):
        stats = [self.stats[n] for n in GROUPS[group] if n in self.stats]
        return {"calls": sum(s.count for s in stats), "self_s": sum(s.self for s in stats),
                "total_s": self.groups[group].total}

    def dump(self, path):
        caches = {}
        for layer, fns in self.caches.items():
            hits = misses = entries = 0
            for fn in fns:
                info = fn.cache_info()
                hits += info.hits
                misses += info.misses
                entries += info.currsize
            caches[layer] = {"hits": hits, "misses": misses, "entries": entries}
        data = {
            "op_id": self.op_id,
            "names": {n: [s.count, s.total, s.self] for n, s in self.stats.items() if s.count},
            "groups": {g: self._group_totals(g) for g in GROUPS},
            "layer_self": self.layer_self,
            "counts": self.counts,
            "caches": caches,
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
