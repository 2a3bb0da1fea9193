"""Tracing from outside the library: wrappers installed on `aq` modules.

`Tracer.install()` wraps the public functions and methods of each layer
module so that every call records a span (name, start, end, parent span,
item id) and the hottest arithmetic records a call count only.  A wrapper
is bound at every place a name is bound: each `aq.*` module attribute that
is the original function (modules import each other's names with
`from .groebner import ...`) and the method on its class.  `uninstall()`
puts the originals back.  Nothing under `src/` is edited.

Spans are kept in memory in flat arrays and summarised by `layer_metrics`;
`write_spans` dumps them after the pass.
"""

from __future__ import annotations

import array
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# Layer modules, bottom up.  `poly` and `fields` are counted, not spanned,
# apart from `Polynomial.substitute`: their methods run millions of times.
SPANNED_MODULES = ("rings", "groebner", "modules", "linalg", "simplicial",
                   "cotangent", "kahler", "classify", "session")

# Element-level helpers cheap enough that a span would cost more than the
# call; their time stays in the calling span's self time.
UNSPANNED = {
    "groebner": {"vp_is_zero", "vp_add", "vp_neg", "vp_sub", "vp_scale",
                 "vp_mul_poly", "vp_mul_monomial", "vp_lead", "vp_from_poly",
                 "vp_entries", "vp_map"},
    "simplicial": {"OrdinalMap", "coface", "codegeneracy"},
}

# Methods spanned although private or special, because a layer's work runs
# there: the Groebner basis of a `SubmoduleEngine` is built in `__init__`.
EXTRA_METHODS = {"groebner": {"SubmoduleEngine": ("__init__",)}}

COUNTED = {
    "fields.ops.qq": [("fields", "RationalField", m)
                      for m in ("add", "sub", "mul", "neg", "inv")],
    "fields.ops.gfp": [("fields", "PrimeField", m)
                       for m in ("add", "sub", "mul", "neg", "inv")],
    "poly.mul.calls": [("poly", "Polynomial", "__mul__")],
    "poly.pow.calls": [("poly", "Polynomial", "__pow__")],
    "poly.add.calls": [("poly", "Polynomial", "__add__")],
    "poly.ring_eq.calls": [("poly", "PolyRing", "__eq__")],
}
# `Field.div` is inherited by both fields, so it counts by its receiver.
DIV = ("fields", "Field", "div")

SPANNED_EXTRA = [("poly", "Polynomial", "substitute")]

SIMPLICIAL_CONSTRUCTIONS = (
    "simplicial.bar_construction", "simplicial.hypersurface_resolution",
    "simplicial.kill_cycle", "simplicial.tensor_resolutions",
    "simplicial.constant_extension")
IDENTITIES = "simplicial.FreeExtensionLevelwise.simplicial_identities_hold"
APPLY = "rings.AlgebraMap.apply"
RINGS_GROEBNER = "rings.PresentedAlgebra.groebner"
MODULE_GROEBNER = "groebner.module_groebner"
VP_NORMAL_FORM = "groebner.vp_normal_form"
RREF = "linalg.rref"


def _ring_key(ring) -> tuple:
    order = ring.order
    return (ring.field.kind, ring.field.characteristic, ring.variables,
            order.name, order.priority)


def _poly_key(p) -> tuple:
    return tuple(sorted(p.terms.items()))


def _presented_key(args) -> tuple:
    algebra = args[0]
    return (_ring_key(algebra.ring),
            tuple(_poly_key(r) for r in algebra.relations))


def _module_groebner_key(args) -> tuple:
    generators, ring = args[0], args[1]
    return (_ring_key(ring),
            tuple(tuple(sorted((c, _poly_key(p)) for c, p in v.items()))
                  for v in generators))


def _rref_cells(args) -> int:
    matrix = args[1]
    return len(matrix) * (len(matrix[0]) if matrix else 0)


class Tracer:
    """Span and counter store for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.item_id = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.flag = array.array("b")
        self.counts: Counter = Counter()
        self.keys: dict[str, set] = defaultdict(set)
        self.max_cells = 0
        self.item = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span_wrapper(self, name: str, fn):
        nid = self._intern(name)
        stack = self._stack
        clock = time.perf_counter
        keyed = {RINGS_GROEBNER: _presented_key,
                 MODULE_GROEBNER: _module_groebner_key}.get(name)
        computing = name == RINGS_GROEBNER
        zero_flag = name == VP_NORMAL_FORM
        rref = name == RREF

        def traced(*args, **kwargs):
            flag = 0
            if computing:
                # a call counts when the algebra has no basis cached yet
                flag = getattr(args[0], "_gb", None) is None
                if flag:
                    self.keys[name].add(keyed(args))
            elif keyed is not None:
                self.keys[name].add(keyed(args))
            elif rref:
                self.max_cells = max(self.max_cells, _rref_cells(args))
            idx = len(self.name_id)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.item_id.append(self.item)
            self.end.append(0.0)
            self.flag.append(flag)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if zero_flag and not result:
                self.flag[idx] = 1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def count_wrapper(self, metric: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def div_wrapper(self, fn):
        counts = self.counts

        def counted(field, *args, **kwargs):
            counts["fields.ops.qq" if field.characteristic == 0
                   else "fields.ops.gfp"] += 1
            return fn(field, *args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installation ---------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_function(self, original, replacement) -> None:
        """Bind the replacement wherever an `aq` module binds the original."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "aq"
                                   or mod_name.startswith("aq.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, replacement)

    def install(self) -> None:
        import importlib
        import aq  # noqa: F401  (loads every layer module)

        def module(name):
            return importlib.import_module(f"aq.{name}")

        for metric, targets in COUNTED.items():
            for mod, cls, attr in targets:
                owner = getattr(module(mod), cls)
                wrapper = self.count_wrapper(metric, vars(owner)[attr])
                self._patch(owner, attr, wrapper)
        mod, cls, attr = DIV
        owner = getattr(module(mod), cls)
        self._patch(owner, attr, self.div_wrapper(vars(owner)[attr]))
        for mod, cls, attr in SPANNED_EXTRA:
            owner = getattr(module(mod), cls)
            self._patch(owner, attr, self.span_wrapper(
                f"{mod}.{cls}.{attr}", vars(owner)[attr]))

        for layer in SPANNED_MODULES:
            mod = module(layer)
            skip = UNSPANNED.get(layer, set())
            extra = EXTRA_METHODS.get(layer, {})
            for name, obj in list(vars(mod).items()):
                own = getattr(obj, "__module__", None) == mod.__name__
                if name in skip or not own:
                    continue
                if inspect.isfunction(obj) and not name.startswith("_"):
                    self._patch_function(
                        obj, self.span_wrapper(f"{layer}.{name}", obj))
                elif inspect.isclass(obj):
                    for attr, fn in list(vars(obj).items()):
                        public = not attr.startswith("_")
                        if not inspect.isfunction(fn) or not (
                                public or attr in extra.get(name, ())):
                            continue
                        self._patch(obj, attr, self.span_wrapper(
                            f"{layer}.{name}.{attr}", fn))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "start", "end", "parent", "item"]},
                      fh)
            fh.write("\n")
            for n, s, e, p, i in zip(self.name_id, self.start, self.end,
                                     self.parent, self.item_id):
                fh.write(f"{n} {s:.9f} {e:.9f} {p} {i}\n")


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for idx, p in enumerate(parent):
        if p >= 0:
            children[p].append(idx)
    out = []
    for idx in range(len(start)):
        s, e = start[idx], end[idx]
        covered = 0.0
        cursor = s
        for c in sorted(children.get(idx, ()), key=lambda c: start[c]):
            lo, hi = max(start[c], cursor), min(end[c], e)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((e - s) - covered)
    return out


def layer_metrics(tracer: Tracer, self_s: list[float]) -> dict[str, float]:
    """Every per-layer metric except the overhead ratio, given the spans'
    self times."""
    names = [tracer.names[n] for n in tracer.name_id]
    parent = tracer.parent
    calls: Counter = Counter(names)
    by_name: Counter = Counter()
    by_layer: Counter = Counter()
    for name, t in zip(names, self_s):
        by_name[name] += t
        by_layer[name.split(".", 1)[0]] += t

    # spans inside an identity check, found through the parent links
    inside = [False] * len(names)
    identity_applies = 0
    nf_in_gb = nf_in_gb_zero = 0
    for idx, name in enumerate(names):
        p = parent[idx]
        inside[idx] = name == IDENTITIES or (p >= 0 and inside[p])
        if name == APPLY and inside[idx]:
            identity_applies += 1
        if name == VP_NORMAL_FORM and p >= 0 and names[p] == MODULE_GROEBNER:
            nf_in_gb += 1
            nf_in_gb_zero += tracer.flag[idx]
    groebner_computing = sum(
        f for name, f in zip(names, tracer.flag) if name == RINGS_GROEBNER)

    def ratio(a, b):
        return a / b if b else 0.0

    def total(prefix, table):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    engine = "groebner.SubmoduleEngine."
    homology = ("modules.FreeComplex.homology",
                "modules.TensoredComplex.homology")
    counts = tracer.counts
    return {
        "fields.ops.qq": counts["fields.ops.qq"],
        "fields.ops.gfp": counts["fields.ops.gfp"],
        "poly.mul.calls": counts["poly.mul.calls"],
        "poly.pow.calls": counts["poly.pow.calls"],
        "poly.add.calls": counts["poly.add.calls"],
        "poly.ring_eq.calls": counts["poly.ring_eq.calls"],
        "poly.substitute.calls": calls["poly.Polynomial.substitute"],
        "poly.substitute.self_s": by_name["poly.Polynomial.substitute"],
        "rings.apply.calls": calls[APPLY],
        "rings.apply.self_s": by_name[APPLY],
        "rings.groebner.calls": groebner_computing,
        "rings.groebner.distinct_ratio": ratio(
            len(tracer.keys[RINGS_GROEBNER]), groebner_computing),
        "groebner.module_groebner.calls": calls[MODULE_GROEBNER],
        "groebner.module_groebner.self_s": by_name[MODULE_GROEBNER],
        "groebner.module_groebner.distinct_ratio": ratio(
            len(tracer.keys[MODULE_GROEBNER]), calls[MODULE_GROEBNER]),
        "groebner.vp_normal_form.calls": calls[VP_NORMAL_FORM],
        "groebner.vp_normal_form.self_s": by_name[VP_NORMAL_FORM],
        "groebner.gb_nf.zero_ratio": ratio(nf_in_gb_zero, nf_in_gb),
        "groebner.engine.calls": total(engine, calls),
        "groebner.engine.self_s": total(engine, by_name),
        "modules.syzygies.calls": calls["modules.syzygies"],
        "modules.homology.calls": sum(calls[h] for h in homology),
        "modules.self_s": by_layer["modules"],
        "linalg.rref.calls": calls[RREF],
        "linalg.rref.self_s": by_name[RREF],
        "linalg.rref.max_cells": tracer.max_cells,
        "simplicial.construct.calls": sum(
            calls[c] for c in SIMPLICIAL_CONSTRUCTIONS),
        "simplicial.construct.self_s": sum(
            by_name[c] for c in SIMPLICIAL_CONSTRUCTIONS),
        "simplicial.identities.calls": calls[IDENTITIES],
        "simplicial.identities.self_s": by_name[IDENTITIES],
        "simplicial.identities.apply_calls": identity_applies,
        "cotangent.self_s": by_layer["cotangent"],
        "cotangent.trunc2.calls": calls["cotangent.cotangent_trunc2"],
        "cotangent.from_resolution.calls": calls[
            "cotangent.cotangent_from_resolution"],
        "kahler.self_s": by_layer["kahler"],
        "kahler.oracle.calls": calls["kahler.kahler_oracle_via_diagonal"],
        "classify.self_s": by_layer["classify"],
        "classify.report.calls": calls["classify.classification_report"],
        "session.parse.self_s": by_layer["session"],
    }


def layer_profile(tracer: Tracer, self_s: list[float],
                  wall_s: float) -> list[tuple[str, float]]:
    """Self time per layer and per span name, as (label, seconds), largest
    first: the layers, then the ten busiest span names."""
    names = [tracer.names[n] for n in tracer.name_id]
    by_layer: Counter = Counter()
    by_name: Counter = Counter()
    for name, t in zip(names, self_s):
        by_layer[name.split(".", 1)[0]] += t
        by_name[name] += t
    rows = [(f"layer {k}", v) for k, v in by_layer.most_common()]
    rows.append(("outside spans", wall_s - sum(by_layer.values())))
    rows += [(f"span {k}", v) for k, v in by_name.most_common(10)]
    return rows
