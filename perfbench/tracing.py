"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of each `trimod` layer from outside the
library: every module attribute bound to a wrapped function is replaced for
the duration of the traced run and restored afterwards.  Untraced runs never
construct a Tracer, so they execute the library unmodified.

Each call to a wrapped function records one span `[layer, start, end,
parent, item]`; `parent` is the index of the innermost enclosing span (-1 at
the top) and `item` the benchmark item the call served.  A layer's self time
is the summed duration of its spans minus the time covered by their direct
child spans.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict

# metric prefix -> (module, wrapped functions)
LAYERS = {
    "linalg.modp": ("trimod.linalg", ("modp_rref",)),
    "linalg.int": ("trimod.linalg", ("smith_normal_form", "hnf_columns")),
    "rings.predicate": ("trimod.rings", (
        "is_quasi_frobenius", "is_local", "maximal_ideal", "idempotents",
        "decompose_product", "residue_field")),
    "modules.hom_group": ("trimod.modules", ("hom_group",)),
    "modules.syzygy": ("trimod.modules", (
        "heller_shift", "heller_inverse", "heller_power", "heller_of_map",
        "omega_inverse_of_map", "omega_power_of_map", "injective_envelope",
        "projective_cover")),
    "modules.stable": ("trimod.modules", (
        "stable_hom", "stable_class_is_zero", "stable_iso_test")),
    "dga.homology": ("trimod.dga", ("homology",)),
    "dga.build": ("trimod.dga", ("build_two_generator_dga",)),
    "dga.cone": ("trimod.dga", ("cone",)),
    "triangles.complete": ("trimod.triangles", ("triangle_from_map",)),
    "triangles.verify": ("trimod.triangles", ("verify_triangle_exact", "verify_rotation")),
    "tate": ("trimod.tate", ("ggh_verdict", "tate_ring", "cofiber_stmod")),
    "classify": ("trimod.classify", ("classify", "classify_local")),
    "ringio": ("trimod.ringio", ("load_ring", "parse_ring", "serialize_ring", "save_ring")),
    "cli": ("trimod.cli", ("main",)),
}

# per-layer metric -> unit; the order is the order of the report
METRICS = {
    "linalg.modp.calls": "count",
    "linalg.modp.self_s": "s",
    "linalg.modp.cells": "count",
    "linalg.modp.max_cells": "count",
    "linalg.int.calls": "count",
    "linalg.int.self_s": "s",
    "rings.predicate.calls": "count",
    "rings.predicate.self_s": "s",
    "rings.predicate.distinct_ratio": "ratio",
    "rings.mul.calls": "count",
    "modules.hom_group.calls": "count",
    "modules.hom_group.self_s": "s",
    "modules.hom_group.unknowns": "count",
    "modules.syzygy.calls": "count",
    "modules.syzygy.self_s": "s",
    "modules.syzygy.relations_per_gen": "ratio",
    "modules.stable.calls": "count",
    "modules.stable.self_s": "s",
    "dga.homology.calls": "count",
    "dga.homology.self_s": "s",
    "dga.homology.free_calls": "count",
    "dga.homology.rank_calls": "count",
    "dga.build.self_s": "s",
    "dga.cone.self_s": "s",
    "triangles.complete.self_s": "s",
    "triangles.verify.self_s": "s",
    "tate.self_s": "s",
    "classify.calls": "count",
    "classify.self_s": "s",
    "ringio.calls": "count",
    "ringio.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}

# metrics that must repeat exactly across traced runs with the same seed
COUNT_METRICS = tuple(
    name for name, unit in METRICS.items()
    if unit == "count" or name == "rings.predicate.distinct_ratio")


def _trimod_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "trimod" or name.startswith("trimod."))]


def _modules_in(result):
    """FiniteModules returned by a syzygy function (maps give both ends)."""
    if hasattr(result, "relations"):
        return [result]
    if hasattr(result, "source") and hasattr(result, "target"):
        return [result.source, result.target]
    return []


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.item = -1
        self._stack = []
        self._patches = []
        self.mul_calls = 0
        self.modp_cells = 0
        self.modp_max_cells = 0
        self.predicate_keys = set()
        self.hom_unknowns = 0
        self.syzygy_ratios = []
        self.homology_free = 0

    # -- hooks run before or after a wrapped call --------------------------

    def _before_modp(self, fn, args):
        A = args[0]
        cells = len(A) * (len(A[0]) if len(A) else 0)
        self.modp_cells += cells
        self.modp_max_cells = max(self.modp_max_cells, cells)

    def _before_predicate(self, fn, args):
        self.predicate_keys.add((fn.__name__, args[0].key()))

    def _before_hom_group(self, fn, args):
        M, N = args[0], args[1]
        R = M.ring
        relN = len(N.relations) * R.dim  # N.relation_cols() has one column per (relation, basis)
        self.hom_unknowns += N.generators * M.generators * R.dim + relN * len(M.relations)

    def _before_homology(self, fn, args):
        M = args[0]
        if all(x.is_zero for row in M.diff for x in row):
            self.homology_free += 1

    def _after_syzygy(self, result):
        for M in _modules_in(result):
            if M.generators:
                self.syzygy_ratios.append(len(M.relations) / M.generators)

    # -- installation ------------------------------------------------------

    def _wrap(self, layer, fn, before=None, after=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(fn, args)
            index = len(spans)
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, self.item]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every binding of every layer function in loaded trimod modules."""
        before = {"linalg.modp": self._before_modp,
                  "rings.predicate": self._before_predicate,
                  "modules.hom_group": self._before_hom_group,
                  "dga.homology": self._before_homology}
        after = {"modules.syzygy": self._after_syzygy}
        loaded = _trimod_modules()
        for layer, (modname, names) in LAYERS.items():
            # `trimod.classify` is shadowed by the function, so go through sys.modules
            home = sys.modules[modname]
            for name in names:
                fn = getattr(home, name)
                wrapper = self._wrap(layer, fn, before.get(layer), after.get(layer))
                # `from .classify import classify` in tate and cli, and the
                # package re-exports, each hold their own binding
                for mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, attr, wrapper)

        RingElement = sys.modules["trimod.rings"].RingElement
        mul = RingElement.__mul__

        def counted_mul(x, y):
            self.mul_calls += 1
            return mul(x, y)

        self._patch(RingElement, "__mul__", counted_mul)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write_spans(self, path):
        """Spans as JSON: [layer, start, end, parent, item] per span."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["layer", "start", "end", "parent", "item"],
                       "spans": self.spans}, fh)

    # -- derived metrics ---------------------------------------------------

    def metrics(self, overhead_frac):
        spans = self.spans
        durations = [s[2] - s[1] for s in spans]
        covered = [0.0] * len(spans)
        for d, s in zip(durations, spans):
            if s[3] >= 0:
                covered[s[3]] += d
        calls = Counter()
        self_s = defaultdict(float)
        for d, c, s in zip(durations, covered, spans):
            calls[s[0]] += 1
            self_s[s[0]] += d - c
        rank_calls = sum(1 for s in spans
                         if s[0] == "linalg.modp" and s[3] >= 0
                         and spans[s[3]][0] == "dga.homology")
        pred_calls = calls["rings.predicate"]
        values = {
            "linalg.modp.cells": self.modp_cells,
            "linalg.modp.max_cells": self.modp_max_cells,
            "rings.predicate.distinct_ratio":
                len(self.predicate_keys) / pred_calls if pred_calls else 0.0,
            "rings.mul.calls": self.mul_calls,
            "modules.hom_group.unknowns": self.hom_unknowns,
            "modules.syzygy.relations_per_gen":
                sum(self.syzygy_ratios) / len(self.syzygy_ratios) if self.syzygy_ratios else 0.0,
            "dga.homology.free_calls": self.homology_free,
            "dga.homology.rank_calls": rank_calls,
            "trace.overhead_frac": overhead_frac,
        }
        out = {}
        for name, unit in METRICS.items():
            layer, _, kind = name.rpartition(".")
            if name in values:
                value = values[name]
            elif kind == "calls":
                value = calls[layer]
            else:
                value = self_s[layer]
            out[name] = {"value": value, "unit": unit}
        return out
