"""Per-layer spans and counters, recorded from outside the quatlfun package.

The package binds its functions with ``from .x import y``, so one function
can be reachable under several module attributes (``reduce_ideal`` lives in
``quatarith.ideal``, ``quatarith.classset`` and ``brandtforms``).
``Tracer.install`` replaces every binding of each traced function, and each
traced method on its class, with a wrapper that records a span; ``remove``
puts the originals back.

Spans are kept in memory as (name, start, end, parent). A span's self time is
its duration minus the time its direct child spans cover; its inclusive time
is counted only for the outermost active span of a name, so recursion is not
counted twice.
"""

from __future__ import annotations

import fractions
import functools
import json
import sys
import time
import weakref
from array import array

# span name -> (module, attribute path). A dotted attribute path names a
# method, patched on its class; a plain name is a function, patched at every
# module attribute of the package that binds it.
SPANS = {
    "pipeline.run_lfun": ("quatlfun.pipeline", "run_lfun"),
    "pipeline.select_vertex_system": ("quatlfun.pipeline", "select_vertex_system"),
    "admraise.raise_level_search": ("quatlfun.admraise", "raise_level_search"),
    "padicl.check_distribution": ("quatlfun.padicl", "MeasurePipeline.check_distribution"),
    "padicl.check_projection_tower": ("quatlfun.padicl", "check_projection_tower"),
    "padicl.full_Lp": ("quatlfun.padicl", "full_Lp"),
    "toruscm.build_torus": ("quatlfun.toruscm", "build_torus"),
    "toruscm.edge_orbit_table": ("quatlfun.toruscm", "edge_orbit_table"),
    "toruscm.act_edge": ("quatlfun.toruscm", "TorusData.act_edge"),
    "brandtforms.QuotientGraph": ("quatlfun.brandtforms", "QuotientGraph.__init__"),
    "brandtforms.ensure_walk": ("quatlfun.brandtforms", "QuotientGraph.ensure_walk"),
    "brandtforms.classify_vertex": ("quatlfun.brandtforms", "QuotientGraph.classify_vertex"),
    "brandtforms.classify_edge": ("quatlfun.brandtforms", "QuotientGraph.classify_edge"),
    "brandtforms.brandt_matrix": ("quatlfun.brandtforms", "QuotientGraph.brandt_matrix"),
    "brandtforms.eigensystems_mod": ("quatlfun.brandtforms", "eigensystems_mod"),
    "brandtforms.eigenvector_mod": ("quatlfun.brandtforms", "eigenvector_mod"),
    "brandtforms.rational_eigensystems": ("quatlfun.brandtforms", "rational_eigensystems"),
    "brandtforms.mk_dual_graph": ("quatlfun.brandtforms", "mk_dual_graph"),
    "bttree.neighbors": ("quatlfun.bttree", "neighbors"),
    "bttree.act": ("quatlfun.bttree", "act"),
    "quatarith.maximal_order": ("quatlfun.quatarith.order", "maximal_order"),
    "quatarith.eichler_order": ("quatlfun.quatarith.order", "eichler_order"),
    "quatarith.ideal_class_set": ("quatlfun.quatarith.classset", "ideal_class_set"),
    "quatarith.neighbor_matrix": ("quatlfun.quatarith.classset", "neighbor_matrix"),
    "quatarith.classify": ("quatlfun.quatarith.classset", "ClassSet.classify"),
    "quatarith.reduce_ideal": ("quatlfun.quatarith.ideal", "reduce_ideal"),
    "quatarith.isometric": ("quatlfun.quatarith.ideal", "isometric"),
    "quatarith.theta_key": ("quatlfun.quatarith.ideal", "RightIdeal.theta_key"),
    "quatarith.neighbors": ("quatlfun.quatarith.ideal", "neighbors"),
    "quatarith.shortest_value_and_vector": ("quatlfun.quatarith.lattice",
                                            "shortest_value_and_vector"),
    "exactalg.kernel_mod": ("quatlfun.exactalg.intmatrix", "kernel_mod"),
    "exactalg.kernel_basis": ("quatlfun.exactalg.intmatrix", "kernel_basis"),
    "exactalg.smith_normal_form": ("quatlfun.exactalg.intmatrix", "smith_normal_form"),
    "compgraph.character_group": ("quatlfun.compgraph", "character_group"),
    "compgraph.component_group": ("quatlfun.compgraph", "component_group"),
}

# counter name -> (unit, better)
COUNTERS = {
    "brandtforms.classify_vertex.distinct": ("count", "lower"),
    "brandtforms.classify_edge.distinct": ("count", "lower"),
    "brandtforms.walk.useful_ratio": ("ratio", "higher"),
    "quatarith.isometric.true_ratio": ("ratio", "higher"),
    "toruscm.edge_orbit_table.entries": ("count", "lower"),
    "exactalg.smith_normal_form.max_bits": ("bits", "lower"),
    "process.fractions_created": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for span in SPANS:
        out += [(f"{span}.calls", "count", "lower"), (f"{span}.s", "s", "lower"),
                (f"{span}.self_s", "s", "lower")]
    out += [(name, unit, better) for name, (unit, better) in COUNTERS.items()]
    return out


class Tracer:
    """Span recorder for one traced pass; install, run the pass, remove."""

    def __init__(self):
        self.names = list(SPANS)
        self._index = {name: i for i, name in enumerate(self.names)}
        # one entry per span; ends are filled in when the span closes
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        k = len(self.names)
        self.calls = [0] * k
        self.total_s = [0.0] * k
        self.self_s = [0.0] * k
        self._active = [0] * k
        self._stack = []  # [span id, name index, start, time covered by children]
        self._restore = []
        self.fractions_created = 0
        self.isometric_true = 0
        self.orbit_entries = 0
        self.smith_max_bits = 0
        self.distinct = {"vertex": 0, "edge": 0}  # tree cells, per graph, summed
        self._walked = weakref.WeakSet()
        self.walk_classes = 0

    # -- spans ---------------------------------------------------------------

    def _enter(self, idx):
        sid = len(self.span_start)
        parent = self._stack[-1][0] if self._stack else -1
        start = time.perf_counter()
        self.span_name.append(idx)
        self.span_start.append(start)
        self.span_end.append(0.0)
        self.span_parent.append(parent)
        self._active[idx] += 1
        self._stack.append([sid, idx, start, 0.0])

    def _exit(self):
        end = time.perf_counter()
        sid, idx, start, covered = self._stack.pop()
        self.span_end[sid] = end
        dur = end - start
        self.calls[idx] += 1
        self.self_s[idx] += dur - covered
        self._active[idx] -= 1
        if self._active[idx] == 0:
            self.total_s[idx] += dur
        if self._stack:
            self._stack[-1][3] += dur

    def _wrap(self, name, fn, hook):
        idx = self._index[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit()
            if hook is not None:
                hook(args, out)
            return out
        return traced

    # -- counters ------------------------------------------------------------

    def _count_distinct(self, kind):
        """Hook for classify_vertex/classify_edge(graph, cell): new cells per graph."""
        seen_by_graph = weakref.WeakKeyDictionary()

        def hook(args, _out):
            seen = seen_by_graph.setdefault(args[0], set())
            if args[1] not in seen:
                seen.add(args[1])
                self.distinct[kind] += 1
        return hook

    def _count_walk(self, args, _out):
        graph = args[0]
        if graph not in self._walked:
            self._walked.add(graph)
            self.walk_classes += graph.vertex_count() + graph.edge_count()

    def _count_isometric(self, _args, out):
        self.isometric_true += bool(out)

    def _count_orbit_table(self, _args, out):
        self.orbit_entries += len(out[0])

    def _count_smith(self, _args, out):
        bits = (abs(x).bit_length() for mat in out for row in mat.entries for x in row)
        self.smith_max_bits = max(self.smith_max_bits, max(bits, default=0))

    # -- patching ------------------------------------------------------------

    def install(self):
        hooks = {
            "brandtforms.classify_vertex": self._count_distinct("vertex"),
            "brandtforms.classify_edge": self._count_distinct("edge"),
            "brandtforms.ensure_walk": self._count_walk,
            "quatarith.isometric": self._count_isometric,
            "toruscm.edge_orbit_table": self._count_orbit_table,
            "exactalg.smith_normal_form": self._count_smith,
        }
        package = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "quatlfun" or name.startswith("quatlfun."))]
        for name, (module, attr) in SPANS.items():
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(sys.modules[module], cls_name)
                self._patch(cls, meth, self._wrap(name, cls.__dict__[meth], hooks.get(name)))
                continue
            fn = getattr(sys.modules[module], attr)
            traced = self._wrap(name, fn, hooks.get(name))
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, traced)

        original_new = fractions.Fraction.__dict__["__new__"]
        plain_new = original_new.__func__

        def counting_new(cls, *args, **kwargs):
            self.fractions_created += 1
            return plain_new(cls, *args, **kwargs)
        self._patch(fractions.Fraction, "__new__", staticmethod(counting_new))

    def _patch(self, owner, key, value):
        self._restore.append((owner, key, owner.__dict__[key] if isinstance(owner, type)
                              else getattr(owner, key)))
        setattr(owner, key, value)

    def remove(self):
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    # -- report --------------------------------------------------------------

    def metrics(self, traced_wall_s: float, untraced_wall_s: float):
        """Every per-layer metric as {name: value}."""
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.s"] = self.total_s[i]
            out[f"{name}.self_s"] = self.self_s[i]
        cells = self.distinct["vertex"] + self.distinct["edge"]
        iso_calls = self.calls[self._index["quatarith.isometric"]]
        out.update({
            "brandtforms.classify_vertex.distinct": self.distinct["vertex"],
            "brandtforms.classify_edge.distinct": self.distinct["edge"],
            "brandtforms.walk.useful_ratio": self.walk_classes / cells if cells else 0.0,
            "quatarith.isometric.true_ratio":
                self.isometric_true / iso_calls if iso_calls else 0.0,
            "toruscm.edge_orbit_table.entries": self.orbit_entries,
            "exactalg.smith_normal_form.max_bits": self.smith_max_bits,
            "process.fractions_created": self.fractions_created,
            "trace.overhead_ratio": traced_wall_s / untraced_wall_s,
        })
        return out

    def write_spans(self, path: str):
        """All recorded spans as JSON: names, then [name, start, end, parent] rows."""
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "spans": [[n, s, e, p] for n, s, e, p in zip(
                           self.span_name, self.span_start, self.span_end,
                           self.span_parent)]}, fh)
