"""Opt-in tracing of valtool's layers from outside the package.

``Tracer.install()`` replaces the public functions and methods of each
layer module (plus the arithmetic dunders and ``__init__`` of its classes)
by wrappers, and ``uninstall()`` puts the originals back; the untraced run
never calls ``install``.  Nothing under ``src/`` is edited.

A call that crosses into another layer opens a span (name, start, end,
parent span, task id).  Calls inside the same layer only bump a counter,
so a layer's span covers its own helper calls.  Self time of a span is its
duration minus the spans opened directly inside it; a layer's inclusive
time counts only its outermost spans, so re-entry is not counted twice.
Spans are kept in memory and written out by ``write_spans``.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import time

LAYERS = ("values", "towers", "ring", "genseq", "blowup", "graded",
          "extension", "scenario", "cli")
# arithmetic layers: crossings into them are summed per parent span, not
# stored one by one (they number in the millions)
LEAVES = ("values", "towers")
DUNDERS = ("__init__", "__add__", "__radd__", "__sub__", "__rsub__",
           "__mul__", "__rmul__", "__truediv__", "__pow__", "__neg__")

# callables whose own inclusive time is a metric, even for same-layer calls
TIMED = {
    "genseq.GenSeq.__init__": "genseq.build_s",
    "blowup.free_transform": "blowup.free_transform_s",
    "extension.ramification_report": "extension.ramify_s",
    "extension.splitting_report": "extension.split_s",
    "scenario.parse_scenario": "scenario.parse_s",
    "scenario.run_scenario": "scenario.run_s",
    "scenario.Report.render": "scenario.render_s",
}
# per-layer counts: metric name -> callable whose calls it counts
COUNTS = {
    "ring.mul_calls": "ring.RingElem.__mul__",
    "ring.pow_calls": "ring.RingElem.__pow__",
    "ring.divmod_y_calls": "ring.divmod_y",
    "ring.substitute_calls": "ring.substitute",
    "towers.mul_calls": "towers.TowerElem.__mul__",
    "towers.inv_calls": "towers.TowerElem.inverse",
    "towers.solver_rows": "towers.LinearSolver.add",
    "towers.solve_calls": "towers.LinearSolver.solve",
    "towers.relative_dimension_calls": "towers.relative_dimension",
    "values.sign_calls": "values.Value.sign",
    "values.group_index_calls": "values.group_index",
    "graded.membership_calls": "graded.subalgebra_membership",
    "graded.elem_mul_calls": "graded.GradedElem.__mul__",
    "genseq.expand_calls": "genseq.expand",
    "genseq.evaluate_calls": "genseq.evaluate",
    "blowup.to_target_calls": "blowup.TransformMap.to_target",
    "blowup.strict_transform_calls": "blowup.strict_transform",
}
# answers whose expansions genseq.expands_per_answer counts
ANSWERS = ("genseq.evaluate", "genseq.initial_form",
           "genseq.residue_against_reference")
# ring results whose size feeds ring.max_terms
SIZED = ("ring.RingElem.__mul__", "ring.RingElem.__pow__", "ring.divmod_y",
         "ring.substitute")
# ring oracle calls that can answer "insufficient precision"
PRECISION = ("ring.series_value", "ring.SeriesEmbedding.evaluate",
             "ring.SeriesEmbedding.residue_of_ratio")


class _Frame:
    """An open span on the stack: its layer, child-span time, span index."""

    __slots__ = ("layer", "child", "span")

    def __init__(self, layer, span):
        self.layer, self.child, self.span = layer, 0, span


class Tracer:
    def __init__(self):
        self.names = []            # callable names, indexed by name id
        self.name_layer = []       # layer index of each name id
        self.calls = []            # call count per name id
        self.running = []          # open calls per name id
        self.timed_ns = {}         # name id -> inclusive ns (TIMED only)
        self.layer_incl = [0] * len(LAYERS)
        self.layer_self = [0] * len(LAYERS)
        self.active = [0] * (len(LAYERS) + 1)
        self.spans = []            # [name id, start, end, parent, task]
        self.leaf_spans = {}       # (parent span, layer) -> [calls, ns]
        self.stack = []
        self.task = -1
        self.max_terms = 0
        self.insufficient = 0
        self.undecided = 0
        self.members = 0
        self.answers = 0           # outermost ANSWERS calls
        self._answer_depth = 0
        self._patched = []
        self._wrappers = {}

    # -- tasks ---------------------------------------------------------------

    def begin_task(self, task_id):
        self.task = task_id
        span = len(self.spans)
        self.spans.append([-1, time.perf_counter_ns(), 0, -1, task_id])
        self.stack.append(_Frame(len(LAYERS), span))

    def end_task(self):
        frame = self.stack.pop()
        self.spans[frame.span][2] = time.perf_counter_ns()

    # -- installation --------------------------------------------------------

    def install(self):
        mods = {name: importlib.import_module("valtool." + name)
                for name in LAYERS}
        everyone = [importlib.import_module("valtool")] + list(mods.values())
        self._insufficient_sentinel = mods["ring"].INSUFFICIENT_PRECISION
        self._undecided_error = mods["values"].UndecidedComparison
        for layer, (name, mod) in enumerate(mods.items()):
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    wrapper = self._wrapper(obj, layer, "%s.%s" % (name, attr))
                    for owner in everyone:
                        for a, v in list(vars(owner).items()):
                            if v is obj:
                                self._patch(owner, a, obj, wrapper)
                elif inspect.isclass(obj):
                    for a, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (
                                not a.startswith("_") or a in DUNDERS):
                            wrapper = self._wrapper(
                                fn, layer, "%s.%s" % (name, fn.__qualname__))
                            self._patch(obj, a, fn, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def _patch(self, owner, attr, original, wrapper):
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrapper(self, fn, layer, name):
        if id(fn) in self._wrappers:
            return self._wrappers[id(fn)]
        nid = len(self.names)
        self.names.append(name)
        self.name_layer.append(layer)
        self.calls.append(0)
        self.running.append(0)
        calls, running = self.calls, self.running
        stack, spans, active = self.stack, self.spans, self.active
        leaf_spans = self.leaf_spans
        record = LAYERS[layer] not in LEAVES
        layer_incl, layer_self = self.layer_incl, self.layer_self
        clock = time.perf_counter_ns
        after = self._after(name)
        timed = name in TIMED
        if timed:
            self.timed_ns[nid] = 0
        tracer = self

        def wrapper(*args, **kwargs):
            calls[nid] += 1
            same = stack[-1].layer == layer
            if same and not timed:
                try:
                    result = fn(*args, **kwargs)
                except Exception as err:
                    tracer._failed(name, err)
                    raise
                return after(result) if after else result
            running[nid] += 1
            start = clock()
            if not same:
                if record:
                    span = len(spans)
                    spans.append([nid, start, 0, stack[-1].span, tracer.task])
                else:
                    span = stack[-1].span
                frame = _Frame(layer, span)
                stack.append(frame)
                active[layer] += 1
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                tracer._failed(name, err)
                raise
            finally:
                end = clock()
                running[nid] -= 1
                if timed and not running[nid]:
                    tracer.timed_ns[nid] += end - start
                if not same:
                    stack.pop()
                    active[layer] -= 1
                    dur = end - start
                    if record:
                        spans[span][2] = end
                    else:
                        agg = leaf_spans.setdefault((span, layer), [0, 0])
                        agg[0] += 1
                        agg[1] += dur
                    layer_self[layer] += dur - frame.child
                    if not active[layer]:
                        layer_incl[layer] += dur
                    stack[-1].child += dur
            return after(result) if after else result

        if name in ANSWERS:
            inner = wrapper

            def wrapper(*args, **kwargs):
                tracer.answers += not tracer._answer_depth
                tracer._answer_depth += 1
                try:
                    return inner(*args, **kwargs)
                finally:
                    tracer._answer_depth -= 1

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        self._wrappers[id(fn)] = wrapper
        return wrapper

    def _after(self, name):
        if name in SIZED:
            def sized(result):
                for r in (result if isinstance(result, tuple) else (result,)):
                    if len(r.terms) > self.max_terms:
                        self.max_terms = len(r.terms)
                return result
            return sized
        if name in PRECISION:
            def precision(result):
                if result is self._insufficient_sentinel:
                    self.insufficient += 1
                return result
            return precision
        if name == "graded.subalgebra_membership":
            def member(result):
                self.members += bool(result.ok)
                return result
            return member
        return None

    def _failed(self, name, err):
        if name == "values.Value.sign" and \
                isinstance(err, self._undecided_error):
            self.undecided += 1

    # -- results -------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics as a name -> (value, unit) mapping."""
        out = {}
        by_name = dict(zip(self.names, self.calls))
        layer_calls = [0] * len(LAYERS)
        for nid, layer in enumerate(self.name_layer):
            layer_calls[layer] += self.calls[nid]
        for k, layer in enumerate(LAYERS):
            out["%s.incl_s" % layer] = (self.layer_incl[k] / 1e9, "s")
            out["%s.self_s" % layer] = (self.layer_self[k] / 1e9, "s")
            out["%s.calls" % layer] = (layer_calls[k], "count")
        for metric, name in COUNTS.items():
            out[metric] = (by_name.get(name, 0), "count")
        for nid, ns in self.timed_ns.items():
            out[TIMED[self.names[nid]]] = (ns / 1e9, "s")
        for metric in TIMED.values():
            out.setdefault(metric, (0.0, "s"))
        out["ring.max_terms"] = (self.max_terms, "count")
        out["ring.insufficient_precision"] = (self.insufficient, "count")
        out["values.undecided"] = (self.undecided, "count")
        memberships = by_name.get("graded.subalgebra_membership", 0)
        out["graded.membership_hit_ratio"] = (
            _ratio(self.members, memberships), "ratio")
        out["graded.products_per_membership"] = (
            _ratio(by_name.get("graded.GradedElem.__mul__", 0), memberships),
            "ratio")
        out["genseq.expands_per_answer"] = (
            _ratio(by_name.get("genseq.expand", 0), self.answers), "ratio")
        return out

    def write_spans(self, path):
        """Spans as gzipped JSON lines, one object per span.

        Crossings into the arithmetic layers appear as one line per parent
        span and layer, with their count and summed duration.
        """
        with gzip.open(path, "wt") as handle:
            for sid, (nid, start, end, parent, task) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": sid, "parent": parent, "task": task,
                    "name": "bench.task" if nid < 0 else self.names[nid],
                    "layer": "bench" if nid < 0
                    else LAYERS[self.name_layer[nid]],
                    "start_ns": start, "end_ns": end}) + "\n")
            for (parent, layer), (calls, ns) in sorted(self.leaf_spans.items()):
                handle.write(json.dumps({
                    "parent": parent, "task": self.spans[parent][4],
                    "name": LAYERS[layer] + ".*", "layer": LAYERS[layer],
                    "crossings": calls, "total_ns": ns}) + "\n")


def _ratio(num, den):
    """num / den, or 0.0 when the base is zero (both are reported)."""
    return num / den if den else 0.0
