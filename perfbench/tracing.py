"""Per-layer tracing of g2inv from outside the package.

Every public function of each layer module is replaced, at every module
attribute that binds it (``from ... import`` names included), by a
wrapper.  A wrapper records a span only when the call crosses from one
layer into another, so recursion inside a layer makes no spans.  A
layer's self time is its spans' time minus the time of their child
spans.  The hottest leaves, jet constructors that call no other layer,
are counted and not spanned: ``Jet2`` construction, ``jets.elementary``,
``jets.constant``, ``jets.seed``, ``jets.t_derivative`` and
``jets.truncate``.  Their time, like that of ``Jet2`` arithmetic, stays
with the calling layer.
Spans are kept in memory and written out by :meth:`Tracer.write`.
"""

from __future__ import annotations

import importlib
import inspect
import re
import sys
import time
from collections import Counter

LAYERS = ("cli", "equivalence", "transform", "invariants2", "invariants1",
          "einstein", "metrics", "expr", "jets")
LEAVES = {"jets.elementary", "jets.constant", "jets.seed",
          "jets.t_derivative", "jets.truncate"}
# functions whose inclusive time (outermost call of a recursion) is kept
TIMED = {"expr.eval_jet", "expr.parse", "transform.apply_to_metric",
         "jets.finite_difference_jet", "einstein.christoffel4",
         "einstein.riemann4", "invariants2.second_invariants_from_jets",
         "metrics.point_jets", "equivalence.build_signature",
         "equivalence.compare_metrics", "transform.pushforward_jets"}
_SAMPLES = re.compile(r"only (\d+) generic samples")


class Tracer:
    """Installs the wrappers; collects spans, counts and timers, timed by
    ``clock``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []             # (op, parent span, name, start, end)
        self.op = -1
        self.calls = Counter()      # every call
        self.entries = Counter()    # calls entering the layer from another
        self.failed = Counter()
        self.inclusive = Counter()
        self.self_time = Counter()
        self.depth = Counter()
        self.samples_kept = 0
        self.points_tried = 0
        self._stack = [["bench", 0.0, -1]]
        self._restore = []

    # -- installation ------------------------------------------------

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "g2inv" or name.startswith("g2inv.")]
        for layer in LAYERS:
            mod = importlib.import_module(f"g2inv.{layer}")
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(layer, f"{layer}.{name}", fn)
                for owner in modules:
                    for attr, value in list(vars(owner).items()):
                        if value is fn:
                            self._restore.append((owner, attr, fn))
                            setattr(owner, attr, wrapper)
        jets = sys.modules["g2inv.jets"]
        metrics = sys.modules["g2inv.metrics"]
        self._count_init(jets.Jet2, "jets.jet2_created")
        self._count_init(metrics.PointJets, "points")

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _count_init(self, cls, key):
        original = cls.__init__
        calls = self.calls

        def init(obj, *args, **kwargs):
            calls[key] += 1
            original(obj, *args, **kwargs)

        self._restore.append((cls, "__init__", original))
        cls.__init__ = init

    def _wrap(self, layer, key, fn):
        calls, entries, stack = self.calls, self.entries, self._stack
        if key in LEAVES:
            def leaf(*args, **kwargs):
                calls[key] += 1
                if stack[-1][0] != layer:
                    entries[key] += 1
                return fn(*args, **kwargs)
            return leaf
        if key == "equivalence.build_signature":
            fn = self._yield_probe(fn)
        timed = key in TIMED
        newton = key == "metrics.point_jets"
        spans, depth, clock = self.spans, self.depth, self.clock

        def wrapper(*args, **kwargs):
            calls[key] += 1
            if newton and depth["equivalence.compare_metrics"] \
                    and not depth["equivalence.build_signature"]:
                calls["equivalence.newton_evals"] += 1
            crossing = stack[-1][0] != layer
            if not (crossing or timed):
                return fn(*args, **kwargs)
            if crossing:
                entries[key] += 1
                frame = [layer, 0.0, len(spans)]
                spans.append(None)
                stack.append(frame)
            if timed:
                depth[key] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.failed[key] += 1
                raise
            finally:
                end = clock()
                if timed:
                    depth[key] -= 1
                    if not depth[key]:
                        self.inclusive[key] += end - start
                if crossing:
                    stack.pop()
                    parent = stack[-1]
                    self.self_time[layer] += end - start - frame[1]
                    parent[1] += end - start
                    spans[frame[2]] = (self.op, parent[2], key, start, end)

        return wrapper

    def _yield_probe(self, fn):
        """build_signature: count grid points tried and samples kept."""
        bind = inspect.signature(fn).bind

        def probe(*args, **kwargs):
            n = bind(*args, **kwargs).arguments.get("n", 12)
            self.points_tried += n * n
            try:
                sig = fn(*args, **kwargs)
            except Exception as err:
                found = _SAMPLES.search(str(err))
                self.samples_kept += int(found.group(1)) if found else 0
                raise
            self.samples_kept += len(sig.samples)
            return sig

        return probe

    # -- results -----------------------------------------------------

    def metrics(self):
        """Per-layer metrics, by the names listed in BENCHMARK.json."""
        points = max(self.calls["points"], 1)
        out = {f"{layer}.self_s": (self.self_time[layer], "s")
               for layer in LAYERS}
        for key in ("expr.eval_jet", "expr.eval_scalar", "jets.elementary",
                    "metrics.point_jets"):
            out[f"{key}.calls"] = (self.entries[key], "count")
        for key in sorted(TIMED - {"equivalence.compare_metrics"}):
            out[f"{key}.s"] = (self.inclusive[key], "s")
        for key in ("einstein.riemann4", "einstein.four_metric",
                    "invariants1.first_invariant_jets", "invariants1.frame"):
            out[f"{key}.per_point"] = (self.calls[key] / points, "1/point")
        out["metrics.point_jets.failed"] = (
            self.failed["metrics.point_jets"], "count")
        out["jets.jet2_created"] = (self.calls["jets.jet2_created"], "count")
        out["equivalence.newton_evals"] = (
            self.calls["equivalence.newton_evals"], "count")
        out["equivalence.signature_yield"] = (
            self.samples_kept / self.points_tried if self.points_tried
            else 0.0, "1")
        out["points"] = (self.calls["points"], "count")
        return out

    def write(self, path):
        """Write the spans as CSV: op, span, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,span,parent,name,start_s,end_s\n")
            for i, (op, parent, key, start, end) in enumerate(self.spans):
                fh.write(f"{op},{i},{parent},{key},{start!r},{end!r}\n")
