"""Span tracer installed around the package's layers from outside.

``Tracer.install()`` replaces each function named in ``LAYERS`` with a
wrapper that records a span (id, parent id, request id, name, start, end)
in memory.  Nothing under ``src/`` changes: the wrapper is bound wherever
the package holds the function, because ``strata``, ``oracles``, ``search``
and ``cli`` import ``inertia``, ``char_poly`` and the classifiers by name.
Methods are replaced on their class.  ``uninstall()`` restores everything.

A layer's self time is its span's duration minus the durations of its
direct child spans.  Counts are kept twice: for the whole run, and as a
snapshot after the workload's fixed prefix of requests, which is the same
for every run of one seed.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

perf = time.perf_counter


def _on_cone(counts, name, args, result):
    counts[name + ".in_cone"] += result.label.value != "NotInC2"


def _on_descent(counts, name, args, result):
    counts[name + ".evals"] += int(result[2])
    counts[name + ".hits"] += bool(result[3])


def _on_batch(counts, name, args, result):
    counts[name + ".samples"] += int(args[1].shape[0])


def _on_search(counts, name, args, result):
    counts[name + ".witnesses"] += result.witness is not None
    counts[name + ".samples_used"] += result.samples_used
    counts[name + ".escalations"] += result.escalations


# (module, attribute path, hook on the result).  The per-entry helpers
# parse_rational and format_rational are left out: their spans would cost
# more than the work they time.  grow_subspace and GrowReport.to_json are
# left out because only the ungated ``grow`` workload calls them; there
# their time counts as the request's own (``op.self_s``), and the grow
# workload's properties give its trial and acceptance counts.
LAYERS = (
    ("hermitian_core", "inertia", None),
    ("hermitian_core", "char_poly", None),
    ("exactnum", "poly_gcd_tower", None),
    ("strata", "classify_d2", None),
    ("strata", "classify_cone", _on_cone),
    ("hermitian_core", "HermitianMatrix.from_json", None),
    ("hermitian_core", "Inertia.to_json", None),
    ("search", "SearchReport.to_json", None),
    ("search", "random_subspace", None),
    ("search", "SubspaceBasis.element", None),
    ("search", "SubspaceBasis.float_image", None),
    ("kernels", "coordinate_descent", _on_descent),
    ("kernels", "batch_stats", _on_batch),
    ("search", "run_search", _on_search),
)
ROOT = "op"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []  # [span id, name, start, child time]
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()  # "<name>.calls" and the hooks' counters
        self.prefix_counts: dict = {}
        self.request = -1
        self._next_id = 0
        self._patches: list = []

    # -- spans -------------------------------------------------------------
    def enter(self, name: str):
        self._next_id += 1
        self.stack.append([self._next_id, name, 0.0, 0.0])
        self.stack[-1][2] = perf()

    def exit(self):
        end = perf()
        sid, name, start, child = self.stack.pop()
        dur = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += dur
        self.self_s[name] += dur - child
        self.counts[name + ".calls"] += 1
        self.spans.append((sid, parent[0] if parent else 0, self.request, name, start, end))

    def wrap(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if hook is not None:
                hook(tracer.counts, name, args, result)
            return result

        return traced

    def snapshot_prefix(self):
        self.prefix_counts = dict(self.counts)

    # -- installation ------------------------------------------------------
    def install(self):
        import minertia

        for mod_name, path, hook in LAYERS:
            module = sys.modules[f"minertia.{mod_name}"]
            name = f"{mod_name}.{path}"
            if "." in path:
                cls_name, attr = path.split(".")
                self._patch_method(getattr(module, cls_name), attr, name, hook)
            else:
                self._patch_function(getattr(module, path), name, hook, minertia)

    def _patch_function(self, fn, name, hook, package):
        wrapped = self.wrap(name, fn, hook)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package.__name__ or mod_name.startswith(package.__name__ + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)
                    self._patches.append((module, attr, fn))

    def _patch_method(self, cls, attr, name, hook):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(name, raw.__func__, hook))
        else:
            new = self.wrap(name, raw, hook)
        setattr(cls, attr, new)
        self._patches.append((cls, attr, raw))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output --------------------------------------------------------------
    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, request, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "request": request,
                                     "name": name, "start": start, "end": end}))
                fh.write("\n")


def span_overhead_s(n: int = 20000) -> float:
    """Time one empty span adds, measured on a wrapped no-op."""

    def noop():
        return None

    t = Tracer()
    traced = t.wrap("noop", noop)
    t0 = perf()
    for _ in range(n):
        noop()
    bare = perf() - t0
    t0 = perf()
    for _ in range(n):
        traced()
    return max(perf() - t0 - bare, 0.0) / n


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, wall_s: float, ops: int, overhead_per_span: float) -> dict:
    """The per-layer metrics: counts from the fixed prefix, times and the
    per-call figures from the whole run."""
    pc, tc, st = Counter(tracer.prefix_counts), tracer.counts, tracer.self_s
    m = {ROOT + ".self_s": (st[ROOT], "s")}
    for mod_name, path, _ in LAYERS:
        n = f"{mod_name}.{path}"
        m[n + ".calls"] = (pc[n + ".calls"], "count")
        m[n + ".self_s"] = (st[n], "s")
    for n in ("hermitian_core.inertia", "hermitian_core.char_poly"):
        m[n + ".us_per_call"] = (1e6 * _ratio(st[n], tc[n + ".calls"]), "us")
    n = "search.random_subspace"
    m[n + ".ms_per_call"] = (1e3 * _ratio(st[n], tc[n + ".calls"]), "ms")
    n = "strata.classify_cone"
    m[n + ".in_cone_ratio"] = (_ratio(pc[n + ".in_cone"], pc[n + ".calls"]), "ratio")
    n = "kernels.coordinate_descent"
    m[n + ".evals"] = (pc[n + ".evals"], "count")
    m[n + ".us_per_eval"] = (1e6 * _ratio(st[n], tc[n + ".evals"]), "us")
    m[n + ".hit_ratio"] = (_ratio(pc[n + ".hits"], pc[n + ".calls"]), "ratio")
    n = "kernels.batch_stats"
    m[n + ".samples"] = (pc[n + ".samples"], "count")
    m[n + ".us_per_sample"] = (1e6 * _ratio(st[n], tc[n + ".samples"]), "us")
    n = "search.run_search"
    m[n + ".witness_ratio"] = (_ratio(pc[n + ".witnesses"], pc[n + ".calls"]), "ratio")
    m[n + ".samples_used"] = (pc[n + ".samples_used"], "count")
    m[n + ".escalations"] = (pc[n + ".escalations"], "count")
    overhead = overhead_per_span * len(tracer.spans)
    m["trace.ops_per_s"] = (ops / wall_s, "1/s")
    m["trace.overhead_frac"] = (overhead / wall_s, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
