"""Span tracer that instruments spiralvis from outside its source tree.

`Tracer.install()` replaces selected module-level functions with timing
wrappers. Every module attribute that holds the original function object is
rebound, because several modules import functions from others by name
(`visibility`, `delone` and `cli` all hold their own reference to
`spirals.iter_point_chunks`). `uninstall()` puts every original back.

Spans (name, start, end, parent, query id) stay in memory until the run ends.
Each thread has its own span stack; work handed to `parallel_map` workers is
parented to the `parallel_map` span that submitted it. A span's self time is
its duration minus the union of its children's intervals.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict

import numpy as np

# Spans whose results are visibility verdicts: points scanned below them count
# toward visibility.points_per_verdict.
# Internal counters behind visibility.points_per_verdict and resolved_frac.
VERDICTS, RESOLVED, VERDICT_POINTS = "_verdicts", "_resolved", "_verdict_points"
VERDICT_SPANS = {
    "visibility.check_orchard",
    "visibility.check_uniform_orchard",
    "visibility.check_dense_forest",
    "visibility.visible_point_test",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "query", "thread")

    def __init__(self, name, parent, query):
        self.name = name
        self.parent = parent
        self.query = query
        self.thread = threading.get_ident()
        self.start = self.end = 0.0


def _arg(args, kwargs, i, name):
    return kwargs[name] if name in kwargs else args[i]


def _verdicts(tracer, key, args, kwargs, result):
    if isinstance(result, list):  # visible_point_test: one verdict per ray
        tracer.add(VERDICTS, len(result))
        tracer.add(RESOLVED, sum(1 for v in result if not v.visible_at_scale))
    else:  # a CheckReport
        tracer.add(VERDICTS, result.total_checks)
        tracer.add(RESOLVED, result.witness_count)


def _count(suffix, fn):
    """Counter adding fn(args, kwargs, result) to '<span name>.<suffix>'."""
    def counter(tracer, key, args, kwargs, result):
        tracer.add(f"{key}.{suffix}", fn(args, kwargs, result))
    return counter


CALLS = _count("calls", lambda a, k, r: 1)


def _batch_points(tracer, key, args, kwargs, result):
    # one points counter across the per-kind direction_batch spans
    tracer.add("sequences.direction_batch.points", int(np.size(_arg(args, kwargs, 1, "ns"))))


def _trials(tracer, key, args, kwargs, result):
    # each _passes call is one trial of estimate_min_visibility's search
    tracer.add("visibility.estimate_min_visibility.trials", 1)


def _probe_pairs(args, kwargs, result):
    coords = np.asarray(_arg(args, kwargs, 0, "coords"))
    probes = sys.modules["spiralvis.delone"]._probe_grid(
        _arg(args, kwargs, 1, "T"), _arg(args, kwargs, 2, "resolution"),
        coords.shape[1])
    return len(probes) * len(coords)


# (module, function, span name, counter). The span name is a string, a
# callable of the call's arguments, or None to count without a span.
LAYERS = [
    ("sequences", "direction_batch",
     lambda spec, *a, **k: f"sequences.direction_batch.{spec.kind}",
     _batch_points),
    ("spirals", "radius_of_index", "spirals.radius_of_index", None),
    ("spirals", "point_batch", "spirals.point_batch", None),
    ("spirals", "annulus_index_range", "spirals.annulus_index_range", CALLS),
    ("spirals", "count_in_ball", "spirals.count_in_ball", CALLS),
    ("spirals", "write_points_binary", "spirals.write_points_binary",
     _count("bytes", lambda a, k, r: 24 + np.asarray(_arg(a, k, 4, "coords")).nbytes)),
    ("spirals", "read_points_binary", "spirals.read_points_binary",
     _count("bytes", lambda a, k, r: 24 + r[3].nbytes)),
    ("sphere", "build_direction_net",
     lambda d, *a, **k: "sphere.build_direction_net." + ("d1" if d == 1 else "d2"),
     _count("count", lambda a, k, r: len(r))),
    ("geometry", "radial_hit_halfwidth", "geometry.radial_hit_halfwidth",
     _count("points", lambda a, k, r: int(np.size(r)))),
    ("geometry", "segment_distances", "geometry.segment_distances",
     _count("points", lambda a, k, r: len(r[0]))),
    ("visibility", "_mark_windows", "visibility._mark_windows",
     _count("points", lambda a, k, r: len(_arg(a, k, 2, "angles")))),
    ("visibility", "_exact_cell_witnesses", "visibility._exact_cell_witnesses", None),
    ("visibility", "_directional_window_check",
     "visibility._directional_window_check", None),
    ("visibility", "_line_min_distance", "visibility._line_min_distance", CALLS),
    ("visibility", "check_orchard", "visibility.check_orchard", _verdicts),
    ("visibility", "check_uniform_orchard", "visibility.check_uniform_orchard",
     _verdicts),
    ("visibility", "check_dense_forest", "visibility.check_dense_forest", _verdicts),
    ("visibility", "visible_point_test", "visibility.visible_point_test", _verdicts),
    ("visibility", "estimate_min_visibility", "visibility.estimate_min_visibility",
     None),
    ("visibility", "_passes", None, _trials),
    ("covering", "covering_radius", "covering.covering_radius", CALLS),
    ("delone", "covering_estimate", "delone.covering_estimate",
     _count("pairs", _probe_pairs)),
    ("delone", "min_pairwise_distance", "delone.min_pairwise_distance", None),
    ("delone", "badness", "delone.badness", None),
    ("reports", "dump_json", "reports.dump_json",
     _count("bytes", lambda a, k, r: len(r))),
    ("cli", "main", "cli.main", None),
]

GENERATORS = [("spirals", "iter_point_chunks", "spirals.iter_point_chunks")]
PARALLEL = [("_par", "parallel_map", "par.parallel_map")]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.query = None
        self._local = threading.local()
        self._lock = threading.Lock()  # parallel_map workers count too
        self._restore: list = []

    # -- span stack ---------------------------------------------------------

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def open(self, name: str) -> Span:
        st = self._stack()
        span = Span(name, st[-1] if st else None, self.query)
        st.append(span)
        span.start = time.perf_counter()
        return span

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] += value

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def _under_verdict(self, span: Span) -> bool:
        p = span.parent
        while p is not None:
            if p.name in VERDICT_SPANS:
                return True
            p = p.parent
        return False

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, name, counter):
        tracer = self

        def traced(*args, **kwargs):
            key = name(*args, **kwargs) if callable(name) else name
            if key is None:
                result = fn(*args, **kwargs)
            else:
                span = tracer.open(key)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(span)
            if counter is not None:
                counter(tracer, key, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            try:
                while True:  # one span per next(), so chunk work nests under it
                    span = tracer.open(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(span)
                    tracer.add(name + ".chunks", 1)
                    tracer.add(name + ".points", len(item[0]))
                    if tracer._under_verdict(span):
                        tracer.add(VERDICT_POINTS, len(item[0]))
                    yield item
            finally:
                gen.close()

        traced.__wrapped__ = fn
        return traced

    def _wrap_parallel(self, fn, name):
        tracer = self

        def traced(work, items, *args, **kwargs):
            items = list(items)
            span = tracer.open(name)

            def adopted(item):
                st = tracer._stack()
                if st and st[-1] is span:  # serial fallback on this thread
                    return work(item)
                st.append(span)  # a worker thread: parent its spans to ours
                try:
                    return work(item)
                finally:
                    st.pop()

            try:
                return fn(adopted, items, *args, **kwargs)
            finally:
                tracer.close(span)
                tracer.add(name + ".items", len(items))

        traced.__wrapped__ = fn
        return traced

    # -- install / uninstall ------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "spiralvis" and not modname.startswith("spiralvis."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, original))

    def install(self) -> "Tracer":
        def original(modname, attr):
            return getattr(sys.modules[f"spiralvis.{modname}"], attr)

        for modname, attr, name, counter in LAYERS:
            fn = original(modname, attr)
            self._rebind(fn, self._wrap(fn, name, counter))
        for modname, attr, name in GENERATORS:
            fn = original(modname, attr)
            self._rebind(fn, self._wrap_generator(fn, name))
        for modname, attr, name in PARALLEL:
            fn = original(modname, attr)
            self._rebind(fn, self._wrap_parallel(fn, name))
        return self

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[id(s.parent)].append((s.start, s.end))
        totals: dict[str, float] = defaultdict(float)
        for s in self.spans:
            covered, reach = 0.0, s.start
            for lo, hi in sorted(children.get(id(s), ())):
                lo, hi = max(lo, reach, s.start), min(hi, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            totals[s.name] += (s.end - s.start) - covered
        return totals

    def records(self):
        """Spans as plain tuples: (id, name, start, end, parent id, query, thread)."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        for i, s in enumerate(self.spans):
            yield (i, s.name, s.start, s.end,
                   None if s.parent is None else ids.get(id(s.parent)),
                   s.query, s.thread)
