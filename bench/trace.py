"""Stdlib span recorder for the traced run.

``Recorder.install`` replaces every public function of the layer modules
with a wrapper that records a span: name, start, end, parent span and video
id.  It also replaces the names a module imported from another layer (such
as ``classify.fit_gmm``), so calls made inside the program are seen too.
Calls of ``encoding`` functions and ``keypoints.match_reciprocal`` also
record their tracemalloc peak.  A few calls record counts taken from their
arguments and results, so ratios are measured where the work happens.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("media", "roi", "keypoints", "flowfields", "shape", "encoding", "classify")
GLUE = "bench.glue"
SETUP = "setup"           # video id of spans recorded while the corpus is built


def _peak_traced(name: str) -> bool:
    return name.startswith("encoding.") or name == "keypoints.match_reciprocal"


# counts taken at the call boundary: name -> f(args, result) -> {count: value}
COUNTERS = {
    "flowfields.lk_track": lambda a, r: {"points": len(a[2]),
                                         "tracked": sum(t.status == "tracked" for t in r)},
    "keypoints.detect_fast": lambda a, r: {"corners": len(r)},
    "keypoints.match_reciprocal": lambda a, r: {"queries": len(a[0]), "pairs": len(r)},
    "roi.extract_regions": lambda a, r: {"regions": len(r)},
    "encoding.fit_gmm": lambda a, r: {"points": len(a[0]), "tkn_bytes":
                                      8 * len(a[0]) * r.k * r.dim},
    "media.load_clip": lambda a, r: {"bytes": sum(f.data.nbytes for f in r.frames)},
}


class Recorder:
    """Spans kept in memory; ``active`` switches recording on and off."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, video]
        self.counts = defaultdict(lambda: defaultdict(float))
        self.peaks = defaultdict(float)   # name -> largest tracemalloc peak, bytes
        self.video = SETUP
        self.active = True
        self._stack = []
        self._undo = []

    def span(self, name):
        return _Span(self, name)

    def _wrap(self, name, fn):
        rec = self
        counter = COUNTERS.get(name)
        peak = _peak_traced(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            own_malloc = peak and not tracemalloc.is_tracing()
            if own_malloc:
                tracemalloc.start()
            with rec.span(name):
                result = fn(*args, **kwargs)
            if own_malloc:
                rec.peaks[name] = max(rec.peaks[name], tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            if counter is not None:
                for key, value in counter(args, result).items():
                    rec.counts[name][key] += value
            return result

        wrapper.__wrapped_by_recorder__ = True
        return wrapper

    def install(self):
        """Wrap every layer's public functions, wherever a layer module binds them."""
        modules = {m: importlib.import_module(f"trailblaze.{m}") for m in LAYERS}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or getattr(obj, "__wrapped_by_recorder__", False)):
                    continue
                layer = obj.__module__.rpartition(".")[2]
                if layer not in modules:
                    continue
                self._undo.append((mod, attr, obj))
                setattr(mod, attr, self._wrap(f"{layer}.{obj.__name__}", obj))

    def uninstall(self):
        for mod, attr, obj in reversed(self._undo):
            setattr(mod, attr, obj)
        self._undo.clear()

    def count(self, name, key, value):
        if self.active:
            self.counts[name][key] += value

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["name", "start", "end", "parent", "video"]
        path.write_text(json.dumps({"fields": fields, "spans": self.spans}))

    # -- summaries --------------------------------------------------------

    def calls(self, skip_setup=False):
        """name -> [calls, total seconds, self seconds] over the recorded spans."""
        child = defaultdict(float)
        for name, start, end, parent, video in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, parent, video) in enumerate(self.spans):
            if skip_setup and video == SETUP:
                continue
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        return out

    def layer_self_seconds(self):
        """Calls and self time per layer in the timed phase.

        A layer is the first dotted part of a span name; the glue is bench.glue.
        """
        out = defaultdict(lambda: [0, 0.0])
        for name, (n, _, self_s) in self.calls(skip_setup=True).items():
            layer = GLUE if name.startswith(GLUE) else name.partition(".")[0]
            out[layer][0] += n
            out[layer][1] += self_s
        return out


class _Span:
    __slots__ = ("rec", "name", "index")

    def __init__(self, rec, name):
        self.rec, self.name = rec, name

    def __enter__(self):
        rec = self.rec
        if not rec.active:
            self.index = None
            return self
        parent = rec._stack[-1] if rec._stack else None
        self.index = len(rec.spans)
        rec.spans.append([self.name, time.perf_counter(), None, parent, rec.video])
        rec._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        if self.index is not None:
            self.rec.spans[self.index][2] = time.perf_counter()
            self.rec._stack.pop()
        return False
