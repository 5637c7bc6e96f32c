"""Outside-in tracer for the papperitz layers.

It replaces each traced public function, in every papperitz module that
binds it, by a wrapper that records a span: name, start, end, parent span
and request.  A span's self time is its duration minus the durations of its
child spans, so the self times of one request add up to the duration of its
root span, cli.main.  Spans stay in memory and are written out once by
dump().  A traced name a later version of the program drops is listed in
`absent` instead of failing.
"""

import functools
import importlib
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "papperitz"

#: Traced public functions, by layer (the module that defines them).
LAYERS = {
    "cli": ("main",),
    "closed_form": ("derive_params", "eval_solution", "eval_basis"),
    "mobius": ("z_to_t", "t_to_z", "dt_dz", "d2t_dz2", "principal_power"),
    "hypergeom": ("gauss_2f1_jet", "gauss_2f1", "raw_series"),
    "oracle": ("integrate_ivp", "residual_z"),
}

#: Root span of every request.
ROOT = "cli.main"


class Tracer:
    def __init__(self):
        self.absent = []
        self.calls = Counter()
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        #: (layer, exception class) -> exceptions raised out of that layer
        self.errors = Counter()
        self.requests = 0
        self._codes = {}
        self._stack = []          # open spans: [span id, child time, start]
        self._next_id = 0
        self._counted = set()     # (layer, id(exception)) already counted
        self._patches = []
        self._span = {"id": array("q"), "parent": array("q"), "name": array("l"),
                      "request": array("q"), "start": array("d"), "end": array("d")}

    def install(self):
        """Wrap every traced function that exists, where callers look it up."""
        found = []
        for layer, names in LAYERS.items():
            try:
                module = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                self.absent.extend(f"{layer}.{name}" for name in names)
                continue
            for name in names:
                fn = getattr(module, name, None)
                if callable(fn):
                    found.append((layer, name, fn, module))
                else:
                    self.absent.append(f"{layer}.{name}")
        modules = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for layer, name, fn, module in found:
            label = _strategy_label(module) if name == "gauss_2f1" else None
            wrapped = self._wrap(layer, f"{layer}.{name}", fn, label)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, wrapped)
                        self._patches.append((m, attr, fn))

    def restore(self):
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def _wrap(self, layer, name, fn, label):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # the label is computed before the span opens, so its cost
            # lands in the parent's self time
            span = name if label is None else f"{name}.{label(*args, **kwargs)}"
            stack = self._stack
            if not stack:
                self.requests += 1
                self._counted.clear()
            self._next_id += 1
            frame = [self._next_id, 0.0, perf_counter()]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                key = (layer, id(exc))
                if key not in self._counted:
                    self._counted.add(key)
                    self.errors[layer, type(exc).__name__] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                self._close(span, frame, end)
        return traced

    def _close(self, span, frame, end):
        span_id, child, start = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        self.calls[span] += 1
        self.busy[span] += duration
        self.self_time[span] += duration - child
        rec = self._span
        rec["id"].append(span_id)
        rec["parent"].append(parent[0] if parent is not None else 0)
        rec["name"].append(self._codes.setdefault(span, len(self._codes)))
        rec["request"].append(self.requests)
        rec["start"].append(start)
        rec["end"].append(end)

    def span_count(self) -> int:
        return len(self._span["id"])

    def dump(self, path):
        """Write every span, and the table of span names, to an .npz file."""
        arrays = {key: np.frombuffer(buf, dtype=buf.typecode)
                  for key, buf in self._span.items()}
        np.savez(path, names=np.array(list(self._codes)), **arrays)


def _strategy_label(hypergeom):
    """Label for gauss_2f1 spans: the strategy the public select_strategy picks."""
    select = getattr(hypergeom, "select_strategy", None)

    def label(*args, **kwargs):
        if select is None:
            return "unclassified"
        try:
            return select(*args, **kwargs).value
        except Exception:
            return "unclassified"
    return label
