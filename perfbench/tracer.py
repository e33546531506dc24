"""Span tracer wrapped around hubopt's public functions from outside the package.

`install` replaces every public module-level function and every public method
of the traced modules with a wrapper that records one span per call: its
name, start, end and the span that was open when it began (its parent). The
wrapper is bound on the defining module and on every hubopt module that
imported the function by name (`cli` does `from .traces import load_csv`), so
each caller resolves the traced version. Methods are patched on their class.

Spans live in flat in-memory arrays and are written once, by `write`, when the
stage process ends. Counters (rows parsed, bytes hashed, lattice cells, ...)
are recorded at the same boundaries. `summarize` turns a span file into
per-function calls, inclusive time and self time, where self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import array
import enum
import functools
import importlib
import inspect
import json
import os
import sys
import time

MODULES = ("hub", "traces", "nn", "pricing", "scheduler", "cli")
# private helpers worth a span of their own: the data path recomputed per stage
PRIVATE = {"cli": ("_update_manifest", "_hub_series", "_method_decisions")}


def _size(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _rows(result) -> int:
    # load_csv returns a record list, or (start_slot, arrays...) for series
    if isinstance(result, tuple):
        return len(result[1])
    return len(result)


def _dp_cells(a) -> int:
    spec = a["cfg"].battery
    return len(a["inputs"]) * (int(round((spec.soc_max_kwh - spec.soc_min_kwh) / a["resolution"])) + 1)


def _forward_batch(tr, states, dur_ns) -> None:
    shape = getattr(states, "shape", None)
    rows = 1 if shape is None or len(shape) <= 1 else shape[0]
    if rows == 1:
        tr.count("scheduler.PolicyBundle.forward.b1_calls", 1)
        tr.count("scheduler.PolicyBundle.forward.b1_ns", dur_ns)
    else:
        tr.count("scheduler.PolicyBundle.forward.bN_rows", rows)
        tr.count("scheduler.PolicyBundle.forward.bN_ns", dur_ns)


# span name -> fn(tracer, arguments by parameter name, result, duration ns),
# run after a call returns
COUNTERS = {
    "traces.load_csv": lambda tr, a, r, d: (
        tr.count("traces.load_csv.rows", _rows(r)),
        tr.count("traces.load_csv.bytes", _size(a["path"])),
    ),
    "traces.save_traces": lambda tr, a, r, d: tr.count(
        "traces.save_traces.bytes", sum(_size(p) for p in r)
    ),
    "nn.save_weights": lambda tr, a, r, d: tr.count("nn.save_weights.bytes", _size(a["path"])),
    "nn.load_weights": lambda tr, a, r, d: tr.count("nn.load_weights.bytes", _size(a["path"])),
    "nn.Adam.step": lambda tr, a, r, d: tr.count(
        "nn.Adam.step.elements", sum(p.size for p in a["params"])
    ),
    "cli._update_manifest": lambda tr, a, r, d: tr.count(
        "cli._update_manifest.bytes_hashed", sum(_size(p) for p in a["paths"])
    ),
    "scheduler.dp_oracle": lambda tr, a, r, d: tr.count("scheduler.dp_oracle.cells", _dp_cells(a)),
    "scheduler.rollout": lambda tr, a, r, d: tr.count("scheduler.rollout.slots", len(r[0])),
    "scheduler.policy_update": lambda tr, a, r, d: tr.count(
        "scheduler.policy_update.ok", int(bool(r))
    ),
    "scheduler.PolicyBundle.forward": lambda tr, a, r, d: _forward_batch(tr, a["states"], d),
}


class Tracer:
    """Spans as parallel arrays; index -1 in `parent` marks a root span."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_idx = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.counters: dict[str, float] = {}
        self._open = [-1]

    def count(self, key: str, n) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, name: str, fn):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter is not None else None
        clock = time.perf_counter_ns
        open_spans = self._open
        name_idx, parent, start, end = self.name_idx, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_idx.append(nid)
            parent.append(open_spans[-1])
            end.append(0)
            open_spans.append(idx)
            t0 = clock()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                end[idx] = t1
                open_spans.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs).arguments
                counter(self, bound, result, t1 - t0)
            return result

        return traced

    def write(self, path: str, extra: dict) -> None:
        import numpy as np

        meta = {"names": self.names, "counters": self.counters, **extra}
        np.savez(
            path,
            meta=np.array(json.dumps(meta)),
            name_idx=np.frombuffer(self.name_idx, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
        )


def install(tracer: Tracer) -> int:
    """Wrap the public API of every traced module; returns the number wrapped."""
    originals: dict[int, tuple[object, object]] = {}
    for short in MODULES:
        mod = importlib.import_module(f"hubopt.{short}")
        for attr, value in list(vars(mod).items()):
            public = not attr.startswith("_") or attr in PRIVATE.get(short, ())
            if public and inspect.isfunction(value) and value.__module__ == mod.__name__:
                wrapped = tracer.wrap(f"{short}.{attr}", value)
                originals[id(value)] = (value, wrapped)
                setattr(mod, attr, wrapped)
            elif (
                not attr.startswith("_")
                and inspect.isclass(value)
                and value.__module__ == mod.__name__
                and not issubclass(value, (BaseException, enum.Enum))
            ):
                _wrap_methods(tracer, f"{short}.{attr}", value)
    # rebind names that other modules imported with `from .x import name`
    for name, mod in list(sys.modules.items()):
        if name != "hubopt" and not name.startswith("hubopt."):
            continue
        for attr, value in list(vars(mod).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
    return len(tracer.names)


def _wrap_methods(tracer: Tracer, prefix: str, cls) -> None:
    for mname, member in list(vars(cls).items()):
        if mname.startswith("_"):
            continue
        if isinstance(member, (staticmethod, classmethod)):
            wrapped = tracer.wrap(f"{prefix}.{mname}", member.__func__)
            setattr(cls, mname, type(member)(wrapped))
        elif inspect.isfunction(member):
            setattr(cls, mname, tracer.wrap(f"{prefix}.{mname}", member))


def summarize(path: str) -> dict:
    """Per-name calls, inclusive and self seconds, plus counters, for one file."""
    import numpy as np

    with np.load(path) as data:
        meta = json.loads(str(data["meta"]))
        name_idx = data["name_idx"]
        parent = data["parent"]
        dur = (data["end"] - data["start"]).astype(np.float64) * 1e-9
    n_names = len(meta["names"])
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child
    calls = np.bincount(name_idx, minlength=n_names)
    inclusive = np.bincount(name_idx, weights=dur, minlength=n_names)
    own = np.bincount(name_idx, weights=self_time, minlength=n_names)
    functions = {
        name: {"calls": int(calls[i]), "incl_s": float(inclusive[i]), "self_s": float(own[i])}
        for i, name in enumerate(meta["names"])
        if calls[i]
    }
    return {
        "names": meta["names"],
        "functions": functions,
        "counters": meta["counters"],
        "import_s": meta.get("import_s", 0.0),
        "spans": int(len(dur)),
    }
