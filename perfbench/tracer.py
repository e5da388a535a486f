"""Span recorder for the benchmark's traced runs (stdlib only, no entkit edits).

`install` wraps, from the outside, every public function of the entkit layers
(and every copy another module imported by name, e.g. `measures.psd_sqrt`),
the `DensityMatrix`/`PureState` constructors, and the `numpy.linalg`
decompositions.  Each call becomes a span (name, start, end, parent) kept in
flat arrays, because one FEF pass makes ~500k of them.  `layer_metrics` turns
the spans into per-layer counts and self times; `write_jsonl` dumps them.
"""
from __future__ import annotations

import functools
import inspect
import time
from array import array

LAYERS = ("cli", "qcore", "statezoo", "measures", "channel", "cloning", "protocols")
LINALG = ("eigh", "eigvalsh", "svd", "det")
CONSTRUCTED = ("DensityMatrix", "PureState")


class Tracer:
    """Spans in memory: parallel arrays indexed by span id."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self._patches: list[tuple] = []

    def _nid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin(self, name: str) -> int:
        sid = len(self.name_id)
        self.name_id.append(self._nid(name))
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def finish(self, sid: int):
        self.end[sid] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn, name: str):
        nid = self._nid(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self.stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return traced

    def add_jsonl(self, path, root_parent: int):
        """Merge the spans another process wrote with `write_jsonl`; its roots
        hang under root_parent."""
        import json

        offset = len(self.name_id)
        with open(path) as fh:
            fh.readline()                                   # the header
            for line in fh:
                span = json.loads(line)
                self.name_id.append(self._nid(span["name"]))
                self.parent.append(root_parent if span["parent"] < 0 else span["parent"] + offset)
                self.start.append(span["start"])
                self.end.append(span["end"])

    # -- installing and removing the wrappers --------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        import importlib

        import numpy as np

        import entkit

        modules = {layer: importlib.import_module(f"entkit.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self.wrap(obj, f"{layer}.{name}")
        for mod in (entkit, *modules.values()):
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, name, wrapped[obj])
        qcore = modules["qcore"]
        for cls_name in CONSTRUCTED:
            cls = getattr(qcore, cls_name)
            self._patch(cls, "__init__", self.wrap(cls.__init__, f"qcore.{cls_name}"))
        for name in LINALG:
            self._patch(np.linalg, name, self.wrap(getattr(np.linalg, name), f"linalg.{name}"))

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # -- output ---------------------------------------------------------------

    def write_jsonl(self, path, header: dict):
        """A header line, then one line per span: id, parent (-1 for roots), name, start, end."""
        import json

        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid in range(len(self.name_id)):
                fh.write(f'{{"id":{sid},"parent":{self.parent[sid]},'
                         f'"name":"{self.names[self.name_id[sid]]}",'
                         f'"start":{self.start[sid]:.9f},"end":{self.end[sid]:.9f}}}\n')


def layer_metrics(tracer: Tracer, passes: int, mc_samples: int) -> dict:
    """Per-layer counts and self times per pass, from the recorded spans.

    Self time is a span's duration minus the time its direct children cover.
    """
    n = len(tracer.name_id)
    child_time = [0.0] * n
    for sid in range(n):
        par = tracer.parent[sid]
        if par >= 0:
            child_time[par] += tracer.end[sid] - tracer.start[sid]
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    by_name: dict[str, int] = {}
    cdc_in_mc = 0
    names = tracer.names
    mc_nid = tracer._name_ids.get("protocols.monte_carlo_cdc", -2)
    cdc_nid = tracer._name_ids.get("protocols.cdc_run", -2)
    for sid in range(n):
        nid = tracer.name_id[sid]
        name = names[nid]
        layer = name.split(".", 1)[0]
        calls[layer] = calls.get(layer, 0) + 1
        own = tracer.end[sid] - tracer.start[sid] - child_time[sid]
        self_s[layer] = self_s.get(layer, 0.0) + own
        by_name[name] = by_name.get(name, 0) + 1
        par = tracer.parent[sid]
        if nid == cdc_nid and par >= 0 and tracer.name_id[par] == mc_nid:
            cdc_in_mc += 1

    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls_per_pass"] = calls.get(layer, 0) / passes
        out[f"{layer}.self_s_per_pass"] = self_s.get(layer, 0.0) / passes
    out["qcore.validations_per_pass"] = sum(
        by_name.get(f"qcore.{c}", 0) for c in CONSTRUCTED) / passes
    out["linalg.decompositions_per_pass"] = calls.get("linalg", 0) / passes
    out["linalg.self_s_per_pass"] = self_s.get("linalg", 0.0) / passes
    out["measures.fef_calls_per_pass"] = by_name.get("measures.singlet_fraction", 0) / passes
    out["protocols.cdc_runs_per_sample"] = cdc_in_mc / mc_samples if mc_samples else 0.0
    return out
