"""In-memory span tracer that wraps the public functions of qrolab from outside.

`Tracer.install()` replaces every public function and every public method of
the qrolab modules named in LAYERS with a wrapper that records one span:
(span id, name, start, end, parent span id, unit id).  Module-level functions
are replaced at every name binding in every loaded qrolab module, because
``from .linalg import apply_on_axes`` copies the function into the importing
module's namespace and a patch of the defining module alone would miss those
calls.  Methods are replaced on the class, which every caller reaches.

Spans stay in typed arrays until the run ends; `span_summary` turns them
into the call counts and self times that layers.py reports.  Nothing under `src/`
is modified on disk.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("linalg", "engine", "oracle", "relations", "simulator", "sparse",
          "circuits", "bounds", "properties", "sigma", "fokem", "branching",
          "experiments")

# Foreign callables that a qrolab module reaches through a module attribute.
# They record no span, only how often they raised, so that the power-iteration
# fallback in spectral_norm_linop shows while ARPACK's own time stays in the
# self time of the qrolab span that called it.
FOREIGN = {"scipy.sparse.linalg.eigsh": ("scipy.sparse.linalg", "eigsh")}


def _public_callables(module):
    """(qualified name, owner, attribute, function) for each public callable."""
    prefix = module.__name__.rsplit(".", 1)[-1]
    out = []
    for attr, obj in sorted(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            out.append((f"{prefix}.{attr}", module, attr, obj))
        elif inspect.isclass(obj):
            for m_attr, m_obj in sorted(vars(obj).items()):
                if m_attr.startswith("_") or not inspect.isfunction(m_obj):
                    continue  # properties, dunders, static/class methods
                out.append((f"{prefix}.{attr}.{m_attr}", obj, m_attr, m_obj))
    return out


class Tracer:
    """Records spans of wrapped calls; one instance per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.sid = array("q")
        self.nid = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.parent = array("q")
        self.unit = array("i")
        self.raised: dict[str, int] = {}
        self.counts = None  # hook-side tallies, see layers.install_counters
        self.unit_id = -1
        self._next = 0
        self._stack: list[int] = []
        self._hooks: dict[str, tuple] = {}
        self.wrapped: dict[str, tuple] = {}  # name -> (original, wrapper)

    # -- recording -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._next
            tracer._next = sid + 1
            parent = stack[-1] if stack else -1
            hook = tracer._hooks.get(name)
            token = hook[0](args, kwargs) if hook else None
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.raised[name] = tracer.raised.get(name, 0) + 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                tracer.sid.append(sid)
                tracer.nid.append(nid)
                tracer.t0.append(t0)
                tracer.t1.append(t1)
                tracer.parent.append(parent)
                tracer.unit.append(tracer.unit_id)
            if hook:
                hook[1](token, args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def count_raises(self, name: str, fn):
        """A wrapper that records no span and only counts exceptions in raised."""
        raised = self.raised

        def counted(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[name] = raised.get(name, 0) + 1
                raise

        return functools.update_wrapper(counted, fn)

    def hook(self, name: str, before, after) -> None:
        """before(args, kwargs) -> token runs before the call, after(token,
        args, kwargs, result) after it.  Both run outside this span, so their
        cost lands in the caller's self time, and only in traced runs."""
        self._hooks[name] = (before, after)

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every public qrolab callable at every binding site."""
        modules = [importlib.import_module(f"qrolab.{m}") for m in LAYERS]
        originals: dict[int, object] = {}
        for module in modules:
            for name, owner, attr, fn in _public_callables(module):
                wrapper = self.wrap(name, fn)
                self.wrapped[name] = (fn, wrapper)
                if inspect.isclass(owner):
                    setattr(owner, attr, wrapper)
                else:
                    originals[id(fn)] = wrapper
        for name, (mod_name, attr) in FOREIGN.items():
            fn = getattr(importlib.import_module(mod_name), attr)
            wrapper = self.count_raises(name, fn)
            self.wrapped[name] = (fn, wrapper)
            originals[id(fn)] = wrapper
        for mod in self._qrolab_namespaces():
            for attr, value in list(vars(mod).items()):
                if id(value) in originals:
                    setattr(mod, attr, originals[id(value)])

    @staticmethod
    def _qrolab_namespaces():
        import scipy.sparse.linalg as spla

        mods = [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == "qrolab" or k.startswith("qrolab."))]
        return mods + [spla]

    def unpatched_bindings(self) -> list[str]:
        """Names of bindings that still point at an original function."""
        originals = {id(fn): name for name, (fn, _) in self.wrapped.items()}
        missed = []
        for mod in self._qrolab_namespaces():
            for attr, value in vars(mod).items():
                if id(value) in originals:
                    missed.append(f"{mod.__name__}.{attr}")
                elif inspect.isclass(value) and value.__module__.startswith("qrolab"):
                    for m_attr, m_obj in vars(value).items():
                        if id(m_obj) in originals:
                            missed.append(f"{mod.__name__}.{attr}.{m_attr}")
        return sorted(set(missed))

    # -- output ----------------------------------------------------------------

    def arrays(self) -> dict:
        order = np.argsort(np.frombuffer(self.sid, dtype=np.int64), kind="stable")
        return {
            "span_id": np.frombuffer(self.sid, dtype=np.int64)[order],
            "name_id": np.frombuffer(self.nid, dtype=np.int32)[order],
            "start": np.frombuffer(self.t0, dtype=np.float64)[order],
            "end": np.frombuffer(self.t1, dtype=np.float64)[order],
            "parent": np.frombuffer(self.parent, dtype=np.int64)[order],
            "unit": np.frombuffer(self.unit, dtype=np.int32)[order],
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def span_summary(spans: dict, names: list[str]) -> dict[str, dict]:
    """calls, total_s and self_s per span name, over spans of timed units.

    Span ids are dense (0..N-1) because every started span is recorded, so
    a child's parent id indexes the parent's row directly.  Self time is the
    span's duration minus the durations of its direct children.
    """
    dur = spans["end"] - spans["start"]
    child = np.zeros(len(dur))
    has_parent = spans["parent"] >= 0
    np.add.at(child, spans["parent"][has_parent], dur[has_parent])
    timed = spans["unit"] >= 0
    nid = spans["name_id"][timed]
    k = len(names)
    calls = np.bincount(nid, minlength=k)
    total = np.bincount(nid, weights=dur[timed], minlength=k)
    selfs = np.bincount(nid, weights=(dur - child)[timed], minlength=k)
    return {names[i]: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(selfs[i])} for i in range(k)}


def calls_inside(spans: dict, names: list[str], inner: str, outer: str, mask) -> int:
    """Number of masked `inner` spans that have an `outer` span as an ancestor."""
    if inner not in names or outer not in names:
        return 0
    inner_id, outer_id = names.index(inner), names.index(outer)
    name_id = spans["name_id"]
    parent = spans["parent"]
    inside = 0
    for sid in np.nonzero((name_id == inner_id) & mask)[0]:
        p = parent[sid]
        while p >= 0:
            if name_id[p] == outer_id:
                inside += 1
                break
            p = parent[p]
    return inside
