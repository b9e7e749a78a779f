"""Spans around the program's public functions, recorded from outside.

A traced run replaces each listed function, at every ``dkpscatter`` module
attribute that holds it, by a wrapper that appends one span (name, start,
end, parent) to flat in-memory arrays.  Nothing is written until the run
ends.  The untraced run never imports this module.

Calls made from inside numba-compiled code do not go through module
attributes, so with the JIT on those calls are not seen.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (span name, module, attribute) of every wrapped function
TARGETS = (
    ("scattering.scattering_coefficients", "dkpscatter.scattering", "scattering_coefficients"),
    ("scattering.classify_region", "dkpscatter.scattering", "classify_region"),
    ("scattering.kinematics", "dkpscatter.scattering", "kinematics"),
    ("scattering.connection_coefficients", "dkpscatter.scattering", "connection_coefficients"),
    ("_kernels.lgamma_c", "dkpscatter._kernels", "lgamma_c"),
    ("specfun.hyp2f1", "dkpscatter.specfun", "hyp2f1"),
    ("wavefield.wavefunction", "dkpscatter.wavefield", "wavefunction"),
    ("oracle.numeric_rt", "dkpscatter.oracle", "numeric_rt"),
    ("_kernels.dp54_scatter", "dkpscatter._kernels", "dp54_scatter"),
)
# classes whose construction is timed (through __init__)
CLASS_TARGETS = (
    ("algebra.SpinorTriple", "dkpscatter.algebra", "SpinorTriple"),
)


def hyp2f1_branch(z: float) -> str:
    """The dispatch branch hyp2f1 takes for real z < 1."""
    if z > -0.5:
        return "series"
    if z >= -1.0:
        return "pfaff"
    return "inversion"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def clear(self) -> None:
        for arr in (self.start, self.end, self.name_id, self.parent):
            del arr[:]
        self.counts.clear()

    def wrap(self, name: str, fn, on_call=None):
        nid = self._id(name)
        start, end, name_id, parent = self.start, self.end, self.name_id, self.parent
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()

        return traced

    def _count_branch(self, args, kwargs) -> None:
        z = args[3] if len(args) > 3 else kwargs["z"]
        self.counts["specfun.hyp2f1." + hyp2f1_branch(float(z))] += 1

    def install(self) -> list[str]:
        """Wrap every target at every dkpscatter module attribute that holds
        it; returns the span names of targets this version of the program
        does not have."""
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == "dkpscatter" or name.startswith("dkpscatter.")]
        missing = []
        for name, module, attr in TARGETS:
            fn = getattr(importlib.import_module(module), attr, None)
            if fn is None:
                missing.append(name)
                continue
            hook = self._count_branch if name == "specfun.hyp2f1" else None
            wrapper = self.wrap(name, fn, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
        for name, module, attr in CLASS_TARGETS:
            cls = getattr(importlib.import_module(module), attr, None)
            if cls is None:
                missing.append(name)
                continue
            cls.__init__ = self.wrap(name, cls.__init__)
        return missing

    def save(self, path: str) -> None:
        np.savez(path, start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 names=json.dumps(self.names), counts=json.dumps(self.counts))


def summarize(path: str) -> dict:
    """Per span name: calls, total inclusive seconds and total self seconds
    (duration minus the time covered by direct child spans)."""
    with np.load(path) as data:
        start, end = data["start"], data["end"]
        name_id, parent = data["name_id"], data["parent"]
        names = json.loads(str(data["names"]))
        counts = json.loads(str(data["counts"]))
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    own = dur - child
    n = len(names)
    calls = np.bincount(name_id, minlength=n)
    incl = np.bincount(name_id, weights=dur, minlength=n)
    self_s = np.bincount(name_id, weights=own, minlength=n)
    spans = {name: {"calls": int(calls[i]), "incl_s": float(incl[i]),
                    "self_s": float(self_s[i])} for i, name in enumerate(names)}
    return {"spans": spans, "counts": counts}
