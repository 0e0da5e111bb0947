"""Span tracer that wraps toricmld's public functions from outside.

Every public module-level function of a layer module is replaced by a timing
wrapper at every place the package binds it: ``from .germ import mld_face``
copies the function into ``survey``, ``adjunction`` and ``cli``, so patching
only ``germ`` would miss those calls.  ``uninstall`` puts every original back.

Each call becomes a span (function, start, end, parent span, germ id).  Spans
are kept in compact arrays in memory and written out by ``write_spans`` when
the run ends.  Self time is a span's duration minus the time its child spans
cover; it is accumulated on the fly, so the summary needs no second pass.
"""
from __future__ import annotations

import gzip
import importlib
import inspect
import pkgutil
import sys
import time
from array import array
from functools import wraps

PACKAGE = "toricmld"
LAYERS = ("lattice", "germ", "adjunction", "newton", "linprog", "flat", "survey")


def public_functions() -> dict[str, object]:
    """``{"<module>.<fn>": function}`` for the public functions each layer defines."""
    out = {}
    for layer in LAYERS:
        mod = sys.modules[f"{PACKAGE}.{layer}"]
        for name, obj in vars(mod).items():
            if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                out[f"{layer}.{name}"] = obj
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        # one entry per span, filled at entry; the end time is written at exit
        self.fn = array("i")
        self.parent = array("i")
        self.germ = array("i")
        self.start = array("d")
        self.end = array("d")
        self.germ_id = -1  # set by the workload before each germ
        # span clock; a workload sets one that stops while it runs its own
        # calibration code, so that code never shows in any span
        self.clock = time.perf_counter
        self._stack: list[list] = []  # [span index, child seconds] per open call
        self._patched: list[tuple[object, str, object]] = []
        # extra per-call counts, recorded where the work happens
        self.mld_face_pairs: set = set()
        self.hilbert_sizes: dict = {}

    # -- install / restore ----------------------------------------------------

    def install(self) -> None:
        # a module imported after this point would bind the wrappers and keep
        # them after ``uninstall``, so import them all now (``__main__`` runs
        # the command line on import)
        package = importlib.import_module(PACKAGE)
        for info in pkgutil.iter_modules(package.__path__):
            if info.name != "__main__":
                importlib.import_module(f"{PACKAGE}.{info.name}")
        wrapped = {}
        for qualname, fn in public_functions().items():
            wrapped[id(fn)] = (fn, self._wrap(qualname, fn))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- the wrapper ----------------------------------------------------------

    def _wrap(self, qualname: str, fn):
        fid = len(self.names)
        self.names.append(qualname)
        self.calls.append(0)
        self.self_s.append(0.0)
        stack = self._stack
        fns, parents, germs, starts, ends = self.fn, self.parent, self.germ, self.start, self.end
        calls, self_s = self.calls, self.self_s
        observe = {
            "germ.mld_face": self._observe_mld_face,
            "newton.dual_hilbert_basis": self._observe_hilbert,
        }.get(qualname)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(starts)
            fns.append(fid)
            parents.append(stack[-1][0] if stack else -1)
            germs.append(self.germ_id)
            ends.append(0.0)
            frame = [span, 0.0]
            stack.append(frame)
            t0 = self.clock()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = self.clock()
                stack.pop()
                ends[span] = t1
                dur = t1 - t0
                calls[fid] += 1
                self_s[fid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def _observe_mld_face(self, args, kwargs, result) -> None:
        germ = args[0] if args else kwargs["germ"]
        self.mld_face_pairs.add((germ.lattice.basis, germ.boundary, result.face.support))

    def _observe_hilbert(self, args, kwargs, result) -> None:
        germ = args[0] if args else kwargs["germ"]
        self.hilbert_sizes.setdefault(germ.lattice.basis, len(result))

    # -- results --------------------------------------------------------------

    def summary(self) -> dict[str, tuple[int, float]]:
        """``{"<module>.<fn>": (calls, self seconds)}`` for every wrapped function."""
        return {n: (c, s) for n, c, s in zip(self.names, self.calls, self.self_s)}

    def write_spans(self, path: str) -> int:
        """Write the spans as gzipped CSV, start times relative to the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", newline="\n", compresslevel=1) as fh:
            fh.write("span,name,start_s,end_s,parent,germ\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.fn[i]]},{self.start[i] - t0:.9f},"
                    f"{self.end[i] - t0:.9f},{self.parent[i]},{self.germ[i]}\n"
                )
        return len(self.start)
