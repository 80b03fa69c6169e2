"""Outside-in tracing of ``braidhom``: spans recorded by rebinding names.

``Tracer.install`` replaces every function and method defined in the layer
modules with a wrapper that records one span per call.  It rebinds the
module attribute, every other ``braidhom`` module attribute bound to the
same function (names re-imported with ``from .x import y``), and class
attributes.  ``Tracer.remove`` puts every original object back.  No file
of the library changes.

Left unwrapped:

* ``poly``, ``laurent`` and ``braid``: value types whose arithmetic is
  called hundreds of thousands of times per pass; their time counts as
  self time of the layer that calls them;
* properties and dunder methods other than ``__init__``, for the same
  reason;
* generator functions, whose work runs in the consumer, not in the call.

A span is (name, start, end, parent span, operation id).  Spans live in
typed arrays while the run lasts and are written out when it ends.
"""

from __future__ import annotations

import gzip
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("linalg", "homology", "diffobj", "complexes", "bimodule", "mfact",
          "wallcross", "oracle", "conventions")


def _span_name(module: str, qualname: str) -> str:
    short = module.rsplit(".", 1)[-1]
    return f"{short}.{qualname.replace('__init__', 'init')}"


# Counters read from the arguments and result of one call, keyed by the
# span name they hang on.  They run after the span closes.

def _echelon_cells(c, args, _result):
    c["linalg.Echelon.cells"] += args[0].nrows * args[0].ncols


def _slice_empty(c, _args, result):
    if result is None or result.dim == 0:
        c["homology.slice_subquotient.empty"] += 1


def _eliminate_ranks(c, args, result):
    c["diffobj.eliminate.rank_in"] += args[0].rank
    c["diffobj.eliminate.rank_out"] += result[0].rank


def _tensor_rank(c, _args, result):
    c["complexes.tensor.rank_max"] = max(c["complexes.tensor.rank_max"],
                                         result.total_rank)


PROBES = {
    "linalg.Echelon.init": _echelon_cells,
    "homology.slice_subquotient": _slice_empty,
    "diffobj.DiffObject.eliminate": _eliminate_ranks,
    "complexes.tensor": _tensor_rank,
}
COUNTERS = ("linalg.Echelon.cells", "homology.slice_subquotient.empty",
            "diffobj.eliminate.rank_in", "diffobj.eliminate.rank_out",
            "complexes.tensor.rank_max")


class Tracer:
    """Span recorder for one process; install, run, remove, summarise."""

    def __init__(self):
        self.names: list = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_of = array("i")
        self.stack = [-1]
        self.op = -1
        self.counters = Counter()
        self._saved: list = []  # (owner, attribute, original raw value)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        probe = PROBES.get(name)
        names, starts, ends = self.name, self.start, self.end
        parents, op_of, stack = self.parent, self.op_of, self.stack
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            op_of.append(tracer.op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
            if probe is not None:
                probe(tracer.counters, args, result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap the layer modules of the imported braidhom package."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "braidhom" or n.startswith("braidhom.")]
        layer_mods = [m for m in modules
                      if m.__name__.rsplit(".", 1)[-1] in LAYERS]
        rebound = {}  # id(original function) -> wrapper
        for mod in layer_mods:
            for obj in list(vars(mod).values()):
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj)
                elif (inspect.isfunction(obj)
                      and obj.__module__ == mod.__name__
                      and not inspect.isgeneratorfunction(obj)):
                    rebound[id(obj)] = self._wrap(
                        _span_name(mod.__name__, obj.__qualname__), obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in rebound:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, rebound[id(obj)])

    def _wrap_class(self, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("__") and attr != "__init__":
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                fn = raw.__func__
            elif inspect.isfunction(raw):
                fn = raw
            else:
                continue
            if inspect.isgeneratorfunction(fn):
                continue
            w = self._wrap(_span_name(cls.__module__, fn.__qualname__), fn)
            self._saved.append((cls, attr, raw))
            setattr(cls, attr, type(raw)(w) if fn is not raw else w)

    def remove(self):
        """Put back every attribute install() replaced."""
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    # -- analysis ----------------------------------------------------------

    def summary(self, first: int, last: int, seconds=None) -> dict:
        """Per-name self seconds and calls, per-module self seconds and
        entries, over spans [first, last).  `seconds(t0, t1)` measures a
        span (default: its wall length)."""
        names, start, end, parent = self.names, self.start, self.end, \
            self.parent
        if seconds is None:
            def seconds(t0, t1):
                return t1 - t0
        length = {s: seconds(start[s], end[s]) for s in range(first, last)}
        child = {}
        for s in range(first, last):
            p = parent[s]
            if p >= first:
                child[p] = child.get(p, 0.0) + length[s]
        out: dict = {}

        def add(key, v):
            out[key] = out.get(key, 0) + v

        for s in range(first, last):
            name = names[self.name[s]]
            module = name.split(".", 1)[0]
            own = length[s] - child.get(s, 0.0)
            add(name + ".self_s", own)
            add(name + ".calls", 1)
            add(module + ".self_s", own)
            p = parent[s]
            if p < first or names[self.name[p]].split(".", 1)[0] != module:
                add(module + ".calls", 1)
        return out

    def metric_names(self) -> set:
        """Every name summary() can produce, called or not."""
        out = set(COUNTERS)
        for name in self.names:
            for key in (name, name.split(".", 1)[0]):
                out.update((key + ".self_s", key + ".calls"))
        return out

    def covered(self, first: int, last: int) -> dict:
        """Seconds covered by top-level spans, per operation id."""
        out: dict = {}
        for s in range(first, last):
            if self.parent[s] < first:
                op = self.op_of[s]
                out[op] = out.get(op, 0.0) + self.end[s] - self.start[s]
        return out

    def write(self, path, header: str):
        """All spans as gzip'd tab-separated rows, after a header line."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(f"# {header}\n")
            fh.write("span\tname\tstart\tend\tparent\top\n")
            names = self.names
            for s in range(len(self.start)):
                fh.write(f"{s}\t{names[self.name[s]]}\t{self.start[s]!r}\t"
                         f"{self.end[s]!r}\t{self.parent[s]}\t"
                         f"{self.op_of[s]}\n")
