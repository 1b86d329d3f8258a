"""Outside-in tracing of steinlab for the benchmark.

Nothing here changes the program's files.  Two instruments patch its
public functions and methods for the length of a ``with`` block and put
the originals back afterwards:

* ``SpanTracer`` records a span (name, parent, start, end) for each call
  into the functions named in ``SPANS``.  Spans go on a per-thread stack
  and stay in memory; when the run ends, ``summary`` turns them into
  calls and self time (duration minus the time of child spans) and
  ``write`` saves them.
* ``OpCounter`` counts calls into ``Field.add/sub/neg/mul/inv`` by field
  kind and calls of ``AbMap``.  These are far too frequent for spans (a
  counter alone more than doubles the run time of a Galois-field job),
  so they get a pass of their own.

A module function is rebound everywhere it is reachable: in the module
that defines it and in every steinlab module that imported it with
``from .x import y``.  Methods are patched on their class.
"""

import gzip
import importlib
import json
import threading
import time
from array import array
from collections import Counter
from contextlib import contextmanager

MODULES = ("fields", "matrices", "rings", "emlpoly", "symgrp", "schurfun",
           "modtools", "functorcat", "steinberg", "cli")

# metric name -> (module, class or None, attribute)
SPANS = {
    "matrices.add_vector": ("matrices", "Subspace", "add_vector"),
    "matrices.span_from_spins": ("matrices", None, "span_from_spins"),
    "matrices.rref": ("matrices", "Matrix", "rref"),
    "matrices.mul": ("matrices", "Matrix", "__mul__"),
    "matrices.apply": ("matrices", "Matrix", "apply_to_vector"),
    "matrices.kron": ("matrices", "Matrix", "kron"),
    "matrices.solve_right": ("matrices", "Matrix", "solve_right"),
    "rings.mat_mul": ("rings", None, "mat_mul"),
    "rings.monoid_closure": ("rings", None, "monoid_closure"),
    "functorcat.iext_value": ("functorcat", None,
                              "intermediate_extension_value"),
    "functorcat.act": ("functorcat", "FunctorRep", "act_ranks"),
    "functorcat.cross_effect": ("functorcat", None, "cross_effect"),
    "functorcat.unipotence_ideal": ("functorcat", None, "unipotence_ideal"),
    "modtools.find_proper_submodule": ("modtools", None,
                                       "find_proper_submodule"),
    "modtools.hom_space": ("modtools", None, "hom_space"),
    "modtools.are_isomorphic": ("modtools", None, "are_isomorphic"),
    "modtools.is_simple": ("modtools", None, "is_simple"),
    "modtools.restrict_to_submodule": ("modtools", None,
                                       "restrict_to_submodule"),
    "symgrp.specht_module": ("symgrp", None, "specht_module"),
    "symgrp.simple_module": ("symgrp", None, "simple_module"),
    "schurfun.schur_value": ("schurfun", None, "schur_value"),
    "schurfun.elementary_value": ("schurfun", None, "elementary_value"),
    "schurfun.socle_simple": ("schurfun", None, "socle_simple"),
    "steinberg.build": ("steinberg", None, "build"),
    "steinberg.classify": ("steinberg", None, "classify"),
    "emlpoly.deviation_vanishes": ("emlpoly", None, "deviation_vanishes"),
    "emlpoly.factor_multiplicative": ("emlpoly", None,
                                      "factor_multiplicative"),
    "cli.build_parser": ("cli", None, "build_parser"),
    "cli.render": ("cli", None, "render"),
}

# span name -> (counter name, amount to add from (args, result))
TALLIES = {
    "matrices.add_vector": ("matrices.add_vector.grew",
                            lambda args, res: 1 if res else 0),
    "matrices.rref": ("matrices.rref.cells",
                      lambda args, res: args[0].nrows * args[0].ncols),
    "functorcat.iext_value": ("functorcat.iext_value.ambient",
                              lambda args, res: res[3]),
    "modtools.find_proper_submodule": (
        "modtools.find_proper_submodule.found",
        lambda args, res: 0 if res is None else 1),
}

FIELD_OPS = ("add", "sub", "neg", "mul", "inv")
FIELD_KINDS = ("galois", "prime", "rational")


def _modules():
    return {m: importlib.import_module("steinlab." + m) for m in MODULES}


class _Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def rebind_function(self, modules, original, replacement):
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, replacement)

    def undo(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class _ThreadSpans:
    """One thread's spans, in parallel arrays (no per-span objects, so a
    few hundred thousand spans cost little memory and no collector time).
    A span's parent is the index of the span open when it started."""

    def __init__(self):
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = []

    def open(self, code, clock):
        sid = len(self.start)
        self.name.append(code)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(clock())
        return sid

    def close(self, sid, clock):
        self.end[sid] = clock()
        self.stack.pop()


class SpanTracer:
    """Spans around calls into steinlab's layers; see the module doc."""

    def __init__(self):
        self._local = threading.local()
        self._threads = []
        self._threads_lock = threading.Lock()
        self.names = []
        self.tallies = Counter()
        self._patches = _Patches()

    def _spans(self):
        try:
            return self._local.spans
        except AttributeError:
            spans = self._local.spans = _ThreadSpans()
            with self._threads_lock:
                self._threads.append(spans)
            return spans

    def _code(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name, fn):
        code = self._code(name)
        tally = TALLIES.get(name)
        clock = time.perf_counter
        spans_of = self._spans
        tallies = self.tallies

        def traced(*args, **kwargs):
            spans = spans_of()
            sid = spans.open(code, clock)
            try:
                res = fn(*args, **kwargs)
            finally:
                spans.close(sid, clock)
            if tally is not None:
                tallies[tally[0]] += tally[1](args, res)
            return res
        return traced

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, such as one job."""
        spans = self._spans()
        sid = spans.open(self._code(name), time.perf_counter)
        try:
            yield
        finally:
            spans.close(sid, time.perf_counter)

    def __enter__(self):
        modules = _modules()
        for name, (mod, cls, attr) in SPANS.items():
            if cls is None:
                original = getattr(modules[mod], attr)
                wrapped = self.wrap(name, original)
                if name == "cli.build_parser":
                    wrapped = self._wrap_parse(wrapped)
                self._patches.rebind_function(modules, original, wrapped)
            else:
                owner = getattr(modules[mod], cls)
                self._patches.set(owner, attr,
                                  self.wrap(name, vars(owner)[attr]))
        return self

    def _wrap_parse(self, build_parser):
        """Time ``parse_args`` on each parser ``build_parser`` returns."""
        def traced_build():
            parser = build_parser()
            parser.parse_args = self.wrap("cli.parse_args",
                                          parser.parse_args)
            return parser
        return traced_build

    def __exit__(self, *exc):
        self._patches.undo()
        return False

    def count(self):
        return sum(len(t.start) for t in self._threads)

    def summary(self):
        """Calls and self seconds per span name."""
        calls = Counter()
        self_s = Counter()
        for t in self._threads:
            dur = [e - s for s, e in zip(t.start, t.end)]
            child = [0.0] * len(dur)
            for p, d in zip(t.parent, dur):
                if p >= 0:
                    child[p] += d
            for code, d, covered in zip(t.name, dur, child):
                calls[self.names[code]] += 1
                self_s[self.names[code]] += d - covered
        return calls, self_s

    def write(self, path):
        """Write every span, gzipped JSON: per thread, parallel lists of
        name index, parent index, start and end (seconds)."""
        data = {"names": self.names,
                "threads": [{"name": t.name.tolist(),
                             "parent": t.parent.tolist(),
                             "start": t.start.tolist(),
                             "end": t.end.tolist()} for t in self._threads]}
        with gzip.open(path, "wt") as fh:
            json.dump(data, fh)


class OpCounter:
    """Counts of field operations by kind and of ``AbMap`` evaluations."""

    def __init__(self):
        self.counts = Counter()
        self._patches = _Patches()

    def __enter__(self):
        modules = _modules()
        counts = self.counts
        Field = modules["fields"].Field
        for op in FIELD_OPS:
            original = vars(Field)[op]

            def counted(field, *args, _original=original):
                counts[field.kind] += 1
                return _original(field, *args)
            self._patches.set(Field, op, counted)
        AbMap = modules["emlpoly"].AbMap
        original_call = vars(AbMap)["__call__"]

        def counted_call(f, u):
            counts["evals"] += 1
            return original_call(f, u)
        self._patches.set(AbMap, "__call__", counted_call)
        return self

    def __exit__(self, *exc):
        self._patches.undo()
        return False
