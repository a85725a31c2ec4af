"""Span tracing for the benchmark, installed from outside the package.

`Tracer.install(modules)` replaces every public function of each module,
and every public method of each public class defined there, with a wrapper
that records one span per call: name, start, end and parent.  Every name a
module binds to a wrapped function is replaced, so a function imported by
name into another module (``from .autos import orbit``) is still traced.
`Tracer.uninstall()` puts the originals back.

Spans live in four flat arrays until the run ends.  Self time is a span's
duration minus the durations of its direct children; calls are nested and
single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array

# Constructors recorded as spans, named after their class.
SPAN_CONSTRUCTORS = {"perm.PermGroup"}
# Callables counted without a span.  Permutations are built half a million
# times per job; pair_index is a dictionary rebuild inside every rewrite,
# so its time stays part of the rewrite layer's self time.
COUNTED = {"perm.Permutation.__init__", "cosets.RSGenerators.pair_index"}
# Value-type methods left untraced: each call is a few bytecodes and they
# run millions of times per job, so a span would cost more than the call.
UNTRACED_CLASSES = {"perm.Permutation"}
UNTRACED_METHODS = {
    "cosets.CosetTable.apply_letter",
    "autos.SurfaceAuto.apply_letter",
}
# Modules where only the named functions are traced.  In cli that keeps
# argument parsing and the subcommands' JSON emission in main's self time.
ONLY = {"cli": {"main"}}


def _size(result):
    return len(result)


def _orbit_members(record):
    return len(record.members)


def _collected_members(result):
    members, _truncated = result
    return len(members)


# Extra counters read from a call's result: span name -> (counter, reader).
RESULT_COUNTERS = {
    "autos.orbit": ("autos.orbit.members", _orbit_members),
    "forge.collect_inequivalent_members":
        ("forge.collect_inequivalent_members.members", _collected_members),
    "quotients.enumerate_homs": ("quotients.enumerate_homs.homs", _size),
}


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts = {}
        self._stack = [-1]
        self._patches = []

    # -- recording ----------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _span_wrapper(self, fn, name):
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter
        counter = RESULT_COUNTERS.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if counter is not None:
                key, read = counter
                counts[key] = counts.get(key, 0) + read(result)
            return result

        return traced

    def _count_wrapper(self, fn, name):
        counts = self.counts
        key = name + ".calls"
        counts.setdefault(key, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation -------------------------------------------------------

    def install(self, modules):
        """Wrap the public callables of `modules` (short name -> module)."""
        wrapped = {}  # original function -> wrapper, for module-level rebinds
        for short, module in modules.items():
            only = ONLY.get(short)
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or (only and attr not in only):
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    wrapped[value] = self._span_wrapper(value, f"{short}.{attr}")
                elif (inspect.isclass(value) and not only
                      and value.__module__ == module.__name__):
                    self._install_class(f"{short}.{attr}", value)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patch(module, attr, wrapped[value])

    def _install_class(self, name, cls):
        for attr, value in list(vars(cls).items()):
            full = f"{name}.{attr}"
            if not inspect.isfunction(value):
                continue
            if full in COUNTED:
                counter = name if attr == "__init__" else full
                self._patch(cls, attr, self._count_wrapper(value, counter))
            elif attr == "__init__" and name in SPAN_CONSTRUCTORS:
                self._patch(cls, attr, self._span_wrapper(value, name))
            elif not (attr.startswith("_") or name in UNTRACED_CLASSES
                      or full in UNTRACED_METHODS):
                self._patch(cls, attr, self._span_wrapper(value, full))

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # -- analysis -----------------------------------------------------------

    def mark(self):
        """Index of the next span; bounds a job's spans together with
        the mark taken after it."""
        return len(self.span_start)

    def summarize(self, lo=0, hi=None):
        """Per-name {calls, self_s} over spans lo..hi-1, which must
        hold whole call trees (no span in the range has a parent outside
        it except at the top level)."""
        if hi is None:
            hi = len(self.span_start)
        starts, ends = self.span_start, self.span_end
        names, parents = self.span_name, self.span_parent
        child = array("d", bytes(8 * (hi - lo)))
        for i in range(lo, hi):
            p = parents[i]
            if p >= lo:
                child[p - lo] += ends[i] - starts[i]
        out = {}
        for i in range(lo, hi):
            dur = ends[i] - starts[i]
            entry = out.setdefault(names[i], [0, 0.0])
            entry[0] += 1
            entry[1] += dur - child[i - lo]
        return {self.names[n]: {"calls": c, "self_s": s}
                for n, (c, s) in out.items()}

    def dump(self, path):
        """Write every span: a JSON header line (name table, span count),
        then the name-id, parent, start and end arrays in native byte order.
        A parent of -1 marks a top-level span."""
        header = {"names": self.names, "spans": len(self.span_start),
                  "arrays": [["name", "i"], ["parent", "i"], ["start", "d"],
                             ["end", "d"]]}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start,
                        self.span_end):
                arr.tofile(f)
