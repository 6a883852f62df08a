"""Spans for the benchmark's traced run, recorded from outside the program.

Each hook wraps a public function as it is bound in the module that calls
it, so every call from that module opens a span; ``to_json`` is wrapped on
its class.  Spans are kept in memory as [name, start, end, parent index,
op id, result length] and written out once, at the end of the run.  A hook whose module or attribute no longer
exists is skipped, and its layer is reported as absent.
"""

from __future__ import annotations

import functools
import gzip
import importlib
from collections import defaultdict
from time import perf_counter

# (module, attribute path, span name)
HOOKS = (
    ("a2cent.presentation", "load_named", "presentation.load"),
    ("a2cent.cli", "load_named", "presentation.load"),
    ("a2cent.quotient", "build_quotient", "quotient.build"),
    ("a2cent.cli", "build_quotient", "quotient.build"),
    ("a2cent.quotient", "wall_word", "walls.wall_word"),
    ("a2cent.quotient", "canonical_rotation", "walls.canonical_rotation"),
    ("a2cent.walls", "canonical_rotation", "walls.canonical_rotation"),
    ("a2cent.quotient", "enumerate_periodic_strips", "strips.enumerate"),
    ("a2cent.quotient", "group_by_wall_shifts", "strips.group"),
    ("a2cent.quotient", "canonical_edge_key", "strips.edge_key"),
    ("a2cent.quotient", "flip_shifts", "strips.flip_shifts"),
    ("a2cent.bassserre", "fundamental_group", "bassserre.fundamental_group"),
    ("a2cent.bassserre", "simplify", "bassserre.simplify"),
    ("a2cent.quotient", "vertex_witnesses", "quotient.vertex_witnesses"),
    ("a2cent.cli", "vertex_witnesses", "quotient.vertex_witnesses"),
    ("a2cent.quotient", "QuotientGraphOfGroups.to_json", "quotient.to_json"),
)
LAYERS = tuple(dict.fromkeys(name for _m, _a, name in HOOKS))

NAME, START, END, PARENT, OP, LENGTH = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1  # id of the op being run; -1 outside ops
        self.ops = 0
        self.installed = False
        self._stack = []
        self._hooks = []  # (owner, attribute, original, wrapper)
        present = set()
        for module_name, path, name in HOOKS:
            *owners, attr = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in owners:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                continue
            self._hooks.append((owner, attr, original, self._wrap(name, original)))
            present.add(name)
        self.absent = [name for name in LAYERS if name not in present]

    def install(self):
        for owner, attr, _original, wrapper in self._hooks:
            setattr(owner, attr, wrapper)
        self.installed = True

    def uninstall(self):
        for owner, attr, original, _wrapper in self._hooks:
            setattr(owner, attr, original)
        self.installed = False

    def run_op(self, fn, *args):
        """fn(*args), inside an "op" span with a fresh op id while installed."""
        if not self.installed:
            return fn(*args)
        self.op, self.ops = self.ops, self.ops + 1
        try:
            return self.call("op", fn, *args)
        finally:
            self.op = -1

    def call(self, name, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span called ``name``."""
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, 0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[END] = perf_counter()
            self._stack.pop()
        if isinstance(result, list):
            record[LENGTH] = len(result)
        return result

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\top\tlength\n")
            for s in self.spans:
                fh.write("\t".join(map(str, s)) + "\n")


class Totals:
    """Per span name: calls, inclusive and self seconds, summed result lengths."""

    def __init__(self, spans, op_name="op"):
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += s[END] - s[START]
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.lengths = defaultdict(int)
        covered = 0.0
        for s, children in zip(spans, child_time):
            duration = s[END] - s[START]
            self.calls[s[NAME]] += 1
            self.inclusive[s[NAME]] += duration
            self.self_time[s[NAME]] += duration - children
            self.lengths[s[NAME]] += s[LENGTH]
            if s[NAME] == op_name:
                covered += children
        total = self.inclusive[op_name]
        self.coverage = covered / total if total else 0.0
