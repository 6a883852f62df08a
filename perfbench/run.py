#!/usr/bin/env python3
"""The a2cent benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): ``sweep``, ``big-graphs``, ``cold-cli``.  A
run cycles through the seed's rounds of input words, one pass per round,
until ``--seconds`` are up, checks every op's output, prints one line per
metric and, as its last line, a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` they are the per-layer ones,
from spans recorded around the program's public functions; each op then
runs twice, traced and untraced in alternating order, which gives the
tracing overhead.  Spans are written to ``.bench_out/``.  Timings are
scaled to a reference machine speed (speed.py); the unscaled figures are
printed too.  Run from the repository root; exits 2 without a result when
the checkout has no ``src/a2cent``.  See NOTES.md for the metrics and the
baseline.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPS = 5  # fresh-process set-ups per run; setup_s is their median
CLI_LAYER_REPS = 5  # fresh processes per cli.* layer measurement
# op_ms_tail: the highest of p90/p80/p75 with at least ten samples beyond it
# in a 30 s run on two cores, fixed per workload so runs stay comparable
TAIL_PERCENTILE = {"sweep": 90, "big-graphs": 80, "cold-cli": 75}


@dataclass(slots=True)
class Op:
    word: tuple
    seconds: float
    problems: list = field(default_factory=list)
    vertices: int = 0
    edges: int = 0
    medians: int = 0
    witness_letters: int = 0
    unsimplified: bool = False
    rss_kb: int = 0
    untraced_seconds: float = 0.0  # traced run: the same op run untraced
    midpoint: float = 0.0  # perf_counter() halfway through the op
    factor: float = 1.0  # machine speed factor at the midpoint (speed.py)

    @property
    def scaled(self):
        """The op's seconds at the reference machine speed."""
        return self.seconds * self.factor

    def describe(self, graph: dict, simplified: bool):
        """Record the sizes of the op's output, given as ``graph.to_json()``."""
        self.vertices = len(graph["vertices"])
        self.edges = len(graph["edges"])
        self.medians = sum(v["kind"] == "median" for v in graph["vertices"])
        self.witness_letters = (sum(len(v["generator_witness"]) for v in graph["vertices"])
                                + sum(len(e["conjugator_witness"]) for e in graph["edges"]))
        self.unsimplified = not simplified


def record_component(components: dict, graph: dict):
    """On an element's first op, record its walls: they identify its component
    of the parallel-wall graph."""
    element = tuple(graph["element"])
    if element not in components:
        components[element] = frozenset((graph["n"], v["label"])
                                        for v in graph["vertices"] if v["kind"] == "wall")


def percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


# -- ops ------------------------------------------------------------------------

def untraced(fn, *args):
    return fn(*args)


class LibraryOps:
    """The in-process op of the sweep and big-graphs workloads.

    ``run(fn, *args)`` calls the timed function; the tracer passes its own.
    """

    def __init__(self, workloads, pres, golden, run=untraced):
        self.w = workloads
        self.pres = pres
        self.checker = workloads.LibraryChecker(golden)
        self.run = run
        self.components = {}

    def __call__(self, word):
        start = time.perf_counter()
        try:
            graph, group, result, witnesses, document = self.run(self.w.pipeline, self.pres, word)
        except Exception as exc:  # an op failure is recorded, never fatal
            return Op(word, time.perf_counter() - start, [f"{type(exc).__name__}: {exc}"])
        op = Op(word, time.perf_counter() - start,
                self.checker.check(word, graph, group, result, witnesses, document))
        op.describe(document, isinstance(result, self.w.bassserre.IsoType))
        record_component(self.components, document)
        return op


class ColdCliOps:
    """One fresh ``python -m a2cent.cli`` process per op, run to exit."""

    def __init__(self, workloads):
        self.w = workloads
        self.golden = workloads.cli_golden()
        self.env = workloads.child_env()
        self.components = {}

    def __call__(self, word):
        argv = [sys.executable, "-m", "a2cent.cli", *self.w.cli_argv(word)]
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        stdout = proc.stdout.read()  # stderr stays far below the pipe buffer
        _pid, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = proc.stderr.read()
        proc.stdout.close()
        proc.stderr.close()
        op = Op(word, seconds, rss_kb=usage.ru_maxrss)
        if proc.returncode != 0:
            op.problems.append(f"exit {proc.returncode}: {stderr.decode(errors='replace')[-300:]}")
        else:
            check_cli_stdout(self, word, stdout, op)
        return op


class CliReplayOps:
    """The cold-cli op replayed in-process, ``cli.main(argv)``, for tracing."""

    def __init__(self, workloads, run=untraced):
        import a2cent.cli
        self.w = workloads
        self.cli = a2cent.cli
        self.golden = workloads.cli_golden()
        self.run = run
        self.components = {}

    def __call__(self, word):
        buffer = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buffer):
            code = self.run(self.cli.main, self.w.cli_argv(word))
        op = Op(word, time.perf_counter() - start)
        if code != 0:
            op.problems.append(f"exit {code}")
        else:
            check_cli_stdout(self, word, buffer.getvalue().encode(), op)
        return op


def check_cli_stdout(ops, word, stdout: bytes, op: Op):
    """Check a CLI op's stdout against the golden sha256 and record its output."""
    key = ops.w.word_key(word)
    if hashlib.sha256(stdout).hexdigest() != ops.golden.get(key):
        op.problems.append(f"stdout of {key} differs from the golden structured JSON")
        return
    report = json.loads(stdout)
    op.describe(report["graph"], report["simplified"])
    record_component(ops.components, report["graph"])


# -- the timed loop -----------------------------------------------------------------

def paired(op, tracer):
    """Run each op twice, untraced and traced in alternating order; return the
    traced Op, carrying the untraced time for the tracing overhead."""
    orders = itertools.cycle(((False, True), (True, False)))

    def run(word):
        result = {}
        for traced in next(orders):
            if traced:
                tracer.install()
            result[traced] = op(word)
            tracer.uninstall()
        traced_op = result[True]
        traced_op.untraced_seconds = result[False].seconds
        traced_op.problems += result[False].problems
        return traced_op
    return run


def run_passes(rounds, op, seconds, speed):
    """One pass per round, cycling through the rounds, until ``seconds`` are up.

    Returns (passes, complete): the ops of each pass, and which passes ran
    their whole round.
    """
    deadline = time.perf_counter() + seconds
    passes, complete = [], []
    speed.sample()
    while time.perf_counter() < deadline:
        k = len(passes)
        ops = []
        for word in rounds[k % len(rounds)]:
            start = time.perf_counter()
            ops.append(op(word))
            ops[-1].midpoint = (start + time.perf_counter()) / 2
            speed.sample()
            if time.perf_counter() >= deadline:
                break
        passes.append(ops)
        complete.append(len(ops) == len(rounds[k % len(rounds)]))
    for o in (o for p in passes for o in p):
        o.factor = speed.factor(o.midpoint)
    return passes, complete


def pass_rate(passes, complete, value=lambda o: 1, seconds=lambda o: o.scaled):
    """Median over complete passes (all passes if none completed) of
    sum(value) of the pass's good ops over the pass's op time."""
    chosen = [p for p, done in zip(passes, complete) if done] or passes
    return statistics.median(sum(value(o) for o in p if not o.problems)
                             / sum(seconds(o) for o in p) for p in chosen)


# -- end-to-end and per-layer metrics ---------------------------------------------------

def setup_seconds(workload, seed, speed):
    """Median of SETUP_REPS fresh-process set-ups (import, load, generate
    inputs), at the reference machine speed."""
    samples = []
    for _ in range(SETUP_REPS):
        speed.sample()
        start = time.perf_counter()
        out = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                             cwd=ROOT, capture_output=True, text=True, check=True).stdout
        samples.append((float(out.split()[-1]), (start + time.perf_counter()) / 2))
    speed.sample()
    return statistics.median(s * speed.factor(t) for s, t in samples)


def end_to_end(workload, seed, passes, complete, speed):
    ops = [o for p in passes for o in p]
    good = [o.scaled * 1000 for o in ops if not o.problems]
    if not good:
        raise RuntimeError("no op succeeded")
    raw = [o.seconds * 1000 for o in ops if not o.problems]
    print(f"unscaled: ops_per_s {pass_rate(passes, complete, seconds=lambda o: o.seconds):.6g}"
          f" op_ms_p50 {statistics.median(raw):.6g}; median speed factor "
          f"{statistics.median(o.factor for o in ops):.4f}")
    if workload == "cold-cli":
        peak_kb = max(o.rss_kb for o in ops)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tail = TAIL_PERCENTILE[workload]
    tail_ms = percentile(good, tail)
    print(f"samples: {len(good)} ops; op_ms_tail is p{tail}, "
          f"{sum(1 for t in good if t > tail_ms)} samples beyond it")
    return {
        "ops_per_s": (pass_rate(passes, complete), "1/s"),
        "op_ms_p50": (statistics.median(good), "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "vertices_per_s": (pass_rate(passes, complete, lambda o: o.vertices), "1/s"),
        "setup_s": (setup_seconds(workload, seed, speed), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


def cli_layers(env, speed):
    """Interpreter start, fresh ``import a2cent.cli`` and sympy's import, from
    outside, at the reference machine speed."""
    interpreter, import_cli, import_sympy = [], [], []
    timed_import = ("import time; t = time.perf_counter(); import a2cent.cli; "
                    "print(time.perf_counter() - t)")
    for _ in range(CLI_LAYER_REPS):
        speed.sample()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True)
        interpreter.append((time.perf_counter() - start, start))
        out = subprocess.run([sys.executable, "-c", timed_import], cwd=ROOT, env=env,
                             capture_output=True, text=True, check=True).stdout
        import_cli.append((float(out.split()[-1]), start))
        err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import a2cent.cli"],
                             cwd=ROOT, env=env, capture_output=True, text=True,
                             check=True).stderr
        cumulative = [int(line.split("|")[1]) for line in err.splitlines()
                      if line.startswith("import time:") and line.split("|")[2].strip() == "sympy"]
        import_sympy.append((cumulative[0] / 1e6 if cumulative else 0.0, start))
    speed.sample()

    def scaled(samples):
        return statistics.median(s * speed.factor(t) for s, t in samples)

    return {
        "cli.interpreter_s": (scaled(interpreter), "s"),
        "cli.import_s": (scaled(import_cli), "s"),
        "cli.import_sympy_s": (scaled(import_sympy), "s"),
    }


def per_layer(totals, ops, components, env, speed):
    """Per-layer metrics; span times are scaled by the run's median speed factor."""
    good = [o for o in ops if not o.problems]
    n = len(good)
    load_calls = totals.calls["presentation.load"]
    factor = statistics.median(o.factor for o in good)

    def per_op(name):
        return totals.inclusive[name] * factor / n

    def mean(attr):
        return sum(getattr(o, attr) for o in good) / n

    edge_keys = totals.calls["strips.edge_key"]
    walls = [wall for component in components.values() for wall in component]
    return {
        "strips.enumerate_s": (per_op("strips.enumerate"), "s/op"),
        "strips.enumerate_calls": (totals.calls["strips.enumerate"] / n, "1/op"),
        "strips.found": (totals.lengths["strips.enumerate"] / n, "1/op"),
        "strips.group_s": (per_op("strips.group"), "s/op"),
        "strips.edge_key_s": (per_op("strips.edge_key"), "s/op"),
        "strips.edge_key_calls": (edge_keys / n, "1/op"),
        "strips.flip_shifts_s": (per_op("strips.flip_shifts"), "s/op"),
        "strips.flip_shifts_calls": (totals.calls["strips.flip_shifts"] / n, "1/op"),
        "quotient.walls_visited": (len(walls), "count"),
        "quotient.walls_distinct": (len(set(walls)), "count"),
        "quotient.components_distinct": (len(set(components.values())), "count"),
        "quotient.build_s": (per_op("quotient.build"), "s/op"),
        "quotient.build_self_s": (totals.self_time["quotient.build"] * factor / n, "s/op"),
        "quotient.to_json_s": (per_op("quotient.to_json"), "s/op"),
        "quotient.vertices": (mean("vertices"), "1/op"),
        "quotient.edges": (mean("edges"), "1/op"),
        "quotient.median_vertices": (mean("medians"), "1/op"),
        "quotient.edge_key_hit_ratio": (sum(o.edges for o in good) / edge_keys
                                        if edge_keys else 0.0, "ratio"),
        "words.witness_letters": (mean("witness_letters"), "1/op"),
        "bassserre.fundamental_group_s": (per_op("bassserre.fundamental_group"), "s/op"),
        "bassserre.simplify_s": (per_op("bassserre.simplify"), "s/op"),
        "bassserre.unsimplified": (mean("unsimplified"), "1/op"),
        "walls.wall_word_s": (per_op("walls.wall_word"), "s/op"),
        "walls.canonical_rotation_s": (per_op("walls.canonical_rotation"), "s/op"),
        "presentation.load_s": (totals.inclusive["presentation.load"] * factor / load_calls
                                if load_calls else 0.0, "s"),
        **cli_layers(env, speed),
        "trace.overhead_frac": (sum(o.seconds for o in good)
                                / sum(o.untraced_seconds for o in good) - 1, "ratio"),
        "trace.span_coverage": (totals.coverage, "ratio"),
    }


# -- main -----------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description="a2cent benchmark (one run)")
    parser.add_argument("--workload", required=True, choices=("sweep", "big-graphs", "cold-cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "a2cent" / "__init__.py").is_file():
        print(f"error: no a2cent sources under {SRC}", file=sys.stderr)
        return 2
    # one CPU for this process and its children, so that the speed reference
    # runs where the ops run
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import selftest
    import spans
    import workloads
    from speed import Speed

    pres = workloads.load_presentation()
    selftest.run_all(pres)
    rounds = workloads.make_inputs(args.workload, pres, args.seed)
    library = args.workload in workloads.LIBRARY_WORKLOADS

    speed = Speed()
    tracer = spans.Tracer()
    if library:
        op = LibraryOps(workloads, pres, workloads.library_golden(args.workload), tracer.run_op)
    elif args.trace:
        op = CliReplayOps(workloads, tracer.run_op)
    else:
        op = ColdCliOps(workloads)

    if args.trace:
        tracer.install()
        for _ in range(SETUP_REPS):
            workloads.load_presentation()
        tracer.uninstall()
        passes, complete = run_passes(rounds, paired(op, tracer), args.seconds, speed)
    else:
        passes, complete = run_passes(rounds, op, args.seconds, speed)

    ops = [o for p in passes for o in p]
    failed = [o for o in ops if o.problems]
    for o in failed[:20]:
        print(f"FAILED {','.join(map(str, o.word))}: {'; '.join(o.problems)}")
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes over "
          f"{len(rounds)} round(s) of {len(rounds[0])} words, {len(ops)} ops attempted, "
          f"{len(failed)} failed (failed_frac {len(failed) / len(ops):.4f})")

    if args.trace:
        totals = spans.Totals(tracer.spans)
        for name in sorted(totals.calls):
            calls = totals.calls[name]
            print(f"span {name:<30} calls {calls:>8}  inclusive {totals.inclusive[name]:9.4f} s"
                  f"  self {totals.self_time[name]:9.4f} s")
        metrics = per_layer(totals, ops, op.components, workloads.child_env(), speed)
        for name in sorted(tracer.absent):
            print(f"absent layer: {name}")
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write(spans_path)
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(args.workload, args.seed, passes, complete, speed)

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
