"""Inputs, the timed operation and its output checks for the a2cent benchmark.

Three workloads, each a list of rounds of input words drawn from the run's
seed; a run cycles through the rounds, one pass per round:

- ``sweep``: every wall necklace of c1 up to SWEEP_MAX_LEN letters, in a
  seed-shuffled order.  Thousands of small graphs; components repeat.
- ``big-graphs``: seed-drawn rounds from the catalog of random primitive
  closed walks of length 14-16 (``golden/big_graphs.json``), one word per
  cost stratum, so every round has quotients of the same spread of sizes.
- ``cold-cli``: the two paper fixtures, alternated, each op a fresh
  ``python -m a2cent.cli centralizer ... --format structured`` process.

The library op is the work behind ``--format structured``:
build_quotient -> fundamental_group -> simplify -> vertex_witnesses ->
graph.to_json().  Every op is checked against signatures captured from the
program (``golden/``); see ``LibraryChecker``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from collections import Counter
from pathlib import Path

from a2cent import bassserre, presentation, quotient
from a2cent.walls import canonical_rotation, minimal_period

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
SRC = HERE.parent / "src"

LIBRARY_WORKLOADS = ("sweep", "big-graphs")
PRESENTATION = "builtin:c1"

SWEEP_MAX_LEN = 7
NECKLACES_AT_7 = 2342  # wall necklaces of c1 of length exactly 7

BIG_LENGTHS = (14, 15, 16)
BIG_CATALOG_SEED = 20110112
BIG_CATALOG_WALKS = 4000  # random closed walks drawn for the catalog
# the catalog keeps the walks whose quotient has this many vertices: big
# enough to show how BFS, edge keys and simplify scale, small enough for
# about a hundred ops in a 30 s run
BIG_MIN_VERTICES = 100
BIG_MAX_VERTICES = 400
BIG_STRATA = 16  # words per big-graphs pass, one per cost stratum

FIXTURES = ((0, 5), (0, 1, 4))
CLI_PASS_OPS = 10  # cold-cli ops per pass, fixtures alternated


def child_env():
    """Environment for child interpreters: the checkout's ``src`` on the path."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def load_presentation():
    return presentation.load_named(PRESENTATION)


def word_key(word) -> str:
    return ",".join(str(x) for x in word)


# -- input generation ---------------------------------------------------------

def straight_successors(pres):
    """For each generator i, the j with (i, j) straight (4 each for c1)."""
    m = pres.generator_count
    return [[j for j in range(m) if pres.straight(i, j)] for i in range(m)]


def necklaces(pres, n: int):
    """Wall necklaces of length exactly n, as canonical rotations, sorted.

    Closed walks in the straight digraph whose first letter is their least
    letter (true of every canonical rotation), kept when canonical.
    """
    succ = straight_successors(pres)
    out = []

    def extend(walk):
        if len(walk) == n:
            if walk[0] in succ[walk[-1]]:
                word = tuple(walk)
                if canonical_rotation(word) == word:
                    out.append(word)
            return
        for j in succ[walk[-1]]:
            if j >= walk[0]:
                walk.append(j)
                extend(walk)
                walk.pop()

    for first in range(pres.generator_count):
        extend([first])
    return sorted(out)


def random_primitive_walk(pres, rng: random.Random, n: int, succ=None):
    """A uniformly drawn primitive closed walk of length n in the straight digraph."""
    succ = succ or straight_successors(pres)
    while True:
        walk = [rng.randrange(pres.generator_count)]
        for _ in range(n - 1):
            walk.append(rng.choice(succ[walk[-1]]))
        if walk[0] in succ[walk[-1]] and minimal_period(walk) == n:
            return tuple(walk)


def read_golden(name: str):
    with open(GOLDEN / name, encoding="utf-8") as fh:
        return json.load(fh)


def big_graphs_rounds(catalog, rng: random.Random):
    """Rounds of one catalog word per cost stratum, drawn without replacement.

    The catalog walks are split into BIG_STRATA equal strata by their op
    time when the catalog was captured (vertex count alone predicts it only
    within a factor 2).  Round r takes the r-th word of each stratum in a
    seed-shuffled order, so every round costs about the same and a run sees
    as many distinct words as it has time for.
    """
    entries = sorted(catalog, key=lambda e: (e["op_s"], e["word"]))
    strata = []
    for k in range(BIG_STRATA):
        stratum = entries[k * len(entries) // BIG_STRATA:(k + 1) * len(entries) // BIG_STRATA]
        rng.shuffle(stratum)
        strata.append(stratum)
    rounds = []
    for r in range(min(len(stratum) for stratum in strata)):
        words = [tuple(int(x) for x in stratum[r]["word"].split(",")) for stratum in strata]
        rng.shuffle(words)
        rounds.append(words)
    return rounds


def make_inputs(workload: str, pres, seed: int):
    """The rounds of words a run cycles through; each round is one pass."""
    rng = random.Random(seed)
    if workload == "sweep":
        words = [w for n in range(1, SWEEP_MAX_LEN + 1) for w in necklaces(pres, n)]
        rng.shuffle(words)
        return [words]
    if workload == "big-graphs":
        return big_graphs_rounds(read_golden("big_graphs.json")["catalog"], rng)
    if workload == "cold-cli":
        words = [FIXTURES[k % len(FIXTURES)] for k in range(CLI_PASS_OPS)]
        rng.shuffle(words)
        return [words]
    raise ValueError(f"unknown workload {workload!r}")


# -- the library op -------------------------------------------------------------

def pipeline(pres, word):
    """One full centralizer computation on an already-loaded presentation.

    Module attributes are looked up at call time so that the tracer's
    wrappers, installed on those attributes, see every call.
    """
    graph = quotient.build_quotient(pres, word)
    group = bassserre.fundamental_group(graph)
    result = bassserre.simplify(graph)
    witnesses = quotient.vertex_witnesses(graph)
    document = graph.to_json()
    return graph, group, result, witnesses, document


# -- output checks ----------------------------------------------------------------

def signature(graph, result) -> str:
    """The string "V E orders iso": sizes, vertex group orders, isotype."""
    orders = Counter(v.group_order for v in graph.vertices)
    rle = ",".join(f"{o}x{c}" for o, c in sorted(orders.items()))
    iso = result.render() if isinstance(result, bassserre.IsoType) else "UNSIMPLIFIED"
    return f"{len(graph.vertices)} {len(graph.edges)} {rle} {iso}"


def output_digest(group, witnesses, document) -> str:
    text = json.dumps([document, group.to_json(),
                       {k: str(w) for k, w in witnesses.items()}], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def invariant_problems(graph, group, result):
    """Seed-independent checks: Betti number and SNF abelianization."""
    problems = []
    if graph.betti_number < 0:
        problems.append(f"negative Betti number {graph.betti_number}")
    if isinstance(result, bassserre.IsoType):
        snf = bassserre.abelianization(group)
        if snf != result.abelianization():
            problems.append(f"SNF abelianization {snf} != isotype {result.abelianization()}")
    return problems


class LibraryChecker:
    """Checks every library op; returns a list of problems (empty when correct).

    Every op's signature must equal the golden one.  The first op of each
    distinct word also gets the SNF cross-check, and every later op of that
    word must reproduce its full output digest.
    """

    def __init__(self, golden: dict):
        self.golden = golden
        self.digests = {}

    def check(self, word, graph, group, result, witnesses, document):
        key = word_key(canonical_rotation(word))
        problems = []
        expected = self.golden.get(key)
        got = signature(graph, result)
        if expected is None:
            problems.append(f"no golden signature for {key}")
        elif got != expected:
            problems.append(f"signature {got!r} != golden {expected!r}")
        digest = output_digest(group, witnesses, document)
        first = self.digests.get(key)
        if first is None:
            self.digests[key] = digest
            problems.extend(invariant_problems(graph, group, result))
        elif first != digest:
            problems.append("output differs from an earlier op on the same word")
        return problems


def library_golden(workload: str) -> dict:
    if workload == "sweep":
        return read_golden("sweep.json")["signatures"]
    return {word_key(canonical_rotation(tuple(int(x) for x in e["word"].split(",")))):
            e["signature"] for e in read_golden("big_graphs.json")["catalog"]}


def cli_argv(word):
    return ["centralizer", PRESENTATION, "--word", word_key(word), "--format", "structured"]


def cli_golden() -> dict:
    return read_golden("cold_cli.json")["stdout_sha256"]
