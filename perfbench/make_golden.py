#!/usr/bin/env python3
"""Capture the benchmark's golden outputs from the program as it stands.

Writes three files under perfbench/golden/:

- sweep.json: the signature of every wall necklace of c1 up to
  SWEEP_MAX_LEN letters;
- big_graphs.json: the big-graphs catalog, random primitive closed walks of
  length 14-16 drawn from a fixed seed, with the vertex count, op time and
  signature of each walk whose quotient has BIG_MIN_VERTICES to
  BIG_MAX_VERTICES vertices;
- cold_cli.json: the sha256 of the structured stdout of each paper fixture.

Run from the repository root, once per deliberate change of reference
outputs, on an idle machine:  python3 perfbench/make_golden.py  (about half
an hour on two cores; name workloads as arguments to capture only those).
"""

from __future__ import annotations

import hashlib
import json
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from a2cent import InvariantError  # noqa: E402
from a2cent.walls import canonical_rotation  # noqa: E402

CATALOG_TIME_LIMIT_S = 4.0  # a walk whose op takes longer is left out
TIMING_REPS = 3


class _TimeLimit(Exception):
    pass


def _alarm(_signum, _frame):
    raise _TimeLimit


def write(name, payload):
    path = workloads.GOLDEN / name
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path.relative_to(ROOT)}")


def sweep(pres):
    signatures = {}
    for n in range(1, workloads.SWEEP_MAX_LEN + 1):
        for word in workloads.necklaces(pres, n):
            graph, _group, result, _w, _doc = workloads.pipeline(pres, word)
            signatures[workloads.word_key(word)] = workloads.signature(graph, result)
    write("sweep.json", {"max_len": workloads.SWEEP_MAX_LEN, "signatures": signatures})


def big_graphs(pres):
    rng = random.Random(workloads.BIG_CATALOG_SEED)
    succ = workloads.straight_successors(pres)
    seen = set()
    catalog = []
    over_time = failed = 0
    signal.signal(signal.SIGALRM, _alarm)
    for _ in range(workloads.BIG_CATALOG_WALKS):
        word = workloads.random_primitive_walk(pres, rng, rng.choice(workloads.BIG_LENGTHS), succ)
        canon = canonical_rotation(word)
        if canon in seen:
            continue
        seen.add(canon)
        signal.setitimer(signal.ITIMER_REAL, CATALOG_TIME_LIMIT_S)
        try:
            graph, _group, result, _w, _doc = workloads.pipeline(pres, word)
        except _TimeLimit:
            over_time += 1
            continue
        except InvariantError as exc:
            failed += 1
            print(f"failed: {workloads.word_key(word)}: {exc}")
            continue
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if workloads.BIG_MIN_VERTICES <= len(graph.vertices) <= workloads.BIG_MAX_VERTICES:
            catalog.append({"word": workloads.word_key(word), "vertices": len(graph.vertices),
                            "op_s": round(least_op_seconds(pres, word), 4),
                            "signature": workloads.signature(graph, result)})
    catalog.sort(key=lambda e: (e["vertices"], e["word"]))
    write("big_graphs.json", {
        "seed": workloads.BIG_CATALOG_SEED, "lengths": list(workloads.BIG_LENGTHS),
        "walks": workloads.BIG_CATALOG_WALKS, "distinct_necklaces": len(seen),
        "vertices": [workloads.BIG_MIN_VERTICES, workloads.BIG_MAX_VERTICES],
        "time_limit_s": CATALOG_TIME_LIMIT_S, "over_time_limit": over_time,
        "invariant_errors": failed, "timing_reps": TIMING_REPS, "catalog": catalog})


def least_op_seconds(pres, word):
    """The least of TIMING_REPS op times; big-graphs orders its cost strata by it."""
    times = []
    for _ in range(TIMING_REPS):
        start = time.perf_counter()
        workloads.pipeline(pres, word)
        times.append(time.perf_counter() - start)
    return min(times)


def cold_cli():
    digests = {}
    for word in workloads.FIXTURES:
        out = subprocess.run([sys.executable, "-m", "a2cent.cli", *workloads.cli_argv(word)],
                             cwd=ROOT, env=workloads.child_env(), capture_output=True,
                             check=True).stdout
        digests[workloads.word_key(word)] = hashlib.sha256(out).hexdigest()
    write("cold_cli.json", {"stdout_sha256": digests})


def main():
    pres = workloads.load_presentation()
    which = sys.argv[1:] or ["sweep", "big-graphs", "cold-cli"]
    if "cold-cli" in which:
        cold_cli()
    if "sweep" in which:
        sweep(pres)
    if "big-graphs" in which:
        big_graphs(pres)


if __name__ == "__main__":
    main()
