#!/usr/bin/env python3
"""Self-tests of the benchmark's own input generation and output checks.

run.py runs them before every measurement; they take well under a second.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from a2cent.errors import NotAWallWord  # noqa: E402
from a2cent.walls import canonical_rotation, check_wall_sequence  # noqa: E402


def brute_force_necklaces(pres, n):
    """Canonical rotations of every wall word of length n, by itertools.product."""
    out = set()
    for word in itertools.product(range(pres.generator_count), repeat=n):
        try:
            check_wall_sequence(pres, word)
        except NotAWallWord:
            continue
        out.add(canonical_rotation(word))
    return sorted(out)


def check_necklaces(pres):
    for n in range(1, 5):
        fast, slow = workloads.necklaces(pres, n), brute_force_necklaces(pres, n)
        if fast != slow:
            raise AssertionError(f"length {n}: {len(fast)} necklaces, brute force {len(slow)}")
    count = len(workloads.necklaces(pres, 7))
    if count != workloads.NECKLACES_AT_7:
        raise AssertionError(f"length 7: {count} necklaces, expected {workloads.NECKLACES_AT_7}")


def check_perturbed_signature_caught(pres):
    word = (0, 5)
    key = workloads.word_key(word)
    golden = workloads.read_golden("sweep.json")["signatures"]
    outputs = workloads.pipeline(pres, word)
    if workloads.LibraryChecker({key: golden[key]}).check(word, *outputs):
        raise AssertionError(f"golden signature of {key} rejected")
    vertices, rest = golden[key].split(" ", 1)
    for perturbed in (f"{int(vertices) + 1} {rest}", golden[key].replace("Z/4", "Z/8")):
        if not workloads.LibraryChecker({key: perturbed}).check(word, *outputs):
            raise AssertionError(f"perturbed signature {perturbed!r} not caught")


def run_all(pres):
    check_necklaces(pres)
    check_perturbed_signature_caught(pres)


if __name__ == "__main__":
    run_all(workloads.load_presentation())
    print("selftest ok")
