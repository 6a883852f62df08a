#!/usr/bin/env python3
"""Survey centralizer quotients over all wall words up to a given length.

Prints, per necklace: classification, graph size, Betti number and
isomorphism type, followed by a distribution summary.

Usage: python scripts/scan_wall_words.py [--max-len 3] [--presentation c1]
"""

import argparse
from collections import Counter, defaultdict

from a2cent import IsoType, build_quotient, load_named, simplify
from a2cent.walls import wall_necklaces


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-len", type=int, default=3)
    parser.add_argument("--presentation", default="builtin:c1")
    args = parser.parse_args()

    pres = load_named(args.presentation)
    by_iso = defaultdict(list)
    counts = Counter()
    words = [w for n in range(1, args.max_len + 1) for w in wall_necklaces(pres, n)]
    for word in words:
        graph = build_quotient(pres, word)
        result = simplify(graph)
        iso = result.render() if isinstance(result, IsoType) else "UNSIMPLIFIED"
        counts[graph.classification] += 1
        by_iso[iso].append(word)
        print(f"{str(word):<14} {graph.classification:<16} "
              f"V={len(graph.vertices):<3} E={len(graph.edges):<3} "
              f"b1={graph.betti_number}  {iso}")

    print("\nclassification counts:", dict(counts))
    print("\nisomorphism type distribution:")
    for iso, words in sorted(by_iso.items(), key=lambda kv: (len(kv[1]), kv[0])):
        print(f"  {len(words):>3}  {iso}")
        print(f"       {', '.join(str(w) for w in words)}")


if __name__ == "__main__":
    main()
