"""Command-line front end.

Exit codes: 0 success, 2 presentation validation failure (including a
missing or unreadable presentation file), 3 unsupported element (an
unparsable word, a generator index out of range, not a wall word, or a bad
``--length``), 4 internal assertion (AmbiguousStrip or invariant violation).
Every command maps its errors to these codes in one place, ``_run``, and
reports them as ``error:`` lines on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from . import bassserre
from .errors import AmbiguousStrip, InvariantError, NotAWallWord, PresentationError
from .presentation import TrianglePresentation, load_named
from .quotient import build_quotient, vertex_witnesses
from .strips import enumerate_periodic_strips, flip_shifts, group_by_wall_shifts
from .walls import minimal_period, wall_word

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_UNSUPPORTED = 3
EXIT_INTERNAL = 4


class UnsupportedInput(Exception):
    """A command-line word or option the commands cannot work with (exit 3)."""


def _load(name: str, strict: bool = True) -> TrianglePresentation:
    """load_named, with an unreadable or malformed file as a PresentationError."""
    try:
        return load_named(name, strict=strict)
    except (OSError, json.JSONDecodeError) as exc:
        raise PresentationError([f"cannot read presentation {name!r}: {exc}"]) from exc


def _parse_word(text: str, pres: TrianglePresentation):
    try:
        word = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UnsupportedInput(
            f"cannot parse element {text!r}: expected comma-separated indices") from None
    m = pres.generator_count
    for i in word:
        if not 0 <= i < m:
            raise UnsupportedInput(f"generator index {i} out of range 0..{m - 1}")
    return word


def _presentation_id(name: str) -> str:
    pres = load_named(name)
    digest = hashlib.sha256(pres.dumps().encode()).hexdigest()[:12]
    return digest


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_validate(args) -> int:
    pres = _load(args.presentation, strict=not args.lenient)
    for warning in pres.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    nodes, degrees, girth, diameter = pres.link_stats()
    print(f"ok: m={pres.generator_count} q={pres.thickness_q} "
          f"relator classes={len(pres.rotation_classes)} "
          f"link: {nodes} nodes, degrees {sorted(degrees)}, girth {girth}, diameter {diameter}")
    return EXIT_OK


def run_centralizer(pres, word):
    """Full pipeline; returns the structured run report dict plus objects."""
    start = time.perf_counter()
    graph = build_quotient(pres, word)
    presentation = bassserre.fundamental_group(graph)
    result = bassserre.simplify(graph)
    elapsed = time.perf_counter() - start
    if isinstance(result, bassserre.IsoType):
        iso_str = result.render()
        simplified = True
    else:
        iso_str = None
        simplified = False
    report = {
        "element": list(graph.element),
        "n": graph.n,
        "classification": graph.classification,
        "graph": graph.to_json(),
        "fundamental_group": presentation.to_json(),
        "isotype": iso_str,
        "simplified": simplified,
        "centralizer": "Z" if graph.classification == "single_axis" else None,
        "witnesses": {label: str(w) for label, w in vertex_witnesses(graph).items()},
    }
    return report, graph, presentation, result, elapsed


def cmd_centralizer(args) -> int:
    pres = _load(args.presentation)
    word = _parse_word(args.word, pres)
    report, graph, presentation, result, elapsed = run_centralizer(pres, word)

    if args.format == "structured":
        _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    elif args.format == "dot":
        _emit(graph.to_dot(), args.out)
    else:
        lines = []
        lines.append(f"presentation {args.presentation} (sha256 {_presentation_id(args.presentation)})")
        lines.append(f"element g = {','.join(str(x) for x in word)}  |g| = {graph.n} edges")
        lines.append(f"classification: {graph.classification}")
        if graph.classification == "single_axis":
            base = graph.vertices[graph.base_vertex]
            lines.append("the element has a single axial wall; its centralizer is "
                         "infinite cyclic, Z_Gamma(g) = Z")
            lines.append(f"quotient group: cyclic of order {base.group_order}")
        lines.append(f"vertices ({len(graph.vertices)}):")
        for v in graph.vertices:
            grp = f"Z/{v.group_order}Z" if v.group_order > 1 else "trivial"
            wit = f"  gen = {v.generator_witness}" if v.group_order > 1 else ""
            lines.append(f"  {v.display_label:<12} {v.kind:<7} {grp}{wit}")
        lines.append(f"edges ({len(graph.edges)}):")
        for e in graph.edges:
            l1 = graph.vertices[e.endpoints[0]].display_label
            l2 = graph.vertices[e.endpoints[1]].display_label
            grp = f"Z/{e.group_order}Z" if e.group_order > 1 else "trivial"
            tree = "tree" if e.in_spanning_tree else f"non-tree, conjugator {e.conjugator_witness}"
            lines.append(f"  {l1} -- {l2}  {grp}  ({tree})")
        lines.append(f"first Betti number: {graph.betti_number}")
        lines.append(f"fundamental group: {presentation.render()}")
        if isinstance(result, bassserre.IsoType):
            lines.append(f"isomorphism type: {result.render()}")
        else:
            lines.append("isomorphism type: unsimplified (a nontrivial edge group remains)")
        _emit("\n".join(lines) + "\n", args.out)
        print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return EXIT_OK


def cmd_strips(args) -> int:
    pres = _load(args.presentation)
    word = _parse_word(args.wall, pres)
    n = len(word) if args.length is None else args.length
    if n < 1:
        raise UnsupportedInput(f"--length {n} is not positive")
    if n % len(word) != 0:
        raise UnsupportedInput(f"--length {n} is not a multiple of the wall word length")
    seq = word * (n // len(word))
    neck = wall_word(pres, seq)
    strips = enumerate_periodic_strips(pres, neck.labels)
    classes = group_by_wall_shifts(strips, minimal_period(neck.labels))
    if args.format == "structured":
        payload = {
            "wall": list(neck.labels),
            "period": neck.period,
            "strip_classes": [
                {
                    "representative": cls[0].to_json(),
                    "phases": len(cls),
                    "strip_period": cls[0].period,
                    "opposite_wall": list(cls[0].b),
                    "flip_shifts": flip_shifts(cls[0]),
                }
                for cls in classes
            ],
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    else:
        lines = [f"wall {neck.display_label} at length {n}: "
                 f"{len(classes)} strip class(es), {len(strips)} anchored strip(s)"]
        for num, cls in enumerate(classes):
            st = cls[0]
            lines.append(f"strip class {num} ({len(cls)} phase(s), period {st.period}):")
            lines.append(f"  base a     = {st.a}")
            lines.append(f"  diagonal s = {st.s}")
            lines.append(f"  diagonal t = {st.t}")
            lines.append(f"  opposite b = {st.b}")
            lines.append(f"  diagonal u = {st.u}")
            fs = flip_shifts(st)
            if fs:
                lines.append(f"  flip shifts {fs}: glide step {fs[0]}+1/2, "
                             f"median group order {2 * st.length // (2 * fs[0] + 1)}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_link(args) -> int:
    pres = _load(args.presentation)
    nodes, degrees, girth, diameter = pres.link_stats()
    regular = f"{degrees.pop()}-regular" if len(degrees | set()) <= 1 else f"degrees {sorted(degrees)}"
    print(f"link graph: {nodes} nodes, {regular}, girth {girth}, diameter {diameter}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="a2cent",
        description="Centralizers in A~2 triangle-presentation groups")
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="validate a presentation document")
    p_val.add_argument("presentation", help="path or builtin:<id> (builtin:c1)")
    p_val.add_argument("--lenient", action="store_true",
                       help="downgrade the link girth/diameter check to a warning")
    p_val.set_defaults(func=cmd_validate)

    p_cen = sub.add_parser("centralizer", help="compute the centralizer graph of groups")
    p_cen.add_argument("presentation")
    p_cen.add_argument("--word", required=True, help="comma-separated indices, e.g. 0,5")
    p_cen.add_argument("--format", choices=("text", "structured", "dot"), default="text")
    p_cen.add_argument("--out", default=None)
    p_cen.set_defaults(func=cmd_centralizer)

    p_str = sub.add_parser("strips", help="enumerate periodic strips at a wall")
    p_str.add_argument("presentation")
    p_str.add_argument("--wall", required=True, help="comma-separated indices")
    p_str.add_argument("--length", type=int, default=None,
                       help="analyze the wall at this g-period (multiple of the word length)")
    p_str.add_argument("--format", choices=("text", "structured"), default="text")
    p_str.add_argument("--out", default=None)
    p_str.set_defaults(func=cmd_strips)

    p_lnk = sub.add_parser("link", help="vertex link graph statistics")
    p_lnk.add_argument("presentation")
    p_lnk.set_defaults(func=cmd_link)

    return parser


def _run(command, args) -> int:
    """Run one command and map its errors to the documented exit codes."""
    try:
        return command(args)
    except PresentationError as exc:
        for issue in exc.issues:
            print(f"error: {issue}", file=sys.stderr)
        return EXIT_VALIDATION
    except (UnsupportedInput, NotAWallWord) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (AmbiguousStrip, InvariantError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return _run(args.func, args)


if __name__ == "__main__":
    sys.exit(main())
