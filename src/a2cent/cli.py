"""Command-line front end.

Exit codes: 0 success, 2 presentation validation failure (including a
missing, unreadable or malformed presentation file), 3 unsupported input (a
command line the parser rejects, an unparsable word, a generator index out
of range, not a wall word, a bad ``--length``, an ``--out`` path that
cannot be written, or a failed write to standard output), 4 internal
assertion (InvariantError).  Every command maps its errors to these codes
in one place, ``_run``, and reports them as ``error:`` lines on stderr;
the parser reports a usage error the same way.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time

from . import bassserre
from .errors import InvariantError, NotAWallWord, PresentationError
from .presentation import TrianglePresentation, load_named
from .quotient import build_quotient, vertex_witnesses
from .strips import anchored_readings, enumerate_periodic_strips, flip_shifts, strip_json
from .walls import minimal_period, wall_word

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_UNSUPPORTED = 3
EXIT_INTERNAL = 4

_DECIMAL = re.compile("-?[0-9]+")


class UnsupportedInput(Exception):
    """A command-line word or option the commands cannot work with (exit 3)."""


def _load(name: str) -> TrianglePresentation:
    """load_named, with an unreadable or malformed file as a PresentationError:
    one that cannot be opened, is not UTF-8, is not JSON or nests too deep
    for the decoder."""
    try:
        return load_named(name)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise PresentationError([f"cannot read presentation {name!r}: {exc}"]) from exc


def _decimal(text: str) -> int:
    """The integer ``text`` spells in ASCII digits, after at most one minus
    sign.  ``int`` alone would also take underscores, a plus sign, spaces
    and other scripts' digits, and so read an element the user did not
    write."""
    try:
        if _DECIMAL.fullmatch(text):
            return int(text)
    except ValueError:  # more digits than int converts
        pass
    raise argparse.ArgumentTypeError(f"not a decimal integer: {text!r}")


def _parse_word(text: str, pres: TrianglePresentation):
    try:
        word = tuple([_decimal(x) for x in text.split(",")])
    except argparse.ArgumentTypeError:
        raise UnsupportedInput(
            f"cannot parse element {text!r}: expected comma-separated indices") from None
    m = pres.generator_count
    for i in word:
        if not 0 <= i < m:
            raise UnsupportedInput(f"generator index {i} out of range 0..{m - 1}")
    return word


def _presentation_id(pres: TrianglePresentation) -> str:
    """The first 12 hex digits of the sha256 of the presentation's document."""
    import hashlib  # only the text format prints the id
    return hashlib.sha256(pres.dumps().encode()).hexdigest()[:12]


def _emit(text: str, out: str | None = None):
    """Write a command's output to the ``--out`` path, or to standard output."""
    try:
        if out is not None:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        if out is None:
            _discard_stdout()
        target = f"--out {out!r}" if out is not None else "standard output"
        raise UnsupportedInput(f"cannot write {target}: {exc.strerror or exc}") from None


def _discard_stdout():
    """Point stdout's descriptor at the null device: a buffered stdout keeps
    the bytes it could not write, and the interpreter's flush at exit would
    fail on them again and exit 120.  An in-memory stream needs nothing."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, ValueError, OSError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def cmd_validate(args) -> int:
    """Print what load proved: the link is a projective plane of order q,
    with 2m nodes of degree q+1, girth 6 and diameter 3."""
    pres = _load(args.presentation)
    m, q = pres.generator_count, pres.thickness_q
    _emit(f"ok: m={m} q={q} relator classes={len(pres.rotation_classes)} "
          f"link: {2 * m} nodes, degrees [{q + 1}], girth 6, diameter 3\n")
    return EXIT_OK


def run_centralizer(pres, word):
    """Full pipeline: the quotient graph, its fundamental group, the result
    of ``simplify`` and the seconds they took."""
    start = time.perf_counter()
    graph = build_quotient(pres, word)
    presentation = bassserre.fundamental_group(graph)
    result = bassserre.simplify(graph)
    return graph, presentation, result, time.perf_counter() - start


def structured_report(graph, presentation, result) -> dict:
    """The run report that ``--format structured`` prints."""
    simplified = isinstance(result, bassserre.IsoType)
    return {
        "element": list(graph.element),
        "n": graph.n,
        "classification": graph.classification,
        "graph": graph.to_json(),
        "fundamental_group": presentation.to_json(),
        "isotype": result.render() if simplified else None,
        "simplified": simplified,
        "centralizer": "Z" if graph.classification == "single_axis" else None,
        "witnesses": {label: str(w) for label, w in vertex_witnesses(graph).items()},
    }


def cmd_centralizer(args) -> int:
    pres = _load(args.presentation)
    word = _parse_word(args.word, pres)
    graph, presentation, result, elapsed = run_centralizer(pres, word)

    if args.format == "structured":
        report = structured_report(graph, presentation, result)
        _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    elif args.format == "dot":
        _emit(graph.to_dot(), args.out)
    else:
        lines = []
        lines.append(f"presentation {args.presentation} (sha256 {_presentation_id(pres)})")
        lines.append(f"element g = {','.join(str(x) for x in word)}  |g| = {graph.n} edges")
        lines.append(f"classification: {graph.classification}")
        if graph.classification == "single_axis":
            lines.append("the element has a single axial wall; its centralizer is "
                         "infinite cyclic, Z_Gamma(g) = Z")
            lines.append(f"quotient group: cyclic of order {graph.vertices[0].group_order}")
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
    try:
        seq = word * (n // len(word))
    except (OverflowError, MemoryError):
        raise UnsupportedInput(f"--length {n} is too long: its wall cannot be built") from None
    labels, period = wall_word(pres, seq)
    strips = enumerate_periodic_strips(pres, labels)
    # wall-stabilizer classes, in enumeration order, by the start pairs of
    # the readings that build_quotient registers for an edge at its own wall:
    # [first strip's rows, its period, phases]
    classes, class_of = [], {}  # start pair (s_0, t_0) -> index in classes
    for rows, start in strips:
        if start not in class_of:
            pe = minimal_period(rows)
            own = anchored_readings(rows, pe, period)[0]
            class_of.update(dict.fromkeys(own, len(classes)))
            classes.append([rows, pe, 0])
        classes[class_of[start]][2] += 1
    if args.format == "structured":
        payload = {
            "wall": list(labels),
            "period": period,
            "strip_classes": [
                {
                    "representative": strip_json(rows),
                    "phases": phases,
                    "strip_period": pe,
                    "opposite_wall": [row[3] for row in rows],
                    "flip_shifts": flip_shifts(rows, pe),
                }
                for rows, pe, phases in classes
            ],
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    else:
        label = ",".join(str(x) for x in labels[:period])
        lines = [f"wall ({label}) at length {n}: "
                 f"{len(classes)} strip class(es), {len(strips)} anchored strip(s)"]
        for num, (rows, pe, phases) in enumerate(classes):
            a, s, t, b, u = zip(*rows)
            lines.append(f"strip class {num} ({phases} phase(s), period {pe}):")
            lines.append(f"  base a     = {a}")
            lines.append(f"  diagonal s = {s}")
            lines.append(f"  diagonal t = {t}")
            lines.append(f"  opposite b = {b}")
            lines.append(f"  diagonal u = {u}")
            fs = flip_shifts(rows, pe)
            if fs:
                lines.append(f"  flip shifts {fs}: glide step {fs[0]}+1/2, "
                             f"median group order {2 * n // pe}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 3, not argparse's 2, and
    for which ``--opt=--`` gives no value to ``--opt``, as ``--opt --`` does.

    Subcommand parsers are made with the same class.
    """

    def _get_values(self, action, arg_strings):
        # argparse drops "--" from the values before converting them, which
        # on Python 3.10 and 3.11 turns ``--opt=--`` into a list that skips
        # ``type`` and ``choices``; later versions keep "--" as the value
        if action.option_strings and arg_strings == ["--"]:
            raise argparse.ArgumentError(action, "expected one argument")
        return super()._get_values(action, arg_strings)

    def error(self, message):
        self.exit(EXIT_UNSUPPORTED, f"error: {self.prog}: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one command-line parser, built on first use: an
    argparse parser is a web of reference cycles, so a parser per call
    would leave it to the cyclic collector each time.  Parsing leaves the
    parser unchanged; callers must not change it either."""
    parser = _Parser(
        prog="a2cent",
        description="Centralizers in A~2 triangle-presentation groups")
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="validate a presentation document")
    p_val.add_argument("presentation", help="path or builtin:<id> (builtin:c1)")
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
    p_str.add_argument("--length", type=_decimal, default=None,
                       help="analyze the wall at this g-period (multiple of the word length)")
    p_str.add_argument("--format", choices=("text", "structured"), default="text")
    p_str.add_argument("--out", default=None)
    p_str.set_defaults(func=cmd_strips)

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
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return _run(args.func, args)


if __name__ == "__main__":
    sys.exit(main())
