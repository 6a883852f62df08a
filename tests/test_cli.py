import contextlib
import errno
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from a2cent import cli
from a2cent.cli import (EXIT_INTERNAL, EXIT_OK, EXIT_UNSUPPORTED, EXIT_VALIDATION,
                        _discard_stdout, main, run_centralizer, structured_report)
from a2cent.errors import AmbiguousStrip, InvariantError
from a2cent.presentation import BUILTIN_PRESENTATIONS, load_named
from a2cent.quotient import QuotientGraphOfGroups
from a2cent.strips import enumerate_periodic_strips, strip_json
from a2cent.walls import wall_necklaces, wall_word
from presentations import OTHER_Q2, SINGER_Q4, deep_walls, relabelled_c1
from strip_oracle import group_by_wall_shifts


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_builtin(capsys):
    assert run(capsys, "validate", "builtin:c1") == (
        EXIT_OK,
        "ok: m=7 q=2 relator classes=7 link: 14 nodes, degrees [3], girth 6, diameter 3\n", "")


def test_validate_prints_the_plane_that_load_proved(capsys, tmp_path):
    """SINGER_Q4, read from a file: a projective plane of order 4 has 42
    nodes of degree 5."""
    path = tmp_path / "singer_q4.json"
    path.write_text(SINGER_Q4.dumps())
    assert run(capsys, "validate", str(path)) == (
        EXIT_OK,
        "ok: m=21 q=4 relator classes=35 link: 42 nodes, degrees [5], girth 6, diameter 3\n", "")


def test_validate_rejects_bad_document(tmp_path, capsys):
    doc = tmp_path / "bad.json"
    doc.write_text(json.dumps({"generators": 7, "relators": [[1, 1, 1]]}))
    code, _out, err = run(capsys, "validate", str(doc))
    assert code == EXIT_VALIDATION
    assert "torsion triple" in err


def test_validate_missing_file(capsys):
    code, _out, err = run(capsys, "validate", "/nonexistent/p.json")
    assert code == EXIT_VALIDATION


def test_centralizer_text(capsys):
    code, out, _err = run(capsys, "centralizer", "builtin:c1", "--word", "0,5")
    assert code == EXIT_OK
    assert "classification: graph_of_groups" in out
    assert "first Betti number: 1" in out
    assert "isomorphism type: Z * (Z/2)^{*2} * (Z/4)" in out
    assert "x6^-1 x2 x6" in out


def test_centralizer_text_presentation_id(capsys, tmp_path, monkeypatch):
    """The id line is the parent's for builtin:c1 and the same for a JSON
    copy of c1, and the presentation is loaded once per run."""
    from a2cent import cli
    calls = []

    def counting_load_named(*args, **kwargs):
        calls.append(args)
        return load_named(*args, **kwargs)

    monkeypatch.setattr(cli, "load_named", counting_load_named)
    code, out, _err = run(capsys, "centralizer", "builtin:c1", "--word", "0,5")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "presentation builtin:c1 (sha256 94e3d05979bf)"
    assert len(calls) == 1
    path = tmp_path / "c1.json"
    path.write_text(json.dumps(BUILTIN_PRESENTATIONS["c1"]))
    code, out, _err = run(capsys, "centralizer", str(path), "--word", "0,5")
    assert code == EXIT_OK
    assert out.splitlines()[0] == f"presentation {path} (sha256 94e3d05979bf)"
    assert len(calls) == 2


def test_structured_and_dot_runs_do_not_import_hashlib():
    # nor dataclasses and the inspect, ast and dis it pulls in: every cold
    # start would pay for them
    code = ("import contextlib, io, sys\n"
            "from a2cent.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    for fmt in ('structured', 'dot'):\n"
            "        main(['centralizer', 'builtin:c1', '--word', '0,5', '--format', fmt])\n"
            "print([m for m in ('hashlib', 'dataclasses', 'inspect') if m in sys.modules])\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_centralizer_single_axis(capsys):
    code, out, _err = run(capsys, "centralizer", "builtin:c1", "--word", "0,1")
    assert code == EXIT_OK
    assert "classification: single_axis" in out
    assert "Z_Gamma(g) = Z" in out


def test_centralizer_structured_and_stable(capsys):
    code, out1, err1 = run(capsys, "centralizer", "builtin:c1",
                           "--word", "0,1,4", "--format", "structured")
    assert code == EXIT_OK
    assert err1 == ""  # timing goes to stderr only in text mode
    code, out2, _err = run(capsys, "centralizer", "builtin:c1",
                           "--word", "0,1,4", "--format", "structured")
    assert out1 == out2  # byte-stable
    doc = json.loads(out1)
    assert doc["isotype"] == "Z^{*2} * (Z/2)^{*5}"
    assert doc["graph"]["betti_number"] == 2
    assert len(doc["graph"]["vertices"]) == 12
    assert doc["simplified"] is True


def test_centralizer_rotated_word_same_structured_output(capsys):
    _c, out1, _e = run(capsys, "centralizer", "builtin:c1",
                       "--word", "0,5", "--format", "structured")
    _c, out2, _e = run(capsys, "centralizer", "builtin:c1",
                       "--word", "5,0", "--format", "structured")
    assert out1 == out2


def test_centralizer_dot(capsys, tmp_path):
    out_file = tmp_path / "g.dot"
    code, out, _err = run(capsys, "centralizer", "builtin:c1", "--word", "0,5",
                          "--format", "dot", "--out", str(out_file))
    assert code == EXIT_OK
    text = out_file.read_text()
    assert text.startswith("graph quotient {")
    assert "style=dashed" in text


@pytest.mark.parametrize("fmt", ["text", "dot"])
def test_text_and_dot_runs_do_not_build_the_structured_report(capsys, monkeypatch, fmt):
    def refuse(self):
        raise AssertionError("the structured report was built")

    monkeypatch.setattr(QuotientGraphOfGroups, "to_json", refuse)
    code, out, _err = run(capsys, "centralizer", "builtin:c1", "--word", "0,1,4", "--format", fmt)
    assert code == EXIT_OK
    assert out


def test_run_centralizer_times_its_own_work():
    pres = load_named("c1")
    start = time.perf_counter()
    *_, elapsed = run_centralizer(pres, (0, 1, 4))
    assert 0 < elapsed <= time.perf_counter() - start


def test_centralizer_not_a_wall_word(capsys):
    # in 5,0,2 the pair (5, 0) is straight and (0, 2) bends
    code, out, err = run(capsys, "centralizer", "builtin:c1", "--word", "5,0,2")
    assert code == EXIT_UNSUPPORTED
    assert out == ""
    assert err == ("error: not a wall word: pair x0,x2 at position 1 lies on a common triangle "
                   "(the path bends); regular, median-line and general elements are outside "
                   "the supported class\n")


def test_centralizer_unparsable_word(capsys):
    code, out, err = run(capsys, "centralizer", "builtin:c1", "--word", "0,x")
    assert code == EXIT_UNSUPPORTED
    assert out == ""
    assert err.startswith("error: cannot parse element") and "Traceback" not in err


@pytest.mark.parametrize("command, option, text", [
    ("centralizer", "--word", "0_5"),
    ("centralizer", "--word", "+5"),
    ("centralizer", "--word", " 0, 5"),
    ("centralizer", "--word", "0,5 "),
    ("centralizer", "--word", "0,--5"),
    ("strips", "--wall", "\u0660,\u0665"),
    ("strips", "--wall", "0,\u00b2"),
], ids=["underscore", "plus", "spaces", "trailing-space", "two-signs", "arabic-indic", "superscript"])
def test_element_fields_are_ascii_decimal_integers(capsys, command, option, text):
    """``int`` alone reads each of these as an integer: 0_5 as 5, which is
    the centralizer of another element.  A field must be ASCII digits after
    at most one minus sign."""
    code, out, err = run(capsys, command, "builtin:c1", f"{option}={text}")
    assert (code, out) == (EXIT_UNSUPPORTED, "")
    assert err == f"error: cannot parse element {text!r}: expected comma-separated indices\n"


def test_a_negative_index_is_out_of_range(capsys):
    code, out, err = run(capsys, "centralizer", "builtin:c1", "--word=-1,0")
    assert (code, out) == (EXIT_UNSUPPORTED, "")
    assert err == "error: generator index -1 out of range 0..6\n"


@pytest.mark.parametrize("length", ["1_0", "+4", " 4", "\u0664", "4" * 5000],
                         ids=["underscore", "plus", "space", "arabic-indic", "5000-digits"])
def test_strips_length_is_an_ascii_decimal_integer(length):
    """--length takes the rule of --wall through its argparse type: any
    other text is a usage error, exit 3 on one line."""
    code, out, err = run_argv(["strips", "builtin:c1", "--wall", "0,5", f"--length={length}"])
    assert (code, out) == (EXIT_UNSUPPORTED, "")
    assert err == (f"error: a2cent strips: argument --length: "
                   f"not a decimal integer: {length!r}\n")


def test_centralizer_index_out_of_range(capsys):
    # c1 has m = 7 generators: index 7 is the least out of range
    for index in (7, 9):
        code, out, err = run(capsys, "centralizer", "builtin:c1", "--word", f"0,{index}")
        assert code == EXIT_UNSUPPORTED
        assert out == ""
        assert err == f"error: generator index {index} out of range 0..6\n"


def test_exit_codes_are_the_documented_values():
    """The other tests compare against the names; README documents the numbers."""
    assert (EXIT_OK, EXIT_VALIDATION, EXIT_UNSUPPORTED, EXIT_INTERNAL) == (0, 2, 3, 4)


@pytest.mark.parametrize("argv", [
    ["centralizer", "{path}", "--word", "0,5"],
    ["strips", "{path}", "--wall", "0,5"],
    ["validate", "{path}"],
], ids=lambda argv: argv[0])
def test_missing_presentation_file(capsys, tmp_path, argv):
    path = str(tmp_path / "missing.json")
    code, out, err = run(capsys, *[arg.format(path=path) for arg in argv])
    assert code == EXIT_VALIDATION
    assert out == ""
    assert err.startswith("error: cannot read presentation")


def test_malformed_presentation_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, out, err = run(capsys, "validate", str(path))
    assert code == EXIT_VALIDATION
    assert out == ""
    assert err.startswith("error: cannot read presentation")


@pytest.mark.parametrize("content", [
    b"\xff\xfe{}",
    b"[" * 100_000 + b"]" * 100_000,
], ids=["not-utf8", "nested-too-deep"])
def test_undecodable_presentation_file(capsys, tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "validate", str(path))
    assert code == EXIT_VALIDATION
    assert out == ""
    assert err.startswith("error: cannot read presentation")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["centralizer", "builtin:c1", "--word", "0,5", "--format", "structured"],
    ["centralizer", "builtin:c1", "--word", "0,5"],
    ["centralizer", "builtin:c1", "--word", "0,5", "--format", "dot"],
    ["strips", "builtin:c1", "--wall", "0,5"],
], ids=["structured", "text", "dot", "strips"])
@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_out_path_that_cannot_be_written(capsys, tmp_path, argv, target):
    out_path = tmp_path / "missing" / "x.json" if target == "missing-dir" else tmp_path
    code, out, err = run(capsys, *argv, "--out", str(out_path))
    assert code == EXIT_UNSUPPORTED
    assert out == ""
    assert err.startswith(f"error: cannot write --out {str(out_path)!r}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["centralizer", "builtin:c1", "--word", "0,5", "--format", "structured", "--out="],
    ["strips", "builtin:c1", "--wall", "0,5", "--out="],
], ids=["centralizer", "strips"])
def test_out_with_an_empty_path_is_a_path_that_cannot_be_written(capsys, argv):
    """``--out=`` names the empty path, which cannot be opened, not standard
    output."""
    code, out, err = run(capsys, *argv)
    assert code == EXIT_UNSUPPORTED
    assert out == ""
    assert err.startswith("error: cannot write --out '': ")
    assert err.count("\n") == 1 and "Traceback" not in err


class FullStdout(io.StringIO):
    """A buffered standard output on a full device: writes are buffered and
    the flush fails with ENOSPC."""

    def flush(self):
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("argv", [
    ["centralizer", "builtin:c1", "--word", "0,5", "--format", "structured"],
    ["centralizer", "builtin:c1", "--word", "0,5"],
    ["strips", "builtin:c1", "--wall", "0,5"],
    ["validate", "builtin:c1"],
], ids=["centralizer-structured", "centralizer-text", "strips", "validate"])
def test_stdout_that_cannot_be_written(capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "stdout", FullStdout())
    code = main(argv)
    err = capsys.readouterr().err
    assert code == EXIT_UNSUPPORTED
    assert err == "error: cannot write standard output: No space left on device\n"


def test_discarding_stdout_closes_the_descriptor_it_opens(tmp_path, monkeypatch):
    """Pointing stdout at the null device leaves no descriptor open: the
    lowest free descriptor is the same before and after."""
    def lowest_free():
        fd = os.open(os.devnull, os.O_RDONLY)
        os.close(fd)
        return fd

    with open(tmp_path / "out", "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        before = lowest_free()
        _discard_stdout()
        assert lowest_free() == before


@pytest.mark.parametrize("error", [AmbiguousStrip((0, 1, 2)),
                                   InvariantError("relation mentions undeclared generator h_(9)")],
                         ids=["ambiguous_strip", "invariant_error"])
def test_internal_error_exits_4_with_one_line(capsys, monkeypatch, error):
    """An internal assertion in a command, which no presentation is known
    to raise, exits 4 with one ``internal error:`` line and no output."""
    def build_quotient(pres, word):
        raise error
    monkeypatch.setattr(cli, "build_quotient", build_quotient)
    code, out, err = run(capsys, "centralizer", "builtin:c1", "--word", "0,5")
    assert (code, out, err) == (EXIT_INTERNAL, "", f"internal error: {error}\n")


def shifted_triples(m):
    """The relators [i, i+1, i+3] mod m: pair-unique with q = 2, and a plane
    only at m = 7."""
    return {"generators": m, "relators": [[i, (i + 1) % m, (i + 3) % m] for i in range(m)]}


@pytest.mark.parametrize("document, message", [
    ({"generators": 3, "relators": [[0, 0, 1], [0, 2, 2], [1, 1, 2]]},
     "error: link condition failure (6 nodes): link graph girth is 4, expected 6\n"),
    (shifted_triples(8),
     "error: link condition failure (16 nodes): link graph girth is 4, expected 6\n"),
    (shifted_triples(11),
     "error: link condition failure (22 nodes): link graph is not a projective plane: "
     "m = 11, expected q^2+q+1 = 7\n"),
], ids=["girth-4", "shifted-8", "shifted-11"])
@pytest.mark.parametrize("command", [
    ["validate"], ["centralizer", "--word", "0,1"], ["strips", "--wall", "0,1"],
], ids=lambda command: command[0])
def test_non_building_document_exits_2_in_every_command(capsys, monkeypatch, tmp_path, document,
                                                        message, command):
    """A pair-unique document of uniform thickness q = 2 whose link is no
    projective plane presents no A~2 building: every command exits 2 with
    the one link failure and no output, and neither builds a quotient nor
    walks a strip."""
    def refuse(*_args):
        raise AssertionError("a non-building reached the pipeline")

    monkeypatch.setattr(cli, "build_quotient", refuse)
    monkeypatch.setattr(cli, "enumerate_periodic_strips", refuse)
    path = tmp_path / "non_building.json"
    path.write_text(json.dumps(document))
    assert run(capsys, command[0], str(path), *command[1:]) == (EXIT_VALIDATION, "", message)


@pytest.mark.parametrize("argv", [
    ["validate", "--lenient", "builtin:c1"],
    ["link", "builtin:c1"],
], ids=["validate-lenient", "link"])
def test_removed_lenient_flag_and_link_command_are_usage_errors(argv):
    code, out, err = run_argv(argv)
    assert (code, out) == (EXIT_UNSUPPORTED, "")
    assert err.startswith("error: a2cent") and err.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ["centralizer", "builtin:c1", "--word", "0,5", "--format", "structured"],
    ["strips", "builtin:c1", "--wall", "0,5"],
    ["validate", "builtin:c1"],
], ids=["centralizer-structured", "strips", "validate"])
def test_entry_point_writing_to_a_full_device(argv):
    # A buffered stdout, as in a shell redirect: the interpreter's own flush
    # at exit must not fail again on the bytes that could not be written.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "a2cent.cli", *argv],
                              stdout=full, stderr=subprocess.PIPE, text=True, env=env)
    assert proc.returncode == EXIT_UNSUPPORTED
    assert proc.stderr == "error: cannot write standard output: No space left on device\n"


@pytest.mark.parametrize("document, message", [
    ([1, 2], "must be an object"),
    ({"generators": 7, "relators": 5}, "relators must be a list"),
    ({"generators": 7, "relators": [5]}, "relator 5 is not an integer triple"),
], ids=["not-an-object", "relators-not-a-list", "relator-not-a-list"])
def test_presentation_document_of_the_wrong_shape(capsys, tmp_path, document, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(document))
    code, out, err = run(capsys, "strips", str(path), "--wall", "0,5")
    assert code == EXIT_VALIDATION
    assert out == ""
    assert err.startswith("error: ") and message in err and "Traceback" not in err


@pytest.mark.parametrize("document, message", [
    ({"generators": 7, "relators": [[False if x == 0 else x for x in t]
                                    for t in BUILTIN_PRESENTATIONS["c1"]["relators"]]},
     "error: relator [False, False, 6] is not an integer triple\n"
     "error: relator [False, 2, 3] is not an integer triple\n"),
    ({"generators": True, "relators": [[0, 0, 0]]},
     "error: generators must be a positive integer, got True\n"),
], ids=["false-for-0", "generators-true"])
@pytest.mark.parametrize("command", [["validate"], ["centralizer", "--word", "0,5"]],
                         ids=["validate", "centralizer"])
def test_presentation_document_with_json_booleans(capsys, tmp_path, document, message, command):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(document))
    assert "false" in path.read_text() or "true" in path.read_text()
    code, out, err = run(capsys, command[0], str(path), *command[1:])
    assert code == EXIT_VALIDATION
    assert out == ""
    assert err == message


@pytest.mark.parametrize("length", ["0", "-2"])
def test_strips_length_not_positive(capsys, length):
    code, out, err = run(capsys, "strips", "builtin:c1", "--wall", "0,5", "--length", length)
    assert code == EXIT_UNSUPPORTED
    assert out == ""
    assert err == f"error: --length {length} is not positive\n"


@pytest.mark.parametrize("length", ["200000000000000000000", "4000000000000000000"],
                         ids=["overflow", "tuple-size"])
def test_strips_length_too_long_for_a_wall(capsys, length):
    """A length whose wall cannot be built exits 3 with one error line: the
    first overflows an index, the second fails the tuple size check before
    anything is allocated."""
    code, out, err = run(capsys, "strips", "builtin:c1", "--wall", "0,5", "--length", length)
    assert code == EXIT_UNSUPPORTED
    assert out == ""
    assert err == f"error: --length {length} is too long: its wall cannot be built\n"


def run_argv(argv):
    """(exit code, stdout, stderr) of main(argv), a parser exit included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv, expected", [
    (["validate", "builtin:c1"], EXIT_OK),
    (["strips", "builtin:c1", "--wall", "0,1,4"], EXIT_OK),
    (["centralizer", "builtin:c1", "--word", "0,1,4", "--format", "dot"], EXIT_OK),
    (["validate", "{missing}"], EXIT_VALIDATION),
    (["centralizer", "builtin:c1", "--word", "0,2"], EXIT_UNSUPPORTED),
    (["centralizer", "builtin:c1", "--word", "-1,0"], EXIT_UNSUPPORTED),
], ids=["validate", "strips-text", "centralizer-dot", "exit-2", "exit-3", "exit-3-usage"])
def test_commands_leave_no_cyclic_garbage(tmp_path, argv, expected):
    """After a first call, which builds the process's one parser, a command
    frees all it allocates by reference counting: with the collector off,
    a collection after the second call finds nothing.  Structured output
    and the text centralizer (its presentation id hashes
    ``TrianglePresentation.dumps``) are not covered: the stdlib's
    pure-Python JSON encoder, which ``indent=2`` selects, leaves its
    closures to the collector."""
    argv = [arg.format(missing=tmp_path / "missing.json") for arg in argv]
    assert run_argv(argv)[0] == expected
    gc.collect()
    gc.disable()
    try:
        code = run_argv(argv)[0]
        garbage = gc.collect()
    finally:
        gc.enable()
    assert (code, garbage) == (expected, 0)


def test_usage_error_exits_3():
    code, out, err = run_argv(["centralizer", "builtin:c1", "--word", "-1,0"])
    assert code == EXIT_UNSUPPORTED
    assert out == ""
    assert err == "error: a2cent centralizer: argument --word: expected one argument\n"


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.lists(st.integers(min_value=-2, max_value=9), min_size=1, max_size=5)
    .map(lambda xs: ",".join(map(str, xs))),
    st.text(alphabet="0123456789,-x ", max_size=8)))
@example("--")
def test_centralizer_exit_codes_over_words(word):
    """Any --word ends in exit 0 or 3; a failure is one error line and no output."""
    for argv in (["centralizer", "builtin:c1", f"--word={word}", "--format", "structured"],
                 ["centralizer", "builtin:c1", "--word", word, "--format", "structured"]):
        code, out, err = run_argv(argv)
        assert code in (EXIT_OK, EXIT_UNSUPPORTED)
        if code == EXIT_UNSUPPORTED:
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["centralizer", "builtin:c1", "--word=--"],
    ["strips", "builtin:c1", "--wall=--"],
    ["strips", "builtin:c1", "--wall", "0,5", "--length=--"],
    ["centralizer", "builtin:c1", "--word", "0,5", "--format=--"],
    ["centralizer", "builtin:c1", "--word", "0,5", "--out=--"],
], ids=["word", "wall", "length", "format", "out"])
def test_option_given_only_the_separator_is_a_usage_error(argv):
    """``--opt=--`` gives ``--opt`` no value, as ``--opt --`` does: a usage
    error, on one line, with nothing on standard output."""
    code, out, err = run_argv(argv)
    assert (code, out) == (EXIT_UNSUPPORTED, "")
    option = argv[-1].split("=")[0]
    assert err == f"error: a2cent {argv[0]}: argument {option}: expected one argument\n"


ARGV_TOKENS = ["validate", "centralizer", "strips", "link", "builtin:c1", "c1",
               "builtin:nope", "--word", "--wall", "--length", "--format", "--lenient",
               "structured", "text", "dot", "0,5", "5", "0,1,4", "0,2", "0,9", "-1,0",
               "2", "-2", "x", "", "--", "-h", "--bogus"]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(ARGV_TOKENS),
                          st.text(alphabet="-,=x0 ", max_size=5)), max_size=7))
def test_exit_codes_over_argv(argv):
    """Any command line ends in exit 0, 2 or 3, and a failure is reported
    on error: lines, never as a traceback."""
    code, _out, err = run_argv(argv)
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_UNSUPPORTED)
    assert "Traceback" not in err
    if code != EXIT_OK:
        assert err.startswith("error: ")


def test_strips_text(capsys):
    code, out, _err = run(capsys, "strips", "builtin:c1", "--wall", "0,5")
    assert code == EXIT_OK
    assert "3 strip class(es), 3 anchored strip(s)" in out


def test_strips_constant_wall_classes(capsys):
    code, out, _err = run(capsys, "strips", "builtin:c1",
                          "--wall", "6", "--length", "2")
    assert code == EXIT_OK
    assert "2 strip class(es), 3 anchored strip(s)" in out
    assert "median group order 4" in out


def test_strips_structured(capsys):
    code, out, _err = run(capsys, "strips", "builtin:c1", "--wall", "0,5",
                          "--format", "structured")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["wall"] == [0, 5]
    assert len(doc["strip_classes"]) == 3
    assert doc["strip_classes"][0]["flip_shifts"] == []


def test_strips_bad_length(capsys):
    code, _out, err = run(capsys, "strips", "builtin:c1",
                          "--wall", "0,5", "--length", "3")
    assert code == EXIT_UNSUPPORTED


def test_strips_not_a_wall(capsys):
    code, _out, _err = run(capsys, "strips", "builtin:c1", "--wall", "0,2")
    assert code == EXIT_UNSUPPORTED


def structured_digest(pres, words):
    """The number of words and the sha256 of their structured reports, in order."""
    digest = hashlib.sha256()
    count = 0
    for word in words:
        report = structured_report(*run_centralizer(pres, word)[:3])
        digest.update((json.dumps(report, indent=2, sort_keys=True) + "\n").encode())
        count += 1
    return count, digest.hexdigest()


def necklaces_through(pres, length):
    """Every wall necklace of length 1..length, by length then lexicographically."""
    return [w for n in range(1, length + 1) for w in wall_necklaces(pres, n)]


def test_structured_output_byte_stable_through_length_6(c1):
    """sha256 of the structured reports of every c1 wall necklace of length
    1-6, as produced before strips were stored as rows."""
    assert structured_digest(c1, necklaces_through(c1, 6))[1] == \
        "2f2ba0b47a2b37d59b65a56224356990d7e3274612fc66fd580a1522148a6da4"


@pytest.mark.parametrize("pres, expected", [
    (relabelled_c1(20111),
     (1029, "ed58f142d40e2ee9cf050cdbf3b794cfbb71e04eea67327feb528041ea52ee04")),
    (OTHER_Q2,
     (1034, "49ba5f4e909a2ab28a57b32540e3638bdaa4d0b20e2541153b853f2ef205e57e")),
], ids=["relabelled_c1", "other_q2"])
def test_structured_output_byte_stable_on_other_presentations(pres, expected):
    """Number and sha256 of the structured reports of every wall necklace of
    length 1-6, as produced before edges were deduplicated by their anchored
    readings."""
    assert structured_digest(pres, necklaces_through(pres, 6)) == expected


def test_structured_output_byte_stable_on_singer_q4():
    """Number and sha256 of the structured reports of every SINGER_Q4
    (m = 21) wall necklace of length 1-3, 3696 vertices in all, as produced
    before witness-tree suffixes were read from their strips on demand."""
    assert structured_digest(SINGER_Q4, necklaces_through(SINGER_Q4, 3)) == \
        (1533, "32a4d8cb47a883e64543032e056f5f97cde63f9b8db9f5c3673f20332c0108c4")


def test_structured_output_byte_stable_on_deep_walls(c1):
    """sha256 of the structured reports of 20 seeded primitive c1 walls of
    length 12-14, two of them with quotients of 784 and 876 vertices and
    BFS trees of depth 102 and 221, as produced before witness words were
    spelled on demand."""
    assert structured_digest(c1, deep_walls(c1))[1] == \
        "23a7a18b4636f5d1f78f888d39dab89e497c2267c1f07fb108ad4cea2759343a"


@pytest.mark.parametrize("base, k, expected", [
    ((0, 5), 2, "656122fda5bc352bc76b73a12dc9a4e98d956d74ec72674cd1d6ee8cef8d0ca0"),
    ((0, 5), 7, "29415e43219805b20f9565d947fc2b22bb90ddc44649f51c9861186ded03b16f"),
    ((0, 5), 40, "2d1ae1d7c8e1489c7b0729b56ece35735c556a7dbbd5d12a69c317afe8d87ce0"),
    ((0, 1, 4), 2, "d825ad4d26a3cfbe410c8f482f2f3ed7924a6231df78ec004257d76776243ef7"),
    ((0, 1, 4), 7, "2d9d10679f016ada971b2a3c3db67fd287d5b1e2a495696a72d3422073cd9f6a"),
    ((0, 1, 4), 40, "04907361990126dcb2b1d41e0b5c202ad00c6e7dcd8ad697e8dec13ee9668144"),
], ids=str)
def test_structured_output_byte_stable_on_powers_of_the_fixtures(c1, base, k, expected):
    """sha256 of the structured report of h^k, as produced before walls,
    strips and median labels were scanned over one period instead of all n
    phases."""
    assert structured_digest(c1, [base * k]) == (1, expected)


@pytest.mark.parametrize("word, expected", [
    ("5,0,4,4,0,5,3,2,2,5,5,5,5,6,5,0",
     "8b36ea420888de1f28918466c910ed5a4cd33cfeb57dede739a1cfd83cd9f715"),
    ("5,5,0,3,1,4,0,5,0,4,3,2,5,5",
     "5ee0a2a59d677f57c766cf3652650068ec01ed6c8ef14fab21be056ce1e7cb37"),
    ("0,5,5,5,3,3,2,5,5,6,5,3,2,1",
     "4dc9b127333c4613f0104ddd51f77d2bbd099102fbb67a01b7c8eedd8dc5ce29"),
    ("2,1,0,1,1,6,4,2,5,0,3,6,5,3,6,2",
     "7a0578a99b4fed4cc0a73a9c87ced72f66cc8b055b7ae6ce9314eec8d23e17f9"),
], ids=["120_vertices", "176_vertices", "318_vertices", "360_vertices"])
def test_centralizer_structured_byte_stable_on_big_graphs_words(capsys, word, expected):
    """sha256 of ``centralizer --format structured`` on four words of the
    benchmark's big-graphs catalog (perfbench/golden/big_graphs.json), the
    middle word of each quarter of its op-time order, as produced before
    wall periods were carried through the BFS."""
    code, out, _err = run(capsys, "centralizer", "builtin:c1", "--word", word,
                          "--format", "structured")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == expected


@pytest.mark.parametrize("word, fmt, expected", [
    ("0,5", "text", "60c0d2c7499b271797a93f1d5d756bf14a133766508c4a3be31090ecca33d331"),
    ("0,5", "dot", "820626a1fe06e1eb0dd92575fb245986efbf63d3000cc3d9c8ec6ef7e73536b5"),
    ("0,1,4", "text", "7c11373a45db9fb0e27a68b18bf4a730f323252228affc64465b2ab417634c28"),
    ("0,1,4", "dot", "77ca8a29261681f34ec7e05848fafe1e1f776334c34cd88e3244cae600e36c19"),
    ("5,5", "text", "26a6a3f2686b077ba66360661812623d366e25b4b019c4749375db82d1695e78"),
    ("0,1,0,3,1,1,1,4", "text",
     "aca0331992ca908ff6d1eadb5c2db9fdb2acaa7604f62941943521be5f41add3"),
], ids=["0,5-text", "0,5-dot", "0,1,4-text", "0,1,4-dot", "5,5-text", "0,1,0,3,1,1,1,4-text"])
def test_centralizer_text_and_dot_byte_stable_on_paper_figures(capsys, word, fmt, expected):
    """sha256 of ``centralizer`` standard output in the text and dot formats
    on the two paper figures: every vertex, edge, group, witness and shape;
    and in the text format on a single-axis power, with its quotient group
    line, and on a word whose quotient does not simplify."""
    code, out, _err = run(capsys, "centralizer", "builtin:c1", "--word", word, "--format", fmt)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == expected


BIG_GRAPHS_CATALOG = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "golden",
                                  "big_graphs.json")


@pytest.mark.slow
def test_structured_output_byte_stable_on_the_big_graphs_catalog(c1):
    """Number and sha256 of the structured reports of every word of the
    benchmark's big-graphs catalog (perfbench/golden/big_graphs.json), in
    catalog order, as produced before edges were deduplicated by start
    pairs."""
    with open(BIG_GRAPHS_CATALOG, encoding="utf-8") as fh:
        catalog = json.load(fh)["catalog"]
    words = [tuple(int(x) for x in entry["word"].split(",")) for entry in catalog]
    assert structured_digest(c1, words) == \
        (129, "32d27b726e59445bb818f29820ca554df1ee63fd4f8389b739559e7652f49716")


@pytest.mark.parametrize("wall, fmt, expected", [
    ("0,5", "structured", "19d7538ffe6a8437318f41c2155e734b4ee1b43a03178da5016950edab73cb4f"),
    ("0,5", "text", "f349102cc798dd2a1ef88cea3a90e05b2882c60f06b02a74dc0f60af902bc9a5"),
    ("0,1,4", "structured", "469cf8323e358ad3f6fb180cd699e4beca91a580e5e897486e94f2bd65917fc9"),
    ("0,1,4", "text", "ac1b44e90095c354f192e1db68b9bd100e7e6967752a4ec91cb5f2e8ab7b24d7"),
    ("6", "structured", "3e0199165307e279794cfa679ab53280a964c05633363800962904c29faa3bdd"),
    ("6", "text", "e8689b4c173182c51a40add596ec65a827ac230e94523e1ec85320ed2631ac93"),
], ids=["0,5-structured", "0,5-text", "0,1,4-structured", "0,1,4-text", "6-structured",
        "6-text"])
def test_strips_output_byte_stable_at_length_2400(capsys, wall, fmt, expected):
    """sha256 of ``strips --length 2400`` on the fixtures and the wall (6):
    hundreds of walk steps through the window memo, as produced while the
    row chains were read from a transition table."""
    code, out, _err = run(capsys, "strips", "builtin:c1", "--wall", wall, "--length", "2400",
                          "--format", fmt)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == expected


def strips_digest(capsys, presentation, walls):
    """The number of runs and the sha256 of ``a2cent strips`` output over
    the walls in order, each at --length n and 2n in both formats."""
    digest = hashlib.sha256()
    runs = 0
    for wall in walls:
        for length in (len(wall), 2 * len(wall)):
            for fmt in ("text", "structured"):
                code, out, err = run(capsys, "strips", presentation,
                                     "--wall", ",".join(map(str, wall)),
                                     "--length", str(length), "--format", fmt)
                assert code == EXIT_OK, err
                digest.update(out.encode())
                runs += 1
    return runs, digest.hexdigest()


@pytest.mark.parametrize("name, expected", [
    ("c1", (1300, "9465acef06c56f1a49f39703cd5675a8019a7165f1c2ba24557681945a14bd0d")),
    ("other_q2", (1332, "86d8afc0c0e232407160458613416a9bc6e0c878b84e6886f27cf13037370ada")),
])
def test_strips_output_byte_stable_through_length_5(capsys, tmp_path, name, expected):
    """Number of runs and sha256 of the strips output at every wall
    necklace of length 1-5 of c1 and of OTHER_Q2, read from a file, as
    produced while the classes were grouped by wall shifts."""
    if name == "c1":
        pres, argument = load_named("c1"), "builtin:c1"
    else:
        pres, argument = OTHER_Q2, str(tmp_path / "other_q2.json")
        (tmp_path / "other_q2.json").write_text(OTHER_Q2.dumps())
    assert strips_digest(capsys, argument, necklaces_through(pres, 5)) == expected


def test_strips_classes_equal_wall_shift_reference(capsys, tmp_path):
    """On a relabelled c1, read from a file, the structured strips output at
    every wall necklace of length 1-5, at --length n and 2n, lists the
    classes of the reference grouping by wall shifts: same representatives,
    same sizes, same order."""
    pres = relabelled_c1(20111)
    path = tmp_path / "relabelled_c1.json"
    path.write_text(pres.dumps())
    classes_seen = strips_seen = 0
    for wall in necklaces_through(pres, 5):
        for length in (len(wall), 2 * len(wall)):
            code, out, err = run(capsys, "strips", str(path), "--wall", ",".join(map(str, wall)),
                                 "--length", str(length), "--format", "structured")
            assert code == EXIT_OK, err
            labels, period = wall_word(pres, wall * (length // len(wall)))
            strips = [rows for rows, _start in enumerate_periodic_strips(pres, labels)]
            expected = group_by_wall_shifts(strips, period)
            assert [(c["representative"], c["phases"]) for c in json.loads(out)["strip_classes"]] \
                == [(strip_json(cls[0]), len(cls)) for cls in expected], (wall, length)
            classes_seen += len(expected)
            strips_seen += sum(len(cls) for cls in expected)
    assert (classes_seen, strips_seen) == (882, 1048)


def test_entry_point_error_has_no_traceback():
    proc = subprocess.run(
        [sys.executable, "-m", "a2cent.cli", "centralizer", "builtin:c1",
         "--word", "0,9"],
        capture_output=True, text=True)
    assert proc.returncode == EXIT_UNSUPPORTED
    assert proc.stderr == "error: generator index 9 out of range 0..6\n"


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "a2cent.cli", "centralizer", "builtin:c1",
         "--word", "0,5"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "Z * (Z/2)^{*2} * (Z/4)" in proc.stdout
    assert "elapsed" in proc.stderr
