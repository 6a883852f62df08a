import contextlib
import hashlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a2cent.cli import (EXIT_INTERNAL, EXIT_OK, EXIT_UNSUPPORTED,
                        EXIT_VALIDATION, main, run_centralizer)
from a2cent.walls import wall_necklaces


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_builtin(capsys):
    code, out, err = run(capsys, "validate", "builtin:c1")
    assert code == EXIT_OK
    assert "m=7 q=2" in out
    assert "14 nodes" in out and "girth 6" in out


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


def test_centralizer_not_a_wall_word(capsys):
    code, _out, err = run(capsys, "centralizer", "builtin:c1", "--word", "0,2")
    assert code == EXIT_UNSUPPORTED
    assert "not a wall word" in err or "bent" in err or "pair" in err


def test_centralizer_unparsable_word(capsys):
    code, out, err = run(capsys, "centralizer", "builtin:c1", "--word", "0,x")
    assert code == EXIT_UNSUPPORTED
    assert out == ""
    assert err.startswith("error: cannot parse element") and "Traceback" not in err


def test_centralizer_index_out_of_range(capsys):
    code, _out, err = run(capsys, "centralizer", "builtin:c1", "--word", "0,9")
    assert code == EXIT_UNSUPPORTED
    assert err == "error: generator index 9 out of range 0..6\n"


@pytest.mark.parametrize("argv", [
    ["centralizer", "{path}", "--word", "0,5"],
    ["strips", "{path}", "--wall", "0,5"],
    ["link", "{path}"],
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
    code, _out, err = run(capsys, "link", str(path))
    assert code == EXIT_VALIDATION
    assert err.startswith("error: cannot read presentation")


@pytest.mark.parametrize("length", ["0", "-2"])
def test_strips_length_not_positive(capsys, length):
    code, out, err = run(capsys, "strips", "builtin:c1", "--wall", "0,5", "--length", length)
    assert code == EXIT_UNSUPPORTED
    assert out == ""
    assert err == f"error: --length {length} is not positive\n"


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.lists(st.integers(min_value=-2, max_value=9), min_size=1, max_size=5)
    .map(lambda xs: ",".join(map(str, xs))),
    st.text(alphabet="0123456789,-x ", max_size=8)))
def test_centralizer_exit_codes_over_words(word):
    """Any --word ends in exit 0 or 3; a failure is one error line and no output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["centralizer", "builtin:c1", f"--word={word}", "--format", "structured"])
    assert code in (EXIT_OK, EXIT_UNSUPPORTED)
    if code == EXIT_UNSUPPORTED:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


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


def test_link(capsys):
    code, out, _err = run(capsys, "link", "builtin:c1")
    assert code == EXIT_OK
    assert out.strip() == "link graph: 14 nodes, 3-regular, girth 6, diameter 3"


def test_structured_output_byte_stable_through_length_6(c1):
    """sha256 of the structured reports of every c1 wall necklace of length
    1-6, by length then lexicographically, as produced before strips were
    stored as rows."""
    digest = hashlib.sha256()
    for n in range(1, 7):
        for word in wall_necklaces(c1, n):
            report = run_centralizer(c1, word)[0]
            digest.update((json.dumps(report, indent=2, sort_keys=True) + "\n").encode())
    assert digest.hexdigest() == \
        "2f2ba0b47a2b37d59b65a56224356990d7e3274612fc66fd580a1522148a6da4"


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
