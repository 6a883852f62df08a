"""Smoke tests of the scripts under scripts/ and of the benchmark's
self-test, each run as a fresh process but the mutant generator, which is
imported and not run."""

import ast
import os
import subprocess
import sys
from pathlib import Path

from a2cent.walls import wall_necklaces

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_scan_wall_words(c1):
    proc = run_script("scan_wall_words.py", "--max-len", "2")
    assert proc.returncode == 0, proc.stderr
    words = [w for n in (1, 2) for w in wall_necklaces(c1, n)]
    assert len(words) == 16
    rows = proc.stdout.split("\n\n")[0].splitlines()
    assert [row.split("  ")[0].strip() for row in rows] == [str(w) for w in words]
    assert "classification counts: {'graph_of_groups': 11, 'single_axis': 5}" in proc.stdout


def test_benchmark_selftest():
    """perfbench/ reads a2cent names such as TrianglePresentation.straight;
    its self-test fails if one of them is gone."""
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "selftest ok"


def import_mutants():
    sys.path.insert(0, str(ROOT / "scripts"))
    try:
        import mutants
    finally:
        sys.path.remove(str(ROOT / "scripts"))
    return mutants


def test_mutants_of_one_module():
    """scripts/mutants.py makes every kind of mutant of a module, each one
    changed line that still parses, without running any of them, and
    defaults to every module of the package."""
    mutants = import_mutants()
    source = (ROOT / "src" / "a2cent" / "bassserre.py").read_text()
    unparsed = ast.unparse(ast.parse(source))
    found = list(mutants.mutants("bassserre"))
    assert len(found) > 50
    kinds = {m.change.split(" -> ")[0] for m in found}
    assert {"Lt", "Eq", "NotIn", "And", "Or", "Add", "Sub", "1", "call", "not"} <= kinds
    for m in found:
        assert m.module == "bassserre"
        assert m.source != unparsed
        ast.parse(m.source)
        before = source.splitlines()[m.lineno - 1].strip()
        assert m.line != before, m
    assert {"simplify", "simplify.find"} <= {m.function for m in found}
    assert len({m.key() for m in found}) == len(found)
    # a dropped call statement and a dropped ``not``, at the collector pause:
    # each dropped call names itself, so the two keep distinct keys
    source = (ROOT / "src" / "a2cent" / "quotient.py").read_text().splitlines()
    paused = {(source[m.lineno - 1].strip(), m.change, m.line)
              for m in mutants.mutants("quotient") if m.function == "_collector_paused.paused"}
    assert {("gc.disable()", "call -> None", "None  # gc.disable()"),
            ("gc.enable()", "call -> None", "None  # gc.enable()"),
            ("if not gc.isenabled():", "not -> not not", "if not not gc.isenabled():")} <= paused
    # with no arguments the probe covers every module of the package
    modules = mutants.package_modules()
    assert "__init__" not in modules
    assert {"bassserre", "cli", "errors", "frozen"} <= set(modules)


def test_equivalent_mutants_are_still_generated():
    """Every site that scripts/mutants.py lists as equivalent is a mutant of
    the current source, so an entry left behind by a change to its line
    fails here rather than going unread."""
    mutants = import_mutants()
    modules = {module for (module, _function, _line) in mutants.EQUIVALENT}
    generated = {m.key() for module in modules for m in mutants.mutants(module)}
    assert set(mutants.EQUIVALENT) - generated == set()
