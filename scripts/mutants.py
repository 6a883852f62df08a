#!/usr/bin/env python3
"""Mutation probe: run the tier-1 tests on small mutants of a2cent's modules.

A mutant changes one node of a module's syntax tree, in one of six ways:

- swap a comparison: < and <=, > and >=, == and !=, in and not in;
- add 1 to an integer constant;
- swap and / or;
- swap + and - (also in += and -=);
- drop a call statement: ``f(x)`` becomes ``None``;
- drop a ``not``: ``not x`` becomes ``not not x``.

Each mutant is written with ast.unparse into a copy of the checkout in a
temporary directory, and the tier-1 tests run there with -x and a 180 s
timeout, the module's own test file first, in two copies at a time.  A
mutant whose run passes survives; a timeout counts as killed.  The
unmutated module, unparsed the same way, must pass first.  Survivors at
the sites in EQUIVALENT are reported with the reason they cannot change an
output; any other survivor marks a missing test or unneeded code, and makes
the exit status 1.

Usage: python scripts/mutants.py [bassserre walls ...]   (default: every module)
"""

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from queue import Queue

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "a2cent"
JOBS = 2
TIMEOUT = 180  # seconds per tier-1 run; a clean run takes 15-30 s
# the test that checks EQUIVALENT against the source, which each run mutates
# (or unparses), so it would fail there whatever the mutant changes
OWN_TEST = "tests/test_scripts.py::test_equivalent_mutants_are_still_generated"

DROP_CALL, DROP_NOT = "call -> None", "not -> not not"
SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
         ast.And: ast.Or, ast.Or: ast.And, ast.Add: ast.Sub, ast.Sub: ast.Add}

# (module, enclosing function, mutated source line) -> why no output can change
EQUIVALENT = {
    ("strips", "swapped_rows", "in zip(rows, rows[1:] + rows[:2])])"):
        "zip stops at the shorter list, so rows[:2] gives the same pairs",
    ("walls", "check_wall_sequence", "pairs = tuple(zip(seq, seq[1:] + seq[:2]))"):
        "zip stops at the shorter list, so seq[:2] gives the same pairs",
    ("walls", "least_rotation", "canon = doubled[r:r - n]"):
        "r < n, so the stop r - n counts back from the end of the doubled sequence, of length 2n, "
        "to n + r",
    ("walls", "least_rotation", "rotation = doubled[s:s - n]"):
        "s < n, so the stop s - n counts back from the end of the doubled sequence, of length 2n, "
        "to n + s",
    ("presentation", "load",
     'issues.append(f"torsion triple {t}: x{t[1]}^3 = 1 contradicts torsion-freeness")'):
        "a torsion triple has t[0] == t[1]",
    ("presentation", "load", "q = counts[1] - 1"):
        "every generator heads the same number of rotations here, and m >= 2, as one generator "
        "has only the torsion triple",
    ("bassserre", "IsoType.render", "elif self.free_rank >= 1:"):
        "the branch is reached only when free_rank != 1",
    ("bassserre", "smith_diagonal", "stray = next((i for i in range(p - 1, m)"):
        "rows p - 1 and p are zero right of column p, and row -1 is the last row",
    ("bassserre", "smith_diagonal", "for j in range(p - 1, n) if a[i][j] % pivot), None)"):
        "columns p - 1 and p are zero below row p, and column -1 is the last column",
    ("bassserre", "smith_diagonal", "a[p] = [x - y for x, y in zip(a[p], a[stray])]"):
        "subtracting the stray row leaves a remainder just as adding it does",
    ("bassserre", "abelianization", "row[index[sym]] -= e"):
        "the negated relation matrix has the same Smith normal form",
}


class Mutant:
    __slots__ = ("module", "lineno", "function", "line", "change", "source")

    def __init__(self, module, lineno, function, line, change, source):
        self.module = module
        self.lineno = lineno
        self.function = function
        self.line = line  # the mutated source line, stripped
        self.change = change
        self.source = source

    def key(self):
        return (self.module, self.function, self.line)

    def __str__(self):
        return f"{self.module}.py:{self.lineno} {self.change:<12} {self.line}"


def _sites(tree):
    """(node, index of the operator in a comparison, change, enclosing
    function) for every mutable node, in a fixed order."""
    def walk(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            function = f"{function}.{node.name}" if function else node.name
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    yield node, i, f"{type(op).__name__} -> {SWAPS[type(op)].__name__}", function
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            yield node, None, f"{node.value} -> {node.value + 1}", function
        elif isinstance(node, (ast.BoolOp, ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            swapped = SWAPS[type(node.op)].__name__
            yield node, None, f"{type(node.op).__name__} -> {swapped}", function
        elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            yield node, None, DROP_CALL, function
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            yield node, None, DROP_NOT, function
        for child in ast.iter_child_nodes(node):
            yield from walk(child, function)
    yield from walk(tree, "")


def _apply(node, index):
    if isinstance(node, ast.Compare):
        node.ops[index] = SWAPS[type(node.ops[index])]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    elif isinstance(node, ast.Expr):
        node.value = ast.Constant(None)
    elif isinstance(node, ast.UnaryOp):
        node.operand = ast.UnaryOp(ast.Not(), node.operand)
    else:
        node.op = SWAPS[type(node.op)]()


def mutants(module):
    """Every mutant of src/a2cent/<module>.py, each with its full source."""
    source = (PACKAGE / f"{module}.py").read_text()
    lines = [line.encode() for line in source.splitlines()]  # node columns count bytes
    count = sum(1 for _site in _sites(ast.parse(source)))
    for k in range(count):
        tree = ast.parse(source)  # a fresh tree per mutant
        node, index, change, function = next(site for i, site in enumerate(_sites(tree)) if i == k)
        dropped = ast.unparse(node)
        _apply(node, index)
        line = lines[node.lineno - 1]
        if node.end_lineno == node.lineno:
            line = line[:node.col_offset] + ast.unparse(node).encode() + line[node.end_col_offset:]
            if change == DROP_CALL:  # name the call, as every dropped one reads None
                line += f"  # {dropped}".encode()
        else:  # the node's first line, marked with the change
            line += f"  [{change}]".encode()
        yield Mutant(module, node.lineno, function, line.decode().strip(), change,
                     ast.unparse(tree))


def package_modules():
    """The name of every module under src/a2cent but __init__."""
    return sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")


def _run_tests(copy, module):
    """'passed', 'failed' or 'timeout' for tier-1 in ``copy``."""
    own = copy / "tests" / f"test_{module}.py"
    first = [str(own)] if own.exists() else []
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               "--deselect", OWN_TEST, *first, "tests"],
                              cwd=copy, env=env, capture_output=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if proc.returncode == 0 else "failed"


def _copy_checkout(dest):
    shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info"))
    return dest


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="*", default=package_modules(),
                        help="module names under src/a2cent, e.g. bassserre (default: all)")
    args = parser.parse_args()

    todo = [m for module in args.modules for m in mutants(module)]
    work = Path(tempfile.mkdtemp(prefix="a2cent-mutants-"))
    try:
        copies = Queue()
        for j in range(JOBS):
            copies.put(_copy_checkout(work / f"copy{j}"))

        def run(module, source):
            copy = copies.get()
            target = copy / "src" / "a2cent" / f"{module}.py"
            try:
                target.write_text(source)
                return _run_tests(copy, module)
            finally:
                target.write_text((PACKAGE / f"{module}.py").read_text())
                copies.put(copy)

        for module in args.modules:
            unparsed = ast.unparse(ast.parse((PACKAGE / f"{module}.py").read_text()))
            if run(module, unparsed) != "passed":
                print(f"{module}: tier-1 fails on the unmutated, unparsed module")
                return 2
        with ThreadPoolExecutor(JOBS) as pool:
            outcomes = list(pool.map(lambda m: run(m.module, m.source), todo))
    finally:
        shutil.rmtree(work)

    unexplained = 0
    for module in args.modules:
        results = [(m, outcome) for m, outcome in zip(todo, outcomes) if m.module == module]
        survived = [m for m, outcome in results if outcome == "passed"]
        print(f"{module}: {len(results) - len(survived)} killed, {len(survived)} survived")
        for mutant in survived:
            reason = EQUIVALENT.get(mutant.key())
            unexplained += reason is None
            print(f"  {'equivalent' if reason else 'SURVIVED':<10} {mutant}"
                  + (f"  ({reason})" if reason else ""))
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
