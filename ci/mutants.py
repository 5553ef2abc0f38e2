"""Mutation sweep: does Tier-1 kill every operator swap and numeric-constant
change in the named boostlab modules?

    python ci/mutants.py data model calibration sampler metrics harness cli
    python ci/mutants.py --list sampler         # name the mutants, run none

Each mutant changes one node of one module:
- a binary, augmented or boolean operator swapped (+ and -, * and /, // and
  ** to *, & and |, and / or);
- a comparison swapped (< and <=, > and >=, == and !=, is and is not,
  in and not in);
- a numeric constant changed (an int n to n + 1, a float x to 2x, 0.0 to 1.0).
Annotations, and expressions inside f-strings, are left alone.

A mutant is named `function: original -> mutated`, by the enclosing function
and the unparsed source text of the node, or of a constant's parent node
when that fits on one short line,
with ` [k]` on the k-th repeat of a name within one function; line numbers
do not enter a name, so the names survive edits elsewhere in the module.

Each mutant runs in its own throwaway copy of the checkout, made outside it,
with `python -m pytest -x -q -p no:cacheprovider --hypothesis-seed 0 tests/`
(less tests/test_mutants.py, which checks these lists), on at most two
workers. A mutant is killed when that run fails or times out.
The survivors are printed in the format of the committed
ci/survivors/<module>.txt lists: one `name -- reason` per line, the reason
taken from the checkout's list and left empty for a new survivor. To refresh
a list, redirect the printed block; to sweep another checkout, run its copy
of this script.
Standard library only.
"""

import argparse
import ast
import concurrent.futures
import copy
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# tests/test_mutants.py compares the survivor lists with the modules' source,
# which every mutant changes, so it would kill each listed survivor
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
          "--hypothesis-seed", "0", "--ignore=tests/test_mutants.py", "tests/"]
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                ".perfbench_out", ".benchmarks", "*.egg-info")
SEP = " -- "
WORKERS = 2  # each runs a whole Tier-1 process, so two keep memory and load small

BINOPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
          ast.FloorDiv: ast.Mult, ast.Pow: ast.Mult, ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd}
BOOLOPS = {ast.And: ast.Or, ast.Or: ast.And}
CMPOPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
          ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
          ast.In: ast.NotIn, ast.NotIn: ast.In}


def module_path(root: Path, module: str) -> Path:
    return root / "src" / "boostlab" / f"{module}.py"


def short(text: str, limit: int = 72) -> str:
    text = " ".join(text.split())
    return text if len(text) <= limit else f"{text[:limit // 2 - 2]} ... {text[2 - limit // 2:]}"


def changed_constant(value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    if isinstance(value, int):
        return value + 1
    return 2 * value if value else 1.0


def skipped_nodes(tree: ast.AST) -> set[int]:
    """ids of the nodes inside annotations and f-strings."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            roots.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            roots.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
        elif isinstance(node, ast.JoinedStr):
            roots.append(node)
    return {id(sub) for root in roots for sub in ast.walk(root)}


def mutations(node: ast.AST):
    """Each mutated copy of node: one per operator swap."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in BINOPS:
        sides = (node.left, node.right) if isinstance(node, ast.BinOp) else ()
        if any(isinstance(side, ast.Constant) and isinstance(side.value, str) for side in sides):
            return  # text concatenation or %-formatting
        mutant = copy.copy(node)
        mutant.op = BINOPS[type(node.op)]()
        yield mutant
    elif isinstance(node, ast.BoolOp):
        mutant = copy.copy(node)
        mutant.op = BOOLOPS[type(node.op)]()
        yield mutant
    elif isinstance(node, ast.Compare):
        for k, op in enumerate(node.ops):
            if type(op) in CMPOPS:
                mutant = copy.copy(node)
                mutant.ops = [*node.ops[:k], CMPOPS[type(op)](), *node.ops[k + 1:]]
                yield mutant


class Mutant(NamedTuple):
    module: str
    name: str
    source: str  # the whole mutated module


def generate(module: str) -> list[Mutant]:
    """Every mutant of src/boostlab/<module>.py, in source order."""
    source = module_path(ROOT, module).read_text(encoding="utf-8")
    data = source.encode("utf-8")  # ast's column offsets count UTF-8 bytes
    starts = [0]  # each line's offset in data
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    tree = ast.parse(source)
    skip = skipped_nodes(tree)
    found = []  # (start, end, replacement, function, original name, mutated name)

    def splice(node, text):
        start = starts[node.lineno - 1] + node.col_offset
        end = starts[node.end_lineno - 1] + node.end_col_offset
        return start, end, text

    def visit(node, function, parent):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            function = node.name if function == "<module>" else f"{function}.{node.name}"
        if id(node) not in skip:
            for mutant in mutations(node):
                text = ast.unparse(mutant)
                # an expression is parenthesised, so it binds as the node it replaces did
                replacement = f"({text})" if isinstance(node, ast.expr) else text
                found.append((*splice(node, replacement), function, ast.unparse(node), text))
            if isinstance(node, ast.Constant) and (new := changed_constant(node.value)) is not None:
                old = node.value
                original = ast.unparse(parent)
                node.value = new
                mutated = ast.unparse(parent)
                node.value = old
                if "\n" in original or len(original) > 72:  # a statement block, or too long to read
                    original, mutated = repr(old), repr(new)
                found.append((*splice(node, f"({new!r})"), function, original, mutated))
        for child in ast.iter_child_nodes(node):
            visit(child, function, node)

    visit(tree, "<module>", None)
    mutants, seen = [], {}
    for start, end, text, function, original, mutated in found:
        name = f"{function}: {short(original)} -> {short(mutated)}"
        seen[name] = seen.get(name, 0) + 1
        if seen[name] > 1:
            name = f"{name} [{seen[name]}]"
        new_source = (data[:start] + text.encode("utf-8") + data[end:]).decode("utf-8")
        mutants.append(Mutant(module, name, new_source))
    return mutants


def read_survivors(path: Path) -> dict[str, str]:
    """{mutant name: reason} of a survivor list."""
    if not path.exists():
        return {}
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = (f"{line.rstrip()} ".partition(SEP) for line in lines)
    return {name: reason.strip() for name, _, reason in rows if name}


def run_tests(mutant: Mutant | None, timeout: float | None) -> tuple[bool, float]:
    """(passed, seconds) of the Tier-1 run in a fresh copy of the checkout, mutated by mutant."""
    scratch = Path(tempfile.mkdtemp(prefix="boostlab-mutant-"))
    try:
        copy_root = scratch / "checkout"
        shutil.copytree(ROOT, copy_root, ignore=IGNORE)
        if mutant is not None:
            module_path(copy_root, mutant.module).write_text(mutant.source, encoding="utf-8")
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(copy_root / "src")}
        began = time.perf_counter()
        try:
            done = subprocess.run(PYTEST, cwd=copy_root, env=env, timeout=timeout,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            passed = done.returncode == 0
        except subprocess.TimeoutExpired:
            passed = False
        return passed, time.perf_counter() - began
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", help="boostlab module names, e.g. sampler")
    parser.add_argument("--list", action="store_true",
                        help="print each mutant's name and run nothing")
    args = parser.parse_args(argv)
    mutants = {module: generate(module) for module in args.modules}
    if args.list:
        for module, found in mutants.items():
            print("\n".join(f"{module}: {m.name}" for m in found))
        return 0

    began = time.perf_counter()
    passed, baseline = run_tests(None, None)
    if not passed:
        print(f"the unmutated tests fail under {ROOT}; nothing to sweep", file=sys.stderr)
        return 1
    timeout = max(120.0, 5 * baseline)
    print(f"unmutated run {baseline:.1f} s; a mutant times out after {timeout:.0f} s",
          file=sys.stderr)
    jobs = [m for found in mutants.values() for m in found]
    survived = set()
    with concurrent.futures.ThreadPoolExecutor(WORKERS) as pool:
        futures = {pool.submit(run_tests, m, timeout): m for m in jobs}
        for k, future in enumerate(concurrent.futures.as_completed(futures), 1):
            mutant, (passed, seconds) = futures[future], future.result()
            if passed:
                survived.add((mutant.module, mutant.name))
            print(f"[{k}/{len(jobs)}] {'SURVIVED' if passed else 'killed'} {seconds:5.1f} s "
                  f"{mutant.module}: {mutant.name}", file=sys.stderr, flush=True)

    for module, found in mutants.items():
        reasons = read_survivors(ROOT / "ci" / "survivors" / f"{module}.txt")
        lines = [f"{m.name}{SEP}{reasons.get(m.name, '')}".rstrip() + "\n"
                 for m in found if (module, m.name) in survived]
        summary = f"{module}: {len(found)} mutants, {len(lines)} survivors"
        print(f"== ci/survivors/{module}.txt ({summary})\n{''.join(lines)}", end="")
        print(summary, file=sys.stderr)
    print(f"swept {len(jobs)} mutants in {time.perf_counter() - began:.0f} s "
          f"on {WORKERS} workers", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
