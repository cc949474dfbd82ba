"""Mutation testing for kvprune, with the stdlib ast and nothing else.

Each mutant changes one site of one module: a comparison operator (to its
boundary twin or its negation, `<` to `<=` or `>=`), an arithmetic
operator (`+` to `-` or `*`, unary `-` to `+`) or an integer constant (n
to n + 1 or n - 1). The mutants are drawn with a seeded generator, so two
runs with the same seed over the same source try the same ones. Every
mutant is written into a temporary copy of the repository, never into the
tree itself, and the module's test files run against it in a subprocess
with pytest -x:

* killed:   the tests fail;
* hung:     the tests did not finish within --timeout seconds, which
            counts as killed (a hang stalls a suite, it does not pass it);
* survived: the tests pass, so nothing pins the mutated behaviour.

Survivors are listed as file:line with the change that survived. Run from
anywhere:

    python3 tools/mutate.py selection --mutants 30 --seed 0
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The test files that exercise each module, fastest-failing first.
TESTS = {
    "core": ["test_core.py", "test_entry_checks.py", "test_selection.py"],
    "selection": ["test_selection.py", "test_policies.py", "test_acceptance.py"],
    "policies": ["test_policies.py", "test_simulator.py", "test_acceptance.py"],
    "scoring": ["test_scoring.py", "test_policies.py", "test_acceptance.py"],
    "decompose": ["test_decompose.py", "test_policies.py", "test_acceptance.py"],
    "simulator": ["test_simulator.py", "test_acceptance.py"],
}

# Each operator's replacements: a comparison's boundary twin and its
# negation, an arithmetic operator's two nearest neighbours.
FLIPS = {
    ast.Lt: (ast.LtE, ast.GtE), ast.LtE: (ast.Lt, ast.Gt),
    ast.Gt: (ast.GtE, ast.LtE), ast.GtE: (ast.Gt, ast.Lt),
    ast.Eq: (ast.NotEq,), ast.NotEq: (ast.Eq,), ast.Is: (ast.IsNot,), ast.IsNot: (ast.Is,),
    ast.In: (ast.NotIn,), ast.NotIn: (ast.In,),
    ast.Add: (ast.Sub, ast.Mult), ast.Sub: (ast.Add, ast.Mult),
    ast.Mult: (ast.Div, ast.Add), ast.Div: (ast.Mult, ast.FloorDiv),
    ast.FloorDiv: (ast.Div, ast.Mult), ast.Mod: (ast.FloorDiv,), ast.Pow: (ast.Mult,),
    ast.BitAnd: (ast.BitOr,), ast.BitOr: (ast.BitAnd,),
    ast.LShift: (ast.RShift,), ast.RShift: (ast.LShift,), ast.USub: (ast.UAdd,),
}


def mutants(tree: ast.Module) -> list[tuple]:
    """Every mutant of a module, in source order: (node, slot, new), where
    slot is the index of a Compare operator, "op" for an operator node, or
    "value" for an int constant, and new is the replacement."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            found += [(node, i, new) for i, op in enumerate(node.ops)
                      for new in FLIPS.get(type(op), ())]
        elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.UnaryOp)):
            found += [(node, "op", new) for new in FLIPS.get(type(node.op), ())]
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            found += [(node, "value", node.value + 1), (node, "value", node.value - 1)]
    return sorted(found, key=lambda m: (m[0].lineno, m[0].col_offset, str(m[1]), str(m[2])))


def mutate(node, slot, new) -> str:
    """Apply one mutant in place; describe it."""
    if slot == "value":
        before, node.value = node.value, new
        return f"{before} -> {new}"
    if slot == "op":
        before, node.op = node.op, new()
    else:
        before, node.ops[slot] = node.ops[slot], new()
    return f"{type(before).__name__} -> {new.__name__}"


def run_tests(copy: str, tests: list[str], timeout: float) -> str:
    """killed, hung or survived: the outcome of the module's tests in copy."""
    env = {**os.environ, "PYTHONPATH": os.path.join(copy, "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           *(os.path.join("tests", name) for name in tests)]
    proc = subprocess.Popen(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "hung"
    return "survived" if code == 0 else "killed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", choices=sorted(TESTS))
    parser.add_argument("--mutants", type=int, default=30, help="mutants to try")
    parser.add_argument("--seed", type=int, default=0, help="seed of the mutant draw")
    parser.add_argument("--timeout", type=float, default=60.0,
                        help="seconds a mutant's tests may take before it counts as hung")
    args = parser.parse_args(argv)
    # A terminated run still removes its temporary copy.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    rel = os.path.join("src", "kvprune", f"{args.module}.py")
    with open(os.path.join(ROOT, rel)) as f:
        source = f.read()
    every = mutants(ast.parse(source))
    count = len(every)
    chosen = sorted(random.Random(args.seed).sample(range(count), min(args.mutants, count)))
    lines = {every[index][0].lineno for index in chosen}
    print(f"{rel}: {count} mutants at {len({id(m[0]) for m in every})} sites; trying "
          f"{len(chosen)} at {len(lines)} lines (seed {args.seed})")

    tally = {"killed": 0, "hung": 0, "survived": 0}
    survivors = []
    with tempfile.TemporaryDirectory(prefix="kvprune-mutate-") as tmp:
        copy = os.path.join(tmp, "repo")
        for part in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, part), os.path.join(copy, part),
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), copy)
        target = os.path.join(copy, rel)
        if run_tests(copy, TESTS[args.module], args.timeout) != "survived":
            print("the unmutated tests do not pass; nothing to measure")
            return 1
        for index in chosen:
            tree = ast.parse(source)
            node, slot, new = mutants(tree)[index]
            change = mutate(node, slot, new)
            with open(target, "w") as f:
                f.write(ast.unparse(tree))
            started = time.monotonic()
            outcome = run_tests(copy, TESTS[args.module], args.timeout)
            tally[outcome] += 1
            where = f"{rel}:{node.lineno}"
            print(f"{outcome:8} {where:34} {change:20} {time.monotonic() - started:6.1f}s",
                  flush=True)
            if outcome == "survived":
                survivors.append(f"{where}  {change}")

    print(f"killed {tally['killed']}, hung {tally['hung']}, survived {tally['survived']}")
    for line in survivors:
        print(f"survivor: {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
