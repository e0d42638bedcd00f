#!/usr/bin/env python3
"""Reachability ledger: the functions of ``src/repro`` no workload enters.

    python3 tools/reach.py                               # print the list
    python3 tools/reach.py --runs 3 > tools/unreached.txt  # refresh the file
    python3 tools/reach.py --check tools/unreached.txt   # fail on newcomers

Runs the four benchmark workloads at smoke size (``benchmarks/e2e/run.py
--workload W --smoke --seed 0``) and the paper's claims
(``tests/test_paper_claims.py``), each in a child process under a
``sys.setprofile`` / ``threading.setprofile`` hook that records every
code object entered.  It prints, sorted, ``module:qualname`` of each
top-level function and each method of a top-level class in
``src/repro`` that no run entered.  The hook sees functions, not
branches, so a listed name is certainly unreached and an unlisted one
was entered at least once.

``--runs N`` repeats the whole set N times and prints the union of the
N lists, so a function that only some runs reach (by timing) is listed.
``--check FILE`` runs once and exits 1 when the fresh list names a
function FILE does not: code joined the unreached set.  Names FILE lists
that the run reached are reported, not failed.  Stdlib only.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
WORKLOADS = ("solo_local", "solo_wan", "fleet_mixed", "ingest_live")


def targets(workdir: str) -> list:
    """``(label, argv)`` of every child run; argv[0] is a script or ``pytest``."""
    runner = str(ROOT / "benchmarks" / "e2e" / "run.py")
    runs = [
        (name, [runner, "--workload", name, "--smoke", "--seed", "0",
                "--workdir", os.path.join(workdir, name)])
        for name in WORKLOADS
    ]
    runs.append(("paper_claims", ["pytest", "-q", "-p", "no:cacheprovider",
                                  "tests/test_paper_claims.py"]))
    return runs


def functions() -> dict:
    """``{(file, first line): "module:qualname"}`` of the functions to track.

    The first line is the one a code object reports: the first
    decorator's line for a decorated function.
    """
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        tree = ast.parse(path.read_text(), filename=str(path))
        defs = [(node, "") for node in tree.body]
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                defs += [(item, f"{node.name}.") for item in node.body]
        for node, owner in defs:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([node.lineno] + [d.lineno for d in node.decorator_list])
                found[(str(path), line)] = f"{module}:{owner}{node.name}"
    return found


def child(out: str, argv: list) -> int:
    """Run *argv* under the profile hook; write the entered code to *out*.

    The parent starts it in the repository root with ``src`` on
    ``PYTHONPATH``.
    """
    prefix = str(PACKAGE) + os.sep
    entered: dict = {}

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered[id(code)] = code

    threading.setprofile(hook)
    sys.setprofile(hook)
    status = 0
    try:
        if argv[0] == "pytest":
            import pytest

            status = int(pytest.main(argv[1:]))
        else:
            sys.argv = list(argv)
            runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    lines = sorted(
        {(code.co_filename, code.co_firstlineno) for code in list(entered.values())
         if code.co_filename.startswith(prefix)}
    )
    with open(out, "w") as handle:
        json.dump(lines, handle)
    return status


def unreached_once(tracked: dict) -> set:
    """One pass over every target; the tracked names none of them entered."""
    reached: set = set()
    with tempfile.TemporaryDirectory(prefix="reach-") as workdir:
        for label, argv in targets(workdir):
            out = os.path.join(workdir, f"{label}.json")
            env = dict(os.environ, PYTHONPATH=str(SRC))
            done = subprocess.run(
                [sys.executable, __file__, "--child", out, "--", *argv],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
            )
            if done.returncode != 0:
                sys.exit(f"reach.py: {label} failed (exit {done.returncode})")
            with open(out) as handle:
                reached.update(tuple(entry) for entry in json.load(handle))
    names = {}
    for key, name in tracked.items():
        names[name] = names.get(name, False) or key in reached
    return {name for name, hit in names.items() if not hit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=1,
                        help="passes whose unreached lists are united (default 1)")
    parser.add_argument("--check", default=None, metavar="FILE",
                        help="exit 1 if the fresh list names a function FILE does not")
    parser.add_argument("--child", default=None, help=argparse.SUPPRESS)
    args, rest = parser.parse_known_args(argv)
    if args.child is not None:
        return child(args.child, rest[1:] if rest[:1] == ["--"] else rest)
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    tracked = functions()
    unreached: set = set()
    for _ in range(max(1, args.runs)):
        unreached |= unreached_once(tracked)
    if args.check is None:
        print("\n".join(sorted(unreached)))
        return 0
    with open(args.check) as handle:
        listed = {line.strip() for line in handle if line.strip()}
    joined = sorted(unreached - listed)
    left = sorted(listed - unreached)
    print(f"reach.py: {len(unreached)} unreached of {len(set(tracked.values()))} "
          f"functions; {args.check} lists {len(listed)}")
    if left:
        print(f"reached now, may leave {args.check}: " + ", ".join(left))
    if joined:
        print(f"newly unreached (not in {args.check}): " + ", ".join(joined))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
