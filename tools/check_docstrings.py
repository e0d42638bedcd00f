#!/usr/bin/env python
"""Fail when the public surface loses docstrings (pydocstyle-D1 equivalent).

Walks the given files/directories and requires a docstring on every

* module,
* public class (name not starting with ``_``),
* public function and public method (module- or class-level ``def``
  whose name does not start with ``_``; dunders are exempt — the repo
  documents construction in class docstrings).

Nested (function-local) definitions and members of private classes are
implementation detail and exempt.  Pure AST, no imports of the checked code, no third-party
dependencies — so CI can run it before (and independent of) the test
suite::

    python tools/check_docstrings.py src/repro/storage src/repro/service \
        src/repro/core/pipeline.py

Exit status 1 lists every offender as ``path:line: message``.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

#: The modules whose public surface the CI gate protects.
DEFAULT_TARGETS = [
    "src/repro/storage",
    "src/repro/service",
    "src/repro/core/pipeline.py",
    "src/repro/core/ingest.py",
    "src/repro/utils/wire.py",
]


def is_public(name: str) -> bool:
    """Public per the checker's contract: no leading underscore."""
    return not name.startswith("_")


def iter_python_files(targets) -> list:
    """Expand files/directories into a sorted list of ``.py`` paths."""
    files = []
    for target in targets:
        path = Path(target)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
        else:
            raise SystemExit(f"not a python file or directory: {target}")
    return files


def missing_docstrings(path: Path) -> list:
    """All ``(line, message)`` docstring violations in one file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    problems = []
    if ast.get_docstring(tree) is None:
        problems.append((1, "module is missing a docstring"))

    def walk(node, prefix: str, inside_class: bool, public_scope: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                qualname = f"{prefix}{child.name}"
                child_public = public_scope and is_public(child.name)
                if child_public and ast.get_docstring(child) is None:
                    problems.append(
                        (child.lineno, f"public class {qualname!r} is missing a docstring")
                    )
                walk(child, f"{qualname}.", inside_class=True, public_scope=child_public)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                kind = "method" if inside_class else "function"
                if (
                    public_scope
                    and is_public(child.name)
                    and ast.get_docstring(child) is None
                ):
                    problems.append(
                        (
                            child.lineno,
                            f"public {kind} {prefix}{child.name!r} is missing a docstring",
                        )
                    )
                # function-local definitions are exempt: do not recurse

    walk(tree, "", inside_class=False, public_scope=True)
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "targets", nargs="*", default=DEFAULT_TARGETS,
        help=f"files/directories to check (default: {' '.join(DEFAULT_TARGETS)})",
    )
    args = parser.parse_args(argv)

    failures = 0
    checked = 0
    for path in iter_python_files(args.targets):
        checked += 1
        for line, message in missing_docstrings(path):
            print(f"{path}:{line}: {message}")
            failures += 1
    if failures:
        print(f"\n{failures} missing docstring(s) across {checked} file(s)")
        return 1
    print(f"docstrings ok: {checked} file(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
