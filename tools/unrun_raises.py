"""List every ``raise`` statement in ``src/ftsinv`` that no tier-1 test runs.

Runs the tier-1 suite (``tests/``) in this process under a line tracer that
watches only the package's files, then prints each ``raise`` statement none
of whose lines ran, as ``path:line: source``, and their count::

    python tools/unrun_raises.py [extra pytest arguments]

Exits 0 when the suite passes and every ``raise`` ran, else 1.  A test that
starts a new interpreter is not traced, so a ``raise`` only such a test
reaches is listed.  The tracer slows the suite several times over.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

from line_tracer import PACKAGE, ROOT, traced


def raise_statements(path: Path) -> list:
    """(first line, last line) of each ``raise`` statement in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted((node.lineno, node.end_lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Raise))


def run_traced(pytest_args: list) -> tuple:
    """Run the suite with ``pytest_args``; returns (exit code, the set of
    (file, line) pairs of the package that ran)."""
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    with traced(set()) as ran:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"),
                            *pytest_args])
    return int(code), ran


def main(argv: list) -> int:
    code, ran = run_traced(argv)
    if not ran:
        print(f"no line of {PACKAGE} ran: the suite imported ftsinv from elsewhere")
        return 1
    unrun, total = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text().splitlines()
        for first, last in raise_statements(path):
            total += 1
            if not any((str(path), line) in ran for line in range(first, last + 1)):
                unrun.append(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
    for line in unrun:
        print(line)
    print(f"{len(unrun)} of {total} raise statements in src/ftsinv unrun by the suite"
          f" (pytest exit code {code})")
    return int(code != 0 or bool(unrun))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
