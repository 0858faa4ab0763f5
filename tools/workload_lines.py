"""List the statements of ``src/ftsinv`` functions that no benchmark workload runs.

Loads ``perfbench/workloads.py`` by path, as ``tests/test_workloads.py``
does.  For each workload it runs ``setup()`` and one seed-1 cycle, every
operation called and checked, under a line tracer that watches only the
package's files, then ``close()``, which removes what the workload wrote; no
bytecode is written either.  It then prints, as ``path:line: source``, each
statement inside a package function that no workload ran, and their count::

    python tools/workload_lines.py [workload ...]

A statement inside a listed one is not listed again, and a function that no
workload entered is listed once, by its ``def`` line.  Docstrings are not
statements that run.  Exits 0.
"""

from __future__ import annotations

import ast
import importlib.util
import sys

sys.dont_write_bytecode = True

from line_tracer import PACKAGE, ROOT, traced     # imported after the switch

WORKLOADS = ROOT / "perfbench" / "workloads.py"
SEED = 1


def load_workloads():
    sys.path.insert(0, str(ROOT / "src"))
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module         # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def run_traced(names: list) -> set:
    """Run each named workload's set-up and one cycle; returns the set of
    (file, line) pairs of the package that ran."""
    workloads = load_workloads().WORKLOADS
    ran = set()
    for name in names or workloads:
        workload = workloads[name](SEED)
        try:
            with traced(ran):
                workload.setup()
                for op in workload.cycle():
                    op.check(op.call())
        finally:
            workload.close()
    return ran


def _children(stmt: ast.stmt) -> list:
    """The statements directly inside a compound statement."""
    blocks = [getattr(stmt, f, []) for f in ("body", "orelse", "finalbody")]
    blocks += [h.body for h in getattr(stmt, "handlers", [])]
    blocks += [c.body for c in getattr(stmt, "cases", [])]
    return [s for block in blocks for s in block]


def _unrun(stmts: list, path: str, ran: set) -> tuple:
    """``(ran any, unrun)``: whether any of ``stmts`` ran, and the first line
    of each that did not, nested functions left to their own listing."""
    any_ran, unrun = False, []
    for stmt in stmts:
        if (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, str)) or isinstance(stmt, ast.Global):
            continue
        children = _children(stmt)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            children = []
        last = children[0].lineno - 1 if children else stmt.end_lineno
        ran_here = any((path, line) in ran for line in range(stmt.lineno, last + 1))
        inner_ran, inner = _unrun(children, path, ran)
        if ran_here or inner_ran:
            any_ran = True
            unrun += inner
        else:
            unrun.append(stmt.lineno)
    return any_ran, unrun


def unrun_statements(path: Path, ran: set) -> list:
    """``(line, note)`` of each unrun statement of the functions in ``path``."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            any_ran, lines = _unrun(node.body, str(path), ran)
            out += [(line, "") for line in lines] if any_ran else [(node.lineno, "never runs")]
    return sorted(out)


def main(argv: list) -> int:
    ran = run_traced(argv)
    count = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text().splitlines()
        for line, note in unrun_statements(path, ran):
            count += 1
            text = lines[line - 1].strip()
            print(f"{path.relative_to(ROOT)}:{line}: {text}" + (f"  [{note}]" if note else ""))
    print(f"{count} statements or functions in src/ftsinv unrun by the workloads "
          f"({', '.join(argv) or 'all four'}, seed {SEED})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
