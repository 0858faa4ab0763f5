"""The line tracer of the tools that ask which lines of ``src/ftsinv`` a run
executed: ``unrun_raises.py`` and ``workload_lines.py`` import it, and it is
not run on its own.

``with traced(ran):`` adds to the set ``ran`` each ``(file, line)`` pair of
the package's files that runs inside the scope, in this thread and in every
thread started there; other files are not traced line by line.
"""

from __future__ import annotations

import sys
import threading
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ftsinv"


@contextmanager
def traced(ran: set):
    prefix = f"{PACKAGE}/"

    def on_line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(on_call)
    threading.settrace(on_call)
    try:
        yield ran
    finally:
        sys.settrace(None)
        threading.settrace(None)
