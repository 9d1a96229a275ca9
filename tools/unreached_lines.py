"""List the lines of ``src/bicext`` that no tier-1 test executes.

Run from the repository root:

    python3 tools/unreached_lines.py

A standard-library line tracer (``sys.settrace``) starts before ``bicext``
is imported, then tier-1 runs in this process through ``pytest.main``.
Every interpreter the tests start is traced too: a ``sitecustomize``
module, put first on the inherited ``PYTHONPATH``, starts the same tracer
there and writes what it saw to a temporary directory at exit.  The
executable lines of each module are the line numbers that the
``co_lines`` of its code objects, nested ones included, assign
instructions to.

The script prints each executable line that no test executed, then each
line that only tests running a separate interpreter executed, with its
text, and exits with pytest's status.  Tracing makes tier-1 several times
slower, about three minutes in all, so this is not part of tier-1.
Standard library and pytest only.
"""

from __future__ import annotations

import atexit
import json
import os
import sys
import tempfile
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bicext"

_SITECUSTOMIZE = """\
import importlib.util
_spec = importlib.util.spec_from_file_location("_unreached_lines", {tool!r})
_tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_tool)
_tool.trace_until_exit({out!r})
"""


def executable_lines(source: str, filename: str) -> set:
    """The line numbers of ``source`` that hold instructions: what the
    ``co_lines`` of the module's code object, and of every code object
    nested in it, assign them to."""
    lines = set()
    todo = [compile(source, filename, "exec")]
    while todo:
        code = todo.pop()
        # the module's own first instruction sits on line 0, which no source line is
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


class _Recorder:
    """A trace function that records, per file of ``PACKAGE``, the lines
    executed, and hands no other frame a local tracer."""

    def __init__(self):
        self.lines = {str(path): set() for path in PACKAGE.glob("*.py")}

    def start(self):
        threading.settrace(self.trace)
        sys.settrace(self.trace)

    def stop(self):
        sys.settrace(None)
        threading.settrace(None)

    def trace(self, frame, event, arg):
        seen = self.lines.get(frame.f_code.co_filename)
        if seen is None:
            return None
        seen.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return local

        return local


def trace_until_exit(out: str) -> None:
    """Trace this interpreter, and write the lines it executed to ``out``
    as ``<pid>.json`` when it exits."""
    recorder = _Recorder()
    recorder.start()

    def dump():
        recorder.stop()
        with open(os.path.join(out, f"{os.getpid()}.json"), "w") as f:
            json.dump({name: sorted(lines) for name, lines in recorder.lines.items()}, f)

    atexit.register(dump)


def main() -> int:
    # read before the run, so that the line numbers are those of the code the tests import
    sources = {str(path): path.read_text() for path in PACKAGE.glob("*.py")}
    with tempfile.TemporaryDirectory() as out:
        with open(os.path.join(out, "sitecustomize.py"), "w") as f:
            f.write(_SITECUSTOMIZE.format(tool=str(Path(__file__).resolve()), out=out))
        os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [out, os.environ.get("PYTHONPATH")]))
        sys.path.insert(0, str(PACKAGE.parent))
        recorder = _Recorder()
        recorder.start()
        try:
            import pytest

            status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
        finally:
            recorder.stop()
        children = {name: set() for name in recorder.lines}
        for path in Path(out).glob("*.json"):
            for name, lines in json.loads(path.read_text()).items():
                children[name].update(lines)

    unreached, child_only = [], []
    for name, source in sorted(sources.items()):
        text = source.splitlines()
        for line in sorted(executable_lines(source, name) - recorder.lines[name]):
            row = f"{Path(name).relative_to(ROOT)}:{line}: {text[line - 1].strip()}"
            (child_only if line in children[name] else unreached).append(row)
    print(f"\n{len(unreached)} executable lines that no test executed:")
    print("\n".join(unreached))
    print(f"\n{len(child_only)} executed only by tests that start a separate interpreter:")
    print("\n".join(child_only))
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
