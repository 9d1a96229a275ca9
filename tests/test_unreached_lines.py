import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "unreached_lines", Path(__file__).resolve().parent.parent / "tools" / "unreached_lines.py"
)
unreached_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(unreached_lines)

_SOURCE = '''"""Module docstring."""
import os


def check(xs):
    """Function docstring."""
    # a comment
    if xs:
        return [x for x in xs]
    else:
        fault = lambda a: a > 0 and (
            f"fault at {a}")
        return fault


class Box:
    pass
'''


def test_executable_lines_come_from_every_nested_code_object():
    lines = unreached_lines.executable_lines(_SOURCE, "example.py")
    # statements, the comprehension's and the lambda's bodies, down to a
    # fault text on its own line that runs only when the test before it holds
    assert {1, 2, 5, 8, 9, 11, 12, 13, 16, 17} <= lines
    # docstrings of functions, comments, blank lines and a bare else hold no instruction
    assert not lines & {3, 4, 6, 7, 10, 14, 15}
    assert 0 not in lines
