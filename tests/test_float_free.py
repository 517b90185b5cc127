"""The library computes without floating point.

Every module under ``src/tvpm`` is parsed, not imported, and searched for
the ways a float gets in: a float (or complex) literal, a call to
``float``, and the inexact functions of ``math`` (``sqrt``, ``log``,
``exp``), whether imported by name or read off the module.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tvpm"
INEXACT = {"sqrt", "log", "exp"}


def float_uses(tree):
    """(line, what) for every float entry point in a parsed module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(
                node.value, (float, complex)):
            found.append((node.lineno, "literal %r" % node.value))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append((node.lineno, "float()"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [(node.lineno, "math.%s" % a.name) for a in node.names
                      if a.name in INEXACT or a.name == "*"]
        elif (isinstance(node, ast.Attribute) and node.attr in INEXACT
              and isinstance(node.value, ast.Name)
              and node.value.id == "math"):
            found.append((node.lineno, "math.%s" % node.attr))
    return sorted(found)


def test_the_guard_sees_each_float_entry_point():
    code = ("x = 0.5\ny = float(2)\nz = 1j\nfrom math import gcd, sqrt\n"
            "import math\nw = math.log(3)\nv = math.gcd(4, 6)\n")
    assert float_uses(ast.parse(code)) == [
        (1, "literal 0.5"), (2, "float()"), (3, "literal 1j"),
        (4, "math.sqrt"), (6, "math.log")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_library_module_is_float_free(path):
    assert float_uses(ast.parse(path.read_text(), str(path))) == []
