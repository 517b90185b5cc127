"""The checker module, ``tvpm.check``: what it imports, and its table.

``check.py`` is parsed, not imported, and every import in it, at any
depth, must name the standard library, ``tvpm.linalg`` or ``tvpm.core``:
a reader who trusts those trusts a ``valid``, and no solver module can
take part in one.  ``check_document`` runs the checker that ``CHECKS``
holds for a document's kind, so a new kind is one row.
"""

import ast
import sys
from pathlib import Path

from tvpm import check

SRC = Path(__file__).resolve().parent.parent / "src" / "tvpm"
TRUSTED = {"tvpm.core", "tvpm.linalg"}


def imported_modules(tree):
    """Every module an import in the tree names, ``from tvpm import x``
    read as ``tvpm.x`` and a relative import kept with its dots."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if module == "tvpm":
                found += ["tvpm." + a.name for a in node.names]
            else:
                found.append(module)
    return found


def untrusted(names):
    return [name for name in names if name not in TRUSTED
            and (name.startswith(("tvpm", "."))
                 or name.split(".")[0] not in sys.stdlib_module_names)]


def test_the_guard_sees_each_import_form():
    code = ("import os.path, tvpm.search\n"
            "from tvpm import core, colored\n"
            "from tvpm.linalg import vdot\n"
            "from . import sarkaria\n"
            "def f():\n"
            "    import numpy\n"
            "    from tvpm.minnorm import gram\n")
    names = imported_modules(ast.parse(code))
    assert names == ["os.path", "tvpm.search", "tvpm.core", "tvpm.colored",
                     "tvpm.linalg", ".", "numpy", "tvpm.minnorm"]
    assert untrusted(names) == ["tvpm.search", "tvpm.colored", ".", "numpy",
                                "tvpm.minnorm"]


def test_the_checker_imports_only_the_standard_library_linalg_and_core():
    path = SRC / "check.py"
    names = imported_modules(ast.parse(path.read_text(), str(path)))
    assert untrusted(names) == []
    assert TRUSTED <= set(names)


def test_a_document_kind_is_one_row_of_the_table(monkeypatch):
    assert sorted(check.CHECKS) == ["certificate", "colored_certificate"]
    calls = []
    monkeypatch.setitem(check.CHECKS, "probe",
                        lambda *args: calls.append(args) or ["probed"])
    doc = {"kind": "probe", "m": [2, 0], "proper": False}
    assert check.check_document({"d": 1}, doc) == ["probed"]
    assert calls == [({"d": 1}, doc, frozenset({0, 2}), False)]

