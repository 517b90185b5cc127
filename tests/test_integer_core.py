"""The exact integer core computes without ``Fraction``.

The kernel (with ``null_vector``, the one elimination that classifies
each partition and gives the Radon dependence), the per-partition path
of the scan (the enumerator, the kernel part's matrix N, the common
point built from its null vector, the negative flags that ``_scan`` and
``_radon_signs`` read, and the ``accept`` tests of ``search_exact_k``
and ``search_prescribed`` that read them), the r = 2 spectrum
read from the Radon dependence (its K and its zero-sum count), the
general-position check, Wolfe's method (all of ``minnorm``, the pivoting
solver's inner loop and the separation test), the tensor and permutation
lifts, the pivot loop, which returns Wolfe's integer weights, the
recovery up to ``decode_weights`` and the sums that ``verify`` re-checks
(``linalg.int_weighted_sum``) run on Python ints only; rationals stay at
the edges (parsing, certificates, overlap witnesses, the trace's lines,
the problem texts of ``verify``).  Each named module, function or class
below is parsed, not imported, and searched for any use of the name
``Fraction``, whether called, bound or read off ``fractions``.
Docstrings and comments do not count.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tvpm"

# module -> the top-level functions and classes that must stay integral
# (None: the whole module)
INTEGER_CORE = {
    # eliminate, every_subset_independent, back_substitute, null_vector,
    # ff_solve and the rest of the module
    "kernel.py": None,
    "gen.py": ("general_position",),
    "linalg.py": ("hull_factor", "int_weighted_sum"),
    "core.py": ("common_point",),
    "search.py": ("proper_partitions", "_scan", "_radon_weights",
                  "_radon_signs", "search_exact_k", "search_prescribed",
                  "_subset_sums", "_zero_sum_bipartitions", "radon_spectrum"),
    "minnorm.py": None,
    "sarkaria.py": ("companion_simplex", "LiftColor", "lift",
                    "pivot_to_origin", "recover"),
    "colored.py": ("lex_first_assignment", "lehmer_rank", "PermutationColor"),
    "check.py": ("assigned_parts",),
}


def fraction_uses(tree):
    """Sorted line numbers where ``Fraction`` is named in the tree."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "Fraction")
        or (isinstance(node, ast.Attribute) and node.attr == "Fraction")
        or (isinstance(node, ast.alias) and node.name == "Fraction"))


def definitions(tree, names):
    """The top-level definitions of ``names``, each required to exist."""
    found = {node.name: node for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    missing = sorted(set(names) - set(found))
    assert not missing, "not defined: %s" % missing
    return [found[name] for name in names]


def test_the_guard_sees_each_fraction_use():
    code = ('"""Fraction in a docstring is fine."""\n'
            "def f(x):\n"
            "    return Fraction(x, 2)\n"
            "def g(x):\n"
            "    import fractions\n"
            "    return fractions.Fraction(x)\n"
            "def h(x):\n"
            "    from fractions import Fraction\n"
            "    # Fraction in a comment is fine\n"
            "    return x // 2\n"
            "def clean(x):\n"
            "    return x // 2\n")
    tree = ast.parse(code)
    assert fraction_uses(tree) == [3, 6, 8]
    f, g, h, clean = definitions(tree, ("f", "g", "h", "clean"))
    assert fraction_uses(f) == [3]
    assert fraction_uses(g) == [6]
    assert fraction_uses(h) == [8]
    assert fraction_uses(clean) == []


@pytest.mark.parametrize("module", sorted(INTEGER_CORE))
def test_integer_core_names_no_fraction(module):
    path = SRC / module
    tree = ast.parse(path.read_text(), str(path))
    names = INTEGER_CORE[module]
    nodes = [tree] if names is None else definitions(tree, names)
    used = {getattr(node, "name", module): fraction_uses(node)
            for node in nodes}
    assert not any(used.values()), used
