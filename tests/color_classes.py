"""Colour-class inputs for the tests: seeded random classes and the JSON
document that ``tvpm colored --input`` reads.

No library code writes a class document; ``perfbench/workloads.py`` draws
its own classes.  ``classes_to_json`` is the inverse of
``tvpm.core.classes_from_json``.
"""

import random
from fractions import Fraction

from tvpm.core import SCHEMA, ColorClasses
from tvpm.gen import general_position
from tvpm.linalg import format_vec


def random_classes(d, r, seed):
    """(r-1)d+1 classes of r points, jointly in general position."""
    rng = random.Random(seed)
    n = (r - 1) * d + 1
    while True:
        pts = []
        for _ in range(n * r):
            pts.append(tuple(Fraction(rng.randint(-10**6, 10**6), 10**3)
                             for _ in range(d)))
        if len(set(pts)) == len(pts) and general_position(pts, d):
            groups = tuple(tuple(pts[i * r:(i + 1) * r]) for i in range(n))
            return ColorClasses(d=d, r=r, classes=groups)


def classes_to_json(cc, m_set=None):
    out = {
        "schema": SCHEMA,
        "kind": "color_classes",
        "d": cc.d,
        "r": cc.r,
        "classes": [[format_vec(p) for p in group] for group in cc.classes],
    }
    if m_set is not None:
        out["m"] = sorted(m_set)
    return out
