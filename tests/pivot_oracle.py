"""Cold-replay oracle for ``tvpm.sarkaria.pivot_to_origin``.

``cold_pivot_to_origin`` makes the same pivots with the same swap rule,
read from w alone, but every pivot runs Wolfe's method afresh: a new Gram
matrix and a fresh ``Corral``, so ``min_norm_point`` starts from its
single point of least norm.  The library keeps one corral across pivots
instead, so the two agree on every pivot up to the first one where no
color lies strictly off the hyperplane <w, p> = |w|^2 and the rule falls
back to the smallest color without weight, which depends on the support
that represents w.

``VectorColor`` hands an explicit vector set to either engine as a colour.
"""

from tvpm.linalg import vdot
from tvpm.minnorm import Corral, gram, min_norm_point


class VectorColor(tuple):
    """Integer vectors as a colour: ``most_opposed`` scans them all for
    the first of least inner product with y."""

    __slots__ = ()

    def most_opposed(self, y):
        j = min(range(len(self)), key=lambda t: (vdot(y, self[t]), t))
        return j, self[j], vdot(y, self[j])


def cold_pivot_to_origin(sets, init_choice):
    """Return ``((choice, lam, q), steps, fallbacks)``.

    ``sets`` are colours, as ``pivot_to_origin`` takes them, and the
    result has its integer contract; ``steps`` are the ``(step, choice, y,
    nsq, q)`` int tuples ``pivot_to_origin``'s trace gets, and
    ``fallbacks`` lists the steps at which no color lay off the
    hyperplane.
    """
    ncolors = len(sets)
    choice = list(init_choice)
    steps, fallbacks = [], []
    while True:
        current = [sets[i][choice[i]] for i in range(ncolors)]
        corral = Corral(gram(current))
        min_norm_point(corral)
        lam, q = corral.lam, corral.q
        y = [0] * len(current[0])
        for i, c in lam.items():
            y = [a + c * b for a, b in zip(y, current[i])]
        nsq = vdot(y, y)
        steps.append((len(steps), tuple(choice), tuple(y), nsq, q))
        if nsq == 0:
            weights = tuple(lam.get(i, 0) for i in range(ncolors))
            return (tuple(choice), weights, q), steps, fallbacks
        # the colors with <w, p> > |w|^2
        off = [i for i, p in enumerate(current) if vdot(y, p) * q > nsq]
        if off:
            i0 = off[0]
        else:
            fallbacks.append(len(steps) - 1)
            i0 = min(i for i in range(ncolors) if i not in lam)
        choice[i0] = sets[i0].most_opposed(y)[0]
