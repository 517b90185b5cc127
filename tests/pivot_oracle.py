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

from fractions import Fraction

from tvpm.linalg import vdot
from tvpm.minnorm import Corral, gram, min_norm_point


class VectorColor(tuple):
    """Integer vectors as a colour: ``most_opposed`` scans them all for
    the first of least inner product with y."""

    __slots__ = ()

    def most_opposed(self, y):
        j = min(range(len(self)), key=lambda t: (vdot(y, self[t]), t))
        return j, self[j], vdot(y, self[j])


def cold_pivot_to_origin(sets, init_choice, scale=1):
    """Return ``((choice, weights), steps, fallbacks)``.

    ``sets`` are colours, as ``pivot_to_origin`` takes them; ``steps``
    are the ``(step, choice, w, normsq)`` tuples ``pivot_to_origin``'s
    trace gets with the same ``scale``, and ``fallbacks`` lists the steps
    at which no color lay off the hyperplane.
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
        den = q * scale
        steps.append((len(steps), tuple(choice),
                      tuple(Fraction(c, den) for c in y),
                      Fraction(nsq, den * den)))
        if nsq == 0:
            weights = tuple(Fraction(lam.get(i, 0), q)
                            for i in range(ncolors))
            return (tuple(choice), weights), steps, fallbacks
        # the colors with <w, p> > |w|^2
        off = [i for i, p in enumerate(current) if vdot(y, p) * q > nsq]
        if off:
            i0 = off[0]
        else:
            fallbacks.append(len(steps) - 1)
            i0 = min(i for i in range(ncolors) if i not in lam)
        choice[i0] = sets[i0].most_opposed(y)[0]
