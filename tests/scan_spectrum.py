"""The r = 2 spectrum read from the bipartition scan.

``radon_spectrum`` answers a generic input from the Radon dependence
alone; this collects the same ``SpectrumResult`` from ``search._scan``,
which decides every bipartition in turn, so the tests can compare the two.
"""

from tvpm import search


def scanned_spectrum(config):
    """Negative counts, bipartitions scanned and bipartitions skipped, as
    the scan over all bipartitions of ``config`` finds them."""
    ks = set()
    count = 0

    def collect(j, part, flags):
        # both parts read, the count kept, and the bipartition rejected
        nonlocal count
        count = (count if j else 0) + sum(flags)
        if j:
            ks.add(count)
        return not j

    res = search._scan(config, collect)
    return search.SpectrumResult(frozenset(ks), res.scanned, res.skipped)
