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

    def collect(parts):
        ks.add(sum(sum(flags) for _, flags in parts))
        return False

    res = search._scan(config, collect)
    return search.SpectrumResult(frozenset(ks), res.scanned, res.skipped)
