"""The r = 2 spectrum read from the block system of every bipartition.

``radon_spectrum`` and ``search._scan`` both read r = 2 from the one
Radon dependence; this collects the same ``SpectrumResult`` from
``linalg_oracle.block_intersection``, which solves each bipartition's
block system on its own, so the tests compare the closed form with code
that never forms that dependence.
"""

from tvpm.search import SpectrumResult, proper_partitions

from linalg_oracle import block_intersection


def scanned_spectrum(config):
    """Negative counts, bipartitions scanned and bipartitions skipped, as
    the block systems of all bipartitions of ``config`` give them: a
    bipartition whose hulls do not meet in one point is skipped."""
    ks = set()
    scanned = skipped = 0
    for partition in proper_partitions(config.n, config.r, config.d):
        scanned += 1
        block = block_intersection(config, partition)
        if block.kind != "point":
            skipped += 1
            continue
        ks.add(sum(a < 0 for a in block.alpha.values()))
    return SpectrumResult(frozenset(ks), scanned, skipped)
