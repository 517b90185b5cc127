"""Exact construction, search, and verification of sign-prescribed
Tverberg partitions over the rationals."""

__version__ = "0.1.0"

from tvpm.core import (
    AffineCertificate,
    Intersection,
    PointConfig,
    canonical_partition,
    intersect_affine_hulls,
)

__all__ = [
    "__version__",
    "AffineCertificate",
    "Intersection",
    "PointConfig",
    "canonical_partition",
    "intersect_affine_hulls",
    "verify_certificate",
]


def __getattr__(name):
    # verify_certificate loads the checker on first use, so that importing
    # the CLI does not load it
    if name == "verify_certificate":
        from tvpm.check import verify_certificate
        return verify_certificate
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
