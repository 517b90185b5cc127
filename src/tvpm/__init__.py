"""Exact construction, search, and verification of sign-prescribed
Tverberg partitions over the rationals."""

__version__ = "0.1.0"

from tvpm.core import (
    AffineCertificate,
    Intersection,
    PointConfig,
    canonical_partition,
    intersect_affine_hulls,
    verify_certificate,
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
