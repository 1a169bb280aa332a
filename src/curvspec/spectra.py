"""Comparison of two spectra, shared by the flat and spherical geometries.

Both geometries decide isospectrality by comparing two eigenvalue ->
multiplicity maps eigenvalue by eigenvalue; an eigenvalue missing from a map
has multiplicity 0.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ComparisonResult:
    isospectral: bool
    # (eigenvalue, multiplicity in the first map, in the second), or None
    first_discrepancy: tuple | None


def first_difference(a: dict, b: dict) -> ComparisonResult:
    """Agreement of two eigenvalue -> multiplicity maps, or the smallest
    eigenvalue where they differ."""
    for lam in sorted(a.keys() | b.keys()):
        d1, d2 = a.get(lam, 0), b.get(lam, 0)
        if d1 != d2:
            return ComparisonResult(False, (lam, d1, d2))
    return ComparisonResult(True, None)
