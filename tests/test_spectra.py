"""The comparison shared by the flat and spherical spectra."""

from fractions import Fraction

from curvspec import flat, spherical
from curvspec.spectra import ComparisonResult, first_difference


def test_both_geometries_share_one_comparison_result():
    assert flat.ComparisonResult is spherical.ComparisonResult is ComparisonResult


def test_first_difference_reports_the_smallest_differing_eigenvalue():
    assert first_difference({}, {}) == ComparisonResult(True, None)
    assert first_difference({1: 2, 3: 0}, {1: 2}) == ComparisonResult(True, None)
    assert first_difference({1: 2}, {1: 2, 3: 1}) == ComparisonResult(False, (3, 0, 1))
    # the smallest differing eigenvalue, whatever the maps' key order
    a = {Fraction(5, 2): 1, 1: 4, 0: 1}
    b = {0: 1, 1: 4, 2: 7, Fraction(5, 2): 2}
    assert first_difference(a, b) == ComparisonResult(False, (2, 0, 7))
    assert first_difference(b, a) == ComparisonResult(False, (2, 7, 0))
