"""The comparison shared by the flat and spherical spectra."""

import itertools
from fractions import Fraction

from curvspec import flat, spectra, spherical
from curvspec.spectra import ComparisonResult
from oracles import far_origin, first_difference


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


def test_one_table_answers_every_spherical_mode_as_the_spectra_do():
    # spec and both halves against the maps they summarise, and tau against
    # the label-by-label count of both families for 1 <= k <= k_max
    pairs = [
        (spherical.lens_space(7, [1, 2, 3]), spherical.lens_space(7, [1, 2, 4])),
        (spherical.lens_space(7, [1, 2, 3]), spherical.lens_space(7, [1, 1, 2])),
        (spherical.lens_space(5, [1, 1, 1]), spherical.lens_space(5, [1, 1, 2])),
        (spherical.lens_space(9, [1, 2]), spherical.lens_space(9, [1, 4])),
    ]
    for g1, g2 in pairs:
        n = g1.n
        for p in range(n + 1):
            for cutoff in (0, 5, Fraction(81, 2)):
                spec = [spherical.p_spectrum(g, p, cutoff).entries for g in (g1, g2)]
                assert spherical.compare(g1, g2, p, cutoff) == first_difference(*spec)
                for mode, closed in (("half-closed", True), ("half-coclosed", False)):
                    halves = [spherical.half_spectrum(g, p, closed, cutoff) for g in (g1, g2)]
                    got = spectra.answer(g1, g2, p, (cutoff, False), spherical._pieces, mode)
                    assert got == first_difference(*halves)
            for k_max in (0, 1, 3):
                labels = [
                    spherical.family_label(g1.m, j, k)
                    for j in (p, p + 1) if 1 <= j <= n for k in range(1, k_max + 1)
                ]
                expected = all(spherical.n_gamma(g1, x) == spherical.n_gamma(g2, x) for x in labels)
                assert spherical.tau_equivalent(g1, g2, p, k_max) == expected


_BALL = {"mu", "scale", "shells", "keys"}


def test_every_cache_key_names_a_section():
    # a flat group keeps its ball, rows and comparison tables under their
    # names, on the walk (Klein) and on the frame (flat4) alike, its shells
    # holding integer phase sums (the fixtures, D = 2) or, with its origin
    # moved (D = 34), residue counts
    table = flat.fixtures()
    pairs = (("klein_a", "klein_b"), ("flat4_a", "flat4_b"))
    for (a, b), moved in itertools.product(pairs, (False, True)):
        g1, g2 = (flat.BieberbachGroup(table[x].lattice, table[x].cosets) for x in (a, b))
        g1 = far_origin(g1) if moved else g1
        assert (g1._denom in flat._TWO_COS) != moved
        for p in range(g1.n + 1):
            flat.spectrum(g1, p, 3)
            flat.compare(g1, g2, p, 3)
            flat.tau_equivalent(g1, g2, p, 3)
            flat.d_lambda(g1, p, 2)
            flat.n_sigma_multiplicity(g2, p, 1)
        flat.e_mu_gamma(g1, 1, 1)
        for g in (g1, g2):
            assert set(g._cache) == {"shells", "rows", "pairs"}
            assert set(g._cache["shells"]) == _BALL and g._cache["rows"]
        assert g1._cache["pairs"] and g2._cache["pairs"] == {}
    assert set(table["klein_a"].lattice._ball) == _BALL
    # a lens group keeps its family tables, lattice counts, labels and
    # comparison tables likewise
    g1, g2 = spherical.lens_space(7, [1, 2, 3]), spherical.lens_space(7, [1, 1, 2])
    for p in range(g1.n + 1):
        spherical.p_spectrum(g1, p, 40)
        spherical.compare(g1, g2, p, 40)
        spherical.tau_equivalent(g1, g2, p, 3)
    assert spherical.n_gamma(g1, spherical.family_label(3, 2, 2)) >= 0
    for g in (g1, g2):
        assert set(g._cache) == {"families", "lattice", "labels", "pairs"}
    assert all(g1._cache.values()) and g1._cache["lattice"].radius > 0
