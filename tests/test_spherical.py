"""Spectra of odd-dimensional spherical quotients and their comparisons."""

import collections
import itertools
import json
import math
import operator
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curvspec import cli, liealg, ratlinalg, spherical
from curvspec.errors import InvariantViolation
from curvspec.liealg import IrrepLabelO, RootSystem, RotationElement, character_o
from curvspec.spherical import (
    LensElements,
    SphericalGroup,
    casimir_collision_scan,
    compare,
    eigenvalue_family,
    family_label,
    half_spectrum,
    k_from_lambda,
    lens_space,
    n_gamma,
    p_spectrum,
    tau_equivalent,
    trivial_group,
)
from oracles import (
    lattice_counts_by_prefix_shells,
    lens_data_by_elements,
    n_gamma_by_weights,
)


# ---------------------------------------------------------------- groups


def test_trivial_and_small_lens_spaces():
    g = trivial_group(2)
    assert g.order == 1 and g.n == 3
    rp3 = lens_space(2, [1, 1])
    assert rp3.order == 2
    assert RotationElement((Fraction(1, 2), Fraction(1, 2))) in rp3.elements
    l7 = lens_space(7, [1, 2])
    assert l7.order == 7 and l7.n == 3


def test_lens_space_refuses_non_integers():
    # a float or bool N or q_j is refused, not truncated or taken as 0 or 1
    for big_n, q in ((7, [1.5, 1]), (7, [True, 2]), (7.0, [1, 2])):
        with pytest.raises(InvariantViolation, match="not an integer"):
            lens_space(big_n, q)
        with pytest.raises(InvariantViolation, match="not an integer"):
            LensElements(big_n, tuple(q))


def test_lens_space_requires_coprime_parameters():
    with pytest.raises(InvariantViolation):
        lens_space(4, [1, 2])
    with pytest.raises(InvariantViolation):
        lens_space(6, [3, 5])


def test_group_must_be_closed():
    third, sixth, quarter, half = Fraction(1, 3), Fraction(1, 6), Fraction(1, 4), Fraction(1, 2)
    bad = (
        # a lone non-identity rotation without its powers
        ((0, 0), (third, third)),
        # first angle 1/3, but that element has order 6, not 3
        ((0, 0), (third, sixth), (2 * third, third)),
        # angles whose denominator does not divide the order 4, without and
        # with an element of first angle 1/4
        ((0, 0), (third, third), (2 * third, 2 * third), (half, half)),
        ((0, 0), (quarter, quarter), (half, half), (third, third)),
        # a duplicate written as an unreduced angle
        ((0, 0), (half, half), (3 * half, half)),
    )
    for angles in bad:
        for elements in _both_forms(angles):
            with pytest.raises(InvariantViolation, match="closed|duplicate"):
                SphericalGroup(2, elements)


def _both_forms(angles):
    """An element list as `RotationElement`s and as reduced angle pairs."""
    elems = tuple(RotationElement(a) for a in angles)
    return elems, tuple(tuple((a.numerator, a.denominator) for a in g.angles) for g in elems)


def test_element_lists_become_the_lens_data():
    lens = lens_space(12, [5, 7, 1])
    for elements in _both_forms(g.angles for g in reversed(list(lens.elements))):
        group = SphericalGroup(3, elements)
        # the generator is the element with first angle 1/N: 5^-1 = 5 mod 12
        assert group.elements == LensElements(12, (1, 11, 5))
        assert group.order == len(group.elements) == 12
        assert set(group.elements) == set(lens.elements)


def test_group_must_act_freely():
    half = Fraction(1, 2)
    bad = (
        # angle 0 in one plane fixes that plane pointwise
        ((0, 0), (half, 0)),
        # closed, but the Klein four-group is not cyclic, so not free
        ((0, 0), (half, 0), (0, half), (half, half)),
    )
    for angles in bad:
        for elements in _both_forms(angles):
            with pytest.raises(InvariantViolation):
                SphericalGroup(2, elements)


# ---------------------------------------------------------------- families


def test_eigenvalue_family_examples():
    assert eigenvalue_family(3, 1, 10) == [(0, 0), (1, 3), (2, 8)]
    assert eigenvalue_family(3, 2, 10) == [(1, 4), (2, 9)]
    assert eigenvalue_family(5, 0, 100) == []
    assert eigenvalue_family(5, 6, 100) == []
    # top family starts at k = 0 like the first one
    assert eigenvalue_family(3, 3, 10)[0] == (0, 0)


def test_k_from_lambda_examples():
    assert k_from_lambda(3, 1, 8) == 2
    assert k_from_lambda(3, 1, 0) == 0
    assert k_from_lambda(3, 1, 5) is None
    assert k_from_lambda(3, 0, 8) is None


def test_k_from_lambda_inverts_the_family():
    for n in (3, 5, 7):
        for p in range(1, n + 1):
            for k, lam in eigenvalue_family(n, p, 500):
                assert k_from_lambda(n, p, lam) == k


def test_family_disjointness_small():
    for n in (3, 5):
        for p in range(n + 1):
            e_p = {lam for _, lam in eigenvalue_family(n, p, 2000)}
            e_next = {lam for _, lam in eigenvalue_family(n, p + 1, 2000)}
            assert not e_p & e_next


# ---------------------------------------------------------------- n_gamma


def test_n_gamma_trivial_group_is_dimension():
    g = trivial_group(2)
    for k in range(6):
        assert n_gamma(g, family_label(2, 1, k)) == (k + 1) ** 2


def test_n_gamma_projective_space_parity():
    rp3 = lens_space(2, [1, 1])
    for k in range(8):
        expected = 0 if k % 2 else ((k + 1) ** 2 + (k + 1) ** 2) // 2
        assert n_gamma(rp3, family_label(2, 1, k)) == (0 if k % 2 else (k + 1) ** 2)
        if k == 2:
            assert n_gamma(rp3, family_label(2, 1, k)) == 9
    assert expected == 0  # last k checked is odd


def test_n_gamma_random_labels_are_nonnegative_integers():
    rng = random.Random(424242)
    trials = 0
    while trials < 500:
        m = rng.choice((2, 3))
        big_n = rng.randrange(1, 13)
        units = [r for r in range(1, big_n + 1) if math.gcd(r, big_n) == 1]
        group = lens_space(big_n, [rng.choice(units) for _ in range(m)])
        j = rng.randrange(1, 2 * m)
        n = 2 * m - 1
        k_min = 0 if min(j, n + 1 - j) == 1 else 1
        k = rng.randrange(k_min, 9)
        val = n_gamma(group, family_label(m, j, k))
        assert isinstance(val, int) and val >= 0
        trials += 1


def _lens_sweep(m, seed):
    """L(N; q) on S^(2m-1) for N = 1..30 and N = 10007, q drawn from the
    units mod N (N = 1 is the sphere, q = 0)."""
    rng = random.Random(seed)
    for big_n in [*range(1, 31), 10007]:
        units = [u for u in range(big_n) if math.gcd(u, big_n) == 1]
        yield lens_space(big_n, [rng.choice(units) for _ in range(m)])


def test_n_gamma_is_the_per_weight_count():
    # every family label with m <= 4 and k <= 8; the per-weight scan of the
    # full weight table is the oracle
    for m in (2, 3, 4):
        n = 2 * m - 1
        labels = [
            family_label(m, j, k)
            for j in range(1, n + 1)
            for k in range(0 if min(j, n + 1 - j) == 1 else 1, 9)
        ]
        for group in _lens_sweep(m, 7000 + m):
            for label in labels:
                assert n_gamma(group, label) == n_gamma_by_weights(group, label), (group, label)


def test_lattice_counts_extend_to_the_brute_force_count():
    # N <= 2R puts several values of the last coordinate in one class
    for big_n, q in ((1, (0, 0)), (2, (1, 1, 1)), (3, (1, 2)), (7, (1, 2, 3, 1)), (10007, (1, 2, 3))):
        m, radius = len(q), 7
        ball = [
            mu for mu in itertools.product(range(-radius, radius + 1), repeat=m)
            if sum(map(abs, mu)) <= radius and sum(map(operator.mul, mu, q)) % big_n == 0
        ]
        expected = collections.Counter((sum(map(abs, mu)), mu.count(0)) for mu in ball)
        grown = spherical._LatticeCounts(big_n, q)
        for r in (0, 1, 4, 4, 2, 7):
            grown.up_to(r)
        assert grown.up_to(radius) == dict(expected)
        assert spherical._LatticeCounts(big_n, q).up_to(radius) == dict(expected)


def _brute_force_counts(big_n, q, radius):
    ball = (
        mu for mu in itertools.product(range(-radius, radius + 1), repeat=len(q))
        if sum(map(abs, mu)) <= radius and sum(map(operator.mul, mu, q)) % big_n == 0
    )
    return dict(collections.Counter((sum(map(abs, mu)), mu.count(0)) for mu in ball))


@st.composite
def _lattice_cases(draw):
    # each q_j is a unit mod N moved by a multiple of N, so it may be negative or >= N
    m = draw(st.sampled_from((2, 3, 4)))
    big_n = draw(st.integers(1, 40))
    units = [u for u in range(big_n) if math.gcd(u, big_n) == 1]
    q = tuple(draw(st.sampled_from(units)) + big_n * draw(st.integers(-3, 3)) for _ in range(m))
    # the oracle walks the ball of the first m-1 coordinates: at m = 4 the
    # radius stops at 30 (about 36 000 prefixes)
    top = 3 * big_n if m < 4 else min(3 * big_n, 30)
    return big_n, q, draw(st.lists(st.integers(0, top), min_size=1, max_size=4))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(_lattice_cases())
@example((1, (0, 0), [0, 1, 4, 4, 2, 7]))
@example((1, (5, -3, 8), [0, 1, 4, 4, 2, 7]))
@example((7, (1, 2, 3, 1), [0, 1, 4, 4, 2, 7]))
@example((40, (-1, 43, 79, 121), [30, 12]))
def test_lattice_dp_equals_the_prefix_shell_count(case):
    # asked in any order, the counts are the oracle's to the largest radius
    # asked so far, and the brute-force ball's up to radius 6
    big_n, q, radii = case
    oracle = lattice_counts_by_prefix_shells(big_n, q, max(radii))
    grown = spherical._LatticeCounts(big_n, q)
    for i, radius in enumerate(radii):
        reached = max(radii[: i + 1])
        assert grown.up_to(radius) == {rl: c for rl, c in oracle.items() if rl[0] <= reached}
        assert grown.radius == reached
    small = min(max(radii), 6)
    assert spherical._LatticeCounts(big_n, q).up_to(small) == _brute_force_counts(big_n, q, small)


def _lattice_runs(monkeypatch) -> list:
    """The (N, radius) of every lattice count that runs from now on."""
    runs = []
    real = spherical._LatticeCounts.up_to

    def counted(self, radius):
        if radius > self.radius:
            runs.append((self.big_n, radius))
        return real(self, radius)

    monkeypatch.setattr(spherical._LatticeCounts, "up_to", counted)
    return runs


def test_cli_spectra_count_the_lattice_once_per_group(monkeypatch, tmp_path, capsys):
    runs = _lattice_runs(monkeypatch)
    files = []
    for big_n, q in ((89, (1, 2, 3)), (89, (1, 2, 4))):
        rows = [{"angles": [f"{t * x % big_n}/{big_n}" for x in q]} for t in range(big_n)]
        files.append(tmp_path / f"lens{q[-1]}.json")
        files[-1].write_text(json.dumps({"space": "spherical", "elements": rows}))
    assert cli.main(["spectrum", str(files[0]), "--p", "all", "--cutoff", "40"]) == 0
    # radius 6: k = 4 at q = 3 in the middle family, k^2 + 4k + 4 <= 40
    assert runs == [(89, 6)]
    for mode in ("spec", "half-closed", "half-coclosed"):
        runs.clear()
        argv = ["compare", *map(str, files), "--cutoff", "40", "--mode", mode]
        assert cli.main(argv) in (0, 1)
        assert runs == [(89, 6), (89, 6)]
    capsys.readouterr()


def test_rising_n_gamma_counts_the_lattice_log_times(monkeypatch):
    runs = _lattice_runs(monkeypatch)
    for top in (1, 2, 3, 5, 16, 17, 40):
        for j in (1, 2, 3):
            runs.clear()
            group = lens_space(13, (1, 5, 6))
            expected = [n_gamma_by_weights(group, family_label(3, j, k)) for k in range(1, 9)]
            got = [n_gamma(group, family_label(3, j, k)) for k in range(1, top + 1)]
            assert got[:8] == expected[:top]
            assert len(runs) <= math.ceil(math.log2(top)) + 1, (top, j, runs)


def _spell(pair, rng):
    """Another spelling of the angle a/b: plus an integer, or both terms scaled."""
    a, b = pair
    if rng.random() < 0.5:
        return a + b * rng.randrange(-2, 3), b
    k = rng.randrange(2, 4)
    return a * k, b * k


@st.composite
def _element_lists(draw):
    m = draw(st.sampled_from((2, 3)))
    big_n = draw(st.integers(1, 24))
    units = [u for u in range(1, big_n + 1) if math.gcd(u, big_n) == 1]
    q = draw(st.lists(st.sampled_from(units), min_size=m, max_size=m))
    rng = random.Random(draw(st.integers(0, 2**32)))
    rows = [[(t * x % big_n, big_n) for x in q] for t in range(big_n)]
    rng.shuffle(rows)
    kinds = ("drop", "duplicate", "rank", "duplicate-then-rank", "rank-then-duplicate", "zero")
    faults = draw(st.lists(st.sampled_from((*kinds, "denominator", "swap")), max_size=3))
    for fault in faults:
        at = rng.randrange(len(rows) + 1)
        row = rows[rng.randrange(len(rows))] if rows else [(0, 1)] * m
        if fault == "drop" and rows:
            del rows[rng.randrange(len(rows))]
        if fault in ("duplicate", "duplicate-then-rank", "rank-then-duplicate"):
            copy = [_spell(pair, rng) for pair in row]
            wrong = [(0, 1)] * rng.choice((m - 1, m + 1))
            rows[at:at] = {"duplicate": [copy], "duplicate-then-rank": [copy, wrong]}.get(
                fault, [wrong, copy]
            )
        if fault == "rank":
            rows.insert(at, [(1, big_n)] * rng.choice((m - 1, m + 1)))
        if fault in ("zero", "denominator") and rows:
            row = rows[rng.randrange(len(rows))]
            bad = (0, 1) if fault == "zero" else (1, next(d for d in range(2, 99) if big_n % d))
            row[rng.randrange(m)] = bad
        if fault == "swap" and rows:
            # two rows exchange their angle in one plane
            one, two = (rows[rng.randrange(len(rows))] for _ in range(2))
            j = rng.randrange(m)
            if len(one) == len(two) == m:
                one[j], two[j] = two[j], one[j]
    pairs = [tuple(row) for row in rows]
    form = draw(st.sampled_from(("pairs", "elements", "strings")))
    if form == "elements":
        rows = [RotationElement(tuple(Fraction(a, b) for a, b in row)) for row in rows]
    if form == "strings":
        rows = [[_as_string(pair, rng) for pair in row] for row in rows]
    return m, (pairs if form == "pairs" else rows), pairs


def _as_string(pair, rng):
    """The angle a/b as a string, in one of the spellings of an input file."""
    a, b = pair
    forms = [f"{a}/{b}", f"{2 * a}/{2 * b}", f" {a}/{b}", *([str(a)] if b == 1 else [])]
    return rng.choice(forms)


def _lens_data_or_message(fn, *args):
    try:
        return fn(*args)
    except InvariantViolation as exc:
        return str(exc)


_RANK_THEN_DUPLICATE = [[(0, 3), (0, 3)], [(1, 3), (1, 3)], [(1, 3)], [(2, 3), (2, 3)], [(4, 6), (4, 6)]]


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_element_lists())
@example((2, [[f"{a}/{b}" for a, b in row] for row in _RANK_THEN_DUPLICATE], _RANK_THEN_DUPLICATE))
def test_element_lists_are_read_as_the_element_by_element_check_reads_them(case):
    # the oracle reads the angles as pairs, whatever form the rows take
    m, rows, pairs = case
    group = _lens_data_or_message(SphericalGroup, m, tuple(rows))
    if isinstance(group, SphericalGroup):
        group = group.order, group.elements.q
    assert group == _lens_data_or_message(lens_data_by_elements, m, pairs)


@pytest.mark.parametrize(
    "pair", [(1, 0), (1, 2.0), (True, 2), (1, 2, 3)], ids=["zero", "float", "bool", "triple"]
)
def test_a_malformed_angle_pair_is_refused_by_name(pair):
    with pytest.raises(ValueError, match=rf"^bad rational {re.escape(repr(pair))}$"):
        SphericalGroup(2, [[(0, 1), (0, 1)], [pair, (1, 2)]])


def test_rows_given_as_iterators_read_as_lists():
    rows = [[f"{t * x % 5}/5" for x in (1, 2)] for t in range(5)]
    group = SphericalGroup(2, [iter(row) for row in rows])
    assert group.elements == SphericalGroup(2, rows).elements == LensElements(5, (1, 2))


def test_spectra_build_no_full_weight_table(monkeypatch):
    def refuse(*args):
        raise AssertionError("a weight table was read")

    monkeypatch.setattr(liealg, "weyl_orbit", refuse)
    monkeypatch.setattr(liealg, "weight_multiplicities", refuse)
    monkeypatch.setattr(liealg, "dominant_multiplicities", refuse)
    spherical._key_multiplicities.cache_clear()
    g1, g2 = lens_space(7, [1, 2, 3]), lens_space(7, [1, 2, 4])
    for p in range(g1.n + 1):
        assert p_spectrum(g1, p, 80).entries
        half_spectrum(g2, p, False, 80)
        assert tau_equivalent(g1, g2, p, 8)


def test_key_multiplicities_are_the_dominant_weight_tables():
    # every family label with m <= 5 and k <= 10: the Freudenthal table (plus
    # the conjugate's when delta = 0) is a function of the key (1-norm,
    # zeros), and the closed form gives it on every key that has a weight
    for m in (2, 3, 4, 5):
        rs = RootSystem("D", m)
        for q in range(1, m + 1):
            for k in range(0 if q == 1 else 1, 11):
                label = family_label(m, q, k)
                table = collections.Counter(liealg.dominant_multiplicities(rs, label.weight))
                if label.delta == 0:
                    conjugate = liealg.conjugate_weight(rs, label.weight)
                    table.update(liealg.dominant_multiplicities(rs, conjugate))
                expected = {}
                for mu, mult in table.items():
                    key = (sum(map(abs, mu)), mu.count(0))
                    assert expected.setdefault(key, mult) == mult, (label, mu)
                got = dict(spherical._key_multiplicities(m, k, q))
                assert got == expected, label


def test_n_gamma_refuses_a_label_outside_the_families():
    for group, label in (
        (trivial_group(3), IrrepLabelO((2, 2, 0), 1)),
        (trivial_group(2), IrrepLabelO((2, 2), 0)),
        (lens_space(7, [1, 2, 3]), IrrepLabelO((3, 2, 1), 0)),
    ):
        with pytest.raises(ValueError, match="not a family label"):
            n_gamma(group, label)
        assert (label.weight, label.delta) not in group._cache["labels"]


# ---------------------------------------------------------------- spectra


def test_function_spectrum_of_round_sphere():
    g = trivial_group(2)
    spec = p_spectrum(g, 0, 50).entries
    assert spec == {0: 1, 3: 4, 8: 9, 15: 16, 24: 25, 35: 36, 48: 49}


def test_function_spectrum_of_projective_space_drops_odd_levels():
    rp3 = lens_space(2, [1, 1])
    spec = p_spectrum(rp3, 0, 50).entries
    assert spec == {0: 1, 8: 9, 24: 25, 48: 49}


def test_one_form_spectrum_of_round_sphere():
    # closed part k(k+2) with multiplicity (k+1)^2 (k >= 1), coclosed part
    # (k+1)^2 with multiplicity 2k(k+2) (k >= 1)
    g = trivial_group(2)
    spec = p_spectrum(g, 1, 35).entries
    expected = {}
    for k in range(1, 6):
        expected[k * (k + 2)] = (k + 1) ** 2
    for k in range(1, 5):
        expected[(k + 1) ** 2] = expected.get((k + 1) ** 2, 0) + 2 * k * (k + 2)
    expected = {lam: d for lam, d in expected.items() if lam <= 35}
    assert spec == expected


def test_classical_multiplicity_oracle():
    # multiplicity of the k-th eigenvalue on the round n-sphere via the
    # factorial closed form, computed independently with exact integers
    for m in (2, 3, 4):
        n = 2 * m - 1
        g = trivial_group(m)
        lam_max = 15 * (15 + n - 1)
        spec = p_spectrum(g, 0, lam_max).entries
        for k in range(16):
            lam = k * (k + n - 1)
            classical = (
                (2 * k + n - 1)
                * math.factorial(k + n - 2)
                // (math.factorial(k) * math.factorial(n - 1))
            )
            assert spec[lam] == classical


def test_poincare_duality():
    for group in (trivial_group(2), lens_space(5, [1, 2]), lens_space(8, [1, 3, 5])):
        n = group.n
        for p in range(n + 1):
            a = p_spectrum(group, p, 60).entries
            b = p_spectrum(group, n - p, 60).entries
            assert a == b


def test_degree_zero_and_top_include_zero_eigenvalue():
    g = lens_space(3, [1, 1])
    assert p_spectrum(g, 0, 10).entries[0] == 1
    assert p_spectrum(g, 3, 10).entries[0] == 1
    # middle degrees of a rational homology sphere carry no harmonic forms
    assert 0 not in p_spectrum(g, 1, 10).entries
    assert 0 not in p_spectrum(g, 2, 10).entries


# ---------------------------------------------------------------- halves


def _family_walk(g, p, lam_max):
    """The p-spectrum summed over both adjacent weight families, the k = 0
    label counted at degrees 0 and n only."""
    n, out = g.n, {}
    for j in (p, p + 1):
        if not 1 <= j <= n:
            continue
        for k, lam in eigenvalue_family(n, j, lam_max):
            if k == 0 and (j, p) not in ((1, 0), (n, n)):
                continue
            d = n_gamma(g, family_label(g.m, j, k))
            if d:
                out[lam] = out.get(lam, 0) + d
    return out


def test_half_spectra_partition_the_positive_spectrum():
    groups = [
        lens_space(7, [1, 2]),
        lens_space(5, [1, 3]),
        lens_space(12, [1, 5]),
        trivial_group(2),
        lens_space(9, [1, 2, 4]),
        lens_space(7, [1, 2, 3]),
        lens_space(8, [1, 3, 5]),
    ]
    for g in groups:
        n = g.n
        for p in range(n + 1):
            for lam_max in (0, 3, 60):
                closed = half_spectrum(g, p, True, lam_max)
                coclosed = half_spectrum(g, p, False, lam_max)
                assert not set(closed) & set(coclosed)
                assert all(lam > 0 for lam in (*closed, *coclosed))
                merged = {0: 1} if p in (0, n) else {}
                merged.update(closed)
                merged.update(coclosed)
                entries = p_spectrum(g, p, lam_max).entries
                assert list(entries.items()) == sorted(merged.items())
                assert entries == _family_walk(g, p, lam_max)


def test_coclosed_half_equals_next_closed_half():
    g = lens_space(9, [1, 2, 4])
    for p in range(g.n):
        assert half_spectrum(g, p, False, 80) == half_spectrum(g, p + 1, True, 80)


def test_half_spectrum_example_on_round_sphere():
    g = trivial_group(2)
    assert half_spectrum(g, 0, False, 3)[3] == 4


# ---------------------------------------------------------------- compare


def test_negative_cutoffs_are_refused_as_on_flat_groups():
    g1, g2 = lens_space(7, [1, 2]), lens_space(7, [1, 3])
    for p in range(g1.n + 1):
        for cutoff in (-1, Fraction(-1, 2), -3):
            for call in (
                lambda: compare(g1, g2, p, cutoff),
                lambda: tau_equivalent(g1, g2, p, cutoff),
                lambda: p_spectrum(g1, p, cutoff),
                lambda: half_spectrum(g1, p, True, cutoff),
                lambda: half_spectrum(g1, p, False, cutoff),
            ):
                with pytest.raises(ValueError, match="cutoff must be nonnegative"):
                    call()


def test_compare_group_with_itself():
    g = lens_space(5, [1, 3])
    for p in range(4):
        assert compare(g, g, p, 80).isospectral


def test_compare_sphere_with_projective_space():
    res = compare(trivial_group(2), lens_space(2, [1, 1]), 0, 50)
    assert not res.isospectral
    assert res.first_discrepancy == (3, 4, 0)


def test_compare_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        compare(trivial_group(2), trivial_group(3), 0, 10)


def test_permuted_lens_parameters_give_equal_spectra():
    g1 = lens_space(8, [1, 3, 5])
    g2 = lens_space(8, [5, 1, 3])
    for p in range(6):
        assert compare(g1, g2, p, 100).isospectral
        assert tau_equivalent(g1, g2, p, 10)


def test_trivial_label_is_invariant_under_every_group():
    # tau_equivalent skips k = 0: it labels the trivial representation
    for g in (
        lens_space(7, [1, 2, 3]),
        lens_space(2, [1, 1]),
        lens_space(12, [1, 5, 7]),
        lens_space(9, [2, 4]),
    ):
        for j in (1, g.n):
            label = family_label(g.m, j, 0)
            assert label == IrrepLabelO((0,) * g.m, 1)
            assert n_gamma(g, label) == 1


def test_tau_equivalence_examples():
    g1, g2 = trivial_group(2), lens_space(2, [1, 1])
    assert tau_equivalent(g1, g1, 0, 10)
    assert not tau_equivalent(g1, g2, 0, 10)
    # the two first differ at k = 1; below it only the trivial label is left
    assert not tau_equivalent(g1, g2, 0, 1)
    assert tau_equivalent(g1, g2, 0, 0)


def test_tau_equivalence_implies_isospectrality():
    # checked at matching cutoffs: lambda_max for degree-p spectra is the
    # largest family value reached by k_max in either adjacent family
    pairs = [
        (lens_space(8, [1, 3, 5]), lens_space(8, [3, 5, 1])),
        (lens_space(5, [1, 2]), lens_space(5, [2, 1])),
        (lens_space(7, [1, 2]), lens_space(7, [1, 3])),
    ]
    k_max = 8
    for g1, g2 in pairs:
        n = g1.n
        for p in range(n + 1):
            if tau_equivalent(g1, g2, p, k_max):
                lam_max = k_max * k_max + k_max * (n - 1)
                assert compare(g1, g2, p, lam_max).isospectral


# ---------------------------------------------------------------- scanner


def test_collision_scan_finds_no_collisions_for_small_families():
    assert casimir_collision_scan(4, (2, 2, 0), 20) == []
    assert casimir_collision_scan(4, (2, 1, 1), 20) == []
    assert casimir_collision_scan(3, (2, 2), 20) == []
    assert casimir_collision_scan(2, (2,), 40) == []
    assert casimir_collision_scan(2, (0,), 40) == []


def test_collision_scan_finds_the_cubic_family_collision():
    for m in (2, 3, 4):
        n = 2 * m - 1
        mu = (3,) + (0,) * (m - 2)
        hits = casimir_collision_scan(m, mu, 2 * m + 2)
        expected_pair = {
            (2 * m,) + (0,) * (m - 1),
            (2 * m - 1, 3) + (0,) * (m - 2),
        }
        lam = 2 * n * (n + 1)
        assert any(
            {w1, w2} == expected_pair and value == lam for w1, w2, value in hits
        )


def test_collision_scan_rejects_unsupported_weights():
    with pytest.raises(ValueError):
        casimir_collision_scan(3, (4, 0), 10)
    with pytest.raises(ValueError):
        casimir_collision_scan(3, (3, 1), 10)
    with pytest.raises(ValueError):
        casimir_collision_scan(3, (1, 2), 10)


def test_shuffled_elements_give_the_lens_space_spectra():
    rng = random.Random(77)
    for big_n, q in ((7, (3, 2)), (12, (5, 7, 1)), (9, (4, 2))):
        lens = lens_space(big_n, q)
        elems = list(lens.elements)
        rng.shuffle(elems)
        group = SphericalGroup(len(q), tuple(elems))
        for p in range(group.n + 1):
            assert p_spectrum(group, p, 80) == p_spectrum(lens, p, 80)


def test_n_gamma_is_the_rounded_character_average():
    # the float character average over the elements serves as the oracle
    rng = random.Random(8128)
    for _ in range(20):
        m = rng.choice((2, 3))
        big_n = rng.randrange(1, 14)
        units = [r for r in range(1, big_n + 1) if math.gcd(r, big_n) == 1]
        group = lens_space(big_n, [rng.choice(units) for _ in range(m)])
        n = 2 * m - 1
        for j in range(1, n + 1):
            for k in range(0 if min(j, n + 1 - j) == 1 else 1, 7):
                label = family_label(m, j, k)
                chars = (character_o(group.root_system, label, g) for g in group.elements)
                avg = sum(chars) / group.order
                assert abs(avg - round(avg.real)) < 1e-6
                assert n_gamma(group, label) == round(avg.real)


@st.composite
def _lens_data(draw):
    m = draw(st.sampled_from((2, 3)))
    big_n = draw(st.integers(1, 40))
    units = [u for u in range(1, big_n + 1) if math.gcd(u, big_n) == 1]
    return big_n, draw(st.lists(st.sampled_from(units), min_size=m, max_size=m)), units


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(_lens_data(), st.data())
def test_lens_isometries_leave_every_p_spectrum_unchanged(lens, data):
    # permuting q, negating a q_j and scaling q by a unit mod N give
    # isometric quotients; a shuffled element list is the same group
    big_n, q, units = lens
    m = len(q)
    signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=m, max_size=m))
    unit = data.draw(st.sampled_from(units))
    base = lens_space(big_n, q)
    shuffled = data.draw(st.permutations(list(base.elements)))
    variants = [
        lens_space(big_n, data.draw(st.permutations(q))),
        lens_space(big_n, [s * x for s, x in zip(signs, q)]),
        lens_space(big_n, [unit * x for x in q]),
        *(SphericalGroup(m, elements) for elements in _both_forms(g.angles for g in shuffled)),
    ]
    for p in range(base.n + 1):
        expected = p_spectrum(base, p, 60)
        for group in variants:
            assert p_spectrum(group, p, 60) == expected


def test_large_lens_space_builds_no_elements(monkeypatch):
    built = []

    def refuse(self):
        built.append(self)
        raise AssertionError("a RotationElement was built")

    monkeypatch.setattr(RotationElement, "__post_init__", refuse)
    big, small = lens_space(1_000_003, (1, 2, 3)), lens_space(10007, (1, 2, 3))
    # both orders exceed every |<mu, q>| at lambda <= 40, so the spectra agree
    for p in range(big.n + 1):
        assert p_spectrum(big, p, 40) == p_spectrum(small, p, 40)
    assert built == []
    assert big.order == len(big.elements) == 1_000_003


def _calls_during(codes, fn, *args):
    """Number of calls of the given code objects while fn(*args) runs."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code in codes:
            count += 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return count


def test_cli_element_list_builds_no_fraction_or_element():
    big_n, q = 89, (1, 2, 3)
    data = {
        "space": "spherical",
        "elements": [{"angles": [f"{t * x % big_n}/{big_n}" for x in q]} for t in range(big_n)],
    }
    codes = {Fraction.__new__.__code__, RotationElement.__post_init__.__code__}
    assert _calls_during(codes, cli._group_from_description, data) == 0
    # the oracle: the profile does see the constructions of the element form
    angles = [[Fraction(t * x % big_n, big_n) for x in q] for t in range(big_n)]
    assert _calls_during(codes, lambda: [RotationElement(a) for a in angles]) >= big_n
    _, group = cli._group_from_description(data)
    assert group.elements == LensElements(big_n, q)


def test_n_gamma_reads_the_memo_before_validating(monkeypatch):
    group, label = lens_space(7, [1, 2, 3]), family_label(3, 2, 3)
    first = n_gamma(group, label)

    def refuse(*args):
        raise AssertionError("validated again")

    monkeypatch.setattr(IrrepLabelO, "validate", refuse)
    monkeypatch.setattr(RootSystem, "__post_init__", refuse)
    assert n_gamma(group, label) == first


def test_cli_element_list_reads_each_distinct_angle_once():
    big_n, q = 89, (1, 2, 3)
    data = {
        "space": "spherical",
        "elements": [{"angles": [f"{t * x % big_n}/{big_n}" for x in q]} for t in range(big_n)],
    }
    distinct = {a for e in data["elements"] for a in e["angles"]}
    assert len(distinct) == big_n < 3 * big_n
    reads = {ratlinalg._rational_pair.__code__}
    assert _calls_during(reads, cli._group_from_description, data) == big_n


@st.composite
def _lens_and_cutoffs(draw):
    m = draw(st.sampled_from((2, 3, 4)))
    big_n = draw(st.integers(1, 60))
    units = [u for u in range(1, big_n + 1) if math.gcd(u, big_n) == 1]
    q = draw(st.lists(st.sampled_from(units), min_size=m, max_size=m))
    cutoff = st.one_of(st.integers(0, 50), st.fractions(0, 50, max_denominator=6))
    return big_n, q, draw(st.lists(cutoff, min_size=2, max_size=4))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(_lens_and_cutoffs())
@example((7, [1, 2, 3], [Fraction(1, 2), Fraction(81, 2), 12, Fraction(1, 3)]))
def test_family_tables_equal_the_per_label_counts(case):
    # one group asked at rising cutoffs extends its tables; another asked at
    # falling cutoffs reads prefixes of the first, longest ones; the oracle
    # counts label by label on a fresh group per spectrum
    big_n, q, cutoffs = case
    n = 2 * len(q) - 1
    walks = {(p, c): _family_walk(lens_space(big_n, q), p, c) for p in range(n + 1) for c in cutoffs}
    for ordered in (sorted(cutoffs), sorted(cutoffs, reverse=True)):
        group = lens_space(big_n, q)
        for c in ordered:
            for p in range(n + 1):
                closed, coclosed = half_spectrum(group, p, True, c), half_spectrum(group, p, False, c)
                spec = p_spectrum(group, p, c)
                assert spec.entries == walks[p, c] and spec.lam_max is c
                assert {**closed, **coclosed} == {lam: d for lam, d in walks[p, c].items() if lam}


def test_spectra_build_no_label_and_compare_no_fraction():
    group, cutoffs = lens_space(89, (1, 2, 3)), (40, Fraction(81, 2), Fraction(200))
    label = IrrepLabelO.__init__, IrrepLabelO.validate, RootSystem.__post_init__
    fraction = Fraction.__new__, Fraction.__lt__, Fraction.__le__, Fraction.__gt__, Fraction.__ge__
    codes = {f.__code__ for f in (*label, *fraction)}

    def spectra():
        for p in range(group.n + 1):
            for cutoff in cutoffs:
                p_spectrum(group, p, cutoff)
                half_spectrum(group, p, False, cutoff)

    assert _calls_during(codes, spectra) == 0
    # the oracle: the profile does see a label built and a Fraction compared
    assert _calls_during(codes, n_gamma, group, family_label(3, 2, 3)) >= 1
    assert _calls_during(codes, operator.lt, Fraction(81, 2), 40) >= 1
