"""Flat quotients: shells, multiplicities, Betti numbers, fixture pairs."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import oracles
from curvspec import ratlinalg as rl
from curvspec.errors import IntegralityError, InvariantViolation
from curvspec.flat import (
    BieberbachGroup,
    ComparisonResult,
    Lattice,
    betti,
    compare,
    d_lambda,
    e_mu_gamma,
    fixtures,
    is_orientable,
    klein_pair,
    n_sigma_multiplicity,
    shells,
    spectrum,
    tau_equivalent,
)


# the phases of the expensive flat property tests: no shrinking, so a helper
# that fails on every example fails the test within seconds
_NO_SHRINK = (Phase.explicit, Phase.generate)


def _torus(n: int) -> BieberbachGroup:
    ident = rl.identity(n)
    return BieberbachGroup(Lattice(ident), ((ident, (0,) * n),))


# ---------------------------------------------------------------- lattices


def test_dual_of_integer_lattice():
    lat = Lattice(rl.identity(3))
    assert lat.dual_basis() == rl.identity(3)


def test_dual_of_rectangular_lattice():
    lat = Lattice(((1, 0), (0, 2)))
    assert lat.dual_basis() == ((1, 0), (0, Fraction(1, 2)))
    double_dual = Lattice(lat.dual_basis()).dual_basis()
    assert double_dual == lat.basis


def test_dual_pairing_is_exact():
    basis = ((Fraction(1, 3), 2), (5, Fraction(7, 2)))
    lat = Lattice(basis)
    dual = lat.dual_basis()
    for i in range(2):
        for j in range(2):
            dot = sum(basis[i][k] * dual[j][k] for k in range(2))
            assert dot == (1 if i == j else 0)


def test_integer_inverse_matches_the_rational_one():
    import random

    from curvspec.flat import _integral

    rng = random.Random(5)
    entries = (0, 0, *range(-6, 7))
    signs = set()
    for _ in range(80):
        n = rng.randrange(1, 6)
        basis = tuple(
            tuple(Fraction(rng.choice(entries), rng.randrange(1, 5)) for _ in range(n))
            for _ in range(n)
        )
        if oracles.det(basis) == 0:
            continue
        signs.add(oracles.det(basis) > 0)
        dual = rl.transpose(oracles.mat_inv(basis))
        lat = Lattice(basis)
        assert lat.dual_basis() == dual
        assert lat._scaled == (_integral(lat.basis), _integral(dual))
    assert signs == {True, False}
    singular = (
        ((Fraction(1, 2), Fraction(1, 3)), (Fraction(3, 2), 1)),
        ((0, 1, 0), (0, 2, 0), (1, 0, 5)),
    )
    for basis in singular:
        with pytest.raises(ValueError, match="basis is singular"):
            Lattice(basis)


def test_lattice_membership_and_reduction():
    lat = Lattice(((1, 0), (0, 2)))
    assert lat.contains((3, -4))
    assert not lat.contains((0, 1))
    assert lat.reduce((Fraction(5, 2), 3)) == (Fraction(1, 2), 1)


# ---------------------------------------------------------------- shells


def test_shells_of_square_lattice():
    sh = shells(Lattice(rl.identity(2)), 2)
    assert set(sh) == {0, 1, 2}
    assert sh[Fraction(0)] == ((0, 0),)
    assert sorted(sh[Fraction(1)]) == [(-1, 0), (0, -1), (0, 1), (1, 0)]
    assert len(sh[Fraction(2)]) == 4


def test_shells_of_z8():
    sh = shells(Lattice(rl.identity(8)), 2)
    assert len(sh[Fraction(1)]) == 16
    assert len(sh[Fraction(2)]) == 112


def test_shells_are_symmetric_under_negation():
    lat = Lattice(((1, Fraction(1, 2)), (0, Fraction(1, 2))))
    for mu, vecs in shells(lat, 3).items():
        assert mu >= 0
        for v in vecs:
            assert tuple(-c for c in v) in vecs


def test_shells_match_brute_force_on_skew_lattice():
    # shells() reports vectors of the dual of its argument
    lat = Lattice(((1, 0), (Fraction(1, 2), Fraction(3, 2))))
    dual_rows = lat.dual_basis()
    mu_max = Fraction(5)
    got = shells(lat, mu_max)
    brute: dict[Fraction, set] = {}
    span = 12
    for a in range(-span, span + 1):
        for b in range(-span, span + 1):
            v = tuple(a * dual_rows[0][i] + b * dual_rows[1][i] for i in range(2))
            norm = sum(c * c for c in v)
            if norm <= mu_max:
                brute.setdefault(norm, set()).add(v)
    assert {mu: set(vs) for mu, vs in got.items()} == brute


# ---------------------------------------------------------------- invariants


def test_rejects_non_orthogonal_rotation():
    bad = ((1, 1), (0, 1))
    with pytest.raises(InvariantViolation):
        BieberbachGroup(
            Lattice(rl.identity(2)),
            ((rl.identity(2), (0, 0)), (bad, (0, 0))),
        )


def test_rejects_rotation_not_preserving_lattice():
    lat = Lattice(((1, 0), (0, 2)))
    swap = ((0, 1), (1, 0))
    with pytest.raises(InvariantViolation):
        BieberbachGroup(lat, ((rl.identity(2), (0, 0)), (swap, (0, 0))))


def test_rejects_missing_identity_coset():
    refl = ((1, 0), (0, -1))
    with pytest.raises(InvariantViolation):
        BieberbachGroup(Lattice(rl.identity(2)), ((refl, (0, 0)),))


def test_rejects_unclosed_coset_system():
    rot90 = ((0, 1), (-1, 0))
    with pytest.raises(InvariantViolation):
        BieberbachGroup(
            Lattice(rl.identity(2)),
            ((rl.identity(2), (0, 0)), (rot90, (0, 0))),
        )


def test_rejects_torsion():
    refl = ((1, 0), (0, -1))
    # reflection with no offset along its fixed axis has fixed points
    with pytest.raises(InvariantViolation):
        BieberbachGroup(
            Lattice(rl.identity(2)),
            ((rl.identity(2), (0, 0)), (refl, (0, Fraction(1, 2)))),
        )


def test_klein_group_passes_all_invariants():
    ka, kb = klein_pair()
    assert ka.holonomy_order == 2 and kb.holonomy_order == 2
    assert not is_orientable(ka) and not is_orientable(kb)


def test_fixture_names_and_orientability():
    table = fixtures()
    assert sorted(table) == [
        "flat4_a", "flat4_b", "flat4_m24", "flat4_m25",
        "flat8_a", "flat8_b", "flat8_c", "flat8_d",
        "klein_a", "klein_b",
    ]
    for name, group in table.items():
        assert is_orientable(group) == (not name.startswith("klein"))


# ---------------------------------------------------------------- phase sums


def test_phase_sum_at_identity_counts_the_shell():
    g = fixtures()["flat8_a"]
    ident_index = next(
        i for i, (b, _) in enumerate(g.cosets) if b == rl.identity(8)
    )
    assert e_mu_gamma(g, ident_index, 1) == pytest.approx(16)
    assert e_mu_gamma(g, ident_index, 2) == pytest.approx(112)


def test_phase_sums_of_the_order_four_holonomy():
    g = fixtures()["flat8_a"]
    # identify cosets by the order of their rotation part
    by_order = {}
    for i, (b, _) in enumerate(g.cosets):
        power, order = b, 1
        while power != rl.identity(8):
            power = rl.mat_mul(power, b)
            order += 1
        by_order.setdefault(order, []).append(i)
    (gen_a, gen_b) = by_order[4]
    (square,) = by_order[2]
    vals = sorted(
        (round(e_mu_gamma(g, i, 1).real) for i in (gen_a, gen_b))
    )
    assert vals == [2, 2]
    assert e_mu_gamma(g, square, 1) == pytest.approx(4)


# ---------------------------------------------------------------- multiplicity


def test_torus_multiplicities_factor():
    t2 = _torus(2)
    sh = shells(t2.lattice, 4)
    for p in range(3):
        for mu, vecs in sh.items():
            if mu == 0:
                continue
            assert d_lambda(t2, p, mu) == math.comb(2, p) * len(vecs)


def test_eight_dimensional_pair_anchor_multiplicities():
    table = fixtures()
    ga, gb = table["flat8_a"], table["flat8_b"]
    assert d_lambda(ga, 0, 1) == 6
    assert d_lambda(gb, 0, 1) == 4
    assert d_lambda(ga, 4, 1) == 284
    assert d_lambda(gb, 4, 1) == 288


def test_klein_pair_smallest_eigenvalue():
    ka, kb = klein_pair(c=2)
    quarter = Fraction(1, 4)
    assert d_lambda(ka, 0, quarter) == 1
    assert d_lambda(kb, 0, quarter) == 0


def test_four_dimensional_pair_first_eigenvalue():
    table = fixtures()
    assert d_lambda(table["flat4_a"], 0, 1) == 4
    assert d_lambda(table["flat4_b"], 0, 1) == 3


# ---------------------------------------------------------------- betti


def test_betti_examples():
    t3 = _torus(3)
    for p in range(4):
        assert betti(t3, p) == math.comb(3, p)
    ka, _ = klein_pair()
    assert [betti(ka, p) for p in range(3)] == [1, 1, 0]
    for group in fixtures().values():
        assert betti(group, 0) == 1


def test_euler_characteristic_vanishes():
    for group in fixtures().values():
        chi = sum((-1) ** p * betti(group, p) for p in range(group.n + 1))
        assert chi == 0


# ---------------------------------------------------------------- spectra


def test_spectrum_includes_betti_at_zero_and_drops_zero_entries():
    g = fixtures()["flat4_m24"]
    for p in range(5):
        spec = spectrum(g, p, 2).entries
        assert spec[Fraction(0)] == betti(g, p)
        assert all(d > 0 for mu, d in spec.items() if mu > 0)


def test_four_dimensional_zz2_pair_pattern():
    table = fixtures()
    a, b = table["flat4_m24"], table["flat4_m25"]
    agree = {p: compare(a, b, p, 3).isospectral for p in range(5)}
    assert agree == {0: False, 1: True, 2: False, 3: True, 4: False}


def test_eight_dimensional_pair_pattern():
    table = fixtures()
    a, b = table["flat8_a"], table["flat8_b"]
    agree = {p: compare(a, b, p, 2).isospectral for p in range(9)}
    assert agree == {p: p not in (0, 4, 8) for p in range(9)}


def test_poincare_duality_on_orientable_fixtures():
    for name, group in fixtures().items():
        if not is_orientable(group):
            continue
        n = group.n
        for p in range(n // 2 + 1):
            assert spectrum(group, p, 2).entries == spectrum(group, n - p, 2).entries


def test_compare_rejects_dimension_mismatch():
    ka, _ = klein_pair()
    with pytest.raises(ValueError):
        compare(ka, fixtures()["flat4_a"], 0, 1)


# ---------------------------------------------------------------- telescoping


def test_torus_telescoped_multiplicities():
    t2 = _torus(2)
    assert n_sigma_multiplicity(t2, 0, 1) == 4
    assert n_sigma_multiplicity(t2, 1, 1) == 4  # 8 - 4
    assert n_sigma_multiplicity(t2, 2, 1) == 0  # 4 - 8 + 4


def test_top_degree_telescoping_vanishes():
    for group in fixtures().values():
        for mu in shells(group.lattice, 2):
            if mu == 0:
                continue
            assert n_sigma_multiplicity(group, group.n, mu) == 0


def test_telescoping_consistency():
    # d(p) = n_sigma(p) + n_sigma(p-1) at every positive shell
    for name in ("klein_a", "flat4_m24", "flat8_a"):
        group = fixtures()[name]
        for mu in shells(group.lattice, 2):
            if mu == 0:
                continue
            for p in range(group.n + 1):
                lower = n_sigma_multiplicity(group, p - 1, mu) if p else 0
                assert d_lambda(group, p, mu) == (
                    n_sigma_multiplicity(group, p, mu) + lower
                )


def test_n_sigma_multiplicity_rejects_zero_shell():
    with pytest.raises(ValueError):
        n_sigma_multiplicity(_torus(2), 0, 0)


# ---------------------------------------------------------------- tau


def test_tau_equivalent_reflexive():
    g = fixtures()["flat4_m24"]
    for p in range(5):
        assert tau_equivalent(g, g, p, 2)


def test_klein_pair_is_one_isospectral_but_not_tau_one_equivalent():
    ka, kb = klein_pair()
    assert compare(ka, kb, 1, 2).isospectral
    assert not compare(ka, kb, 0, 2).isospectral
    assert not tau_equivalent(ka, kb, 1, 2)


def test_eight_dimensional_pair_never_tau_equivalent():
    table = fixtures()
    a, b = table["flat8_a"], table["flat8_b"]
    assert not any(tau_equivalent(a, b, p, 2) for p in range(9))


def test_tau_biconditional_with_cumulative_isospectrality():
    # equivalent data: tau_q-equivalence for all q <= p is the same as
    # q-isospectrality for all q <= p (at one cutoff)
    table = fixtures()
    same_dim_pairs = [
        (g1, g2)
        for name1, g1 in table.items()
        for name2, g2 in table.items()
        if name1 < name2 and g1.n == g2.n
    ]
    for g1, g2 in same_dim_pairs:
        for p in range(g1.n + 1):
            iso_up_to_p = all(compare(g1, g2, q, 2).isospectral for q in range(p + 1))
            tau_up_to_p = all(tau_equivalent(g1, g2, q, 2) for q in range(p + 1))
            assert iso_up_to_p == tau_up_to_p


# ---------------------------------------------------------------- oracle


def _minor(b_float: np.ndarray, rows, cols) -> float:
    if len(rows) == 0:
        return 1.0
    return float(np.linalg.det(b_float[np.ix_(rows, cols)]))


def _invariant_form_count(group: BieberbachGroup, p: int, mu) -> int:
    """Independent multiplicity oracle: count Fourier modes of vector-valued
    forms on the torus fixed by every holonomy coset, via a dense
    linear-algebra rank computation."""
    mu = Fraction(mu)
    shell = shells(group.lattice, mu).get(mu, ())
    if not shell:
        return 0
    n = group.n
    combos = list(itertools.combinations(range(n), p))
    index = {
        (v, c): i for i, (v, c) in enumerate(itertools.product(shell, combos))
    }
    dim = len(index)
    blocks = []
    for b, t in group.cosets:
        if b == rl.identity(n):
            continue
        bt = rl.transpose(b)
        b_float = np.array([[float(x) for x in row] for row in b])
        mat = np.zeros((dim, dim), dtype=complex)
        for v in shell:
            w = rl.mat_vec(bt, v)
            phase = complex(
                math.cos(2 * math.pi * float(oracles.dot(v, t))),
                math.sin(2 * math.pi * float(oracles.dot(v, t))),
            )
            for ci, c in enumerate(combos):
                for cj, cc in enumerate(combos):
                    val = phase * _minor(b_float, c, cc)
                    if val != 0:
                        mat[index[(w, cc)], index[(v, c)]] += val
        blocks.append(mat - np.eye(dim))
    if not blocks:
        return dim
    stacked = np.vstack(blocks)
    return dim - np.linalg.matrix_rank(stacked, tol=1e-9)


def test_oracle_agrees_on_two_dimensional_fixtures():
    ka, kb = klein_pair(c=2)
    t2 = _torus(2)
    for group in (ka, kb, t2):
        for mu in shells(group.lattice, 2):
            if mu == 0:
                continue
            for p in range(3):
                assert d_lambda(group, p, mu) == _invariant_form_count(group, p, mu)


def test_oracle_agrees_on_four_dimensional_pair():
    table = fixtures()
    for name in ("flat4_a", "flat4_b"):
        group = table[name]
        for p in range(5):
            assert d_lambda(group, p, 1) == _invariant_form_count(group, p, 1)


# ---------------------------------------------------------------- integrality


def test_all_fixture_multiplicities_are_integral():
    # d_lambda raises IntegralityError when the phase average strays from an
    # integer; a clean sweep certifies every multiplicity in range
    for group in fixtures().values():
        for p in range(group.n + 1):
            for mu in shells(group.lattice, 4):
                if mu == 0:
                    continue
                val = d_lambda(group, p, mu)
                assert isinstance(val, int) and val >= 0


# ---------------------------------------------------------------- integer kernel


def _unimodular(n: int, rng) -> list[list[int]]:
    """A random element of GL(n, Z): elementary row operations, then a row shuffle."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        u[i] = [a + s * b for a, b in zip(u[i], u[j])]
    rng.shuffle(u)
    return u


def _signed_permutation(n: int, rng) -> list[list[int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return [[rng.choice((1, -1)) if perm[i] == j else 0 for j in range(n)] for i in range(n)]


def _re_present(group: BieberbachGroup, rng) -> BieberbachGroup:
    """The same space form on the basis U B P^T with cosets (P B P^T, P b),
    then with its origin moved to a random rational point c, which turns each
    translation b' into b' + c - B'^T c."""
    n = group.n
    u = rl.as_mat(_unimodular(n, rng))
    p = rl.as_mat(_signed_permutation(n, rng))
    pt = rl.transpose(p)
    c = tuple(Fraction(rng.randrange(-9, 10), rng.randrange(2, 8)) for _ in range(n))
    basis = rl.mat_mul(rl.mat_mul(u, group.lattice.basis), pt)
    cosets = []
    for b, t in group.cosets:
        rot = rl.mat_mul(rl.mat_mul(p, b), pt)
        shift = oracles.vec_sub(c, rl.mat_vec(rl.transpose(rot), c))
        cosets.append((rot, oracles.vec_add(rl.mat_vec(p, t), shift)))
    return BieberbachGroup(Lattice(basis), tuple(cosets))


def _dilate(group: BieberbachGroup, c: Fraction) -> BieberbachGroup:
    """The same holonomy on the lattice c L, with translations c b."""
    basis = tuple(tuple(c * x for x in row) for row in group.lattice.basis)
    cosets = tuple((b, tuple(c * x for x in t)) for b, t in group.cosets)
    return BieberbachGroup(Lattice(basis), cosets)


def _turn(n: int, rng) -> rl.Mat:
    """A rational orthogonal matrix that is not a signed permutation: the
    Cayley transform (1 - A)(1 + A)^-1 of a small skew A."""
    while True:
        a = [[0] * n for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            a[i][j] = rng.randrange(-2, 3)
            a[j][i] = -a[i][j]
        plus, minus = (
            [[int(i == j) + s * x for j, x in enumerate(row)] for i, row in enumerate(a)] for s in (1, -1)
        )
        q = rl.mat_mul(rl.as_mat(minus), oracles.mat_inv(plus))
        if any(sum(1 for x in row if x) > 1 for row in q):
            return q


def _conjugate(group: BieberbachGroup, q: rl.Mat) -> BieberbachGroup:
    """The group conjugated by the orthogonal q: the basis S q^T, with
    cosets (q B q^T, q b), the matrix products taken in integers."""
    from curvspec.flat import _integral

    (m, e), (s, d) = _integral(q), _integral(group.lattice.basis)
    mt = rl.transpose(m)

    def over(rows, den):
        return tuple(tuple(Fraction(x, den) for x in row) for row in rows)

    cosets = []
    for b, t in group.cosets:
        b, d_b = _integral(b)
        cosets.append((over(rl.mat_mul(rl.mat_mul(m, b), mt), e * e * d_b), rl.mat_vec(q, t)))
    return BieberbachGroup(Lattice(over(rl.mat_mul(s, mt), e * d)), tuple(cosets))


_SKEW = ((2, 1), (1, 1))  # unimodular, so U B spans the same lattice as B
_REFL = ((1, 0), (0, -1))


def _skew(basis) -> Lattice:
    return Lattice(rl.mat_mul(rl.as_mat(_SKEW), rl.as_mat(basis)))


@pytest.mark.parametrize(
    "basis, cosets, message",
    [
        (rl.identity(2), ((rl.identity(2), (0, 0)), (((1, 1), (0, 1)), (0, 0))), "not orthogonal"),
        (((1, 0), (0, 2)), ((rl.identity(2), (0, 0)), (((0, 1), (1, 0)), (0, 0))), "does not preserve"),
        (
            rl.identity(2),
            ((rl.identity(2), (0, 0)), (_REFL, (Fraction(1, 2), 0)), (_REFL, (Fraction(1, 2), 1))),
            "share a rotation",
        ),
        (rl.identity(2), ((_REFL, (Fraction(1, 2), 0)),), "identity coset missing"),
        (((1, 0), (0, 2)), ((rl.identity(2), (0, 1)),), "non-lattice translation"),
        (rl.identity(2), ((rl.identity(2), (0, 0)), (((0, 1), (-1, 0)), (0, 0))), "not closed"),
        (rl.identity(2), ((rl.identity(2), (0, 0)), (_REFL, (Fraction(1, 3), 0))), "not closed"),
        (rl.identity(2), ((rl.identity(2), (0, 0)), (_REFL, (0, Fraction(1, 2)))), "torsion"),
        (rl.identity(2), ((rl.identity(2), (0, 0)), ((((-1, 0), (0, -1))), (0, 0))), "fixed point"),
    ],
)
def test_rejections_hold_on_a_skew_basis(basis, cosets, message):
    for lattice in (Lattice(basis), _skew(basis)):
        with pytest.raises(InvariantViolation, match=message):
            BieberbachGroup(lattice, cosets)


def test_re_presentation_leaves_betti_and_spectra_unchanged():
    import random

    rng = random.Random(20010)
    for name, group in fixtures().items():
        cutoff = 2 if group.n == 8 else 4
        other = _re_present(group, rng)
        assert other.lattice.basis != group.lattice.basis
        for p in range(group.n + 1):
            assert betti(other, p) == betti(group, p)
            assert spectrum(other, p, cutoff) == spectrum(group, p, cutoff), (name, p)


def test_far_translation_representative_keeps_the_phase_exact():
    # (10**16 + 1/2, 0) and (1/2, 0) represent the same glide coset; a float
    # phase drops the 1/2 of the first one
    lat = Lattice(((1, 0), (0, 2)))

    def klein(shift):
        return BieberbachGroup(lat, ((rl.identity(2), (0, 0)), (_REFL, (shift, 0))))

    near, far = klein(Fraction(1, 2)), klein(10**16 + Fraction(1, 2))
    for p in range(3):
        assert spectrum(far, p, 4).entries == spectrum(near, p, 4).entries


def test_dual_ball_is_walked_once_and_filtered(monkeypatch):
    from curvspec import flat

    walks = []
    real = flat._fincke_pohst

    def counted(*args):
        walks.append(args[-1])
        return real(*args)

    monkeypatch.setattr(flat, "_fincke_pohst", counted)
    bases = (
        ((1, Fraction(1, 3), 0), (Fraction(1, 2), Fraction(3, 2), 1), (0, Fraction(2, 5), 2)),
        # negative determinant; the scaled dual Gram matrix has leading minors
        # 441, 49572, 3779136 and fraction-free rows with gcds 3, 2916, 3779136
        ((Fraction(-1, 3), 1, Fraction(1, 2)), (2, 1, 0), (1, 1, Fraction(3, 2))),
    )
    for basis in bases:
        lat = Lattice(basis)
        dual = lat.dual_basis()
        for mu_max in (4, 1, 3, 0):
            # |x_j| = |<v, b_j>| <= |v| |b_j| for v = sum_j x_j d_j
            span = max(math.isqrt(int(mu_max * sum(c * c for c in b)) + 1) for b in basis)
            brute: dict[Fraction, set] = {}
            for xs in itertools.product(range(-span, span + 1), repeat=3):
                v = tuple(sum(x * d[k] for x, d in zip(xs, dual)) for k in range(3))
                norm = sum(c * c for c in v)
                if norm <= mu_max:
                    brute.setdefault(norm, set()).add(v)
            got = shells(lat, mu_max)
            assert {mu: set(vs) for mu, vs in got.items()} == brute
            assert all(len(vs) == len(set(vs)) for vs in got.values())
            assert list(got) == sorted(got)
    assert walks == [4, 4]


def test_integer_exterior_traces_match_the_ambient_ones():
    import random

    from curvspec.liealg import exterior_trace

    rng = random.Random(7)
    for group in fixtures().values():
        skew = _re_present(_dilate(group, Fraction(-3, 7)), rng)
        for g in (group, _re_present(group, rng), skew):
            for coset, (b, _) in zip(g._holonomy, g.cosets):
                assert coset.traces == tuple(exterior_trace(b, p) for p in range(g.n + 1))


def test_integer_torsion_test_matches_the_rational_span_test():
    import random

    from curvspec.flat import _in_scaled_span

    rng = random.Random(11)
    outcomes = set()
    for group in fixtures().values():
        for g in (group, _re_present(group, rng)):
            d = g._denom
            dual, basis_t = g.lattice.dual_basis(), rl.transpose(g.lattice.basis)
            for (b, _), coset in zip(g.cosets, g._holonomy):
                # R = dual B basis^T on lattice coordinates, N = 1 + R + ... + R^(m-1)
                r = rl.mat_mul(rl.mat_mul(dual, b), basis_t)
                n_mat, power = rl.identity(g.n), r
                while power != rl.identity(g.n):
                    n_mat = rl.as_mat([oracles.vec_add(u, v) for u, v in zip(n_mat, power)])
                    power = rl.mat_mul(power, r)
                n_int = tuple(tuple(int(x) for x in row) for row in n_mat)
                cols = rl.transpose(n_int)
                randoms = [tuple(rng.randrange(d) for _ in range(g.n)) for _ in range(3)]
                for s in (coset.shift, (0,) * g.n, *randoms):
                    image = rl.mat_vec(n_int, s)
                    expected = oracles.in_integer_span([Fraction(x, d) for x in image], cols)
                    assert _in_scaled_span(list(image), cols, d) == expected
                    outcomes.add(expected)
    assert outcomes == {True, False}


def test_an_equal_lattice_instance_walks_its_own_ball_once(monkeypatch):
    # shells() caches on the Lattice instance, so a fresh instance equal to
    # an earlier one walks its ball once at the cutoff, not shell by shell
    from curvspec import flat

    walks = []
    real = flat._fincke_pohst

    def counted(*args):
        walks.append(args[-1])
        return real(*args)

    monkeypatch.setattr(flat, "_fincke_pohst", counted)
    for _ in range(2):
        ka, _ = klein_pair(3)
        for p in range(3):
            spectrum(ka, p, 4)
    assert walks == [4, 4]


def _moebius(k: int) -> int:
    # sum_{d | k} mu(d) = [k == 1]
    return 1 if k == 1 else -sum(_moebius(d) for d in range(1, k) if k % d == 0)


def test_phase_sum_is_the_moebius_sum_over_gcd_classes():
    import cmath
    import random

    from curvspec.flat import _phase_sum

    rng = random.Random(31)
    for _ in range(200):
        d = rng.randrange(1, 31)
        divisors = [g for g in range(1, d + 1) if d % g == 0]
        per_class = {g: rng.choice((0, 0, *range(-5, 6))) for g in divisors}
        counts = {r: per_class[math.gcd(r, d)] for r in range(d)}
        expected = sum(per_class[g] * _moebius(d // g) for g in divisors)
        assert _phase_sum(counts, d) == expected
        direct = sum(c * cmath.exp(2j * cmath.pi * r / d) for r, c in counts.items())
        assert abs(direct - expected) < 1e-9


def test_phase_sum_rejects_counts_that_are_not_galois_invariant():
    from curvspec.flat import _phase_sum

    with pytest.raises(IntegralityError):
        _phase_sum({1: 1}, 4)  # i is not rational
    with pytest.raises(IntegralityError):
        _phase_sum({1: 2, 5: 2, 7: 1, 11: 2}, 12)
    with pytest.raises(IntegralityError):
        _phase_sum({2: 1}, 6)  # a primitive cube root of unity


# ---------------------------------------------------------------- integer shell keys


_DILATIONS = (Fraction(2), Fraction(3, 2), Fraction(-3, 7))


@pytest.mark.parametrize("name", sorted(fixtures()))
@settings(derandomize=True, max_examples=4, deadline=None, database=None)
@given(
    c=st.sampled_from(_DILATIONS), partner=st.integers(0, 9), turned=st.booleans(),
    seed=st.integers(0, 2**32),
)
@example(c=Fraction(3, 2), partner=1, turned=True, seed=0)  # a turned case for every fixture
def test_re_presentation_and_dilation_rescale_every_flat_result(name, c, partner, turned, seed):
    # a GL(n, Z) re-presentation of cL with translations c b maps mu -> mu / c^2
    # and keeps every verdict; two presentations of one group, whose walks
    # mostly have different K, stay isospectral and tau-equivalent; turned off
    # the standard axes, the groups are walked and map the same way
    table = fixtures()
    group = table[name]
    same_dim = sorted(k for k, g in table.items() if g.n == group.n)
    other = table[same_dim[partner % len(same_dim)]]
    rng = random.Random(seed)
    moved, moved_other, moved_again = (
        _dilate(_re_present(g, rng), c) for g in (group, other, group)
    )
    if turned:
        q = _turn(group.n, rng)
        moved, moved_other, moved_again = (_conjugate(g, q) for g in (moved, moved_other, moved_again))
        assert moved._theta is None and moved_other._theta is None and moved_again._theta is None
    cutoff = Fraction(2 if group.n == 8 else 3)
    scaled, c2 = cutoff / (c * c), c * c
    for p in range(group.n + 1):
        entries = spectrum(group, p, cutoff).entries
        assert spectrum(moved, p, scaled).entries == {mu / c2: d for mu, d in entries.items()}
        res = compare(group, other, p, cutoff)
        disc = res.first_discrepancy
        if disc is not None:
            disc = (disc[0] / c2, disc[1], disc[2])
        assert compare(moved, moved_other, p, scaled) == ComparisonResult(res.isospectral, disc)
        assert tau_equivalent(moved, moved_other, p, scaled) == tau_equivalent(group, other, p, cutoff)
        assert compare(moved, moved_again, p, scaled).isospectral
        assert tau_equivalent(moved, moved_again, p, scaled)


def test_tau_equivalence_across_walks_on_different_scales():
    # two presentations of one space form, dilated by 3/2 and by -3/2, walk
    # their balls on different K; the comparison runs on lcm(K1, K2)
    rng = random.Random(2)
    moved, beyond_both = [], []
    for group in klein_pair():
        g1, g2 = (_dilate(_re_present(group, rng), c) for c in (Fraction(3, 2), Fraction(-3, 2)))
        k1, k2 = (shells(g.lattice, 4)._scale for g in (g1, g2))
        assert k1 != k2
        beyond_both.append(math.lcm(k1, k2) not in (k1, k2))
        for p in range(3):
            assert tau_equivalent(g1, g2, p, 4) and compare(g1, g2, p, 4).isospectral
        moved.append(g1)
    assert any(beyond_both)
    # the Klein pair's own verdicts, with mu = 1/4 moved to 1/9
    assert compare(*moved, 0, 4).first_discrepancy == (Fraction(1, 9), 1, 0)
    assert compare(*moved, 1, 4).isospectral and not tau_equivalent(*moved, 1, 4)


def test_tau_equivalence_reads_the_shells_of_both_groups():
    # 2Z^2 has every shell of Z^2 with the same count (r_2(4m) = r_2(m)), and
    # more: mu = 1/4 is a shell of the second group alone
    t2, wide = _torus(2), _dilate(_torus(2), 2)
    for p in range(3):
        assert not tau_equivalent(t2, wide, p, 4) and not tau_equivalent(wide, t2, p, 4)
        assert compare(t2, wide, p, 4).first_discrepancy == (Fraction(1, 4), 0, (1, 2, 1)[p] * 4)


def test_pipeline_builds_no_ambient_vector_and_keys_no_fraction():
    rng = random.Random(5)
    for name_a, name_b in (("klein_a", "klein_b"), ("flat4_m24", "flat4_m25")):
        g1, g2 = (_re_present(fixtures()[n], rng) for n in (name_a, name_b))
        for p in range(g1.n + 1):
            compare(g1, g2, p, 3)
            tau_equivalent(g1, g2, p, 3)
            spectrum(g1, p, 3)
            spectrum(g2, p, 3)
            d_lambda(g1, p, 2)
            n_sigma_multiplicity(g2, p, 2)
        for g in (g1, g2):
            assert g.lattice._ambient == {}
            assert g._cache and all(type(key) is int for key in g._cache)
        # reading a value converts that shell alone, once
        sh = shells(g1.lattice, 3)
        first = sh[Fraction(1)]
        assert len(g1.lattice._ambient) == 1
        assert shells(g1.lattice, 2)[Fraction(1)] is first


def test_comparisons_read_each_group_s_rows_once_per_scale_and_cutoff(monkeypatch):
    from curvspec import flat

    rng = random.Random(15)
    cases = (("klein_a", "klein_b", 4), ("flat4_a", "flat4_b", 3), ("flat4_m24", "flat4_m25", 2.5))
    for name_a, name_b, cutoff in cases:
        def fresh():
            return [_re_present(fixtures()[name], rng) for name in (name_a, name_b)]

        def verdicts(g1, g2):
            return [(compare(g1, g2, p, cutoff), tau_equivalent(g1, g2, p, cutoff)) for p in ps]

        ps = range(fixtures()[name_a].n + 1)
        # each verdict on groups that have answered nothing else
        expected = [(compare(*fresh(), p, cutoff), tau_equivalent(*fresh(), p, cutoff)) for p in ps]
        rows = []
        real = flat._row
        monkeypatch.setattr(flat, "_row", lambda group, t: rows.append(t) or real(group, t))
        g1, g2 = fresh()
        assert verdicts(g1, g2) == verdicts(g1, g2) == expected
        # one read per positive shell of each group, in the first sweep only
        shells = [t for g in (g1, g2) for t in flat._group_shells(g, cutoff)._numerators() if t]
        assert sorted(rows) == sorted(shells)
        monkeypatch.setattr(flat, "_row", real)


def test_shells_is_a_read_only_view_with_dict_semantics():
    lat = Lattice(((1, 0), (Fraction(1, 2), Fraction(3, 2))))
    sh = shells(lat, 2)
    as_dict = dict(sh.items())
    assert len(sh) == len(as_dict) and list(sh) == sorted(as_dict) == list(sh.keys())
    assert 2 in sh and Fraction(10, 9) in sh and Fraction(1, 3) not in sh and "2" not in sh
    assert sh.get(Fraction(1, 3)) is None and sh.get(Fraction(5)) is None
    far = list(shells(lat, 5))[-1]
    assert far > 2 and far not in sh and far not in shells(lat, 2)  # walked, beyond the cutoff
    assert sh == as_dict and shells(lat, 1) != as_dict
    with pytest.raises(KeyError):
        sh[Fraction(1, 3)]
    with pytest.raises(TypeError):
        sh[Fraction(1)] = ()


def test_d_lambda_off_the_dual_lattice_is_zero():
    ka, _ = klein_pair()
    # the norms a^2 + b^2 / 4 of the dual of Z x 2Z are quarters: 1/3 is not
    # one, and 1/2 is one on the scale K = 4 but holds no vector
    for mu in (Fraction(1, 3), Fraction(1, 2)):
        for p in range(3):
            assert d_lambda(ka, p, mu) == 0
            assert n_sigma_multiplicity(ka, p, mu) == 0
        assert e_mu_gamma(ka, 0, mu) == 0
    assert ka._cache == {}


def test_negative_telescoped_multiplicity_is_refused(monkeypatch):
    from curvspec import flat

    monkeypatch.setattr(flat, "_row", lambda group, t: (3, 1, 0))  # n_sigma(1) = 1 - 3
    ka, kb = klein_pair()
    with pytest.raises(IntegralityError, match="telescoped multiplicity -2 is negative"):
        n_sigma_multiplicity(ka, 1, 1)
    with pytest.raises(IntegralityError, match="telescoped multiplicity -2 is negative"):
        tau_equivalent(ka, kb, 1, 1)


def test_d_lambda_beyond_the_walk_extends_it_once(monkeypatch):
    from curvspec import flat

    fresh = klein_pair()[0]
    expected = [spectrum(fresh, p, 4) for p in range(3)]
    walks = []
    real = flat._fincke_pohst

    def counted(*args):
        walks.append(args[-1])
        return real(*args)

    monkeypatch.setattr(flat, "_fincke_pohst", counted)
    ka, _ = klein_pair()
    before = [spectrum(ka, p, 1).entries for p in range(3)]
    rows, coords = dict(ka._cache), dict(ka.lattice._ball["shells"])
    assert walks == [1]
    assert d_lambda(ka, 1, 4) == expected[1].entries[Fraction(4)]
    assert walks == [1, 4]
    # the earlier keys name the same shells, and their rows stay in the cache
    shells_now = ka.lattice._ball["shells"]
    assert all(sorted(shells_now[t]) == sorted(xs) for t, xs in coords.items())
    assert all(ka._cache[t] == row for t, row in rows.items())
    assert [spectrum(ka, p, 1).entries for p in range(3)] == before
    assert [spectrum(ka, p, 4) for p in range(3)] == expected
    assert walks == [1, 4]


def test_damaged_phase_sum_names_mu_and_degree(monkeypatch):
    from curvspec import flat

    # one phase sum of the degree vectors gives every degree of a row
    real = flat._phase_vector

    def damaged(vectors, d, size):
        total = real(vectors, d, size)
        return [x + (p == 1) for p, x in enumerate(total)]  # wrong in degree 1 only

    monkeypatch.setattr(flat, "_phase_vector", damaged)
    ka, _ = klein_pair()
    with pytest.raises(IntegralityError, match=r"at mu=1/4, p=1 is not"):
        d_lambda(ka, 0, Fraction(1, 4))
    assert ka._cache == {}
    monkeypatch.setattr(flat, "_phase_vector", lambda *args: [-2 * x for x in real(*args)])
    with pytest.raises(IntegralityError, match=r"at mu=1/4, p=0 is not a nonnegative integer"):
        spectrum(klein_pair()[0], 2, 1)


# ---------------------------------------------------------------- cubic frames


def _on_basis(lattice: Lattice, cosets) -> BieberbachGroup:
    """The group validated on the coordinates of its lattice basis, as on a
    lattice without a cubic frame, so its rows come from the dual-ball walk."""
    from curvspec import flat

    group = object.__new__(BieberbachGroup)
    for name, value in (("lattice", lattice), ("name", ""), ("_cache", {})):
        object.__setattr__(group, name, value)
    object.__setattr__(group, "cosets", tuple((rl.as_mat(b), rl.as_vec(t)) for b, t in cosets))
    group._validate(flat._OnBasis(lattice))
    return group


def _rows_on_both_paths(group: BieberbachGroup, mu_max) -> tuple[dict, dict]:
    """The group's rows {t: (d_0, ..., d_n)} from theta products and from
    the walk, on a common scale."""
    return _rows_on_a_common_scale((group, _on_basis(group.lattice, group.cosets)), mu_max)


def _rows_on_a_common_scale(groups, mu_max) -> tuple[dict, ...]:
    """Each group's rows {t: (d_0, ..., d_n)}, keyed on a common scale."""
    from curvspec import flat

    views = [flat._group_shells(g, mu_max) for g in groups]
    scale = math.lcm(*(v._scale for v in views))
    return tuple(
        {t * (scale // v._scale): flat._row(g, t) for t in v._numerators() if t}
        for g, v in zip(groups, views)
    )


_NOT_KLEIN = sorted(name for name in fixtures() if not name.startswith("klein"))


@pytest.mark.parametrize("name", _NOT_KLEIN)
@settings(derandomize=True, max_examples=3, deadline=None, database=None, phases=_NO_SHRINK)
@given(c=st.sampled_from(_DILATIONS), seed=st.integers(0, 2**32))
def test_theta_rows_equal_the_walk_rows(name, c, seed):
    group = fixtures()[name]
    moved = _dilate(_re_present(group, random.Random(seed)), c)
    assert group._theta is not None and moved._theta is not None
    cutoff = Fraction(6 if group.n == 8 else 12)
    for g, mu_max in ((group, cutoff), (moved, cutoff / (c * c))):
        theta, walk = _rows_on_both_paths(g, mu_max)
        assert theta == walk and len(theta) >= 6
        twin = _on_basis(g.lattice, g.cosets)
        assert twin._theta is None and twin._betti == g._betti
        assert [c.traces for c in twin._holonomy] == [c.traces for c in g._holonomy]


# the Klein bottle on Z^2: the glide (x1 + 1/2, -x2)
_KLEIN_Z2 = ((rl.identity(2), (0, 0)), (_REFL, (Fraction(1, 2), 0)))


def test_frame_and_walk_groups_compare_on_a_common_scale():
    ka = klein_pair()[0]
    for c in (Fraction(1), Fraction(3, 2)):
        square = _dilate(BieberbachGroup(Lattice(rl.identity(2)), _KLEIN_Z2), c)
        walked = _on_basis(square.lattice, square.cosets)
        assert square._theta is not None and walked._theta is None and ka._theta is None
        for p in range(3):
            for first, second in ((square, ka), (ka, square)):
                reference = (walked, ka) if first is square else (ka, walked)
                assert compare(first, second, p, 4) == compare(*reference, p, 4)
                assert tau_equivalent(first, second, p, 4) == tau_equivalent(*reference, p, 4)
    # the dual of Z x 2Z has the shell 1/4 that Z^2 lacks; at mu = 1 both
    # have (+-1, 0), fixed by the glide with phase -1, and (0, +-1)
    square = BieberbachGroup(Lattice(rl.identity(2)), _KLEIN_Z2)
    assert compare(square, ka, 0, 4).first_discrepancy == (Fraction(1, 4), 0, 1)
    assert d_lambda(square, 0, 1) == d_lambda(ka, 0, 1) == 1


def test_groups_on_cubic_lattices_take_the_frame_path(monkeypatch):
    from curvspec import flat

    rng = random.Random(41)
    for name, group in fixtures().items():
        on_frame = not name.startswith("klein")
        assert (group._theta is not None) == on_frame
        assert (_re_present(group, rng)._theta is not None) == on_frame
    # Z^2 turned by the 3-4-5 rotation has no frame on the standard axes, so
    # its Klein bottle is walked, to the rows of the Klein bottle on Z^2
    turn = ((Fraction(3, 5), Fraction(4, 5)), (Fraction(-4, 5), Fraction(3, 5)))
    lat = Lattice(turn)
    cosets = ((rl.identity(2), (0, 0)), (rl.mat_mul(rl.transpose(turn), rl.mat_mul(_REFL, turn)),
                                         tuple(Fraction(1, 2) * x for x in turn[0])))
    tilted = BieberbachGroup(lat, cosets)
    assert tilted._theta is None and lat._frame is None
    square = BieberbachGroup(Lattice(rl.identity(2)), _KLEIN_Z2)
    assert square._theta is not None
    theta, walk = _rows_on_a_common_scale((square, tilted), 9)
    assert theta == walk and len(theta) == 6  # the norms 1, 2, 4, 5, 8, 9
    # the walk takes the rest, and frame recognition walks none of them by
    # _fincke_pohst
    walks = []
    real = flat._fincke_pohst
    monkeypatch.setattr(flat, "_fincke_pohst", lambda *args: walks.append(args) or real(*args))
    hexagonal = Lattice(((1, 0), (Fraction(1, 2), Fraction(3, 4))))
    e8 = Lattice(
        [[2] + [0] * 7]
        + [[0] * i + [-1, 1] + [0] * (6 - i) for i in range(6)]
        + [[Fraction(1, 2)] * 8]
    )
    assert oracles.det(e8.basis) in (1, -1)
    for lattice in (Lattice(((1, 0), (0, 3))), hexagonal, _skew(((1, 0), (0, 2))), e8):
        assert lattice._frame is None
        ident = rl.identity(lattice.n)
        assert BieberbachGroup(lattice, ((ident, (0,) * lattice.n),))._theta is None
    assert walks == []


def _frame_matrix(p: tuple[int, ...]) -> list[list[int]]:
    """The matrix of a signed permutation in the encoding of `_OnFrame`
    (entry j is pi(j) for + and ~pi(j) for -): +-1 at (pi(j), j)."""
    out = [[0] * len(p) for _ in p]
    for j, a in enumerate(p):
        out[max(a, ~a)][j] = 1 if a >= 0 else -1
    return out


def test_signed_permutations_compose_as_their_matrices():
    from curvspec.flat import _OnFrame

    rng = random.Random(3)
    lattice = Lattice(rl.identity(5))
    frame = _OnFrame(lattice)
    perms = []
    for _ in range(12):
        b = _signed_permutation(5, rng)
        p = frame.rotation(rl.as_mat(b))
        # the matrix on the frame's own basis, so B up to a signed reordering
        assert sum(_frame_matrix(p)[i][i] for i in range(5)) == sum(b[i][i] for i in range(5))
        perms.append(p)
    for p, q in zip(perms, perms[1:]):
        assert _frame_matrix(_OnFrame.mul(p, q)) == [
            list(row) for row in rl.mat_mul(_frame_matrix(p), _frame_matrix(q))
        ]
    assert any(_OnFrame.mul(p, q) != _OnFrame.mul(q, p) for p, q in zip(perms, perms[1:]))


# orthogonal, not integral
_TURN = ((Fraction(3, 5), Fraction(-4, 5)), (Fraction(4, 5), Fraction(3, 5)))


@pytest.mark.parametrize(
    "cosets, message",
    [
        (((rl.identity(2), (0, 0)), (((1, 1), (0, 1)), (0, 0))), "not orthogonal"),
        (((rl.identity(2), (0, 0)), (((1, 0, 0), (0, 1, 0)), (0, 0))), "not orthogonal"),
        # f_1 and f_2 both go to f_1
        (((rl.identity(2), (0, 0)), (((1, 1), (0, 0)), (0, 0))), "not orthogonal"),
        # a column with two entries, and one entry that is not +-1
        (((rl.identity(2), (0, 0)), (((1, 0), (1, -1)), (0, 0))), "not orthogonal"),
        (((rl.identity(2), (0, 0)), (((0, 2), (Fraction(1, 2), 0)), (0, 0))), "not orthogonal"),
        (((rl.identity(2), (0, 0)), (_TURN, (0, 0))), "does not preserve"),
        (
            ((rl.identity(2), (0, 0)), (_REFL, (Fraction(1, 2), 0)), (_REFL, (Fraction(1, 2), 1))),
            "share a rotation",
        ),
        (((_REFL, (Fraction(1, 2), 0)),), "identity coset missing"),
        (((rl.identity(2), (0, Fraction(1, 2))),), "non-lattice translation"),
        (((rl.identity(2), (0, 0)), (((0, 1), (-1, 0)), (0, 0))), "not closed"),
        (((rl.identity(2), (0, 0)), (_REFL, (Fraction(1, 3), 0))), "not closed"),
        (((rl.identity(2), (0, 0)), (_REFL, (0, Fraction(1, 2)))), "torsion"),
        (((rl.identity(2), (0, 0)), (((-1, 0), (0, -1)), (0, 0))), "fixed point"),
    ],
)
def test_rejections_on_a_cubic_frame_match_the_basis_coordinates(cosets, message):
    # Z^2 on two bases
    for lattice in (Lattice(rl.identity(2)), _skew(rl.identity(2))):
        assert lattice._frame is not None
        with pytest.raises(InvariantViolation) as on_frame:
            BieberbachGroup(lattice, cosets)
        with pytest.raises(InvariantViolation) as on_basis:
            _on_basis(lattice, cosets)
        assert str(on_frame.value) == str(on_basis.value)
        assert message in str(on_frame.value)


def test_betti_numbers_are_computed_once_and_refused_when_fractional(monkeypatch):
    from curvspec import flat

    group = BieberbachGroup(Lattice(rl.identity(2)), _KLEIN_Z2)
    assert group._betti == (1, 1, 0)
    # one more in tr Lambda^1 of the first coset makes b_1 = (3 + 0) / 2
    real, calls = flat._Coset, []

    def damaged(fixes, shift, traces):
        calls.append(traces)
        if len(calls) == 1:
            traces = (traces[0], traces[1] + 1, *traces[2:])
        return real(fixes, shift, traces)

    monkeypatch.setattr(flat, "_Coset", damaged)
    group = BieberbachGroup(Lattice(rl.identity(2)), _KLEIN_Z2)
    assert len(calls) == 2 and group._betti == (1, Fraction(3, 2), 0)
    assert betti(group, 0) == 1 and betti(group, 2) == 0
    with pytest.raises(IntegralityError, match="trace average 3/2 is not a nonnegative integer"):
        betti(group, 1)
    assert len(calls) == 2


# ---------------------------------------------------------------- integer construction

_PARTNER = {"flat4_a": "flat4_b", "flat4_m24": "flat4_m25", "flat8_a": "flat8_b", "flat8_c": "flat8_d"}
_PARTNER.update({b: a for a, b in _PARTNER.items()})


class _Inverted(Exception):
    pass


def _refuse_inverse(m):
    raise _Inverted("the dual basis was inverted")


def _answers(g1: BieberbachGroup, g2: BieberbachGroup, cutoff) -> list:
    """Every spectrum of both groups and every verdict between them."""
    out = []
    for p in range(g1.n + 1):
        out.append((spectrum(g1, p, cutoff), spectrum(g2, p, cutoff)))
        out.append((compare(g1, g2, p, cutoff), tau_equivalent(g1, g2, p, cutoff)))
    return out


@pytest.mark.parametrize("name", _NOT_KLEIN)
@pytest.mark.parametrize("c", _DILATIONS)
def test_cubic_lattices_are_built_and_counted_without_an_inverse(name, c, monkeypatch):
    from curvspec import flat

    rng = random.Random(f"{name}:{c}")
    table = fixtures()
    refs = [_dilate(_re_present(table[g], rng), c) for g in (name, _PARTNER[name])]
    cutoff = Fraction(2 if refs[0].n == 8 else 3) / (c * c)
    monkeypatch.setattr(flat, "_inverse", _refuse_inverse)
    groups = [BieberbachGroup(Lattice(g.lattice.basis), g.cosets) for g in refs]
    found = _answers(*groups, cutoff)
    assert all(g._theta is not None and "_scaled" not in vars(g.lattice) for g in groups)
    monkeypatch.undo()
    assert found == _answers(*refs, cutoff)

    # the walk path of the same lattices answers as the rational inverse does
    lat = groups[0].lattice
    basis, inv = lat.basis, oracles.mat_inv(lat.basis)
    assert lat.dual_basis() == rl.transpose(inv)
    n = lat.n
    vectors = [
        tuple(Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(n)),
        rl.mat_vec(rl.transpose(basis), [rng.randrange(-3, 4) for _ in range(n)]),
    ]
    for v in vectors:
        coords = tuple(sum(v[k] * inv[k][j] for k in range(n)) for j in range(n))
        assert lat.coords(v) == coords
        assert lat.contains(v) == all(x.denominator == 1 for x in coords)
        frac = [x - math.floor(x) for x in coords]
        assert lat.reduce(v) == rl.mat_vec(rl.transpose(basis), frac)
    # the lattice is c Z^n, so its dual ball to 2 / c^2 is {w / c : w in Z^n, |w|^2 <= 2}
    expected: dict = {}
    for w in itertools.product((-1, 0, 1), repeat=n):
        if sum(x * x for x in w) <= 2:
            expected.setdefault(sum(x * x for x in w) / (c * c), []).append(tuple(x / c for x in w))
    sh = shells(lat, 2 / (c * c))
    assert {mu: sorted(sh[mu]) for mu in sh} == {mu: sorted(vs) for mu, vs in expected.items()}


def test_klein_pair_still_walks_and_reads_shells(monkeypatch):
    from curvspec import flat

    monkeypatch.setattr(flat, "_inverse", _refuse_inverse)
    with pytest.raises(_Inverted):
        klein_pair()
    monkeypatch.undo()
    ka, kb = klein_pair()
    assert ka._theta is None and kb._theta is None and ka.lattice._frame is None
    calls, real = [], flat.shells
    monkeypatch.setattr(flat, "shells", lambda *args: calls.append(args) or real(*args))
    spectrum(ka, 1, 4)
    compare(ka, kb, 1, 4)
    tau_equivalent(ka, kb, 1, 4)
    # one read for the spectrum and one per group for the pair's comparison
    # table, which tau_equivalent then reads without reading shells again
    assert len(calls) == 3


# the Klein bottle on 2Z x 4Z with the glide (x1 + 1, -x2): all entries integers
_KLEIN_INTEGRAL = (((2, 0), (0, 4)), ((((1, 0), (0, 1)), (0, 0)), (((1, 0), (0, -1)), (1, 0))))
# the Klein bottle on Z x 2Z with the glide (x1 + 1/2, -x2)
_KLEIN_HALF = (((1, 0), (0, 2)), ((((1, 0), (0, 1)), (0, 0)), (((1, 0), (0, -1)), (Fraction(1, 2), 0))))


def _encoded(data, number) -> BieberbachGroup:
    """The group of data with every entry written by number."""
    basis, cosets = data

    def matrix(rows):
        return [[number(x) for x in row] for row in rows]

    return BieberbachGroup(
        Lattice(matrix(basis)), [(matrix(b), [number(x) for x in t]) for b, t in cosets]
    )


def _entry_strings(group: BieberbachGroup) -> list[str]:
    rows = [*group.lattice.basis, *(row for b, t in group.cosets for row in (*b, t))]
    return [str(x) for row in rows for x in row]


@pytest.mark.parametrize(
    "data, numbers",
    [
        (
            _KLEIN_INTEGRAL,
            (int, str, float, lambda x: bool(x) if x in (0, 1) else x, lambda x: str(Fraction(x))),
        ),
        (
            _KLEIN_HALF,
            (lambda x: int(x) if x.denominator == 1 else x, float, str, lambda x: x if x else False),
        ),
    ],
)
def test_every_input_number_type_builds_the_same_group(data, numbers):
    ref = _encoded(data, Fraction)
    for number in numbers:
        group = _encoded(data, number)
        for got, want in ((group.lattice.basis, ref.lattice.basis), (group.cosets, ref.cosets)):
            assert got == want and hash(got) == hash(want)
        assert _entry_strings(group) == _entry_strings(ref)
        assert group._betti == ref._betti
        for p in range(3):
            assert spectrum(group, p, 4) == spectrum(ref, p, 4)
    # an int or a Fraction entry is kept as it is, any other becomes a Fraction
    group = _encoded(data, lambda x: int(x) if x == int(x) else x)
    assert {type(x) for row in group.lattice.basis for x in row} == {int}
    assert {type(x) for row in _encoded(data, float).lattice.basis for x in row} == {Fraction}


def test_malformed_bases_fail_as_before():
    half, third = Fraction(1, 2), Fraction(1, 3)
    # rank 7 in dimension 8: the last row is a combination of three others
    rank7 = _unimodular(8, random.Random(7))
    rank7[7] = [a + 2 * b - c for a, b, c in zip(rank7[0], rank7[3], rank7[5])]
    for basis in (
        ((1, 0), (2, 0)),
        ((1, 2, 3), (4, 5, 6), (7, 8, 9)),
        ((0,),),
        ((1, 2, 3), (4, 5, 6), (1, 2, 3)),  # a repeated row
        ((1, 0, 0), (0, 0, 0), (0, 0, 1)),  # a zero row
        ((half, third), (3 * half, 1)),
        rank7,
        [[Fraction(3, 7) * x for x in row] for row in rank7],
    ):
        with pytest.raises(ValueError, match="basis is singular"):
            Lattice(basis)
    with pytest.raises(ValueError, match="ragged matrix"):
        Lattice(((1, 0), (1,)))
    for basis in (((1, 0, 0), (0, 1, 0)), ()):
        with pytest.raises(ValueError, match="basis must be square"):
            Lattice(basis)
    for basis in (((1, None), (0, 1)), ((1, None), (0,))):
        with pytest.raises(TypeError):
            Lattice(basis)
    ident = ((1, 0), (0, 1))
    with pytest.raises(ValueError, match="ragged matrix"):
        BieberbachGroup(Lattice(ident), ((ident, (0, 0)), (((1, 0), (0,)), (0, 0))))
    with pytest.raises(TypeError):
        BieberbachGroup(Lattice(ident), ((ident, (0, None)),))


def test_e_mu_gamma_names_the_argument_it_refuses():
    for group in (klein_pair()[0], fixtures()["flat4_a"]):
        with pytest.raises(ValueError, match="mu must be nonnegative"):
            e_mu_gamma(group, 0, -1)
        for index in (2, -1):
            for mu in (1, Fraction(1, 3)):
                with pytest.raises(ValueError, match="coset index out of range"):
                    e_mu_gamma(group, index, mu)
        assert e_mu_gamma(group, 1, Fraction(1, 3)) == 0


def test_phase_sum_builds_each_class_table_once():
    from curvspec.flat import _gcd_classes, _phase_sum

    _gcd_classes.cache_clear()
    # 3 + exp(2 pi i / 3) + exp(4 pi i / 3) after reducing mod 6 to mod 3
    assert _phase_sum({0: 3, 2: 1, 4: 1}, 6) == _phase_sum({0: 3, 4: 1, 2: 1}, 6) == 2
    info = _gcd_classes.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert _gcd_classes(12) == tuple(
        (r, math.gcd(r, 12), _moebius(12 // r) if 12 % r == 0 else 0) for r in range(1, 13)
    )


def test_frame_torsion_test_agrees_with_the_hermite_test():
    # cyclic groups generated by (R, t) for a random signed permutation R:
    # (R^k, t_k)(R, t) = (R^(k+1), t + R^T t_k), stopped at R^m = 1
    rng = random.Random(12)
    outcomes = set()
    for _ in range(300):
        n = rng.randrange(1, 6)
        rot = rl.as_mat(_signed_permutation(n, rng))
        d = rng.choice((1, 2, 3, 4, 6))
        t = tuple(Fraction(rng.randrange(d), d) for _ in range(n))
        cosets, power, shift = [], rl.identity(n), (Fraction(0),) * n
        while not cosets or power != rl.identity(n):
            cosets.append((power, shift))
            power = rl.mat_mul(power, rot)
            shift = oracles.vec_add(t, rl.mat_vec(rl.transpose(rot), shift))
        lattice = _skew(rl.identity(2)) if n == 2 else Lattice(rl.identity(n))
        try:
            on_frame = BieberbachGroup(lattice, cosets)._betti
        except InvariantViolation as exc:
            on_frame = str(exc)
        try:
            on_basis = _on_basis(lattice, cosets)._betti
        except InvariantViolation as exc:
            on_basis = str(exc)
        assert on_frame == on_basis
        outcomes.add(on_frame if isinstance(on_frame, str) else "free")
    assert {"free", "holonomy element acts with a fixed point"} <= outcomes
    assert any("torsion" in x for x in outcomes) and any("not closed" in x for x in outcomes)


# ---------------------------------------------------------------- every degree at once


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_cycle_type_traces_match_the_matrix(data):
    from curvspec.flat import _OnFrame, _traces_from_powers
    from curvspec.liealg import exterior_trace

    n = data.draw(st.integers(1, 8))
    perm = data.draw(st.permutations(range(n)))
    signs = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    p = tuple(a if plus else ~a for a, plus in zip(perm, signs))
    _, traces, _ = _OnFrame.coset([p], None, 0, (0,) * n, 1)
    mat = _frame_matrix(p)
    power, by_matrix = mat, []
    for _ in range(n):
        by_matrix.append(sum(power[i][i] for i in range(n)))
        power = rl.mat_mul(power, mat)
    assert traces == _traces_from_powers(by_matrix)
    assert traces == tuple(exterior_trace(mat, q) for q in range(n + 1))


@pytest.mark.parametrize("name", sorted(fixtures()))
def test_degree_vector_rows_equal_the_per_degree_rows(name):
    from curvspec import flat

    rng = random.Random(name)
    base = fixtures()[name]
    for seed in range(2):
        moved = _re_present(base, rng) if seed else base
        fresh = BieberbachGroup(Lattice(moved.lattice.basis), moved.cosets)
        walked = _on_basis(Lattice(moved.lattice.basis), moved.cosets)
        assert walked._theta is None and (fresh._theta is None) == name.startswith("klein")
        for g in (fresh, walked):
            for cutoff in (6, 1):
                shells_up_to = [t for t in flat._group_shells(g, cutoff)._numerators() if t]
                assert shells_up_to
                for t in shells_up_to:
                    assert flat._row(g, t) == oracles.row_by_degree(g, t)


def _outcome(row, group, t):
    try:
        return row(group, t)
    except IntegralityError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_anomalous_counts_are_refused_as_the_per_degree_rows_refuse_them(data):
    # residue counts drawn at random, most of them not Galois invariant or
    # with totals that are not multiples of |F|: the row, or the first
    # refusal with its degree and message, is the one of a phase sum per degree
    from curvspec import flat

    name = data.draw(st.sampled_from(("klein_a", "flat4_m24", "flat8_a", "flat8_c")))
    group = fixtures()[name]
    if data.draw(st.booleans()):  # a moved origin makes D larger
        group = _re_present(group, random.Random(data.draw(st.integers(0, 2**32))))
    d = group._denom
    counts = []
    for _ in group._holonomy:
        if data.draw(st.booleans()):
            per_class = {g: data.draw(st.integers(0, 3)) for g in range(1, d + 1) if d % g == 0}
            per_coset = {r: per_class[math.gcd(r, d)] for r in range(d)}
            counts.append({r: c for r, c in per_coset.items() if c})
        else:
            keys = st.integers(0, d - 1)
            counts.append(data.draw(st.dictionaries(keys, st.integers(1, 4), max_size=6)))
    if not any(counts):
        counts[0] = {0: 1}
    fresh = BieberbachGroup(group.lattice, group.cosets)
    flat._group_shells(fresh, 1)  # the ball that names mu in a message
    with pytest.MonkeyPatch.context() as m:
        m.setattr(flat, "_residues", lambda g, t: counts)
        expected = _outcome(oracles.row_by_degree, fresh, 1)
        assert _outcome(flat._row, fresh, 1) == expected
    assert (1 in fresh._cache) == (type(expected) is tuple)


def _tau_from_spectra(g1, g2, p, cutoff) -> bool:
    """tau_p-equivalence read off the spectra: equal Betti numbers and equal
    telescoped halves (n_sigma(p), n_sigma(p - 1)) at every norm."""
    spectra = [[spectrum(g, q, cutoff).entries for q in range(p + 1)] for g in (g1, g2)]
    norms = {mu for per in spectra for entries in per for mu in entries if mu}

    def halves(per, mu):
        now = below = 0
        for entries in per:
            now, below = entries.get(mu, 0) - now, now
        return now, below

    return spectra[0][p][0] == spectra[1][p][0] and all(
        halves(spectra[0], mu) == halves(spectra[1], mu) for mu in norms
    )


def test_one_comparison_table_answers_every_degree_order_and_cutoff(monkeypatch):
    from curvspec import flat
    from curvspec.spectra import first_difference

    rng = random.Random(16)
    table = fixtures()
    pairs = [
        tuple(_re_present(table[name], rng) for name in names)
        for names in (("klein_a", "klein_b"), ("flat4_m24", "flat4_m25"), ("flat8_a", "flat8_b"))
    ]
    # a frame group against a walked one, and a pair whose Betti numbers differ
    pairs += [(BieberbachGroup(Lattice(rl.identity(2)), _KLEIN_Z2), klein_pair()[0])]
    pairs += [(_torus(2), klein_pair()[1])]
    for g1, g2 in pairs:
        big, small = (2, 1) if g1.n == 8 else (4, 2)
        for cutoff in (big, small, Fraction(small)):
            calls = [(f, p, order) for f in "ct" for p in range(g1.n + 1) for order in (1, -1)]
            rng.shuffle(calls)
            for f, p, order in calls:
                first, second = (g1, g2)[::order]
                fresh = [BieberbachGroup(Lattice(g.lattice.basis), g.cosets) for g in (first, second)]
                if f == "c":
                    entries = [spectrum(g, p, cutoff).entries for g in fresh]
                    assert compare(first, second, p, cutoff) == first_difference(*entries)
                else:
                    expected = _tau_from_spectra(*fresh, p, cutoff)
                    assert tau_equivalent(first, second, p, cutoff) == expected
        # one table per partner and cutoff value: the int and its equal Fraction share one
        for g, partner in ((g1, g2), (g2, g1)):
            assert list(g._cache[0]) == [id(partner)] and len(g._cache[0][id(partner)]) == 2
    # a damaged row still raises from compare when the Betti numbers differ,
    # and tau_equivalent answers such a pair without reading a row
    real = flat._phase_vector
    monkeypatch.setattr(flat, "_phase_vector", lambda *args: [-1 - x for x in real(*args)])
    torus, kb = _torus(2), klein_pair()[1]
    assert betti(torus, 1) != betti(kb, 1)
    assert tau_equivalent(torus, kb, 1, 4) is False and 0 not in torus._cache
    with pytest.raises(IntegralityError, match="is not a nonnegative integer"):
        compare(torus, kb, 1, 4)


def _frame_by_the_full_walk(lattice: Lattice):
    """`Lattice._frame` read off the walk of the whole ball to c': 2n vectors
    of norm c', one of each +-x kept."""
    from curvspec import flat

    scaled, den, _ = lattice._integer
    gram = rl.mat_mul(scaled, rl.transpose(scaled))
    k = math.gcd(*(x for row in gram for x in row))
    if oracles.det(gram) != k ** len(scaled):
        return None
    found = list(flat._walk(flat._gram_form(scaled), den, Fraction(k, den * den))[1].values())
    if len(found) != 2 or len(found[1]) != 2 * len(scaled):
        return None
    rows = rl.mat_mul([x for x in found[1] if x > tuple(-a for a in x)], scaled)
    g = math.gcd(k, *(den * v for row in rows for v in row))
    return tuple(tuple(den * v // g for v in row) for row in rows), Fraction(den * den, k), k // g


def _up_to_sign(rows) -> list:
    return sorted(max(row, tuple(-x for x in row)) for row in rows)


_SCALES = (1, 2, Fraction(3, 2), Fraction(-3, 7))


def _frame_and_walks(basis) -> tuple:
    """(Lattice(basis)._frame, the names of the `_gram_form` and `_walk`
    calls made while the lattice and its frame are built)."""
    from curvspec import flat

    walks = []
    with pytest.MonkeyPatch.context() as m:
        for name in ("_gram_form", "_walk"):
            real = getattr(flat, name)
            m.setattr(flat, name, lambda *args, real=real, name=name: walks.append(name) or real(*args))
        return Lattice(basis)._frame, walks


@settings(max_examples=100, deadline=None, database=None, derandomize=True, phases=_NO_SHRINK)
@given(n=st.integers(1, 8), scale=st.sampled_from(_SCALES), seed=st.integers(0, 2**32))
def test_determinant_certificate_finds_cubic_frames_without_a_walk(n, scale, seed):
    # c Z^n on a random basis c U, U in GL(n, Z): |det S| = s^n for s the
    # gcd of the entries of S, so the frame is read off without a walk
    rng = random.Random(seed)
    u = _unimodular(n, rng) if n > 1 else [[rng.choice((1, -1))]]
    basis = [[scale * x for x in row] for row in u]
    (frame, walks), expected = _frame_and_walks(basis), _frame_by_the_full_walk(Lattice(basis))
    assert walks == [] and frame is not None and expected is not None
    assert _up_to_sign(frame[0]) == _up_to_sign(expected[0]) and frame[1:] == expected[1:]


@settings(max_examples=80, deadline=None, database=None, derandomize=True, phases=_NO_SHRINK)
@given(n=st.sampled_from((2, 4, 6, 8)), scale=st.sampled_from(_SCALES), seed=st.integers(0, 2**32))
def test_turned_cubic_lattices_are_left_to_the_walk(n, scale, seed):
    from curvspec.flat import _block_diag

    # the frame with the axes of each plane turned to (1, 1) and (1, -1), a
    # rotated sqrt(2) Z^n, which the full walk finds, is off the standard
    # axes: it fails the determinant certificate, with no walk
    turn = ((1, 1), (1, -1))
    u = _unimodular(n, random.Random(seed))
    basis = [[scale * x for x in row] for row in rl.mat_mul(rl.as_mat(u), _block_diag(*[turn] * (n // 2)))]
    (frame, walks), expected = _frame_and_walks(basis), _frame_by_the_full_walk(Lattice(basis))
    assert walks == [] and frame is None and expected is not None


def test_lattices_that_are_not_cubic_have_no_frame():
    # E8 is unimodular like Z^8, and Z^2 turned by the 3-4-5 rotation is
    # cubic off the standard axes; they, Z x 2Z and the hexagonal lattice
    # fail the determinant certificate, and none is walked for its frame
    e8 = [[2] + [0] * 7] + [[0] * i + [-1, 1] + [0] * (6 - i) for i in range(6)]
    e8.append([Fraction(1, 2)] * 8)
    hexagonal = ((1, 0), (Fraction(1, 2), Fraction(3, 4)))
    for basis in (e8, ((1, 0), (0, 2)), hexagonal, _TURN):
        frame, walks = _frame_and_walks(basis)
        assert frame is None and walks == []


@settings(max_examples=200, deadline=None, database=None, derandomize=True, phases=_NO_SHRINK)
@given(data=st.data())
def test_det_matches_the_rational_determinant(data):
    from curvspec.flat import _det

    n = data.draw(st.integers(1, 8))
    # mostly zeros, so that pivots vanish and rows are swapped
    entries = st.sampled_from((0, 0, 0, 1, -1, 2, -3, 5))
    m = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    assert _det(m) == oracles.det(m)


def test_det_swaps_rows_where_a_pivot_vanishes():
    from curvspec.flat import _det

    # a zero pivot at the first and at the second step, and a zero column
    for m, det in (
        (((0, 1), (1, 0)), -1),
        (((1, 1, 0), (1, 1, 1), (0, 1, 1)), -1),
        (((0, 1), (0, 1)), 0),
    ):
        assert _det(m) == oracles.det(m) == det


# ---------------------------------------------------------------- closure on generators


def _group_data(lattice: Lattice, cosets, on_basis: bool, closure=None):
    """The validated group's data, or the text of the InvariantViolation that
    refuses it, on the frame (when the lattice has one) or on the basis
    coordinates, with the closure check replaced by `closure` if given."""
    from curvspec import flat

    with pytest.MonkeyPatch.context() as m:
        if closure is not None:
            m.setattr(flat, "_closure", closure)
        try:
            g = _on_basis(lattice, cosets) if on_basis else BieberbachGroup(lattice, cosets)
        except InvariantViolation as exc:
            return str(exc)
    return g._holonomy, g._denom, g._betti, g._theta


def _mutated(cosets: list, kind: str, lattice: Lattice, rng) -> list:
    """The coset list with one change of the given kind."""
    n, i = lattice.n, rng.randrange(len(cosets))
    rots = [b for b, _ in cosets]

    def outside() -> rl.Mat:
        while (b := rl.as_mat(_signed_permutation(n, rng))) in rots:
            pass
        return b

    if kind == "drop":
        del cosets[i]
    elif kind == "move":
        # by sum_j a_j basis_j with some a_j not an integer
        a = [Fraction(rng.randrange(4), rng.choice((1, 2, 3, 4))) for _ in range(n)]
        a[rng.randrange(n)] = Fraction(1, rng.choice((2, 3, 4)))
        step = rl.mat_vec(rl.transpose(lattice.basis), a)
        cosets[i] = (cosets[i][0], oracles.vec_add(cosets[i][1], step))
    elif kind == "swap":
        j = rng.choice([j for j in range(len(cosets)) if j != i])
        (b, t), (c, u) = cosets[i], cosets[j]
        cosets[i], cosets[j] = (b, u), (c, t)
    elif kind == "rotation":
        cosets[i] = (outside(), cosets[i][1])
    elif kind == "add":
        t = tuple(Fraction(rng.randrange(4), rng.choice((1, 2, 4))) for _ in range(n))
        cosets.insert(rng.randrange(len(cosets) + 1), (outside(), t))
    return cosets


def test_closure_on_generators_refuses_what_the_full_table_refuses():
    outcomes = set()

    @settings(max_examples=200, deadline=None, database=None, derandomize=True, phases=_NO_SHRINK)
    @given(
        name=st.sampled_from(sorted(fixtures())),
        moved=st.booleans(),
        on_basis=st.booleans(),
        kind=st.sampled_from(("none", "drop", "move", "swap", "rotation", "add")),
        seed=st.integers(0, 2**32),
    )
    def case(name, moved, on_basis, kind, seed):
        rng = random.Random(seed)
        group = fixtures()[name]
        if moved:
            group = _re_present(group, rng)
        cosets = _mutated(list(group.cosets), kind, group.lattice, rng)
        expected = _group_data(group.lattice, cosets, on_basis, oracles.closure_by_table)
        assert _group_data(group.lattice, cosets, on_basis) == expected
        outcomes.add(expected if isinstance(expected, str) else "valid")

    case()
    assert {"valid", "coset system is not closed under composition"} <= outcomes
    assert len(outcomes) >= 5


# |F| compositions per generator, where the full table takes |F|^2: the
# flat8 groups and flat4_a/b are cyclic and flat4_m24/m25 need two generators
_COMPOSITIONS = {"flat8": 4, "flat4_m": 8, "flat4_": 2, "klein": 4}


@pytest.mark.parametrize("name", sorted(fixtures()))
def test_closure_composes_each_coset_once_per_generator(name, monkeypatch):
    from curvspec import flat

    calls = []
    for coords in (flat._OnFrame, flat._OnBasis):
        real = coords.mul
        counted = staticmethod(lambda a, b, real=real: calls.append(1) or real(a, b))
        monkeypatch.setattr(coords, "mul", counted)
    group = fixtures()[name]
    fresh = BieberbachGroup(Lattice(group.lattice.basis), group.cosets)
    assert fresh._betti == group._betti
    expected = next(v for k, v in _COMPOSITIONS.items() if name.startswith(k))
    # the Klein group's power chains may compose beyond the closure's products
    assert len(calls) == expected if name.startswith("flat") else 0 < len(calls) <= expected
