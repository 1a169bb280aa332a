"""Root data, weights, characters, and exterior-power traces."""

import math
import random
from fractions import Fraction

import pytest

import oracles
from curvspec.liealg import (
    IrrepLabelO,
    RootSystem,
    RotationElement,
    branch_taup,
    casimir_eigenvalue,
    character_o,
    character_so,
    conjugate_weight,
    exterior_trace,
    weight_multiplicities,
    weyl_dimension,
)

D2 = RootSystem("D", 2)
D3 = RootSystem("D", 3)
D4 = RootSystem("D", 4)


def test_rho_values():
    assert D2.rho() == (1, 0)
    assert D3.rho() == (2, 1, 0)


def test_rho_is_half_sum_of_positive_roots():
    for rs in (D2, D3, D4):
        total = [0] * rs.rank
        for root in rs.positive_roots():
            for i, c in enumerate(root):
                total[i] += c
        assert rs.rho() == tuple(Fraction(c, 2) for c in total)


def test_positive_root_counts():
    # m(m-1) for D_m
    assert len(D2.positive_roots()) == 2
    assert len(D3.positive_roots()) == 6


def test_dominance():
    assert D3.is_dominant((2, 1, -1))
    assert not D3.is_dominant((1, 2, 0))
    with pytest.raises(ValueError):
        casimir_eigenvalue(D3, (1, 2, 0))


def test_only_the_even_orthogonal_family_is_supported():
    for family, rank in (("B", 2), ("B", 3), ("C", 2), ("D", 1)):
        with pytest.raises(ValueError):
            RootSystem(family, rank)


def test_casimir_examples():
    assert casimir_eigenvalue(D2, (0, 0)) == 0
    assert casimir_eigenvalue(D2, (2, 0)) == 8  # k(k + n - 1) at k = 2, n = 3
    assert casimir_eigenvalue(D3, (1, 1, 0)) == 8


def test_casimir_closed_form_for_two_row_weights():
    # weight (k, 1, ..., 1, 0, ...) with p ones after the head: value
    # k^2 + k(n-1) + (p-1)(n-p) with n = 2m - 1
    for m in (2, 3, 4):
        rs = RootSystem("D", m)
        n = 2 * m - 1
        for p in range(1, m + 1):
            for k in range(1, 21):
                w = (k,) + (1,) * (p - 1) + (0,) * (m - p)
                expected = k * k + k * (n - 1) + (p - 1) * (n - p)
                assert casimir_eigenvalue(rs, w) == expected


def test_weyl_dimension_examples():
    assert weyl_dimension(D3, (0, 0, 0)) == 1
    for m in (2, 3, 4):
        rs = RootSystem("D", m)
        assert weyl_dimension(rs, (1,) + (0,) * (m - 1)) == 2 * m
    for k in range(6):
        assert weyl_dimension(D2, (k, 0)) == (k + 1) ** 2


def test_weight_multiplicities_standard_rep():
    table = weight_multiplicities(D2, (1, 0))
    assert table == {(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1}
    assert weight_multiplicities(D2, (0, 0)) == {(0, 0): 1}
    assert sum(weight_multiplicities(D2, (2, 0)).values()) == 9


def test_weight_table_sums_match_dimension():
    cases = [
        (D2, (3, 1)), (D2, (2, -2)), (D3, (2, 1, 0)), (D3, (1, 1, 1)),
        (D4, (2, 1, 1, 0)),
    ]
    for rs, w in cases:
        table = weight_multiplicities(rs, w)
        assert sum(table.values()) == weyl_dimension(rs, w)
        # the weight table of an SO-irrep is stable under negation of any
        # even number of coordinates; in particular under full negation for
        # even rank
        if rs.rank % 2 == 0:
            assert all(tuple(-c for c in mu) in table for mu in table)


def test_character_at_identity_is_dimension():
    e2 = RotationElement((0, 0))
    e3 = RotationElement((0, 0, 0))
    assert character_so(D2, (3, 1), e2) == weyl_dimension(D2, (3, 1))
    assert character_so(D3, (2, 1, 1), e3) == weyl_dimension(D3, (2, 1, 1))


def test_character_standard_rep_is_cosine_sum():
    for a, b in [(Fraction(1, 3), Fraction(1, 7)), (Fraction(1, 4), Fraction(1, 2))]:
        g = RotationElement((a, b))
        val = character_so(D2, (1, 0), g)
        expected = 2 * math.cos(2 * math.pi * a) + 2 * math.cos(2 * math.pi * b)
        assert abs(val - expected) < 1e-9


def test_character_at_minus_identity_has_parity():
    minus = RotationElement((Fraction(1, 2), Fraction(1, 2)))
    for k in range(6):
        val = character_so(D2, (k, 0), minus)
        assert abs(val - (-1) ** k * (k + 1) ** 2) < 1e-9


def test_character_is_conjugation_invariant_under_coordinate_swap():
    # angle data is conjugacy data: permuting the rotation planes leaves
    # every character unchanged
    g1 = RotationElement((Fraction(1, 5), Fraction(2, 5), Fraction(1, 3)))
    g2 = RotationElement((Fraction(2, 5), Fraction(1, 3), Fraction(1, 5)))
    for w in [(1, 0, 0), (1, 1, 0), (2, 1, 1), (2, 1, -1)]:
        assert abs(character_so(D3, w, g1) - character_so(D3, w, g2)) < 1e-9


def test_character_o_delta_zero_adds_conjugate():
    e = RotationElement((0, 0))
    label = IrrepLabelO((1, 1), 0)
    assert character_o(D2, label, e) == pytest.approx(6)  # 3 + 3
    assert weyl_dimension(D2, (1, 1)) == 3
    assert weyl_dimension(D2, conjugate_weight(D2, (1, 1))) == 3
    plus = IrrepLabelO((2, 0), 1)
    assert character_o(D2, plus, e) == pytest.approx(9)


def test_character_o_label_validation():
    with pytest.raises(ValueError):
        IrrepLabelO((1, 1), 1).validate(D2)  # c_m > 0 forces delta = 0
    with pytest.raises(ValueError):
        IrrepLabelO((1, 0), 0).validate(D2)  # c_m = 0 forces delta = +-1
    with pytest.raises(ValueError):
        IrrepLabelO((1, -1), 0).validate(D2)  # negative last coordinate


def test_branch_taup():
    assert branch_taup(5, 0) == (0,)
    assert branch_taup(5, 5) == (4,)
    assert branch_taup(4, 2) == (1, 2)
    with pytest.raises(ValueError):
        branch_taup(4, 5)


def test_exterior_trace_examples():
    assert exterior_trace(((1, 0), (0, -1)), 1) == 0
    for n in (3, 5):
        ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        for p in range(n + 1):
            assert exterior_trace(ident, p) == math.comb(n, p)


def test_exterior_trace_rejects_non_orthogonal():
    with pytest.raises(ValueError):
        exterior_trace(((1, 1), (0, 1)), 1)
    with pytest.raises(ValueError):
        exterior_trace(((1.0, 0.1), (0.0, 1.0)), 1)


def _random_signed_permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return tuple(
        tuple(signs[i] if perm[i] == j else 0 for j in range(n)) for i in range(n)
    )


def test_exterior_trace_alternating_sum_is_char_poly_at_one():
    from curvspec import ratlinalg as rl

    rng = random.Random(2024)
    for _ in range(25):
        n = rng.randrange(2, 9)
        b = _random_signed_permutation(rng, n)
        alt = sum((-1) ** p * exterior_trace(b, p) for p in range(n + 1))
        ident = rl.identity(n)
        i_minus_b = tuple(
            tuple(ident[i][j] - b[i][j] for j in range(n)) for i in range(n)
        )
        assert alt == oracles.det(i_minus_b)


def test_exterior_trace_duality():
    rng = random.Random(99)
    for _ in range(25):
        n = rng.randrange(2, 9)
        b = _random_signed_permutation(rng, n)
        d = oracles.det(b)
        for p in range(n + 1):
            assert exterior_trace(b, n - p) == d * exterior_trace(b, p)

