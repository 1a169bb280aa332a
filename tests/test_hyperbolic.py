"""Exact eigenvalue <-> parameter dictionary for hyperbolic quotients."""

from fractions import Fraction

import pytest

from curvspec.hyperbolic import (
    HyperbolicTerm,
    NuValue,
    casimir,
    hat_G_taup,
    multiplicity_decomposition,
    nu_from_lambda,
    rho_p,
)


def test_rho_p_values():
    assert rho_p(3, 0) == 1
    assert rho_p(5, 0) == 2
    for m in (2, 3, 4):
        assert rho_p(2 * m, m) == Fraction(1, 2)
        assert rho_p(2 * m, m - 1) == Fraction(1, 2)
    assert rho_p(5, 2) == 0


def test_rho_p_symmetry_and_range():
    for n in range(2, 9):
        for p in range(n):
            assert rho_p(n, p) == rho_p(n, n - 1 - p)
            assert rho_p(n, p) >= 0
    with pytest.raises(ValueError):
        rho_p(4, 4)
    with pytest.raises(ValueError):
        rho_p(4, -1)


def test_nu_value_normalization():
    zero = NuValue(False, 0)
    assert zero.imaginary  # the zero parameter is canonicalized
    assert str(zero) == "0"
    assert NuValue(True, 1).nu_squared() == -1
    assert NuValue(False, Fraction(9, 4)).rational_value() == Fraction(3, 2)
    assert NuValue(False, 3).rational_value() is None
    assert str(NuValue(False, Fraction(3, 4))) == "sqrt(3/4)"
    assert str(NuValue(True, 1)) == "1*i"
    with pytest.raises(ValueError):
        NuValue(False, -1)


def test_casimir_examples():
    for n in range(2, 9):
        for p in range(n):
            assert casimir(n, p, NuValue(False, rho_p(n, p) ** 2)) == 0
    assert casimir(3, 0, NuValue(True, 1)) == 2
    for m in (2, 3):
        assert casimir(2 * m, m, 0) == Fraction(1, 4)


def test_casimir_is_even_in_nu():
    assert casimir(5, 1, Fraction(1, 2)) == casimir(5, 1, Fraction(-1, 2))
    assert casimir(7, 2, 2) == casimir(7, 2, -2)


def test_nu_from_lambda_branches():
    assert nu_from_lambda(3, 0, 0) == NuValue(False, 1)  # the value rho_0 = 1
    assert nu_from_lambda(3, 0, 2) == NuValue(True, 1)  # i
    assert nu_from_lambda(3, 0, Fraction(3, 4)) == NuValue(False, Fraction(1, 4))
    with pytest.raises(ValueError):
        nu_from_lambda(3, 0, -1)


def test_round_trip_is_exact_on_a_rational_grid():
    lams = [Fraction(num, den) for den in (1, 2, 3, 4, 5, 7) for num in range(0, 20 * den + 1, max(1, den))]
    for n in range(2, 9):
        for s in range(n):
            for lam in lams:
                assert casimir(n, s, nu_from_lambda(n, s, lam)) == lam


def test_families_generic_degree():
    terms = hat_G_taup(3, 0)
    kinds = [t.kind for t in terms]
    assert kinds == ["principal", "complementary", "langlands"]
    assert all(t.sigma_degree == 0 for t in terms)
    lang = terms[-1]
    assert lang.nu.rational_value() == 1  # endpoint at rho_0


def test_families_middle_degree_carry_the_discrete_pair():
    terms = hat_G_taup(4, 2)
    assert [t.kind for t in terms] == [
        "principal", "complementary", "principal", "complementary", "discrete_pair",
    ]
    assert {t.sigma_degree for t in terms if t.kind != "discrete_pair"} == {1, 2}
    assert not any(t.kind == "langlands" for t in terms)
    # odd dimension never produces the pair
    assert not any(t.kind == "discrete_pair" for t in hat_G_taup(5, 2))


def test_families_Rho_profile_symmetric_under_hodge_star():
    def profile(terms):
        return sorted(
            (t.kind, rho_p(n, t.sigma_degree) if t.sigma_degree is not None else None)
            for t in terms
        )

    for n in range(2, 9):
        for p in range(n + 1):
            terms_p = hat_G_taup(n, p)
            terms_q = hat_G_taup(n, n - p)
            assert profile(terms_p) == profile(terms_q)


def test_zero_eigenvalue_decomposition_generic():
    terms = multiplicity_decomposition(5, 2, 0)
    assert [t.kind for t in terms] == ["langlands", "langlands"]
    assert [t.sigma_degree for t in terms] == [2, 1]
    assert terms[0].nu.nu_squared() == 0  # rho_2 = 0 on five-space
    assert terms[1].nu.rational_value() == 1  # rho_1 = 1


def test_zero_eigenvalue_decomposition_middle():
    terms = multiplicity_decomposition(4, 2, 0)
    assert len(terms) == 1
    assert terms[0].kind == "discrete_pair"
    assert str(terms[0]) == "D_2^+ (+) D_2^-"


def test_positive_eigenvalue_decompositions():
    terms = multiplicity_decomposition(5, 2, 3)
    assert [t.kind for t in terms] == ["principal", "principal"]
    assert [t.nu.nu_squared() for t in terms] == [-3, -2]
    # small positive eigenvalue on even-dimensional space: one branch is
    # complementary while the other is already principal
    terms = multiplicity_decomposition(4, 1, Fraction(2))
    by_degree = {t.sigma_degree: t for t in terms}
    assert by_degree[0].kind == "complementary"  # rho_0 = 3/2, nu = 1/2
    assert by_degree[0].nu == NuValue(False, Fraction(1, 4))
    assert by_degree[1].kind == "principal"  # rho_1 = 1/2, nu = i sqrt(7)/2
    terms = multiplicity_decomposition(4, 0, Fraction(1))
    by_degree = {t.sigma_degree: t for t in terms}
    assert by_degree[0].kind == "complementary"
    assert by_degree[0].nu == NuValue(False, Fraction(5, 4))


def test_middle_degree_positive_eigenvalues_are_principal():
    for m in (2, 3):
        terms = multiplicity_decomposition(2 * m, m, 1)
        assert len(terms) == 2
        assert all(t.kind == "principal" for t in terms)
        assert all(t.nu.nu_squared() == Fraction(1, 4) - 1 for t in terms)


def test_decomposition_terms_split_by_branching_degree():
    # removing the lower-degree terms leaves exactly the degree-p ones:
    # the two restriction constituents never mix
    for n in (3, 4, 5, 6):
        for p in range(n + 1):
            for lam in (0, 1, Fraction(1, 3), 5):
                terms = multiplicity_decomposition(n, p, lam)
                degrees = {p, p - 1} & set(range(n))
                for t in terms:
                    if t.kind == "discrete_pair":
                        assert n % 2 == 0 and p in (n // 2, n // 2 + 1)
                    else:
                        assert t.sigma_degree in degrees


def test_positive_eigenvalues_read_the_pieces_of_the_comparison_table():
    # d(p) = P_p + P_{p+1} with P_j the piece of sigma-degree j - 1 and
    # P_0 = P_{n+1} = 0: exactly the terms of the dictionary
    grid = {Fraction(a, b) for a in range(1, 15) for b in (1, 2, 3, 7)}
    for n in range(2, 9):
        for p in range(n + 1):
            pieces = [j - 1 for j in (p, p + 1) if 1 <= j <= n]
            for lam in grid:
                terms = multiplicity_decomposition(n, p, lam)
                assert sorted(t.sigma_degree for t in terms) == pieces, (n, p, lam)


def test_term_rendering():
    assert str(HyperbolicTerm("langlands", 1, NuValue(False, 1))) == "J(sigma_1, nu=1)"
    assert (
        str(HyperbolicTerm("principal", 0, NuValue(True, 4)))
        == "pi(sigma_0, nu=2*i)"
    )
    pair = HyperbolicTerm("discrete_pair", 3, None, Fraction(1, 2))
    assert str(pair) == "D_3^+ (+) D_3^-"
