"""Exact rational linear algebra underpinning the lattice and trace code."""

import random
from fractions import Fraction

import pytest

import oracles
from curvspec import ratlinalg as rl


def test_identity_and_transpose():
    i3 = rl.identity(3)
    assert i3 == rl.transpose(i3)
    m = rl.as_mat([[1, 2], [3, 4]])
    assert rl.transpose(rl.transpose(m)) == m


def test_mat_vec_and_mat_mul():
    m = rl.as_mat([[1, 2], [3, 4]])
    assert rl.mat_vec(m, (1, 1)) == (3, 7)
    assert rl.mat_mul(m, rl.identity(2)) == m
    m2 = rl.mat_mul(m, m)
    assert m2 == rl.as_mat([[7, 10], [15, 22]])


def test_mat_inv_round_trip():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randrange(1, 5)
        m = tuple(
            tuple(Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(n))
            for _ in range(n)
        )
        if oracles.det(m) == 0:
            continue
        inv = oracles.mat_inv(m)
        assert rl.mat_mul(m, inv) == rl.identity(n)
        assert rl.mat_mul(inv, m) == rl.identity(n)


def test_mat_inv_rejects_singular():
    with pytest.raises(ValueError):
        oracles.mat_inv(rl.as_mat([[1, 2], [2, 4]]))


def test_det_examples():
    assert oracles.det(rl.identity(4)) == 1
    assert oracles.det(rl.as_mat([[0, 1], [1, 0]])) == -1
    assert oracles.det(rl.as_mat([[2, 0], [0, 3]])) == 6


def test_char_poly_matches_det_and_trace():
    m = rl.as_mat([[2, 1], [0, 3]])
    coeffs = rl.char_poly(m)  # det(xI - A), low degree first
    assert coeffs[-1] == 1
    assert coeffs[0] == oracles.det(m) * (-1) ** 2  # det(0I - A) = (-1)^n det A ... = +6
    assert coeffs[1] == -(2 + 3)
    # companion check on a rotation by 90 degrees: x^2 + 1
    rot = rl.as_mat([[0, 1], [-1, 0]])
    assert rl.char_poly(rot) == [Fraction(1), Fraction(0), Fraction(1)]


def test_in_integer_span():
    gens = [(1, 0), (0, 2)]
    assert oracles.in_integer_span((3, 4), gens)
    assert not oracles.in_integer_span((0, 1), gens)
    assert oracles.in_integer_span((0, 0), gens)
    # rational generators
    gens = [(Fraction(1, 2), Fraction(1, 2))]
    assert oracles.in_integer_span((Fraction(3, 2), Fraction(3, 2)), gens)
    assert not oracles.in_integer_span((Fraction(1, 2), 0), gens)

