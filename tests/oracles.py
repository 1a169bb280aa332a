"""Code that only the tests use: exact linear algebra over `Fraction`, as
oracles for the integer code paths of `curvspec.flat` and `curvspec.liealg`
and helpers for building test data, and the per-weight count of the
spherical multiplicities n_Gamma."""

import math
from fractions import Fraction
from operator import mul
from typing import Sequence

from curvspec import liealg
from curvspec.ratlinalg import Mat, Vec, _hnf_rows, as_vec, identity


def vec_add(u: Sequence, v: Sequence) -> Vec:
    return tuple(Fraction(x) + Fraction(y) for x, y in zip(u, v))


def vec_sub(u: Sequence, v: Sequence) -> Vec:
    return tuple(Fraction(x) - Fraction(y) for x, y in zip(u, v))


def dot(u: Sequence, v: Sequence) -> Fraction:
    return sum((Fraction(x) * Fraction(y) for x, y in zip(u, v)), Fraction(0))


def det(a: Mat) -> Fraction:
    n = len(a)
    rows = [list(map(Fraction, r)) for r in a]
    d = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            d = -d
        d *= rows[col][col]
        inv_p = 1 / rows[col][col]
        for r in range(col + 1, n):
            if rows[r][col] != 0:
                f = rows[r][col] * inv_p
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return d


def mat_inv(a: Mat) -> Mat:
    """Inverse by Gauss-Jordan elimination; raises ValueError if singular."""
    n = len(a)
    aug = [list(row) + list(identity(n)[i]) for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv_p = 1 / Fraction(aug[col][col])
        aug[col] = [x * inv_p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def in_integer_span(vec: Sequence, generators: Sequence[Sequence]) -> bool:
    """Is `vec` an integer combination of the generator vectors? Exact.

    Both vec and generators may have rational entries; everything is scaled
    to integers first, then reduced with a Hermite-style elimination.
    """
    gens = [as_vec(g) for g in generators]
    v = as_vec(vec)
    if not gens:
        return all(x == 0 for x in v)
    denoms = [x.denominator for g in gens for x in g] + [x.denominator for x in v]
    scale = math.lcm(*denoms)
    int_gens = [[int(x * scale) for x in g] for g in gens]
    target = [int(x * scale) for x in v]
    basis = _hnf_rows(int_gens)
    # reduce target against the HNF basis
    for row in basis:
        lead = next(j for j, x in enumerate(row) if x != 0)
        if target[lead] % row[lead] == 0:
            q = target[lead] // row[lead]
            target = [x - q * y for x, y in zip(target, row)]
        # if not divisible the final all-zero check fails anyway
    return all(x == 0 for x in target)


def n_gamma_by_weights(group, label) -> int:
    """n_Gamma of a label on the lens group L(N; q), one weight at a time: the
    weights mu of the full weight table (Freudenthal multiplicities along
    Weyl orbits, plus the conjugate weight's table when delta = 0), with
    multiplicity, that satisfy <mu, q> = 0 mod N."""
    rs = group.root_system
    label.validate(rs)
    big_n, q = group.order, group.elements.q
    weights = [label.weight]
    if label.delta == 0:
        weights.append(liealg.conjugate_weight(rs, label.weight))
    return sum(
        mult
        for w in weights
        for mu, mult in liealg.weight_multiplicities(rs, w).items()
        if sum(map(mul, mu, q)) % big_n == 0
    )
