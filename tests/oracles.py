"""Code that only the tests use: exact linear algebra over `Fraction`, as
oracles for the integer code paths of `curvspec.flat` and `curvspec.liealg`
and helpers for building test data (a flat group with its origin moved among
them), the full-table closure check, the residue counts of a flat shell
counted again and the one-degree-at-a-time row of a flat group, the
per-weight count of the spherical multiplicities n_Gamma, the prefix-shell
count of the lens lattice, the element-by-element check of a spherical
element list and the eigenvalue-by-eigenvalue comparison of two spectra."""

import math
from fractions import Fraction
from operator import mul
from typing import Sequence

from curvspec import flat, liealg
from curvspec.errors import IntegralityError, InvariantViolation
from curvspec.liealg import RotationElement
from curvspec.ratlinalg import Mat, Vec, _hnf_rows, as_vec, identity
from curvspec.spectra import ComparisonResult


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


def _coordinate_matrix(rot) -> list:
    """A validated rotation as its matrix on the coordinates it was read on:
    an integer matrix as it is, a signed permutation of a cubic frame (entry
    j is pi(j) for + and ~pi(j) for -) with the entry +-1 at (pi(j), j)."""
    if not rot or not isinstance(rot[0], int):
        return [list(row) for row in rot]
    out = [[0] * len(rot) for _ in rot]
    for j, a in enumerate(rot):
        out[max(a, ~a)][j] = 1 if a >= 0 else -1
    return out


def closure_by_table(coords, rots, shifts, d: int, start: int):
    """The closure check of a flat group's cosets by the whole |F|^2 product
    table: every product R_i R_j must be the rotation of some coset, with the
    translation of that coset mod the lattice.  A drop-in for
    `flat._closure`: returns product(i, j) read off the table."""
    index = {r: i for i, r in enumerate(rots)}
    table = []
    for r1, s1 in zip(rots, shifts):
        row = []
        for r2, s2 in zip(rots, shifts):
            match = index.get(coords.mul(r1, r2))
            # (B1, b1)(B2, b2) = (B1 B2, b2 + B2^-1 b1); on lattice
            # coordinates, times R2: R2 (s2 - s_match) + s1 = 0 mod D
            if match is None or any(
                (x + dot(r, [a - b for a, b in zip(s2, shifts[match])])) % d
                for x, r in zip(s1, _coordinate_matrix(r2))
            ):
                raise InvariantViolation("coset system is not closed under composition")
            row.append(match)
        table.append(row)
    return lambda i, j: table[i][j]


def move_origin(group, c: Sequence):
    """The same space form with its origin moved to the point c: each coset
    (B, b) becomes (B, b + c - B^T c)."""
    cosets = []
    for b, t in group.cosets:
        moved = vec_sub(c, [dot(col, c) for col in zip(*b)])  # c - B^T c
        cosets.append((b, vec_add(t, moved)))
    return flat.BieberbachGroup(flat.Lattice(group.lattice.basis), tuple(cosets))


def far_origin(group):
    """The group with its origin moved to (1, 2, ..., n) / 17.  No signed
    permutation but the identity fixes that point mod 17, so every other
    coset's translation gains a denominator 17 and D leaves {1, 2, 3, 4, 6}."""
    return move_origin(group, [Fraction(k, 17) for k in range(1, group.n + 1)])


def residue_counts(group, t: int) -> list:
    """Each coset's counts {r: C_r} of the residues r = D <v, b> mod D over
    the dual vectors v of the group's shell t that its rotation part fixes,
    counted again rather than read from the group's ball: from the theta
    products of its cycles on a cubic frame, over the lattice's walk
    otherwise."""
    d = group._denom
    if isinstance(group._coords, flat._OnFrame):
        e = t // group._coords.c.numerator
        return [flat._theta_table(c.fixes, d, e)[e] for c in group._holonomy]
    xs = group.lattice._ball["shells"].get(t, ())
    return [flat._residue_counts(c, d, xs) for c in group._holonomy]


def row_by_degree(group, t: int, counts=None) -> tuple:
    """(d_0, ..., d_n) of a flat group at its shell t > 0, one degree at a
    time: each degree p weights the cosets' residue counts (see
    `residue_counts`, unless they are given) by tr Lambda^p(B) and takes one
    exact phase sum, raising the library's IntegralityError at the first
    degree that is not a nonnegative integer."""
    d, order = group._denom, group.holonomy_order
    counts = residue_counts(group, t) if counts is None else counts
    per_coset = [(c.traces, res) for c, res in zip(group._holonomy, counts)]
    row = []
    for p in range(group.n + 1):
        weighted: dict = {}
        for traces, residues in per_coset:
            for r, c in residues.items():
                weighted[r] = weighted.get(r, 0) + traces[p] * c
        total = flat._phase_sum(weighted, d)
        val, rest = divmod(total, order)
        if rest or val < 0:
            mu = Fraction(t, group._cache["shells"]["scale"])
            raise IntegralityError(
                f"multiplicity {Fraction(total, order)} at mu={mu}, p={p} "
                "is not a nonnegative integer"
            )
        row.append(val)
    return tuple(row)


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


def lattice_counts_by_prefix_shells(big_n: int, q: Sequence[int], radius: int) -> dict:
    """N_L(r, l) for r <= radius, L = {mu : <mu, q> = 0 mod N}: the first m-1
    coordinates mu' are enumerated shell by shell and filed under the class
    c = -<mu', q'> q_m^-1 mod N of the last coordinate and their 1-norm; every
    c in the class with |c| <= radius - |mu'| completes them."""
    *head, last = q
    inverse = pow(last, -1, big_n)
    prefixes: dict = {}
    for r in range(radius + 1):
        for s, zeros in _shell(tuple(head), r):
            key = (-s * inverse % big_n, r, zeros)
            prefixes[key] = prefixes.get(key, 0) + 1
    counts: dict = {}
    for c in range(-radius, radius + 1):
        for r in range(radius - abs(c) + 1):
            for zeros in range(len(q)):
                count = prefixes.get((c % big_n, r, zeros))
                if count:
                    key = (r + abs(c), zeros + (c == 0))
                    counts[key] = counts.get(key, 0) + count
    return counts


def _shell(q: tuple, r: int):
    """(<mu, q>, number of zero coordinates) of every mu in Z^len(q) with
    1-norm r."""
    *head, last = q
    if not head:
        if r == 0:
            yield 0, 1
        else:
            yield r * last, 0
            yield -r * last, 0
        return
    for a in range(-r, r + 1):
        for s, zeros in _shell(tuple(head), r - abs(a)):
            yield s + a * last, zeros + (a == 0)


def lens_data_by_elements(m: int, elements) -> tuple:
    """(N, q) of the lens group given by its elements (`RotationElement`s or
    rows of (numerator, denominator) pairs), checked one element at a time:
    each angle is read as a residue mod N (a fraction in [0, 1) when it is
    not one), and the keys are tested for repeats, the identity, a unit
    eigenvalue and closure, in that order, with the library's messages."""
    elems = tuple(elements)
    big_n = len(elems)
    if not elems:
        raise InvariantViolation("group is empty")
    seen = set()
    for g in elems:
        if isinstance(g, RotationElement):
            g = [(a.numerator, a.denominator) for a in g.angles]
        if len(g) != m:
            raise InvariantViolation("element rank does not match the group")
        key = tuple(
            a * big_n // b % big_n if a * big_n % b == 0 else Fraction(a, b) % 1 for a, b in g
        )
        if key in seen:
            raise InvariantViolation("duplicate element")
        seen.add(key)
    identity = (0,) * m
    if identity not in seen:
        raise InvariantViolation("identity element missing")
    if any(0 in key for key in seen if key != identity):
        raise InvariantViolation(
            "fixed point on the sphere: non-identity element has a unit eigenvalue"
        )
    gen = next((key for key in seen if key[0] == 1 % big_n), None)
    if gen is None or any(type(r) is Fraction for key in seen for r in key) or seen != {
        tuple(t * qj % big_n for qj in gen) for t in range(big_n)
    }:
        raise InvariantViolation("element list is not closed under composition")
    return big_n, gen


def first_difference(a: dict, b: dict) -> ComparisonResult:
    """Agreement of two eigenvalue -> multiplicity maps, or the smallest
    eigenvalue where they differ; an eigenvalue missing from a map has
    multiplicity 0."""
    for lam in sorted(a.keys() | b.keys()):
        d1, d2 = a.get(lam, 0), b.get(lam, 0)
        if d1 != d2:
            return ComparisonResult(False, (lam, d1, d2))
    return ComparisonResult(True, None)
