"""Spectra of flat space forms: quotients of R^n by Bieberbach groups.

A group is described by a full-rank lattice together with the finitely many
cosets (B, b) representing the isometries x -> B(x + b) modulo the lattice
translations.

The kernel runs on integers.  The dual basis is a fraction-free (Bareiss)
inverse of the integer-scaled basis.  A dual-lattice vector is an integer
coordinate vector x on the dual basis; the dual ball is enumerated once per
lattice by an integer Fincke-Pohst walk set up by fraction-free elimination
of the Gram matrix.  On lattice coordinates a rotation B is the integer
matrix R = dual B basis^T, and on dual coordinates it is A = (R^-1)^T, so the
fixed-vector test A x = x is the integer equation R^T x = x.  The
translations are integer residue vectors modulo their common denominator D,
so each phase <v, b> is a residue r mod D.  Validation, Betti numbers and
exterior traces work with R alone: the closure check's product table gives
the powers of R, hence the torsion test on N = sum_k R^k (an integer Hermite
reduction) and the power traces tr R^k, from which Newton's identities give
the exterior traces tr Lambda^p(R).  A multiplicity is
|F|^-1 sum_r C_r exp(-2 pi i r / D) for integer counts C_r; Galois invariance
makes C_r depend on gcd(r, D) alone, and the primitive k-th roots of unity sum
to the Moebius value mu(k), so the sum is evaluated in integers.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import mul, sub
from typing import NamedTuple

from . import ratlinalg as rl
from .errors import IntegralityError, InvariantViolation
from .liealg import exterior_trace  # noqa: F401 (perfbench/tracer.py wraps flat.exterior_trace)
from .spectra import ComparisonResult, first_difference

IntMat = tuple[tuple[int, ...], ...]


def _integral(rows) -> tuple[IntMat, int]:
    """(M, d) with rows = M / d and d the least common denominator."""
    den = math.lcm(*(x.denominator for row in rows for x in row))
    return tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in rows), den


def _eye(n: int, c: int = 1) -> IntMat:
    return tuple(tuple(c if i == j else 0 for j in range(n)) for i in range(n))


def _divide(a, den: int) -> IntMat | None:
    """a / den if every entry is divisible, else None."""
    if any(x % den for row in a for x in row):
        return None
    return tuple(tuple(x // den for x in row) for row in a)


def _inverse(m: IntMat) -> tuple[IntMat, int] | None:
    """(A, p) with m^-1 = A / p for an integer matrix m, by fraction-free
    Gauss-Jordan elimination (Bareiss): every entry stays a minor of the
    row-permuted m, so every division is exact; None if m is singular."""
    n = len(m)
    rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if rows[i][k]), None)
        if piv is None:
            return None
        rows[k], rows[piv] = rows[piv], rows[k]
        pivot_row = rows[k]
        p = pivot_row[k]
        for i, row in enumerate(rows):
            if i != k:
                f = row[k]
                rows[i] = [(p * x - f * y) // prev for x, y in zip(row, pivot_row)]
        prev = p
    # the left half is now p times the identity
    return tuple(tuple(row[n:]) for row in rows), prev


@dataclass(frozen=True)
class Lattice:
    """Full-rank lattice given by basis vectors as the rows of `basis`."""

    basis: rl.Mat
    # the basis and the dual basis as (integer matrix, denominator)
    _scaled: tuple[tuple[IntMat, int], tuple[IntMat, int]] = field(
        init=False, repr=False, compare=False
    )
    # dual ball: {"mu": cutoff walked, "shells": {norm: [dual coordinates]}}
    _ball: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # the ball's shells as ambient vectors: {norm: vectors}, filled by shells()
    _ambient: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        basis = rl.as_mat(self.basis)
        object.__setattr__(self, "basis", basis)
        n = len(basis)
        if n == 0 or any(len(r) != n for r in basis):
            raise ValueError("basis must be square")
        scaled, den = _integral(basis)
        inverse = _inverse(scaled)
        if inverse is None:
            raise ValueError("basis is singular")
        # basis = scaled / den, so dual = (basis^-1)^T = den inv^T / p, in lowest terms
        inv, p = inverse
        g = math.gcd(p, *(den * x for row in inv for x in row))
        g = -g if p < 0 else g
        dual = tuple(tuple(den * x // g for x in col) for col in zip(*inv))
        dual_den = p // g
        object.__setattr__(self, "_scaled", ((scaled, den), (dual, dual_den)))

    @property
    def n(self) -> int:
        return len(self.basis)

    def dual_basis(self) -> rl.Mat:
        """Rows d_j with <b_i, d_j> = delta_ij."""
        dual, den = self._scaled[1]
        return tuple(tuple(Fraction(x, den) for x in row) for row in dual)

    def coords(self, v) -> rl.Vec:
        """Coordinates of an ambient vector on the lattice basis."""
        dual, den = self._scaled[1]
        v = rl.as_vec(v)
        return tuple(sum(map(mul, row, v)) / den for row in dual)

    def contains(self, v) -> bool:
        return all(x.denominator == 1 for x in self.coords(v))

    def reduce(self, v) -> rl.Vec:
        """Representative of v modulo the lattice with coordinates in [0, 1)."""
        frac = [x - (x.numerator // x.denominator) for x in self.coords(v)]
        return rl.mat_vec(rl.transpose(self.basis), frac)

    def _walked(self, mu_max: Fraction) -> dict[Fraction, list[tuple[int, ...]]]:
        """The dual ball as integer coordinates on the dual basis, grouped by
        the exact norm in increasing order, walked to a cutoff of at least
        mu_max.  The walk runs once, at the largest cutoff asked for so far;
        smaller cutoffs read its result."""
        if mu_max < 0:
            raise ValueError("cutoff must be nonnegative")
        ball = self._ball
        if ball.get("mu", -1) < mu_max:
            ball["shells"] = _fincke_pohst(*self._scaled[1], mu_max)
            ball["mu"] = mu_max
        return ball["shells"]


def _fincke_pohst(dual: IntMat, den: int, mu_max: Fraction) -> dict[Fraction, list[tuple[int, ...]]]:
    """Integer vectors x with |x dual|^2 <= mu_max (dual = dual / den), by norm.

    Fraction-free elimination (Bareiss) of the integer Gram matrix G of the
    scaled rows gives its leading principal minors Delta_i and rows U_i with
    x^T G x = sum_i y_i^2 / (Delta_{i-1} Delta_i), y_i = sum_{j>=i} U_ij x_j
    and Delta_{-1} = 1.  Dividing each row by its gcd and scaling the weights
    to integers turns K x^T G x into sum_i w_i y_i^2 with
    y_i = m_i x_i + sum_{j>i} a_ij x_j and positive integers K, w_i, m_i and
    integers a_ij, so the walk over x_{n-1}, ..., x_0 bounds each y_i by an
    integer square root and never leaves the integers.
    """
    n = len(dual)
    gram = [[sum(map(mul, r, s)) for s in dual] for r in dual]
    steps, coeffs, weights = [], [], []
    prev = 1
    for i in range(n):
        row = gram[i]
        pivot = row[i]
        assert pivot > 0  # G is positive definite
        g = math.gcd(*row[i:])
        steps.append(pivot // g)
        coeffs.append([u // g for u in row[i + 1:]])
        # w_i = g^2 / (Delta_{i-1} Delta_i), kept as a reduced (numerator, denominator)
        h = math.gcd(g * g, prev * pivot)
        weights.append((g * g // h, prev * pivot // h))
        for k in range(i + 1, n):
            f = gram[k][i]
            gram[k] = [(pivot * x - f * y) // prev for x, y in zip(gram[k], row)]
        prev = pivot
    scale = math.lcm(*(v for _, v in weights))
    weights = [w * (scale // v) for w, v in weights]
    bound = scale * math.floor(mu_max * den * den)

    found: dict[int, list[tuple[int, ...]]] = {}
    x = [0] * n

    def descend(level: int, budget: int):
        if level < 0:
            found.setdefault(budget, []).append(tuple(x))
            return
        m, w = steps[level], weights[level]
        s = sum(map(mul, coeffs[level], x[level + 1:]))
        y_max = math.isqrt(budget // w)
        for xi in range(-((y_max + s) // m), (y_max - s) // m + 1):
            y = m * xi + s
            x[level] = xi
            descend(level - 1, budget - w * y * y)
        x[level] = 0

    descend(n - 1, bound)
    norm_den = scale * den * den
    return {
        Fraction(bound - left, norm_den): found[left] for left in sorted(found, reverse=True)
    }


def shells(lattice: Lattice, mu_max) -> dict[Fraction, tuple[rl.Vec, ...]]:
    """Dual-lattice vectors of squared norm <= mu_max, grouped by the exact
    norm, as ambient vectors.  The enumeration is the lattice's cached
    integer Fincke-Pohst walk, and each shell is converted once per lattice;
    no floating point enters."""
    dual, den = lattice._scaled[1]
    cols = rl.transpose(dual)
    mu_max, ambient, out = Fraction(mu_max), lattice._ambient, {}
    for mu, xs in lattice._walked(mu_max).items():
        if mu > mu_max:
            break
        if mu not in ambient:
            ambient[mu] = tuple(
                tuple(Fraction(sum(map(mul, x, col)), den) for col in cols) for x in xs
            )
        out[mu] = ambient[mu]
    return out


class _Coset(NamedTuple):
    """A validated coset in integer coordinates."""

    fixes: IntMat  # the nonzero rows of R^T - 1
    shift: tuple[int, ...]  # D times the lattice coordinates of b, mod D
    traces: tuple[int, ...]  # tr Lambda^p(B) for p = 0..n


def _traces_from_powers(power_traces: list[int]) -> tuple[int, ...]:
    """tr Lambda^p(R) for p = 0..n from the power traces tr R^k, k = 1..n:
    these are the elementary and the power sums of the eigenvalues, so
    Newton's identities p e_p = sum_k (-1)^(k-1) e_(p-k) tr R^k apply, with an
    exact division for an integer matrix."""
    traces = [1]
    for p in range(1, len(power_traces) + 1):
        e, rest = divmod(
            sum((-1) ** (k - 1) * traces[p - k] * power_traces[k - 1] for k in range(1, p + 1)), p
        )
        assert rest == 0
        traces.append(e)
    return tuple(traces)


def _in_scaled_span(v: list[int], gens: IntMat, scale: int) -> bool:
    """Is v in scale times the integer span of gens?  Reduces v against the
    Hermite normal form of the generators."""
    for row in rl._hnf_rows(gens):
        lead = next(j for j, x in enumerate(row) if x)
        q, rest = divmod(v[lead], scale * row[lead])
        if rest:
            return False
        v = [x - q * scale * y for x, y in zip(v, row)]
    return not any(v)


@dataclass(frozen=True)
class BieberbachGroup:
    """Torsion-free crystallographic group: lattice plus holonomy cosets."""

    lattice: Lattice
    cosets: tuple[tuple[rl.Mat, rl.Vec], ...]
    name: str = ""
    _cache: dict = field(default_factory=dict, compare=False, repr=False, hash=False)
    # the cosets in integer coordinates, in the order of `cosets`
    _holonomy: tuple[_Coset, ...] = field(init=False, compare=False, repr=False)
    _denom: int = field(init=False, compare=False, repr=False)  # D

    def __post_init__(self):
        cosets = tuple(
            (rl.as_mat(b), rl.as_vec(t)) for b, t in self.cosets
        )
        object.__setattr__(self, "cosets", cosets)
        n = self.lattice.n
        (basis, basis_den), (dual, dual_den) = self.lattice._scaled
        basis_t = rl.transpose(basis)
        ident = _eye(n)
        seen, rots, coords = [], [], []
        for b, t in cosets:
            if len(b) != n or len(t) != n:
                raise InvariantViolation("coset data has wrong dimension")
            b_int, b_den = _integral(b)
            if rl.mat_mul(rl.transpose(b_int), b_int) != _eye(n, b_den * b_den):
                raise InvariantViolation("rotation part is not orthogonal")
            if b in seen:
                raise InvariantViolation("two cosets share a rotation part")
            seen.append(b)
            den = dual_den * b_den * basis_den
            rot = _divide(rl.mat_mul(rl.mat_mul(dual, b_int), basis_t), den)
            if rot is None:
                raise InvariantViolation("rotation part does not preserve the lattice")
            rots.append(rot)
            # the lattice coordinates of t are dual t_int / (dual_den t_den)
            (t_int,), t_den = _integral((t,))
            num, den = rl.mat_vec(dual, t_int), dual_den * t_den
            g = math.gcd(den, *num)
            coords.append(([x // g for x in num], den // g))
        d = math.lcm(*(den for _, den in coords))
        shifts = [tuple(x * (d // den) % d for x in num) for num, den in coords]
        try:
            id_index = rots.index(ident)
        except ValueError:
            raise InvariantViolation("identity coset missing") from None
        if any(shifts[id_index]):
            raise InvariantViolation("identity coset carries a non-lattice translation")
        index = {r: i for i, r in enumerate(rots)}
        # products[i][j] is the index of R_i R_j
        products = []
        for r1, s1 in zip(rots, shifts):
            row = []
            for r2, s2 in zip(rots, shifts):
                match = index.get(rl.mat_mul(r1, r2))
                # (B1, b1)(B2, b2) = (B1 B2, b2 + B2^-1 b1); on lattice
                # coordinates, times R2: R2 (s2 - s_match) + s1 = 0 mod D
                if match is None or any(
                    (x + y) % d
                    for x, y in zip(s1, rl.mat_vec(r2, list(map(sub, s2, shifts[match]))))
                ):
                    raise InvariantViolation("coset system is not closed under composition")
                row.append(match)
            products.append(row)
        traces = [sum(r[i][i] for i in range(n)) for r in rots]
        holonomy = []
        for i, (r, s) in enumerate(zip(rots, shifts)):
            # the indices of R^0, R^1, ..., R^(m-1), m the order of R
            powers, k = [id_index], i
            while k != id_index:
                powers.append(k)
                k = products[k][i]
            if i != id_index:
                # N = 1 + R + ... + R^(m-1) is m times the projector onto the
                # fixed space of R; some element of the coset fixes a point
                # exactly when N s / D lies in N Z^n
                total = [[sum(rots[k][a][b] for k in powers) for b in range(n)] for a in range(n)]
                if not any(map(any, total)):
                    raise InvariantViolation("holonomy element acts with a fixed point")
                if _in_scaled_span(rl.mat_vec(total, s), list(zip(*total)), d):
                    raise InvariantViolation(
                        "group has torsion: a holonomy coset contains a fixed-point isometry"
                    )
            # a dual vector x is fixed by B exactly when (R^T - 1) x = 0
            fixed = [list(col) for col in zip(*r)]
            for a in range(n):
                fixed[a][a] -= 1
            power_traces = [traces[powers[k % len(powers)]] for k in range(1, n + 1)]
            holonomy.append(
                _Coset(
                    tuple(tuple(row) for row in fixed if any(row)),
                    s,
                    _traces_from_powers(power_traces),
                )
            )
        object.__setattr__(self, "_holonomy", tuple(holonomy))
        object.__setattr__(self, "_denom", d)

    @property
    def n(self) -> int:
        return self.lattice.n

    @property
    def holonomy_order(self) -> int:
        return len(self.cosets)


def is_orientable(group: BieberbachGroup) -> bool:
    return all(c.traces[-1] == 1 for c in group._holonomy)  # tr Lambda^n = det


def _residue_counts(group: BieberbachGroup, coset_index: int, mu: Fraction) -> Counter:
    """Counts of the residues r = D <v, b> mod D over the dual vectors v of
    squared norm mu fixed by the rotation part of the chosen coset."""
    key = ("r", coset_index, mu)
    counts = group._cache.get(key)
    if counts is None:
        coset, d = group._holonomy[coset_index], group._denom
        counts = group._cache[key] = Counter(
            sum(map(mul, coset.shift, x)) % d
            for x in group.lattice._walked(mu).get(mu, ())
            if not any(sum(map(mul, row, x)) for row in coset.fixes)
        )
    return counts


def e_mu_gamma(group: BieberbachGroup, coset_index: int, mu) -> complex:
    """Sum of exp(-2 pi i <v, b>) over the dual vectors of squared norm mu
    fixed by the rotation part of the chosen coset, evaluated as
    sum_r c_r exp(-2 pi i r / D) over the counts c_r of the exact residues
    r = D <v, b> mod D."""
    d = group._denom
    residues = _residue_counts(group, coset_index, Fraction(mu))
    return sum((c * cmath.exp(-2j * cmath.pi * r / d) for r, c in residues.items()), 0j)


def _moebius(k: int) -> int:
    """The Moebius function, by trial division."""
    out, f = 1, 2
    while f * f <= k:
        if k % f == 0:
            k //= f
            if k % f == 0:
                return 0
            out = -out
        f += 1
    return -out if k > 1 else out


def _phase_sum(counts: dict[int, int], d: int) -> int:
    """sum_r C_r exp(2 pi i r / d), exactly, for integer counts C_r that are
    constant on each class gcd(r, d): the class of g | d holds the primitive
    (d/g)-th roots of unity, which sum to mu(d/g).  Counts that are not
    constant on the classes raise IntegralityError."""
    counts = {r: c for r, c in counts.items() if c}
    # a common factor of d and every residue present only shrinks the ring
    g0 = math.gcd(d, *counts)
    d //= g0
    counts = {r // g0: c for r, c in counts.items()}
    total = 0
    for r in range(1, d + 1):
        g = math.gcd(r, d)
        c = counts.get(r % d, 0)
        if c != counts.get(g % d, 0):
            raise IntegralityError(
                f"residue counts are not Galois invariant: {c} at {r} but "
                f"{counts.get(g % d, 0)} at {g} (mod {d})"
            )
        if g == r:
            total += c * _moebius(d // r)
    return total


def betti(group: BieberbachGroup, p: int) -> int:
    """p-th Betti number: the holonomy average of the exterior traces,
    computed exactly."""
    if not 0 <= p <= group.n:
        raise ValueError("form degree out of range")
    val = Fraction(sum(c.traces[p] for c in group._holonomy), group.holonomy_order)
    if val.denominator != 1 or val < 0:
        raise IntegralityError(f"holonomy trace average {val} is not a nonnegative integer")
    return int(val)


def d_lambda(group: BieberbachGroup, p: int, mu) -> int:
    """Multiplicity of the eigenvalue 4 pi^2 mu on p-forms:
    |F|^-1 sum over the cosets of tr Lambda^p(B) e_mu_gamma, in integers."""
    mu = Fraction(mu)
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    if not 0 <= p <= group.n:
        raise ValueError("form degree out of range")
    if mu == 0:
        return betti(group, p)
    key = ("d", p, mu)
    cached = group._cache.get(key)
    if cached is not None:
        return cached
    counts: Counter[int] = Counter()
    for idx, coset in enumerate(group._holonomy):
        for r, c in _residue_counts(group, idx, mu).items():
            counts[r] += coset.traces[p] * c
    total = _phase_sum(counts, group._denom)
    val, rest = divmod(total, group.holonomy_order)
    if rest or val < 0:
        raise IntegralityError(
            f"multiplicity {Fraction(total, group.holonomy_order)} at mu={mu}, p={p} "
            "is not a nonnegative integer"
        )
    group._cache[key] = val
    return val


@dataclass(frozen=True)
class FlatSpectrum:
    n: int
    p: int
    mu_max: Fraction
    entries: dict[Fraction, int]


def spectrum(group: BieberbachGroup, p: int, mu_max) -> FlatSpectrum:
    """Eigenvalues 4 pi^2 mu with mu <= mu_max on p-forms; the mu = 0 entry is
    always present and equals the Betti number."""
    mu_max = Fraction(mu_max)
    entries: dict[Fraction, int] = {Fraction(0): betti(group, p)}
    for mu in shells(group.lattice, mu_max):
        if mu == 0:
            continue
        d = d_lambda(group, p, mu)
        if d:
            entries[mu] = d
    return FlatSpectrum(group.n, p, mu_max, dict(sorted(entries.items())))


def compare(g1: BieberbachGroup, g2: BieberbachGroup, p: int, mu_max) -> ComparisonResult:
    if g1.n != g2.n:
        raise ValueError("groups act on spaces of different dimensions")
    return first_difference(spectrum(g1, p, mu_max).entries, spectrum(g2, p, mu_max).entries)


def n_sigma_multiplicity(group: BieberbachGroup, p: int, mu) -> int:
    """Multiplicity of the degree-p principal-series piece at squared norm
    mu > 0, telescoped out of the form multiplicities:
    sum_{q<=p} (-1)^(p-q) d(q, mu)."""
    mu = Fraction(mu)
    if mu <= 0:
        raise ValueError("mu must be positive")
    if not 0 <= p <= group.n:
        raise ValueError("degree out of range")
    val = sum((-1) ** (p - q) * d_lambda(group, q, mu) for q in range(p + 1))
    if val < 0:
        raise IntegralityError(f"telescoped multiplicity {val} is negative")
    return val


def tau_equivalent(g1: BieberbachGroup, g2: BieberbachGroup, p: int, mu_max) -> bool:
    """Equality of all multiplicities attached to the degree-p exterior
    representation up to the cutoff: both telescoped halves at every shell
    plus the p-th Betti numbers."""
    if g1.n != g2.n:
        raise ValueError("groups act on spaces of different dimensions")
    if not 0 <= p <= g1.n:
        raise ValueError("form degree out of range")
    mu_max = Fraction(mu_max)
    if betti(g1, p) != betti(g2, p):
        return False
    norms = set(shells(g1.lattice, mu_max)) | set(shells(g2.lattice, mu_max))
    for mu in sorted(norms):
        if mu == 0:
            continue
        for q in (p, p - 1):
            if q < 0:
                continue
            if n_sigma_multiplicity(g1, q, mu) != n_sigma_multiplicity(g2, q, mu):
                return False
    return True


def _block_diag(*blocks) -> list[list[Fraction]]:
    n = sum(len(b) for b in blocks)
    out = [[Fraction(0)] * n for _ in range(n)]
    at = 0
    for blk in blocks:
        for i, row in enumerate(blk):
            for j, x in enumerate(row):
                out[at + i][at + j] = Fraction(x)
        at += len(blk)
    return out


def _e(n: int, *entries) -> list[Fraction]:
    """Vector with given (index, value) entries, zero elsewhere."""
    v = [Fraction(0)] * n
    for idx, val in entries:
        v[idx] = Fraction(val)
    return v


_ROT90 = ((0, 1), (-1, 0))  # quarter turn
_SWAP = ((0, 1), (1, 0))  # reflection swapping two axes


def klein_pair(c: int = 2) -> tuple[BieberbachGroup, BieberbachGroup]:
    """The two-dimensional pair: a Klein bottle with lattice Z x cZ and glide
    along the first axis, and its partner gliding along the second."""
    if c <= 1:
        raise ValueError("need c > 1")
    lat = Lattice(((1, 0), (0, c)))
    ident = rl.identity(2)
    ka = BieberbachGroup(
        lat,
        (
            (ident, (0, 0)),
            (((1, 0), (0, -1)), (Fraction(1, 2), 0)),
        ),
        name="klein_a",
    )
    kb = BieberbachGroup(
        lat,
        (
            (ident, (0, 0)),
            (((-1, 0), (0, 1)), (0, Fraction(c, 2))),
        ),
        name="klein_b",
    )
    return ka, kb


@lru_cache(maxsize=1)
def _fixture_table() -> dict[str, BieberbachGroup]:
    out: dict[str, BieberbachGroup] = {}
    ka, kb = klein_pair()
    out["klein_a"], out["klein_b"] = ka, kb

    lat4 = Lattice(rl.identity(4))
    id4 = rl.identity(4)
    out["flat4_a"] = BieberbachGroup(
        lat4,
        (
            (id4, _e(4)),
            (_block_diag(((1,),), ((1,),), ((-1,),), ((-1,),)), _e(4, (0, Fraction(1, 2)))),
        ),
        name="flat4_a",
    )
    out["flat4_b"] = BieberbachGroup(
        lat4,
        (
            (id4, _e(4)),
            (_block_diag(((1,),), _SWAP, ((-1,),)), _e(4, (0, Fraction(1, 2)))),
        ),
        name="flat4_b",
    )
    half = Fraction(1, 2)
    g1_rot = _block_diag(((-1,),), ((-1,),), ((1,),), ((1,),))
    g2_rot = _block_diag(((1,),), ((-1,),), ((-1,),), ((1,),))
    g12_rot = _block_diag(((-1,),), ((1,),), ((-1,),), ((1,),))
    out["flat4_m24"] = BieberbachGroup(
        lat4,
        (
            (id4, _e(4)),
            (g1_rot, _e(4, (3, half))),
            (g2_rot, _e(4, (1, half), (3, half))),
            (g12_rot, _e(4, (1, half))),
        ),
        name="flat4_m24",
    )
    out["flat4_m25"] = BieberbachGroup(
        lat4,
        (
            (id4, _e(4)),
            (g1_rot, _e(4, (3, half))),
            (g2_rot, _e(4, (0, half), (1, half))),
            (g12_rot, _e(4, (0, half), (1, half), (3, half))),
        ),
        name="flat4_m25",
    )

    lat8 = Lattice(rl.identity(8))
    id8 = rl.identity(8)
    rot = _block_diag(_ROT90, _ROT90, ((1,),), ((1,),), ((-1,),), ((-1,),))
    rot2 = rl.mat_mul(rl.as_mat(rot), rl.as_mat(rot))
    rot3 = rl.mat_mul(rl.as_mat(rot2), rl.as_mat(rot))
    quarter = Fraction(1, 4)
    out["flat8_a"] = BieberbachGroup(
        lat8,
        (
            (id8, _e(8)),
            (rot, _e(8, (4, quarter))),
            (rot2, _e(8, (4, half))),
            (rot3, _e(8, (4, 3 * quarter))),
        ),
        name="flat8_a",
    )
    out["flat8_b"] = BieberbachGroup(
        lat8,
        (
            (id8, _e(8)),
            (rot, _e(8, (4, quarter), (5, half))),
            (rot2, _e(8, (4, half))),
            (rot3, _e(8, (4, 3 * quarter), (5, half))),
        ),
        name="flat8_b",
    )
    out["flat8_c"] = BieberbachGroup(
        lat8,
        (
            (id8, _e(8)),
            (rot, _e(8, (4, quarter), (5, quarter))),
            (rot2, _e(8, (4, half), (5, half))),
            (rot3, _e(8, (4, 3 * quarter), (5, 3 * quarter))),
        ),
        name="flat8_c",
    )
    rot_d = _block_diag(_ROT90, _ROT90, _SWAP, ((1,),), ((-1,),))
    rot_d2 = rl.mat_mul(rl.as_mat(rot_d), rl.as_mat(rot_d))
    rot_d3 = rl.mat_mul(rl.as_mat(rot_d2), rl.as_mat(rot_d))
    out["flat8_d"] = BieberbachGroup(
        lat8,
        (
            (id8, _e(8)),
            (rot_d, _e(8, (4, half))),
            (rot_d2, _e(8, (4, half), (5, half))),
            (rot_d3, _e(8, (5, half))),
        ),
        name="flat8_d",
    )
    return out


def fixtures() -> dict[str, BieberbachGroup]:
    """The named example groups: the 2-dimensional Klein pair, two
    4-dimensional pairs, and two 4-element-holonomy 8-dimensional pairs.
    Instances are shared (and carry their own multiplicity caches)."""
    return dict(_fixture_table())
