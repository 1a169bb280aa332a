"""Spectra of flat space forms: quotients of R^n by Bieberbach groups.

A group is described by a full-rank lattice together with the finitely many
cosets (B, b) representing the isometries x -> B(x + b) modulo the lattice
translations.

The kernel runs on integers.  Int and Fraction input entries are kept as
given (any other number goes through Fraction once), each matrix that enters
integer arithmetic is scaled to integers over its common denominator, and a
basis S / d is refused as singular when det S = 0.  Closure under
composition is checked on generators, |F| products each.

When the lattice is a scaled Z^n on the standard axes, `Lattice._frame`
reads its cubic frame f_i = (d / s) e_i, of squared norm c, off det S and
the gcd s of the entries of the basis S / d; no dual walk or inverse is
needed.  On the lattice basis f_i / c every rotation is a signed
permutation: one test, that each column of B is some +-e_j, replaces the
orthogonality and lattice tests, and products and shifts take O(n).  One
walk over the cycles gives everything else.  A dual vector fixed by B is 0
on each cycle whose signs multiply to -1 and +-x along each other cycle C,
adding c |C| x^2 to the norm and x beta_C to D <v, b>, so a coset's residue
counts by norm are the coefficients of a product of one-dimensional theta
series (Miatello-Rossetti), keyed by t = den(c) mu, with the cycles of
beta_C = 0 multiplied as a plain integer series; the coset holds no
fixed-point isometry exactly when some beta_C is not 0 mod D; and a cycle C
of sign s_C multiplies det(1 + t R) = sum_p tr Lambda^p(R) t^p by
1 - s_C (-t)^|C|, so no matrix is built.

Other lattices, cubic ones off the standard axes among them, are walked.
Their dual basis, a fraction-free (Bareiss) inverse built on first use,
gives dual vectors integer coordinates x; an integer Fincke-Pohst walk
enumerates the dual ball once per lattice, keyed by t = K |v|^2 with K fixed
by the lattice; a rotation B is the integer matrix R = dual B basis^T, the
fixed-vector test is R^T x = x, and the torsion test asks whether N s / D
lies in N Z^n for N = sum_k R^k (an integer Hermite reduction); the closure
check's products give the powers of R, hence the power traces, and Newton's
identities the exterior traces.

On both, translations are residue vectors modulo their common denominator
D, so each phase <v, b> is a residue r mod D.  A group caches one row
(d_0, ..., d_n) per shell t, each entry |F|^-1 sum_r C_r
exp(-2 pi i r / D) for integer counts C_r that depend on gcd(r, D) alone
(Galois invariance), so Moebius values sum it in integers.  All degrees
share the counts: one pass builds a vector of trace-weighted counts per
residue, and one phase sum of the vectors gives the row.  Two lattices'
shells compare on the scale lcm(K1, K2); a comparison keeps one table per
pair and cutoff, with both rows at every shell and the first discrepancy
in every degree, which answers each degree.  Fractions are built only for
results that leave the module: spectrum entries, a first discrepancy, and
the values of `shells`, a lazy mapping that converts a shell to ambient
vectors when it is read.
"""

from __future__ import annotations

import cmath
import math
import numbers
from bisect import bisect_right
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from itertools import islice
from operator import mul, sub
from typing import NamedTuple

from . import ratlinalg as rl
from .errors import IntegralityError, InvariantViolation
from .liealg import exterior_trace  # noqa: F401 (perfbench/tracer.py wraps flat.exterior_trace)
from .spectra import ComparisonResult

IntMat = tuple[tuple[int, ...], ...]


def _exact(row) -> tuple:
    """row as a tuple of exact numbers: an int or a Fraction entry as it is,
    any other through Fraction."""
    row = tuple(row)
    if set(map(type, row)) <= {int, Fraction}:
        return row
    return tuple(x if type(x) in (int, Fraction) else Fraction(x) for x in row)


def _exact_rows(rows) -> rl.Mat:
    """rows as a matrix of exact numbers (see _exact), refusing a ragged one."""
    m = tuple(map(_exact, rows))
    if m and any(len(r) != len(m[0]) for r in m):
        raise ValueError("ragged matrix")
    return m


def _integral(rows) -> tuple[IntMat, int]:
    """(M, d) with rows = M / d and d the least common denominator."""
    den = math.lcm(*{x.denominator for row in rows for x in row})
    if den == 1:
        return tuple(tuple(map(int, row)) for row in rows), 1
    return tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in rows), den


def _eye(n: int, c: int = 1) -> IntMat:
    return tuple(tuple(c if i == j else 0 for j in range(n)) for i in range(n))


def _inverse(m: IntMat) -> tuple[IntMat, int]:
    """(A, p) with m^-1 = A / p for a nonsingular integer matrix m, by
    fraction-free Gauss-Jordan elimination (Bareiss): every entry stays a
    minor of the row-permuted m, so every division is exact."""
    n = len(m)
    rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    prev = 1
    for k in range(n):
        piv = next(i for i in range(k, n) if rows[i][k])
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


def _det(m: IntMat) -> int:
    """det m by fraction-free elimination (Bareiss) with row pivoting: each
    pivot is a minor of the row-permuted m, so every division is exact."""
    rows, n, sign, prev = [list(row) for row in m], len(m), 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if rows[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            rows[k], rows[piv], sign = rows[piv], rows[k], -sign
        pivot_row, p = rows[k], rows[k][k]
        for i in range(k + 1, n):
            f = rows[i][k]
            rows[i] = [(p * x - f * y) // prev for x, y in zip(rows[i], pivot_row)]
        prev = p
    return sign * prev


@dataclass(frozen=True)
class Lattice:
    """Full-rank lattice given by basis vectors as the rows of `basis`."""

    basis: rl.Mat
    # the basis as an integer matrix S and a denominator d, basis = S / d,
    # with det S (see _det; a singular S is refused when it is 0)
    _integer: tuple[IntMat, int, int] = field(init=False, repr=False, compare=False)
    # dual ball: {"mu": cutoff walked, "scale": K, "shells": {t: [dual coordinates]}, "keys": [t]}
    _ball: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # shells as ambient vectors: {t: vectors}, filled when a value of shells() is read
    _ambient: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        basis = _exact_rows(self.basis)
        object.__setattr__(self, "basis", basis)
        n = len(basis)
        if n == 0 or any(len(r) != n for r in basis):
            raise ValueError("basis must be square")
        scaled, den = _integral(basis)
        if not (det := _det(scaled)):
            raise ValueError("basis is singular")
        object.__setattr__(self, "_integer", (scaled, den, det))

    @cached_property
    def n(self) -> int:
        return len(self.basis)

    @cached_property
    def _scaled(self) -> tuple[tuple[IntMat, int], tuple[IntMat, int]]:
        """The basis and the dual basis as (integer matrix, denominator).  Only
        a walk or a coordinate query needs the dual, so it is inverted then."""
        scaled, den, _ = self._integer
        # basis = scaled / den, so dual = (basis^-1)^T = den inv^T / p, in lowest terms
        inv, p = _inverse(scaled)
        g = math.gcd(p, *(den * x for row in inv for x in row))
        g = -g if p < 0 else g
        dual = tuple(tuple(den * x // g for x in col) for col in zip(*inv))
        return (scaled, den), (dual, p // g)

    @cached_property
    def _frame(self) -> tuple[IntMat, Fraction, int] | None:
        """(F, c, e) when the lattice is a scaled Z^n on the standard axes: the
        rows of F / e are the ambient vectors f_i = (d / s) e_i of squared norm
        c, an orthogonal basis of the dual lattice.  None otherwise: a cubic
        lattice off the standard axes is walked.

        For s the gcd of the entries of the basis S / d, S / s is unimodular
        exactly when |det S| = s^n, and the lattice is then (s / d) Z^n:
        f_i = d e_i / s and c = d^2 / s^2.  Every a Z^n passes, as a basis a U
        has U unimodular with entries of gcd 1, so S = d a U has s = |d a|."""
        scaled, den, det = self._integer
        n, s = len(scaled), math.gcd(*(x for row in scaled for x in row))
        if abs(det) != s**n:
            return None
        g = math.gcd(s, den)
        return _eye(n, den // g), Fraction(den * den, s * s), s // g

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

    def _walked(self, mu_max: Fraction) -> tuple[int, dict[int, list[tuple[int, ...]]]]:
        """(K, shells): the dual ball as integer coordinates on the dual basis,
        grouped by the norm numerator t = K |v|^2 in increasing order, walked to
        a cutoff of at least mu_max.  K depends on the lattice alone, so a key t
        means the same norm at every cutoff.  The walk runs once, at the largest
        cutoff asked for so far; smaller cutoffs read its result, and that
        cutoff itself passes by identity, comparing no Fraction."""
        ball = self._ball
        if ball.get("mu") is mu_max:
            return ball["scale"], ball["shells"]
        if mu_max < 0:
            raise ValueError("cutoff must be nonnegative")
        if ball.get("mu", -1) < mu_max:
            scale, found = _fincke_pohst(*self._scaled[1], mu_max)
            ball.update(mu=mu_max, scale=scale, shells=found, keys=list(found))
        return ball["scale"], ball["shells"]


def _fincke_pohst(dual: IntMat, den: int, mu_max: Fraction) -> tuple[int, dict]:
    """(K, {t: integer vectors x}) for the x with |x dual|^2 = t / K <= mu_max
    (dual = dual / den), in increasing t."""
    return _walk(_gram_form(dual), den, mu_max)


class _GramForm(NamedTuple):
    """The Gram form of integer rows as a weighted sum of squares (see _walk)."""

    steps: list[int]  # m_i
    coeffs: list[list[int]]  # a_ij, j > i
    weights: list[int]  # w_i
    scale: int


def _gram_form(rows: IntMat) -> _GramForm:
    """Fraction-free elimination (Bareiss) of the Gram matrix G of integer
    rows gives its leading principal minors Delta_i and rows U_i with
    x^T G x = sum_i y_i^2 / (Delta_{i-1} Delta_i), y_i = sum_{j>=i} U_ij x_j
    and Delta_{-1} = 1.  Dividing each row by its gcd and scaling the weights
    to integers turns scale x^T G x into sum_i w_i y_i^2 with
    y_i = m_i x_i + sum_{j>i} a_ij x_j and positive integers w_i, m_i and
    integers a_ij.  A Gram matrix is positive semidefinite, so a minor that
    is not positive means its rows are dependent: that raises
    ValueError("basis is singular")."""
    n = len(rows)
    gram = [[0] * n for _ in rows]
    for i, r in enumerate(rows):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = sum(map(mul, r, rows[j]))
    steps, coeffs, weights = [], [], []
    prev = 1
    for i in range(n):
        row = gram[i]
        pivot = row[i]
        if pivot <= 0:
            raise ValueError("basis is singular")
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
    return _GramForm(steps, coeffs, [w * (scale // v) for w, v in weights], scale)


def _walk(form: _GramForm, den: int, mu_max: Fraction) -> tuple[int, dict[int, list[tuple[int, ...]]]]:
    """(K, {t: integer vectors x}) for the x with x^T G x / den^2 = t / K <=
    mu_max, in increasing t, G the Gram matrix of the form.  The walk over
    x_{n-1}, ..., x_0 bounds each y_i of the form by an integer square root
    and never leaves the integers.  K = scale den^2 comes from G alone, not
    from the cutoff."""
    steps, coeffs, weights = form.steps, form.coeffs, form.weights
    n = len(steps)
    bound = form.scale * math.floor(mu_max * den * den)

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

    descend(n - 1, bound)
    by_key = {bound - left: found[left] for left in sorted(found, reverse=True)}
    return form.scale * den * den, by_key


class _ShellKeys:
    """The shells of a ball up to a cutoff, in increasing norm.  A ball is a
    dict {"scale": K, "shells": {t: ...}, "keys": [t, ...]} keyed by the
    integer norm numerator t = K mu: a lattice's walk, or a group's theta
    products in a cubic frame.  Iterating gives the norms t / K, each built
    as a Fraction when it is reached."""

    def __init__(self, ball: dict, mu_max: Fraction):
        self._scale, self._found, self._keys = ball["scale"], ball["shells"], ball["keys"]
        self._bound = mu_max.numerator * self._scale // mu_max.denominator
        self._len = bisect_right(self._keys, self._bound)

    def _numerators(self) -> Iterator[int]:
        """The shell keys t = K mu, in increasing order."""
        return islice(self._keys, self._len)

    def _key(self, mu) -> int | None:
        """The shell key t = K mu, or None when mu is not a norm in the view."""
        if not isinstance(mu, numbers.Rational):
            return None
        t, rest = divmod(mu.numerator * self._scale, mu.denominator)
        return None if rest or t > self._bound or t not in self._found else t

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[Fraction]:
        return (Fraction(t, self._scale) for t in self._numerators())

    def __contains__(self, mu) -> bool:
        return self._key(mu) is not None


class _Shells(_ShellKeys, Mapping):
    """The value of shells(): {norm: ambient vectors} over the lattice's
    walked ball up to a cutoff.  A shell is converted to ambient vectors only
    when its value is read, and once per lattice."""

    def __init__(self, lattice: Lattice, mu_max: Fraction):
        lattice._walked(mu_max)
        super().__init__(lattice._ball, mu_max)
        self._lattice = lattice

    def __getitem__(self, mu) -> tuple[rl.Vec, ...]:
        t = self._key(mu)
        if t is None:
            raise KeyError(mu)
        ambient = self._lattice._ambient
        if t not in ambient:
            dual, den = self._lattice._scaled[1]
            cols = rl.transpose(dual)
            ambient[t] = tuple(
                tuple(Fraction(sum(map(mul, x, col)), den) for col in cols) for x in self._found[t]
            )
        return ambient[t]


def shells(lattice: Lattice, mu_max) -> Mapping[Fraction, tuple[rl.Vec, ...]]:
    """Dual-lattice vectors of squared norm <= mu_max, grouped by the exact
    norm in increasing order, as ambient vectors.  The enumeration is the
    lattice's cached integer Fincke-Pohst walk.  The result is a read-only,
    lazy mapping: its keys come from the walk, and a shell is converted to
    ambient vectors only when its value is read, then cached on the lattice;
    no floating point enters."""
    return _Shells(lattice, mu_max if type(mu_max) in (int, Fraction) else Fraction(mu_max))


class _Coset(NamedTuple):
    """A validated coset in integer coordinates."""

    # what fixes a dual vector: on basis coordinates the nonzero rows of
    # R^T - 1, in a cubic frame the +cycles as (length, beta_C mod D)
    fixes: tuple
    shift: tuple[int, ...]  # D times the lattice coordinates of b, mod D
    traces: tuple[int, ...]  # tr Lambda^p(B) for p = 0..n


def _traces_from_powers(power_traces: list[int]) -> tuple[int, ...]:
    """tr Lambda^p(R) for p = 0..n from the power traces tr R^k, k = 1..n:
    these are the elementary and the power sums of the eigenvalues, so
    Newton's identities p e_p = sum_k (-1)^(k-1) e_(p-k) tr R^k apply, with an
    exact division for an integer matrix."""
    signed = [-x if k % 2 else x for k, x in enumerate(power_traces)]  # (-1)^(k-1) tr R^k
    traces = [1]
    for p in range(1, len(power_traces) + 1):
        e, rest = divmod(sum(map(mul, reversed(traces), signed)), p)
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


class _OnBasis:
    """Coordinates on the given lattice basis: a rotation B is the integer
    matrix R = dual B basis^T, and rotations compose by matrix products."""

    theta = None

    def __init__(self, lattice: Lattice):
        (basis, self._basis_den), (self.rows, self.den) = lattice._scaled
        self._basis_t = rl.transpose(basis)
        self.identity = _eye(lattice.n)

    def rotation(self, b: rl.Mat) -> IntMat:
        b_int, b_den = _integral(b)
        if rl.mat_mul(rl.transpose(b_int), b_int) != _eye(len(b), b_den * b_den):
            raise InvariantViolation("rotation part is not orthogonal")
        den = self.den * b_den * self._basis_den
        rot = rl.mat_mul(rl.mat_mul(self.rows, b_int), self._basis_t)
        if any(x % den for row in rot for x in row):
            raise InvariantViolation("rotation part does not preserve the lattice")
        return tuple(tuple(x // den for x in row) for row in rot)

    mul = staticmethod(rl.mat_mul)
    act = staticmethod(rl.mat_vec)

    @staticmethod
    def coset(rots: list[IntMat], product, i: int, s, d: int) -> tuple:
        """(fixes, traces, torsion) of the coset i, the powers of R read via
        product (see _closure): fixes are the nonzero rows of R^T - 1, since a
        dual vector x is fixed by B exactly when (R^T - 1) x = 0, and traces
        are tr Lambda^p(R), p = 0..n, from tr R^k by Newton's identities.
        torsion is None when R fixes no vector, else whether some element of
        the coset fixes a point: N = 1 + R + ... + R^(m-1) over the m powers
        of R is m times the projector onto the fixed space of R, so that is
        when N = 0, else when N s / D lies in N Z^n."""
        rot, n = rots[i], len(rots[i])
        fixed = ([x - (a == b) for b, x in enumerate(col)] for a, col in enumerate(zip(*rot)))
        # the indices of R, R^2, ..., R^m = 1, m the order of R
        powers, k = [i], product(i, i)
        while k != i:
            powers.append(k)
            k = product(k, i)
        mats = [rots[k] for k in powers]
        diagonals = [sum(r[a][a] for a in range(n)) for r in mats]
        total = [list(map(sum, zip(*rows))) for rows in zip(*mats)]
        torsion = None  # and not asked for when R = 1
        if len(powers) > 1 and any(map(any, total)):
            torsion = _in_scaled_span(rl.mat_vec(total, s), list(zip(*total)), d)
        traces = _traces_from_powers([diagonals[k % len(powers)] for k in range(n)])
        return tuple(tuple(row) for row in fixed if any(row)), traces, torsion


class _OnFrame:
    """Coordinates on the basis f_i / c of the lattice, dual to its cubic
    frame f_i = (d / s) e_i (see `Lattice._frame`).  A rotation B maps f_j to
    +-f_pi(j) exactly when column j of B is +-e_pi(j); it is stored as the
    tuple whose entry j is pi(j) for + and ~pi(j) for -, so it composes in
    O(n); as a matrix on coordinates it has the entry +-1 at (pi(j), j)."""

    def __init__(self, lattice: Lattice):
        self.rows, c, self.den = lattice._frame
        self.theta = {"c": c, "scale": c.denominator}
        self.identity = tuple(range(lattice.n))

    @staticmethod
    def rotation(b: rl.Mat) -> tuple[int, ...] | None:
        """B as a signed permutation, or None when the columns of B are not
        +-e_i for n distinct i (B is then not orthogonal or does not preserve
        the lattice); an integral Fraction entry counts as its int."""
        image = []
        for col in zip(*b):
            support = [i for i, x in enumerate(col) if x]
            if len(support) != 1 or abs(x := col[support[0]]) != 1:
                return None
            image.append(support[0] if x > 0 else ~support[0])
        return tuple(image) if len(image) == len(b) == len({max(j, ~j) for j in image}) else None

    @staticmethod
    def mul(p1: tuple[int, ...], p2: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(p1[a] if a >= 0 else ~p1[~a] for a in p2)

    @staticmethod
    def act(p: tuple[int, ...], v: list[int]) -> list[int]:
        """The matrix of p times v, in O(n): entry pi(j) is +-v_j."""
        out = [0] * len(p)
        for a, x in zip(p, v):
            out[a if a >= 0 else ~a] = x if a >= 0 else -x
        return out

    @staticmethod
    def coset(rots, product, i: int, shift, d: int) -> tuple:
        """As `_OnBasis.coset`, from one walk over the cycles of p = rots[i].
        A fixed dual vector has frame coordinates with y_pi(j) = +-y_j, so it
        is 0 on a cycle whose signs multiply to -1 and +-x along a +cycle C,
        where it adds c |C| x^2 to the norm and x beta_C to D <v, b>, beta_C
        being the sum of the shift entries on C with the signs of the y_j:
        fixes are the +cycles as (|C|, beta_C mod D).  On a cycle C of sign
        s_C, R has the characteristic polynomial x^|C| - s_C, so det(1 + t R)
        = sum_p tr Lambda^p(R) t^p is the product of the 1 - s_C (-t)^|C|.  N
        is m / |C| times the signed sum along each +cycle C and 0 elsewhere,
        so N s / D lies in N Z^n exactly when every beta_C is 0 mod D."""
        p, n = rots[i], len(rots[i])
        cycles, traces, seen, top = [], [1] + [0] * n, [False] * n, 0
        for start in range(n):
            sign, beta, length, j = 1, 0, 0, start
            while not seen[j]:
                seen[j] = True
                beta, length = beta + sign * shift[j], length + 1
                j = p[j]
                if j < 0:
                    sign, j = -sign, ~j
            if length:
                e = sign if length % 2 else -sign  # times 1 + e t^|C|, from the top degree down
                for k in range(top := top + length, length - 1, -1):
                    traces[k] += e * traces[k - length]
                if sign == 1:
                    cycles.append((length, beta % d))
        torsion = not any(beta for _, beta in cycles) if cycles else None
        return tuple(cycles), tuple(traces), torsion


def _closure(coords, rots: list, shifts: list, d: int, start: int) -> Callable[[int, int], int]:
    """product(i, j), the memoised index of the coset of R_i R_j, after a
    breadth-first search from the identity coset `start` closes the cosets
    under right products with generators, each the first coset left
    unreached: a finite set with the identity, closed under generators
    (which then permute it) and reached by them is the group they generate."""
    index = {r: i for i, r in enumerate(rots)}

    @cache
    def product(i: int, j: int) -> int:
        k = index.get(coords.mul(rots[i], rots[j]))
        # (B1, b1)(B2, b2) = (B1 B2, b2 + B2^-1 b1); on lattice
        # coordinates, times R2: R2 (s2 - s_k) + s1 = 0 mod D
        if k is None or any(
            (x + y) % d
            for x, y in zip(shifts[i], coords.act(rots[j], list(map(sub, shifts[j], shifts[k]))))
        ):
            raise InvariantViolation("coset system is not closed under composition")
        return k

    reached, gens = [start], []
    while len(reached) < len(rots):
        gens.append(next(i for i in range(len(rots)) if i not in reached))
        for i in reached:  # grows as it goes; i g differs for each generator g
            reached += [k for g in gens if (k := product(i, g)) not in reached]
    return product


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
    # the Betti numbers; a Fraction marks a trace average that is not a
    # nonnegative integer, refused when it is asked for
    _betti: tuple = field(init=False, compare=False, repr=False)
    # in a cubic frame, the theta products as a ball (see _thetas); else None
    _theta: dict | None = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        cosets = tuple((_exact_rows(b), _exact(t)) for b, t in self.cosets)
        object.__setattr__(self, "cosets", cosets)
        # a frame check fails only where the basis coordinates raise
        if self.lattice._frame is None or not self._validate(_OnFrame(self.lattice)):
            self._validate(_OnBasis(self.lattice))

    def _validate(self, coords: _OnBasis | _OnFrame) -> bool:
        """Validate the cosets on the given coordinates and store them; False,
        storing nothing, when a rotation has no signed permutation there."""
        n = self.lattice.n
        seen, rots = [], []
        for b, t in self.cosets:
            if len(b) != n or len(t) != n:
                raise InvariantViolation("coset data has wrong dimension")
            # a repeated rotation passed the tests of `rotation` the first
            # time, so testing repetition first changes no message
            if b in seen:
                raise InvariantViolation("two cosets share a rotation part")
            seen.append(b)
            rot = coords.rotation(b)
            if rot is None:
                return False
            rots.append(rot)
        # the coordinates of t are rows t_int / (den t_den), reduced to D
        t_int, t_den = _integral([t for _, t in self.cosets])
        d = coords.den * t_den
        shifts = [[x % d for x in rl.mat_vec(coords.rows, t)] for t in t_int]
        g = math.gcd(d, *(x for s in shifts for x in s))
        d, shifts = d // g, [tuple(x // g for x in s) for s in shifts]
        try:
            id_index = rots.index(coords.identity)
        except ValueError:
            raise InvariantViolation("identity coset missing") from None
        if any(shifts[id_index]):
            raise InvariantViolation("identity coset carries a non-lattice translation")
        product = _closure(coords, rots, shifts, d, id_index)
        holonomy = []
        for i, s in enumerate(shifts):
            fixes, traces, torsion = coords.coset(rots, product, i, s, d)
            if i != id_index:
                if torsion is None:
                    raise InvariantViolation("holonomy element acts with a fixed point")
                if torsion:
                    raise InvariantViolation(
                        "group has torsion: a holonomy coset contains a fixed-point isometry"
                    )
            holonomy.append(_Coset(fixes, s, traces))
        betti = []
        for p in range(n + 1):
            trace_sum = sum(c.traces[p] for c in holonomy)
            val, rest = divmod(trace_sum, len(holonomy))
            betti.append(Fraction(trace_sum, len(holonomy)) if rest or val < 0 else val)
        object.__setattr__(self, "_holonomy", tuple(holonomy))
        object.__setattr__(self, "_denom", d)
        object.__setattr__(self, "_betti", tuple(betti))
        object.__setattr__(self, "_theta", coords.theta)
        return True

    @cached_property
    def n(self) -> int:
        return self.lattice.n

    @property
    def holonomy_order(self) -> int:
        return len(self.cosets)


def is_orientable(group: BieberbachGroup) -> bool:
    return all(c.traces[-1] == 1 for c in group._holonomy)  # tr Lambda^n = det


def _residue_counts(coset: _Coset, d: int, xs) -> dict[int, int]:
    """Counts of the residues r = D <v, b> mod D over the dual vectors v
    (integer coordinates xs of one shell) fixed by the coset's rotation part."""
    counts: dict[int, int] = {}
    for x in xs:
        for row in coset.fixes:
            if sum(map(mul, row, x)):
                break
        else:
            r = sum(map(mul, coset.shift, x)) % d
            counts[r] = counts.get(r, 0) + 1
    return counts


def _theta_table(cycles, d: int, m: int) -> list[dict[int, int]]:
    """[{r: C_r} for e = 0..m]: the counts of the residues r = D <v, b> mod D
    over the dual vectors v of squared norm c e fixed by one rotation, as the
    q^e coefficients of the product over its +cycles C of the one-dimensional
    theta series sum_x q^(|C| x^2) z^(x beta_C), with z^D = 1.  A cycle with
    beta_C = 0 moves no residue, so those multiply as a plain integer series;
    only the others go through the counts {(e, r): C}."""
    plain, moved = [1] + [0] * m, {(0, 0): 1}
    for length, beta in cycles:
        if not beta:  # times 1 + 2 sum_{x > 0} q^(|C| x^2), from the top down
            for e in range(m, length - 1, -1):
                xs = range(1, math.isqrt(e // length) + 1)
                plain[e] += 2 * sum(plain[e - length * x * x] for x in xs)
            continue
        k, out = math.isqrt(m // length), {}
        for (e, r), c in moved.items():
            for x in range(-k, k + 1):
                if e + length * x * x <= m:
                    key = (e + length * x * x, (r + x * beta) % d)
                    out[key] = out.get(key, 0) + c
        moved = out
    table = [{} for _ in range(m + 1)]
    for (e, r), x in moved.items():
        for a in range(m - e + 1):
            if plain[a]:
                target = table[a + e]
                target[r] = target.get(r, 0) + plain[a] * x
    return table


def _thetas(group: BieberbachGroup, mu_max: Fraction) -> dict:
    """The ball of a group in a cubic frame of squared norm c, extended to
    mu_max: as `Lattice._walked` with K = den(c), but each shell t = K c e
    holds the cosets' residue counts, read off the theta products."""
    ball = group._theta
    if ball.get("mu") is mu_max:
        return ball
    if mu_max < 0:
        raise ValueError("cutoff must be nonnegative")
    if ball.get("mu", -1) < mu_max:
        c, d = ball["c"], group._denom
        m = math.floor(mu_max / c)
        tables = [_theta_table(coset.fixes, d, m) for coset in group._holonomy]
        found = {
            c.numerator * e: per_coset for e, per_coset in enumerate(zip(*tables)) if any(per_coset)
        }
        ball.update(mu=mu_max, shells=found, keys=list(found))
    return ball


def _group_shells(group: BieberbachGroup, mu_max) -> _ShellKeys:
    """The group's shells up to mu_max: from theta products in a cubic frame,
    else the lattice's walk."""
    if group._theta is None:
        return shells(group.lattice, mu_max)
    mu_max = mu_max if type(mu_max) in (int, Fraction) else Fraction(mu_max)
    return _ShellKeys(_thetas(group, mu_max), mu_max)


def _residues(group: BieberbachGroup, t: int) -> list[dict[int, int]]:
    """Each coset's residue counts at the shell t of the group's ball."""
    if group._theta is not None:
        return group._theta["shells"][t]
    xs = group.lattice._ball["shells"][t]
    return [_residue_counts(c, group._denom, xs) for c in group._holonomy]


def e_mu_gamma(group: BieberbachGroup, coset_index: int, mu) -> complex:
    """Sum of exp(-2 pi i <v, b>) over the dual vectors of squared norm mu
    fixed by the rotation part of the chosen coset, evaluated as
    sum_r c_r exp(-2 pi i r / D) over the counts c_r of the exact residues
    r = D <v, b> mod D."""
    mu, d = Fraction(mu), group._denom
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    if not 0 <= coset_index < group.holonomy_order:
        raise ValueError("coset index out of range")
    t = _group_shells(group, mu)._key(mu)
    residues = {} if t is None else _residues(group, t)[coset_index]
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


@lru_cache(maxsize=256)
def _gcd_classes(d: int) -> tuple[tuple[int, int, int], ...]:
    """(r, g, m) for r = 1..d with g = gcd(r, d): m = mu(d / g), the sum of
    the primitive (d/g)-th roots of unity, when r = g, and 0 elsewhere."""
    gcds = [(r, math.gcd(r, d)) for r in range(1, d + 1)]
    return tuple((r, g, _moebius(d // g) if g == r else 0) for r, g in gcds)


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
    for r, g, m in _gcd_classes(d):
        c = counts.get(r % d, 0)
        if c != counts.get(g % d, 0):
            raise IntegralityError(
                f"residue counts are not Galois invariant: {c} at {r} but "
                f"{counts.get(g % d, 0)} at {g} (mod {d})"
            )
        total += c * m
    return total


def betti(group: BieberbachGroup, p: int) -> int:
    """p-th Betti number: the holonomy average of the exterior traces,
    computed exactly once per group."""
    if not 0 <= p <= group.n:
        raise ValueError("form degree out of range")
    val = group._betti[p]
    if isinstance(val, Fraction):
        raise IntegralityError(f"holonomy trace average {val} is not a nonnegative integer")
    return val


def _phase_vector(vectors: dict[int, list[int]], d: int, size: int) -> list[int] | None:
    """sum_r V_r exp(2 pi i r / d), entry by entry, for integer vectors V_r
    of the given size: as `_phase_sum`, mu(d/g) V_g summed over the classes
    g | d, or None when the vectors are not constant on each class gcd(r, d)
    (as a function supported on multiples of g0 is constant on the classes
    mod d exactly when it is mod d / g0, no entry needs its own reduction)."""
    total = [0] * size
    for r, g, m in _gcd_classes(d):
        v = vectors.get(r % d)
        if v != vectors.get(g % d):
            return None
        if m and v:
            total = [x + m * y for x, y in zip(total, v)]
    return total


def _row(group: BieberbachGroup, t: int) -> tuple[int, ...]:
    """(d_0, ..., d_n) at the shell t > 0 of the group's ball, cached per
    group: one pass over the cosets' residue counts builds a vector
    V_r = sum_cosets C_r (tr Lambda^0(B), ..., tr Lambda^n(B)) per residue r,
    and one exact phase sum of the vectors gives every degree.  Anomalies are
    named degree by degree, in increasing p, as one phase sum per degree
    would meet them."""
    row = group._cache.get(t)
    if row is None:
        d, order, size = group._denom, group.holonomy_order, group.n + 1
        vectors: dict[int, list[int]] = {}
        zeros = [0] * size
        for coset, residues in zip(group._holonomy, _residues(group, t)):
            for r, c in residues.items():
                vectors[r] = [y + c * x for x, y in zip(coset.traces, vectors.get(r, zeros))]
        total = _phase_vector(vectors, d, size)
        if total is None or any(x % order or x < 0 for x in total):
            for p in range(size):
                # _phase_sum raises on counts that are not Galois invariant
                x = total[p] if total else _phase_sum({r: v[p] for r, v in vectors.items()}, d)
                if x % order or x < 0:
                    ball = group.lattice._ball if group._theta is None else group._theta
                    raise IntegralityError(
                        f"multiplicity {Fraction(x, order)} at mu={Fraction(t, ball['scale'])}, "
                        f"p={p} is not a nonnegative integer"
                    )
        row = group._cache[t] = tuple(x // order for x in total)
    return row


def _row_at(group: BieberbachGroup, mu: Fraction) -> tuple[int, ...]:
    """(d_0, ..., d_n) at the squared norm mu > 0; zeros off the dual lattice."""
    t = _group_shells(group, mu)._key(mu)
    return (0,) * (group.n + 1) if t is None else _row(group, t)


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
    return _row_at(group, mu)[p]


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
    sh = _group_shells(group, mu_max)
    for t, mu in zip(sh._numerators(), sh):
        if t:
            d = _row(group, t)[p]
            if d:
                entries[mu] = d
    return FlatSpectrum(group.n, p, mu_max, entries)


def _pair_table(g1: BieberbachGroup, g2: BieberbachGroup, mu_max) -> tuple[list, list]:
    """(rows, firsts): rows are (T, row of g1, row of g2) with the rows
    (d_0, ..., d_n) at the union of the two groups' positive shells up to
    mu_max, in increasing norm (a shell absent from a group reads zeros),
    keyed by T = L mu on the common scale L = lcm(K1, K2) of the two balls;
    firsts holds per degree p the first (mu, d1, d2) where they differ, or
    None.  Built once per g2 and cutoff and kept in g1's `_cache[0]` (t = 0
    is no shell) under the id of g2, with g2 itself, which keeps that id
    from naming another group."""
    # the cutoffs already asked for, found by identity or equality, so that a
    # Fraction cutoff is not hashed on every call
    entries = g1._cache.setdefault(0, {}).setdefault(id(g2), [])
    entry = next((e for e in entries if e[0] is mu_max or e[0] == mu_max), None)
    if entry is None:
        sh1, sh2 = _group_shells(g1, mu_max), _group_shells(g2, mu_max)
        scale = math.lcm(sh1._scale, sh2._scale)
        absent = (0,) * (g1.n + 1)
        pairs: dict[int, list] = {}
        for side, group, sh in ((0, g1, sh1), (1, g2, sh2)):
            step = scale // sh._scale
            for t in sh._numerators():
                if t:
                    pairs.setdefault(t * step, [absent, absent])[side] = _row(group, t)
        rows = [(key, *pairs[key]) for key in sorted(pairs)]
        firsts = [
            next(((Fraction(k, scale), r1[p], r2[p]) for k, r1, r2 in rows if r1[p] != r2[p]), None)
            for p in range(g1.n + 1)
        ]
        entry = (mu_max, g2, rows, firsts)
        entries.append(entry)
    return entry[2], entry[3]


def compare(g1: BieberbachGroup, g2: BieberbachGroup, p: int, mu_max) -> ComparisonResult:
    if g1.n != g2.n:
        raise ValueError("groups act on spaces of different dimensions")
    b1, b2 = betti(g1, p), betti(g2, p)
    firsts = _pair_table(g1, g2, mu_max)[1]
    first = firsts[p] if b1 == b2 else (Fraction(0), b1, b2)
    return ComparisonResult(first is None, first)


def _telescoped(row: tuple[int, ...], p: int) -> tuple[int, int]:
    """(n_sigma(p), n_sigma(p - 1)) of one shell, from its form multiplicities
    by n_sigma(q) = d(q) - n_sigma(q - 1), with n_sigma(-1) = 0."""
    now = below = 0
    for q in range(p + 1):
        now, below = row[q] - now, now
        if now < 0:
            raise IntegralityError(f"telescoped multiplicity {now} is negative")
    return now, below


def n_sigma_multiplicity(group: BieberbachGroup, p: int, mu) -> int:
    """Multiplicity of the degree-p principal-series piece at squared norm
    mu > 0, telescoped out of the form multiplicities:
    sum_{q<=p} (-1)^(p-q) d(q, mu)."""
    mu = Fraction(mu)
    if mu <= 0:
        raise ValueError("mu must be positive")
    if not 0 <= p <= group.n:
        raise ValueError("degree out of range")
    return _telescoped(_row_at(group, mu), p)[0]


def tau_equivalent(g1: BieberbachGroup, g2: BieberbachGroup, p: int, mu_max) -> bool:
    """Equality of all multiplicities attached to the degree-p exterior
    representation up to the cutoff: both telescoped halves at every shell
    plus the p-th Betti numbers."""
    if g1.n != g2.n:
        raise ValueError("groups act on spaces of different dimensions")
    if not 0 <= p <= g1.n:
        raise ValueError("form degree out of range")
    if betti(g1, p) != betti(g2, p):
        return False
    rows = _pair_table(g1, g2, mu_max)[0]
    return all(_telescoped(r1, p) == _telescoped(r2, p) for _, r1, r2 in rows)


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
    out["klein_a"], out["klein_b"] = klein_pair()
    half, quarter = Fraction(1, 2), Fraction(1, 4)

    def cyclic(name: str, lat: Lattice, rot, *shifts) -> None:
        """The group with holonomy generated by rot, R^k carrying shifts[k - 1]."""
        powers = [rl.identity(lat.n)]
        for _ in shifts:
            powers.append(rl.mat_mul(powers[-1], rot))
        out[name] = BieberbachGroup(lat, tuple(zip(powers, (_e(lat.n), *shifts))), name=name)

    lat4 = Lattice(rl.identity(4))
    cyclic("flat4_a", lat4, _block_diag(((1,),), ((1,),), ((-1,),), ((-1,),)), _e(4, (0, half)))
    cyclic("flat4_b", lat4, _block_diag(((1,),), _SWAP, ((-1,),)), _e(4, (0, half)))
    g1_rot = _block_diag(((-1,),), ((-1,),), ((1,),), ((1,),))
    g2_rot = _block_diag(((1,),), ((-1,),), ((-1,),), ((1,),))
    g12_rot = _block_diag(((-1,),), ((1,),), ((-1,),), ((1,),))
    rots = (rl.identity(4), g1_rot, g2_rot, g12_rot)
    # the non-identity cosets translate by 1/2 along the listed axes
    for name, axes in (("flat4_m24", ((3,), (1, 3), (1,))), ("flat4_m25", ((3,), (0, 1), (0, 1, 3)))):
        cosets = tuple((b, _e(4, *((i, half) for i in ix))) for b, ix in zip(rots, ((), *axes)))
        out[name] = BieberbachGroup(lat4, cosets, name=name)

    lat8 = Lattice(rl.identity(8))
    rot = _block_diag(_ROT90, _ROT90, ((1,),), ((1,),), ((-1,),), ((-1,),))
    cyclic("flat8_a", lat8, rot, _e(8, (4, quarter)), _e(8, (4, half)), _e(8, (4, 3 * quarter)))
    cyclic(
        "flat8_b", lat8, rot,
        _e(8, (4, quarter), (5, half)), _e(8, (4, half)), _e(8, (4, 3 * quarter), (5, half)),
    )
    cyclic(
        "flat8_c", lat8, rot,
        _e(8, (4, quarter), (5, quarter)), _e(8, (4, half), (5, half)),
        _e(8, (4, 3 * quarter), (5, 3 * quarter)),
    )
    rot_d = _block_diag(_ROT90, _ROT90, _SWAP, ((1,),), ((-1,),))
    cyclic("flat8_d", lat8, rot_d, _e(8, (4, half)), _e(8, (4, half), (5, half)), _e(8, (5, half)))
    return out


def fixtures() -> dict[str, BieberbachGroup]:
    """The named example groups: the 2-dimensional Klein pair, two
    4-dimensional pairs, and two 4-element-holonomy 8-dimensional pairs.
    Instances are shared (and carry their own multiplicity caches)."""
    return dict(_fixture_table())
