"""Spectra of flat space forms: quotients of R^n by Bieberbach groups.

A group is described by a full-rank lattice together with the finitely many
cosets (B, b) representing the isometries x -> B(x + b) modulo the lattice
translations.

The kernel runs on integers.  Int and Fraction input entries are kept as
given (any other number goes through Fraction once), each matrix that enters
integer arithmetic is scaled to integers over its common denominator, and a
basis S / d is refused as singular when det S = 0.  Closure under
composition is checked on generators, |F| products each, memoised in a dict.

When the lattice is a scaled Z^n on the standard axes, `Lattice._frame`
reads its cubic frame f_i = (d / s) e_i, of squared norm c, off det S and
the gcd s of the entries of the basis S / d; no dual walk or inverse is
needed.  On the lattice basis f_i / c every rotation is a signed
permutation: one test, that each column of B is some +-e_j, replaces the
orthogonality and lattice tests, and products and shifts take O(n).  One
walk over the cycles gives everything else.  A dual vector fixed by B is 0
on each cycle whose signs multiply to -1 and +-x along each other cycle C,
adding c |C| x^2 to the norm and x beta_C to D <v, b>, so a coset's shells
by norm, keyed by t = den(c) mu, are the coefficients of a product of
one-dimensional theta series (Miatello-Rossetti); the coset holds no
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

On both, translations are residue vectors modulo their common denominator D,
so each phase <v, b> is a residue r mod D.  A group's `_cache` has three
sections.  "shells" is its ball, from the theta products on a frame and from
the walk otherwise.  When D divides 4 or 6, 2 cos(2 pi r / D) is an integer
(`_TWO_COS`), so each shell holds every coset's Phi = sum_v exp(2 pi i
<v, b>) over the fixed vectors v, an integer as v and -v pair up.  For other
D it holds each coset's counts C_r of the residues r, from one theta-table
loop over the +cycles on a frame.  "rows" holds one row of principal-series
pieces (P_0, ..., P_{n+1}) per shell, telescoped by P_{p+1} = d_p - P_p out
of the form multiplicities d_p = |F|^-1 sum_cosets tr Lambda^p(B) Phi.  For
other D each degree takes one phase sum of its weighted counts, which must
depend on gcd(r, D) alone (Galois invariance), so Moebius values sum them in
integers; when D divides 4 or 6 each class gcd(r, D) is {r, -r} and that
check would hold for any input.  "pairs" holds the tables in which `spectra`
compares the rows.  Fractions are built only for results that leave the
module: spectrum entries and the values of `shells`, a lazy mapping that
converts a shell to ambient vectors when read.
"""

from __future__ import annotations

import cmath
import math
import numbers
from bisect import bisect_right
from collections import Counter
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, islice
from operator import mul, sub
from typing import NamedTuple

from . import ratlinalg as rl, spectra
from .errors import IntegralityError, InvariantViolation
from .liealg import exterior_trace  # noqa: F401 (perfbench/tracer.py wraps flat.exterior_trace)
from .spectra import ComparisonResult

IntMat = tuple[tuple[int, ...], ...]
_EXACT = frozenset((int, Fraction))


def _exact(row) -> tuple:
    """row as a tuple of exact numbers: an int or a Fraction entry as it is,
    any other through Fraction."""
    row = tuple(row)
    if _EXACT.issuperset(map(type, row)):
        return row
    return tuple(x if type(x) in _EXACT else Fraction(x) for x in row)


def _exact_rows(rows) -> rl.Mat:
    """rows as a matrix of exact numbers (see _exact), refusing a ragged one."""
    m = tuple(map(_exact, rows))
    if len(set(map(len, m))) > 1:
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
    pivot is a minor of the row-permuted m, so every division is exact.  A
    step updates only the entries right of its pivot: the column below it is
    never read again."""
    rows, n, sign, prev = [list(row) for row in m], len(m), 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if rows[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            rows[k], rows[piv], sign = rows[piv], rows[k], -sign
        pivot_row, p = rows[k], rows[k][k]
        for row in rows[k + 1 :]:
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (p * row[j] - f * pivot_row[j]) // prev
        prev = p
    return sign * prev


@dataclass(frozen=True)
class Lattice:
    """Full-rank lattice given by basis vectors as the rows of `basis`."""

    basis: rl.Mat
    # the basis as an integer matrix S and a denominator d, basis = S / d,
    # with det S (see _det; a singular S is refused when it is 0)
    _integer: tuple[IntMat, int, int] = field(init=False, repr=False, compare=False)
    # dual ball (see _extended): {t: [dual coordinates]} per shell
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
    def _frame(self) -> tuple[int, Fraction, int] | None:
        """(a, c, e) when the lattice is a scaled Z^n on the standard axes: the
        ambient vectors f_i = (a / e) e_i = (d / s) e_i of squared norm c are an
        orthogonal basis of the dual lattice.  None otherwise: a cubic
        lattice off the standard axes is walked.

        For s the gcd of the entries of the basis S / d, S / s is unimodular
        exactly when |det S| = s^n, and the lattice is then (s / d) Z^n:
        f_i = d e_i / s and c = d^2 / s^2.  Every a Z^n passes, as a basis a U
        has U unimodular with entries of gcd 1, so S = d a U has s = |d a|."""
        scaled, den, det = self._integer
        n, s = len(scaled), math.gcd(*chain.from_iterable(scaled))
        if abs(det) != s**n:
            return None
        g = math.gcd(s, den)
        return den // g, Fraction(den * den, s * s), s // g

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


def _extended(ball: dict, mu_max: Fraction, build: Callable, *args) -> dict:
    """The ball {"mu": cutoff, "scale": K, "shells": {t: ...}, "keys": [t]},
    its shells keyed by the norm numerator t = K mu in increasing order,
    extended to a cutoff of at least mu_max by build(*args, mu_max) -> (K,
    shells).  K does not depend on the cutoff, so a key t means the same norm
    at every cutoff.  The build runs once, at the largest cutoff asked for so
    far; smaller cutoffs read its result, and that cutoff itself passes by
    identity, comparing no Fraction."""
    if ball.get("mu") is mu_max:
        return ball
    if mu_max < 0:
        raise ValueError("cutoff must be nonnegative")
    if ball.get("mu", -1) < mu_max:
        scale, found = build(*args, mu_max)
        ball.update(mu=mu_max, scale=scale, shells=found, keys=list(found))
    return ball


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
    """The shells of a ball (see _extended) up to a cutoff, in increasing
    norm: a lattice's walk, or a group's residue counts.  Iterating gives the
    norms t / K, each built as a Fraction when it is reached."""

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
        super().__init__(_extended(lattice._ball, mu_max, _fincke_pohst, *lattice._scaled[1]), mu_max)
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

    def __init__(self, lattice: Lattice):
        (basis, self._basis_den), (self.rows, self.den) = lattice._scaled
        self._basis_t = rl.transpose(basis)
        self.identity = _eye(lattice.n)

    def shift(self, t: tuple[int, ...]) -> list[int]:
        return rl.mat_vec(self.rows, t)

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

    @staticmethod
    def closes(rot: IntMat, s1, s2, s3, d: int) -> bool:
        """Is R (s2 - s3) + s1 = 0 mod d?"""
        return not any((x + y) % d for x, y in zip(s1, rl.mat_vec(rot, list(map(sub, s2, s3)))))

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

    @staticmethod
    def shells(group: BieberbachGroup, mu_max: Fraction) -> tuple[int, dict]:
        """(K, {t: each coset's phase sum, or its residue counts when D is not
        a key of _TWO_COS}) over the lattice's walk to mu_max (see `shells`),
        one shell at a time."""
        view, d = shells(group.lattice, mu_max), group._denom
        found, count = view._found, _walked_phase if d in _TWO_COS else _residue_counts
        return view._scale, {
            t: [count(c, d, found[t]) for c in group._holonomy] for t in view._numerators()
        }


@lru_cache(maxsize=16)
def _unit_rows(n: int) -> dict[tuple[int, ...], tuple[int, bool]]:
    """{+-e_j as a row of n ints: (j, whether the sign is +)}."""
    return {tuple(s * (i == j) for i in range(n)): (j, s > 0) for j in range(n) for s in (1, -1)}


class _OnFrame:
    """Coordinates on the basis f_i / c of the lattice, dual to its cubic
    frame f_i = (d / s) e_i (see `Lattice._frame`).  A rotation B maps f_j to
    +-f_pi(j) exactly when column j of B is +-e_pi(j); it is stored as the
    tuple whose entry j is pi(j) for + and ~pi(j) for -, so it composes in
    O(n); as a matrix on coordinates it has the entry +-1 at (pi(j), j)."""

    def __init__(self, lattice: Lattice):
        self.scale, self.c, self.den = lattice._frame
        self.identity = tuple(range(lattice.n))

    def shift(self, t: tuple[int, ...]) -> list[int]:
        return [self.scale * x for x in t]  # the frame's rows are scale times 1

    @staticmethod
    def rotation(b: rl.Mat) -> tuple[int, ...] | None:
        """B as a signed permutation, or None when the rows of B, each looked up
        whole among the +-e_j, are not +-e_j for n distinct j (B is then not
        orthogonal or does not preserve the lattice); an integral Fraction
        entry counts as its int."""
        units, image = _unit_rows(len(b)), [None] * len(b)
        for i, row in enumerate(b):
            j, plus = units.get(row, (0, None))
            if plus is None or image[j] is not None:
                return None
            image[j] = i if plus else ~i
        return tuple(image)

    @staticmethod
    def mul(p1: tuple[int, ...], p2: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(p1[a] if a >= 0 else ~p1[~a] for a in p2)

    @staticmethod
    def closes(p: tuple[int, ...], s1, s2, s3, d: int) -> bool:
        """As `_OnBasis.closes`, entry by entry: entry pi(j) of R v is +-v_j."""
        for a, x, y in zip(p, s2, s3):
            if (s1[a] + x - y if a >= 0 else s1[~a] - x + y) % d:
                return False
        return True

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

    def shells(self, group: BieberbachGroup, mu_max: Fraction) -> tuple[int, dict]:
        """(K, {t: each coset's phase sum, or its residue counts when D is not
        a key of _TWO_COS}) with K = den(c), each shell t = K c e read off the
        cosets' theta products (see _theta_series and _theta_table)."""
        c, d = self.c, group._denom
        m = mu_max.numerator * c.denominator // (mu_max.denominator * c.numerator)  # floor(mu_max / c)
        build = _theta_series if d in _TWO_COS else _theta_table
        tables = [build(coset.fixes, d, m) for coset in group._holonomy]
        return c.denominator, {
            c.numerator * e: per_coset for e, per_coset in enumerate(zip(*tables)) if any(per_coset)
        }


def _closure(coords, rots: list, shifts: list, d: int, start: int) -> Callable[[int, int], int]:
    """product(i, j), the index of the coset of R_i R_j, memoised in a dict,
    after a breadth-first search from the identity coset `start` closes the
    cosets under right products with generators, each the first coset left
    unreached: a finite set with the identity, closed under generators
    (which then permute it) and reached by them is the group they generate."""
    index, memo = {r: i for i, r in enumerate(rots)}, {}

    def product(i: int, j: int) -> int:
        k = memo.get((i, j))
        if k is None:
            k = index.get(coords.mul(rots[i], rots[j]))
            # (B1, b1)(B2, b2) = (B1 B2, b2 + B2^-1 b1); on lattice
            # coordinates, times R2: R2 (s2 - s_k) + s1 = 0 mod D
            if k is None or not coords.closes(rots[j], shifts[i], shifts[j], shifts[k], d):
                raise InvariantViolation("coset system is not closed under composition")
            memo[i, j] = k
        return k

    reached, gens, unreached = [start], [], set(range(len(rots))) - {start}
    while unreached:
        gens.append(min(unreached))
        for i in reached:  # grows as it goes; i g differs for each generator g
            for g in gens:
                if (k := product(i, g)) in unreached:
                    unreached.remove(k)
                    reached.append(k)
    return product


@dataclass(frozen=True)
class BieberbachGroup:
    """Torsion-free crystallographic group: lattice plus holonomy cosets."""

    lattice: Lattice
    cosets: tuple[tuple[rl.Mat, rl.Vec], ...]
    name: str = ""
    # "shells": the group's ball (see _extended), each shell holding every
    # coset's residue counts; "rows": {t: (P_0, ..., P_{n+1})} (see _row);
    # "pairs": the comparison tables of `spectra.answer`
    _cache: dict = field(init=False, compare=False, repr=False)
    # the coordinates the cosets were validated on, which also read the shells
    _coords: _OnBasis | _OnFrame = field(init=False, compare=False, repr=False)
    # the cosets in integer coordinates, in the order of `cosets`
    _holonomy: tuple[_Coset, ...] = field(init=False, compare=False, repr=False)
    _denom: int = field(init=False, compare=False, repr=False)  # D
    # the Betti numbers; a Fraction marks a trace average that is not a
    # nonnegative integer, refused when it is asked for
    _betti: tuple = field(init=False, compare=False, repr=False)

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
        seen, rots = set(), []
        for b, t in self.cosets:
            if len(b) != n or len(t) != n:
                raise InvariantViolation("coset data has wrong dimension")
            # a repeated rotation passed the tests of `rotation` the first
            # time, so testing repetition first changes no message
            if b in seen:
                raise InvariantViolation("two cosets share a rotation part")
            seen.add(b)
            rot = coords.rotation(b)
            if rot is None:
                return False
            rots.append(rot)
        # the coordinates of t are rows t_int / (den t_den), reduced to D
        t_int, t_den = _integral([t for _, t in self.cosets])
        d = coords.den * t_den
        shifts = [[x % d for x in coords.shift(t)] for t in t_int]
        g = math.gcd(d, *chain.from_iterable(shifts))
        d, shifts = d // g, [tuple([x // g for x in s]) for s in shifts]
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
        for trace_sum in map(sum, zip(*(c.traces for c in holonomy))):  # p = 0..n
            val, rest = divmod(trace_sum, len(holonomy))
            betti.append(Fraction(trace_sum, len(holonomy)) if rest or val < 0 else val)
        object.__setattr__(self, "_holonomy", tuple(holonomy))
        object.__setattr__(self, "_denom", d)
        object.__setattr__(self, "_betti", tuple(betti))
        object.__setattr__(self, "_coords", coords)
        object.__setattr__(self, "_cache", {"shells": {}, "rows": {}, "pairs": {}})
        return True

    @cached_property
    def n(self) -> int:
        return self.lattice.n

    @property
    def holonomy_order(self) -> int:
        return len(self.cosets)


def is_orientable(group: BieberbachGroup) -> bool:
    return all(c.traces[-1] == 1 for c in group._holonomy)  # tr Lambda^n = det


def _fixed_residues(coset: _Coset, d: int, xs) -> Iterator[int]:
    """The residues r = D <v, b> mod D over the dual vectors v (integer
    coordinates xs of one shell) fixed by the coset's rotation part."""
    for x in xs:
        for row in coset.fixes:
            if sum(map(mul, row, x)):
                break
        else:
            yield sum(map(mul, coset.shift, x)) % d


def _residue_counts(coset: _Coset, d: int, xs) -> dict[int, int]:
    """Counts of the residues of `_fixed_residues`."""
    return Counter(_fixed_residues(coset, d, xs))


# 2 cos(2 pi r / D) for r = 0..D-1 at the D where these are integers
_TWO_COS = {1: (2,), 2: (2, -2), 3: (2, -1, -1), 4: (2, 0, -2, 0), 6: (2, 1, -1, -2, -1, 1)}


def _walked_phase(coset: _Coset, d: int, xs) -> int:
    """sum_v exp(2 pi i <v, b>) over the vectors of `_fixed_residues`, D a
    key of _TWO_COS: half the sum of 2 cos(2 pi r / D), exact as v and -v
    pair up and the origin gives 2.  The identity fixes all, at phase 0."""
    if not coset.fixes:
        return len(xs)
    return sum(map(_TWO_COS[d].__getitem__, _fixed_residues(coset, d, xs))) // 2


def _theta_series(cycles, d: int, m: int) -> list[int]:
    """[Phi_e for e = 0..m], Phi_e = sum_v exp(2 pi i <v, b>) over the dual
    vectors v of squared norm c e fixed by one rotation, D a key of _TWO_COS:
    the q^e coefficients of the product over its +cycles C of
    1 + sum_{x > 0} 2 cos(2 pi x beta_C / D) q^(|C| x^2), as x and -x along C
    pair up; one slice convolution per x."""
    series, cos = [1] + [0] * m, _TWO_COS[d]
    for length, beta in cycles:
        before = series[:]
        for x in range(1, math.isqrt(m // length) + 1):
            w, s = cos[x * beta % d], length * x * x
            if w:
                series[s:] = [a + w * b for a, b in zip(series[s:], before)]
    return series


def _theta_table(cycles, d: int, m: int) -> list[dict[int, int]]:
    """[{r: C_r} for e = 0..m]: the counts of the residues r = D <v, b> mod D
    over the dual vectors v of squared norm c e fixed by one rotation, as the
    q^e coefficients of the product over its +cycles C of the one-dimensional
    theta series sum_x q^(|C| x^2) z^(x beta_C), with z^D = 1, kept as the
    counts {(e, r): C}."""
    counts = {(0, 0): 1}
    for length, beta in cycles:
        k, out = math.isqrt(m // length), {}
        for (e, r), c in counts.items():
            for x in range(-k, k + 1):
                if e + length * x * x <= m:
                    key = (e + length * x * x, (r + x * beta) % d)
                    out[key] = out.get(key, 0) + c
        counts = out
    table = [{} for _ in range(m + 1)]
    for (e, r), c in counts.items():
        table[e][r] = c
    return table


def _group_shells(group: BieberbachGroup, mu_max) -> _ShellKeys:
    """The group's shells up to mu_max, each holding every coset's residue
    counts, as its coordinates read them."""
    mu_max = mu_max if type(mu_max) in (int, Fraction) else Fraction(mu_max)
    return _ShellKeys(_extended(group._cache["shells"], mu_max, group._coords.shells, group), mu_max)


def e_mu_gamma(group: BieberbachGroup, coset_index: int, mu) -> complex:
    """Sum of exp(-2 pi i <v, b>) over the dual vectors of squared norm mu
    fixed by the rotation part of the chosen coset: the shell's exact integer
    when D is a key of _TWO_COS, else evaluated as
    sum_r c_r exp(-2 pi i r / D) over the counts c_r of the exact residues
    r = D <v, b> mod D."""
    mu, d = Fraction(mu), group._denom
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    if not 0 <= coset_index < group.holonomy_order:
        raise ValueError("coset index out of range")
    sh = _group_shells(group, mu)
    t = sh._key(mu)
    if d in _TWO_COS:
        return complex(0 if t is None else sh._found[t][coset_index])
    residues = {} if t is None else sh._found[t][coset_index]
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


def _row(group: BieberbachGroup, t: int) -> tuple[int, ...]:
    """The pieces (P_0, ..., P_{n+1}) at the shell t > 0 of the group's ball,
    cached per group.  The form multiplicities d_p = |F|^-1 sum_cosets
    tr Lambda^p(B) Phi come from each coset's phase sum Phi when D is a key
    of _TWO_COS, which needs no Galois-invariance check (see the module
    docstring), else from one exact phase sum per degree of the residue
    counts weighted by tr Lambda^p(B), which refuses counts that are not
    Galois invariant.  The first d_p that is not a nonnegative integer is
    refused; then P_0 = 0 and P_{p+1} = d_p - P_p = n_sigma(p), every piece
    nonnegative and the top one, sum_p (-1)^(n-p) d_p, zero."""
    row = group._cache["rows"].get(t)
    if row is None:
        ball, d, order = group._cache["shells"], group._denom, len(group._holonomy)
        totals = zeros = [0] * (group.n + 1)
        if d in _TWO_COS:
            for coset, phase in zip(group._holonomy, ball["shells"][t]):
                if phase:
                    totals = [y + phase * x for x, y in zip(coset.traces, totals)]
        else:
            vectors = {}
            for coset, residues in zip(group._holonomy, ball["shells"][t]):
                for r, c in residues.items():
                    vectors[r] = [y + c * x for x, y in zip(coset.traces, vectors.get(r, zeros))]
            # lazily, so that a degree is refused before a later one is summed
            totals = (_phase_sum({r: v[p] for r, v in vectors.items()}, d) for p in range(len(zeros)))
        pieces = [0]
        for p, x in enumerate(totals):
            if x % order or x < 0:
                raise IntegralityError(
                    f"multiplicity {Fraction(x, order)} at mu={Fraction(t, ball['scale'])}, "
                    f"p={p} is not a nonnegative integer"
                )
            pieces.append(x // order - pieces[-1])
        if low := next((x for x in pieces if x < 0), 0):
            raise IntegralityError(f"telescoped multiplicity {low} is negative")
        if pieces[-1]:
            raise IntegralityError(
                f"top telescoped multiplicity {pieces[-1]} at mu={Fraction(t, ball['scale'])} is not 0"
            )
        row = group._cache["rows"][t] = tuple(pieces)
    return row


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
    t = _group_shells(group, mu)._key(mu)
    return 0 if t is None else sum(_row(group, t)[p : p + 2])


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
            d = sum(_row(group, t)[p : p + 2])
            if d:
                entries[mu] = d
    return FlatSpectrum(group.n, p, mu_max, entries)


def _pieces(group: BieberbachGroup, mu_max) -> tuple[int, dict, tuple]:
    """The group's rows for `spectra.answer`: the pieces at every positive
    shell up to mu_max, keyed by t = K mu, and the Betti numbers."""
    sh, zero = _group_shells(group, mu_max), group._betti
    if set(map(type, zero)) != {int}:  # `betti` refuses a fraction by name
        zero = tuple(betti(group, p) for p in range(group.n + 1))
    return sh._scale, {t: _row(group, t) for t in sh._numerators() if t}, zero


def compare(g1: BieberbachGroup, g2: BieberbachGroup, p: int, mu_max) -> ComparisonResult:
    return spectra.answer(g1, g2, p, mu_max, _pieces, "spec")


def n_sigma_multiplicity(group: BieberbachGroup, p: int, mu) -> int:
    """Multiplicity of the degree-p principal-series piece at squared norm
    mu > 0, telescoped out of the form multiplicities:
    sum_{q<=p} (-1)^(p-q) d(q, mu)."""
    mu = Fraction(mu)
    if mu <= 0:
        raise ValueError("mu must be positive")
    if not 0 <= p <= group.n:
        raise ValueError("degree out of range")
    t = _group_shells(group, mu)._key(mu)
    return 0 if t is None else _row(group, t)[p + 1]


def tau_equivalent(g1: BieberbachGroup, g2: BieberbachGroup, p: int, mu_max) -> bool:
    """Equality of all multiplicities attached to the degree-p exterior
    representation up to the cutoff: the p-th Betti numbers, read first, and
    both pieces n_sigma(p - 1), n_sigma(p) at every shell."""
    if g1.n == g2.n and betti(g1, p) != betti(g2, p):
        return False
    return spectra.answer(g1, g2, p, mu_max, _pieces, "tau")


def _signed_matrix(p: tuple[int, ...]) -> IntMat:
    """The matrix of the signed permutation p in `_OnFrame`'s encoding."""
    return tuple(tuple((a == i) - (a == ~i) for a in p) for i in range(len(p)))


def _signed_group(name: str, lat: Lattice, rots, *shifts) -> BieberbachGroup:
    """The group of the signed permutations rots, the first the identity and
    rots[k] translating by shifts[k - 1], given as {axis: value}."""
    shifts = ([s.get(i, 0) for i in range(lat.n)] for s in ({}, *shifts))
    return BieberbachGroup(lat, tuple(zip(map(_signed_matrix, rots), shifts)), name=name)


def klein_pair(c: int = 2) -> tuple[BieberbachGroup, BieberbachGroup]:
    """The two-dimensional pair: a Klein bottle with lattice Z x cZ and glide
    along the first axis, and its partner gliding along the second."""
    if c <= 1:
        raise ValueError("need c > 1")
    lat = Lattice(((1, 0), (0, c)))
    return (
        _signed_group("klein_a", lat, ((0, 1), (0, ~1)), {0: Fraction(1, 2)}),
        _signed_group("klein_b", lat, ((0, 1), (~0, 1)), {1: Fraction(c, 2)}),
    )


@lru_cache(maxsize=1)
def _fixture_table() -> dict[str, BieberbachGroup]:
    out: dict[str, BieberbachGroup] = {}
    out["klein_a"], out["klein_b"] = klein_pair()
    half, quarter = Fraction(1, 2), Fraction(1, 4)

    def cyclic(name: str, lat: Lattice, rot, *shifts) -> None:
        """The group with holonomy generated by rot, R^k carrying shifts[k - 1]."""
        powers = [tuple(range(lat.n))]
        for _ in shifts:
            powers.append(_OnFrame.mul(powers[-1], rot))
        out[name] = _signed_group(name, lat, powers, *shifts)

    lat4 = Lattice(_eye(4))
    cyclic("flat4_a", lat4, (0, 1, ~2, ~3), {0: half})
    cyclic("flat4_b", lat4, (0, 2, 1, ~3), {0: half})  # axes 1 and 2 swapped
    rots = ((0, 1, 2, 3), (~0, ~1, 2, 3), (0, ~1, ~2, 3), (~0, 1, ~2, 3))
    # the non-identity cosets translate by 1/2 along the listed axes
    for name, axes in (("flat4_m24", ((3,), (1, 3), (1,))), ("flat4_m25", ((3,), (0, 1), (0, 1, 3)))):
        out[name] = _signed_group(name, lat4, rots, *(dict.fromkeys(ix, half) for ix in axes))

    lat8 = Lattice(_eye(8))
    rot = (~1, 0, ~3, 2, 4, 5, ~6, ~7)  # quarter turns of the planes 01 and 23
    cyclic("flat8_a", lat8, rot, {4: quarter}, {4: half}, {4: 3 * quarter})
    cyclic("flat8_b", lat8, rot, {4: quarter, 5: half}, {4: half}, {4: 3 * quarter, 5: half})
    cyclic(
        "flat8_c", lat8, rot,
        {4: quarter, 5: quarter}, {4: half, 5: half}, {4: 3 * quarter, 5: 3 * quarter},
    )
    rot_d = (~1, 0, ~3, 2, 5, 4, 6, ~7)  # the same turns, axes 4 and 5 swapped
    cyclic("flat8_d", lat8, rot_d, {4: half}, {4: half, 5: half}, {5: half})
    return out


def fixtures() -> dict[str, BieberbachGroup]:
    """The named example groups: the 2-dimensional Klein pair, two
    4-dimensional pairs, and two 4-element-holonomy 8-dimensional pairs.
    Instances are shared (and carry their own multiplicity caches)."""
    return dict(_fixture_table())
