"""Hodge-Laplace spectra of quotients of odd-dimensional round spheres.

A quotient of the unit sphere in R^{2m} by a finite fixed-point-free group of
rotations has its p-form spectrum determined by two one-parameter families of
highest weights: eigenvalues k^2 + k(n-1) + (p-1)(n-p) (n = 2m-1), with
multiplicities given by the dimensions of the group invariants in the
corresponding representations.  Every such group is a lens group L(N; q),
stored as those integers (an element list is read through the table of the
angles r/N spelled by str(Fraction), kept for the last 32 orders, checked
plane by plane on its residues mod N and normalised to them), so each of those
dimensions is an exact count of weights mu in the congruence lattice
L = {mu : <mu, q> = 0 mod N}.  A family label is an integer combination of
polynomials times exterior powers on C^(2m) (see `n_gamma`), so the
multiplicity of its weights is a closed form M(r, l) in the 1-norm r and the
number l of zero coordinates, and the count is sum M(r, l) N_L(r, l), N_L
counted by a residue DP sized once per cutoff for every family.  A group keeps
one table per label shape q = min(j, n+1-j), which families j and n+1-j both
read, in the section "families" of its `_cache`; "lattice" holds the counts
N_L once made, "labels" n_gamma by label, and "pairs" the tables of
`spectra.answer`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, product
from math import comb, floor, gcd, isqrt
from operator import index

from . import liealg, spectra
from .errors import InvariantViolation
from .liealg import IrrepLabelO, RootSystem, RotationElement
from .ratlinalg import _rational_pair
from .spectra import ComparisonResult


def _integer(x, what: str = "lens parameter", error: type = InvariantViolation) -> int:
    if not isinstance(x, bool):
        try:
            return index(x)
        except TypeError:
            pass
    raise error(f"{what} {x!r} is not an integer")


@dataclass(frozen=True)
class LensElements:
    """The rotations of L(N; q), with angles t q_j / N for t = 0..N-1, built
    only when iterated.  N and the q_j must be integers (a float or a bool is
    refused, not cast); they act freely exactly when every q_j is prime to N."""

    order: int
    q: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "order", _integer(self.order))
        object.__setattr__(self, "q", tuple(map(_integer, self.q)))
        if self.order < 1:
            raise InvariantViolation("order must be positive")
        for qj in self.q:
            if gcd(qj, self.order) != 1:
                raise InvariantViolation(
                    f"parameter {qj} shares a factor with {self.order}: action is not free"
                )

    def __len__(self) -> int:
        return self.order

    def __iter__(self):
        for t in range(self.order):
            yield RotationElement(tuple(Fraction(t * qj % self.order, self.order) for qj in self.q))


@lru_cache(maxsize=32)
def _canonical_residues(big_n: int) -> dict[str, int]:
    """{str(Fraction(r, N)): r for r < N}, as the CLI and `LensElements`
    spell angles, built with no Fraction; only copied, never written."""
    return {f"{r // (g := gcd(r, big_n))}/{big_n // g}" if r else "0": r for r in range(big_n)}


class _Residues(dict):
    """Angle -> its value a/b as the residue a N/b mod N when that is an
    integer, else as a/b mod 1; equal values are equal angles.  A copy of
    `_canonical_residues(N)` (32 orders kept: at most 32 N_max keys) reads a
    str(Fraction) spelling; any other pair (a, b) or string (read by
    `_rational_pair`) is read once and stored; an int is not, as True would
    find it."""

    def __init__(self, big_n: int):
        super().__init__(_canonical_residues(big_n))
        self.big_n = big_n

    def __missing__(self, x):
        if type(x) is tuple and (len(x) != 2 or set(map(type, x)) != {int} or not x[1]):
            raise ValueError(f"bad rational {x!r}")
        a, b = x if type(x) is tuple else _rational_pair(x)
        big_n = self.big_n
        r = a * big_n // b % big_n if a * big_n % b == 0 else Fraction(a, b) % 1
        if type(x) in (str, tuple):
            self[x] = r
        return r


@dataclass(frozen=True)
class SphericalGroup:
    """Finite fixed-point-free rotation group acting on the sphere S^{2m-1},
    given by its `RotationElement`s, by rows of angles, or as the
    `LensElements` of L(N; q).  An angle, in turns, is an (a, b) pair of
    ints for a/b, b nonzero, an int, or a string such as "1/7", " 2/14",
    "0.25" or "-1/7"; a bool, a float or any other entry is refused by name.

    Such a group is abelian and acts freely, hence cyclic: the lens group
    L(N; q) generated by the rotation with angles q_j / N, N the order.
    Validation reads each angle once, as a residue mod N, into one column
    and checks the elements plane by plane on its slices: ranks, repeats,
    the identity, unit eigenvalues, then closure, plane j being q_j times
    the first.  It finds that generator and keeps only `LensElements(N, q)`."""

    m: int
    elements: tuple | LensElements
    name: str = ""
    _cache: dict = field(
        default_factory=lambda: {"families": {}, "lattice": None, "labels": {}, "pairs": {}},
        compare=False, repr=False,
    )

    def __post_init__(self):
        lens = isinstance(self.elements, LensElements)
        if not lens:
            rows = [  # the ranks are read from the rows, so an iterator is read here
                g if type(g) is list else [(a.numerator, a.denominator) for a in g.angles]
                if isinstance(g, RotationElement) else list(g) if hasattr(g, "__next__") else g
                for g in self.elements
            ]
            big_n, residues = len(rows), _Residues(len(rows))
            try:
                column = list(map(residues.__getitem__, chain.from_iterable(rows)))
            except TypeError:  # an unhashable entry, which the reader refuses by name
                for x in chain(*rows):
                    if x.__hash__ is None:
                        _rational_pair(x)
                raise
        if self.m < 2:
            raise ValueError("need m >= 2 (sphere dimension n = 2m-1 >= 3)")
        if lens:
            if len(self.elements.q) != self.m:
                raise InvariantViolation("element rank does not match the group")
            return
        if not rows:
            raise InvariantViolation("group is empty")
        # the elements, and their planes, before the first of the wrong rank
        m = self.m
        bad = big_n if set(map(len, rows)) == {m} else next(i for i, g in enumerate(rows) if len(g) != m)
        planes = [column[j : bad * m : m] for j in range(m)]
        keys = set(zip(*planes))
        if len(keys) < bad:
            raise InvariantViolation("duplicate element")
        if bad < big_n:
            raise InvariantViolation("element rank does not match the group")
        if (0,) * m not in keys:
            raise InvariantViolation("identity element missing")
        if any(plane.count(0) > 1 for plane in planes):
            raise InvariantViolation(
                "fixed point on the sphere: non-identity element has a unit eigenvalue"
            )
        # the first plane's character is injective on a free group, so a
        # group of order N has exactly one element with first angle 1/N, of
        # order N, and the element with first angle t/N is t times it
        at = planes[0].index(1 % big_n) if 1 % big_n in planes[0] else None
        q = () if at is None else tuple(plane[at] for plane in planes)
        if not q or Fraction in set(map(type, residues.values())) or any(
            plane != [t * qj % big_n for t in planes[0]] for plane, qj in zip(planes[1:], q[1:])
        ):
            raise InvariantViolation("element list is not closed under composition")
        object.__setattr__(self, "elements", LensElements(big_n, q))

    @property
    def n(self) -> int:
        """Dimension of the quotient space form."""
        return 2 * self.m - 1

    @property
    def order(self) -> int:
        return self.elements.order

    @property
    def root_system(self) -> RootSystem:
        return RootSystem("D", self.m)


def trivial_group(m: int, name: str = "") -> SphericalGroup:
    return lens_space(1, (0,) * m, name or f"S{2 * m - 1}")


def lens_space(big_n: int, q, name: str = "") -> SphericalGroup:
    """Cyclic group of order big_n with rotation angles q_j / big_n."""
    lens = LensElements(big_n, tuple(q))
    name = name or f"L({lens.order};{','.join(map(str, lens.q))})"
    return SphericalGroup(len(lens.q), lens, name)


def eigenvalue_family(n: int, p: int, lam_max: int) -> list[tuple[int, int]]:
    """The (k, eigenvalue) pairs k^2 + k(n-1) + (p-1)(n-p) <= lam_max.

    Families at degree 0 and n+1 are empty; k starts at 0 for the first and
    last nonempty families (degrees 1 and n) and at 1 otherwise.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and >= 3")
    if not 0 <= _integer(p, "family index", ValueError) <= n + 1:
        raise ValueError("family index out of range")
    if p in (0, n + 1):
        return []
    out = []
    k = 0 if p in (1, n) else 1
    while True:
        lam = k * k + k * (n - 1) + (p - 1) * (n - p)
        if lam > lam_max:
            return out
        out.append((k, lam))
        k += 1


def k_from_lambda(n: int, p: int, lam) -> int | None:
    """Invert the equation of the family p, 0 <= p <= n + 1; None when lam is
    not in it.  lam is read through Fraction, as `flat.d_lambda` reads mu:
    only an integer is."""
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and >= 3")
    if not 0 <= _integer(p, "family index", ValueError) <= n + 1:
        raise ValueError("family index out of range")
    if p in (0, n + 1):
        return None
    lam = Fraction(lam)
    if lam.denominator != 1:
        return None
    lam, h = lam.numerator, (n - 1) // 2
    s2 = h * h + lam - (p - 1) * (n - p)
    if s2 < 0:
        return None
    s = isqrt(s2)
    if s * s != s2:
        return None
    k = s - h
    return k if k >= (0 if p in (1, n) else 1) else None


def family_label(m: int, j: int, k: int) -> IrrepLabelO:
    """Highest-weight label attached to the k-th eigenvalue of family j:
    k, then min(j, n+1-j) - 1 ones.  The twist is forced except when the
    weight fills every slot, where the two mirror weights fuse (delta = 0)."""
    n = 2 * m - 1
    if not 1 <= _integer(j, "family index", ValueError) <= n:
        raise ValueError("family index out of range")
    q = min(j, n + 1 - j)
    if _integer(k, "k", ValueError) < 0 or (k == 0 and q > 1):
        raise ValueError("k out of range for this family")
    weight = (k,) + (1,) * (q - 1) + (0,) * (m - q)
    delta = 0 if (q == m and weight[-1] > 0) else 1
    return IrrepLabelO(weight, delta)


def n_gamma(group: SphericalGroup, label: IrrepLabelO) -> int:
    """Multiplicity of the labelled irreducible in functions on the quotient
    L(N; q): the number of its weights mu (with multiplicity) in the
    congruence lattice L = {mu : <mu, q> = 0 mod N}.  Only the family labels
    (k, 1^(q-1)) are counted; any other label is refused with ValueError.

    As SO(2m) characters, with S^a the degree-a polynomials on C^(2m) (zero
    for a < 0) and Lambda^b its exterior powers, the label (merged with its
    conjugate when q = m) is

        F(k, q) = sum_{i<q} (-1)^i (S^(k+i) - S^(k-2-i)) (x) Lambda^(q-1-i),

    by H_a (x) Lambda^b = F(a+1, b) + F(a, b+1) + F(a-1, b) + F(a, b-1) and
    the exactness of the Koszul complex.  So a weight's multiplicity is a
    function M(r, l) of its 1-norm r and number l of zero coordinates, and
    the count is sum M(r, l) N_L(r, l) in integers (Ikeda 1980; Lauret,
    Miatello, Rossetti, Spectra of lens spaces from 1-norm spectra of
    congruence lattices, 2016)."""
    key, labels = (label.weight, label.delta), group._cache["labels"]
    cached = labels.get(key)
    if cached is not None:
        # only labels that passed validation for this rank are memoised
        return cached
    m = group.m
    label.validate(group.root_system)
    k, *rest = label.weight
    q = max(1, m - label.weight.count(0))
    if rest != [1] * (q - 1) + [0] * (m - q):
        raise ValueError(f"{label} is not a family label (k, 1^(q-1))")
    return labels.setdefault(key, _family_counts(group, q, k)[k])


def _family_counts(group: SphericalGroup, q: int, k_max: int, radius: int = 0) -> list[int]:
    """The group's list of n_gamma(k, 1^(q-1)) by k = 0, 1, ... (0 at k = 0
    when q > 1), kept under q in "families" and extended to k_max when it
    is shorter, as sum M(r, l) N_L(r, l) per k.  N_L is counted again when
    its 1-norm stops short of k_max + q - 1: to `radius` when the caller
    sizes it for every family at its cutoff, else to at least twice as far,
    so k_max rising one by one costs O(log k_max) counts."""
    cache = group._cache
    table = cache["families"].setdefault(q, [])
    if len(table) <= k_max:
        lattice = cache["lattice"] = cache["lattice"] or _LatticeCounts(group.order, group.elements.q)
        if k_max + q - 1 > lattice.radius:
            lattice.up_to(max(k_max + q - 1, radius or 2 * lattice.radius))
        table.extend(
            sum(mult * lattice.counts.get(rl, 0) for rl, mult in _key_multiplicities(group.m, k, q))
            for k in range(len(table), k_max + 1)
        )
    return table


@lru_cache(maxsize=256)
def _families(n: int, lam_max: int) -> tuple[tuple, int]:
    """The eigenvalue families j = 0..n+1 at eigenvalues <= lam_max, and the
    1-norm that their tables need: the largest k + q - 1 over them."""
    if lam_max < 0:
        raise ValueError("cutoff must be nonnegative")
    families = tuple(tuple(eigenvalue_family(n, j, lam_max)) for j in range(n + 2))
    tops = (f[-1][0] + min(j, n + 1 - j) - 1 for j, f in enumerate(families) if f)
    return families, max(tops, default=0)


@lru_cache(maxsize=4096)
def _key_multiplicities(m: int, k: int, q: int) -> tuple:
    """The pairs ((r, l), M(r, l)), M nonzero: the multiplicity of F(k, q) at
    the weights with 1-norm r and l zero coordinates.  A weight mu of
    S^a (x) Lambda^b is nu + (mu - nu), nu a weight of Lambda^b; per
    coordinate nu takes neither or both of +-e_j (y^0, y^2) or one of them
    (y z^+-1: the 1-norm of mu - nu moves by +-1, by +1 at a zero), so c(b, d)
    = [y^b z^d] (1 + y^2 + y(z + 1/z))^(m-l) (1 + y^2 + 2yz)^l counts the nu
    leaving 1-norm r + d, and S^a has C((a-r-d)/2 + m-1, m-1) weights there."""
    top = k + q - 1

    def s(e):
        # the weights of S^a at 1-norm a - e
        return comb(e // 2 + m - 1, m - 1) if e >= 0 else 0

    table = []
    for zeros in range(m + 1):
        c = {(0, 0): 1}
        for j in range(m):
            step = {}
            for (b, d), count in c.items():
                for db, dd in ((0, 0), (2, 0), (1, 1), (1, 1 if j < zeros else -1)):
                    if b + db < q:
                        step[b + db, d + dd] = step.get((b + db, d + dd), 0) + count
            c = step
        # the highest weight's parity, at least 1 per nonzero coordinate
        for r in range(top, m - zeros - 1, -2):
            if zeros == m and r:
                continue
            # Lambda^b is in the term i = q-1-b: (-1)^i (S^(k+i) - S^(k-2-i)) (x) Lambda^b
            mult = sum(
                (-1) ** (q - 1 - b) * count * (s(top - r - b - d) - s(top - r - 2 * q + b - d))
                for (b, d), count in c.items()
            )
            if mult:
                table.append(((r, zeros), mult))
    return tuple(table)


class _LatticeCounts:
    """N_L(r, l): the number of points of L = {mu in Z^m : <mu, q> = 0 mod N}
    with 1-norm r and l zero coordinates, for r <= `radius`; a larger radius
    counts again from scratch, so the callers size it (see `_family_counts`).

    A DP over the first m-1 coordinates mu' keeps, per (1-norm, zeros), the
    count of each class c = -<mu', q'> q_m^-1 mod N that the last coordinate
    must lie in: at most N (R+1) m states per step.  A coordinate d != 0 of
    one sign is a run of |d| unit moves, each adding 1 to the 1-norm and
    -+q_j q_m^-1 to the class, so one pass over the 1-norms per sign and zero
    count takes each step, not one per value of d.  Each state is completed
    by every c in its class with |c| <= R - r."""

    def __init__(self, big_n: int, q: tuple[int, ...]):
        self.big_n, self.q = big_n, q
        self.radius = -1
        self.counts: dict[tuple[int, int], int] = {}

    def up_to(self, radius: int) -> dict[tuple[int, int], int]:
        if radius <= self.radius:
            return self.counts
        big_n, (*head, last) = self.big_n, self.q
        inverse = pow(last, -1, big_n)
        states = {(0, 0): {0: 1}}  # (1-norm, zeros) of mu' -> {class: count}
        for done, qj in enumerate(head):
            step = {(r, zeros + 1): dict(classes) for (r, zeros), classes in states.items()}
            for move in (qj * inverse, -qj * inverse):
                for zeros in range(done + 1):
                    run = {}  # the prefixes that end in a run of moves, each moved back by r moves
                    for r in range(radius):
                        for c, count in states.get((r, zeros), {}).items():
                            c = (c - r * move) % big_n
                            run[c] = run.get(c, 0) + count
                        if run:
                            into, ahead = step.setdefault((r + 1, zeros), {}), (r + 1) * move
                            for c, count in run.items():
                                c = (c + ahead) % big_n
                                into[c] = into.get(c, 0) + count
            states = step
        counts = self.counts = {}
        for (r, zeros), classes in states.items():
            for c in range(r - radius, radius - r + 1):
                count = classes.get(c % big_n)
                if count:
                    key = (r + abs(c), zeros + (c == 0))
                    counts[key] = counts.get(key, 0) + count
        self.radius = radius
        return counts


@dataclass(frozen=True)
class Spectrum:
    n: int
    p: int
    lam_max: int
    entries: dict[int, int]


def p_spectrum(group: SphericalGroup, p: int, lam_max: int) -> Spectrum:
    """Spectrum of the Hodge-Laplace operator on p-forms of the quotient,
    up to lam_max, as an eigenvalue -> multiplicity map (zeros omitted): the
    closed and the coclosed half, which share no eigenvalue, plus the
    eigenvalue 0 of the constant functions and top forms."""
    n, top = group.n, floor(lam_max)
    entries = {0: 1} if p in (0, n) else {}
    for half in _halves(group, p, top, (True, False)):
        entries.update(half)
    return Spectrum(n, p, lam_max, dict(sorted(entries.items())))


def half_spectrum(group: SphericalGroup, p: int, closed: bool, lam_max: int) -> dict[int, int]:
    """Positive spectrum restricted to closed (differential in the kernel) or
    coclosed p-forms; the coclosed half at degree p is the closed half at p+1."""
    return next(_halves(group, p, lam_max, (closed,)))


def _halves(group: SphericalGroup, p: int, lam_max, sides: tuple):
    """The closed (True) or coclosed (False) halves at degree p for `sides`,
    read off one `_families` lookup and the tables of `_family_counts`."""
    n = group.n
    if not 0 <= p <= n:
        raise ValueError("form degree out of range")
    # eigenvalues are integers: lam <= lam_max exactly when lam <= floor(lam_max)
    families, radius = _families(n, floor(lam_max))
    for closed in sides:
        j = p if closed else p + 1
        family, q = families[j], min(j, n + 1 - j)
        counts = _family_counts(group, q, family[-1][0], radius) if family else []
        yield {lam: counts[k] for k, lam in family if k and counts[k]}


def _pieces(group: SphericalGroup, scope: tuple) -> tuple[int, dict, tuple]:
    """The group's rows for `spectra.answer`: P_j, the closed half of degree
    j, at each eigenvalue of family j, cut at lambda <= top for the scope
    (top, False) and at k <= top for (top, True), and 1 at eigenvalue 0."""
    (top, in_k), n = scope, group.n
    if top < 0:
        raise ValueError("cutoff must be nonnegative")
    rows: dict[int, list[int]] = {}
    for j in range(1, n + 1):
        cut = top * top + top * (n - 1) + (j - 1) * (n - j) if in_k else top
        for lam, d in half_spectrum(group, j, True, cut).items():
            rows.setdefault(lam, [0] * (n + 2))[j] = d
    return 1, {lam: tuple(row) for lam, row in rows.items()}, (1,) + (0,) * (n - 1) + (1,)


def compare(g1: SphericalGroup, g2: SphericalGroup, p: int, lam_max: int) -> ComparisonResult:
    return spectra.answer(g1, g2, p, (lam_max, False), _pieces, "spec")


def tau_equivalent(g1: SphericalGroup, g2: SphericalGroup, p: int, k_max: int) -> bool:
    """Equality of every multiplicity attached to the degree-p exterior
    representation, across both weight families, for 1 <= k <= k_max (k = 0
    labels the trivial representation, invariant under every group)."""
    return spectra.answer(g1, g2, p, (k_max, True), _pieces, "tau")


def _interlacing_labels(m: int, mu: tuple[int, ...], k_max: int):
    """Rank-m label weights (nonnegative chamber) whose restriction to the
    next-lower orthogonal group contains the rank-(m-1) weight mu."""
    ranges = [range(mu[0], k_max + 1)]
    for i in range(1, m - 1):
        ranges.append(range(mu[i], mu[i - 1] + 1))
    ranges.append(range(0, mu[m - 2] + 1))
    return product(*ranges)


def casimir_collision_scan(
    m: int, mu, k_max: int
) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """Search the branching family over a fixed lower weight mu for distinct
    labels sharing a Casimir eigenvalue.

    Supported mu: entries at most 2 (no collisions expected), or 3e_1 (which
    does collide, with shared value 2n(n+1) appearing once k reaches 2m).
    """
    mu = tuple(mu)
    if any(type(x) is not int for x in mu):
        raise ValueError("mu entries must be ints")
    if m < 2 or len(mu) != m - 1:
        raise ValueError("mu must be a weight of the lower-rank group (m-1 slots)")
    if any(mu[i] < mu[i + 1] for i in range(len(mu) - 1)) or mu[-1] < 0:
        raise ValueError("mu must be dominant with nonnegative entries")
    if mu[0] > 3 or (mu[0] == 3 and any(c != 0 for c in mu[1:])):
        raise ValueError("supported families: entries <= 2, or 3e_1")
    rs = RootSystem("D", m)
    by_value: dict[int, list[tuple[int, ...]]] = {}
    for w in _interlacing_labels(m, mu, k_max):
        lam = liealg.casimir_eigenvalue(rs, w)
        by_value.setdefault(lam, []).append(w)
    return [
        (a, b, lam) for lam in sorted(by_value) for a, b in combinations(by_value[lam], 2)
    ]

