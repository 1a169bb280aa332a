"""Root-system combinatorics for the even special orthogonal algebras.

Weights live in the epsilon-coordinate lattice, where the normalized invariant
form is the standard dot product and every Casimir eigenvalue of an integral
highest weight is an integer.  Only integral (non-spin) weights are supported.

Characters are evaluated by summing exp(2*pi*i <mu, theta>) over the full
weight table (Freudenthal multiplicities expanded along Weyl orbits), which is
well defined at every group element -- including singular rotations where
quotient formulas for characters degenerate to 0/0.  The weights are first
counted by their exact phase residue, so the only floating point is one
complex exponential per residue class.
"""

from __future__ import annotations

import cmath
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, permutations, product
from math import lcm
from operator import mul

Weight = tuple[int, ...]


@dataclass(frozen=True)
class RootSystem:
    """Type D (even orthogonal) root system of given rank."""

    family: str
    rank: int

    def __post_init__(self):
        if self.family != "D":
            raise ValueError(f"unknown family {self.family!r}")
        if self.rank < 2:
            raise ValueError("D requires rank >= 2")

    def positive_roots(self) -> list[Weight]:
        m = self.rank
        roots = []
        for i in range(m):
            for j in range(i + 1, m):
                for sign in (1, -1):
                    r = [0] * m
                    r[i], r[j] = 1, sign
                    roots.append(tuple(r))
        return roots

    def rho(self) -> tuple[Fraction, ...]:
        """Half the sum of the positive roots."""
        m = self.rank
        return tuple(Fraction(m - i) for i in range(1, m + 1))

    def is_dominant(self, w) -> bool:
        w = list(w)
        if len(w) != self.rank or not all(isinstance(c, int) for c in w):
            return False
        if any(w[i] < w[i + 1] for i in range(len(w) - 1)):
            return False
        return w[-2] >= abs(w[-1])

    def validate_weight(self, w) -> Weight:
        w = tuple(w)
        if not self.is_dominant(w):
            raise ValueError(f"{w} is not a dominant integral weight for {self.family}{self.rank}")
        return w


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def casimir_eigenvalue(rs: RootSystem, w) -> int:
    """<w, w + 2 rho>; an integer for every integral dominant weight."""
    w = rs.validate_weight(w)
    val = _dot(w, w) + 2 * _dot(w, rs.rho())
    assert val == int(val)
    return int(val)


def weyl_dimension(rs: RootSystem, w) -> int:
    w = rs.validate_weight(w)
    rho = rs.rho()
    dim = Fraction(1)
    for alpha in rs.positive_roots():
        dim *= Fraction(_dot(w, alpha) + _dot(rho, alpha), _dot(rho, alpha))
    assert dim.denominator == 1
    return int(dim)


def conjugate_weight(rs: RootSystem, w) -> Weight:
    """Image of a weight under the outer flip of the last coordinate."""
    w = rs.validate_weight(w)
    return w[:-1] + (-w[-1],)


def _simple_root_coefficients(rs: RootSystem, diff) -> list[int] | None:
    """Coefficients of Lambda - mu on the simple roots, or None if not in the
    nonnegative root cone.  diff must be an integer vector."""
    m = rs.rank
    s = list(accumulate(diff))
    if s[-1] % 2:
        return None
    cm = s[-1] // 2
    cs = s[: m - 2] + [cm - diff[-1], cm]
    return cs if all(c >= 0 for c in cs) else None


def dominant_representative(rs: RootSystem, v) -> Weight:
    """The dominant weight in the Weyl orbit of v."""
    mags = sorted((abs(c) for c in v), reverse=True)
    if all(c != 0 for c in v):
        negatives = sum(1 for c in v if c < 0)
        if negatives % 2:
            mags[-1] = -mags[-1]
    return tuple(mags)


def weyl_orbit(rs: RootSystem, w) -> set[Weight]:
    """All signed permutations of w (even sign flips only, unless a
    coordinate vanishes, in which case every sign pattern is reachable)."""
    w = rs.validate_weight(w)
    mags = tuple(abs(c) for c in w)
    check_parity = all(c != 0 for c in w)
    parity = sum(1 for c in w if c < 0) % 2
    orbit = set()
    for perm in set(permutations(mags)):
        positions = [i for i, c in enumerate(perm) if c != 0]
        for signs in product((1, -1), repeat=len(positions)):
            if check_parity and sum(1 for s in signs if s < 0) % 2 != parity:
                continue
            vec = list(perm)
            for i, s in zip(positions, signs):
                vec[i] *= s
            orbit.add(tuple(vec))
    return orbit


def _dominant_candidates(rs: RootSystem, lam: Weight) -> list[tuple[Weight, int]]:
    """Dominant integral weights below lam in the root order, with the height
    of the difference; sorted by increasing height (lam itself first)."""
    m, top = rs.rank, lam[0]
    out = []

    def extend(prefix):
        if len(prefix) == m - 1:
            for c in range(-prefix[-1], prefix[-1] + 1):
                check(prefix + (c,))
            return
        hi = prefix[-1] if prefix else top
        for c in range(hi, -1, -1):
            extend(prefix + (c,))

    def check(mu):
        cs = _simple_root_coefficients(rs, [a - b for a, b in zip(lam, mu)])
        if cs is not None:
            out.append((mu, sum(cs)))

    extend(())
    out.sort(key=lambda t: t[1])
    return out


@lru_cache(maxsize=None)
def dominant_multiplicities(rs: RootSystem, w: Weight) -> dict[Weight, int]:
    """Multiplicities at the dominant weights of the irreducible with highest
    weight w, by Freudenthal's recursion

        (|w+rho|^2 - |mu+rho|^2) m_mu = 2 sum_{alpha>0} sum_{k>=1}
                                            m_{mu+k alpha} <mu+k alpha, alpha>,

    processed in increasing height of w - mu so every right-hand lookup (taken
    at the dominant representative) is already available.
    """
    w = rs.validate_weight(w)
    pos = rs.positive_roots()
    rho = rs.rho()
    top_norm = _dot([a + b for a, b in zip(w, rho)], [a + b for a, b in zip(w, rho)])
    mult: dict[Weight, int] = {}
    for mu, height in _dominant_candidates(rs, w):
        if height == 0:
            mult[mu] = 1
            continue
        num = 0
        for alpha in pos:
            nu = tuple(a + b for a, b in zip(mu, alpha))
            while True:
                mv = mult.get(dominant_representative(rs, nu))
                if mv is None:
                    break
                num += 2 * mv * _dot(nu, alpha)
                nu = tuple(a + b for a, b in zip(nu, alpha))
        mu_rho = [a + b for a, b in zip(mu, rho)]
        denom = top_norm - _dot(mu_rho, mu_rho)
        q = Fraction(num) / Fraction(denom)
        assert q.denominator == 1 and q >= 0
        if q:
            mult[mu] = int(q)
    return mult


@lru_cache(maxsize=None)
def weight_multiplicities(rs: RootSystem, w: Weight) -> dict[Weight, int]:
    """Full weight table of the irreducible with highest weight w."""
    table: dict[Weight, int] = {}
    for mu, m in dominant_multiplicities(rs, w).items():
        for v in weyl_orbit(rs, mu):
            table[v] = m
    return table


@dataclass(frozen=True)
class RotationElement:
    """Conjugacy data of a rotation: the angle fractions a_j, meaning a block
    rotation by 2*pi*a_j in the j-th plane."""

    angles: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "angles", tuple(Fraction(a) % 1 for a in self.angles))

    @property
    def rank(self) -> int:
        return len(self.angles)

    @property
    def is_identity(self) -> bool:
        return all(a == 0 for a in self.angles)


def character_so(rs: RootSystem, w, g: RotationElement) -> complex:
    """Character of the highest-weight-w irreducible at a rotation element:
    the weight table counted by the exact residue r = D <mu, theta> mod D
    (D the common denominator of the angles), then sum_r c_r exp(2 pi i r / D)."""
    w = rs.validate_weight(w)
    if g.rank != rs.rank:
        raise ValueError("element rank does not match root system rank")
    if g.is_identity:
        return complex(weyl_dimension(rs, w))
    denom = lcm(*(a.denominator for a in g.angles))
    nums = [a.numerator * (denom // a.denominator) for a in g.angles]
    counts: Counter[int] = Counter()
    for mu, mult in weight_multiplicities(rs, w).items():
        counts[sum(map(mul, mu, nums)) % denom] += mult
    return sum((c * cmath.exp(2j * cmath.pi * r / denom) for r, c in counts.items()), 0j)


@dataclass(frozen=True)
class IrrepLabelO:
    """Label (weight, delta) of an irreducible of the full even orthogonal
    group: delta = +-1 twists by the two extensions when the last coordinate
    vanishes, delta = 0 marks the induced module on V_w (+) V_wbar otherwise."""

    weight: Weight
    delta: int

    def validate(self, rs: RootSystem) -> "IrrepLabelO":
        w = rs.validate_weight(self.weight)
        if w[-1] < 0:
            raise ValueError("labels use the nonnegative chamber: last coordinate >= 0")
        if self.delta not in (-1, 0, 1):
            raise ValueError("delta must be -1, 0 or +1")
        if (self.delta == 0) != (w[-1] > 0):
            raise ValueError("delta = 0 exactly when the last coordinate is positive")
        return self


def character_o(rs: RootSystem, label: IrrepLabelO, g: RotationElement) -> complex:
    """Character of the O-irreducible at identity-component conjugacy data."""
    label.validate(rs)
    val = character_so(rs, label.weight, g)
    if label.delta == 0:
        val += character_so(rs, conjugate_weight(rs, label.weight), g)
    return val


def branch_taup(n: int, p: int) -> tuple[int, ...]:
    """Degrees of the exterior representations of the next-lower orthogonal
    group appearing in the restriction of the degree-p one: p-1 and p, with
    out-of-range degrees dropped."""
    if not 0 <= p <= n:
        raise ValueError("exterior degree out of range")
    return tuple(q for q in (p - 1, p) if 0 <= q <= n - 1)


@lru_cache(maxsize=1024)
def _orthogonal_char_poly(a):
    from . import ratlinalg

    n = len(a)
    if ratlinalg.mat_mul(ratlinalg.transpose(a), a) != ratlinalg.identity(n):
        raise ValueError("matrix is not orthogonal")
    return tuple(ratlinalg.char_poly(a))


def exterior_trace(mat, p: int) -> Fraction:
    """Trace of the p-th exterior power of an orthogonal matrix: the p-th
    elementary symmetric function of its eigenvalues, read off exactly from
    the characteristic polynomial (no eigendecomposition)."""
    from . import ratlinalg

    n = len(mat)
    if not 0 <= p <= n:
        raise ValueError("exterior degree out of range")
    coeffs = _orthogonal_char_poly(ratlinalg.as_mat(mat))
    return (-1) ** p * coeffs[n - p]
