"""Exact spectral dictionary for compact hyperbolic space forms.

No multiplicities are computed here: for a quotient of real hyperbolic
n-space the eigenvalue lambda on p-forms corresponds, degree by degree, to
unitary representations with spectral parameter nu satisfying
lambda = rho_p^2 - nu^2.  This module produces those correspondences as exact
symbolic terms; plugging in the multiplicity of each representation in
L^2(Gamma\\G) (not computable from conjugacy data alone) gives d_lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def rho_p(n: int, p: int) -> Fraction:
    """Half-sum parameter of the degree-p exterior representation of the
    isotropy group: (n-1)/2 - min(p, n-1-p)."""
    if n < 2:
        raise ValueError("need n >= 2")
    if not 0 <= p <= n - 1:
        raise ValueError("sigma degree out of range")
    return Fraction(n - 1, 2) - min(p, n - 1 - p)


@dataclass(frozen=True)
class NuValue:
    """Spectral parameter nu, stored exactly by the rational square of its
    magnitude: a nonnegative real when `imaginary` is false (complementary
    range and endpoints), i times a nonnegative real otherwise (tempered
    range).  nu = 0 is stored on the imaginary branch."""

    imaginary: bool
    square: Fraction

    def __post_init__(self):
        object.__setattr__(self, "square", Fraction(self.square))
        if self.square < 0:
            raise ValueError("square of the magnitude must be nonnegative")
        if self.square == 0 and not self.imaginary:
            object.__setattr__(self, "imaginary", True)

    def nu_squared(self) -> Fraction:
        return -self.square if self.imaginary else self.square

    def rational_value(self) -> Fraction | None:
        """The exact value of nu (real branch) or of its imaginary part,
        when that number is rational; None otherwise."""
        num, den = self.square.numerator, self.square.denominator
        rn, rd = math.isqrt(num), math.isqrt(den)
        if rn * rn == num and rd * rd == den:
            return Fraction(rn, rd)
        return None

    def approx(self) -> complex:
        r = math.sqrt(self.square)
        return complex(0, r) if self.imaginary else complex(r)

    def __str__(self):
        if self.square == 0:
            return "0"
        exact = self.rational_value()
        mag = str(exact) if exact is not None else f"sqrt({self.square})"
        return f"{mag}*i" if self.imaginary else mag


def casimir(n: int, p: int, nu: NuValue | Fraction | int) -> Fraction:
    """Laplace eigenvalue rho_p^2 - nu^2 of the degree-p series at parameter
    nu; exact."""
    if not isinstance(nu, NuValue):
        nu = NuValue(False, Fraction(nu) ** 2)
    return rho_p(n, p) ** 2 - nu.nu_squared()


def nu_from_lambda(n: int, p: int, lam) -> NuValue:
    """Parameter with casimir(n, p, nu) == lam: real in (0, rho_p] when
    lam < rho_p^2, otherwise i*sqrt(lam - rho_p^2)."""
    lam = Fraction(lam)
    if lam < 0:
        raise ValueError("eigenvalues are nonnegative")
    t = rho_p(n, p) ** 2 - lam
    if t > 0:
        return NuValue(False, t)
    return NuValue(True, -t)


@dataclass(frozen=True)
class HyperbolicTerm:
    """One representation-theoretic contribution: kind is 'principal',
    'complementary', 'langlands' or 'discrete_pair'; nu is None on family
    descriptors (continuous ranges) and exact on pointwise terms."""

    kind: str
    sigma_degree: int | None
    nu: NuValue | None
    rho: Fraction | None = None

    def __str__(self):
        if self.kind == "discrete_pair":
            half = self.sigma_degree
            return f"D_{half}^+ (+) D_{half}^-"
        s = f"sigma_{self.sigma_degree}"
        if self.kind == "langlands":
            return f"J({s}, nu={self.nu})"
        if self.nu is None:
            rng = "i*[0,inf)" if self.kind == "principal" else f"(0, {self.rho})"
            return f"pi({s}, nu in {rng})"
        return f"pi({s}, nu={self.nu})"


def _sigma_degrees(n: int, p: int) -> list[int]:
    return [s for s in (p, p - 1) if 0 <= s <= n - 1]


def hat_G_taup(n: int, p: int) -> list[HyperbolicTerm]:
    """Family descriptors of every unitary representation contributing to the
    p-form spectrum: tempered and complementary families in the two adjacent
    isotropy degrees plus their endpoint modules.  In even dimension at
    middle degree the two endpoints fuse into the discrete pair."""
    if n < 2:
        raise ValueError("need n >= 2")
    if not 0 <= p <= n:
        raise ValueError("form degree out of range")
    middle = n % 2 == 0 and p == n // 2
    terms: list[HyperbolicTerm] = []
    for s in _sigma_degrees(n, p):
        rho = rho_p(n, s)
        terms.append(HyperbolicTerm("principal", s, None, rho))
        if rho > 0:
            terms.append(HyperbolicTerm("complementary", s, None, rho))
        if not middle:
            terms.append(HyperbolicTerm("langlands", s, NuValue(False, rho**2), rho))
    if middle:
        terms.append(HyperbolicTerm("discrete_pair", n // 2, None, Fraction(1, 2)))
    return terms


def multiplicity_decomposition(n: int, p: int, lam) -> list[HyperbolicTerm]:
    """The exact terms whose representation multiplicities sum to the
    eigenvalue-lam multiplicity on p-forms of a compact quotient."""
    if n < 2:
        raise ValueError("need n >= 2")
    if not 0 <= p <= n:
        raise ValueError("form degree out of range")
    lam = Fraction(lam)
    if lam < 0:
        raise ValueError("eigenvalues are nonnegative")
    if lam == 0:  # the endpoint modules of the families
        return [t for t in hat_G_taup(n, p) if t.kind in ("langlands", "discrete_pair")]
    terms = []
    for s in _sigma_degrees(n, p):
        nu = nu_from_lambda(n, s, lam)
        kind = "principal" if nu.imaginary else "complementary"
        terms.append(HyperbolicTerm(kind, s, nu, rho_p(n, s)))
    return terms
