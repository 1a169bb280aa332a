"""The benchmark workloads: seeded question generators, the timed question
bodies, and the exact-answer checks run after each question.

Every question brings freshly constructed groups, so the library's global
`lru_cache`s and per-group `_cache`s carry no work from one question to the
next except where the workload says so (the spherical weight tables).

Generators use only this module's own integer and `Fraction` arithmetic; they
never call into `curvspec`, so generating inputs measures nothing but the
benchmark itself.  The library receives only the generated inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from curvspec import cli, flat, spherical

BATCH = 20
GOLDEN = Path(__file__).resolve().parent / "flat_golden.json"

# flat-pairs: (fixture pair, mu cutoff, questions per batch).  The flat8 pair
# is 3 of 20 questions (15 %), so the p90 latency falls inside the flat8 class
# and the median inside the flat4_a/b class, never on a class boundary.
FLAT_CLASSES = (
    (("klein_a", "klein_b"), Fraction(4), 5),
    (("flat4_a", "flat4_b"), Fraction(3), 7),
    (("flat4_m24", "flat4_m25"), Fraction(3), 5),
    (("flat8_a", "flat8_b"), Fraction(2), 3),
)

# lens-cli: explicit element lists on S^5.  The orders are a fixed spread over
# 30..86 so the work per batch does not move with the seed (which draws q and
# the element order), plus three groups of order 89 as the slowest 15 %, so
# the p90 latency falls inside that class rather than between two orders.
LENS_CLI_M = 3
LENS_CLI_ORDERS = (30, 33, 37, 40, 44, 47, 51, 54, 58, 61, 65, 68, 72, 75, 79, 82, 86, 89, 89, 89)
LENS_CLI_CUTOFF = 40


def _units(big_n: int) -> list[int]:
    return [r for r in range(1, big_n) if math.gcd(r, big_n) == 1]


def _check_free(big_n: int, *qs) -> None:
    """L(N; q) acts freely exactly when every q_j is prime to N."""
    for q in qs:
        if any(math.gcd(x, big_n) != 1 for x in q):
            raise ValueError(f"L({big_n}; {q}) does not act freely")


# --------------------------------------------------------------- flat-pairs


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _transpose(a):
    return [list(col) for col in zip(*a)]


def _unimodular(n: int, rng) -> list[list[int]]:
    """n random elementary row operations (add +-row j to row i), then a row
    shuffle: a random element of GL(n, Z) with small entries."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        u[i] = [a + s * b for a, b in zip(u[i], u[j])]
    rng.shuffle(u)
    return u


def _signed_permutation(n: int, rng) -> list[list[int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return [[rng.choice((1, -1)) if perm[i] == j else 0 for j in range(n)] for i in range(n)]


def _number(text: str):
    """A recorded rational as an int when integral (int arithmetic keeps
    input generation cheap), else as a Fraction."""
    x = Fraction(text)
    return x.numerator if x.denominator == 1 else x


def represent(fixture: dict, rng) -> tuple[list, list]:
    """An isometric re-presentation of a recorded fixture: lattice basis rows
    U B P^T for a random unimodular U and signed permutation P, and cosets
    (P B P^T, P b)."""
    basis = [[_number(x) for x in row] for row in fixture["lattice"]]
    n = len(basis)
    u, p = _unimodular(n, rng), _signed_permutation(n, rng)
    pt = _transpose(p)
    cosets = []
    for c in fixture["cosets"]:
        rot = [[_number(x) for x in row] for row in c["rotation"]]
        tr = [_number(x) for x in c["translation"]]
        cosets.append(
            (_matmul(_matmul(p, rot), pt), [sum(a * b for a, b in zip(row, tr)) for row in p])
        )
    return _matmul(_matmul(u, basis), pt), cosets


def _fraction_key(x) -> str:
    return str(Fraction(x))


def flat_verdicts(g1, g2, cutoff) -> list:
    """The question's answer: per degree, the spectral comparison (with the
    first discrepancy) and the tau-equivalence verdict, in JSON form."""
    out = []
    for p in range(g1.n + 1):
        res = flat.compare(g1, g2, p, cutoff)
        disc = res.first_discrepancy
        if disc is not None:
            disc = [_fraction_key(disc[0]), disc[1], disc[2]]
        out.append([res.isospectral, disc, flat.tau_equivalent(g1, g2, p, cutoff)])
    return out


def flat_spectra(group, cutoff) -> list[dict[str, int]]:
    return [
        {_fraction_key(mu): d for mu, d in flat.spectrum(group, p, cutoff).entries.items()}
        for p in range(group.n + 1)
    ]


def load_golden(path: Path = GOLDEN) -> dict:
    with open(path, encoding="utf-8") as fh:
        golden = json.load(fh)
    problems = golden_anchor_problems(golden)
    if problems:
        raise ValueError(f"{path.name} fails its acceptance anchors: {problems}")
    return golden


def golden_anchor_problems(golden: dict) -> list[str]:
    """Check recorded goldens against the acceptance criteria they must
    reproduce (criteria 1-4 of tests/test_acceptance.py)."""
    pairs = {tuple(entry["groups"]): entry for entry in golden["pairs"]}
    problems = []
    f8 = pairs[("flat8_a", "flat8_b")]
    anchors = tuple(
        f8["spectra"][name][p].get("1") for p in (0, 4) for name in ("flat8_a", "flat8_b")
    )
    if anchors != (6, 4, 284, 288):
        problems.append(f"flat8 first-shell multiplicities {anchors}")
    iso = [v[0] for v in f8["verdicts"]]
    if iso != [p not in (0, 4, 8) for p in range(9)] or any(v[2] for v in f8["verdicts"]):
        problems.append("flat8 isospectral/tau pattern")
    m24 = pairs[("flat4_m24", "flat4_m25")]
    if [v[0] for v in m24["verdicts"]] != [False, True, False, True, False]:
        problems.append("flat4_m24/m25 odd-degree pattern")
    klein = pairs[("klein_a", "klein_b")]["spectra"]
    if (klein["klein_a"][0].get("1/4"), klein["klein_b"][0].get("1/4")) != (1, None):
        problems.append("Klein bottle smallest multiplicity")
    f4 = pairs[("flat4_a", "flat4_b")]
    if (f4["spectra"]["flat4_a"][0].get("1"), f4["spectra"]["flat4_b"][0].get("1")) != (4, 3):
        problems.append("flat4_a/b first-shell multiplicities")
    return problems


@dataclass
class FlatQuestion:
    pair: tuple[str, str]
    cutoff: Fraction
    data: tuple  # ((basis, cosets), (basis, cosets))


class FlatPairs:
    name = "flat-pairs"

    def __init__(self, golden: dict):
        self.golden = golden
        self.expected = {tuple(entry["groups"]): entry for entry in golden["pairs"]}

    def generate(self, rng, workdir=None) -> list[FlatQuestion]:
        fixtures = self.golden["fixtures"]
        qs = [
            FlatQuestion(pair, cutoff, tuple(represent(fixtures[g], rng) for g in pair))
            for pair, cutoff, count in FLAT_CLASSES
            for _ in range(count)
        ]
        rng.shuffle(qs)
        return qs

    def validate(self, questions) -> None:
        for q in questions:
            for basis, cosets in q.data:
                flat.BieberbachGroup(flat.Lattice(basis), cosets)

    def ask(self, q: FlatQuestion):
        g1, g2 = (flat.BieberbachGroup(flat.Lattice(b), c) for b, c in q.data)
        return flat_verdicts(g1, g2, q.cutoff), (g1, g2)

    def check(self, q: FlatQuestion, answer, groups) -> str | None:
        expected = self.expected[q.pair]
        if answer != expected["verdicts"]:
            return f"{q.pair}: verdicts {answer} != golden {expected['verdicts']}"
        for name, group in zip(q.pair, groups):
            if flat_spectra(group, q.cutoff) != expected["spectra"][name]:
                return f"{q.pair}: re-presented {name} changed its spectrum"
        return None


# ------------------------------------------------------------ lens spaces


def function_spectrum(big_n: int, q, lam_max: int) -> dict[int, int]:
    """Independent oracle for the p = 0 spectrum of L(N; q): the multiplicity
    of k(k + n - 1) is the number of invariant harmonic polynomials of degree
    k, i.e. invariant monomials in z_j, conj(z_j) of degree k minus those of
    degree k - 2 (multiplication by |x|^2 splits off the non-harmonic part).
    Monomials are counted by degree and weight mod N with a knapsack table."""
    m = len(q)
    n = 2 * m - 1
    k_max = 0
    while (k_max + 1) * (k_max + n) <= lam_max:
        k_max += 1
    counts = [[0] * big_n for _ in range(k_max + 1)]
    counts[0][0] = 1
    for w in [qj % big_n for qj in q] + [-qj % big_n for qj in q]:
        for d in range(1, k_max + 1):
            row, prev = counts[d], counts[d - 1]
            for r in range(big_n):
                if prev[r]:
                    row[(r + w) % big_n] += prev[r]
    invariant = [row[0] for row in counts]
    out = {}
    for k in range(k_max + 1):
        h = invariant[k] - (invariant[k - 2] if k >= 2 else 0)
        if h:
            out[k * (k + n - 1)] = h
    return out


def lens_spectrum_problems(spectra: dict[int, dict[int, int]], big_n, q, lam) -> str | None:
    """Checks every lens-space spectrum must pass: Poincare duality, the
    constants at p = 0, and the function spectrum against the oracle."""
    n = 2 * len(q) - 1
    for p in range(n + 1):
        if spectra.get(p, {}) != spectra.get(n - p, {}):
            return f"L({big_n};{q}): spec({p}) != spec({n - p})"
    if spectra.get(0, {}).get(0) != 1:
        return f"L({big_n};{q}): multiplicity of lambda=0 on functions is not 1"
    if spectra.get(0, {}) != function_spectrum(big_n, q, lam):
        return f"L({big_n};{q}): function spectrum disagrees with the monomial oracle"
    return None


@dataclass
class LensCliQuestion:
    order: int
    q: tuple[int, ...]
    path: str


def parse_spectrum_csv(text: str) -> dict[int, dict[int, int]]:
    lines = text.strip().splitlines()
    if not lines or lines[0] != "p,eigenvalue_exact,eigenvalue_float,multiplicity":
        raise ValueError("unexpected CSV header")
    out: dict[int, dict[int, int]] = {}
    for line in lines[1:]:
        p, lam, lam_float, mult = line.split(",")
        if float(lam_float) != float(lam):
            raise ValueError(f"float column {lam_float} does not match {lam}")
        out.setdefault(int(p), {})[int(lam)] = int(mult)
    return out


class LensCli:
    name = "lens-cli"

    def generate(self, rng, workdir: Path) -> list[LensCliQuestion]:
        qs = []
        for i, big_n in enumerate(LENS_CLI_ORDERS):
            units = _units(big_n)
            q = tuple(rng.choice(units) for _ in range(LENS_CLI_M))
            elements = [
                {"angles": [str(Fraction(t * x % big_n, big_n)) for x in q]} for t in range(big_n)
            ]
            rng.shuffle(elements)
            path = workdir / f"q{i:02d}.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"space": "spherical", "elements": elements}, fh)
            qs.append(LensCliQuestion(big_n, q, str(path)))
        rng.shuffle(qs)
        return qs

    def validate(self, questions) -> None:
        for q in questions:
            _check_free(q.order, q.q)

    def ask(self, q: LensCliQuestion):
        out = io.StringIO()
        argv = ["spectrum", q.path, "--p", "all", "--cutoff", str(LENS_CLI_CUTOFF), "--format", "csv"]
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return [code, out.getvalue()], None

    def check(self, q: LensCliQuestion, answer, _) -> str | None:
        code, text = answer
        if code != 0:
            return f"L({q.order};{q.q}): exit code {code}"
        try:
            spectra = parse_spectrum_csv(text)
        except ValueError as exc:
            return f"L({q.order};{q.q}): {exc}"
        return lens_spectrum_problems(spectra, q.order, q.q, LENS_CLI_CUTOFF)


def make(name: str):
    return FlatPairs(load_golden()) if name == "flat-pairs" else LensCli()
