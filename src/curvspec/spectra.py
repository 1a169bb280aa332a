"""One comparison table, shared by the flat and spherical geometries.

The multiplicity of a positive eigenvalue on p-forms is d(p) = P_p + P_{p+1},
where P_j = n_Gamma(pi_{sigma_{j-1}, lambda}) is the principal-series piece
of degree j - 1 and P_0 = P_{n+1} = 0; tau_p-equivalence is the equality of
both pieces.  A geometry supplies `pieces(group, scope) -> (scale, {t:
(P_0, ..., P_{n+1})}, zero_row)`: the pieces at each positive eigenvalue
t / scale in the scope and, apart from them, the form multiplicities
(d_0, ..., d_n) at the eigenvalue 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm


@dataclass(frozen=True)
class ComparisonResult:
    isospectral: bool
    # (eigenvalue, multiplicity in the first group, in the second), or None
    first_discrepancy: tuple | None


def answer(g1, g2, p: int, scope, pieces, mode: str):
    """The answer at degree p in the mode "spec", "half-closed", "half-coclosed"
    (a `ComparisonResult`) or "tau" (a bool), from the pair's table of every
    mode and degree, built once per g2 and scope and kept in the section
    "pairs" of g1's `_cache` under the id of g2, with g2 itself, so that id
    names no other group."""
    if g1.n != g2.n:
        raise ValueError("groups act on spaces of different dimensions")
    if not 0 <= p <= g1.n:
        raise ValueError("form degree out of range")
    # the scopes already asked for, found by identity or equality, so that a
    # Fraction scope is not hashed on every call
    entries = g1._cache["pairs"].setdefault(id(g2), [])
    entry = next((e for e in entries if e[0] is scope or e[0] == scope), None)
    if entry is None:
        entry = (scope, g2, _sweep(pieces(g1, scope), pieces(g2, scope)))
        entries.append(entry)
    found = entry[2][mode][p]
    return found if mode == "tau" else ComparisonResult(found is None, found)


def _sweep(one: tuple, two: tuple) -> dict[str, list]:
    """Two groups' rows merged on the scale lcm(K1, K2), absent ones reading
    zero, and one pass recording the first (eigenvalue, value 1, value 2) that
    differs, or None, of d(p), the zero row first, and of each piece P_j: P_p
    answers the closed half of degree p, P_{p+1} the coclosed half."""
    (scale1, rows1, zero1), (scale2, rows2, zero2) = one, two
    scale, size = lcm(scale1, scale2), len(zero1)
    absent = (0,) * (size + 1)
    merged: dict[int, list] = {}
    for side, own, rows in ((0, scale1, rows1), (1, scale2, rows2)):
        for t, row in rows.items():
            merged.setdefault(t * (scale // own), [absent, absent])[side] = row
    spec = [None if a == b else (Fraction(0), a, b) for a, b in zip(zero1, zero2)]
    firsts = [None] * (size + 1)
    for key in sorted(merged):
        a, b = merged[key]
        if a == b:
            continue
        lam = Fraction(key, scale)
        for j in range(size + 1):
            if firsts[j] is None and a[j] != b[j]:
                firsts[j] = (lam, a[j], b[j])
        for p in range(size):
            if spec[p] is None and (d1 := a[p] + a[p + 1]) != (d2 := b[p] + b[p + 1]):
                spec[p] = (lam, d1, d2)
    tau = [zero1[p] == zero2[p] and firsts[p] is None and firsts[p + 1] is None for p in range(size)]
    return {"spec": spec, "half-closed": firsts[:-1], "half-coclosed": firsts[1:], "tau": tau}
