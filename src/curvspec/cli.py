"""Command-line front end.

Groups are given either as `fixture:<name>` or as a path to a JSON file with
exact data (rationals written as strings such as "1/2"):

    {"space": "flat",
     "lattice": [["1", "0"], ["0", "2"]],
     "cosets": [{"rotation": [["1","0"],["0","1"]], "translation": ["0","0"]},
                {"rotation": [["1","0"],["0","-1"]], "translation": ["1/2","0"]}]}

    {"space": "spherical", "lens": {"N": 7, "q": [1, 2]}}
    {"space": "spherical", "elements": [{"angles": ["0","0"]},
                                        {"angles": ["1/2","1/2"]}]}

Exit codes: 0 success/equal, 1 spectra differ, 2 parse error or input too
large to compute, 3 violated structural invariant, 4 dimension or space-type
mismatch.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import sys
from fractions import Fraction
from math import isqrt

from . import flat, hyperbolic, ratlinalg, spectra, spherical
from .errors import CurvspecError, InvariantViolation


class _ParseError(Exception):
    pass


class _NotAList(TypeError):
    """A string or an object where a JSON list belongs (see _items)."""


def _fraction(x) -> Fraction:
    return Fraction(*ratlinalg._rational_pair(x))


def _integer(x) -> int:
    """A lens parameter: floats and booleans are refused, not truncated."""
    if isinstance(x, (bool, float)):
        raise ValueError(f"bad integer {x!r}")
    return int(x)


def _items(x) -> list:
    """A JSON list: a string or an object in its place would be iterated as
    its characters or keys."""
    if type(x) is not list:
        raise _NotAList(f"expected a list, got {x!r}")
    return x


def _malformed(exc: Exception, members) -> str:
    """The text of exc, met reading members that should be JSON objects: any
    TypeError but `_items`'s comes from indexing the first that is not one."""
    bad = [x for x in members if type(x) is not dict] if type(members) is list else []
    return f"expected an object, got {bad[0]!r}" if type(exc) is TypeError and bad else str(exc)


def _load_group(token: str):
    """Returns ("flat", BieberbachGroup) or ("spherical", SphericalGroup)."""
    if token.startswith("fixture:"):
        name = token[len("fixture:") :]
        groups = flat.fixtures()
        if name not in groups:
            raise _ParseError(
                f"unknown fixture {name!r}; available: {', '.join(sorted(groups))}"
            )
        return "flat", groups[name]
    try:
        with open(token, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise _ParseError(f"cannot read {token}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _ParseError(f"{token}: invalid JSON: {exc}") from exc
    return _group_from_description(data)


def _group_from_description(data):
    if not isinstance(data, dict):
        raise _ParseError("group description must be an object")
    space = data.get("space")
    if space == "flat":
        try:
            lattice = flat.Lattice(
                [[_fraction(x) for x in _items(row)] for row in _items(data["lattice"])]
            )
            cosets = tuple(
                (
                    [[_fraction(x) for x in _items(row)] for row in _items(c["rotation"])],
                    [_fraction(x) for x in _items(c["translation"])],
                )
                for c in _items(data["cosets"])
            )
        except (KeyError, TypeError) as exc:
            reason = _malformed(exc, data.get("cosets"))
            raise _ParseError(f"malformed flat group description: {reason}") from exc
        except ValueError as exc:
            raise _ParseError(str(exc)) from exc
        return "flat", flat.BieberbachGroup(lattice, cosets, name=data.get("name", ""))
    if space == "spherical":
        if "lens" in data:
            try:
                lens = data["lens"]
                big_n, q = _integer(lens["N"]), [_integer(x) for x in _items(lens["q"])]
                group = spherical.lens_space(big_n, q)
            except (KeyError, TypeError, ValueError) as exc:
                raise _ParseError(f"malformed lens description: {_malformed(exc, [lens])}") from exc
            return "spherical", group
        if "elements" in data:
            try:
                rows = [_items(e["angles"]) for e in _items(data["elements"])]
            except (KeyError, TypeError) as exc:
                reason = _malformed(exc, data["elements"])
                raise _ParseError(f"malformed element list: {reason}") from exc
            if not rows:
                raise _ParseError("element list is empty")
            return "spherical", spherical.SphericalGroup(len(rows[0]), rows)
        raise _ParseError("spherical group needs 'lens' or 'elements'")
    raise _ParseError("group description needs space: 'flat' or 'spherical'")


def _cutoff(arg: str) -> Fraction:
    cutoff = _fraction(arg)
    if cutoff < 0:
        raise _ParseError("cutoff must be nonnegative")
    return cutoff


def _degrees(p_arg: str, n: int) -> list[int]:
    if p_arg == "all":
        return list(range(n + 1))
    if ".." in p_arg:
        lo, hi = p_arg.split("..", 1)
        try:
            lo_i, hi_i = int(lo), int(hi)
        except ValueError as exc:
            raise _ParseError(f"bad degree range {p_arg!r}") from exc
        if not 0 <= lo_i <= hi_i <= n:
            raise _ParseError(f"degree range {p_arg!r} outside 0..{n}")
        return list(range(lo_i, hi_i + 1))
    try:
        p = int(p_arg)
    except ValueError as exc:
        raise _ParseError(f"bad degree {p_arg!r}") from exc
    if not 0 <= p <= n:
        raise _ParseError(f"degree {p} outside 0..{n}")
    return [p]


def _emit_rows(rows: list[tuple], header: tuple, fmt: str):
    if fmt == "csv":
        print(",".join(header))
        for row in rows:
            print(",".join(str(x) for x in row))
        return
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(header)
    ]
    print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)).rstrip())
    for row in rows:
        print("  ".join(str(x).ljust(w) for x, w in zip(row, widths)).rstrip())


def cmd_spectrum(args) -> int:
    space, group = _load_group(args.group)
    cutoff = _cutoff(args.cutoff)
    spectrum, prefix, factor = (
        (flat.spectrum, "4*pi^2*", 4 * math.pi**2) if space == "flat" else (spherical.p_spectrum, "", 1)
    )
    rows = [
        (p, f"{prefix}{lam}", repr(factor * float(lam)), mult)
        for p in _degrees(args.p, group.n)
        for lam, mult in spectrum(group, p, cutoff).entries.items()
    ]
    _emit_rows(rows, ("p", "eigenvalue_exact", "eigenvalue_float", "multiplicity"), args.format)
    return 0


def cmd_compare(args) -> int:
    space1, g1 = _load_group(args.group1)
    space2, g2 = _load_group(args.group2)
    if space1 != space2:
        print(f"cannot compare a {space1} group with a {space2} group", file=sys.stderr)
        return 4
    if g1.n != g2.n:
        print(f"dimension mismatch: {g1.n} vs {g2.n}", file=sys.stderr)
        return 4
    cutoff = _cutoff(args.cutoff)
    degrees = _degrees(args.p, g1.n)
    tau = args.mode == "tau"
    if space1 == "flat":
        if args.mode.startswith("half-"):
            raise _ParseError("half modes apply to spherical groups only")
        unit, scope, pieces, tau_scope = "mu", cutoff, flat._pieces, f"mu <= {cutoff}"
    else:
        # tau reads each family to the largest k with k^2 + k(n - 1) <= cutoff
        k_max = isqrt((g1.m - 1) ** 2 + int(cutoff)) - g1.m + 1
        scope, pieces = (k_max if tau else cutoff, tau), spherical._pieces
        unit, tau_scope = "lambda", f"k <= {k_max}"
    answers = [spectra.answer(g1, g2, p, scope, pieces, args.mode) for p in degrees]
    head = {"half-closed": " (closed)", "half-coclosed": " (coclosed)"}.get(args.mode, "")
    for p, res in zip(degrees, answers):
        if tau:
            print(f"p={p}: {'tau-equivalent' if res else 'not tau-equivalent'} ({tau_scope})")
        elif res.isospectral:
            print(f"p={p}{head}: spectra agree ({unit} <= {cutoff})")
        else:
            lam, d1, d2 = res.first_discrepancy
            print(f"p={p}{head}: spectra differ at {unit}={lam}: {d1} vs {d2}")
    return 0 if all(res if tau else res.isospectral for res in answers) else 1


def cmd_betti(args) -> int:
    space, group = _load_group(args.group)
    if space != "flat":
        print("betti is implemented for flat groups", file=sys.stderr)
        return 2
    values = [flat.betti(group, p) for p in _degrees(args.p, group.n)]
    print(" ".join(str(v) for v in values))
    return 0


def cmd_dict(args) -> int:
    lam = _fraction(args.lam)
    terms = hyperbolic.multiplicity_decomposition(args.n, args.p, lam)
    print(f"d_lambda(p={args.p}, lambda={lam}, H^{args.n}) = " + (
        " + ".join(f"n_Gamma({t})" for t in terms) if terms else "0"
    ))
    for t in terms:
        print(f"  {t}")
    return 0


def cmd_fixtures(args) -> int:
    for name, group in flat.fixtures().items():
        orient = "orientable" if flat.is_orientable(group) else "non-orientable"
        print(f"{name}  dim {group.n}  holonomy order {group.holonomy_order}  {orient}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing keeps no state in
    it, every call gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="curvspec",
        description="Spectra of constant-curvature space forms from representation data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="print a p-form spectrum")
    sp.add_argument("group", help="group file or fixture:<name>")
    sp.add_argument("--p", default="0", help="degree, 'all', or range a..b")
    sp.add_argument("--cutoff", required=True, help="lambda (spherical) or mu (flat) bound")
    sp.add_argument("--format", choices=("table", "csv"), default="table")
    sp.set_defaults(func=cmd_spectrum)

    cp = sub.add_parser("compare", help="compare two groups")
    cp.add_argument("group1")
    cp.add_argument("group2")
    cp.add_argument("--p", default="all", help="degree, 'all', or range a..b")
    cp.add_argument("--cutoff", required=True)
    cp.add_argument(
        "--mode",
        choices=("spec", "tau", "half-closed", "half-coclosed"),
        default="spec",
    )
    cp.set_defaults(func=cmd_compare)

    bt = sub.add_parser("betti", help="Betti numbers of a flat quotient")
    bt.add_argument("group")
    bt.add_argument("--p", default="all")
    bt.set_defaults(func=cmd_betti)

    dc = sub.add_parser("dict", help="hyperbolic eigenvalue dictionary")
    dc.add_argument("--n", type=int, required=True)
    dc.add_argument("--p", type=int, required=True)
    dc.add_argument("--lambda", dest="lam", required=True)
    dc.set_defaults(func=cmd_dict)

    fx = sub.add_parser("fixtures", help="list the built-in example groups")
    fx.set_defaults(func=cmd_fixtures)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 3
    except CurvspecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (_ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, MemoryError):
        pass  # reported below, once the traceback and the frames it holds are released
    gc.collect()  # a walk cut short leaves its memory in the reference cycle of its recursion
    print("error: input too large to compute", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
