"""Recorded outcomes of building flat groups, replayed exactly.

`flat_construction_golden.json` holds, for each case below, what
`Lattice(...)` and `BieberbachGroup(...)` made of the input: the stored
cosets, the integer cosets `_holonomy`, the denominator D, the Betti numbers
and the class of the coordinates, or the type and text of the exception that
refused it.  The cases are every fixture, as given and re-presented, on the
frame (where the lattice has one) and on the basis coordinates, with no
change and with each change of `test_flat._mutated`; every fixture with its
entries given as int, Fraction, str, float and a mix of them; and inputs
with two faults, whose refusal depends on which fault is met first.  To
record the file again with the library on the path:

    PYTHONPATH=src python tests/test_flat_construction.py
"""

import json
import random
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

from curvspec.flat import BieberbachGroup, Lattice, fixtures
from test_flat import _KLEIN_Z2, _mutated, _on_basis, _re_present

GOLDEN = Path(__file__).with_name("flat_construction_golden.json")

_KINDS = ("none", "drop", "move", "swap", "rotation", "add")
_HALF = Fraction(1, 2)
_I2 = ((1, 0), (0, 1))
_REFL = ((1, 0), (0, -1))
_SWAP = ((0, 1), (1, 0))
_SHEAR = ((1, 1), (0, 1))
_RECT = ((1, 0), (0, 2))  # Z x 2Z: no cubic frame, so the basis coordinates


def _outcome(build) -> list:
    try:
        g = build()
    except Exception as exc:  # the refusal is recorded, whatever its type
        return [type(exc).__name__, str(exc)]
    holonomy = tuple(tuple(c) for c in g._holonomy)
    return [repr(g.cosets), repr(holonomy), g._denom, repr(g._betti), type(g._coords).__name__]


def _spelled(x, kind: str, k: int):
    """x spelled as the given kind of entry; "mixed" cycles through them."""
    if kind == "mixed":
        kind = ("int", "fraction", "str", "float")[k % 4]
    if kind == "int" and Fraction(x).denominator == 1:
        return int(x)
    if kind == "str":
        return str(Fraction(x))
    if kind == "float":
        return float(x)
    return Fraction(x)


def _respelled(group, kind: str) -> tuple:
    """(basis, cosets) of the group with every entry spelled as `kind`."""
    count = iter(range(10**6))

    def rows(m):
        return [[_spelled(x, kind, next(count)) for x in row] for row in m]

    basis = rows(group.lattice.basis)
    return basis, [(rows(b), [_spelled(x, kind, next(count)) for x in t]) for b, t in group.cosets]


def _built(basis, cosets):
    return lambda: BieberbachGroup(Lattice(basis), cosets)


# inputs with two faults: (name, basis, cosets); the outcome names the one met first
_TWO_FAULTS = (
    ("wrong_dimension_then_ragged", _I2, [(_I2, (0, 0)), (_REFL, (_HALF,)), (((1, 0), (0,)), (0, 0))]),
    ("ragged_then_wrong_dimension", _I2, [(_I2, (0, 0)), (((1, 0), (0,)), (0, 0)), (_REFL, (_HALF,))]),
    ("wrong_rows_then_ragged", _I2, [(_I2, (0, 0)), (((1, 0),), (0, 0)), (((1,), (0, 1)), (0, 0))]),
    ("non_orthogonal_then_bad_number", _I2, [(_I2, (0, 0)), (_SHEAR, (0, 0)), (_REFL, (_HALF, "x"))]),
    ("non_orthogonal_then_bad_rotation", _I2, [(_I2, (0, 0)), (_SHEAR, (0, 0)), (((1, "y"), (0, 1)), (0, 0))]),
    ("non_orthogonal_then_none", _I2, [(_I2, (0, 0)), (_SHEAR, (0, 0)), (_REFL, (None, 0))]),
    ("repeat_then_non_lattice_shift", _I2, [(_I2, (0, _HALF)), (_REFL, (_HALF, 0)), (_REFL, (_HALF, 0))]),
    ("repeat_then_non_orthogonal", _I2, [(_I2, (0, 0)), (_REFL, (_HALF, 0)), (_REFL, (0, 0)), (_SHEAR, (0, 0))]),
    ("non_orthogonal_then_repeat", _I2, [(_I2, (0, 0)), (_SHEAR, (0, 0)), (_REFL, (0, 0)), (_REFL, (0, 0))]),
    ("wrong_dimension_then_repeat", _I2, [(_I2, (0, 0)), (_REFL, (0, 0, 0)), (_REFL, (_HALF, 0))]),
    ("repeat_then_wrong_dimension", _I2, [(_I2, (0, 0)), (_REFL, (0, 0)), (_REFL, (_HALF, 0)), (_I2, (0,))]),
    ("non_orthogonal_then_wrong_dimension", _I2, [(_I2, (0, 0)), (_SHEAR, (0, 0)), (_REFL, (0,))]),
    ("wide_rotation_then_wrong_dimension", _I2, [(_I2, (0, 0)), (((1, 0, 0), (0, 1, 0)), (0, 0)), (_REFL, (0,))]),
    ("repeat_then_missing_identity", _I2, [(_REFL, (_HALF, 0)), (_REFL, (_HALF, 0))]),
    ("non_lattice_identity_then_not_closed", _I2, [(_I2, (0, _HALF)), (_REFL, (Fraction(1, 3), 0))]),
    ("missing_identity_then_torsion", _I2, [(_REFL, (0, _HALF)), (((-1, 0), (0, -1)), (0, 0))]),
    ("not_closed_then_torsion", _I2, [(_I2, (0, 0)), (_REFL, (0, _HALF)), (_SWAP, (0, 0))]),
    ("fixed_point_then_torsion", _I2, [(_I2, (0, 0)), (((-1, 0), (0, -1)), (0, 0))]),
    ("rectangle_not_preserved_then_repeat", _RECT, [(_I2, (0, 0)), (_SWAP, (0, 0)), (_SWAP, (0, 0))]),
    ("rectangle_repeat_then_not_preserved", _RECT, [(_I2, (0, 0)), (_REFL, (0, 0)), (_REFL, (0, 0)), (_SWAP, (0, 0))]),
    ("rectangle_wrong_dimension_then_ragged", _RECT, [(_I2, (0, 0)), (_REFL, (0,)), (((1,), (0, 1)), (0, 0))]),
    ("rectangle_non_lattice_identity", _RECT, [(_I2, (0, 1)), (_REFL, (_HALF, 0))]),
    ("rectangle_klein", _RECT, [(_I2, (0, 0)), (_REFL, (_HALF, 0))]),
    ("ragged_lattice_then_ragged_coset", ((1, 0), (0,)), [(((1, 0), (0,)), (0, 0))]),
    ("bad_lattice_then_bad_coset", ((1, 0), (0, "z")), [(_I2, ("x", 0))]),
    ("non_square_lattice", ((1, 0, 0), (0, 1, 0)), [(_I2, (0, 0))]),
    ("singular_lattice", ((1, 2), (2, 4)), [(_I2, (0, 0))]),
    ("empty_lattice", (), [((), ())]),
    ("bool_entries", ((True, False), (False, True)), [((( True, False), (False, True)), (False, False))]),
    ("decimal_entries", ((Decimal("0.5"), 0), (0, Decimal("0.5"))), [(_I2, (0, 0)), (_REFL, (Decimal("0.25"), 0))]),
    ("float_third", _I2, [(_I2, (0, 0)), (_REFL, (1 / 3, 0))]),
    ("string_quarter_turn", _I2, [(_I2, ("0", "0")), ((("0", "-1"), ("1", "0")), (" 1/4", "1/2"))]),
    ("dilated_cube", ((Fraction(3, 2), 0), (0, Fraction(3, 2))), [(_I2, (0, 0)), (_REFL, (Fraction(3, 4), 0))]),
    ("dilated_cube_off_shift", ((Fraction(3, 2), 0), (0, Fraction(3, 2))), [(_I2, (0, 0)), (_REFL, (_HALF, 0))]),
)


def cases() -> list[tuple[str, object]]:
    """(id, build) for every case; build() makes the group."""
    out = []
    table = dict(fixtures())
    table["klein_z2"] = BieberbachGroup(Lattice(_I2), _KLEIN_Z2)
    for name, group in sorted(table.items()):
        for moved in (False, True):
            for on_basis in (False, True):
                for kind in _KINDS:
                    rng = random.Random(f"{name}:{moved}:{on_basis}:{kind}")
                    g = _re_present(group, rng) if moved else group
                    cosets = _mutated(list(g.cosets), kind, g.lattice, rng)
                    if on_basis:
                        build = lambda lat=g.lattice, cosets=cosets: _on_basis(lat, cosets)
                    else:
                        build = _built(g.lattice.basis, cosets)
                    out.append((f"{name}:{'moved' if moved else 'plain'}:{'basis' if on_basis else 'frame'}:{kind}", build))
        for kind in ("int", "fraction", "str", "float", "mixed"):
            for moved in (False, True):
                g = _re_present(group, random.Random(f"{name}:{kind}")) if moved else group
                out.append((f"{name}:{'moved' if moved else 'plain'}:{kind}", _built(*_respelled(g, kind))))
    out += [(f"two_faults:{name}", _built(basis, cosets)) for name, basis, cosets in _TWO_FAULTS]
    return out


def test_construction_reproduces_every_recorded_outcome():
    golden = json.loads(GOLDEN.read_text())
    built = cases()
    found = {case_id: _outcome(build) for case_id, build in built}
    assert len(found) == len(built) == len(golden)
    assert [case_id for case_id, got in found.items() if got != golden[case_id]] == []
    # the cases refuse and accept on both coordinates
    kinds = {tuple(v[:1]) if len(v) == 2 else v[-1] for v in golden.values()}
    assert {("ValueError",), ("InvariantViolation",), "_OnFrame", "_OnBasis"} <= kinds


if __name__ == "__main__":
    recorded = {case_id: _outcome(build) for case_id, build in cases()}
    GOLDEN.write_text(json.dumps(recorded, indent=0) + "\n")
    print(f"{len(recorded)} cases written to {GOLDEN}", file=sys.stderr)
