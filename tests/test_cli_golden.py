"""Recorded command-line runs, replayed byte for byte.

`cli_golden.json` holds, for every case, the arguments, the JSON group files
the case reads, and the exit code, stdout and stderr the command gave when it
was recorded.  The cases are `spectrum --p all`, `betti` and
`compare --mode spec|tau` at cutoff 3 on every flat fixture and every pair
of fixtures of one dimension (plus one pair that differs in dimension), a
few valid groups given as files (among them L(7;1,2,3) with its angles
spelled in several ways, L(4;1,3) with decimal angles and the lens form of
L(10007;1,2,3)), malformed inputs (malformed angles among them), `compare` in
all four modes between lens spaces of order 7, the two refused comparisons
(a half mode on flat groups, a flat group against a spherical one), and the
spectra at lambda <= 200 of lens spaces of small order (the sphere L(1; 0, 0)
among them) with a tau comparison of L(7;1,2,3) and L(7;1,2,4) at that cutoff,
`compare --mode spec|tau` of L(5;1,1,1) and L(5;1,1,2) at lambda <= 5 (tau
reads each family to k <= K, beyond the cutoff), and the csv spectra of three
deep rows: L(5;1,2) at lambda <= 2000, L(7;1,2,3,1) at lambda <= 300 and
L(10007;1,2,3) at lambda <= 2000, and the spectra of flat8_a and flat8_b at
mu <= 16 (recorded from the dual-ball walk) and at mu <= 200, the list of
fixtures, and five hyperbolic dictionary entries, three of them at lambda = 0
(n = 4, p = 2; n = 5, p = 2, with two Langlands terms; n = 4, p = 0).  Last
come the exits of argparse itself, usage and help wrapped at 80 columns: no
arguments, an unknown command, `spectrum` without its required `--cutoff`,
with an unknown option, and with a `--format` outside its choices, and the
help of `spectrum` and of the whole program.  To record the file again with
the library on the path:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from curvspec import cli, flat, spherical

GOLDEN = Path(__file__).with_name("cli_golden.json")

_I2 = [["1", "0"], ["0", "1"]]
_REFL = [["1", "0"], ["0", "-1"]]


def _flat(lattice, *cosets):
    return {
        "space": "flat",
        "lattice": lattice,
        "cosets": [{"rotation": r, "translation": t} for r, t in cosets],
    }


def _elements(*angles):
    return {"space": "spherical", "elements": [{"angles": list(a)} for a in angles]}


# valid groups given as files: file name -> (description, commands after the file name)
_VALID = {
    # the Klein bottle of Z x (10/3)Z on the basis U B with U = ((2, 1), (1, 1)),
    # scaled by 1/2, its glide moved by a rational origin shift
    "klein_skew.json": (
        _flat([["1", "5/3"], ["1/2", "5/3"]], (_I2, ["0", "0"]), (_REFL, ["3/4", "-3/5"])),
        [["spectrum", "--p", "all", "--cutoff", "3"], ["betti"]],
    ),
    "klein_far.json": (
        _flat([["1", "0"], ["0", "2"]], (_I2, ["0", "0"]), (_REFL, ["20000000000000001/2", "0"])),
        [["spectrum", "--p", "all", "--cutoff", "3"], ["betti"]],
    ),
    "lens7.json": (
        _elements(*([f"{t * q % 7}/7" for q in (1, 2, 3)] for t in (3, 0, 6, 1, 5, 2, 4))),
        [["spectrum", "--p", "all", "--cutoff", "40", "--format", "csv"]],
    ),
    # L(7;1,2,3) again, its angles in other spellings of the same residues
    "lens7_spellings.json": (
        _elements(
            [0, 1, "0"],
            ["2/14", "2/7", "3/7"],
            ["2/7", "4/7", "6/7"],
            ["3/7", "6/7", "2/7"],
            ["4/7", " 1/7 ", "5/7"],
            ["5/7", "3/7", "8/7"],
            ["-1/7", "5/7", "4/7"],
        ),
        [["spectrum", "--p", "all", "--cutoff", "40", "--format", "csv"]],
    ),
    "lens4_decimal.json": (
        _elements(["0", "0"], ["0.25", "0.75"], ["0.5", "0.5"], ["0.75", "0.25"]),
        [["spectrum", "--p", "all", "--cutoff", "40", "--format", "csv"]],
    ),
    "lens10007.json": (
        {"space": "spherical", "lens": {"N": 10007, "q": [1, 2, 3]}},
        [["spectrum", "--p", "all", "--cutoff", "40"]],
    ),
}

# malformed or invalid groups: each is asked for its spectrum
_INVALID = {
    "wrong_dimension.json": _flat(_I2, (_I2, ["0", "0", "0"])),
    "wrong_rotation_size.json": _flat(_I2, (_I2, ["0", "0"]), ([["1"]], ["0", "0"])),
    "ragged.json": _flat([["1", "0"], ["0"]], (_I2, ["0", "0"])),
    "singular.json": _flat([["1", "2"], ["2", "4"]], (_I2, ["0", "0"])),
    "empty_lattice.json": _flat([], (_I2, ["0", "0"])),
    "no_cosets.json": _flat(_I2),
    "not_orthogonal.json": _flat(_I2, (_I2, ["0", "0"]), ([["1", "1"], ["0", "1"]], ["0", "0"])),
    "not_closed.json": _flat(_I2, (_I2, ["0", "0"]), (_REFL, ["1/3", "0"])),
    "torsion.json": _flat(_I2, (_I2, ["0", "0"]), (_REFL, ["0", "1/2"])),
    "fixed_point.json": _flat(_I2, (_I2, ["0", "0"]), ([["-1", "0"], ["0", "-1"]], ["1/2", "1/2"])),
    "float_lattice.json": _flat([[1.0, 0], [0, 1]], (_I2, ["0", "0"])),
    "float_translation.json": _flat(_I2, (_I2, [0.0, "0"])),
    "sph_empty.json": _elements(),
    "sph_not_free.json": _elements(["0", "0"], ["1/2", "0"]),
    "sph_not_closed.json": _elements(["0", "0"], ["1/3", "1/3"], ["2/3", "2/3"], ["1/2", "1/2"]),
    "sph_duplicate.json": _elements(["0", "0"], ["1/2", "1/2"], ["3/2", "1/2"]),
    "sph_float.json": _elements([0.5, "1/2"]),
    "lens_not_coprime.json": {"space": "spherical", "lens": {"N": 4, "q": [1, 2]}},
    "sph_zero_denominator.json": _elements(["0", "0"], ["1/0", "1/2"]),
    "sph_word.json": _elements(["0", "0"], ["abc", "1/2"]),
    "sph_blank.json": _elements(["0", "0"], ["", "1/2"]),
    "sph_null.json": _elements(["0", "0"], [None, "1/2"]),
    "sph_bool.json": _elements(["0", "0"], [True, "1/2"]),
    "sph_nested.json": _elements(["0", "0"], [["1/2"], "1/2"]),
    "sph_no_angles.json": {
        "space": "spherical",
        "elements": [{"angles": ["0", "0"]}, {"angle": ["1/2", "1/2"]}],
    },
}

# lens spaces compared with lens7.json = L(7;1,2,3): L(7;1,2,4) agrees in every
# mode, L(7;1,1,2) differs
_LENSES = {
    "lens7_124.json": {"space": "spherical", "lens": {"N": 7, "q": [1, 2, 4]}},
    "lens7_112.json": {"space": "spherical", "lens": {"N": 7, "q": [1, 1, 2]}},
}

# a pair whose spectra agree at lambda <= 5 while tau, read to k <= 1 in every
# family, differs at k = 1 of family 2, which lies at lambda = 8
_TAU_SCOPE = {
    "lens5_111.json": {"space": "spherical", "lens": {"N": 5, "q": [1, 1, 1]}},
    "lens5_112.json": {"space": "spherical", "lens": {"N": 5, "q": [1, 1, 2]}},
}

# lens forms with N <= 2R at lambda <= 200, R the largest 1-norm of a weight
# there, so a congruence class mod N holds several values of one coordinate;
# N = 1 is the sphere itself
_CENSUS = {
    "lens3_11.json": (3, [1, 1]),
    "lens4_13.json": (4, [1, 3]),
    "lens2_111.json": (2, [1, 1, 1]),
    "lens1_00.json": (1, [0, 0]),
    "lens7_1231.json": (7, [1, 2, 3, 1]),
}

# deep rows: lens forms far up the spectrum, file name -> (N, q, cutoff)
_DEEP = {
    "lens5_12.json": (5, [1, 2], "2000"),
    "lens7_1231.json": (7, [1, 2, 3, 1], "300"),
    "lens10007.json": (10007, [1, 2, 3], "2000"),
}

# deep flat rows: (fixture, cutoff)
_DEEP_FLAT = (("flat8_a", "16"), ("flat8_b", "16"), ("flat8_a", "200"), ("flat8_b", "200"))

# hyperbolic dictionary entries: (n, p, lambda)
_DICT = (("4", "2", "0"), ("5", "2", "0"), ("4", "0", "0"), ("5", "2", "3"), ("3", "0", "-1"))

# command lines that argparse itself answers, with an error or with help
_ARGPARSE = (
    [],
    ["bogus"],
    ["spectrum", "fixture:klein_a"],
    ["spectrum", "fixture:klein_a", "--cutoff", "3", "--bogus"],
    ["spectrum", "fixture:klein_a", "--cutoff", "3", "--format", "xml"],
    ["spectrum", "-h"],
    ["-h"],
)


def cases():
    """(argv, {file name: description}) for every recorded case."""
    table = flat.fixtures()
    names = sorted(table)
    out = []
    for name in names:
        out.append((["spectrum", f"fixture:{name}", "--p", "all", "--cutoff", "3"], {}))
        out.append((["betti", f"fixture:{name}"], {}))
    pairs = [(a, b) for a, b in itertools.combinations(names, 2) if table[a].n == table[b].n]
    for a, b in [*pairs, ("flat4_a", "klein_a")]:
        for mode in ("spec", "tau"):
            argv = ["compare", f"fixture:{a}", f"fixture:{b}", "--cutoff", "3", "--mode", mode]
            out.append((argv, {}))
    for file, (data, commands) in _VALID.items():
        for command, *rest in commands:
            out.append(([command, file, *rest], {file: data}))
    skew = {"klein_skew.json": _VALID["klein_skew.json"][0]}
    for mode in ("spec", "tau"):
        argv = ["compare", "klein_skew.json", "fixture:klein_a", "--cutoff", "3", "--mode", mode]
        out.append((argv, skew))
    for file, data in _INVALID.items():
        out.append((["spectrum", file, "--p", "all", "--cutoff", "3"], {file: data}))
    lens7 = {"lens7.json": _VALID["lens7.json"][0]}
    for file, data in _LENSES.items():
        for mode in ("spec", "tau", "half-closed", "half-coclosed"):
            argv = ["compare", "lens7.json", file, "--p", "all", "--cutoff", "40", "--mode", mode]
            out.append((argv, {**lens7, file: data}))
    out.append((["compare", "fixture:klein_a", "fixture:klein_b", "--cutoff", "3",
                 "--mode", "half-closed"], {}))
    out.append((["compare", "fixture:flat4_a", "lens7.json", "--cutoff", "3"], lens7))
    for file, (big_n, q) in _CENSUS.items():
        data = {"space": "spherical", "lens": {"N": big_n, "q": q}}
        out.append((["spectrum", file, "--p", "all", "--cutoff", "200"], {file: data}))
    argv = ["compare", "lens7.json", "lens7_124.json", "--cutoff", "200", "--mode", "tau"]
    out.append((argv, {**lens7, "lens7_124.json": _LENSES["lens7_124.json"]}))
    for mode in ("spec", "tau"):
        argv = ["compare", *_TAU_SCOPE, "--cutoff", "5", "--mode", mode]
        out.append((argv, _TAU_SCOPE))
    for file, (big_n, q, cutoff) in _DEEP.items():
        data = {"space": "spherical", "lens": {"N": big_n, "q": q}}
        argv = ["spectrum", file, "--p", "all", "--cutoff", cutoff, "--format", "csv"]
        out.append((argv, {file: data}))
    for name, cutoff in _DEEP_FLAT:
        out.append((["spectrum", f"fixture:{name}", "--p", "all", "--cutoff", cutoff], {}))
    out.append((["fixtures"], {}))
    for n, p, lam in _DICT:
        out.append((["dict", "--n", n, "--p", p, "--lambda", lam], {}))
    out.extend((argv, {}) for argv in _ARGPARSE)
    return out


def _run(argv, files, workdir):
    """Exit code, stdout and stderr of one in-process CLI run in workdir,
    after writing the group files it reads there; an exit of argparse gives
    the code of its SystemExit, its text wrapped at 80 columns."""
    for file, data in files.items():
        (Path(workdir) / file).write_text(json.dumps(data))
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
                code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "case", json.loads(GOLDEN.read_text()), ids=lambda case: " ".join(case["argv"])
)
def test_cli_output_matches_the_recording(case, tmp_path):
    got = _run(case["argv"], case["files"], tmp_path)
    assert got == (case["code"], case["stdout"], case["stderr"])


def test_deep_lens_rows_replay_on_one_lattice_count_each(monkeypatch, tmp_path):
    # the spectra in every degree read one count of the lens lattice, sized
    # for every family at the cutoff
    runs = []
    real = spherical._LatticeCounts.up_to

    def counted(self, radius):
        runs.append(radius > self.radius)
        return real(self, radius)

    monkeypatch.setattr(spherical._LatticeCounts, "up_to", counted)
    deep = [case for case in json.loads(GOLDEN.read_text()) if set(case["files"]) <= set(_DEEP)]
    deep = [case for case in deep if case["argv"][:1] == ["spectrum"] and "csv" in case["argv"]]
    assert len(deep) == len(_DEEP)
    for case in deep:
        runs.clear()
        got = _run(case["argv"], case["files"], tmp_path)
        assert got == (case["code"], case["stdout"], case["stderr"])
        assert runs.count(True) == 1


if __name__ == "__main__":
    recorded = []
    with tempfile.TemporaryDirectory() as workdir:
        for argv, files in cases():
            code, out, err = _run(argv, files, workdir)
            recorded.append(
                {"argv": argv, "files": files, "code": code, "stdout": out, "stderr": err}
            )
    GOLDEN.write_text(json.dumps(recorded, indent=1) + "\n")
    print(f"{len(recorded)} cases written to {GOLDEN}", file=sys.stderr)
