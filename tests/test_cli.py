"""Command-line interface: parsing, exit codes, output formats."""

import collections
import json
from fractions import Fraction

import pytest

from curvspec import cli, flat, ratlinalg


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, payload, name="group.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


S3 = {"space": "spherical", "elements": [{"angles": ["0", "0"]}]}
RP3 = {
    "space": "spherical",
    "elements": [{"angles": ["0", "0"]}, {"angles": ["1/2", "1/2"]}],
}
MODES = ("spec", "tau", "half-closed", "half-coclosed")


# ---------------------------------------------------------------- spectrum


def test_spectrum_fixture_table(capsys):
    code, out, _ = run(capsys, "spectrum", "fixture:flat8_a", "--p", "0", "--cutoff", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["p", "eigenvalue_exact", "eigenvalue_float", "multiplicity"]
    assert lines[1].split() == ["0", "4*pi^2*0", "0.0", "1"]
    assert lines[2].split() == ["0", "4*pi^2*1", "39.47841760435743", "6"]


def test_spectrum_csv_format(capsys):
    code, out, _ = run(
        capsys, "spectrum", "fixture:flat8_a", "--p", "0", "--cutoff", "1",
        "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p,eigenvalue_exact,eigenvalue_float,multiplicity"
    assert lines[2] == "0,4*pi^2*1,39.47841760435743,6"
    assert all(len(line.split(",")) == 4 for line in lines)


def test_spectrum_spherical_trivial_group(capsys, tmp_path):
    path = write_json(tmp_path, S3)
    code, out, _ = run(capsys, "spectrum", path, "--p", "0", "--cutoff", "10")
    assert code == 0
    rows = [line.split() for line in out.splitlines()[1:]]
    assert [(r[1], r[3]) for r in rows] == [("0", "1"), ("3", "4"), ("8", "9")]


def test_spectrum_degree_range(capsys):
    code, out, _ = run(
        capsys, "spectrum", "fixture:klein_a", "--p", "0..1", "--cutoff", "1/4",
    )
    assert code == 0
    degrees = {line.split()[0] for line in out.splitlines()[1:]}
    assert degrees == {"0", "1"}


def test_spectrum_malformed_rational_exits_2(capsys, tmp_path):
    payload = {
        "space": "flat",
        "lattice": [["1", "0"], ["0", "1/0"]],
        "cosets": [{"rotation": [["1", "0"], ["0", "1"]], "translation": ["0", "0"]}],
    }
    code, _, err = run(capsys, "spectrum", write_json(tmp_path, payload), "--p", "0", "--cutoff", "1")
    assert code == 2
    assert "1/0" in err


def test_spectrum_float_rational_rejected(capsys, tmp_path):
    payload = {
        "space": "flat",
        "lattice": [[1.5, 0], [0, 1]],
        "cosets": [{"rotation": [["1", "0"], ["0", "1"]], "translation": ["0", "0"]}],
    }
    code, _, err = run(capsys, "spectrum", write_json(tmp_path, payload), "--p", "0", "--cutoff", "1")
    assert code == 2


def test_spectrum_invariant_violation_exits_3(capsys, tmp_path):
    path = write_json(tmp_path, {"space": "spherical", "lens": {"N": 4, "q": [1, 2]}})
    code, _, err = run(capsys, "spectrum", path, "--p", "0", "--cutoff", "10")
    assert code == 3
    assert "free" in err


@pytest.mark.parametrize(
    "lens",
    [
        {"N": 7.9, "q": [1, 2.5]},
        {"N": True, "q": [True, True]},
        {"N": 7, "q": [1, 2.0]},
        {"N": 7.0, "q": [1, 2]},
        {"N": 7, "q": [1, False]},
    ],
    ids=json.dumps,
)
def test_lens_form_refuses_non_integers(capsys, tmp_path, lens):
    path = write_json(tmp_path, {"space": "spherical", "lens": lens})
    code, out, err = run(capsys, "spectrum", path, "--p", "0", "--cutoff", "10")
    assert (code, out) == (2, "")
    assert err.startswith("error: malformed lens description: bad integer")


def test_lens_form_takes_integers_and_integer_strings(capsys, tmp_path):
    outs = set()
    for lens in ({"N": 7, "q": [1, 2]}, {"N": "7", "q": ["1", " 2 "]}):
        path = write_json(tmp_path, {"space": "spherical", "lens": lens})
        code, out, _ = run(capsys, "spectrum", path, "--p", "all", "--cutoff", "30")
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


_I2 = [["1", "0"], ["0", "1"]]


def _torus(lattice=_I2, rotation=_I2, translation=("0", "0")):
    coset = {"rotation": rotation, "translation": translation}
    return {"space": "flat", "lattice": lattice, "cosets": [coset]}


@pytest.mark.parametrize(
    "payload, message",
    [
        # a string or an object where a list belongs was read as its
        # characters or keys: these ran as S^3, L(7;1,2) and the 2-torus
        ({"space": "spherical", "elements": [{"angles": "00"}]}, "element list"),
        ({"space": "spherical", "elements": {"0": {"angles": ["0", "0"]}}}, "element list"),
        ({"space": "spherical", "lens": {"N": 7, "q": "12"}}, "lens description"),
        ({"space": "spherical", "lens": {"N": 7, "q": {"1": 0, "2": 0}}}, "lens description"),
        (_torus(lattice=["10", "01"], translation="00"), "flat group description"),
        (_torus(lattice={"10": 0, "01": 0}), "flat group description"),
        (_torus(rotation=["10", "01"]), "flat group description"),
        (_torus(rotation="10"), "flat group description"),
        (_torus(translation="00"), "flat group description"),
        ({**_torus(), "cosets": {"0": 0}}, "flat group description"),
    ],
    ids=lambda x: json.dumps(x) if isinstance(x, dict) else x,
)
def test_a_string_or_object_for_a_list_exits_2(capsys, tmp_path, payload, message):
    path = write_json(tmp_path, payload)
    for argv in (["spectrum", path, "--p", "all", "--cutoff", "10"], ["betti", path]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: malformed {message}: expected a list")


@pytest.mark.parametrize(
    "payload, message, got",
    [
        # indexing these by a key leaked Python's own TypeError text
        ({**_torus(), "cosets": [_torus()["cosets"][0], 1]}, "flat group description", "1"),
        ({**_torus(), "cosets": [["1", "0"]]}, "flat group description", "['1', '0']"),
        ({**_torus(), "cosets": ["10"]}, "flat group description", "'10'"),
        ({"space": "spherical", "elements": [{"angles": ["0"]}, None]}, "element list", "None"),
        ({"space": "spherical", "elements": [["0", "0"]]}, "element list", "['0', '0']"),
        ({"space": "spherical", "lens": [7, [1, 2]]}, "lens description", "[7, [1, 2]]"),
        ({"space": "spherical", "lens": "L(7;1,2)"}, "lens description", "'L(7;1,2)'"),
    ],
    ids=lambda x: json.dumps(x) if isinstance(x, dict) else x,
)
def test_a_value_for_an_object_exits_2_naming_it(capsys, tmp_path, payload, message, got):
    path = write_json(tmp_path, payload)
    for argv in (["spectrum", path, "--p", "all", "--cutoff", "10"], ["betti", path]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: malformed {message}: expected an object, got {got}\n"


def test_a_list_is_named_before_a_later_value_for_an_object(capsys, tmp_path):
    # the first fault met is reported: a string rotation before a coset that is not an object
    payload = {**_torus(rotation="10"), "cosets": [_torus(rotation="10")["cosets"][0], 1]}
    code, _, err = run(capsys, "betti", write_json(tmp_path, payload))
    assert (code, err) == (2, "error: malformed flat group description: expected a list, got '10'\n")


def test_spectrum_torsion_exits_3(capsys, tmp_path):
    payload = {
        "space": "flat",
        "lattice": [["1", "0"], ["0", "1"]],
        "cosets": [
            {"rotation": [["1", "0"], ["0", "1"]], "translation": ["0", "0"]},
            {"rotation": [["1", "0"], ["0", "-1"]], "translation": ["0", "1/2"]},
        ],
    }
    code, _, err = run(capsys, "spectrum", write_json(tmp_path, payload), "--p", "0", "--cutoff", "1")
    assert code == 3


def test_unknown_fixture_exits_2(capsys):
    code, _, err = run(capsys, "spectrum", "fixture:nope", "--p", "0", "--cutoff", "1")
    assert code == 2


# ---------------------------------------------------------------- compare


def test_compare_eight_dimensional_pair(capsys):
    code, out, _ = run(
        capsys, "compare", "fixture:flat8_a", "fixture:flat8_b",
        "--p", "all", "--cutoff", "2",
    )
    assert code == 1
    differ = {
        int(line.split(":")[0][2:])
        for line in out.splitlines()
        if "differ" in line
    }
    assert differ == {0, 4, 8}


def test_compare_four_dimensional_pair_middle_degree(capsys):
    code, out, _ = run(
        capsys, "compare", "fixture:flat4_m24", "fixture:flat4_m25",
        "--p", "1", "--cutoff", "3",
    )
    assert code == 0
    assert "agree" in out


def test_compare_group_with_itself(capsys):
    for mode in ("spec", "tau"):
        code, out, _ = run(
            capsys, "compare", "fixture:flat4_a", "fixture:flat4_a",
            "--p", "all", "--cutoff", "2", "--mode", mode,
        )
        assert code == 0


def test_compare_tau_mode_flat(capsys):
    code, out, _ = run(
        capsys, "compare", "fixture:flat8_a", "fixture:flat8_b",
        "--p", "all", "--cutoff", "2", "--mode", "tau",
    )
    assert code == 1
    assert all("not tau-equivalent" in line for line in out.splitlines())


def test_compare_spherical_modes(capsys, tmp_path):
    s3, rp3 = write_json(tmp_path, S3, "s3.json"), write_json(tmp_path, RP3, "rp3.json")
    code, out, _ = run(capsys, "compare", s3, rp3, "--p", "0", "--cutoff", "10")
    assert code == 1
    assert "lambda=3: 4 vs 0" in out
    code, out, _ = run(
        capsys, "compare", s3, rp3, "--p", "1", "--cutoff", "10",
        "--mode", "half-coclosed",
    )
    assert code == 1
    code, out, _ = run(
        capsys, "compare", rp3, rp3, "--p", "1", "--cutoff", "10",
        "--mode", "half-closed",
    )
    assert code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "fixture:klein_a"],
        ["spectrum", "S3"],
        *(["compare", "fixture:klein_a", "fixture:klein_b", "--mode", mode] for mode in MODES),
        *(["compare", "S3", "RP3", "--mode", mode] for mode in MODES),
    ],
    ids=" ".join,
)
def test_negative_cutoff_exits_2_in_every_mode(capsys, tmp_path, argv):
    files = {"S3": write_json(tmp_path, S3, "s3.json"), "RP3": write_json(tmp_path, RP3, "rp3.json")}
    argv = [files.get(a, a) for a in argv]
    code, out, err = run(capsys, *argv, "--p", "0", "--cutoff", "-1")
    assert (code, out, err) == (2, "", "error: cutoff must be nonnegative\n")


@pytest.mark.parametrize(
    "argv",
    [["spectrum", "fixture:flat4_a"], ["compare", "fixture:flat4_a", "fixture:flat4_b"]],
    ids=" ".join,
)
def test_a_cutoff_too_large_to_compute_exits_2(capsys, argv):
    # 1e400 is exact, but no list of that length can be built
    code, out, err = run(capsys, *argv, "--cutoff", "1e400")
    assert (code, out, err) == (2, "", "error: input too large to compute\n")
    assert "Traceback" not in err


def test_compare_dimension_mismatch_exits_4(capsys):
    code, _, err = run(
        capsys, "compare", "fixture:klein_a", "fixture:flat4_a",
        "--p", "0", "--cutoff", "1",
    )
    assert code == 4
    assert "dimension mismatch" in err


def test_compare_space_mismatch_exits_4(capsys, tmp_path):
    s3 = write_json(tmp_path, S3)
    code, _, err = run(
        capsys, "compare", "fixture:klein_a", s3, "--p", "0", "--cutoff", "1",
    )
    assert code == 4


def test_compare_half_mode_rejected_for_flat(capsys):
    code, _, err = run(
        capsys, "compare", "fixture:klein_a", "fixture:klein_b",
        "--p", "0", "--cutoff", "1", "--mode", "half-closed",
    )
    assert code == 2


# ---------------------------------------------------------------- betti/dict


def test_betti_klein(capsys):
    code, out, _ = run(capsys, "betti", "fixture:klein_a", "--p", "all")
    assert code == 0
    assert out.strip() == "1 1 0"


def test_betti_requires_flat_group(capsys, tmp_path):
    code, _, err = run(capsys, "betti", write_json(tmp_path, S3), "--p", "all")
    assert code == 2


def test_dict_middle_degree(capsys):
    code, out, _ = run(capsys, "dict", "--n", "4", "--p", "2", "--lambda", "0")
    assert code == 0
    assert "n_Gamma(D_2^+ (+) D_2^-)" in out


def test_dict_function_eigenvalue(capsys):
    code, out, _ = run(capsys, "dict", "--n", "3", "--p", "0", "--lambda", "2")
    assert code == 0
    assert "pi(sigma_0, nu=1*i)" in out


def test_dict_rational_lambda(capsys):
    code, out, _ = run(capsys, "dict", "--n", "3", "--p", "0", "--lambda", "3/4")
    assert code == 0
    assert "nu=1/2" in out


def test_fixtures_listing(capsys):
    code, out, _ = run(capsys, "fixtures")
    assert code == 0
    names = {line.split()[0] for line in out.splitlines()}
    assert names == set(flat.fixtures())


# ------------------------------------------------------ element-list angles


def _lens_elements(big_n, q, spell=str):
    """The element list of L(N; q), each angle t q_j / N written by spell."""
    angles = [[Fraction(t * x % big_n, big_n) for x in q] for t in range(big_n)]
    return {"space": "spherical", "elements": [{"angles": list(map(spell, a))} for a in angles]}


def _spectrum_csv(capsys, tmp_path, payload, name="group.json"):
    return run(capsys, "spectrum", write_json(tmp_path, payload, name), "--p", "all",
               "--cutoff", "40", "--format", "csv")


@pytest.mark.parametrize("big_n, q", [(30, (1, 7, 11)), (89, (1, 2, 3))])
def test_element_list_and_lens_shorthand_print_the_same_bytes(capsys, tmp_path, big_n, q):
    lens = {"space": "spherical", "lens": {"N": big_n, "q": list(q)}}
    elements = _spectrum_csv(capsys, tmp_path, _lens_elements(big_n, q), "elements.json")
    assert elements == _spectrum_csv(capsys, tmp_path, lens, "lens.json")
    assert elements[0] == 0 and elements[1].count("\n") > 20


def test_every_spelling_of_an_angle_reads_the_same(capsys, tmp_path):
    # L(8;1,3,5): 1/2 fills the element t = 4 and 1/4, 3/4 recur across
    # elements; each occurrence of an angle takes the next spelling in turn
    seen = collections.Counter()

    def spell(x):
        forms = [str(x), f"{2 * x.numerator}/{2 * x.denominator}", f" {x}", str(float(x))]
        seen[x] += 1
        return forms[seen[x] % len(forms)]

    plain = _spectrum_csv(capsys, tmp_path, _lens_elements(8, (1, 3, 5)), "plain.json")
    mixed = _spectrum_csv(capsys, tmp_path, _lens_elements(8, (1, 3, 5), spell), "mixed.json")
    assert seen[Fraction(1, 2)] == seen[Fraction(1, 4)] == 3
    assert plain[0] == 0 and mixed == plain
    halves = [["0", "0", "0"], ["1/2", "2/4", "0.5"], ["2/4", " 1/2", "1/2"]]
    code, out, err = _spectrum_csv(
        capsys, tmp_path, {"space": "spherical", "elements": [{"angles": a} for a in halves]}
    )
    assert (code, out) == (3, "") and "duplicate element" in err


def test_angle_strings_read_as_their_rational_value():
    for text in ("0", "1", "7", "3/2", "2/4", "10/5", "89/89", " 1/2", "0.5", "-1/7"):
        a, b = ratlinalg._rational_pair(text)
        assert Fraction(a, b) == Fraction(text), text


@pytest.mark.parametrize(
    "bad, message",
    [
        (True, "bad rational True"),
        (False, "bad rational False"),
        (None, "bad rational None (use integers or strings like '1/2')"),
        (0.5, "bad rational 0.5 (use integers or strings like '1/2')"),
    ],
)
def test_a_non_string_among_repeated_angles_keeps_its_message(capsys, tmp_path, bad, message):
    # the ints 0, 1 and the strings "0", "1/2" are read before the bad entry,
    # which equals one of them as a number
    payload = _lens_elements(4, (1, 1, 3))
    payload["elements"] += [{"angles": [0, 1, "1/2"]}, {"angles": ["0", "1/2", bad]}]
    code, out, err = _spectrum_csv(capsys, tmp_path, payload)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "rows",
    [
        [["0"], ["1/2"], ["1/x"]],
        [["0", "0"], ["1/2"], ["1/2", "1/x"]],
        [["0", "0"], ["1/2", "0", "1/x"]],
    ],
    ids=["rank-1", "after-wrong-rank", "in-wrong-rank"],
)
def test_a_malformed_angle_is_reported_before_the_rank(capsys, tmp_path, rows):
    # every angle is read before any check of the list, the rank checks too
    payload = {"space": "spherical", "elements": [{"angles": a} for a in rows]}
    code, out, err = _spectrum_csv(capsys, tmp_path, payload)
    assert (code, out, err) == (2, "", "error: bad rational '1/x'\n")


@pytest.mark.parametrize("angles", [["0"], []], ids=["rank-1", "empty"])
def test_rank_1_and_empty_angle_lists_exit_2(capsys, tmp_path, angles):
    payload = {"space": "spherical", "elements": [{"angles": angles}, {"angles": angles}]}
    code, out, err = _spectrum_csv(capsys, tmp_path, payload)
    assert (code, out) == (2, "")
    assert err == "error: need m >= 2 (sphere dimension n = 2m-1 >= 3)\n"


# ---------------------------------------------------------------- round trip


def _group_payload(group):
    return {
        "space": "flat",
        "lattice": [[str(x) for x in row] for row in group.lattice.basis],
        "cosets": [
            {
                "rotation": [[str(x) for x in row] for row in b],
                "translation": [str(x) for x in t],
            }
            for b, t in group.cosets
        ],
    }


def test_fixture_round_trip_through_json(capsys, tmp_path):
    for name in ("klein_b", "flat4_m24", "flat8_c"):
        group = flat.fixtures()[name]
        path = write_json(tmp_path, _group_payload(group), f"{name}.json")
        args = ("--p", "all", "--cutoff", "2", "--format", "csv")
        code1, out1, _ = run(capsys, "spectrum", f"fixture:{name}", *args)
        code2, out2, _ = run(capsys, "spectrum", path, *args)
        assert code1 == code2 == 0
        assert out1 == out2



# ---------------------------------------------------------------- parser reuse


def test_repeated_calls_in_one_process_match_fresh_interpreters(capsys, monkeypatch):
    # the parser is built once per process; no parsed state may carry over
    import os
    import subprocess
    import sys
    from pathlib import Path

    calls = [
        ["spectrum", "fixture:klein_a"],  # argparse error: --cutoff missing
        ["spectrum", "fixture:klein_a", "--cutoff", "2"],  # default --p 0
        ["compare", "fixture:klein_a", "fixture:klein_b", "--cutoff", "1"],  # default --p all
        ["dict", "--n", "5", "--p", "2", "--lambda", "3"],
    ]
    monkeypatch.setenv("COLUMNS", "80")
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "COLUMNS": "80"}
    fresh = []
    for argv in calls:
        code = "import sys; from curvspec import cli; sys.exit(cli.main(sys.argv[1:]))"
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=60
        )
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    assert fresh[0][0] == 2 and "--cutoff" in fresh[0][2]
    assert all(code in (0, 1) for code, _, _ in fresh[1:])
    for argv, expected in [*zip(calls, fresh), *zip(calls, fresh)]:
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == expected, argv


# ---------------------------------------------------------------- imports


def test_import_loads_no_numpy():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import curvspec

    src = str(Path(curvspec.__file__).resolve().parent.parent)
    code = "import sys, curvspec, curvspec.cli; assert 'numpy' not in sys.modules"
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=60)
