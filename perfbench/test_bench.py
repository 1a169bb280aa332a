"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

wl = run.import_library()

from curvspec import flat, liealg, spherical  # noqa: E402

import tracer as tracing  # noqa: E402


def one_batch(name, seed, workdir, tracer=None):
    """A tiny run: one batch untraced, or one traced plus one untraced batch."""
    return run.run_questions(wl.make(name), seed, 0, workdir, tracer, min_questions=1, traced_batches=1)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_run_and_traced_answers_match(name, tmp_path):
    plain = one_batch(name, 3, tmp_path)
    assert (plain.failed, len(plain.latencies)) == (0, wl.BATCH)
    tracer = tracing.Tracer().install()
    try:
        traced = one_batch(name, 3, tmp_path, tracer)
    finally:
        tracer.uninstall()
    assert traced.traced == [True, False] and traced.failed == 0
    assert traced.answers[: wl.BATCH] == plain.answers
    assert not tracer.notes
    m = traced.layers
    busy = {"flat-pairs": "flat.shells", "lens-cli": "cli"}[name]
    assert m[f"{busy}.calls"] > 0 and m[f"{busy}.self_s"] > 0
    if name == "flat-pairs":
        assert m["spherical.validate.calls"] == 0 and m["liealg.character.calls"] == 0
    else:
        assert m["flat.shells.calls"] == 0 and m["ratlinalg.calls"] == 0


def test_uninstall_restores_the_library():
    originals = (flat.shells, flat.exterior_trace, spherical.n_gamma, flat.BieberbachGroup.__post_init__)
    tracing.Tracer().install().uninstall()
    restored = (flat.shells, flat.exterior_trace, spherical.n_gamma, flat.BieberbachGroup.__post_init__)
    assert restored == originals


def test_a_dropped_name_is_noted_and_reads_zero(monkeypatch):
    monkeypatch.delattr(liealg, "weight_multiplicities")
    tracer = tracing.Tracer().install()
    tracer.uninstall()
    assert any("liealg.weight_multiplicities" in note for note in tracer.notes)
    assert tracer.metrics()["liealg.weights.calls"] == 0


def test_untraced_run_imports_no_wrapper(tmp_path):
    code = (
        "import sys, pathlib; sys.path.insert(0, sys.argv[1]); import run;"
        "wl = run.import_library();"
        "run.run_questions(wl.make('lens-cli'), 1, 0, pathlib.Path(sys.argv[2]), min_questions=1);"
        "assert 'tracer' not in sys.modules, 'tracer imported'"
    )
    subprocess.run([sys.executable, "-c", code, str(HERE), str(tmp_path)], check=True, timeout=120)


def test_percentile_reports_its_sample_count():
    assert run.percentile([3.0, 1.0, 2.0], 50) == (2.0, 3)
    value, count = run.percentile(list(range(101)), 90)
    assert (value, count) == (90.0, 101)
    with pytest.raises(ValueError):
        run.percentile([], 90)


def test_injected_wrong_verdict_counts_as_failed(tmp_path, monkeypatch):
    real = flat.compare

    def flipped(*args, **kwargs):
        res = real(*args, **kwargs)
        return flat.ComparisonResult(not res.isospectral, res.first_discrepancy)

    monkeypatch.setattr(flat, "compare", flipped)
    result = one_batch("flat-pairs", 5, tmp_path)
    assert result.failed == len(result.latencies) == wl.BATCH


def test_injected_wrong_multiplicity_counts_as_failed(tmp_path, monkeypatch):
    real = spherical.p_spectrum

    def shifted(*args, **kwargs):
        spec = real(*args, **kwargs)
        entries = {**spec.entries, 0: 2} if spec.p == 0 else spec.entries
        return spherical.Spectrum(spec.n, spec.p, spec.lam_max, entries)

    monkeypatch.setattr(spherical, "p_spectrum", shifted)
    result = one_batch("lens-cli", 5, tmp_path)
    assert result.failed == len(result.latencies) == wl.BATCH


def test_raising_question_counts_as_failed(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(flat, "tau_equivalent", boom)
    result = one_batch("flat-pairs", 5, tmp_path)
    assert result.failed == len(result.latencies) == wl.BATCH


def test_non_free_lens_draw_is_refused():
    bad = wl.LensCliQuestion(6, (1, 2, 5), "unused.json")
    with pytest.raises(ValueError):
        wl.LensCli().validate([bad])


def test_function_spectrum_oracle_matches_the_library():
    for big_n, q in ((7, (1, 2, 3)), (12, (1, 5, 7)), (9, (2, 4))):
        group = spherical.lens_space(big_n, q)
        assert spherical.p_spectrum(group, 0, 120).entries == wl.function_spectrum(big_n, q, 120)


def test_golden_anchors_catch_a_tampered_golden():
    golden = wl.load_golden()
    assert wl.golden_anchor_problems(golden) == []
    tampered = copy.deepcopy(golden)
    entry = next(e for e in tampered["pairs"] if e["groups"] == ["flat8_a", "flat8_b"])
    entry["spectra"]["flat8_a"][4]["1"] = 285
    assert wl.golden_anchor_problems(tampered)


def test_re_presentations_are_seeded():
    a = wl.make("flat-pairs").generate(run.batch_rng("flat-pairs", 11, 0))
    b = wl.make("flat-pairs").generate(run.batch_rng("flat-pairs", 11, 0))
    c = wl.make("flat-pairs").generate(run.batch_rng("flat-pairs", 12, 0))
    assert a == b and a != c
