"""curvspec benchmark: exact-answer questions about space forms, asked one at
a time by a single caller in a fresh interpreter (a closed loop).

    python3 perfbench/run.py --workload flat-pairs --seed 1 --seconds 50 --trace 0

Run it from the root of a source checkout; the library is imported from
`src/` next to this directory, never from an installed copy.

A run answers whole batches of freshly generated questions until `--seconds`
have passed and at least MIN_QUESTIONS were answered.  Every answer is
checked; a wrong answer or an exception counts as failed and the run goes
on.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones:

    setup_s          median over SETUP_PROBES fresh interpreters of the time
                     from process start until curvspec is imported and the
                     first batch of seeded inputs is generated
    wall_s           median over the run's batches of the time to answer one
                     batch of BATCH questions
    question_ms.p50  per-question latency percentiles over every question
    question_ms.p90  of the run (the sample count is printed above the JSON)
    peak_rss_mb      peak resident set size after the first MIN_QUESTIONS
                     questions, a fixed amount of work

With `--trace 1` every layer is wrapped (see tracer.py) and batches alternate
between traced (even-numbered, starting with the first) and untraced.  The
per-layer metrics are totals over the first TRACED_BATCHES traced batches, a
fixed set of questions for a given seed; trace.overhead_ratio is the median
traced batch time over the median untraced batch time, minus 1.  Interleaving
the two keeps the host's slow drifts in speed out of that ratio.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_QUESTIONS = 100
SETUP_PROBES = 5
HARD_LIMIT_S = 120.0  # stop starting batches after this, whatever --seconds says
PROBE_TIMEOUT_S = 60.0
SHOWN_ERRORS = 3
TRACED_BATCHES = 3
WORKLOADS = ("flat-pairs", "lens-cli")


def import_library():
    """Import curvspec from this checkout's src/; exit non-zero when it is absent."""
    sys.path.insert(0, str(SRC))
    try:
        import curvspec
    except ImportError as exc:
        sys.exit(f"cannot import curvspec from {SRC}: {exc}")
    if not Path(curvspec.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"curvspec was imported from {curvspec.__file__}, not from {SRC}")
    import workloads

    return workloads


def percentile(samples, q: float) -> tuple[float, int]:
    """The q-th percentile (linear interpolation between closest ranks) and
    the number of samples it was taken from."""
    if not samples:
        raise ValueError("no samples")
    xs = sorted(samples)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo), len(xs)


def batch_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


@dataclass
class Run:
    latencies: list[float]  # seconds, one per question
    batch_times: list[float]  # seconds, one per batch
    traced: list[bool]  # one per batch
    answers: list
    failed: int
    rss_mb: float | None  # peak RSS after the first min_questions questions
    layers: dict | None  # per-layer metrics over the first traced_batches traced batches


def run_questions(workload, seed: int, seconds: float, workdir: Path, tracer=None,
                  min_questions: int = MIN_QUESTIONS, traced_batches: int = TRACED_BATCHES) -> Run:
    """Answer batches of fresh questions until `seconds` have passed and
    `min_questions` were answered.  With a tracer, even-numbered batches are
    traced and odd ones not, for at least `traced_batches` of each."""
    run = Run([], [], [], [], 0, None, None)
    shown = 0
    min_batches = 2 * traced_batches if tracer else 0
    if tracer:
        tracer.active = False
    start = perf_counter()
    index = 0
    while (
        perf_counter() - start < seconds
        or len(run.latencies) < min_questions
        or index < min_batches
    ) and perf_counter() - start < HARD_LIMIT_S:
        traced = tracer is not None and index % 2 == 0
        questions = workload.generate(batch_rng(workload.name, seed, index), workdir)
        workload.validate(questions)
        batch_s = 0.0
        for q in questions:
            if traced:
                tracer.active = True
            t0 = perf_counter()
            try:
                answer, context = workload.ask(q)
                problem = None
            except Exception:  # a question that raises is a failed answer
                answer, problem = None, traceback.format_exc()
            elapsed = perf_counter() - t0
            if tracer:
                tracer.active = False
            if problem is None:
                try:
                    problem = workload.check(q, answer, context)
                except Exception:
                    problem = traceback.format_exc()
            if problem is not None:
                run.failed += 1
                if shown < SHOWN_ERRORS:
                    shown += 1
                    print(f"question failed: {q}\n{problem}", file=sys.stderr)
            run.latencies.append(elapsed)
            run.answers.append(answer)
            batch_s += elapsed
            if len(run.latencies) == min_questions:
                run.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        run.batch_times.append(batch_s)
        run.traced.append(traced)
        if traced and index == 2 * traced_batches - 2:
            run.layers = tracer.metrics()
        index += 1
    return run


def setup_probe(workload_name: str, seed: int) -> None:
    """Body of one set-up probe: import, generate the first batch, report."""
    wl = import_library()
    workload = wl.make(workload_name)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        workload.generate(batch_rng(workload.name, seed, 0), Path(tmp))
        print("ready", flush=True)


def measure_setup(workload_name: str, seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen(
            [sys.executable, __file__, "--workload", workload_name, "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - t0)
            proc.stdout.read()
            if proc.wait(timeout=PROBE_TIMEOUT_S) != 0 or line.strip() != "ready":
                sys.exit("set-up probe failed")
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    wl = import_library()
    setup_times = None if args.trace else measure_setup(args.workload, args.seed)
    workload = wl.make(args.workload)

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer().install()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        try:
            run = run_questions(workload, args.seed, args.seconds, Path(tmp), tracer)
        finally:
            if tracer:
                tracer.uninstall()

    ms = [x * 1000 for x in run.latencies]
    p50, count = percentile(ms, 50)
    p90, _ = percentile(ms, 90)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"questions {count} in {len(run.batch_times)} batches of {wl.BATCH}, failed {run.failed}")

    if tracer:
        traced = [t for t, flag in zip(run.batch_times, run.traced) if flag]
        untraced = [t for t, flag in zip(run.batch_times, run.traced) if not flag]
        layers = run.layers or tracer.metrics()
        metrics = {name: (value, _unit(name)) for name, value in layers.items()}
        metrics["trace.overhead_ratio"] = (
            statistics.median(traced) / statistics.median(untraced) - 1, "ratio"
        )
        print(f"per-layer totals over the first {TRACED_BATCHES} traced batches; overhead from "
              f"{len(traced)} traced and {len(untraced)} untraced batches")
        for note in tracer.notes:
            print(f"note: {note}")
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (statistics.median(run.batch_times), "s"),
            "question_ms.p50": (p50, "ms"),
            "question_ms.p90": (p90, "ms"),
            "peak_rss_mb": (run.rss_mb, "MB"),
        }
        print(f"setup_s over {len(setup_times)} probes: {', '.join(f'{t:.4f}' for t in setup_times)}")
        beyond = sum(1 for x in ms if x > p90)
        print(f"question_ms percentiles over {count} questions ({beyond} beyond p90)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": len(run.latencies),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def _unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
