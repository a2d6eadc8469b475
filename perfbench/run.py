"""sparsegt benchmark: Monte Carlo throughput and design set-up.

Run from the root of a checkout (Python 3.10+ and numpy, nothing else):

    python3 perfbench/run.py --workload desk-coma --seed 42 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics (trials/s, set-up time, peak
RSS) with tracing off; ``--trace 1`` records spans around every call into a
layer and reports the per-layer metrics. Both check the program's outputs.
A human-readable summary precedes the last line of stdout, which is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. The exit code is
non-zero when any check fails. Each run also writes a result file (and, when
traced, its spans) under ``perfbench/results/``. README.md explains the
workloads, the metrics and the reference-speed clock all times are given in.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

if not (SRC / "sparsegt" / "__init__.py").is_file():
    sys.exit(f"perfbench: no program source under {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import sparsegt  # noqa: E402
from sparsegt import (  # noqa: E402
    DefectiveSet,
    Outcomes,
    PRIOR_UNIFORM_EXACT,
    Prior,
    SimConfig,
    apply_noise,
    derive_trial_seed,
    evaluate,
    parse,
    run_monte_carlo,
    serialize,
    validate,
)
from sparsegt.decoders import make_plan  # noqa: E402

from clock import REF_PROBE_S, SpeedClock  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import PINNED_SEED, WORKLOADS, Part, Workload  # noqa: E402

EVALUATE_BUDGET_S = 1.0
EVALUATE_CALLS = (3, 20)
pc = time.perf_counter


class Checks:
    """Operations attempted and the ones whose output was wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"perfbench: check failed: {what}", file=sys.stderr)


def _config(part: Part, trials: int, seed: int, jobs: int = 1) -> SimConfig:
    return SimConfig(
        params=part.params,
        prior=Prior(PRIOR_UNIFORM_EXACT, part.d),
        trials=trials,
        master_seed=seed,
        parallelism=jobs,
    )


def _counts(report) -> tuple[int, int, int, int]:
    b = report.breakdown
    return (report.errors, b.false_positive_items, b.ambiguous_blocks, b.wrong_estimate)


# ---------------------------------------------------------------------------
# set-up: parameters to a ready harness
# ---------------------------------------------------------------------------


def round_trip(part: Part, matrix, tracer: Tracer, checks: Checks):
    """``serialize`` → ``parse`` → ``validate``, one span each; the checks
    run after the spans. Returns the parsed design and the span indices."""
    marks = [pc()]
    text = serialize(matrix)
    marks.append(pc())
    parsed = parse(text)
    marks.append(pc())
    violations = validate(parsed)
    marks.append(pc())
    spans = [tracer.record(name, a, b, run=part.name)
             for name, a, b in zip(("core.serialize", "core.parse", "core.validate"), marks, marks[1:])]
    checks.expect(parsed == matrix, f"{part.name}: parse(serialize(m)) != m")
    checks.expect(not violations, f"{part.name}: validate found {violations[:3]}")
    return parsed, spans


def set_up(workload: Workload, seed: int, tracer: Tracer, checks: Checks) -> tuple[list, list[int]]:
    """Builds every design of the workload (and round-trips it through the
    file format on ``roundtrip`` workloads), then runs the harness's own
    set-up: a zero-trial ``run_monte_carlo``. Returns the designs and the
    indices of the stage spans, whose sum is the set-up time."""
    matrices, spans = [], []
    for part in workload.parts:
        start = pc()
        matrix = part.build(seed)
        spans.append(tracer.record("designs.construct", start, pc(), run=part.name))
        checks.expect(matrix.num_tests == part.num_tests,
                      f"{part.name}: T={matrix.num_tests}, want {part.num_tests}")
        checks.expect(matrix.ones_count() == part.incidences,
                      f"{part.name}: {matrix.ones_count()} incidences, want {part.incidences}")
        if workload.roundtrip:
            matrix, stages = round_trip(part, matrix, tracer, checks)
            spans += stages
        start = pc()
        report = run_monte_carlo(matrix, part.decoder, _config(part, 0, seed))
        spans.append(tracer.record("sim.harness_setup", start, pc(), run=part.name))
        checks.expect(report.trials == 0 and report.errors == 0,
                      f"{part.name}: zero-trial run reported {report.errors} errors")
        matrices.append(matrix)
    return matrices, spans


def check_designs(workload: Workload, matrices: list, seed: int, checks: Checks) -> None:
    """At the pinned seed, every design serializes to its pinned bytes."""
    if seed != PINNED_SEED:
        return
    for part, matrix in zip(workload.parts, matrices):
        digest = hashlib.sha256(serialize(matrix).encode()).hexdigest()[:16]
        checks.expect(digest == part.design_sha256,
                      f"{part.name}: design sha256 {digest}, want {part.design_sha256}")


# ---------------------------------------------------------------------------
# timed Monte Carlo rounds
# ---------------------------------------------------------------------------


@dataclass
class Rounds:
    """Wall instants of the timed calls, per round and part: a zero-trial
    call, then a ``Part.trials`` call. ``counts`` holds what the first
    ``Part.trials`` call of each part returned."""

    calls: list[list[tuple[float, float, float, float]]] = field(default_factory=list)
    counts: dict[str, tuple[int, int, int, int]] = field(default_factory=dict)


def timed_rounds(workload: Workload, matrices: list, seed: int, seconds: float,
                 checks: Checks) -> Rounds:
    """Calls ``run_monte_carlo`` on every part in turn, with zero trials and
    then with ``Part.trials``, until ``seconds`` have passed. Checks every
    call's counts against the pinned ones (at the pinned seed) or against
    the first call's. Each call starts after a full garbage collection, so
    that collections inside it do not depend on what ran before."""
    rounds = Rounds()
    deadline = pc() + seconds
    while True:
        row = []
        for part, matrix in zip(workload.parts, matrices):
            gc.collect()
            zero_start = pc()
            run_monte_carlo(matrix, part.decoder, _config(part, 0, seed))
            zero_end = pc()
            gc.collect()
            start = pc()
            report = run_monte_carlo(matrix, part.decoder, _config(part, part.trials, seed))
            row.append((zero_start, zero_end, start, pc()))
            got = _counts(report)
            want = rounds.counts.setdefault(
                part.name, part.pinned if seed == PINNED_SEED else got)
            checks.expect(got == want, f"{part.name}: counts {got}, want {want}")
        rounds.calls.append(row)
        if pc() >= deadline:
            return rounds


def _trial_clock(workload: Workload, clock: SpeedClock):
    return clock.wall_time() if workload.wall_trials else clock.ref_time()


def trials_per_s(workload: Workload, rounds: Rounds, clock: SpeedClock) -> float:
    """Median over rounds of trials per second. The harness's own
    set-up, the median zero-trial call of each part, is taken off the start
    of every call in reference seconds; the rest of the call is timed in
    reference seconds, or in wall seconds on ``wall_trials`` workloads."""
    setup_ref = clock.ref_time()
    trial_ref = _trial_clock(workload, clock)
    setup = [statistics.median(setup_ref.span(row[i][0], row[i][1]) for row in rounds.calls)
             for i in range(len(workload.parts))]
    trials = sum(p.trials for p in workload.parts)
    rates = []
    for row in rounds.calls:
        net = 0.0
        for i, (_, _, start, end) in enumerate(row):
            first_trial = setup_ref.inverse(float(setup_ref(start)) + setup[i])
            net += trial_ref.span(min(first_trial, end), end)
        rates.append(trials / net)
    return statistics.median(rates)


# ---------------------------------------------------------------------------
# replay: the harness's trials re-run through the public API, span by span
# ---------------------------------------------------------------------------


def _column_index(matrix) -> tuple[np.ndarray, np.ndarray]:
    """CSC (indptr, test indices) of the matrix, for the replay's own
    OR evaluation."""
    lengths = np.fromiter((len(r) for r in matrix.rows), dtype=np.int64, count=matrix.num_tests)
    items = np.fromiter((i for r in matrix.rows for i in r), dtype=np.int64, count=int(lengths.sum()))
    tests = np.repeat(np.arange(matrix.num_tests, dtype=np.int64), lengths)
    order = np.argsort(items, kind="stable")
    indptr = np.concatenate(([0], np.cumsum(np.bincount(items, minlength=matrix.num_items))))
    return indptr, tests[order]


@dataclass
class Replay:
    counts: tuple[int, int, int, int]
    exact: int
    positives: int
    samples: list  # (defective items, noiseless bits) of the first trials
    start: float
    end: float


def replay(part: Part, matrix, seed: int, tracer: Tracer, samples: int = 0) -> Replay:
    """Re-runs trials 0..part.trials-1 the way the seeding contract fixes
    them: one ``default_rng(derive_trial_seed(seed, t))`` per trial, the
    defective draw, OR evaluation, the noise draw, then the decoder. Scores
    each trial as ``run_monte_carlo`` documents its ``Breakdown``."""
    plan = make_plan(matrix, part.decoder)
    indptr, tests = _column_index(matrix)
    n, num_tests, d = matrix.num_items, matrix.num_tests, part.d
    sigma = part.params.sigma or 0.0
    record = tracer.record
    errors = fp_items = amb_blocks = wrong = exact_trials = positives = 0
    kept = []
    started = pc()
    for t in range(part.trials):
        t0 = pc()
        rng = np.random.default_rng(derive_trial_seed(seed, t))
        defect = rng.choice(n, size=d, replace=False)
        defect.sort()
        t1 = pc()
        bits = np.zeros(num_tests, dtype=bool)
        bits[np.concatenate([tests[indptr[i]:indptr[i + 1]] for i in defect])] = True
        outcomes = Outcomes(bits)
        t2 = pc()
        observed = apply_noise(outcomes, sigma, rng)
        t3 = pc()
        estimate, ambiguous, _ = plan.decode_bits(observed.bits)
        t4 = pc()
        exact = np.array_equal(estimate, defect)
        positives += int(np.count_nonzero(observed.bits))
        if exact and not ambiguous:
            exact_trials += 1
        else:
            errors += 1
            amb_blocks += len(ambiguous)
            if not exact:
                fp_items += int(np.setdiff1d(estimate, defect, assume_unique=True).size)
                wrong += int(np.setdiff1d(defect, estimate, assume_unique=True).size > 0)
        if t < samples:
            kept.append((defect, bits))
        t5 = pc()
        trial = record("sim.trial", t0, t5, run=part.name)
        record("sim.seed_draw", t0, t1, trial, part.name)
        record("bench.or_eval", t1, t2, trial, part.name)
        record("core.apply_noise", t2, t3, trial, part.name)
        record("decoders.decode", t3, t4, trial, part.name)
        record("bench.score", t4, t5, trial, part.name)
    return Replay((errors, fp_items, amb_blocks, wrong), exact_trials, positives, kept,
                  started, pc())


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------


MEMORY_TRIALS = 100


def peak_rss_mb(workload: Workload, seed: int) -> float:
    """``ru_maxrss`` of a fresh process that sets the workload up once and
    runs ``MEMORY_TRIALS`` trials per part."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", workload.name,
         "--seed", str(seed), "--memory-child"],
        capture_output=True, text=True, timeout=170, cwd=ROOT, check=True,
    )
    return float(json.loads(done.stdout.splitlines()[-1])["peak_rss_mb"])


def _memory_child(workload: Workload, seed: int) -> None:
    matrices, _ = set_up(workload, seed, Tracer(), Checks())
    for part, matrix in zip(workload.parts, matrices):
        run_monte_carlo(matrix, part.decoder, _config(part, MEMORY_TRIALS, seed))
    print(json.dumps({"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))


def bytes_per_incidence(workload: Workload, seed: int) -> float:
    """``tracemalloc`` bytes still held once each design is built, over its
    incidences. Valid for the Python and numpy build it ran on."""
    held = incidences = 0
    for part in workload.parts:
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        matrix = part.build(seed)
        held += tracemalloc.get_traced_memory()[0] - before
        tracemalloc.stop()
        incidences += matrix.ones_count()
        del matrix
    return held / incidences


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def run_untraced(workload: Workload, seed: int, seconds: float, checks: Checks):
    # first, while this process is small: a child inherits its parent's RSS
    # high-water mark
    rss = peak_rss_mb(workload, seed)
    tracer = Tracer()
    clock = SpeedClock()
    setups = []
    with clock:
        for _ in range(workload.setup_repeats):
            matrices, spans = set_up(workload, seed, tracer, checks)
            setups.append(spans)
        rounds = timed_rounds(workload, matrices, seed, seconds, checks)
    check_designs(workload, matrices, seed, checks)
    ref = clock.ref_time()
    setup_s = statistics.median(
        sum(ref.span(tracer.starts[i], tracer.ends[i]) for i in spans) for spans in setups)
    rate = trials_per_s(workload, rounds, clock)

    for part, matrix in zip(workload.parts, matrices):
        got = replay(part, matrix, seed, Tracer()).counts
        checks.expect(got == rounds.counts[part.name],
                      f"{part.name}: replay counts {got}, harness {rounds.counts[part.name]}")
        if workload.jobs_check:
            two = _counts(run_monte_carlo(matrix, part.decoder, _config(part, part.trials, seed, 2)))
            checks.expect(two == rounds.counts[part.name],
                          f"{part.name}: jobs=2 counts {two}, jobs=1 {rounds.counts[part.name]}")
    metrics = {
        "trials_per_s": (rate, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    info = {
        "rounds": len(rounds.calls),
        "trials_per_call": {p.name: p.trials for p in workload.parts},
        "trials_timed": len(rounds.calls) * sum(p.trials for p in workload.parts),
        "wall_trials_per_s": statistics.median(
            sum(p.trials for p in workload.parts) / sum(c[3] - c[2] - c[1] + c[0] for c in row)
            for row in rounds.calls),
        "counts": rounds.counts,
        "probes": clock.probes,
        "median_probe_us": clock.median_probe_us(),
    }
    return metrics, info, None


def run_traced(workload: Workload, seed: int, seconds: float, checks: Checks):
    tracer = Tracer()
    clock = SpeedClock()
    with clock:
        matrices, _ = set_up(workload, seed, tracer, checks)
        for part, matrix in zip(workload.parts, matrices):
            start = pc()
            make_plan(matrix, part.decoder)
            tracer.record("decoders.make_plan", start, pc(), run=part.name)
            if not workload.roundtrip:
                round_trip(part, matrix, tracer, checks)
        rounds = timed_rounds(workload, matrices, seed, seconds, checks)
        replays = [replay(part, matrix, seed, tracer, samples=EVALUATE_CALLS[1])
                   for part, matrix in zip(workload.parts, matrices)]
        for part, matrix, rep in zip(workload.parts, matrices, replays):
            budget_end = pc() + EVALUATE_BUDGET_S / len(workload.parts)
            for k, (defect, bits) in enumerate(rep.samples):
                if k >= EVALUATE_CALLS[0] and pc() >= budget_end:
                    break
                defectives = DefectiveSet(defect, matrix.num_items)
                start = pc()
                out = evaluate(matrix, defectives)
                tracer.record("core.evaluate", start, pc(), run=part.name)
                checks.expect(np.array_equal(out.bits, bits),
                              f"{part.name}: evaluate disagrees with the replay on trial {k}")
    check_designs(workload, matrices, seed, checks)
    ref = clock.ref_time()
    # set-up stages in reference seconds, per-trial spans as the trials are timed
    times = tracer.self_times(ref)
    trial_ref = _trial_clock(workload, clock)
    trial_times = tracer.self_times(trial_ref)
    untraced = trials_per_s(workload, rounds, clock)

    for part, rep in zip(workload.parts, replays):
        checks.expect(rep.counts == rounds.counts[part.name],
                      f"{part.name}: replay counts {rep.counts}, harness {rounds.counts[part.name]}")
    replayed = sum(p.trials for p in workload.parts)
    traced = replayed / sum(trial_ref.span(r.start, r.end) for r in replays)

    def total_s(name: str) -> float:
        return float(np.sum(times[name]))

    def mean_us(name: str) -> float:
        return float(np.mean(trial_times[name])) * 1e6

    trial_us = 1e6 / untraced
    matrices_info = [(m.ones_count(), len(serialize(m).encode())) for m in matrices]
    metrics = {
        "designs.construct_s": (total_s("designs.construct"), "s"),
        "designs.bytes_per_incidence": (bytes_per_incidence(workload, seed), "B"),
        "core.serialize_s": (total_s("core.serialize"), "s"),
        "core.parse_s": (total_s("core.parse"), "s"),
        "core.validate_s": (total_s("core.validate"), "s"),
        "core.file_bytes": (sum(b for _, b in matrices_info), "B"),
        "core.incidences": (sum(i for i, _ in matrices_info), "count"),
        "decoders.make_plan_s": (total_s("decoders.make_plan"), "s"),
        "sim.harness_setup_s": (total_s("sim.harness_setup"), "s"),
        "decoders.decode_us": (mean_us("decoders.decode"), "us"),
        "decoders.positive_tests_per_trial": (sum(r.positives for r in replays) / replayed, "count"),
        "decoders.exact_frac": (sum(r.exact for r in replays) / replayed, "ratio"),
        "sim.seed_draw_us": (mean_us("sim.seed_draw"), "us"),
        "sim.trial_us": (trial_us, "us"),
        "sim.residual_us": (trial_us - mean_us("sim.seed_draw") - mean_us("decoders.decode"), "us"),
        "core.apply_noise_us": (mean_us("core.apply_noise"), "us"),
        "core.evaluate_us": (mean_us("core.evaluate"), "us"),
        "sim.tracing_overhead_frac": (1.0 - traced / untraced, "ratio"),
    }
    info = {
        "rounds": len(rounds.calls),
        "trials_per_call": {p.name: p.trials for p in workload.parts},
        "trials_timed": len(rounds.calls) * sum(p.trials for p in workload.parts),
        "trials_replayed": replayed,
        "evaluate_calls": int(times["core.evaluate"].size),
        "untraced_trials_per_s": untraced,
        "traced_trials_per_s": traced,
        "counts": rounds.counts,
        "probes": clock.probes,
        "median_probe_us": clock.median_probe_us(),
    }
    return metrics, info, (tracer, ref)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def environment(workload: Workload, seed: int) -> dict:
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu_model = next((line.split(":", 1)[1].strip() for line in f
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as f:
            l3 = f.read().strip()
    except OSError:
        l3 = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "l3_cache": l3,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "sparsegt": sparsegt.__file__,
        "workload": workload.name,
        "seed": seed,
        "reference_probe_us": REF_PROBE_S * 1e6,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--memory-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    workload = WORKLOADS[args.workload]
    if args.memory_child:
        _memory_child(workload, args.seed)
        return 0

    checks = Checks()
    run = run_traced if args.trace else run_untraced
    metrics, info, traced = {}, {}, None
    try:
        metrics, info, traced = run(workload, args.seed, args.seconds, checks)
    except Exception:  # a raise is a failed operation: report it, exit non-zero
        traceback.print_exc()
        checks.expect(False, "the run raised")

    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if traced is not None:
        tracer, ref = traced
        tracer.write(RESULTS / f"{stem}-spans.jsonl", ref)
    failed = len(checks.failures)
    result = {
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {"environment": environment(workload, args.seed), "run": info,
              "failures": checks.failures, **result}
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"# {workload.name} seed={args.seed} trace={args.trace} "
          f"rounds={info.get('rounds')} trials_timed={info.get('trials_timed')}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    print(f"{'failed_frac':34s} {failed / checks.attempted:14.6g} ratio "
          f"({failed} of {checks.attempted} operations)")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
