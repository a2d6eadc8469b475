"""Monte Carlo harness and exact error oracles.

Reproducibility contract: trial ``t`` of a run with master seed ``s`` uses the
generator ``numpy.random.default_rng(derive_trial_seed(s, t))`` and draws, in
order, (1) the defective set and (2) the noise flips when sigma > 0. Because
each trial derives its own seed from the pair ``(s, t)``, any partition of the
trial range across workers reproduces the sequential result bit for bit.

The harness draws those trials in one pipeline. For each chunk of
thousands of trials it computes in numpy the trial seeds and the ``PCG64``
states that NumPy's ``SeedSequence`` seeding gives them. For trials
under the uniform prior with at most ``_replica_cap(n)`` defectives (85 to
165, growing with n), it replays on the whole chunk from those states the
Floyd sampler behind ``Generator.choice(n, d, replace=False)``, and only a
trial whose draws may have hit a rejection is drawn by a generator. On a
noisy run the replica also computes each trial's generator state after
``choice``, and one reused ``PCG64`` set to that state draws only the
trial's noise. Every other trial (the iid prior, d past the cap) is drawn
in trial order by the reused ``PCG64`` set to its seeded state. The
replica is checked against ``default_rng`` once per process; on a
mismatch every trial gets its own ``default_rng``. The results are
identical either way. The harness then
evaluates a batch of trials to the (trial, test) pairs of its positive
tests, decodes those with the channel's flips and scores the batch with
array operations; the counts do not depend on the batch size. A majority
plan's copies of a test share one noiseless outcome, so the harness
evaluates only its base rows and votes from each group's flip count.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    DesignParams,
    IncompatibleDecoderError,
    InvalidParameterError,
    PRIOR_IID_BERNOULLI,
    PRIOR_UNIFORM_EXACT,
    Prior,
    ResourceCapError,
    TestMatrix,
    WorkerLostError,
    _checked_block_bounds,
    _index_dtype,
    _noise_flips,
    _out_of_memory,
    _or_bits,
    _or_gather,
    _pair_keys,
    _parameter,
    _rows_with,
)
from .decoders import make_plan

__all__ = [
    "SimConfig",
    "SimReport",
    "SIM_CSV_HEADER",
    "derive_trial_seed",
    "wilson_interval",
    "run_monte_carlo",
    "exhaustive_error_probability",
    "block_collision_error",
    "outcome_collision_groups",
    "bayes_optimal_error",
]

_MASK64 = (1 << 64) - 1
_GOLDEN64 = 0x9E3779B97F4A7C15

# z for a central 95% normal interval
_Z95 = 1.959963984540054

SIM_CSV_HEADER = (
    "design_tag,n,d,gamma,rho,sigma,T,trials,errors,error_rate,ci_low,ci_high,seed"
)


def derive_trial_seed(master_seed: int, trial: int) -> int:
    """Fixed 64-bit mix of (master seed, trial index): splitmix64 output of
    master + (trial+1) * golden-ratio increment. Part of the public
    reproducibility contract; do not change. Both arguments must be
    integers (Python or NumPy, which give the same seed) and not negative,
    else :class:`InvalidParameterError`."""
    master_seed, trial = _parameter("seed", master_seed), _parameter("trial", trial)
    z = (master_seed + (trial + 1) * _GOLDEN64) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _trial_rng(master_seed: int, trial: int) -> np.random.Generator:
    """The generator the seeding contract gives trial ``trial``."""
    return np.random.default_rng(derive_trial_seed(master_seed, trial))


def wilson_interval(errors: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion; both counts
    are ints or NumPy integers."""
    trials = _parameter("trials", trials)
    errors = _parameter("errors", errors, n=trials)
    if trials == 0:
        return (0.0, 1.0)
    p = errors / trials
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = _Z95 * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom
    low = 0.0 if errors == 0 else max(0.0, center - half)
    high = 1.0 if errors == trials else min(1.0, center + half)
    return (low, high)


@dataclass(frozen=True)
class SimConfig:
    """What to simulate: problem parameters, defective-set prior (of the
    parameters' d), trial count, master seed, and worker count (1 =
    in-process). A run uses at most one worker per trial and per processor
    (``os.cpu_count()``); the counts do not depend on the number of
    workers."""

    params: DesignParams
    prior: Prior
    trials: int
    master_seed: int
    parallelism: int = 1

    def __post_init__(self) -> None:
        # as Python ints, which the 64-bit seed arithmetic needs
        for name, rule in (("trials", "trials"), ("master_seed", "seed"), ("parallelism", "jobs")):
            object.__setattr__(self, name, _parameter(rule, getattr(self, name)))
        if self.params.d != self.prior.d:
            raise InvalidParameterError(
                f"params.d={self.params.d} but the prior's d is {self.prior.d}"
            )


@dataclass(frozen=True)
class Breakdown:
    """Failure-mode tallies over a run. ``false_positive_items`` counts extra
    reported items, ``ambiguous_blocks`` counts blocks flagged ambiguous, and
    ``wrong_estimate`` counts trials missing a true defective; modes can
    co-occur within a trial, while ``SimReport.errors`` counts each failing
    trial once."""

    false_positive_items: int = 0
    ambiguous_blocks: int = 0
    wrong_estimate: int = 0


@dataclass(frozen=True)
class SimReport:
    design_tag: str
    num_items: int
    num_tests: int
    d: int
    gamma: int | None
    rho: int | None
    sigma: float
    trials: int
    errors: int
    error_rate: float
    ci_low: float
    ci_high: float
    breakdown: Breakdown
    master_seed: int
    wall_time: float

    def csv_row(self) -> str:
        gamma = "" if self.gamma is None else str(self.gamma)
        rho = "" if self.rho is None else str(self.rho)
        return (
            f"{self.design_tag},{self.num_items},{self.d},{gamma},{rho},"
            f"{self.sigma:.6g},{self.num_tests},{self.trials},{self.errors},"
            f"{self.error_rate:.6g},{self.ci_low:.6g},{self.ci_high:.6g},"
            f"{self.master_seed}"
        )


# ---------------------------------------------------------------------------
# the seeding contract's noiseless uniform draws, many trials at once
# ---------------------------------------------------------------------------


_LOW32 = 0xFFFFFFFF


def _hash_constants(init: int, mult: int, count: int) -> tuple[tuple[int, int], ...]:
    """The (xor, multiply) constants of ``count`` successive SeedSequence
    hashes: each xors a word with the running constant, steps the constant
    by ``mult`` and multiplies the word by the new constant."""
    pairs, const = [], init
    for _ in range(count):
        pairs.append((const, const * mult & _LOW32))
        const = pairs[-1][1]
    return tuple(pairs)


# NumPy's SeedSequence, with its pool of four uint32 words: 4 hashes fill the
# pool and 12 mix it, then 8 more generate four uint64 state words. PCG64's
# 128-bit multiplier, as its high and low halves.
_POOL_HASHES = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_STATE_HASHES = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _trial_seeds(master_seed: int, first: int, count: int) -> np.ndarray:
    """``derive_trial_seed(master_seed, t)`` for trials ``first .. first +
    count - 1``, as uint64."""
    z = np.arange(first + 1, first + count + 1, dtype=np.uint64) * _GOLDEN64
    z += master_seed & _MASK64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return z ^ (z >> 31)


def _seed_sequence_words(seeds: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` of each uint64
    seed, as four uint64 arrays. A seed enters as its two little-endian
    uint32 words; a seed below 2**32 has only one, but a pool word with no
    seed word hashes 0, which is what its zero high word hashes."""
    hashes = iter(_POOL_HASHES)

    def hashmix(word: np.ndarray) -> np.ndarray:
        xor, mult = next(hashes)
        word = (word ^ xor) * mult
        return word ^ (word >> 16)

    pool = np.zeros((4, seeds.size), dtype=np.uint32)
    pool[0], pool[1] = seeds & _LOW32, seeds >> 32
    pool = [hashmix(word) for word in pool]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = pool[dst] * _MIX_L - hashmix(pool[src]) * _MIX_R
                pool[dst] = mixed ^ (mixed >> 16)
    halves = []
    for i, (xor, mult) in enumerate(_STATE_HASHES):
        word = (pool[i % 4] ^ xor) * mult
        halves.append((word ^ (word >> 16)).astype(np.uint64))
    return [halves[2 * k] | (halves[2 * k + 1] << 32) for k in range(4)]


def _pcg64_step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray):
    """One step of PCG64's 128-bit LCG, state * multiplier + increment mod
    2**128, on uint64 (high, low) halves. The 64 x 64 -> 128-bit product of
    the low halves is taken in 32-bit limbs."""
    lo0, lo1 = lo & _LOW32, lo >> 32
    mult0, mult1 = _PCG_MULT_LO & _LOW32, _PCG_MULT_LO >> 32
    p00, p01, p10 = lo0 * mult0, lo0 * mult1, lo1 * mult0
    mid = (p00 >> 32) + (p01 & _LOW32) + (p10 & _LOW32)
    prod_lo = (mid << 32) | (p00 & _LOW32)
    prod_hi = (lo1 * mult1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
               + hi * _PCG_MULT_LO + lo * _PCG_MULT_HI)
    new_lo = prod_lo + inc_lo
    return prod_hi + inc_hi + (new_lo < prod_lo), new_lo


def _pcg64_states(seeds: np.ndarray) -> tuple[np.ndarray, ...]:
    """``PCG64(seed)``'s (state high, state low, increment high, increment
    low) for each uint64 seed. Of the four SeedSequence words, the first two
    are the initial state and the last two the stream; the increment is the
    stream shifted left with its low bit set, and the state is the initial
    state added to one LCG step from 0, stepped once more."""
    init_hi, init_lo, stream_hi, stream_lo = _seed_sequence_words(seeds)
    inc_hi = (stream_hi << 1) | (stream_lo >> 63)
    inc_lo = (stream_lo << 1) | 1
    lo = inc_lo + init_lo
    hi = inc_hi + init_hi + (lo < init_lo)
    return (*_pcg64_step(hi, lo, inc_hi, inc_lo), inc_hi, inc_lo)


def _floyd_draws(states: tuple[np.ndarray, ...], n: int, d: int,
                 jump: bool = False) -> tuple[np.ndarray, np.ndarray, tuple]:
    """The sorted ``choice(n, d, replace=False)`` of a generator set to each
    of ``states`` (``_pcg64_states`` of a chunk of trials) as a (trials, d)
    int64 array, where ``choice`` takes its Floyd branch and n < 2**32; a
    mask of the trials where a draw may have been rejected, whose rows are
    not the contract's; and the state each trial's generator resumes from.

    Floyd's sampler draws v_k uniform on [0, j_k], j_k = n - d + k, for
    k = 0 .. d - 1, and keeps v_k unless it is already taken, else j_k. Each
    draw is Lemire's: the next 32-bit half u of the PCG64 output stream (low
    half first) gives v = u * (j + 1) >> 32, drawn again when the product's
    low 32 bits fall below (2**32 - j - 1) mod (j + 1), which needs them
    below j + 1. NumPy draws nothing for j = 0, which occurs only at d = n,
    where every set holds all n items. The shuffle that follows does not
    change the sorted set; it draws one half on [0, i] for i = d - 1 .. 1.

    A trial resumes from its state in ``states`` and calls ``choice`` if
    flagged. With ``jump``, for trials that draw noise next, the shuffle's
    halves are flagged too, every trial is flagged at d = 0 or d = n, and
    an unflagged trial resumes after ``choice``: its state advanced d
    outputs, with the high half of the last one buffered.

    A step keeps its j only when its draw is already taken. In a row of
    distinct draws no step does, as every earlier pick is an earlier draw,
    so each row is sorted first, and only the rows with a repeated draw
    (about 0.5 % at n = 10**4, d = 10) go through ``_floyd_replay``.
    """
    hi, lo, inc_hi, inc_lo = states
    count = hi.size
    bound = np.arange(n - d, n, dtype=np.uint64) + 1  # j + 1
    if jump:
        bound = np.concatenate([bound, np.arange(d, 1, -1, dtype=np.uint64)])
    halves = np.empty((count, bound.size + bound.size % 2), dtype=np.uint64)
    for k in range(0, bound.size, 2):
        hi, lo = _pcg64_step(hi, lo, inc_hi, inc_lo)
        # XSL-RR output: the xor of the state's halves, rotated right by its top 6 bits
        folded, rot = hi ^ lo, hi >> 58
        out = (folded >> rot) | (folded << ((64 - rot) & 63))
        halves[:, k], halves[:, k + 1] = out & _LOW32, out >> 32
    scaled = halves[:, : bound.size] * bound
    flagged = _rows_with((scaled & _LOW32) < bound)
    draws = (scaled[:, :d] >> 32).astype(np.int64)
    picks = np.sort(draws, axis=1)
    rows = np.flatnonzero(_rows_with(picks[:, 1:] == picks[:, :-1]))
    picks[rows] = _floyd_replay(draws[rows], n, d)
    if not jump:
        return picks, flagged, states
    if d in (0, n):  # no half for j = 0, and none at all at d = 0
        return picks, np.ones(count, dtype=bool), states
    resume = [np.where(flagged, seeded, after) for seeded, after in zip(states, (hi, lo))]
    return picks, flagged, (*resume, inc_hi, inc_lo, (~flagged).astype(np.uint64),
                            np.where(flagged, 0, halves[:, -1]))


def _floyd_replay(draws: np.ndarray, n: int, d: int) -> np.ndarray:
    """Floyd's sets, sorted, of the (rows, d) int64 draws v_k of
    ``_floyd_draws``, step by step as the sampler runs: step k keeps its
    draw, or its j = n - d + k when the draw is already taken."""
    picks = draws.copy()
    for k in range(1, d):
        taken = (picks[:, :k] == picks[:, k : k + 1]).any(axis=1)
        picks[taken, k] = n - d + k
    picks.sort(axis=1)
    return picks


# the most draws per trial at which the replica draws faster than a
# generator per trial, measured at n = 10**3, 10**4 and 10**5 (2 vCPU); the
# cap is interpolated in log n between them and held at the nearest outside
_REPLICA_CAP_LOG_N = (3.0, 4.0, 5.0)
_REPLICA_CAP_D = (85, 115, 165)


def _replica_covers(prior: Prior, n: int) -> bool:
    """Whether ``_floyd_draws`` covers a run's draws: under the uniform
    prior, with every bound j + 1 within 32 bits and at most
    :func:`_replica_cap` draws per trial. The replica's cost grows faster
    with d than a generator's: at d = 2000 it draws 20 times slower. Under
    the cap ``choice`` always takes Floyd's branch."""
    return prior.kind == PRIOR_UNIFORM_EXACT and n <= _LOW32 and prior.d <= _replica_cap(n)


def _replica_cap(n: int) -> int:
    """The most draws per trial the replica takes over n items: 85 up to
    n = 10**3, 115 at 10**4 and 165 from 10**5 on."""
    return int(np.interp(math.log10(n), _REPLICA_CAP_LOG_N, _REPLICA_CAP_D))


# (master seed, n, d, jump) cases on which the replica must reproduce
# default_rng: a master seed above 2**64, collisions at d = n, a seed below
# 2**32, n near 2**31, where most draws are flagged, and d = n / 2, where 15
# of 16 rows repeat a draw and replay to a set other than their sorted
# draws; jumps at the noisy benchmark's (10**3, 10), at d = 1 and near 2**31
_REPLICA_CASES = ((2**64 + 42, 10_000, 10, False), (7, 12, 12, False),
                  (2**32 - 1, 50, 3, False), (42, 2**31 - 1, 2, False), (0, 20, 10, False),
                  (42, 1000, 10, True), (5, 50, 1, True), (42, 2**31 - 1, 2, True))
_REPLICA_CASE_TRIALS = 16


@functools.cache
def _replica_matches() -> bool:
    """Whether this NumPy's ``default_rng`` draws what the replica computes
    on the trials of ``_REPLICA_CASES``: on every unflagged trial, the
    sorted set of ``_floyd_draws``; on every trial, the ``choice`` of a
    generator of ``_trial_generators`` set to its resume state (where it
    does not resume after ``choice``), then the full generator state and a
    few doubles. NumPy does not promise that ``Generator`` streams stay the
    same across versions; on a mismatch every run seeds and draws each
    trial through ``default_rng``."""
    rows = range(_REPLICA_CASE_TRIALS)
    for seed, n, d, jump in _REPLICA_CASES:
        states = _pcg64_states(_trial_seeds(seed, 0, _REPLICA_CASE_TRIALS))
        picks, flagged, resume = _floyd_draws(states, n, d, jump)
        for t, rng in zip(rows, _trial_generators(seed, 0, resume, rows)):
            want = _trial_rng(seed, t)
            chosen = want.choice(n, d, replace=False)
            drawn = rng.choice(n, d, replace=False) if flagged[t] or not jump else chosen
            if not (np.array_equal(drawn, chosen)
                    and (flagged[t] or np.array_equal(picks[t], np.sort(chosen)))
                    and rng.bit_generator.state == want.bit_generator.state
                    and np.array_equal(rng.random(4), want.random(4))):
                return False
    return True


def _trial_generators(master_seed: int, first: int, states, rows):
    """The seeding contract's generators of trials ``first + row`` for each
    of ``rows``, in order. With ``states``, a chunk's ``_pcg64_states`` or
    the resume states of ``_floyd_draws`` (which add each trial's
    ``has_uint32`` and ``uinteger``), one reused ``PCG64`` is set to each
    row's state, which skips NumPy's seeding, and each generator is valid
    until the next is taken; with None, each trial seeds a ``default_rng``."""
    if states is None:
        yield from (_trial_rng(master_seed, first + row) for row in rows)
        return
    bit_generator = np.random.PCG64(0)  # set before each use: no OS entropy read
    rng = np.random.Generator(bit_generator)
    for hi, lo, inc_hi, inc_lo, *buffered in zip(*(v[rows].tolist() for v in states)):
        has_uint32, uinteger = buffered or (0, 0)
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo},
            "has_uint32": has_uint32,
            "uinteger": uinteger,
        }
        yield rng


# ---------------------------------------------------------------------------
# trial execution
# ---------------------------------------------------------------------------


# a batch of trials is sized by this many bytes: 8 an incidence of its
# defectives, its plan's ``trial_bytes``, and this many per trial for its
# Python objects. As 256 divides 4 MiB, a batch holds at most 16 384 trials.
# Its index arrays (trial numbers, gathered positions, keys) are int32
# below 2**31 (``core._index_dtype``), so a desk-block batch peaks at about
# 45 bytes a gathered pair. A COMA batch that
# takes the dense stage holds more: it fills a (T, 64 * words) bool array,
# T bytes a trial, before packing it into the T / 8 bytes a trial of masks
# it is counted at (5.7 MB for a 3000-trial call, one batch, on desk
# random-gamma's T = 1893). Batches sized by the bool array read no faster.
# A pair-stage batch pays about 0.3 ms in numpy calls whatever its size,
# about a fifth of a large-n trial's time at 1 MiB (384 trials); at 8 MiB
# a large-n trial read slower than at 4 (6.1 against 4.6 us in one process).
_BATCH_BYTES = 1 << 22
_TRIAL_BYTES = 256


def _batch_trials(matrix: TestMatrix, d: int, trial_bytes: float, step: int = 1) -> int:
    """Trials per batch, a positive multiple of ``step``: a plan's
    ``batch_step``, so that a COMA batch fills whole 64-trial words. A trial
    counts 8 bytes per incidence of its d defectives in ``matrix`` at the
    mean column weight, for the pair gathered from it (an int32 trial and
    a narrow test) and its int32 key, plus ``trial_bytes``: a plan's test
    masks and the channel's flips, or dense outcome rows. A COMA plan's
    masks count T / 8 bytes a trial, while a batch on its dense stage fills
    T bytes a trial of bool rows first (see ``_BATCH_BYTES``)."""
    incidences = matrix.ones_count() / matrix.num_items
    per_trial = trial_bytes + d * 8 * incidences + _TRIAL_BYTES
    return max(1, int(_BATCH_BYTES // per_trial) // step) * step


def _draw_chunk(d: int) -> int:
    """Trials per chunk of PCG64 states, with d the draws per trial that
    ``_floyd_draws`` makes from them, or 0 where it does not run. Its arrays
    peak at about 64 (d + 2) bytes a trial; a chunk takes four batches'
    budget, as numpy's per-call cost needs thousands of trials to amortise."""
    return max(1, 4 * _BATCH_BYTES // (64 * (d + 2)))


def _draw_defectives(rng: np.random.Generator, prior: Prior, n: int) -> np.ndarray:
    """The defective items of one trial, sorted under the iid prior; the
    harness sorts a batch of uniform draws at once."""
    if prior.kind == PRIOR_UNIFORM_EXACT:
        return rng.choice(n, size=prior.d, replace=False)
    return np.flatnonzero(rng.random(n) < prior.d / n)


def _found(keys: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    """Which of ``keys`` occur in the sorted array ``sorted_keys``."""
    at = np.minimum(np.searchsorted(sorted_keys, keys), sorted_keys.size - 1)
    return sorted_keys[at] == keys if sorted_keys.size else np.zeros(keys.size, dtype=bool)


def _score_batch(plan, trial: np.ndarray, items: np.ndarray, num_trials: int,
                 flips: np.ndarray | None = None) -> np.ndarray:
    """Gather the OR channel's positives of a batch of trials, where trial
    ``trial[k]`` holds defective ``items[k]`` (sorted within each trial),
    from the matrix the plan evaluates, have the plan decode them under the
    channel's flips, and score the batch as :class:`Breakdown` documents:
    (errors, false-positive items, ambiguous blocks, wrong estimates). A
    trial errs when it has an ambiguous block or its estimate differs from
    its defective set."""
    est_trial, est_item, amb_trial, _ = plan.decode_pairs(
        *_or_gather(plan.evaluated, trial, items), num_trials, flips)
    n = plan.evaluated.num_items
    true_est = _found(_pair_keys(est_trial, est_item, num_trials, n),
                      _pair_keys(trial, items, num_trials, n))

    def per_trial(which: np.ndarray) -> np.ndarray:
        return np.bincount(which, minlength=num_trials)

    extra = per_trial(est_trial[~true_est])
    # the estimates of a trial are distinct, so each hit is a distinct defective
    missing = per_trial(trial) - per_trial(est_trial[true_est])
    ambiguous = per_trial(amb_trial)
    failed = (ambiguous > 0) | (extra > 0) | (missing > 0)
    return np.array([failed.sum(), extra.sum(), ambiguous.sum(), (missing > 0).sum()])


def _trial_batches(n: int, num_tests: int, prior: Prior, sigma: float, master_seed: int,
                   start: int, count: int, batch: int):
    """Trials ``start .. start + count - 1`` as the seeding contract draws
    them, ``batch`` at a time: (trial of each defective, numbered from 0 in
    the batch in ``_index_dtype(batch)``, int32; defectives sorted within
    each trial, int64; number of trials; flips of the ``num_tests`` tests or
    None when noiseless). Each chunk of trials gets its PCG64 states at
    once. Where the replica covers the run, ``_floyd_draws`` computes the
    chunk's sets from them; a generator draws only the flagged trials'
    sets, and on a noisy run every trial's noise, from the state
    ``_floyd_draws`` resumes it at. Elsewhere a generator draws every trial,
    in trial order, with its noise."""
    replica = _replica_covers(prior, n)
    chunk = _draw_chunk(prior.d if replica else 0)
    noisy_tests = num_tests if sigma > 0.0 else 0
    draws = np.empty(noisy_tests)  # one trial's noise draws
    flips = np.empty((min(batch, count), noisy_tests), dtype=bool)
    for first in range(start, start + count, chunk):
        size = min(chunk, start + count - first)
        # the first chunk runs the check, so a zero-trial run never does
        states = (_pcg64_states(_trial_seeds(master_seed, first, size))
                  if _replica_matches() else None)
        if replica and states is not None:
            picks, flagged, states = _floyd_draws(states, n, prior.d, jump=noisy_tests > 0)
            flagged_rows = np.flatnonzero(flagged).tolist()
            redraw = set(flagged_rows)
            # a noisy run visits every trial, for its noise; a noiseless one the flagged
            rows = range(size) if noisy_tests else flagged_rows
            visits = zip(rows, _trial_generators(master_seed, first, states, rows))
            for lo in range(0, size, batch):
                part = picks[lo : lo + batch]
                for row, rng in itertools.islice(visits, len(part) if noisy_tests else
                                                 np.count_nonzero(flagged[lo : lo + batch])):
                    if row in redraw:
                        picks[row] = np.sort(rng.choice(n, prior.d, replace=False))
                    if noisy_tests:
                        _noise_flips(sigma, rng, draws, flips[row - lo])
                trial = np.repeat(np.arange(len(part), dtype=_index_dtype(batch)), prior.d)
                yield (trial, part.reshape(-1), len(part),
                       flips[: len(part)] if noisy_tests else None)
            continue
        for lo in range(0, size, batch):
            num_trials = min(batch, size - lo)
            rows = range(lo, lo + num_trials)
            picks = []
            for row, rng in enumerate(_trial_generators(master_seed, first, states, rows)):
                picks.append(_draw_defectives(rng, prior, n))
                if noisy_tests:
                    _noise_flips(sigma, rng, draws, flips[row])
            items = np.concatenate(picks)
            if prior.kind == PRIOR_UNIFORM_EXACT:
                items.reshape(num_trials, prior.d).sort(axis=1)
            trial = np.repeat(np.arange(num_trials, dtype=_index_dtype(batch)),
                              [p.size for p in picks])
            yield trial, items, num_trials, flips[:num_trials] if noisy_tests else None


def _run_trial_range(matrix: TestMatrix, plan, prior: Prior, sigma: float, master_seed: int,
                     start: int, count: int) -> tuple[int, int, int, int]:
    """Trials ``start .. start + count - 1``, drawn as the seeding contract
    fixes them and evaluated, decoded and scored a batch at a time."""
    # build the OR channel's column index before the first trial
    plan.evaluated.column_index()
    flipped = matrix.num_tests if sigma > 0.0 else 0
    batch = _batch_trials(plan.evaluated, prior.d, plan.trial_bytes + flipped, plan.batch_step)
    totals = np.zeros(4, dtype=np.int64)
    for trial, items, num_trials, flips in _trial_batches(
            matrix.num_items, matrix.num_tests, prior, sigma, master_seed, start, count, batch):
        totals += _score_batch(plan, trial, items, num_trials, flips)
    return tuple(totals.tolist())


def _run_worker(matrix: TestMatrix, decoder: str, prior: Prior, sigma: float, master_seed: int,
                start: int, count: int) -> tuple[int, int, int, int]:
    """A worker process's trial range, with the worker's own plan."""
    return _run_trial_range(matrix, make_plan(matrix, decoder), prior, sigma, master_seed,
                            start, count)


def _process_pool(jobs: int):
    """A pool of ``jobs`` worker processes. ``concurrent.futures`` is
    imported here, as only a run of more than one job needs it and its
    modules take about 0.9 MB in every process that loads them."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=jobs)


def run_monte_carlo(matrix: TestMatrix, decoder: str, config: SimConfig) -> SimReport:
    """Estimate the decoding error rate over ``config.trials`` random trials.

    ``decoder`` is one of coma/hypergrid/binary/majority or ``auto`` (pick by
    design tag). A trial errs when the decoder reports any ambiguity or its
    estimate differs from the drawn defective set. Noise (``params.sigma`` > 0)
    is only ever paired with majority decoding; any other pairing is refused.
    A worker of a ``parallelism`` > 1 run that ends before it returns its
    trials raises :class:`~sparsegt.core.WorkerLostError`, and running out
    of memory in the set-up or the trials a
    :class:`~sparsegt.core.ResourceCapError` that names which.
    """
    sigma = config.params.sigma or 0.0
    with _out_of_memory("the set-up (column index and decode plan)"):
        plan = make_plan(matrix, decoder)  # validates the pairing early
    if sigma > 0.0 and plan.kind != "majority":
        raise IncompatibleDecoderError(
            f"sigma={sigma:g} requires a repeated design with majority decoding; "
            f"got decoder {plan.kind!r}"
        )
    if config.params.n != matrix.num_items:
        raise InvalidParameterError(
            f"params.n={config.params.n} but matrix has {matrix.num_items} items"
        )
    started = time.perf_counter()
    # a pool started by fork forks all its workers at the first submit, so
    # it gets no more than the machine's processors; by the seeding
    # contract, any split of the trials gives the same counts
    jobs = min(config.parallelism, max(1, config.trials), os.cpu_count() or 1)
    with _out_of_memory("the trials"):
        if jobs > 1:
            bounds = [config.trials * j // jobs for j in range(jobs + 1)]
            worker = functools.partial(_run_worker, matrix, plan.kind, config.prior, sigma,
                                       config.master_seed)
            from concurrent.futures.process import BrokenProcessPool

            try:
                with _process_pool(jobs) as pool:
                    parts = list(pool.map(worker, bounds[:-1], np.diff(bounds).tolist()))
            except BrokenProcessPool as exc:
                raise WorkerLostError(
                    f"a worker process of the {jobs}-job run ended before returning its "
                    "trials (out of memory?); try fewer jobs") from exc
        else:
            parts = [_run_trial_range(matrix, plan, config.prior, sigma, config.master_seed, 0,
                                      config.trials)]
    errors = sum(p[0] for p in parts)
    breakdown = Breakdown(
        false_positive_items=sum(p[1] for p in parts),
        ambiguous_blocks=sum(p[2] for p in parts),
        wrong_estimate=sum(p[3] for p in parts),
    )
    ci_low, ci_high = wilson_interval(errors, config.trials)
    return SimReport(
        design_tag=matrix.design_tag,
        num_items=matrix.num_items,
        num_tests=matrix.num_tests,
        d=config.prior.d,
        gamma=matrix.col_limit,
        rho=matrix.row_limit,
        sigma=sigma,
        trials=config.trials,
        errors=errors,
        error_rate=errors / config.trials if config.trials else 0.0,
        ci_low=ci_low,
        ci_high=ci_high,
        breakdown=breakdown,
        master_seed=config.master_seed,
        wall_time=time.perf_counter() - started,
    )


# ---------------------------------------------------------------------------
# exact oracles
# ---------------------------------------------------------------------------


def _count_sets(n: int, d: int, cap: int) -> int:
    """C(n, d), refusing a d outside [0, n], a negative ``cap`` or a count
    above ``cap``."""
    d, cap = _parameter("oracle d", d, n=n), _parameter("cap", cap)
    total = math.comb(n, d)
    if total > cap:
        raise ResourceCapError(
            f"C({n},{d}) = {total} defective sets exceeds the cap of {cap}"
        )
    return total


def exhaustive_error_probability(
    matrix: TestMatrix, decoder: str, d: int, cap: int = 10_000_000
) -> Fraction:
    """Exact error probability under a uniform size-d defective set.

    Enumerates all C(n, d) defective sets and counts decoding failures;
    refuses when the enumeration exceeds ``cap``.
    """
    total = _count_sets(matrix.num_items, d, cap)
    plan = make_plan(matrix, decoder)
    errors = 0
    batch = _batch_trials(plan.evaluated, d, plan.trial_bytes, plan.batch_step)
    for trial, items, num_sets in _set_batches(matrix, d, batch):
        errors += int(_score_batch(plan, trial, items, num_sets)[0])
    return Fraction(errors, total)


def block_collision_error(matrix: TestMatrix, d: int) -> Fraction:
    """Exact chance that a uniform size-d defective set puts two defectives
    in one block: 1 - e_d(block sizes) / C(n, d), with e_d the elementary
    symmetric polynomial, in Python integers. A strict block decoder errs on
    exactly these sets. A matrix without blocks is one block; malformed
    offsets raise :class:`~sparsegt.core.InvalidParameterError`."""
    n = matrix.num_items
    d = _parameter("oracle d", d, n=n)
    bounds = _checked_block_bounds(matrix)
    sizes, counts = np.unique(bounds[:, 1] - bounds[:, 0], return_counts=True)
    spread = [1] + [0] * d  # e_0 .. e_d of the sizes so far
    for size, count in zip(sizes.tolist(), counts.tolist()):
        # multiply by (1 + size x)^count, truncated at degree d
        factor = [math.comb(count, i) * size**i for i in range(d + 1)]
        spread = [sum(spread[k - i] * factor[i] for i in range(k + 1)) for k in range(d + 1)]
    total = math.comb(n, d)
    return Fraction(total - spread[d], total)


def _set_batches(matrix: TestMatrix, d: int, batch: int):
    """The size-d item sets in lexicographic order, ``batch`` sets at a time:
    (set of each item, int32 below 2**31 sets, items, number of sets)."""
    combos = itertools.combinations(range(matrix.num_items), d)
    while sets := list(itertools.islice(combos, batch)):
        trial = np.repeat(np.arange(len(sets), dtype=_index_dtype(batch)), d)
        yield trial, np.array(sets, dtype=np.int64).reshape(-1), len(sets)


def outcome_collision_groups(
    matrix: TestMatrix, d: int, cap: int = 1_000_000
) -> list[list[tuple[int, ...]]]:
    """Groups of size-d defective sets that produce identical outcomes.

    Such sets are mutually confusable: no decoder can tell them apart. Only
    groups with at least two members are returned, in first-seen order.
    """
    _count_sets(matrix.num_items, d, cap)
    by_outcome: dict[bytes, list[tuple[int, ...]]] = {}
    num_tests = matrix.num_tests
    for trial, items, num_sets in _set_batches(matrix, d, _batch_trials(matrix, d, num_tests)):
        keys = np.packbits(_or_bits(*_or_gather(matrix, trial, items), num_sets, num_tests),
                           axis=1)
        for combo, key in zip(items.reshape(num_sets, d).tolist(), keys):
            by_outcome.setdefault(key.tobytes(), []).append(tuple(combo))
    return [group for group in by_outcome.values() if len(group) > 1]


_BAYES_MAX_ITEMS = 12
_BAYES_MAX_TESTS = 16


def bayes_optimal_error(matrix: TestMatrix, sigma: float, prior: Prior) -> float:
    """Exact error probability of the best possible decoder.

    Full enumeration over all 2^n inputs and 2^T observed outcome vectors of
    the bit-flip channel: the optimal rule picks, for each observation, the
    input maximizing prior times likelihood, and this function returns one
    minus the probability mass it captures, evaluating all inputs in one OR
    batch. Capped at n <= 12 and T <= 16.
    """
    n, num_tests = matrix.num_items, matrix.num_tests
    if n > _BAYES_MAX_ITEMS or num_tests > _BAYES_MAX_TESTS:
        raise ResourceCapError(
            f"exact enumeration capped at n <= {_BAYES_MAX_ITEMS} and "
            f"T <= {_BAYES_MAX_TESTS}; got n={n}, T={num_tests}"
        )
    sigma = _parameter("sigma", sigma)
    _parameter("oracle d", prior.d, n=n)

    # input x holds item i when bit i of x is set; its signature has bit t
    # set when test t is positive
    num_inputs = 1 << n
    members = np.arange(num_inputs)[:, None] >> np.arange(n) & 1
    bits = _or_bits(*_or_gather(matrix, *members.nonzero()), num_inputs, num_tests)
    signatures = bits @ (np.uint32(1) << np.arange(num_tests, dtype=np.uint32))

    popcount_inputs = members.sum(axis=1)
    if prior.kind == PRIOR_IID_BERNOULLI:
        p = prior.d / n
        weights = p**popcount_inputs * (1.0 - p) ** (n - popcount_inputs)
    else:
        weights = np.where(
            popcount_inputs == prior.d, 1.0 / math.comb(n, prior.d), 0.0
        )

    # likelihood of an observation depends only on its Hamming distance to
    # the noiseless signature
    flip_likelihood = sigma ** np.arange(num_tests + 1) * (1.0 - sigma) ** (
        num_tests - np.arange(num_tests + 1)
    )
    popcount_observed = (np.arange(1 << num_tests)[:, None] >> np.arange(num_tests) & 1).sum(1)

    captured = 0.0
    num_observations = 1 << num_tests
    # keep the (inputs x observations) work arrays around 16 MB
    chunk = max(256, (1 << 21) // num_inputs)
    for lo in range(0, num_observations, chunk):
        observed = np.arange(lo, min(lo + chunk, num_observations), dtype=np.uint32)
        distance = popcount_observed[np.bitwise_xor.outer(signatures, observed)]
        posterior = weights[:, None] * flip_likelihood[distance]
        captured += float(posterior.max(axis=0).sum())
    # captured can exceed 1 by a few ulp when the decoder is perfect
    return max(0.0, 1.0 - captured)
