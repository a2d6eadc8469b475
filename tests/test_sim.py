"""Monte Carlo harness, trial seeding, Wilson intervals, exact oracles."""

import contextlib
import functools
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sparsegt import sim
from sparsegt.bounds import gamma_lower_bound
from sparsegt.core import (
    DesignParams,
    IncompatibleDecoderError,
    InvalidParameterError,
    Prior,
    PRIOR_IID_BERNOULLI,
    PRIOR_UNIFORM_EXACT,
    ResourceCapError,
    TestMatrix,
    WorkerLostError,
)
from sparsegt.designs import (
    block_binary_rho_design,
    block_hypergrid_design,
    hypergrid_design,
    permuted_block_rho_design,
    random_gamma_design,
    repeat_design,
)
from sparsegt.sim import (
    SIM_CSV_HEADER,
    SimConfig,
    bayes_optimal_error,
    block_collision_error,
    derive_trial_seed,
    exhaustive_error_probability,
    outcome_collision_groups,
    run_monte_carlo,
    wilson_interval,
)

GRID9 = hypergrid_design(9, 2)

forks = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                           reason="needs the fork start method")


def _exit_at_once(*args):
    """A worker that ends its process at once, as the kernel's
    out-of-memory killer would."""
    os._exit(1)


def _out_of_memory_at_once(*args):
    """A worker that runs out of memory at once."""
    raise MemoryError


def _fork_pool(jobs):
    """A pool of ``jobs`` fork-started workers, in place of
    ``sim._process_pool``."""
    return ProcessPoolExecutor(max_workers=jobs, mp_context=multiprocessing.get_context("fork"))


@contextlib.contextmanager
def lost_workers():
    """Runs of two fork-started workers that each end at once."""
    with mock.patch.object(sim, "_run_worker", _exit_at_once), \
            mock.patch.object(sim, "_process_pool", _fork_pool), \
            mock.patch("os.cpu_count", return_value=2):
        yield


def config(n, d, trials, seed, jobs=1, **params):
    p = DesignParams(n=n, d=d, **params)
    return SimConfig(
        params=p,
        prior=Prior(PRIOR_UNIFORM_EXACT, d),
        trials=trials,
        master_seed=seed,
        parallelism=jobs,
    )


class TestWilsonInterval:
    def test_frozen_values(self):
        assert wilson_interval(0, 100) == (0.0, pytest.approx(0.03699349820698568))
        low, high = wilson_interval(5, 100)
        assert low == pytest.approx(0.02154367915436796)
        assert high == pytest.approx(0.11175046923191913)
        low, high = wilson_interval(70, 10_000)
        assert low == pytest.approx(0.005544619309554507)
        assert high == pytest.approx(0.008834003083932618)

    def test_zero_errors_clamps_low_to_zero(self):
        assert wilson_interval(0, 50)[0] == 0.0

    def test_all_errors_clamps_high_to_one(self):
        assert wilson_interval(50, 50)[1] == 1.0

    def test_contains_point_estimate(self):
        for errors, trials in [(1, 10), (3, 17), (250, 1000)]:
            low, high = wilson_interval(errors, trials)
            assert low < errors / trials < high

    def test_shrinks_with_trials(self):
        w1 = wilson_interval(10, 100)
        w2 = wilson_interval(100, 1000)
        assert (w2[1] - w2[0]) < (w1[1] - w1[0])


class TestTrialSeeds:
    def test_deterministic(self):
        assert derive_trial_seed(42, 0) == derive_trial_seed(42, 0)

    def test_distinct_across_trials_and_masters(self):
        seeds = {derive_trial_seed(m, t) for m in (0, 1, 42) for t in range(500)}
        assert len(seeds) == 3 * 500

    def test_frozen_values(self):
        # part of the reproducibility contract: published runs depend on these
        assert derive_trial_seed(42, 0) == 13679457532755275413
        assert derive_trial_seed(42, 1) == 2949826092126892291
        assert derive_trial_seed(43, 0) == 13432527470776545160

    def test_numpy_integers_give_the_python_seed(self):
        for seed, trial in ((5, 3), (42, 0), (2**63 - 1, 7)):
            want = derive_trial_seed(seed, trial)
            assert derive_trial_seed(np.int64(seed), np.int64(trial)) == want
            assert derive_trial_seed(np.uint64(seed), np.int32(trial)) == want
            assert type(derive_trial_seed(np.int64(seed), trial)) is int

    @pytest.mark.parametrize("args", [(5.0, 3), (5, 3.0), (True, 3), (5, None), ("5", 3)])
    def test_refuses_a_non_integer(self, args):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            derive_trial_seed(*args)

    @pytest.mark.parametrize("args", [(-1, 3), (5, -1), (np.int64(-1), 0)])
    def test_refuses_a_negative_seed_or_trial(self, args):
        with pytest.raises(InvalidParameterError, match="must be >= 0"):
            derive_trial_seed(*args)


class TestRunMonteCarlo:
    def test_zero_error_design(self):
        report = run_monte_carlo(
            GRID9, "hypergrid", config(9, 1, 300, seed=5, epsilon=0.4, gamma=2)
        )
        assert report.errors == 0
        assert report.error_rate == 0.0
        assert report.trials == 300
        assert report.num_tests == 6

    def test_parallelism_does_not_change_results(self):
        cfg1 = config(9, 2, 400, seed=5, epsilon=0.4, gamma=2)
        cfg3 = config(9, 2, 400, seed=5, jobs=3, epsilon=0.4, gamma=2)
        r1 = run_monte_carlo(GRID9, "coma", cfg1)
        r3 = run_monte_carlo(GRID9, "coma", cfg3)
        assert r1.errors == r3.errors
        assert r1.breakdown == r3.breakdown
        assert r1.error_rate == r3.error_rate

    @pytest.mark.parametrize("processors, workers", [(3, 3), (None, 0)])
    def test_pool_gets_at_most_one_worker_per_processor(self, processors, workers):
        """``--jobs 100000`` asks for far more workers than processors; a
        fork-started pool would fork them all at its first submit. The pool
        gets one per processor (none on a machine whose count is unknown,
        which runs in-process), and the counts are those of one worker. The
        pool is a stand-in that runs its calls in-process, so no process
        starts."""
        pools = []

        class InProcessPool:
            def __init__(self, jobs):
                pools.append(jobs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *args):
                return map(fn, *args)

        with mock.patch.object(sim, "_process_pool", InProcessPool), \
                mock.patch("os.cpu_count", return_value=processors):
            many = run_monte_carlo(GRID9, "coma",
                                   config(9, 2, 1000, seed=5, jobs=100_000, epsilon=0.4, gamma=2))
        one = run_monte_carlo(GRID9, "coma", config(9, 2, 1000, seed=5, epsilon=0.4, gamma=2))
        assert pools == ([workers] if workers else [])
        assert (many.errors, many.breakdown) == (one.errors, one.breakdown)

    def test_a_repeated_design_reaches_the_workers_as_its_base(self):
        """C7's design, pickled to two workers as its base and k, gives the
        counts of one job, and the parent never derives its copies."""
        base = permuted_block_rho_design(1000, 10, 50, 0.5, np.random.default_rng(3))
        matrix = repeat_design(base, 65)
        reports = []
        for jobs in (1, 2):
            with mock.patch("os.cpu_count", return_value=2):
                reports.append(run_monte_carlo(matrix, "majority", config(
                    1000, 10, 1000, seed=42, jobs=jobs, rho=50, sigma=0.3, zeta=0.5)))
        one, two = reports
        assert (two.errors, two.breakdown) == (one.errors, one.breakdown)
        assert one.errors > 0
        assert "indices" not in vars(matrix)

    @forks
    def test_a_lost_worker_raises_worker_lost(self):
        """A worker that ends abruptly surfaces as the documented
        ``ResourceCapError`` subclass, not as the pool's own error."""
        with lost_workers(), pytest.raises(WorkerLostError, match="2-job run"):
            run_monte_carlo(GRID9, "coma", config(9, 2, 100, seed=5, jobs=2, epsilon=0.4,
                                                  gamma=2))

    @pytest.mark.parametrize("target, layer", [
        ("make_plan", "the set-up"),
        ("_run_trial_range", "the trials"),
    ])
    def test_running_out_of_memory_names_the_layer(self, target, layer):
        """A ``MemoryError`` in the set-up or the trials surfaces as the
        documented ``ResourceCapError``; any other error passes as it is."""
        run = functools.partial(run_monte_carlo, GRID9, "coma",
                                config(9, 2, 100, seed=5, epsilon=0.4, gamma=2))
        with mock.patch.object(sim, target, side_effect=MemoryError), \
                pytest.raises(ResourceCapError, match=f"^out of memory in {layer}") as caught:
            run()
        assert type(caught.value) is ResourceCapError
        assert isinstance(caught.value.__cause__, MemoryError)
        with mock.patch.object(sim, target, side_effect=KeyError("not memory")), \
                pytest.raises(KeyError):
            run()

    @forks
    def test_a_worker_out_of_memory_names_the_trials(self):
        """A worker's ``MemoryError`` reaches the parent through the pool,
        and is named like one in this process."""
        with mock.patch.object(sim, "_run_worker", _out_of_memory_at_once), \
                mock.patch.object(sim, "_process_pool", _fork_pool), \
                mock.patch("os.cpu_count", return_value=2), \
                pytest.raises(ResourceCapError, match="^out of memory in the trials"):
            run_monte_carlo(GRID9, "coma", config(9, 2, 100, seed=5, jobs=2, epsilon=0.4,
                                                  gamma=2))

    def test_rate_matches_exhaustive_on_small_instance(self):
        exact = float(exhaustive_error_probability(GRID9, "coma", 2))
        report = run_monte_carlo(GRID9, "coma", config(9, 2, 4000, seed=9, epsilon=0.4, gamma=2))
        assert report.ci_low <= exact <= report.ci_high

    def test_ambiguous_trials_counted_as_errors(self):
        report = run_monte_carlo(
            GRID9, "hypergrid", config(9, 2, 500, seed=3, epsilon=0.4, gamma=2)
        )
        # every 2-subset confuses the strict reader one way or another
        assert report.errors == 500
        assert report.breakdown.ambiguous_blocks > 0

    def test_noise_requires_majority_decoder(self):
        with pytest.raises(IncompatibleDecoderError):
            run_monte_carlo(
                GRID9, "coma", config(9, 1, 10, seed=0, epsilon=0.4, sigma=0.1)
            )

    def test_noisy_majority_run(self):
        base = permuted_block_rho_design(60, 2, 6, 0.5, np.random.default_rng(1))
        m = repeat_design(base, 21)
        cfg = config(60, 2, 200, seed=7, sigma=0.1, zeta=0.5, rho=6)
        report = run_monte_carlo(m, "majority", cfg)
        assert report.sigma == 0.1
        assert report.error_rate <= 0.05

    def test_params_must_match_matrix(self):
        with pytest.raises(InvalidParameterError):
            run_monte_carlo(GRID9, "coma", config(10, 1, 10, seed=0, epsilon=0.4))

    def test_prior_larger_than_n_is_refused(self):
        m = hypergrid_design(9, 2)
        for kind in (PRIOR_IID_BERNOULLI, PRIOR_UNIFORM_EXACT):
            with pytest.raises(InvalidParameterError):
                cfg = SimConfig(
                    params=DesignParams(n=9, d=1),
                    prior=Prior(kind, 10),
                    trials=5,
                    master_seed=1,
                )
                run_monte_carlo(m, "coma", cfg)

    @pytest.mark.parametrize("kind", [PRIOR_IID_BERNOULLI, PRIOR_UNIFORM_EXACT])
    def test_prior_of_another_d_is_refused(self, kind):
        """The parameters and the prior must name one d; a run never picks
        one of two silently."""
        with pytest.raises(InvalidParameterError, match="params.d=1 but the prior's d is 7"):
            SimConfig(params=DesignParams(n=100, d=1), prior=Prior(kind, 7), trials=50,
                      master_seed=0)

    def test_csv_row_shape(self):
        report = run_monte_carlo(
            GRID9, "hypergrid", config(9, 1, 100, seed=5, epsilon=0.4, gamma=2)
        )
        fields = report.csv_row().split(",")
        assert len(fields) == len(SIM_CSV_HEADER.split(","))
        assert fields[0] == "hypergrid"
        assert fields[1] == "9"
        assert fields[2] == "1"
        assert fields[6] == "6"
        assert fields[12] == "5"

    def test_trial_draws_follow_published_contract(self):
        # re-derive trial 17's defective set by hand from the documented order
        cfg = config(9, 2, 25, seed=11, epsilon=0.4, gamma=2)
        run_monte_carlo(GRID9, "coma", cfg)  # must not disturb determinism
        rng = np.random.default_rng(derive_trial_seed(11, 17))
        defect = np.sort(rng.choice(9, size=2, replace=False))
        rng2 = np.random.default_rng(derive_trial_seed(11, 17))
        again = np.sort(rng2.choice(9, size=2, replace=False))
        assert np.array_equal(defect, again)


class TestReplicaCheck:
    def test_runs_once_per_process_and_never_for_zero_trials(self):
        sim._replica_matches.cache_clear()
        run_monte_carlo(GRID9, "coma", config(9, 2, 0, 42))
        assert sim._replica_matches.cache_info().misses == 0
        first = run_monte_carlo(GRID9, "coma", config(9, 2, 50, 42))
        again = run_monte_carlo(GRID9, "coma", config(9, 2, 50, 42))
        info = sim._replica_matches.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert first.csv_row() == again.csv_row()


class TestExhaustiveOracle:
    def test_grid_decodes_every_singleton(self):
        assert exhaustive_error_probability(GRID9, "hypergrid", 1) == Fraction(0)
        assert exhaustive_error_probability(GRID9, "coma", 1) == Fraction(0)

    def test_grid_fails_every_pair(self):
        assert exhaustive_error_probability(GRID9, "hypergrid", 2) == Fraction(1)

    def test_block_design_pair_error(self):
        m = block_hypergrid_design(36, 2, 2, 0.5)
        assert exhaustive_error_probability(m, "hypergrid", 2) == Fraction(32, 315)

    def test_cap(self):
        m = hypergrid_design(64, 2)
        with pytest.raises(ResourceCapError):
            exhaustive_error_probability(m, "coma", 5, cap=1000)

    def test_d_zero(self):
        assert exhaustive_error_probability(GRID9, "coma", 0) == Fraction(0)


class TestBlockCollisionError:
    def test_no_blocks_is_one_block(self):
        assert block_collision_error(GRID9, 1) == Fraction(0)
        assert block_collision_error(GRID9, 2) == Fraction(1)
        assert block_collision_error(GRID9, 0) == Fraction(0)

    @pytest.mark.parametrize("d", [-1, 10])
    def test_d_outside_the_items_refused(self, d):
        with pytest.raises(InvalidParameterError):
            block_collision_error(GRID9, d)

    @given(st.sampled_from(["hypergrid", "binary"]), st.integers(2, 30), st.integers(1, 3),
           st.integers(1, 10), st.floats(0.05, 0.95), st.integers(0, 3))
    @settings(max_examples=150, deadline=None)
    def test_equals_the_exhaustive_oracle(self, decoder, n, design_d, budget, epsilon, d):
        """A strict block decoder errs on exactly the sets with two
        defectives in one block."""
        assume(d <= n)
        try:
            if decoder == "hypergrid":
                matrix = block_hypergrid_design(n, design_d, min(budget, 3), epsilon)
            else:
                matrix = block_binary_rho_design(n, design_d, budget, epsilon)
        except InvalidParameterError:  # outside the family's regime
            assume(False)
        assert block_collision_error(matrix, d) == exhaustive_error_probability(
            matrix, decoder, d)


class TestCollisionGroups:
    def test_grid_pairs(self):
        groups = outcome_collision_groups(GRID9, 2)
        assert len(groups) == 9
        as_sets = [set(map(frozenset, g)) for g in groups]
        assert {frozenset({0, 4}), frozenset({1, 3})} in as_sets
        assert {frozenset({1, 5}), frozenset({2, 4})} in as_sets

    def test_singletons_have_no_collisions(self):
        assert outcome_collision_groups(GRID9, 1) == []

    def test_cap(self):
        m = hypergrid_design(50, 2)
        with pytest.raises(ResourceCapError):
            outcome_collision_groups(m, 4, cap=100)


@pytest.mark.parametrize(
    "call, bad, good",
    [
        (lambda n: DesignParams(n, 2), 9.0, np.int64(9)),
        (lambda d: DesignParams(9, d), 2.5, np.int64(2)),
        (lambda d: Prior(PRIOR_UNIFORM_EXACT, d), 2.5, np.int64(2)),
        (lambda t: run_monte_carlo(GRID9, "auto", config(9, 1, t, 0)).errors, 2.5, np.int64(20)),
        (lambda s: run_monte_carlo(GRID9, "auto", config(9, 1, 20, s)).errors, 1.0, np.int64(1)),
        (lambda j: run_monte_carlo(GRID9, "auto", config(9, 1, 20, 0, j)).errors, 1.0,
         np.int64(1)),
        (lambda d: exhaustive_error_probability(GRID9, "coma", d), 1.5, np.int64(2)),
        (lambda d: block_collision_error(GRID9, d), 1.5, np.int64(2)),
        (lambda cap: exhaustive_error_probability(GRID9, "coma", 1, cap), 1e7, np.int64(9)),
        (lambda n: random_gamma_design(n, 2, 2, 0.1, np.random.default_rng(0)), 100.0,
         np.int64(100)),
        (lambda g: gamma_lower_bound(DesignParams(100, 2, epsilon=0.1, gamma=g)).value, 2.5,
         np.int64(2)),
    ],
    ids=["n", "d", "prior-d", "trials", "master-seed", "parallelism", "oracle-d", "collision-d", "oracle-cap",
         "random-gamma-n", "bound-gamma"],
)
def test_parameter_bundles_refuse_non_integers(call, bad, good):
    """DesignParams, Prior, SimConfig and the exact oracles' d and cap
    refuse a float where they accepted it, or raised a raw TypeError later;
    NumPy integers give what the ints they hold give."""
    with pytest.raises(InvalidParameterError, match="must be an integer"):
        call(bad)
    assert call(good) == call(int(good))


@pytest.mark.parametrize("oracle", [
    lambda cap: exhaustive_error_probability(GRID9, "coma", 1, cap=cap),
    lambda cap: outcome_collision_groups(GRID9, 1, cap=cap),
], ids=["exhaustive", "collision-groups"])
def test_negative_cap_refused(oracle):
    with pytest.raises(InvalidParameterError, match="cap must be >= 0"):
        oracle(-5)
    oracle(9)  # the C(9, 1) = 9 sets fit a cap of 9


class TestBayesOracle:
    def test_noiseless_injective_design_is_perfect(self):
        assert bayes_optimal_error(GRID9, 0.0, Prior(PRIOR_UNIFORM_EXACT, 1)) == 0.0

    def test_individual_tests_hand_check(self):
        # six items tested one-by-one through a quarter-flip channel with an
        # iid 1/3 prior: per-item MAP errs with probability 1/4
        singles = TestMatrix(rows=tuple((i,) for i in range(6)), num_items=6)
        value = bayes_optimal_error(singles, 0.25, Prior(PRIOR_IID_BERNOULLI, 2))
        assert value == pytest.approx(1.0 - (3.0 / 4.0) ** 6, rel=1e-12)

    def test_noise_monotone(self):
        # above sigma = p the observation stops being informative and the
        # error plateaus, so compare with a float-noise allowance
        singles = TestMatrix(rows=tuple((i,) for i in range(5)), num_items=5)
        prior = Prior(PRIOR_IID_BERNOULLI, 1)
        errs = [bayes_optimal_error(singles, s, prior) for s in (0.05, 0.15, 0.3, 0.45)]
        assert all(b >= a - 1e-12 for a, b in zip(errs, errs[1:]))
        assert errs[1] > errs[0]

    def test_caps(self):
        wide = TestMatrix(rows=tuple((i,) for i in range(13)), num_items=13)
        with pytest.raises(ResourceCapError):
            bayes_optimal_error(wide, 0.1, Prior(PRIOR_IID_BERNOULLI, 1))
        tall = TestMatrix(rows=tuple((0,) for _ in range(17)), num_items=2)
        with pytest.raises(ResourceCapError):
            bayes_optimal_error(tall, 0.1, Prior(PRIOR_IID_BERNOULLI, 1))

    def test_sigma_range(self):
        with pytest.raises(InvalidParameterError):
            bayes_optimal_error(GRID9, 0.5, Prior(PRIOR_UNIFORM_EXACT, 1))

    def test_uniform_prior_larger_than_n(self):
        with pytest.raises(InvalidParameterError):
            bayes_optimal_error(GRID9, 0.1, Prior(PRIOR_UNIFORM_EXACT, 10))

    def test_never_negative(self):
        value = bayes_optimal_error(GRID9, 0.0, Prior(PRIOR_IID_BERNOULLI, 1))
        assert value >= 0.0

    @pytest.mark.parametrize("index", [3, 7, -1, -3], ids=["n", "above-n", "minus-1", "minus-n"])
    def test_item_index_outside_the_items_refused(self, index):
        matrix = TestMatrix(rows=[(0,), (index,)], num_items=3)
        with pytest.raises(InvalidParameterError, match="outside"):
            bayes_optimal_error(matrix, 0.1, Prior(PRIOR_IID_BERNOULLI, 1))
