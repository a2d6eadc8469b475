"""Decoders: worked grid examples, block readers, majority voting, pairings,
and the cost of decoding and of refusing a design."""

import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from sparsegt import core, decoders, sim
from sparsegt.core import (
    PRIOR_UNIFORM_EXACT,
    TAG_HYPERGRID,
    DefectiveSet,
    DesignParams,
    IncompatibleDecoderError,
    InvalidParameterError,
    Outcomes,
    ParseError,
    Prior,
    TestMatrix,
    apply_noise,
    evaluate,
    parse,
    validate,
)
from sparsegt.decoders import (
    STATUS_AMBIGUOUS,
    STATUS_OK,
    STATUS_UNTESTABLE,
    binary_block_decode,
    coma_decode,
    decoder_for,
    hypergrid_block_decode,
    majority_coma_decode,
    make_plan,
)
from sparsegt.designs import (
    block_binary_rho_design,
    block_hypergrid_design,
    hypergrid_design,
    permuted_block_rho_design,
    random_gamma_design,
    repeat_design,
)
from sparsegt.sim import SimConfig, exhaustive_error_probability, run_monte_carlo

GRID9 = hypergrid_design(9, 2)


def outcome_of(matrix, items):
    return evaluate(matrix, DefectiveSet(items, matrix.num_items))


@pytest.fixture(scope="module")
def large_design():
    """The large-n benchmark design: n = 400 000 items in 4 tests each,
    T = 16 000 tests of 100 items, 1.6 M incidences."""
    return permuted_block_rho_design(400_000, 10, 100, 0.5, np.random.default_rng(42))


class TestComa:
    def test_single_defective_on_grid(self):
        res = coma_decode(GRID9, outcome_of(GRID9, {5}))
        assert res.estimate.items == (5,)
        assert res.status == STATUS_OK

    def test_masked_pair_yields_superset(self):
        # {2,4} lights tests {1,2,3,4}; items 1 and 5 are fully covered too
        res = coma_decode(GRID9, outcome_of(GRID9, {2, 4}))
        assert res.estimate.items == (1, 2, 4, 5)

    def test_all_negative_returns_empty(self):
        res = coma_decode(GRID9, outcome_of(GRID9, set()))
        assert res.estimate.items == ()
        assert res.status == STATUS_OK

    def test_never_misses_a_defective(self):
        m = random_gamma_design(30, 3, 2, 0.2, np.random.default_rng(8))
        rng = np.random.default_rng(9)
        for _ in range(50):
            d = set(rng.choice(30, size=3, replace=False).tolist())
            res = coma_decode(m, outcome_of(m, d))
            assert d <= set(res.estimate.items)

    def test_untested_items_reported(self):
        m = TestMatrix(rows=((0,), (1,)), num_items=3)
        res = coma_decode(m, outcome_of(m, {0}))
        assert res.status == STATUS_UNTESTABLE
        assert res.untestable_items == (2,)
        # the untested item cannot be ruled out, so it stays in the estimate
        assert res.estimate.items == (0, 2)


    def test_one_decode_allocates_independently_of_n(self):
        """The work of a decode grows with its positive tests, not with n: on
        10**6 items in a two-axis grid (item i has digits i % 1000 and
        i // 1000), three defectives light six tests and their 3000
        candidates, and the call allocates far below one n-sized array (8 MB
        as int64). The estimate is every item whose two digits are lit."""
        matrix = hypergrid_design(10**6, 2)
        plan = make_plan(matrix, "coma")
        bits = outcome_of(matrix, {7, 123_456, 999_999}).bits
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            estimate, _, _ = plan.decode_bits(bits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert estimate.tolist() == sorted(a + 1000 * b for a in (7, 456, 999)
                                           for b in (0, 123, 999))
        assert peak < 256 * 1024


    @pytest.mark.parametrize("n", [50_000, 200_000])
    def test_dense_stage_allocates_in_slices(self, n):
        """Every test fires in every word, so the batch takes the dense
        candidate stage, yet no item passes: test t fires in trial t % 64
        of each word, and item i is in tests i % 128 and (i + 1) % 128.
        One (items, words) array over all n items would take 64 n bytes
        here (12.8 MB at n = 2 * 10**5); the stage takes a slice of the
        items at a time from the table the plan built."""
        num_tests, words = 128, 8
        item = np.arange(n)
        tests = np.stack([item % num_tests, (item + 1) % num_tests], axis=1).reshape(-1)
        order = np.argsort(tests, kind="stable")
        indptr = np.searchsorted(tests[order], np.arange(num_tests + 1))
        matrix = TestMatrix.from_csr(indptr, np.repeat(item, 2)[order], n)
        plan = make_plan(matrix, "coma")
        test = np.tile(np.arange(num_tests), words)
        fired = np.repeat(64 * np.arange(words), num_tests) + test % 64
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            trial, estimate, _, _ = plan.decode_pairs(fired, test, 64 * words, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trial.size == estimate.size == 0
        assert peak < 1 << 20

    def test_dense_fill_peaks_within_its_bool_array(self, large_design):
        """A batch of 384 trials (6 words) of 10 defectives on a design of
        T = 16 000 tests, forced onto the dense stage: the fill sets bits of
        one (T, 384) bool array and packs it into the stage's masks, and the
        whole decode peaks within that array's bytes plus 1 MiB. Every
        defective is reported, as COMA never misses one."""
        n, trials = 400_000, 384
        matrix = large_design
        plan = make_plan(matrix, "coma")
        rng = np.random.default_rng(7)
        items = np.concatenate([rng.choice(n, 10, replace=False) for _ in range(trials)])
        trial = np.repeat(np.arange(trials), 10)
        with mock.patch.object(decoders, "_dense_pays", return_value=True):
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                est_trial, est_item, _, _ = plan.decode_pairs(
                    *core._or_gather(plan.evaluated, trial, items), trials, None)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert np.isin(trial * n + items, est_trial * n + est_item).all()
        assert peak < matrix.num_tests * trials + (1 << 20)

    def test_plan_allocates_little_per_incidence(self, large_design):
        """A COMA plan on a permuted-rho design of 1.6 M incidences (n = 4 *
        10**5 items of weight 4, T = 16000) counts the column weights (2
        bytes per incidence) and takes its (K, items) test table a row at
        a time straight from the column index's uint16 tests, filed by one
        sort of packed keys, with int32 candidates: the build peaks at
        about 7.3 bytes per incidence. In the order of one stable argsort
        of the first tests with int64 candidates it peaked at about 8.1,
        taking each row at its candidates' clamped positions at about 8.8,
        and from a narrow copy of int64 tests near 10.8."""
        matrix = large_design
        matrix.column_index()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            plan = make_plan(matrix, "coma")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert plan.table.shape == (4, 400_000)
        assert plan.table.dtype == np.uint16
        assert peak < 9 * matrix.ones_count()

    def test_only_items_heavier_than_k_take_the_rest(self):
        """The benchmark's COMA designs are column-regular, so no item has
        tests past the table's K rows and no batch ANDs any; a design with
        an item in more tests than K still reads them. Item 0 is in tests
        0, 1 and 2, item 1 in test 0 alone (K = 2): with test 2 negative,
        item 0 is ruled out by its third test."""
        for design in (random_gamma_design(10_000, 5, 3, 0.1, np.random.default_rng(42)),
                       permuted_block_rho_design(10_000, 10, 100, 0.5,
                                                 np.random.default_rng(42))):
            assert not make_plan(design, "coma").heavy
        uneven = TestMatrix(rows=((0, 1), (0,), (0,)), num_items=2)
        assert make_plan(uneven, "coma").heavy
        outcomes = Outcomes(np.array([True, True, False]))
        assert coma_decode(uneven, outcomes).estimate.items == (1,)

    def test_plan_keeps_int32_candidates_and_offsets(self, large_design):
        """The candidates are items, so they take ``core._index_dtype(n)``
        (int32 below 2**31), as do the offsets of the first tests' runs:
        int64 candidates kept 1 byte more per incidence at 4 tests an
        item."""
        plan = make_plan(large_design, "coma")
        assert plan.candidates.dtype == plan.group_ptr.dtype == np.int32
        assert core._index_dtype(large_design.num_items) is np.int32

    def test_plan_and_column_index_allocate_little_per_incidence(self, large_design):
        """Above the matrix, the column index (uint16 tests) and the plan
        hold 9.1 bytes per incidence, and building both peaks at about
        11.3: the index stages 32-bit keys, and the plan's scratch is its
        sorted filing keys (12.1 with int64 candidates and the order of
        its first tests). With int32 positions and one reused int64
        position buffer for the plan it peaked at about 14.8, and an index
        of int64 tests built from one int64 key array near 22.8."""
        matrix = TestMatrix.from_csr(large_design.indptr, large_design.indices,
                                     large_design.num_items)
        tracemalloc.start()
        try:
            plan = make_plan(matrix, "coma")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(plan.table, make_plan(large_design, "coma").table)
        assert peak < 13 * matrix.ones_count()


class TestPairIndex:
    """The pair index spans its filing's first and second tests from their
    true lowest to their highest."""

    def test_span_is_the_true_extremes(self):
        first = np.array([3, 3, 5, 9], dtype=np.uint16)
        second = np.array([7, 12, 8, 20], dtype=np.uint16)
        index = decoders._PairIndex.of(first, second, np.bincount(first, minlength=21))
        assert (index.first, index.low, index.high) == (3, 7, 20)
        # a row of W bits for each first test from 3 to 9
        assert index.filter.size == 7 << (index.bits - 3)

    def test_an_empty_filing_spans_test_0(self):
        empty = np.empty(0, dtype=np.uint16)
        index = decoders._PairIndex.of(empty, empty, np.zeros(4, dtype=np.int32))
        assert (index.first, index.low, index.high) == (0, 0, 0)

    def test_large_n_second_tests_are_its_second_pass(self, large_design):
        """The design's first two passes of 4000 tests each file its items."""
        index = make_plan(large_design, "coma").pair_index
        assert (index.first, index.low, index.high) == (0, 4000, 7999)

    def test_large_n_trial_pairs_only_its_second_pass(self, large_design):
        """An 8000-trial benchmark call at seed 42: a trial's 10 or so
        positive first tests pair with its 10 or so positive second tests,
        99.8 pairs, of which 14.3 pass the filter, for 14.6 binary searches
        with the second search of a pair that files more than one item.
        With the second tests spanned from test 0, each first test also
        paired with the positives of its own pass from it on: 154.6 pairs
        and 18.8 searches a trial."""
        trials = 8000
        formed, searched = [], []
        pairs, search = decoders.ComaPlan._pairs, decoders._lower_bound

        def counted_pairs(self, *args):
            found = pairs(self, *args)
            formed.append(found[3].size)
            return found

        def counted_search(row, start, size, value, depth):
            searched.append(value.size)
            return search(row, start, size, value, depth)

        config = SimConfig(DesignParams(n=400_000, d=10, rho=100, zeta=0.5),
                           Prior(PRIOR_UNIFORM_EXACT, 10), trials, 42)
        with mock.patch.object(decoders.ComaPlan, "_pairs", counted_pairs), \
                mock.patch.object(decoders, "_lower_bound", counted_search):
            report = run_monte_carlo(large_design, "coma", config)
        assert report.errors == 0
        assert 90 * trials < sum(formed) <= 110 * trials
        assert 12 * trials < sum(searched) <= 16 * trials


class TestBlockBatchPeak:
    """A desk-block batch holds its index arrays in int32: trial numbers,
    gathered positions, keys and the plan's tables."""

    @pytest.mark.parametrize("design, decoder", [
        ((block_hypergrid_design, 10_000, 5, 2, 0.1), "hypergrid"),
        ((block_binary_rho_design, 10_000, 5, 20, 0.1), "binary"),
    ], ids=["desk-block-hypergrid", "desk-block-binary"])
    def test_first_benchmark_batch_peaks_below_50_bytes_a_pair(self, design, decoder):
        """The first batch the harness draws at seed 42, as
        ``TestDenseStageRule`` draws it, scored in one ``_score_batch``;
        with int64 trials, positions and keys it peaked at 67.9 and 54.4
        bytes per gathered (trial, test) pair."""
        build, *args = design
        matrix = build(*args)
        plan = make_plan(matrix, decoder)
        batch = sim._batch_trials(matrix, 5, plan.trial_bytes, plan.batch_step)
        trial, items, num_trials, _ = next(sim._trial_batches(
            matrix.num_items, matrix.num_tests, Prior(PRIOR_UNIFORM_EXACT, 5), 0.0, 42, 0,
            batch, batch))
        pairs = core._or_gather(matrix, trial, items)[0].size  # builds the column index
        tracemalloc.start()
        try:
            sim._score_batch(plan, trial, items, num_trials)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert num_trials == batch
        assert peak <= 50 * pairs


class TestDenseStageRule:
    """Which candidate stage ``_dense_pays`` picks, with no timing."""

    @pytest.mark.parametrize("design, d, dense", [
        ((random_gamma_design, 10_000, 5, 3, 0.1), 5, True),
        ((permuted_block_rho_design, 10_000, 10, 100, 0.5), 10, True),
        ((permuted_block_rho_design, 400_000, 10, 100, 0.5), 10, False),
    ], ids=["desk-random-gamma-d5", "desk-permuted-rho-d10", "large-n-d10"])
    def test_benchmark_batches(self, design, d, dense):
        """The first batch the harness draws at seed 42 on each of the
        benchmark's COMA designs, gathered by ``core._or_gather`` and decoded
        by ``decode_pairs``, which asks the rule once with the share its
        gathered incidences give."""
        build, *args = design
        matrix = build(*args, np.random.default_rng(42))
        plan = make_plan(matrix, "coma")
        batch = sim._batch_trials(matrix, d, plan.trial_bytes, plan.batch_step)
        trial, items, num_trials, _ = next(sim._trial_batches(
            matrix.num_items, matrix.num_tests, Prior(PRIOR_UNIFORM_EXACT, d), 0.0, 42, 0,
            batch, batch))
        choices = []
        rule = decoders._dense_pays

        def recorded(table, share):
            choices.append(rule(table, share))
            return choices[-1]

        with mock.patch.object(decoders, "_dense_pays", recorded):
            plan.decode_pairs(*core._or_gather(plan.evaluated, trial, items), num_trials, None)
        assert choices == [dense]

    def test_majority_votes_at_share_one(self):
        """noisy-repeated's votes leave every mask nonzero."""
        base = permuted_block_rho_design(1000, 10, 50, 0.5, np.random.default_rng(42))
        plan = make_plan(repeat_design(base, 65), "majority")
        assert decoders._dense_pays(plan.table, 1.0)


def _stages_taken(matrix, decoder, config):
    """The candidate stage each COMA batch of a run took, in order."""
    taken = []

    def recorded(stage, method):
        def stage_of(self, *args):
            taken.append(stage)
            return method(self, *args)
        return stage_of

    plan = decoders.ComaPlan
    with mock.patch.multiple(
            plan, _dense_candidates=recorded("dense", plan._dense_candidates),
            _pair_candidates=recorded("pair", plan._pair_candidates)):
        run_monte_carlo(matrix, decoder, config)
    return taken


class TestStageSelection:
    """Which candidate stage every batch of a benchmark run takes at seed
    42, with no timing, by ``_dense_pays``."""

    @pytest.mark.parametrize("build, decoder, params, trials, stage", [
        (lambda rng: random_gamma_design(10_000, 5, 3, 0.1, rng), "coma",
         DesignParams(n=10_000, d=5, epsilon=0.1, gamma=3), 8000, "dense"),
        (lambda rng: permuted_block_rho_design(10_000, 10, 100, 0.5, rng), "coma",
         DesignParams(n=10_000, d=10, rho=100, zeta=0.5), 8000, "dense"),
        (lambda rng: repeat_design(permuted_block_rho_design(1000, 10, 50, 0.5, rng), 65),
         "majority", DesignParams(n=1000, d=10, rho=50, sigma=0.1, zeta=0.5), 1500, "dense"),
        (lambda rng: permuted_block_rho_design(400_000, 10, 100, 0.5, rng), "coma",
         DesignParams(n=400_000, d=10, rho=100, zeta=0.5), 8000, "pair"),
        (lambda rng: random_gamma_design(400_000, 10, 3, 0.1, rng), "coma",
         DesignParams(n=400_000, d=10, epsilon=0.1, gamma=3), 8000, "pair"),
    ], ids=["desk-coma-random-gamma", "desk-coma-permuted-rho", "noisy-repeated",
            "large-n-roundtrip", "random-gamma-large-n"])
    def test_benchmark_batches(self, build, decoder, params, trials, stage):
        """desk-coma's and noisy-repeated's batches take the dense stage,
        and large-n-roundtrip's and random-gamma's at the same n (no
        workload) the pair stage. The desk designs run 8000 trials, more
        than their batches of 6784 and 5120, so that each takes two."""
        config = SimConfig(params, Prior(PRIOR_UNIFORM_EXACT, params.d), trials, 42)
        taken = _stages_taken(build(np.random.default_rng(42)), decoder, config)
        assert len(taken) > 1
        assert set(taken) == {stage}


class TestHypergridDecode:
    def test_reads_single_defective_off_digits(self):
        res = hypergrid_block_decode(GRID9, outcome_of(GRID9, {5}))
        assert res.estimate.items == (5,)
        assert res.status == STATUS_OK

    def test_two_defectives_in_one_grid_are_ambiguous(self):
        res = hypergrid_block_decode(GRID9, outcome_of(GRID9, {2, 4}))
        assert res.status == STATUS_AMBIGUOUS
        assert res.ambiguous_blocks == (0,)

    def test_all_negative(self):
        res = hypergrid_block_decode(GRID9, outcome_of(GRID9, set()))
        assert res.estimate.items == ()
        assert res.status == STATUS_OK

    def test_block_design_decodes_spread_defectives(self):
        m = block_hypergrid_design(36, 2, 2, 0.5)
        # items 1 and 20 land in blocks 0 and 4
        res = hypergrid_block_decode(m, outcome_of(m, {1, 20}))
        assert res.estimate.items == (1, 20)
        assert res.status == STATUS_OK

    def test_block_design_collision_is_ambiguous(self):
        m = block_hypergrid_design(36, 2, 2, 0.5)
        # items 0 and 3 share block 0
        res = hypergrid_block_decode(m, outcome_of(m, {0, 3}))
        assert res.status == STATUS_AMBIGUOUS
        assert 0 in res.ambiguous_blocks

    def test_phantom_index_beyond_block_size_is_ambiguous(self):
        m = hypergrid_design(5, 2)
        # items 2 and 4 read back as digits (2, 1) -> local 5, outside [0, 5)
        res = hypergrid_block_decode(m, outcome_of(m, {2, 4}))
        assert res.status == STATUS_AMBIGUOUS

    def test_large_claimed_gamma_refused_at_once(self):
        """A header claiming gamma = 5 * 10**6 over two items implies
        5 * 10**6 + 1 tests; the plan counts them per block size in
        O(log size) and refuses before building any per-axis table."""
        matrix = TestMatrix(rows=[(0,)], num_items=2, col_limit=5_000_000,
                            design_tag=TAG_HYPERGRID)
        started = time.perf_counter()
        with pytest.raises(IncompatibleDecoderError, match="implies 5000001; not a hypergrid"):
            make_plan(matrix, "hypergrid")
        assert time.perf_counter() - started < 0.5

    def test_requires_hypergrid_design(self):
        m = random_gamma_design(20, 2, 2, 0.2, np.random.default_rng(0))
        with pytest.raises(IncompatibleDecoderError):
            hypergrid_block_decode(m, outcome_of(m, {1}))


class TestBinaryDecode:
    MATRIX = block_binary_rho_design(10, 1, 5, 0.9)

    def test_reads_label_bits(self):
        # item 4 has local label 5 = 101b in block 0: tests 0 and 2
        y = outcome_of(self.MATRIX, {4})
        assert y.positives() == (0, 2)
        res = binary_block_decode(self.MATRIX, y)
        assert res.estimate.items == (4,)
        assert res.status == STATUS_OK

    def test_one_defective_per_block_decodes_exactly(self):
        res = binary_block_decode(self.MATRIX, outcome_of(self.MATRIX, {3, 7}))
        assert res.estimate.items == (3, 7)
        assert res.status == STATUS_OK

    def test_or_overflow_is_ambiguous(self):
        # labels 2 and 4 OR to 6, beyond the block size of 5
        res = binary_block_decode(self.MATRIX, outcome_of(self.MATRIX, {1, 3}))
        assert res.status == STATUS_AMBIGUOUS
        assert res.ambiguous_blocks == (0,)

    def test_or_collision_decodes_to_wrong_item(self):
        # labels 1 and 2 OR to 3: a silent wrong answer, not an ambiguity
        res = binary_block_decode(self.MATRIX, outcome_of(self.MATRIX, {0, 1}))
        assert res.status == STATUS_OK
        assert res.estimate.items == (2,)

    def test_requires_binary_design(self):
        with pytest.raises(IncompatibleDecoderError):
            binary_block_decode(GRID9, outcome_of(GRID9, {1}))


class TestMalformedBlockOffsets:
    """Offsets past n that validate reports: every entry point refuses."""

    MATRIX = TestMatrix(rows=[()] * 5, num_items=3, design_tag="block-binary-rho",
                        block_starts=[0, 5])

    def test_make_plan_refuses(self):
        with pytest.raises(IncompatibleDecoderError, match="block offsets must start at 0"):
            make_plan(self.MATRIX, "binary")

    def test_one_shot_decoder_refuses(self):
        outcomes = Outcomes(np.array([False, False, True, False, False]))
        with pytest.raises(IncompatibleDecoderError, match="block offsets must start at 0"):
            binary_block_decode(self.MATRIX, outcomes)

    @pytest.mark.parametrize(
        "starts", [[], [1], [0, 0], [0, 2, 1], [0, 3], [0, 2**70]],
        ids=["empty", "not-from-0", "repeated", "decreasing", "at-n", "beyond-int64"],
    )
    def test_parse_validate_and_make_plan_share_the_check(self, starts):
        matrix = TestMatrix(rows=[], num_items=3, design_tag="block-binary-rho",
                            block_starts=starts)
        assert [v.kind for v in validate(matrix)] == ["block-structure"]
        with pytest.raises(IncompatibleDecoderError, match="block offsets must start at 0"):
            make_plan(matrix, "binary")
        if starts:
            with pytest.raises(ParseError, match="block offsets must start at 0"):
                parse("0 3 blocks=" + ",".join(map(str, starts)) + "\n")

    def test_monte_carlo_refuses(self):
        config = SimConfig(DesignParams(n=3, d=1), Prior(PRIOR_UNIFORM_EXACT, 1), 10, 0)
        with pytest.raises(IncompatibleDecoderError, match="block offsets must start at 0"):
            run_monte_carlo(self.MATRIX, "binary", config)


class TestBrokenRepeatedDesign:
    """Groups of k rows that are not copies, which validate reports as
    ``repetition``: every entry point refuses."""

    MATRIX = TestMatrix(rows=[(0,), (1,), (2,), (2,)], num_items=3, design_tag="repeated",
                        base_tag="custom", repeat_k=2)
    REFUSAL = "rows 0..1 of the repeated design are not copies of one row"

    def test_validate_reports_the_first_broken_group(self):
        assert [str(v) for v in validate(self.MATRIX)] == [
            "repetition at rows 0..1: repeated design rows must be consecutive duplicates"]

    def test_make_plan_refuses(self):
        with pytest.raises(IncompatibleDecoderError, match=self.REFUSAL):
            make_plan(self.MATRIX, "majority")

    def test_one_shot_decoder_refuses(self):
        outcomes = Outcomes(np.array([True, True, False, False]), noisy=True)
        with pytest.raises(IncompatibleDecoderError, match=self.REFUSAL):
            majority_coma_decode(self.MATRIX, outcomes)

    @pytest.mark.parametrize("sigma", [None, 0.1])
    def test_monte_carlo_refuses(self, sigma):
        config = SimConfig(DesignParams(n=3, d=1, sigma=sigma), Prior(PRIOR_UNIFORM_EXACT, 1),
                           10, 0)
        with pytest.raises(IncompatibleDecoderError, match=self.REFUSAL):
            run_monte_carlo(self.MATRIX, "majority", config)

    def test_exact_oracle_refuses(self):
        with pytest.raises(IncompatibleDecoderError, match=self.REFUSAL):
            exhaustive_error_probability(self.MATRIX, "auto", 1)

    @pytest.mark.parametrize(
        "rows, subject",
        [([(0,), (0,), (1,), (0, 1)], "rows 2..3"), ([(0, 1), (0, 2), (1,), (1,)], "rows 0..1"),
         ([(), (0,), (), ()], "rows 0..1"), ([(0, 1), (0, 1), (1, 2), (1, 2)], None)],
        ids=["longer-copy", "same-length", "empty-first-row", "well-formed"],
    )
    def test_validate_and_make_plan_share_the_check(self, rows, subject):
        matrix = TestMatrix(rows=rows, num_items=3, design_tag="repeated", base_tag="custom",
                            repeat_k=2)
        assert [v.subject for v in validate(matrix)] == ([subject] if subject else [])
        if subject:
            with pytest.raises(IncompatibleDecoderError, match=subject):
                make_plan(matrix, "majority")
        else:
            assert make_plan(matrix, "majority").kind == "majority"


class TestMajorityDecode:
    def test_majority_vote_then_coma(self):
        m = repeat_design(GRID9, 3)
        clean = outcome_of(m, {5})
        bits = clean.bits.copy()
        bits[6] = not bits[6]  # corrupt one copy of base test 2
        bits[13] = not bits[13]  # and one copy of base test 4
        res = majority_coma_decode(m, Outcomes(bits, noisy=True))
        assert res.estimate.items == (5,)
        assert res.status == STATUS_OK

    def test_ties_vote_positive(self):
        m = repeat_design(TestMatrix(rows=((0,),), num_items=1), 2)
        res = majority_coma_decode(m, Outcomes(np.array([True, False]), noisy=True))
        assert res.estimate.items == (0,)

    def test_noiseless_majority_agrees_with_coma_on_base(self):
        base = permuted_block_rho_design(60, 2, 6, 0.5, np.random.default_rng(1))
        m = repeat_design(base, 5)
        rng = np.random.default_rng(2)
        for _ in range(20):
            d = set(rng.choice(60, size=2, replace=False).tolist())
            rep = majority_coma_decode(m, outcome_of(m, d))
            plain = coma_decode(base, outcome_of(base, d))
            assert rep.estimate == plain.estimate

    def test_survives_noise_below_half(self):
        base = permuted_block_rho_design(60, 2, 6, 0.5, np.random.default_rng(1))
        m = repeat_design(base, 41)
        d = {7, 30}
        noisy = apply_noise(outcome_of(m, d), 0.2, np.random.default_rng(5))
        res = majority_coma_decode(m, noisy)
        assert res.estimate.items == (7, 30)

    def test_requires_repeated_design(self):
        with pytest.raises(IncompatibleDecoderError):
            majority_coma_decode(GRID9, outcome_of(GRID9, {1}))

    def test_requires_k_at_least_two(self):
        with pytest.raises(IncompatibleDecoderError):
            make_plan(GRID9, "majority")


class TestPairingRules:
    def test_decoder_for_mapping(self):
        assert decoder_for(GRID9) == "hypergrid"
        assert decoder_for(block_hypergrid_design(36, 2, 2, 0.5)) == "hypergrid"
        assert decoder_for(self_binary()) == "binary"
        assert decoder_for(repeat_design(GRID9, 2)) == "majority"
        rg = random_gamma_design(20, 2, 2, 0.2, np.random.default_rng(0))
        assert decoder_for(rg) == "coma"
        pm = permuted_block_rho_design(50, 2, 7, 0.5, np.random.default_rng(0))
        assert decoder_for(pm) == "coma"

    def test_make_plan_auto(self):
        assert make_plan(GRID9, "auto").kind == "hypergrid"
        assert make_plan(GRID9, "coma").kind == "coma"
        with pytest.raises(InvalidParameterError):
            make_plan(GRID9, "nonsense")

    def test_noisy_outcomes_need_majority(self):
        noisy = Outcomes(outcome_of(GRID9, {5}).bits, noisy=True)
        with pytest.raises(IncompatibleDecoderError):
            coma_decode(GRID9, noisy)
        with pytest.raises(IncompatibleDecoderError):
            hypergrid_block_decode(GRID9, noisy)

    def test_outcome_length_mismatch(self):
        with pytest.raises(InvalidParameterError):
            coma_decode(GRID9, Outcomes(np.zeros(5, dtype=bool)))


def self_binary():
    return block_binary_rho_design(10, 1, 5, 0.9)


class TestDecodeBitsContract:
    """``perfbench/run.py`` replays trials through ``plan.decode_bits`` on the
    write-locked bits of an ``Outcomes``: it compares the estimate with the
    sorted int64 defective set (``array_equal``, ``setdiff1d``), takes the
    ambiguous blocks' ``len`` and ignores the untested items."""

    @pytest.mark.parametrize(
        "matrix, decoder, sigma",
        [
            (random_gamma_design(200, 3, 2, 0.2, np.random.default_rng(1)), "coma", 0.0),
            (block_hypergrid_design(200, 3, 2, 0.2), "hypergrid", 0.0),
            (block_binary_rho_design(200, 3, 8, 0.2), "binary", 0.0),
            (repeat_design(permuted_block_rho_design(200, 3, 10, 0.5,
                                                     np.random.default_rng(2)), 5),
             "majority", 0.1),
        ],
        ids=["coma", "hypergrid", "binary", "majority"],
    )
    def test_one_row_returns_estimate_ambiguous_list_and_untested(self, matrix, decoder, sigma):
        plan = make_plan(matrix, decoder)
        rng = np.random.default_rng(3)
        for items in ([], [7], [0, 51, 52, 199]):
            observed = apply_noise(outcome_of(matrix, items), sigma, rng)
            estimate, ambiguous, untested = plan.decode_bits(observed.bits)
            assert isinstance(estimate, np.ndarray) and estimate.dtype == np.int64
            assert estimate.ndim == 1 and np.all(np.diff(estimate) > 0)
            assert type(ambiguous) is list and all(type(b) is int for b in ambiguous)
            assert isinstance(untested, np.ndarray) and untested.ndim == 1
            assert untested.dtype == np.int64

