"""Property suites: generated matrices, decoder invariants, oracle agreement.

These run standalone (pytest tests/test_properties.py) and back the spot
checks in the other files with randomized coverage.
"""

import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sparsegt import core, decoders, designs
from sparsegt.core import (
    DefectiveSet,
    TestMatrix,
    apply_noise,
    evaluate,
    parse,
    serialize,
    validate,
)
from sparsegt.decoders import coma_decode, make_plan
from sparsegt.designs import (
    block_binary_rho_design,
    block_hypergrid_design,
    hypergrid_design,
    permuted_block_rho_design,
    random_gamma_design,
    repeat_design,
)
from sparsegt.sim import (
    SimConfig,
    exhaustive_error_probability,
    run_monte_carlo,
    wilson_interval,
)
from sparsegt.core import DesignParams, Prior, PRIOR_UNIFORM_EXACT


# ---------------------------------------------------------------------------
# generated matrices and defective sets
# ---------------------------------------------------------------------------


@st.composite
def matrices(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    num_tests = draw(st.integers(min_value=0, max_value=10))
    rows = tuple(
        tuple(sorted(draw(st.sets(st.integers(0, n - 1), max_size=n))))
        for _ in range(num_tests)
    )
    return TestMatrix(rows=rows, num_items=n)


@st.composite
def matrices_with_defectives(draw):
    matrix = draw(matrices())
    items = draw(st.sets(st.integers(0, matrix.num_items - 1), max_size=matrix.num_items))
    return matrix, DefectiveSet(items, matrix.num_items)


class TestSerializationProperties:
    @given(matrices())
    @settings(max_examples=150, deadline=None)
    def test_round_trip_identity(self, matrix):
        assert parse(serialize(matrix)) == matrix

    @given(matrices())
    @settings(max_examples=50, deadline=None)
    def test_generated_matrices_are_valid(self, matrix):
        assert validate(matrix) == []


@st.composite
def repeated_cases(draw):
    """(base, k, chunk, corrupted rows): a base design over at most 8 items
    of 0 to 8 rows of uneven lengths (empty rows included), a repeat count
    k of 2 to 5, a piece of 1 to 24 entries, so that a group can be longer
    than a piece and a piece can end inside a length class, and the rows of
    the repeated design with one copy in the first, a middle or the last
    group changed, dropped short or extended."""
    n = draw(st.integers(1, 8))
    base_rows = draw(st.lists(st.sets(st.integers(0, n - 1), max_size=n).map(sorted),
                              max_size=8))
    base = TestMatrix(rows=base_rows, num_items=n)
    k = draw(st.integers(2, 5))
    rows = [list(row) for row in base_rows for _ in range(k)]
    if base_rows:
        group = {"first": 0, "middle": len(base_rows) // 2,
                 "last": len(base_rows) - 1}[draw(st.sampled_from(["first", "middle", "last"]))]
        row = rows[group * k + draw(st.integers(0, k - 1))]
        action = draw(st.sampled_from(["change", "drop", "add"])) if row else "add"
        if action == "add":
            row.insert(draw(st.integers(0, len(row))), draw(st.integers(0, n - 1)))
        else:
            at = draw(st.integers(0, len(row) - 1))
            if action == "change":
                row[at] = draw(st.integers(0, n - 1))
            else:
                del row[at]
    return base, k, draw(st.integers(1, 24)), rows


def _first_broken_group(rows, k):
    """The first group of k rows that are not all equal, row by row."""
    groups = [rows[g : g + k] for g in range(0, len(rows), k)]
    return next((g for g, group in enumerate(groups) if any(row != group[0] for row in group)),
                None)


class TestRepeatedDesignChunks:
    """Building and checking repeated designs one row length at a time, in
    pieces, gives what per-row copies and compares give, wherever the
    pieces cut."""

    @given(repeated_cases())
    @settings(max_examples=300, deadline=None)
    def test_pieces_match_one_gather(self, case):
        base, k, chunk, rows = case
        repeated_rows = np.repeat(np.arange(base.num_tests), k)
        starts = base.indptr[repeated_rows]
        lengths = base.indptr[repeated_rows + 1] - starts
        want = np.take(base.indices, core._ragged(starts, lengths, base.indices.size))
        with mock.patch.object(core, "_ROW_CHUNK", chunk):
            built = repeat_design(base, k)
            corrupted = TestMatrix(rows=rows, num_items=base.num_items, design_tag="repeated",
                                   base_tag="custom", repeat_k=k)
            assert core._broken_repeat_group(built) is None
            broken = core._broken_repeat_group(corrupted)
            plan = make_plan(built, "majority")
        assert np.array_equal(built.indices, want)
        tiles = [np.tile(base.indices[a:b], k) for a, b in zip(base.indptr, base.indptr[1:])]
        assert np.array_equal(built.indices, np.concatenate([np.zeros(0, np.int32), *tiles]))
        assert built.indices.dtype == np.int32
        assert built.rows == tuple(row for row in base.rows for _ in range(k))
        assert broken == _first_broken_group(rows, k)
        # the majority plan's base rows, copied out of the groups, are the base
        for kept, got in zip((plan.col_indptr, plan.tests), base.column_index()):
            assert np.array_equal(kept, got)

    # lengths 3, 0, 5, 3, 5, 1, 3: three length classes interleaved, an
    # empty row, and three rows of length 3
    LENGTHS = (3, 0, 5, 3, 5, 1, 3)

    def _corrupted(self, k, edits):
        """The repeated rows of ``LENGTHS`` (row r holds items r .. r + L - 1)
        with ``edits`` applied: (group, copy, action) where action changes
        the copy's last entry, drops it or appends an item."""
        base = [list(range(r, r + length)) for r, length in enumerate(self.LENGTHS)]
        rows = [list(row) for row in base for _ in range(k)]
        for group, copy, action in edits:
            row = rows[group * k + copy]
            if action == "change":
                row[-1] += 1
            elif action == "drop":
                row.pop()
            else:
                row.append(20)
        return TestMatrix(rows=rows, num_items=21, design_tag="repeated", base_tag="custom",
                          repeat_k=k), rows

    # 1: every group is longer than a piece; 18: the three rows of length 3
    # (9 entries each at k = 3) are cut 2 + 1; 2**16: one piece a class
    @pytest.mark.parametrize("chunk", [1, 18, 1 << 16])
    def test_a_corrupted_copy_in_each_length_class(self, chunk):
        k = 3
        with mock.patch.object(core, "_ROW_CHUNK", chunk):
            assert core._broken_repeat_group(self._corrupted(k, [])[0]) is None
            for group, length in enumerate(self.LENGTHS):
                for copy in range(1, k) if length else ():
                    for action in ("change", "drop", "add"):
                        matrix, rows = self._corrupted(k, [(group, copy, action)])
                        assert core._broken_repeat_group(matrix) == group
                        assert _first_broken_group(rows, k) == group
            # one broken group in each class: the lowest is reported
            for edits in ([(6, 1, "change"), (4, 2, "change"), (5, 1, "change")],
                          [(4, 1, "change"), (3, 2, "change")],
                          [(6, 2, "change"), (2, 1, "drop")]):
                matrix, rows = self._corrupted(k, edits)
                assert core._broken_repeat_group(matrix) == min(g for g, _, _ in edits)

    def test_a_copy_that_differs_only_in_length(self):
        """A copy one entry longer than its group's first row, its other
        entries equal, breaks its group, in every length class and for an
        empty row."""
        for chunk in (1, 1 << 16):
            with mock.patch.object(core, "_ROW_CHUNK", chunk):
                for group in range(len(self.LENGTHS)):
                    matrix, _ = self._corrupted(2, [(group, 1, "add")])
                    assert core._broken_repeat_group(matrix) == group


class TestChannelProperties:
    @given(matrices_with_defectives())
    @settings(max_examples=150, deadline=None)
    def test_outcome_is_union_of_columns(self, case):
        matrix, defect = case
        y = evaluate(matrix, defect)
        for t, row in enumerate(matrix.rows):
            assert y.bits[t] == bool(set(row) & set(defect.items))

    @given(matrices_with_defectives(), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_noise_sigma_zero_is_identity(self, case, seed):
        matrix, defect = case
        y = evaluate(matrix, defect)
        assert apply_noise(y, 0.0, np.random.default_rng(seed)) is y

    @given(matrices_with_defectives(), st.floats(0.01, 0.49), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_noise_is_seed_deterministic(self, case, sigma, seed):
        matrix, defect = case
        y = evaluate(matrix, defect)
        a = apply_noise(y, sigma, np.random.default_rng(seed))
        b = apply_noise(y, sigma, np.random.default_rng(seed))
        assert a == b

    @given(matrices_with_defectives())
    @settings(max_examples=100, deadline=None)
    def test_monotone_more_defectives_more_positives(self, case):
        matrix, defect = case
        if defect.items:
            smaller = DefectiveSet(defect.items[:-1], matrix.num_items)
            y_small = evaluate(matrix, smaller)
            y_full = evaluate(matrix, defect)
            assert np.all(y_full.bits >= y_small.bits)


class TestComaProperties:
    @given(matrices_with_defectives())
    @settings(max_examples=150, deadline=None)
    def test_no_false_negatives(self, case):
        matrix, defect = case
        result = coma_decode(matrix, evaluate(matrix, defect))
        assert set(defect.items) <= set(result.estimate.items)

    @given(matrices_with_defectives())
    @settings(max_examples=100, deadline=None)
    def test_estimate_is_outcome_consistent(self, case):
        # re-testing the estimate reproduces the observed outcome exactly
        matrix, defect = case
        y = evaluate(matrix, defect)
        result = coma_decode(matrix, y)
        assert evaluate(matrix, result.estimate) == y


# ---------------------------------------------------------------------------
# constructed designs on random parameter draws
# ---------------------------------------------------------------------------


class TestConstructionProperties:
    def test_constructions_validate_across_seeded_draws(self):
        rng = np.random.default_rng(20260815)
        for _ in range(25):
            n = int(rng.integers(6, 120))
            d = int(rng.integers(1, max(2, n // 4)))
            gamma = int(rng.integers(1, 4))
            eps = float(rng.uniform(0.05, 0.45))
            m = hypergrid_design(n, gamma)
            assert validate(m) == []
            assert (m.column_weights() == gamma).all()
            m = block_hypergrid_design(n, d, gamma, eps)
            assert validate(m) == []
            rho = int(rng.integers(2, 12))
            m = block_binary_rho_design(n, d, rho, eps)
            assert validate(m) == []
            assert m.row_weights().max() <= rho
            if d * rho < n:
                m = permuted_block_rho_design(n, d, rho, 0.5, rng)
                assert validate(m) == []
                assert (m.column_weights() == m.col_limit).all()

    def test_hypergrid_digits_are_bijective(self):
        # distinct items always differ in at least one test
        for n in (3, 7, 9, 20, 26, 27, 28):
            for gamma in (1, 2, 3):
                m = hypergrid_design(n, gamma)
                signatures = set()
                for i in range(n):
                    sig = frozenset(t for t, row in enumerate(m.rows) if i in row)
                    signatures.add(sig)
                assert len(signatures) == n

    def test_random_gamma_supports_are_gamma_subsets(self):
        rng = np.random.default_rng(3)
        m = random_gamma_design(40, 2, 3, 0.2, rng)
        assert (m.column_weights() == 3).all()
        for row in m.rows:
            assert list(row) == sorted(set(row))


# ---------------------------------------------------------------------------
# column providers and the column-regular COMA table
# ---------------------------------------------------------------------------


def _sorted_copy(matrix):
    """An equal matrix with no column provider, which sorts its column
    index out of its rows."""
    return TestMatrix.from_csr(matrix.indptr, matrix.indices, *matrix._metadata())


def _assert_same_arrays(got, want):
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a, b)
        assert a.dtype == b.dtype
        assert a.flags.writeable == b.flags.writeable


def _assert_provided_as_sorted(matrix, weights_first):
    """The provider's column index and weights equal the sorted ones in
    value, dtype and write lock, whichever of the two is asked for first."""
    assert matrix._columns is not None
    want = _sorted_copy(matrix)
    assert want._columns is None
    if weights_first:
        matrix.column_weights()
    _assert_same_arrays(matrix.column_index(), want.column_index())
    _assert_same_arrays([matrix.column_weights()], [want.column_weights()])


class _UnevenWeights(np.ndarray):
    """Column weights that report a maximum above their own, which sends
    ``decoders._filed_table`` to its general build on a column-regular
    design."""

    def max(self, *args, **kwargs):
        return super().max(*args, **kwargs) + 1


def _assert_table_as_general(matrix):
    """The plan's candidates, table and group offsets equal those of the
    general build, in value and dtype (the offsets int32 below 2**31
    candidates)."""
    plan = make_plan(matrix, "coma")
    col_indptr, tests = matrix.column_index()
    weight = matrix.column_weights()
    candidates, table = decoders._filed_table(col_indptr, tests, weight.view(_UnevenWeights))
    group_ptr = core._offsets(np.bincount(table[0], minlength=matrix.num_tests)).astype(
        core._index_dtype(table.shape[1] + 1))
    _assert_same_arrays([plan.candidates, plan.table, plan.group_ptr],
                        [np.asarray(candidates), np.asarray(table), group_ptr])


@st.composite
def random_gamma_cases(draw):
    """(n, d, gamma, epsilon, seed, piece): gamma 1-8; with few tests,
    many groups repeat one."""
    n = draw(st.integers(2, 200))
    d = draw(st.integers(1, min(n - 1, 5)))
    return (n, d, draw(st.integers(1, 8)), draw(st.floats(0.05, 0.45)),
            draw(st.integers(0, 2**32)), draw(st.sampled_from([1, 3, 64, 1 << 16])))


@st.composite
def permuted_rho_cases(draw):
    """(n, d, rho, zeta, seed): rho often not dividing n."""
    n = draw(st.integers(2, 300))
    rho = draw(st.integers(1, n - 1))
    d = draw(st.integers(1, max(1, (n - 1) // rho)))
    return n, d, rho, draw(st.floats(0.05, 2.0)), draw(st.integers(0, 2**32))


@given(st.integers(1, 24), st.integers(0, 40), st.integers(1, 1 << 20), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_ordered_columns_sort_each_group(gamma, m, num_tests, seed):
    """Random-gamma's comparator network orders every row as a row sort
    does, at every width."""
    groups = np.random.default_rng(seed).integers(0, num_tests, (m, gamma), np.int32)
    columns = designs._ordered_columns(groups)
    assert len(columns) == gamma
    _assert_same_arrays(columns, list(np.sort(groups, axis=1).T))


class TestColumnProviders:
    """A constructor's column provider gives the column index that sorting
    the rows gives, and the column-regular COMA table the general one."""

    @given(random_gamma_cases(), st.booleans())
    @example((50, 2, 8, 0.4, 42, 1 << 16), False)  # T = 80: 30 % of the groups repeat
    @example((50, 2, 3, 0.4, 42, 3), True)  # pieces of 3 groups, redraws straddling them
    @example((2000, 1, 1, 0.3, 7, 1 << 16), False)  # gamma = 1
    @example((300, 10, 1, 0.1, 5, 64), True)  # T = 81 548: uint32 tests
    @settings(max_examples=80, deadline=None)
    def test_random_gamma(self, case, weights_first):
        *call, seed, piece = case
        with mock.patch.object(designs, "_GROUP_PIECE", piece):
            matrix = random_gamma_design(*call, np.random.default_rng(seed))
        _assert_provided_as_sorted(matrix, weights_first)
        _assert_table_as_general(matrix)

    @given(permuted_rho_cases(), st.booleans())
    @example((10, 1, 3, 0.5, 42), False)  # n % rho = 1
    @example((70_001, 1, 2, 0.5, 3), True)  # T = 70 002: uint32 tests, n % rho = 1
    @settings(max_examples=80, deadline=None)
    def test_permuted_rho(self, case, weights_first):
        *call, seed = case
        matrix = permuted_block_rho_design(*call, np.random.default_rng(seed))
        _assert_provided_as_sorted(matrix, weights_first)
        _assert_table_as_general(matrix)

    def test_permuted_rho_of_one_pass(self):
        """c = 1, which the paper's pass count never gives (it exceeds
        1 + zeta), with n % rho = 2."""
        with mock.patch.object(designs, "permuted_constant", return_value=1):
            matrix = permuted_block_rho_design(47, 2, 5, 0.5, np.random.default_rng(1))
        assert matrix.col_limit == 1 and matrix.num_tests == 10
        _assert_provided_as_sorted(matrix, False)
        _assert_table_as_general(matrix)

    def test_untested_items_are_left_out_of_the_filing(self):
        """Items of weight 0 beside items of one weight: the column-regular
        build files the tested items alone, by first and then second test:
        item 4 in tests (0, 1), item 1 in (0, 2), item 6 in (1, 2)."""
        matrix = TestMatrix(rows=((1, 4), (4, 6), (1, 6)), num_items=8)
        plan = make_plan(matrix, "coma")
        assert plan.candidates.tolist() == [4, 1, 6]
        assert plan.untested.tolist() == [0, 2, 3, 5, 7]
        _assert_table_as_general(matrix)

    @pytest.mark.parametrize("copy", [
        _sorted_copy,
        lambda m: pickle.loads(pickle.dumps(m)),
        lambda m: parse(serialize(m)),
    ], ids=["from_csr", "pickle", "parse"])
    def test_copies_sort_their_index(self, copy):
        for matrix in (random_gamma_design(500, 3, 3, 0.1, np.random.default_rng(2)),
                       permuted_block_rho_design(500, 3, 7, 0.5, np.random.default_rng(2))):
            again = copy(matrix)
            assert again == matrix
            assert again._columns is None
            _assert_same_arrays(again.column_index(), matrix.column_index())
            _assert_same_arrays([again.column_weights()], [matrix.column_weights()])


# ---------------------------------------------------------------------------
# Monte Carlo vs exhaustive oracle
# ---------------------------------------------------------------------------


def _mc_matches_exhaustive(matrix, decoder, d, seed, trials=1500):
    exact = float(exhaustive_error_probability(matrix, decoder, d))
    params = DesignParams(n=matrix.num_items, d=d, epsilon=0.45)
    cfg = SimConfig(
        params=params,
        prior=Prior(PRIOR_UNIFORM_EXACT, d),
        trials=trials,
        master_seed=seed,
    )
    report = run_monte_carlo(matrix, decoder, cfg)
    low, high = wilson_interval(report.errors, trials)
    return low <= exact <= high, exact, report.error_rate


class TestMonteCarloAgreesWithOracle:
    def test_twenty_random_small_instances(self):
        rng = np.random.default_rng(77)
        agreements = []
        checked = 0
        while checked < 20:
            n = int(rng.integers(5, 14))
            d = int(rng.integers(1, 3))
            if d >= n:
                continue
            kind = checked % 3
            if kind == 0:
                matrix = hypergrid_design(n, int(rng.integers(1, 3)))
                decoder = "coma"
            elif kind == 1:
                matrix = block_hypergrid_design(n, d, 2, 0.4)
                decoder = "hypergrid"
            else:
                rho = int(rng.integers(2, 5))
                matrix = block_binary_rho_design(n, d, rho, 0.4)
                decoder = "binary"
            ok, exact, estimate = _mc_matches_exhaustive(
                matrix, decoder, d, seed=int(rng.integers(0, 2**31))
            )
            agreements.append((ok, exact, estimate))
            checked += 1
        failures = [a for a in agreements if not a[0]]
        assert not failures, f"oracle disagreements: {failures}"

    def test_exhaustive_is_exact_on_tiny_instance(self):
        # brute-force recount through the public evaluate/decode path
        import itertools
        from fractions import Fraction

        from sparsegt.decoders import binary_block_decode

        matrix = block_binary_rho_design(6, 1, 3, 0.5)
        errors = 0
        for combo in itertools.combinations(range(6), 2):
            defect = DefectiveSet(combo, 6)
            result = binary_block_decode(matrix, evaluate(matrix, defect))
            if result.status != "ok" or result.estimate.items != combo:
                errors += 1
        assert exhaustive_error_probability(matrix, "binary", 2) == Fraction(errors, 15)
