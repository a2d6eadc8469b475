"""Core types, OR-channel evaluation, noise, validation, serialization."""

import gc
import math
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparsegt import core
from sparsegt.core import (
    DefectiveSet,
    DesignParams,
    InvalidParameterError,
    Outcomes,
    ParseError,
    Prior,
    PRIOR_IID_BERNOULLI,
    PRIOR_UNIFORM_EXACT,
    TAG_HYPERGRID,
    TestMatrix,
    apply_noise,
    evaluate,
    int_root_ceil,
    iceil,
    parse,
    parse_outcomes,
    serialize,
    serialize_outcomes,
    validate,
)
from sparsegt.decoders import make_plan
from sparsegt.designs import permuted_block_rho_design, random_gamma_design, repeat_design
from sparsegt.sim import SimConfig, run_monte_carlo

# the 3x3 grid over 9 items: axis-0 tests are columns, axis-1 tests are rows
GRID9 = TestMatrix(
    rows=((0, 3, 6), (1, 4, 7), (2, 5, 8), (0, 1, 2), (3, 4, 5), (6, 7, 8)),
    num_items=9,
    col_limit=2,
    design_tag=TAG_HYPERGRID,
)


@pytest.fixture(scope="module")
def large_design():
    """A permuted-rho design of 10**6 incidences: n = 250 000 items in 4
    tests each, T = 10 000 tests of 100 items."""
    matrix = permuted_block_rho_design(250_000, 10, 100, 0.5, np.random.default_rng(1))
    assert matrix.ones_count() >= 10**6
    return matrix


@pytest.fixture(scope="module")
def repeated_design():
    """perfbench's noisy-repeated design: a permuted-rho design over
    n = 1000 items (T = 300 tests of 50 items) repeated 65 times, 975 000
    incidences."""
    base = permuted_block_rho_design(1000, 10, 50, 0.5, np.random.default_rng(1))
    matrix = repeat_design(base, 65)
    assert matrix.ones_count() == 975_000
    return matrix


def _uncached(matrix):
    """An equal matrix with nothing computed on it yet."""
    return TestMatrix.from_csr(matrix.indptr, matrix.indices, *matrix._metadata())


def _held_bytes(call) -> tuple[int, object]:
    """The bytes ``call()`` still holds once it returns, as tracemalloc
    counts them, and what it returned."""
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[0], result
    finally:
        tracemalloc.stop()


def _peak_bytes(call) -> int:
    """The most bytes ``call()`` held at once, as tracemalloc counts them,
    its result included."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDefectiveSet:
    def test_normalizes_sorted_unique(self):
        ds = DefectiveSet([4, 1, 4, 2], universe=9)
        assert ds.items == (1, 2, 4)
        assert len(ds) == 3
        assert 2 in ds and 3 not in ds

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            DefectiveSet([9], universe=9)
        with pytest.raises(InvalidParameterError):
            DefectiveSet([-1], universe=9)

    def test_empty_set(self):
        ds = DefectiveSet([], universe=5)
        assert ds.items == ()
        assert not ds.as_mask().any()


class TestOutcomes:
    def test_bits_are_write_locked(self):
        y = Outcomes(np.array([True, False]))
        with pytest.raises(ValueError):
            y.bits[0] = False

    def test_equality_includes_noise_flag(self):
        bits = np.array([True, False])
        assert Outcomes(bits) == Outcomes(bits)
        assert Outcomes(bits) != Outcomes(bits, noisy=True)
        assert Outcomes(bits) != Outcomes(np.array([False, False]))

    def test_positives(self):
        assert Outcomes(np.array([False, True, True])).positives() == (1, 2)


class TestEvaluate:
    def test_grid_singleton(self):
        y = evaluate(GRID9, DefectiveSet({5}, 9))
        assert y.positives() == (2, 4)  # 1-based tests 3 and 5

    def test_empty_defective_set_all_negative(self):
        y = evaluate(GRID9, DefectiveSet([], 9))
        assert not y.bits.any()

    def test_two_sets_with_equal_outcomes(self):
        # 0-based {1,3} and {0,4} cover the same grid lines
        ya = evaluate(GRID9, DefectiveSet({1, 3}, 9))
        yb = evaluate(GRID9, DefectiveSet({0, 4}, 9))
        assert ya == yb

    def test_monotone_in_defectives(self):
        small = evaluate(GRID9, DefectiveSet({1}, 9))
        large = evaluate(GRID9, DefectiveSet({1, 7}, 9))
        assert np.all(large.bits >= small.bits)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidParameterError):
            evaluate(GRID9, DefectiveSet({1}, 8))

    def test_untested_item_never_positive(self):
        m = TestMatrix(rows=((0,), (1,)), num_items=3)
        y = evaluate(m, DefectiveSet({2}, 3))
        assert not y.bits.any()


class TestApplyNoise:
    def test_sigma_zero_is_identity(self):
        y = evaluate(GRID9, DefectiveSet({5}, 9))
        assert apply_noise(y, 0.0, np.random.default_rng(1)) is y

    def test_same_seed_same_flips(self):
        y = evaluate(GRID9, DefectiveSet({5}, 9))
        a = apply_noise(y, 0.3, np.random.default_rng(7))
        b = apply_noise(y, 0.3, np.random.default_rng(7))
        assert a == b
        assert a.noisy

    def test_flip_fraction_matches_sigma(self):
        bits = np.zeros(100_000, dtype=bool)
        noisy = apply_noise(Outcomes(bits), 0.3, np.random.default_rng(0))
        assert abs(noisy.bits.mean() - 0.3) < 0.01

    def test_sigma_out_of_range(self):
        y = Outcomes(np.array([True]))
        with pytest.raises(InvalidParameterError):
            apply_noise(y, 0.5, np.random.default_rng(0))

    def test_refuses_a_bool_sigma(self):
        y = Outcomes(np.array([True]))
        with pytest.raises(InvalidParameterError, match="sigma must be a real number, got False"):
            apply_noise(y, False, np.random.default_rng(0))

    def test_refuses_what_is_not_a_generator(self):
        y = Outcomes(np.array([True]))
        for rng in (None, 7, np.random.RandomState(0)):
            with pytest.raises(InvalidParameterError, match="must be a numpy.random.Generator"):
                apply_noise(y, 0.1, rng)


class TestValidate:
    def test_valid_matrix_empty_report(self):
        assert validate(GRID9) == []

    def test_column_weight_violation(self):
        m = TestMatrix(rows=((0,), (0,), (0,)), num_items=2, col_limit=2)
        report = validate(m)
        assert len(report) == 1
        assert report[0].kind == "col-weight"
        assert "column 0" in report[0].subject

    def test_row_weight_violation(self):
        m = TestMatrix(rows=((0, 1, 2),), num_items=3, row_limit=2)
        kinds = [v.kind for v in validate(m)]
        assert kinds == ["row-weight"]

    def test_index_out_of_range(self):
        m = TestMatrix(rows=((0, 3),), num_items=3)
        kinds = [v.kind for v in validate(m)]
        assert "index-range" in kinds

    def test_unsorted_row(self):
        m = TestMatrix(rows=((1, 0),), num_items=3)
        kinds = [v.kind for v in validate(m)]
        assert "row-order" in kinds

    def test_duplicate_entry_flagged(self):
        m = TestMatrix(rows=((1, 1),), num_items=3)
        kinds = [v.kind for v in validate(m)]
        assert "row-order" in kinds

    def test_empty_rows_are_legal(self):
        m = TestMatrix(rows=((), (0,)), num_items=2)
        assert validate(m) == []

    def test_broken_repetition_grouping(self):
        m = TestMatrix(
            rows=((0,), (1,), (0,), (0,)),
            num_items=2,
            design_tag="repeated",
            base_tag="custom",
            repeat_k=2,
        )
        kinds = [v.kind for v in validate(m)]
        assert "repetition" in kinds


class TestSerialization:
    def test_grid_file_has_header_plus_one_line_per_test(self):
        text = serialize(GRID9)
        lines = text.strip().split("\n")
        assert len(lines) == 7
        assert lines[0] == "6 9 gamma=2 tag=hypergrid"
        assert lines[1] == "3 0 3 6"

    def test_round_trip_identity(self):
        assert parse(serialize(GRID9)) == GRID9

    def test_round_trip_with_all_header_fields(self):
        m = TestMatrix(
            rows=((0, 1), (0, 1), (2,), (2,)),
            num_items=3,
            col_limit=4,
            row_limit=2,
            design_tag="repeated",
            block_starts=(0, 2),
            base_tag="block-binary-rho",
            repeat_k=2,
        )
        assert parse(serialize(m)) == m

    @pytest.mark.parametrize("rows", [[(-1,), (5,)], [(0, 3)], [(), (1, 2, 3)]],
                             ids=["negative", "n-and-above", "equal-to-n"])
    def test_refuses_an_index_that_parse_would_refuse(self, rows):
        """An index below 0 or at or past n is refused before anything is
        written, with the message of ``column_weights``."""
        matrix = TestMatrix(rows=rows, num_items=3)
        with pytest.raises(InvalidParameterError,
                           match=r"^matrix has item indices outside \[0, 3\); validate\(\) lists them$"):
            serialize(matrix)

    def test_peak_memory_stays_near_the_text(self, large_design):
        """The writer holds its text, the parts it joins and one chunk's
        arrays: an unchunked writer peaks near 9 times the text."""
        tracemalloc.start()
        try:
            text = serialize(large_design)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * len(text)

    def test_parse_peaks_near_the_indices(self, large_design):
        """Above its text, the reader holds the one int32 array it fills
        (4 bytes per incidence) and one chunk's arrays: about 5. Holding the
        chunks' int32 parts and then their concatenation peaks near 8.5;
        splitting the text into lines, joining and converting it at once
        and deleting the weights from int64 values, near 32."""
        text = serialize(large_design)
        peak = _peak_bytes(lambda: parse(text))
        assert peak <= 6 * large_design.ones_count()

    def test_crlf_and_commented_copies_read_without_the_per_line_reader(
            self, large_design, monkeypatch):
        """Copies with CRLF or lone CR line ends, form feeds for line ends,
        blank lines or indented rows, or comment lines among the rows (with
        spaces, non-ASCII text and a "#" of their own) are read by the C
        pass: the per-line reader is never asked for."""
        text = serialize(large_design)
        lines = text.splitlines(keepends=True)
        commented = "".join(line + ("# row \u00e9 # 1 2\n" if k % 97 == 0 else "")
                            for k, line in enumerate(lines))
        blank = "".join(line + ("\n" if k % 89 == 0 else "") for k, line in enumerate(lines))
        indented = "".join((" \t" if k % 83 == 0 else "") + line for k, line in enumerate(lines))
        monkeypatch.setattr(core, "_read_rows", mock.Mock(side_effect=AssertionError))
        for copy in (text.replace("\n", "\r\n"), commented, commented.replace("\n", "\r\n"),
                     text.replace("\n", "\r"), text.replace("\n", "\x0c"), blank, indented):
            assert parse(copy) == large_design

    def test_malformed_row_in_a_crlf_body_keeps_its_line_number(self, large_design):
        text = serialize(large_design).replace("\n", "\r\n")
        lines = text.split("\r\n")
        lines[7000] = lines[7000].split(" ", 1)[0] + " 0 0"  # weight 100, then two items
        with pytest.raises(ParseError, match=r"^line 7001: row declares weight 100 but lists 2"):
            parse("\r\n".join(lines))

    def test_comments_and_blank_lines_ignored(self):
        text = "# a design\n\n" + serialize(GRID9) + "# trailing comment\n"
        assert parse(text) == GRID9

    def test_parse_error_carries_line_number(self):
        text = "2 4\n1 0\n2 3 1\n"  # third line not increasing
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.line == 3
        assert "increasing" in str(err.value)

    def test_weight_mismatch(self):
        with pytest.raises(ParseError) as err:
            parse("1 4\n3 0 1\n")
        assert err.value.line == 2

    def test_index_out_of_range_in_row(self):
        with pytest.raises(ParseError) as err:
            parse("1 4\n1 4\n")
        assert err.value.line == 2

    def test_missing_rows(self):
        with pytest.raises(ParseError):
            parse("2 4\n1 0\n")

    def test_trailing_rows(self):
        with pytest.raises(ParseError):
            parse("1 4\n1 0\n1 1\n")

    def test_bad_header_key(self):
        with pytest.raises(ParseError) as err:
            parse("1 4 beta=3\n1 0\n")
        assert err.value.line == 1

    def test_repeated_header_key(self):
        with pytest.raises(ParseError) as err:
            parse("2 3 gamma=1 gamma=2\n1 0\n1 1\n")
        assert err.value.line == 1
        assert "repeated" in str(err.value)

    def test_empty_file(self):
        with pytest.raises(ParseError):
            parse("\n# only comments\n")

    def test_outcome_round_trip(self):
        y = Outcomes(np.array([True, False, True]))
        assert parse_outcomes(serialize_outcomes(y)) == y

    def test_outcome_bad_chars(self):
        with pytest.raises(ParseError):
            parse_outcomes("01x\n")

    def test_outcome_length_check(self):
        with pytest.raises(ParseError):
            parse_outcomes("0101\n", expected_tests=3)

    def test_zero_test_outcome_file_round_trips(self):
        empty = Outcomes(np.zeros(0, dtype=bool))
        assert serialize_outcomes(empty) == "\n"
        for expected_tests in (None, 0):
            assert parse_outcomes("\n", expected_tests) == empty
            assert parse_outcomes("# a comment\n", expected_tests) == empty
        with pytest.raises(ParseError, match="line 1: empty outcome file"):
            parse_outcomes("\n", expected_tests=2)


class TestSetUpMemory:
    """tracemalloc peaks of the layers that set a large design up, in
    bytes per incidence of the design (its indices take 4)."""

    def test_construction(self, large_design):
        """The int32 indices, sorted pass by pass in place, and one pass's
        int64 permutation: about 6.0. Shuffling an int32 item range in
        place peaked at about 5.3, but swaps 4-byte items half as fast;
        per-pass int64 permutations, their concatenation and the int32
        cast of it peak near 22."""
        peak = _peak_bytes(
            lambda: permuted_block_rho_design(250_000, 10, 100, 0.5, np.random.default_rng(1)))
        assert peak <= 8 * large_design.ones_count()

    def test_permuted_rho_construction_keeps_only_its_csr(self, large_design):
        """The column provider holds two ints and a function, about 1 KB
        with the matrix object, where an index built at construction would
        keep 6 bytes an incidence. (The first call in a process also
        imports; the fixture has made it.)"""
        held, matrix = _held_bytes(
            lambda: permuted_block_rho_design(250_000, 10, 100, 0.5, np.random.default_rng(1)))
        assert held - matrix.indptr.nbytes - matrix.indices.nbytes <= 4096

    @pytest.mark.parametrize("build", [
        lambda: permuted_block_rho_design(5000, 10, 20, 0.5, np.random.default_rng(1)),
        lambda: random_gamma_design(5000, 10, 3, 0.1, np.random.default_rng(1)),
    ], ids=["permuted-rho", "random-gamma"])
    def test_a_matrix_with_a_provider_is_freed_without_a_collection(self, build):
        """The provider holds no reference back to the matrix, so the
        matrix and its column index are in no reference cycle."""
        matrix = build()
        matrix.column_index()
        gone = weakref.ref(matrix)
        gc.disable()
        try:
            del matrix
            assert gone() is None
        finally:
            gc.enable()

    def test_random_gamma_construction(self):
        """n = 4 * 10**5 items in 3 tests each, 1.2 * 10**6 incidences
        in T = 12 946 tests: the sorted 64-bit keys (T * n is past 2**32)
        with the int32 indices written from them, the uint16 column tests
        the keys are made from, and one piece of drawn groups: about 14.4.
        Without the column tests it peaked at 13.1; whole-round int64
        draws, their concatenation and a stable int64 argsort of it peak
        near 27.0. Beyond its CSR the matrix keeps the column tests, 2."""
        n, gamma = 400_000, 3
        peak = _peak_bytes(
            lambda: random_gamma_design(n, 10, gamma, 0.1, np.random.default_rng(42)))
        assert peak <= 16 * n * gamma
        held, matrix = _held_bytes(
            lambda: random_gamma_design(n, 10, gamma, 0.1, np.random.default_rng(42)))
        assert matrix.num_tests < 1 << 16
        assert held - matrix.indptr.nbytes - matrix.indices.nbytes <= 2 * n * gamma + 4096

    def test_random_gamma_keeps_4_bytes_from_65_536_tests(self):
        """From 65 536 tests the kept column tests take 4 bytes an
        incidence: here 2 * 10**5 incidences in T = 108 732 tests. (The
        first call in a process also imports; a small one makes it.)"""
        random_gamma_design(10, 1, 2, 0.1, np.random.default_rng(1))
        n, gamma = 100_000, 2
        held, matrix = _held_bytes(
            lambda: random_gamma_design(n, 20, gamma, 0.1, np.random.default_rng(42)))
        assert matrix.num_tests >= 1 << 16
        assert held - matrix.indptr.nbytes - matrix.indices.nbytes <= 4 * n * gamma + 4096

    def test_validate(self, large_design):
        """On a valid matrix: a bool per entry for each check, then the
        cached column weights, counted by ``np.add.at`` straight from the
        int32 indices: about 2.5. ``bincount``, which counts an intp copy
        of the indices, peaks near 10.3."""
        matrix = _uncached(large_design)
        peak = _peak_bytes(lambda: validate(matrix))
        assert peak <= 4 * large_design.ones_count()
        assert "_column_weights" in vars(matrix)

    def test_column_index(self, large_design):
        """The index (int64 offsets, uint16 tests) and the column weights
        it is built from take 6 on items of weight 4; with the staged 32-bit
        keys of the item ranges and one sorted block of rows the build
        peaks at about 10.7. One int64 key array for all the incidences
        peaks near 14.1."""
        matrix = _uncached(large_design)
        peak = _peak_bytes(matrix.column_index)
        assert peak <= 12 * large_design.ones_count()
        assert np.array_equal(matrix.column_index()[1], large_design.column_index()[1])

    def test_pass_scatter_column_index(self):
        """A permuted-rho design's own column index, scattered pass by pass
        through its indices: the index (int64 offsets and uint16 tests), 4
        on items of weight 4, and one pass's test numbers and intp entries,
        about 6.5. Sorted out of the rows, as a copy's is, it peaks at
        about 10.7."""
        matrix = permuted_block_rho_design(250_000, 10, 100, 0.5, np.random.default_rng(1))
        peak = _peak_bytes(matrix.column_index)
        assert peak <= 7 * matrix.ones_count()
        assert np.array_equal(matrix.column_index()[1], _uncached(matrix).column_index()[1])

    def test_column_regular_coma_table(self, large_design):
        """With the index and weights built, a COMA plan on a design of
        items in 4 tests each: the (4, n) uint16 table, filed by one sort
        of packed (first test, second test, position) keys, and the int32
        candidates read out of them: about 5.3. With the int64 order of one
        stable argsort of the first tests as candidates it peaked at about
        6.1, and taking each row at its candidates' clamped positions at
        about 8.8."""
        large_design.column_index()
        large_design.column_weights()
        peak = _peak_bytes(lambda: make_plan(large_design, "coma"))
        assert peak <= 7 * large_design.ones_count()

    def test_repeat_design(self, repeated_design):
        """The copies' arrays, derived on first read: the int32 indices of
        the 65 copies, written in place one row length at a time through
        strided views, with no position array, and two int64 per-row
        arrays: about 4.35. Gathering pieces of 2**16 entries through int32
        positions peaked near 6.0, one gather of all the copies and a copy
        of it into the matrix near 16.6."""
        base = permuted_block_rho_design(1000, 10, 50, 0.5, np.random.default_rng(1))
        peak = _peak_bytes(lambda: repeat_design(base, 65).indices)
        assert peak <= 5 * repeated_design.ones_count()

    def test_majority_plan(self, repeated_design):
        """The copy check, which reads one piece of at most 2**16 entries
        of whole groups at a time, and the base rows (1/65 of the design),
        kept without a second copy: about 0.70. Checking through gathered
        pieces and int32 positions peaked near 2.2, a whole second copy of
        the indices to compare against near 16.8."""
        matrix = _uncached(repeated_design)
        peak = _peak_bytes(lambda: make_plan(matrix, "majority"))
        assert peak <= 1 * repeated_design.ones_count()

    def test_repeated_harness_set_up(self):
        """``repeat_design`` keeps the base and k, the majority plan
        evaluates the base and shares its column index, and a zero-trial
        run builds its plan the same way: the three peak near 0.30 bytes
        per repeated incidence and keep about 0.10. With the copies written
        out, checked and copied back by the plan they peaked near 5.0 and
        kept 4.3."""
        base = permuted_block_rho_design(1000, 10, 50, 0.5, np.random.default_rng(1))
        cfg = SimConfig(params=DesignParams(n=1000, d=10, rho=50, sigma=0.1, zeta=0.5),
                        prior=Prior(PRIOR_UNIFORM_EXACT, 10), trials=0, master_seed=1)

        def set_up():
            matrix = repeat_design(base, 65)
            plan = make_plan(matrix, "majority")
            run_monte_carlo(matrix, "majority", cfg)
            return matrix, plan

        peak = _peak_bytes(set_up)
        assert peak <= 1 * 975_000

    def test_validate_repeated(self, repeated_design):
        """A bool per entry for each check, and the copy check in bounded
        pieces of whole groups: about 1.34. The check through gathered
        pieces and int32 positions peaked near 2.7, a whole second copy
        near 17.4."""
        matrix = _uncached(repeated_design)
        peak = _peak_bytes(lambda: validate(matrix))
        assert peak <= 2 * repeated_design.ones_count()

    def test_kept_column_index_is_narrow(self, large_design):
        """Below 65 536 tests the index keeps its tests in 2 bytes: with its
        int64 offsets and the column weights, 6 bytes per incidence on items
        of weight 4, where int64 tests kept 12."""
        matrix = _uncached(large_design)
        tracemalloc.start()
        try:
            _, tests = matrix.column_index()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert tests.dtype == np.uint16
        assert held <= 7 * large_design.ones_count()


class TestMatrixStorage:
    def test_csr_arrays(self):
        assert GRID9.indptr.tolist() == [0, 3, 6, 9, 12, 15, 18]
        assert GRID9.indices.tolist() == [0, 3, 6, 1, 4, 7, 2, 5, 8, 0, 1, 2, 3, 4, 5, 6, 7, 8]
        assert (GRID9.indptr.dtype, GRID9.indices.dtype) == (np.int64, np.int32)
        with pytest.raises(ValueError):
            GRID9.indices[0] = 1

    def test_from_csr_equals_rows(self):
        m = TestMatrix.from_csr(GRID9.indptr, GRID9.indices, 9, col_limit=2, design_tag=TAG_HYPERGRID)
        assert m == GRID9
        assert hash(m) == hash(GRID9)
        assert m != TestMatrix(rows=GRID9.rows, num_items=9)

    def test_malformed_csr(self):
        with pytest.raises(InvalidParameterError):
            TestMatrix.from_csr([0, 2, 1], [0, 1], 3)
        with pytest.raises(InvalidParameterError):
            TestMatrix.from_csr([0, 1], [0, 1], 3)

    def test_index_outside_int32_never_wraps(self):
        for index in (2**31, -(2**31) - 1, 2**70):
            with pytest.raises(InvalidParameterError):
                TestMatrix(rows=((index,),), num_items=3)
        with pytest.raises(InvalidParameterError):
            TestMatrix(rows=(), num_items=2**31 + 1)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            GRID9.num_items = 3

    def test_column_index_is_cached(self):
        m = TestMatrix(rows=((0, 2), (1, 2), (2,)), num_items=4)
        col_indptr, tests = m.column_index()
        assert col_indptr.tolist() == [0, 1, 2, 5, 5]
        assert tests.tolist() == [0, 1, 0, 1, 2]
        assert m.column_index()[1] is tests
        assert m.column_weights().tolist() == [1, 1, 3, 0]

    def test_a_repeated_design_pickles_as_its_base_and_k(self):
        """C7's design pickles as its base and k, under a tenth of its
        pickle with the copies' arrays; unpickled, it still holds its base,
        and its plan skips the copy check."""
        import pickle

        base = permuted_block_rho_design(1000, 10, 50, 0.5, np.random.default_rng(3))
        lazy = repeat_design(base, 65)
        data = pickle.dumps(lazy)
        again = pickle.loads(data)
        assert make_plan(again, "majority").evaluated is again._base
        assert "indices" not in vars(again)
        assert again == lazy and hash(again) == hash(lazy)
        assert again._base == base
        eager = TestMatrix.from_csr(lazy.indptr, lazy.indices, *lazy._metadata())
        assert len(data) < len(pickle.dumps(eager)) / 10
        assert pickle.loads(pickle.dumps(eager)) == again

    def test_pickle_round_trip_drops_the_cache(self):
        import pickle

        GRID9.column_index()
        again = pickle.loads(pickle.dumps(GRID9))
        assert again == GRID9
        assert "_column_index" not in vars(again)
        assert not again.indices.flags.writeable


class TestBlockOffsetsReadBack:
    def test_python_ints_are_kept_unwritten(self, monkeypatch):
        """A tuple of Python ints is its own read-back: no offset is written
        out and parsed again."""
        calls = []
        field_value = core._field_value
        monkeypatch.setattr(core, "_field_value",
                            lambda *args: calls.append(args) or field_value(*args))
        starts = (0, 4, 9, 2**40)
        assert core._read_back("blocks", starts) is starts
        assert core._read_back("blocks", [0, 4]) == (0, 4)
        assert calls == []
        assert TestMatrix(rows=[], num_items=10, block_starts=(0, 4)).block_starts == (0, 4)
        assert [call[0] for call in calls] == ["n"]

    def test_numpy_ints_read_back_as_python_ints(self):
        for starts in ((0, np.int64(4)), np.array([0, 4], dtype=np.int64), (np.int32(0), 4)):
            read = core._read_back("blocks", starts)
            assert read == (0, 4)
            assert [type(start) for start in read] == [int, int]
            matrix = TestMatrix(rows=[], num_items=10, block_starts=starts)
            assert [type(start) for start in matrix.block_starts] == [int, int]

    @pytest.mark.parametrize("value", [True, 1.0, np.float64(1), "1"],
                             ids=["bool", "float", "numpy-float", "str"])
    def test_other_values_are_still_refused(self, value):
        with pytest.raises(InvalidParameterError):
            core._read_back("blocks", (0, value))
        with pytest.raises(InvalidParameterError):
            TestMatrix(rows=[], num_items=10, block_starts=[0, value])

    def test_only_block_offsets_skip_the_text(self):
        with pytest.raises(InvalidParameterError, match="reads back as 5"):
            core._read_back("n", (5,))


@st.composite
def _well_formed_offsets(draw):
    """(n, offsets): n up to 2**31 and up to 20 strictly increasing offsets
    from 0, below n."""
    n = draw(st.sampled_from([1, 2, 2**31 - 2, 2**31 - 1, 2**31]) | st.integers(1, 2**31))
    rest = draw(st.sets(st.integers(1, n - 1), max_size=19)) if n > 1 else set()
    return n, (0, *sorted(rest))


class TestBlockBounds:
    @given(_well_formed_offsets())
    @settings(max_examples=200, deadline=None)
    def test_equal_to_the_matrix_bounds(self, case):
        n, starts = case
        matrix = TestMatrix(rows=[], num_items=n, block_starts=starts)
        bounds = core._block_bounds(starts, n)
        assert bounds.dtype == core._index_dtype(n + 1)
        assert bounds.shape == (len(starts), 2)
        assert np.array_equal(bounds, np.array(matrix.block_bounds()))
        assert np.array_equal(core._block_bounds(np.array(starts, dtype=np.int64), n), bounds)
        assert all(type(value) is int for pair in matrix.block_bounds() for value in pair)

    def test_no_offsets_are_one_block(self):
        assert core._block_bounds(None, 7).tolist() == [[0, 7]]
        assert TestMatrix(rows=[], num_items=7).block_bounds() == ((0, 7),)

    @pytest.mark.parametrize("n, dtype", [(2**31 - 2, np.int32), (2**31 - 1, np.int64)])
    def test_int32_below_2_31(self, n, dtype):
        """The last block ends at n, so n + 1 bounds the values: int32 up to
        n = 2**31 - 2."""
        bounds = core._block_bounds((0, n - 1), n)
        assert bounds.dtype == dtype
        assert bounds.tolist() == [[0, n - 1], [n - 1, n]]

    @pytest.mark.parametrize("starts", [(), (1,), (0, 0), (0, 2, 1), (0, 3), (0, 2**70)])
    def test_malformed_offsets_have_none(self, starts):
        assert core._block_bounds(starts, 3) is None
        matrix = TestMatrix(rows=[], num_items=3, block_starts=starts)
        with pytest.raises(InvalidParameterError, match="block offsets must start at 0"):
            matrix.block_bounds()


@pytest.mark.parametrize(
    "build, bad, good",
    [
        (lambda i: TestMatrix(rows=[[i]], num_items=3), 1.7, np.int64(1)),
        (lambda s: TestMatrix(rows=[], num_items=3, block_starts=[0, s]), 1.5, np.int32(1)),
        (lambda i: DefectiveSet({i}, 3), 1.5, np.int64(1)),
        (lambda n: DefectiveSet({0}, n), 3.5, np.int64(3)),
        (lambda n: TestMatrix([[0]], n).column_weights().tolist(), 3.5, np.uint8(3)),
        (lambda i: DefectiveSet({i}, 3), True, np.int8(2)),
    ],
    ids=["row-index", "block-offset", "defective", "universe", "num-items", "bool-defective"],
)
def test_value_types_refuse_non_integers(build, bad, good):
    """A float or a bool is refused with InvalidParameterError, where it
    was truncated or raised a raw TypeError; NumPy integers read as the
    ints they hold."""
    with pytest.raises(InvalidParameterError, match="integer"):
        build(bad)
    assert build(good) == build(int(good))


class TestDesignParams:
    def test_alpha_beta(self):
        p = DesignParams(n=10_000, d=10, rho=100)
        assert p.alpha == pytest.approx(0.25)
        assert p.beta == pytest.approx(2.0 / 3.0)

    def test_alpha_zero_for_single_defective(self):
        assert DesignParams(n=100, d=1).alpha == 0.0

    def test_effective_epsilon_from_zeta(self):
        p = DesignParams(n=10_000, d=10, zeta=0.5)
        assert p.effective_epsilon == pytest.approx(0.01)
        assert DesignParams(n=100, d=1, epsilon=0.2).effective_epsilon == 0.2

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            DesignParams(n=10, d=10)
        with pytest.raises(InvalidParameterError):
            DesignParams(n=10, d=1, epsilon=0.5)
        with pytest.raises(InvalidParameterError):
            DesignParams(n=10, d=1, sigma=0.5)
        with pytest.raises(InvalidParameterError):
            DesignParams(n=10, d=1, zeta=0.0)

    def test_fields_are_python_numbers_and_bools_are_refused(self):
        p = DesignParams(n=np.int64(10), d=np.int32(2), epsilon=np.float32(0.1), sigma=0,
                         zeta=np.int64(1))
        assert p == DesignParams(n=10, d=2, epsilon=float(np.float32(0.1)), sigma=0.0, zeta=1.0)
        assert [type(v) for v in (p.n, p.d, p.epsilon, p.sigma, p.zeta)] == [
            int, int, float, float, float]
        with pytest.raises(InvalidParameterError) as info:
            DesignParams(10, 2, sigma=False)
        assert str(info.value) == "sigma must be a real number, got False"

    def test_beta_requires_rho(self):
        with pytest.raises(InvalidParameterError):
            DesignParams(n=10, d=2).beta


class TestPrior:
    def test_kinds(self):
        Prior(PRIOR_UNIFORM_EXACT, 3)
        Prior(PRIOR_IID_BERNOULLI, 3)
        with pytest.raises(InvalidParameterError):
            Prior("something-else", 3)
        with pytest.raises(InvalidParameterError):
            Prior(PRIOR_UNIFORM_EXACT, -1)


class TestNumericHelpers:
    def test_iceil_snaps_near_integers(self):
        assert iceil(6.000000000000002) == 6
        assert iceil(249.99999999999997) == 250
        assert iceil(6.3) == 7
        assert iceil(6.0) == 6
        assert iceil(1e13 + 0.5) == 10**13

    @pytest.mark.parametrize("value", [1e13 + 0.5, 1e15 + 0.125, 1e9 + 0.75, 2.5, 1e18])
    def test_iceil_is_the_ceiling_or_one_below(self, value):
        # the relative snap spans more than 1 above 1e9, but only rounds
        # down to the integer just below
        assert math.ceil(value) - 1 <= iceil(value) <= math.ceil(value)

    def test_iceil_refuses_non_finite(self):
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(InvalidParameterError):
                iceil(value)

    @pytest.mark.parametrize(
        "value,k,expected",
        [(9, 2, 3), (10, 2, 4), (8, 3, 2), (9, 3, 3), (1, 4, 1), (40, 2, 7)],
    )
    def test_int_root_ceil(self, value, k, expected):
        assert int_root_ceil(value, k) == expected

    def test_int_root_ceil_matches_definition(self):
        for value in range(1, 200):
            for k in (1, 2, 3, 4):
                b = int_root_ceil(value, k)
                assert b**k >= value
                assert b == 1 or (b - 1) ** k < value
