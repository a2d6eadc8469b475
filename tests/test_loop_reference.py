"""The vectorised core operations, constructors, decoders, batch
trial harness and exact oracles agree with their Python-loop references
(``loop_reference.py``) on generated parameters, matrices, texts and outcome
vectors, valid or not."""

import contextlib
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import loop_reference as ref
from sparsegt import core, designs, sim
from sparsegt.core import (
    PRIOR_IID_BERNOULLI,
    PRIOR_UNIFORM_EXACT,
    DefectiveSet,
    IncompatibleDecoderError,
    InvalidParameterError,
    Outcomes,
    ParseError,
    Prior,
    TAG_BLOCK_BINARY_RHO,
    TAG_BLOCK_HYPERGRID,
    TAG_CUSTOM,
    TAG_HYPERGRID,
    TAG_REPEATED,
    TestMatrix,
    evaluate,
    parse,
    parse_outcomes,
    serialize,
    serialize_outcomes,
    validate,
)
from sparsegt.decoders import make_plan
from sparsegt.designs import (
    block_binary_rho_design,
    hypergrid_design,
    hypergrid_shape,
    random_gamma_design,
)


# ---------------------------------------------------------------------------
# generated matrices, including invalid ones
# ---------------------------------------------------------------------------


@st.composite
def any_rows(draw, n, in_range):
    """Rows in any order, with duplicates and empty rows; with
    ``in_range`` False, indices may be negative or >= n."""
    low, high = (0, n - 1) if in_range else (-3, n + 3)
    num_tests = draw(st.integers(0, 8))
    return [draw(st.lists(st.integers(low, high), max_size=n + 2)) for _ in range(num_tests)]


@st.composite
def raw_matrices(draw, in_range=False):
    n = draw(st.integers(1, 10))
    rows = draw(any_rows(n, in_range))
    if draw(st.booleans()):
        # sorted distinct rows, as every constructor writes them
        rows = [sorted(set(row)) for row in rows]
    limits = st.none() | st.integers(1, 4)
    col_limit, row_limit = draw(limits), draw(limits)
    block_starts = draw(st.none() | st.lists(st.integers(-1, n + 1), max_size=4))
    k = draw(st.integers(1, 3))
    if k > 1:
        # a repeated design, possibly with a broken group or a ragged tail
        rows = [row for row in rows for _ in range(k)]
        if rows and draw(st.booleans()):
            t = draw(st.integers(0, len(rows) - 1))
            rows[t] = draw(st.lists(st.integers(0, n - 1), max_size=n))
        if draw(st.booleans()):
            rows = rows[: len(rows) - draw(st.integers(0, min(len(rows), k)))]
    return TestMatrix(
        rows=rows,
        num_items=n,
        col_limit=col_limit,
        row_limit=row_limit,
        design_tag=TAG_REPEATED if k > 1 else TAG_CUSTOM,
        block_starts=block_starts,
        base_tag=TAG_CUSTOM if k > 1 else None,
        repeat_k=k,
    )


def _in_range(matrix):
    return all(0 <= i < matrix.num_items for row in matrix.rows for i in row)


class TestAgreesWithLoops:
    @given(raw_matrices())
    @settings(max_examples=400, deadline=None)
    def test_validate_lists_the_same_violations(self, matrix):
        assert validate(matrix) == ref.validate(matrix)

    @given(raw_matrices())
    @example(TestMatrix(rows=[(0,), (1,), (2,), (2,)], num_items=3, design_tag=TAG_REPEATED,
                        base_tag=TAG_CUSTOM, repeat_k=2))
    @settings(max_examples=300, deadline=None)
    def test_majority_plan_refuses_what_validate_flags(self, matrix):
        """A repeated design is refused by the majority plan exactly when
        validate reports ``repetition``, naming the same rows."""
        assume(matrix.repeat_k > 1)
        flagged = [v for v in validate(matrix) if v.kind == "repetition"]
        if flagged:
            with pytest.raises(IncompatibleDecoderError) as err:
                make_plan(matrix, "majority")
            if flagged[0].subject != "rows":  # not the indivisible row count
                assert str(err.value).startswith(flagged[0].subject + " ")
        elif _in_range(matrix):
            assert make_plan(matrix, "majority").kind == "majority"
        else:
            with pytest.raises(InvalidParameterError):
                make_plan(matrix, "majority")

    @given(raw_matrices(in_range=True))
    @settings(max_examples=200, deadline=None)
    def test_column_weights(self, matrix):
        got = matrix.column_weights()
        assert got.dtype == np.int64
        assert np.array_equal(got, ref.column_weights(matrix))

    @given(raw_matrices(in_range=True), st.data())
    @settings(max_examples=200, deadline=None)
    def test_outcome_bits(self, matrix, data):
        items = data.draw(st.sets(st.integers(0, matrix.num_items - 1)))
        defectives = DefectiveSet(items, matrix.num_items)
        assert np.array_equal(evaluate(matrix, defectives).bits, ref.evaluate(matrix, defectives))

    @given(raw_matrices())
    @settings(max_examples=200, deadline=None)
    def test_out_of_range_indices_are_refused(self, matrix):
        if _in_range(matrix):
            return
        with pytest.raises(InvalidParameterError):
            matrix.column_weights()
        with pytest.raises(InvalidParameterError):
            evaluate(matrix, DefectiveSet([0], matrix.num_items))

    @given(raw_matrices())
    @settings(max_examples=150, deadline=None)
    def test_rows_survive_the_arrays(self, matrix):
        again = TestMatrix(
            rows=matrix.rows,
            num_items=matrix.num_items,
            col_limit=matrix.col_limit,
            row_limit=matrix.row_limit,
            design_tag=matrix.design_tag,
            block_starts=matrix.block_starts,
            base_tag=matrix.base_tag,
            repeat_k=matrix.repeat_k,
        )
        assert again == matrix
        assert again.rows == matrix.rows


# ---------------------------------------------------------------------------
# parse on arbitrary and on damaged text
# ---------------------------------------------------------------------------

_TOKENS = [
    "0", "1", "2", "3", "7", "-1", "+2", "1_0", "007", "x", "1.5", "", " ",
    "٣", "99999999999999999999", "-99999999999999999999", "2147483648",
    "#", "gamma=2", "rho=1", "k=2", "tag=repeated", "base=custom", "blocks=0,2",
    "tag=custom", "\t", "\n", "\r", "\x0c", " ", " ",
]


@st.composite
def damaged_design_texts(draw):
    """A serialized design with a few tokens or lines replaced, inserted or
    removed."""
    n = draw(st.integers(1, 8))
    rows = [sorted(set(row)) for row in draw(any_rows(n, in_range=True))]
    header = draw(st.sampled_from(["", " gamma=3", " rho=4 tag=custom", " k=1 blocks=0"]))
    text = serialize(TestMatrix(rows=rows, num_items=n))
    lines = text.splitlines()
    lines[0] += header
    for _ in range(draw(st.integers(0, 3))):
        t = draw(st.integers(0, len(lines) - 1))
        tokens = lines[t].split(" ")
        kind = draw(st.integers(0, 4))
        if kind == 0:
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(_TOKENS))
        elif kind == 1:
            tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(_TOKENS)))
        elif kind == 2 and len(tokens) > 1:
            del tokens[draw(st.integers(0, len(tokens) - 1))]
        elif kind == 3:
            lines.insert(t, draw(st.sampled_from(["", "# note", "1 0", "0", "2 1 0"])))
            continue
        elif kind == 4 and len(lines) > 1:
            del lines[t]
            continue
        lines[t] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def _outcome(read, text):
    try:
        return read(text)
    except ParseError as err:
        return (err.line, str(err))


class TestParseRobustness:
    @given(st.text(max_size=80))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_text_parses_or_raises_parse_error(self, text):
        for read in (parse, parse_outcomes):
            try:
                read(text)
            except ParseError:
                pass

    @given(damaged_design_texts())
    @settings(max_examples=400, deadline=None)
    def test_same_error_line_as_line_by_line_reading(self, text):
        assert _outcome(parse, text) == _outcome(ref.parse, text)

    @given(st.text(alphabet="0123 -\n#x=", max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_same_outcome_on_digit_soup(self, text):
        assert _outcome(parse, text) == _outcome(ref.parse, text)


class TestOutcomeFilesAgreeWithLoops:
    @given(st.text(alphabet="01 \t#x\n\r\x0c٣", max_size=40), st.none() | st.integers(0, 12))
    @settings(max_examples=300, deadline=None)
    def test_same_bits_or_error(self, text, expected_tests):
        assert _outcome(lambda t: parse_outcomes(t, expected_tests), text) == _outcome(
            lambda t: ref.parse_outcomes(t, expected_tests), text
        )

    @given(st.lists(st.booleans(), max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_same_bytes(self, bits):
        outcomes = Outcomes(np.array(bits, dtype=bool))
        text = serialize_outcomes(outcomes)
        assert text == ref.serialize_outcomes(outcomes)
        assert parse_outcomes(text) == outcomes


def _parse_reading_lines(text):
    """``parse(text)`` (or its error) and whether the per-line reader ran."""
    with mock.patch.object(core, "_read_rows", wraps=core._read_rows) as reader:
        result = _outcome(parse, text)
    return result, reader.called


# valid text the C conversion refuses: the per-line reader must accept it
_UNUSUAL_VALID_TEXTS = {
    "plus sign": "2 3\n1 +2\n0\n",
    "underscore": "1 30\n1 1_0\n",
    "arabic-indic digit": "1 5\n1 ٣\n",
    "full-width digit": "1 5\n1 \uff14\n",
    "tab": "1 5\n2\t1 3\n",
    "tabs and spaces": "2 5\n2 \t 1\t\t3\n1\t4\n",
    "double space": "1 5\n2  1 3\n",
}

# valid text the C conversion reads: the per-line reader must not run.
# str.splitlines ends a line at \r and \x0c too, and each line is stripped
_PLAIN_VALID_TEXTS = {
    "form feed between rows": "2 5\n1 1\x0c1 3\n",
    "form feed at a line end": "2 5\n1 1\x0c\n1 3\n",
    "leading and trailing spaces": "2 5\n  2 1 3  \n 1 4\n",
    "lone carriage returns": "2 5\r2 1 3\r1 4\r",
    "leading zeros": "2 10\n2 007 8\n1 0000000000000000000000009\n",
    "CRLF line endings": "2 5\r\n2 1 3\r\n0\r\n",
    "comments and blank lines between rows": "# design\n2 5\n\n1 1\n# note\n\n   \n2 0 4\n# end\n",
    "lone 0 rows": "3 5\n0\n1 2\n0\n",
    "largest index": f"1 {2**31}\n2 0 2147483647\n",
    "no rows": "0 5\n# nothing\n",
}

# errors where the C conversion reads a token otherwise than int() does, or
# reads no token at all
_ERROR_TEXTS = {
    "20-digit index": "1 5\n1 99999999999999999999\n",
    "20-digit index after valid rows": "2 5\n1 1\n2 2 99999999999999999999\n",
    "20-digit weight": "1 5\n99999999999999999999 1\n",
    "20-digit weight of an empty row": "1 5\n99999999999999999999\n",
    "negative index at n = 2**31": f"1 {2**31}\n1 -1\n",
    "lone minus": "1 5\n1 -\n",
    "decimal at n = 2**31": f"1 {2**31}\n1 1.5\n",
    "index 2**31 at n = 2**31": f"1 {2**31}\n1 2147483648\n",
    "trailing x on the last row": "2 5\n1 1\n2 2 3x\n",
    "lone x on the last row": "2 5\n1 1\n2 2 3 x\n",
    "lone 0 row, then a row out of range": "2 5\n0\n1 7\n",
    "lone 0 row declaring too few": "2 5\n1 2\n0 4\n",
    "lone 0 as an extra row": "1 5\n1 2\n0\n",
    "lone 0 row missing": "2 5\n0\n",
    "double space, weight too small": "1 5\n1  2 3\n",
    "equal indices": "1 5\n2 3 3\n",
    "falling indices after a valid row": "2 5\n2 0 4\n2 3 2\n",
}


class TestParseAgreesOnUnusualText:
    """The C conversion and the per-line reader accept the same rows and
    raise the same error as the line-by-line reference."""

    @pytest.mark.parametrize("text", _UNUSUAL_VALID_TEXTS.values(), ids=list(_UNUSUAL_VALID_TEXTS))
    def test_valid_text_the_c_pass_refuses(self, text):
        result, per_line = _parse_reading_lines(text)
        assert isinstance(result, TestMatrix)
        assert result == ref.parse(text)
        assert per_line

    @pytest.mark.parametrize("text", _PLAIN_VALID_TEXTS.values(), ids=list(_PLAIN_VALID_TEXTS))
    def test_valid_text_the_c_pass_reads(self, text):
        result, per_line = _parse_reading_lines(text)
        assert isinstance(result, TestMatrix)
        assert result == ref.parse(text)
        assert not per_line

    @pytest.mark.parametrize("text", _ERROR_TEXTS.values(), ids=list(_ERROR_TEXTS))
    def test_same_error(self, text):
        result, _ = _parse_reading_lines(text)
        assert isinstance(result, tuple)
        assert result == _outcome(ref.parse, text)

    @pytest.mark.parametrize(
        "matrix",
        [
            designs.permuted_block_rho_design(20_000, 10, 100, 0.5, np.random.default_rng(3)),
            designs.repeat_design(
                designs.permuted_block_rho_design(500, 5, 20, 0.5, np.random.default_rng(4)), 7
            ),
        ],
        ids=["permuted-rho n=2e4", "repeated permuted-rho"],
    )
    def test_designs_round_trip_through_the_c_pass(self, matrix):
        text = serialize(matrix)
        result, per_line = _parse_reading_lines(text)
        assert result == matrix
        assert not per_line
        assert serialize(result) == text
        assert result == ref.parse(text)


# ---------------------------------------------------------------------------
# block decoders
# ---------------------------------------------------------------------------

_REFERENCE_PLANS = {"hypergrid": ref.GridPlan, "binary": ref.BinaryPlan}


def _block_design(sizes, gamma):
    """Consecutive blocks of the given sizes: one digit grid per block when
    ``gamma`` is set, else one test per bit of the 1-based local label."""
    starts = np.cumsum([0] + sizes[:-1]).tolist()
    rows = []
    for start, size in zip(starts, sizes):
        if gamma:
            rows += [[start + i for i in row] for row in hypergrid_design(size, gamma).rows]
        else:
            rows += [
                [start - 1 + label for label in range(1, size + 1) if label >> r & 1]
                for r in range(size.bit_length())
            ]
    return TestMatrix(
        rows=rows,
        num_items=sum(sizes),
        col_limit=gamma,
        design_tag=TAG_BLOCK_HYPERGRID if gamma else TAG_BLOCK_BINARY_RHO,
        block_starts=starts,
    )


@st.composite
def block_designs(draw):
    """(matrix, decoder): a single-block hypergrid, or a block hypergrid or
    binary block design over generated block sizes."""
    kind = draw(st.sampled_from(["hypergrid", "block-hypergrid", "binary"]))
    if kind == "hypergrid":
        return hypergrid_design(draw(st.integers(1, 60)), draw(st.integers(1, 4))), kind
    sizes = draw(st.lists(st.integers(1, 40), min_size=1, max_size=8))
    gamma = draw(st.integers(1, 4)) if kind == "block-hypergrid" else None
    return _block_design(sizes, gamma), "hypergrid" if gamma else "binary"


def _assert_same_decoding(plan, reference, bits):
    estimate, ambiguous, untested = plan.decode_bits(bits)
    want_estimate, want_ambiguous = reference.decode_bits(bits)
    assert estimate.dtype == np.int64
    assert np.array_equal(estimate, want_estimate)
    assert ambiguous == want_ambiguous
    assert all(type(b) is int for b in ambiguous)
    assert untested.size == 0


def _assert_same_batch_decoding(plan, reference, bits):
    """``decode_batch`` on the positive pairs of a (trials, T) array agrees
    with the loop decoder on each row, and returns its pairs sorted."""
    trial, test = np.divmod(bits.reshape(-1).nonzero()[0], bits.shape[1])
    est_trial, est_item, amb_trial, amb_block = plan.decode_batch(trial, test, len(bits))
    for row, row_bits in enumerate(bits):
        want_estimate, want_ambiguous = reference.decode_bits(row_bits)
        assert np.array_equal(est_item[est_trial == row], want_estimate)
        assert amb_block[amb_trial == row].tolist() == want_ambiguous
    step, item_step = np.diff(est_trial), np.diff(est_item)
    assert np.all((step > 0) | ((step == 0) & (item_step > 0)))
    assert np.all(np.diff(amb_trial) >= 0)


class TestBlockDecoderAgreesWithLoops:
    @given(block_designs(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_same_estimate_and_ambiguous_blocks(self, design, data):
        matrix, decoder = design
        plan = make_plan(matrix, decoder)
        reference = _REFERENCE_PLANS[decoder](matrix)
        assert plan.kind == decoder
        num_tests, n = matrix.num_tests, matrix.num_items
        defectives = data.draw(st.sets(st.integers(0, n - 1), max_size=4))
        vectors = [
            np.zeros(num_tests, dtype=bool),
            np.ones(num_tests, dtype=bool),
            np.array(data.draw(st.lists(st.booleans(), min_size=num_tests,
                                        max_size=num_tests)), dtype=bool),
            evaluate(matrix, DefectiveSet(defectives, n)).bits,
        ]
        for bits in vectors:
            _assert_same_decoding(plan, reference, bits)

    @given(block_designs(), st.integers(1, 12), st.sampled_from([0.001, 0.01, 0.05]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_sparse_batches_agree_row_by_row(self, design, rows, rate, seed):
        """Batches at the positive rates of sparse trials: each row is the
        outcome of up to two defectives, or none, plus junk bits at ``rate``."""
        matrix, decoder = design
        rng = np.random.default_rng(seed)
        n = matrix.num_items
        bits = rng.random((rows, matrix.num_tests)) < rate
        for row in bits:
            chosen = rng.choice(n, min(n, int(rng.integers(0, 3))), replace=False)
            row |= evaluate(matrix, DefectiveSet(chosen, n)).bits
        _assert_same_batch_decoding(make_plan(matrix, decoder),
                                    _REFERENCE_PLANS[decoder](matrix), bits)

    @pytest.mark.parametrize("gamma", [2, None], ids=["hypergrid", "binary"])
    def test_sparse_batch_edge_cases(self, gamma):
        """Blocks of 5, 9 and 4 items. Block 0 of the grid has base 3: tests
        0-2 are its first axis and 3-4 its second. Block 0 of the binary
        design has label bits 0-2."""
        matrix = _block_design([5, 9, 4], gamma)
        decoder = "hypergrid" if gamma else "binary"
        plan, reference = make_plan(matrix, decoder), _REFERENCE_PLANS[decoder](matrix)
        num_tests, n = matrix.num_tests, matrix.num_items

        def row(tests=(), items=()):
            bits = evaluate(matrix, DefectiveSet(items, n)).bits.copy()
            bits[list(tests)] = True
            return bits

        # grid: two positives on the first axis and none or one on the
        # second, and the label 2 + 1 * 3 = 5 past the block end; binary:
        # the labels 7 and 6 past it
        refused = ([row((0, 1)), row((0, 1, 3)), row((2, 4))] if gamma
                   else [row((0, 1, 2)), row((1, 2))])
        batches = [
            np.stack([row(items=[6]), row(items=[6]), row(items=[7, 15])]),  # same block
            np.stack(refused + [row(items=[3])]),
            np.zeros((3, num_tests), dtype=bool),  # no positives at all
            row(items=[0, 17])[None],  # one trial
        ]
        for bits in batches:
            _assert_same_batch_decoding(plan, reference, bits)
        _, _, amb_trial, amb_block = plan.decode_batch(
            *np.divmod(np.stack(refused).reshape(-1).nonzero()[0], num_tests), len(refused))
        assert amb_trial.tolist() == list(range(len(refused)))
        assert amb_block.tolist() == [0] * len(refused)
        est_trial, est_item, amb_trial, _ = plan.decode_batch(
            *np.divmod(batches[0].reshape(-1).nonzero()[0], num_tests), 3)
        assert (est_trial.tolist(), est_item.tolist()) == ([0, 1, 2, 2], [6, 6, 7, 15])
        assert amb_trial.size == 0

    @given(
        st.integers(1, 30),
        st.lists(st.integers(-3, 33), max_size=5),
        st.sampled_from([None, 1, 2, 3]),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_result_on_malformed_block_starts(self, n, starts, gamma, data):
        """Unordered, overlapping, empty or out-of-range blocks, which
        ``validate`` reports, are refused; on any other starts both raise
        the same error or decode alike."""
        bounds = zip(starts, starts[1:] + [n])
        try:
            num_tests = sum(
                hypergrid_shape(end - start, gamma).num_tests if gamma
                else (end - start).bit_length()
                for start, end in bounds
            )
        except InvalidParameterError:
            num_tests = 0
        matrix = TestMatrix(
            rows=[()] * num_tests,
            num_items=n,
            col_limit=gamma,
            design_tag=TAG_BLOCK_HYPERGRID if gamma else TAG_BLOCK_BINARY_RHO,
            block_starts=starts,
        )
        decoder = "hypergrid" if gamma else "binary"
        if any(v.kind == "block-structure" for v in validate(matrix)):
            with pytest.raises(IncompatibleDecoderError, match="block offsets must start at 0"):
                make_plan(matrix, decoder)
            return
        try:
            reference = _REFERENCE_PLANS[decoder](matrix)
        except (InvalidParameterError, IncompatibleDecoderError) as err:
            with pytest.raises(type(err)) as got:
                make_plan(matrix, decoder)
            assert str(got.value) == str(err)
            return
        bits = np.array(data.draw(st.lists(st.booleans(), min_size=num_tests,
                                           max_size=num_tests)), dtype=bool)
        _assert_same_decoding(make_plan(matrix, decoder), reference, bits)


_GRID = hypergrid_design(9, 2)


@pytest.mark.parametrize(
    "matrix, decoder",
    [
        (random_gamma_design(20, 2, 2, 0.2, np.random.default_rng(0)), "hypergrid"),
        (block_binary_rho_design(10, 1, 5, 0.9), "hypergrid"),
        (TestMatrix(rows=_GRID.rows, num_items=9, design_tag=TAG_HYPERGRID), "hypergrid"),
        (TestMatrix(rows=_GRID.rows[:-1], num_items=9, col_limit=2,
                    design_tag=TAG_HYPERGRID), "hypergrid"),
        (_GRID, "binary"),
        (TestMatrix(rows=[(0,), (1,)], num_items=9, design_tag=TAG_BLOCK_BINARY_RHO),
         "binary"),
    ],
    ids=["grid-tag", "grid-tag-no-col-limit", "grid-col-limit", "grid-test-count",
         "binary-tag", "binary-test-count"],
)
def test_block_decoder_refusals_match_the_loops(matrix, decoder):
    with pytest.raises(IncompatibleDecoderError) as want:
        _REFERENCE_PLANS[decoder](matrix)
    with pytest.raises(IncompatibleDecoderError) as got:
        make_plan(matrix, decoder)
    assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# block constructors
# ---------------------------------------------------------------------------


@st.composite
def block_constructor_calls(draw):
    """(name, args) of a hypergrid, block hypergrid or binary block design.
    Most partitions are uneven; a large d or a small epsilon gives blocks of
    size 1."""
    name = draw(st.sampled_from(
        ["hypergrid_design", "block_hypergrid_design", "block_binary_rho_design"]))
    if name == "hypergrid_design":
        return name, (draw(st.integers(1, 150)), draw(st.integers(1, 5)))
    n = draw(st.integers(2, 150))
    d = draw(st.integers(1, n - 1))
    epsilon = draw(st.floats(0.01, 0.99))
    gamma_or_rho = draw(st.integers(1, 5 if name == "block_hypergrid_design" else n))
    return name, (n, d, gamma_or_rho, epsilon)


class TestBlockConstructorsAgreeWithLoops:
    @given(block_constructor_calls())
    @example(("block_hypergrid_design", (7, 3, 2, 0.5)))  # seven blocks of size 1
    @example(("block_binary_rho_design", (10, 1, 3, 0.9)))  # blocks of 2, 3, 2, 3
    @example(("hypergrid_design", (1, 3)))
    @settings(max_examples=300, deadline=None)
    def test_same_matrix_and_bytes(self, call):
        name, args = call
        got, want = getattr(designs, name)(*args), getattr(ref, name)(*args)
        assert got == want
        assert serialize(got) == serialize(want)


@st.composite
def random_gamma_calls(draw):
    """(n, d, gamma, epsilon) of a random-gamma design; a large gamma with a
    small n / epsilon leaves few tests per gamma, so most groups repeat one."""
    n = draw(st.integers(2, 300))
    d = draw(st.integers(1, min(n - 1, 10)))
    return n, d, draw(st.integers(1, 12)), draw(st.floats(0.01, 0.49))


class TestRandomGammaAgreesWithTheItemLoop:
    @given(random_gamma_calls(), st.integers(0, 2**70), st.integers(0, 3))
    @example((50, 2, 8, 0.4), 42, 0)  # T = 80: 30 % of the groups are redrawn
    @example((50, 2, 8, 0.4), 2**64 + 7, 1)
    @example((2, 1, 12, 0.49), 7, 0)  # T = 37: 87 % are redrawn
    @example((2000, 1, 8, 0.4), 2**33 + 1, 2)  # T = 64: 37 %
    @example((2000, 1, 1, 0.3), 2**40, 1)  # gamma = 1 never redraws
    @example((300, 10, 12, 0.05), 99, 3)
    @settings(max_examples=150, deadline=None)
    def test_same_bytes_and_generator_state(self, call, seed, skip):
        """``skip`` odd 32-bit draws first, so the call may start on the
        upper half of a buffered 64-bit output."""
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for rng in (got_rng, want_rng):
            rng.integers(0, 5, size=skip)
        got = random_gamma_design(*call, got_rng)
        want = ref.random_gamma_design(*call, want_rng)
        assert serialize(got) == serialize(want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


# ---------------------------------------------------------------------------
# batch trial harness, every-test-positive decoders and the exact oracle
# ---------------------------------------------------------------------------


_HARNESS_KINDS = ("random-gamma", "permuted-rho", "block-hypergrid", "block-binary",
                  "repeated", "custom")


@st.composite
def harness_cases(draw, max_items=40, kinds=_HARNESS_KINDS):
    """(matrix, decoder, prior, sigma): a random-gamma, permuted-rho, block
    hypergrid, block binary or repeated design, or a custom design whose
    last items are in no test, of the given ``kinds``; noise only on
    repeated designs."""
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(2, max_items))
    d = draw(st.integers(1, max(1, n // 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sigma = 0.0
    try:
        if kind == "random-gamma":
            matrix, decoder = designs.random_gamma_design(
                n, d, draw(st.integers(1, 3)), 0.3, rng), "coma"
        elif kind == "permuted-rho":
            matrix, decoder = designs.permuted_block_rho_design(
                n, d, draw(st.integers(1, n)), 0.5, rng), "coma"
        elif kind == "block-hypergrid":
            matrix, decoder = designs.block_hypergrid_design(
                n, d, draw(st.integers(1, 3)), draw(st.floats(0.05, 0.95))), "hypergrid"
        elif kind == "block-binary":
            matrix, decoder = designs.block_binary_rho_design(
                n, d, draw(st.integers(1, n)), draw(st.floats(0.05, 0.95))), "binary"
        elif kind == "repeated":
            base = designs.permuted_block_rho_design(n, d, draw(st.integers(1, n)), 0.5, rng)
            # even k ties; k = 64, 65 as in the paper's desk-scale noisy design
            k = draw(st.sampled_from([2, 3, 4, 5, 6, 64, 65]))
            matrix, decoder = designs.repeat_design(base, k), "majority"
            sigma = draw(st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.45]))
        else:
            tested = draw(st.integers(1, n))
            rows = draw(st.lists(st.sets(st.integers(0, tested - 1)), max_size=12))
            matrix, decoder = TestMatrix(rows=[sorted(r) for r in rows], num_items=n), "coma"
    except InvalidParameterError:  # outside a family's regime
        assume(False)
    prior_kind = draw(st.sampled_from([PRIOR_UNIFORM_EXACT, PRIOR_IID_BERNOULLI]))
    return matrix, decoder, Prior(prior_kind, d), sigma


def _batch_size(batch):
    """Fix the harness's batch size, or leave the derived one when None."""
    if batch is None:
        return contextlib.nullcontext()
    return mock.patch.object(sim, "_batch_trials", lambda *args: batch)


def _draw_chunk(chunk):
    """Fix the replica's trials per call, or leave the derived one when None."""
    if chunk is None:
        return contextlib.nullcontext()
    return mock.patch.object(sim, "_draw_chunk", lambda d: chunk)


# master seeds: small ones, and ones near and above 2**64, which the trial
# seeds reduce mod 2**64
master_seeds = st.integers(0, 10**6) | st.integers(2**64 - 10**3, 2**64 + 10**6)


class TestBatchHarnessAgreesWithTheTrialLoop:
    @given(harness_cases(), master_seeds, st.integers(0, 60), st.integers(0, 45),
           st.sampled_from([None, 1, 2, 3, 7]), st.sampled_from([None, 1, 4, 16]))
    @settings(max_examples=300, deadline=None)
    def test_same_counts(self, case, seed, start, count, batch, chunk):
        """Any batch size and number of trials per replica call, including
        ones that do not divide the trial count, and any first trial. A
        majority run evaluates the base rows and never indexes the columns
        of the full design."""
        matrix, decoder, prior, sigma = case
        with _batch_size(batch), _draw_chunk(chunk):
            got = sim._run_trial_range(matrix, make_plan(matrix, decoder), prior, sigma,
                                       seed, start, count)
        assert decoder != "majority" or "_column_index" not in vars(matrix)
        want = ref.run_trial_range(matrix, ref.PLANS[decoder](matrix), prior, sigma, seed,
                                   start, count)
        assert got == want
        assert all(type(v) is int for v in got)

    @pytest.mark.parametrize("batch", [1, 7, None])
    @given(harness_cases(kinds=("block-hypergrid", "block-binary")), master_seeds,
           st.integers(0, 60), st.integers(0, 45))
    @settings(max_examples=60, deadline=None)
    def test_same_counts_for_block_designs(self, batch, case, seed, start, count):
        """Block plans decode a batch from runs of its positives; one trial,
        seven, or the derived batch, which holds every trial here."""
        matrix, decoder, prior, sigma = case
        with _batch_size(batch):
            got = sim._run_trial_range(matrix, make_plan(matrix, decoder), prior, sigma,
                                       seed, start, count)
        want = ref.run_trial_range(matrix, ref.PLANS[decoder](matrix), prior, sigma, seed,
                                   start, count)
        assert got == want

    @given(harness_cases(), st.integers(1, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_or_batch_keys_are_the_positives_of_a_dense_scatter(self, case, num_trials, seed):
        """Distinct defectives per trial, in any order within it."""
        matrix = case[0]
        n, num_tests = matrix.num_items, matrix.num_tests
        rng = np.random.default_rng(seed)
        picks = [rng.choice(n, int(rng.integers(0, min(n, 5) + 1)), replace=False)
                 for _ in range(num_trials)]
        trial = np.repeat(np.arange(num_trials), [p.size for p in picks])
        keys = core._or_batch(matrix, trial, np.concatenate(picks).astype(np.int64))
        dense = np.stack([ref.evaluate(matrix, DefectiveSet(p, n)) for p in picks])
        assert keys.dtype == np.int64
        assert np.all(np.diff(keys) > 0)
        assert np.array_equal(keys, dense.reshape(-1).nonzero()[0])
        assert dense.shape == (num_trials, num_tests)

    @given(harness_cases(), master_seeds, st.integers(0, 60), st.integers(0, 45))
    @settings(max_examples=100, deadline=None)
    def test_same_counts_when_the_replica_check_fails(self, case, seed, start, count):
        """A NumPy whose streams differ from the replica gets every trial from
        its own ``default_rng``."""
        matrix, decoder, prior, sigma = case
        want = ref.run_trial_range(matrix, ref.PLANS[decoder](matrix), prior, sigma, seed,
                                   start, count)
        with mock.patch.object(sim, "_replica_matches", lambda: False), \
                mock.patch.object(sim, "_floyd_draws", side_effect=AssertionError), \
                mock.patch.object(sim, "_pcg64_states", side_effect=AssertionError):
            got = sim._run_trial_range(matrix, make_plan(matrix, decoder), prior, sigma,
                                       seed, start, count)
        assert got == want

    def test_same_counts_across_a_draw_chunk_boundary(self):
        """Enough trials at the derived chunk size that the second chunk of
        states starts inside the range: replica draws of d = 12, and
        generator draws of noisy majority trials and of the iid prior."""
        small = hypergrid_design(12, 2)
        runs = [
            (hypergrid_design(100, 2), "coma", Prior(PRIOR_UNIFORM_EXACT, 12), 0.0,
             sim._draw_chunk(12) + 200),
            (designs.repeat_design(small, 3), "majority", Prior(PRIOR_UNIFORM_EXACT, 1), 0.2,
             sim._draw_chunk(0) + 30),
            (small, "coma", Prior(PRIOR_IID_BERNOULLI, 1), 0.0, sim._draw_chunk(0) + 30),
        ]
        start = 12_345
        for matrix, decoder, prior, sigma, count in runs:
            want = ref.run_trial_range(matrix, ref.PLANS[decoder](matrix), prior, sigma,
                                       2**64 + 9, start, count)
            got = sim._run_trial_range(matrix, make_plan(matrix, decoder), prior, sigma,
                                       2**64 + 9, start, count)
            assert got == want
            assert want[0] > 0

    @given(harness_cases(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_decode_bits_matches_the_loop_decoders(self, case, data):
        matrix, decoder, _, _ = case
        plan, reference = make_plan(matrix, decoder), ref.PLANS[decoder](matrix)
        num_tests = matrix.num_tests
        # seeded, not a hypothesis list: a repeated design can have more
        # tests than the longest list hypothesis generates
        coin = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        for bits in (
            np.zeros(num_tests, dtype=bool),
            np.ones(num_tests, dtype=bool),
            coin.random(num_tests) < 0.5,
        ):
            estimate, ambiguous, untested = plan.decode_bits(bits)
            want = reference.decode_bits(bits)
            assert estimate.dtype == np.int64
            assert np.array_equal(estimate, want[0])
            assert ambiguous == list(want[1])
            assert np.array_equal(untested, want[2] if len(want) == 3 else [])

    @given(harness_cases(max_items=12), st.integers(0, 3), st.sampled_from([None, 1, 3, 4]))
    @settings(max_examples=100, deadline=None)
    def test_exhaustive_oracle_counts_the_same_errors(self, case, d, batch):
        matrix, decoder, _, _ = case
        assume(d <= matrix.num_items)
        with _batch_size(batch):
            got = sim.exhaustive_error_probability(matrix, decoder, d)
        assert decoder != "majority" or "_column_index" not in vars(matrix)
        errors = ref.exhaustive_errors(matrix, ref.PLANS[decoder](matrix), d)
        assert got == Fraction(errors, math.comb(matrix.num_items, d))


@st.composite
def oracle_cases(draw):
    """(matrix, prior, sigma) within the MAP oracle's caps: n <= 10 and
    T <= 12, with empty rows, no rows at all and items in no test."""
    n = draw(st.integers(1, 10))
    rows = draw(st.lists(st.sets(st.integers(0, n - 1), max_size=n), max_size=12))
    kind = draw(st.sampled_from([PRIOR_UNIFORM_EXACT, PRIOR_IID_BERNOULLI]))
    prior = Prior(kind, draw(st.integers(0, n)))
    sigma = draw(st.sampled_from([0.0, 0.05, 0.2, 0.45]))
    return TestMatrix(rows=[sorted(r) for r in rows], num_items=n), prior, sigma


class TestBayesOracleAgreesWithTheBitmaskLoop:
    @given(oracle_cases())
    @example((TestMatrix(rows=[], num_items=3), Prior(PRIOR_UNIFORM_EXACT, 0), 0.2))
    @example((TestMatrix(rows=[(), (0, 9)], num_items=10), Prior(PRIOR_IID_BERNOULLI, 10), 0.45))
    @settings(max_examples=150, deadline=None)
    def test_same_error_float_for_float(self, case):
        matrix, prior, sigma = case
        assert sim.bayes_optimal_error(matrix, sigma, prior) == ref.bayes_optimal_error(
            matrix, sigma, prior)


# ---------------------------------------------------------------------------
# the harness's replica of the contract's noiseless uniform draws
# ---------------------------------------------------------------------------


def _states(seed, first, count):
    """The PCG64 states of trials ``first .. first + count - 1``."""
    return sim._pcg64_states(sim._trial_seeds(seed, first, count))


def _contract_draw(seed, trial, n, d):
    rng = np.random.default_rng(sim.derive_trial_seed(seed, trial))
    return np.sort(rng.choice(n, size=d, replace=False))


@st.composite
def floyd_cases(draw):
    """(n, d) where ``choice`` takes Floyd's branch, n < 2**32: often within
    a few of 2**31, where most bounded draws may be rejected, or a few above
    2**32 // k, where about (k - 1) / k of the last draws are."""
    n = draw(st.integers(1, 60) | st.integers(1, 2**32 - 1) | st.integers(2**31 - 4, 2**31)
             | st.builds(lambda k, e: 2**32 // k + e, st.integers(2, 5), st.integers(1, 8)))
    d = draw(st.integers(0, min(n, 12)))
    assume(sim._replica_covers(Prior(PRIOR_UNIFORM_EXACT, d), n, 0.0))
    return n, d


@st.composite
def tail_shuffle_cases(draw):
    """(n, d) where ``choice`` shuffles a tail: n > 10**4 and d > n // 50."""
    n = draw(st.integers(10_001, 40_000))
    return n, draw(st.integers(n // 50 + 1, n // 50 + 30))


class TestReplicaAgreesWithDefaultRng:
    @given(st.integers(0, 2**70), st.integers(0, 2**40), st.integers(1, 40), floyd_cases(),
           st.sampled_from([1, 3, 40]))
    @example(2**64 + 1, 0, 30, (2**31, 12), 3)
    @example(2**64 + 1, 0, 30, (2**31 + 2, 12), 3)
    @example(0, 0, 30, (12, 12), 40)
    @example(2**70, 7, 30, (1, 1), 1)
    @example(5, 0, 10, (7, 0), 3)
    @settings(max_examples=200, deadline=None)
    def test_same_sorted_sets(self, seed, first, count, case, batch):
        """Every unflagged trial is the contract's draw; after the redraw of
        the flagged ones from their states, every trial is."""
        n, d = case
        want = np.array([_contract_draw(seed, t, n, d) for t in range(first, first + count)],
                        dtype=np.int64).reshape(count, d)
        picks, flagged = sim._floyd_draws(_states(seed, first, count), n, d)
        assert picks.dtype == np.int64 and flagged.shape == (count,)
        assert np.array_equal(picks[~flagged], want[~flagged])
        batches = list(sim._trial_batches(n, 0, Prior(PRIOR_UNIFORM_EXACT, d), 0.0, seed,
                                          first, count, batch))
        assert [b[2] for b in batches] == [min(batch, count - lo) for lo in range(0, count, batch)]
        assert all(b[3] is None for b in batches)
        got = np.concatenate([items.reshape(num, d) for _, items, num, _ in batches])
        assert np.array_equal(got, want)

    @given(st.integers(0, 2**70), st.integers(0, 2**40), st.integers(1, 6),
           floyd_cases() | tail_shuffle_cases(), st.integers(0, 40))
    @example(2**64 + 1, 0, 3, (2**31, 12), 5)
    @example(2**70, 2**40, 2, (20_000, 401), 3)
    @settings(max_examples=150, deadline=None)
    def test_generators_set_from_states(self, seed, first, count, case, doubles):
        """A reused generator set to each trial's replica state draws the
        contract's ``choice`` and then its doubles, on both branches of
        ``choice``."""
        n, d = case
        rngs = sim._trial_generators(seed, first, _states(seed, first, count), range(count))
        for t, rng in enumerate(rngs, start=first):
            want = sim._trial_rng(seed, t)
            assert np.array_equal(rng.choice(n, d, replace=False),
                                  want.choice(n, d, replace=False))
            assert np.array_equal(rng.random(doubles), want.random(doubles))
        assert t == first + count - 1

    def test_flagged_trials_are_drawn_from_their_chunk_states(self):
        """Near n = 2**31 most trials are flagged; their redraws come from the
        chunk's states, not from seeding a ``default_rng``."""
        n, d, count = 2**31 - 1, 2, 30
        assert sim._replica_matches()
        flagged = sim._floyd_draws(_states(42, 0, count), n, d)[1]
        assert flagged.sum() >= count // 2
        want = np.array([_contract_draw(42, t, n, d) for t in range(count)])
        with mock.patch.object(sim, "_trial_rng", side_effect=AssertionError):
            batches = list(sim._trial_batches(n, 0, Prior(PRIOR_UNIFORM_EXACT, d), 0.0, 42,
                                              0, count, 7))
        got = np.concatenate([items.reshape(num, d) for _, items, num, _ in batches])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    def test_seed_layer(self, seed):
        """SeedSequence words and the PCG64 state and increment."""
        seeds = np.array([seed], dtype=np.uint64)
        words = [int(w[0]) for w in sim._seed_sequence_words(seeds)]
        assert words == np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist()
        hi, lo, inc_hi, inc_lo = (int(v[0]) for v in sim._pcg64_states(seeds))
        state = np.random.PCG64(seed).state["state"]
        assert (hi << 64 | lo, inc_hi << 64 | inc_lo) == (state["state"], state["inc"])

    def test_trial_seeds(self):
        for seed in (0, 42, 2**64 - 1, 2**64 + 5, 2**70 + 3):
            got = sim._trial_seeds(seed, 1000, 50).tolist()
            assert got == [sim.derive_trial_seed(seed, t) for t in range(1000, 1050)]

    @pytest.mark.parametrize("n, d", [(10_000, 10_000), (10_001, 200), (10_001, 201),
                                      (10**5, 2000), (10**5, 2001)])
    def test_covers_exactly_the_floyd_branch(self, n, d):
        """Beyond n = 10**4, ``choice`` samples d > n // 50 items by a tail
        shuffle, which the replica does not reproduce."""
        covered = sim._replica_covers(Prior(PRIOR_UNIFORM_EXACT, d), n, 0.0)
        picks, flagged = sim._floyd_draws(_states(3, 0, 4), n, d)
        same = [np.array_equal(picks[t], _contract_draw(3, t, n, d))
                for t in range(4) if not flagged[t]]
        assert same and covered == all(same)

    def test_check_passes_on_this_numpy(self):
        assert sim._replica_matches()
