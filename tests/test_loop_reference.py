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
from sparsegt import core, decoders, designs, sim
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
    permuted_block_rho_design,
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

    @given(st.text(alphabet="0123 -\n#x=\t\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\u2028\u2029\ufeff+",
                   max_size=60),
           st.sampled_from([1, 2, 3, 7, 2**18]))
    @settings(max_examples=300, deadline=None)
    def test_same_outcome_on_digit_soup(self, text, chunk):
        """Line ends of every kind ``str.splitlines`` reads, and other
        whitespace, with chunks of ``chunk`` characters at least: at a few
        characters every line ends a chunk."""
        with mock.patch.object(core, "_PARSE_CHUNK_CHARS", chunk):
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


# ---------------------------------------------------------------------------
# design file writer
# ---------------------------------------------------------------------------

# one, two and three 4-digit groups, on both sides of each group boundary
_EDGE_TOKENS = [0, 1, 9, 10, 999, 9_999, 10**4, 10**4 + 1, 10**8 - 1, 10**8, 2**31 - 2,
                2**31 - 1]


@st.composite
def csr_matrices(draw):
    """Matrices from CSR arrays with indices anywhere in [0, n), empty rows
    and no rows, and header fields."""
    n = draw(st.sampled_from([1, 9_999, 10**4, 10**8, 2**31 - 1, 2**31]) | st.integers(1, 2**31))
    item = (st.sampled_from([t for t in _EDGE_TOKENS if t < n]) | st.integers(0, min(20, n - 1))
            | st.integers(0, n - 1))
    rows = draw(st.lists(st.lists(item, max_size=10), max_size=8))
    limit = st.none() | st.integers(1, 10**9)
    return TestMatrix.from_csr(
        core._offsets([len(row) for row in rows]),
        np.array([i for row in rows for i in row], dtype=np.int64),
        num_items=n,
        col_limit=draw(limit),
        row_limit=draw(limit),
        design_tag=draw(st.sampled_from(sorted(core.DESIGN_TAGS))),
        block_starts=draw(st.none() | st.lists(st.integers(0, n - 1), min_size=1, max_size=3)),
        base_tag=draw(st.none() | st.just(TAG_CUSTOM)),
        repeat_k=draw(st.integers(1, 3)),
    )


class TestColumnIndexAgreesWithTheLoop:
    @given(raw_matrices(in_range=True), st.sampled_from([1, 2, 3, 16, 2**18]),
           st.sampled_from([1, 2, 5, 2**16]), st.sampled_from([2**32, 40, 0]))
    @example(TestMatrix(rows=[], num_items=5), 1, 1, 2**32)
    # 300 tests of one item each: 16-bit test numbers, a row block past 8 bits
    @example(TestMatrix.from_csr(np.arange(301), np.arange(300) % 7, 7), 16, 2**16, 2**32)
    @settings(max_examples=300, deadline=None)
    def test_same_index(self, matrix, per_range, per_block, narrow_keys):
        """Item ranges of ``per_range`` incidences and row blocks of
        ``per_block``: many of each, items heavier than a range, rows
        longer than a block, rows in any order and repeating an item, empty
        rows and untested items. Keys past ``narrow_keys`` take 64 bits, as
        past 2**32 where n nears 2**31: all of them at 0, and at 40 some
        blocks' or ranges' keys but not others'."""

        def key_dtype(num_items, shift):
            return np.uint32 if num_items << shift <= narrow_keys else np.uint64

        with mock.patch.object(core, "_INDEX_RANGE", per_range), \
                mock.patch.object(core, "_INDEX_BLOCK", per_block), \
                mock.patch.object(core, "_key_dtype", key_dtype):
            col_indptr, tests = matrix.column_index()
        want_indptr, want_tests = ref.column_index(matrix)
        assert np.array_equal(col_indptr, want_indptr)
        assert np.array_equal(tests, want_tests)
        assert tests.dtype == np.min_scalar_type(max(matrix.num_tests - 1, 0))


class TestDesignFileWriterAgreesWithTheFormatLoop:
    @given(csr_matrices(), st.sampled_from([1, 2, 3, 7, 2**14]))
    @example(TestMatrix.from_csr(np.array([0]), np.array([], dtype=np.int64), 5), 1)
    @example(TestMatrix.from_csr(np.array([0, 0, 0]), np.array([], dtype=np.int64), 5), 1)
    # a row longer than the chunk budget: its weight 10**4 takes two groups
    @example(TestMatrix.from_csr(np.array([0, 1, 10**4 + 1, 10**4 + 2]),
                                 np.arange(10**4 + 2), 10**4 + 2), 2**14 // 4)
    @settings(max_examples=300, deadline=None)
    def test_same_bytes(self, matrix, chunk):
        """``chunk`` tokens per step; the rows of a small budget straddle
        every chunk boundary."""
        with mock.patch.object(core, "_SERIALIZE_CHUNK_TOKENS", chunk):
            assert serialize(matrix) == ref.serialize(matrix)

    @given(csr_matrices(), st.integers(0, 7), st.sampled_from([-(2**31), -1, 0, 1, 2**31 - 1]))
    @settings(max_examples=100, deadline=None)
    def test_refuses_an_index_outside_the_items(self, matrix, at, offset):
        """An index below 0 or at or past n, anywhere in the rows, is
        refused before anything is written, as ``column_weights`` refuses
        it; the format loop would write a file that ``parse`` refuses."""
        indices = matrix.indices.astype(np.int64)
        bad = offset if offset < 0 else matrix.num_items + offset
        assume(bad < 2**31)
        indices = np.insert(indices, min(at, indices.size), bad)
        indptr = matrix.indptr.copy()
        if indptr.size == 1:
            indptr = np.array([0, 0])
        indptr[-1] += 1
        bad_matrix = TestMatrix.from_csr(indptr, indices, matrix.num_items)
        with pytest.raises(InvalidParameterError) as refused:
            serialize(bad_matrix)
        with pytest.raises(InvalidParameterError) as counted:
            bad_matrix.column_weights()
        assert str(refused.value) == str(counted.value)
        with pytest.raises(ParseError):
            parse(ref.serialize(bad_matrix))


# each header field's key, in the order a design file's header writes them
_HEADER_KEYS = {"col_limit": "gamma", "row_limit": "rho", "design_tag": "tag", "repeat_k": "k",
                "base_tag": "base", "block_starts": "blocks"}
# values on both sides of each rule: counts from 1 and below it, floats
# (integral ones too) and bools; design tags and unknown ones
_COUNTS = st.sampled_from([1, 2, 10**9, 0, -1, -(2**40), 1.5, 2.0, True, False]) | st.integers(-3, 5)
_TAGS = st.sampled_from(sorted(core.DESIGN_TAGS)) | st.sampled_from(["bogus", "Hypergrid", ""])
_OFFSETS = st.lists(st.integers(-2, 9) | st.sampled_from([1.5, 2.0, True]), max_size=3)


@st.composite
def header_cases(draw):
    """(n, rows, header fields) for the constructor: n up to past 2**31 and
    each field left out or drawn on either side of its rule; block offsets
    well formed or not."""
    n = draw(st.sampled_from([7, 2**31, 2**31 + 1, 10**12]) | _COUNTS)
    values = {"col_limit": _COUNTS, "row_limit": _COUNTS, "design_tag": _TAGS,
              "repeat_k": _COUNTS, "base_tag": _TAGS,
              "block_starts": _OFFSETS.map(lambda s: [0, *s]) | _OFFSETS}
    fields = {field: draw(values[field]) for field in _HEADER_KEYS if draw(st.booleans())}
    return n, [[0]] * draw(st.integers(0, 2)), fields


def _header_text(num_tests, n, fields):
    """The header line of a design of these values, every field given written."""
    def text(value):
        return ",".join(map(str, value)) if isinstance(value, list) else str(value)

    return " ".join([str(num_tests), text(n), *(f"{key}={text(fields[field])}"
                                                for field, key in _HEADER_KEYS.items()
                                                if field in fields)]) + "\n"


class TestTheConstructorRefusesWhatParseRefuses:
    @given(header_cases())
    @example((4, [], {"base_tag": "bogus"}))
    @example((4, [[0]], {"col_limit": 0}))
    @example((4, [], {"row_limit": -2}))
    @example((4, [], {"col_limit": 1.5}))
    @example((3.5, [[0]], {}))
    @example((4, [], {"repeat_k": True, "block_starts": [0, 1.5]}))
    @example((4, [], {"block_starts": []}))
    @example((2**31, [[0], [0]], {"col_limit": 1, "block_starts": []}))
    @settings(max_examples=400, deadline=None)
    def test_refused_with_the_message_of_parse_or_read_back(self, case):
        """The constructor refuses a header value with the message parse
        gives for the header that writes it, or builds a matrix that parse
        reads back from that header and from its own file, unless its
        block offsets are malformed, which it keeps for validate."""
        n, rows, fields = case
        text = _header_text(len(rows), n, fields) + "1 0\n" * len(rows)
        try:
            matrix = TestMatrix(rows=rows, num_items=n, **fields)
        except InvalidParameterError as refused:
            with pytest.raises(ParseError) as parsed:
                parse(text)
            assert str(parsed.value) == f"line 1: {refused}"
            return
        starts = fields.get("block_starts", [0])
        if starts and starts[0] == 0 and starts == sorted(set(starts)) and starts[-1] < n:
            assert parse(text) == matrix
            assert parse(serialize(matrix)) == matrix
        else:
            assert any(v.kind == "block-structure" for v in validate(matrix))


def _parse_reading_lines(text):
    """``parse(text)`` (or its error) and whether the per-line reader ran."""
    with mock.patch.object(core, "_read_rows", wraps=core._read_rows) as reader:
        result = _outcome(parse, text)
    return result, reader.called


# valid text the C pass refuses both as it stands and as content lines: the
# per-line reader must accept it
_UNUSUAL_VALID_TEXTS = {
    "plus sign": "2 3\n1 +2\n0\n",
    "underscore": "1 30\n1 1_0\n",
    "arabic-indic digit": "1 5\n1 ٣\n",
    "full-width digit": "1 5\n1 \uff14\n",
    "tab": "1 5\n2\t1 3\n",
    "tabs and spaces": "2 5\n2 \t 1\t\t3\n1\t4\n",
    "double space": "1 5\n2  1 3\n",
}

# valid text the C pass reads, as it stands or as content lines: the
# per-line reader must not run. str.splitlines ends a line at \r and \x0c
# too, and each line is stripped
_PLAIN_VALID_TEXTS = {
    "leading zeros": "2 10\n2 007 8\n1 0000000000000000000000009\n",
    "lone 0 rows": "3 5\n0\n1 2\n0\n",
    "largest index": f"1 {2**31}\n2 0 2147483647\n",
    "no final newline": "2 5\n2 1 3\n1 4",
    "comments and blank lines before the header": "# design\n\n  \t\n# T n\n2 5\n2 1 3\n0\n",
    "header only": "0 5\n",
    "header without a newline": "0 5",
    "CRLF line endings": "2 5\r\n2 1 3\r\n0\r\n",
    "CRLF without a final line end": "2 5\r\n2 1 3\r\n0\r",
    "comments between rows": "# design\n2 5\n1 1\n# note 1 2\n# \xe9\n2 0 4\n# end",
    "CRLF and comments": "2 5\r\n# a\r\n1 1\r\n#\r\n2 0 4\r\n# end\r\n",
    "no rows": "0 5\n# nothing\n",
    "form feed between rows": "2 5\n1 1\x0c1 3\n",
    "form feed at a line end": "2 5\n1 1\x0c\n1 3\n",
    "leading and trailing spaces": "2 5\n  2 1 3  \n 1 4\n",
    "lone carriage returns": "2 5\r2 1 3\r1 4\r",
    "comments and blank lines between rows": "# design\n2 5\n\n1 1\n# note\n\n   \n2 0 4\n# end\n",
    "indented comment": "2 5\n1 1\n  # note\n2 0 4\n",
    "comment holding a form feed": "2 5\n1 1\n# note\x0c2 0 4\n",
    "comment holding a line separator": "2 5\n1 1\n# note\u20282 0 4\n",
    "comment holding a lone carriage return": "2 5\r\n1 1\r\n# note\r2 0 4\r\n",
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
    # a comment ends at any line end str.splitlines reads, so a row follows
    # it, and one row too many
    "row after a form feed in a comment": "2 5\n1 1\n# note\x0c2 0 4\n1 3\n",
    "row after a line separator in a comment": "2 5\n1 1\n# note\u20282 0 4\n1 3\n",
    "row after a lone CR in a comment": "2 5\r\n1 1\r\n# note\r2 0 4\r\n1 3\r\n",
}


class TestParseAgreesOnUnusualText:
    """The chunked C conversion and the per-line reader accept the same
    rows and raise the same error as the line-by-line reference."""

    @pytest.mark.parametrize("text", _UNUSUAL_VALID_TEXTS.values(), ids=list(_UNUSUAL_VALID_TEXTS))
    def test_valid_text_the_c_pass_refuses(self, text):
        result, per_line = _parse_reading_lines(text)
        assert isinstance(result, TestMatrix)
        assert result == ref.parse(text)
        assert per_line

    @pytest.mark.parametrize("text", _PLAIN_VALID_TEXTS.values(), ids=list(_PLAIN_VALID_TEXTS))
    def test_valid_text_the_c_pass_reads(self, text):
        # at 1 character a chunk, each chunk ends at the next "\n"
        for chunk in (1, 2**18):
            with mock.patch.object(core, "_PARSE_CHUNK_CHARS", chunk):
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


def _parse_by_lines(text):
    """``parse(text)`` (or its error) with the C pass refusing every chunk:
    the rows come from ``_content_lines`` and ``_read_rows``."""
    with mock.patch.object(core, "_checked_rows", return_value=None):
        return _outcome(parse, text)


# design files of 3 rows over 9 items, each valid except where it says
_ROWS = "2 1 5\n0\n3 0 2 7\n"
_TEXTS = {
    "plain": "3 9\n" + _ROWS,
    "tab": "3 9\n2\t1 5\n0\n3 0 2 7\n",
    "CRLF": "3 9\r\n" + _ROWS.replace("\n", "\r\n"),
    "CRLF in the body": "3 9\n" + _ROWS.replace("\n", "\r\n"),
    "double space": "3 9\n2 1  5\n0\n3 0 2 7\n",
    "leading space": "3 9\n2 1 5\n0\n 3 0 2 7\n",
    "trailing space": "3 9\n2 1 5 \n0\n3 0 2 7\n",
    "blank line between rows": "3 9\n2 1 5\n\n0\n3 0 2 7\n",
    "comment between rows": "3 9\n2 1 5\n# note\n0\n3 0 2 7\n",
    "plus sign": "3 9\n2 1 +5\n0\n3 0 2 7\n",
    "underscore": "3 9\n2 0_1 5\n0\n3 0 2 7\n",
    "arabic-indic digit": "3 9\n2 1 ٣\n0\n3 0 2 7\n",
    "no final newline": "3 9\n" + _ROWS[:-1],
    "trailing blank lines": "3 9\n" + _ROWS + "\n\n",
    "comments before the header": "# a design\n\n# T n\n3 9\n" + _ROWS,
    "token past int64 (error)": "3 9\n2 1 5\n0\n3 0 2 99999999999999999999\n",
    "weight past int64 (error)": "3 9\n2 1 5\n99999999999999999999\n3 0 2 7\n",
    "index n (error)": "3 9\n2 1 9\n0\n3 0 2 7\n",
    "falling indices (error)": "3 9\n2 1 5\n0\n3 0 7 2\n",
    "weight too large (error)": "3 9\n2 1 5\n1\n3 0 2 7\n",
    "missing row (error)": "3 9\n2 1 5\n0\n",
    "blank line for a row (error)": "3 9\n2 1 5\n\n3 0 2 7\n",
    "spaces for a row (error)": "3 9\n2 1 5\n  \n3 0 2 7\n",
    "extra row (error)": "3 9\n" + _ROWS + "0\n",
    "extra row after a comment (error)": "3 9\n" + _ROWS + "# more\n1 4\n",
}


class TestChunkedReaderAgreesWithThePerLineReader:
    """The chunked reader returns the rows that ``_content_lines`` and
    ``_read_rows`` return, and hands every body it cannot read to them, so
    each error keeps its line and message."""

    @given(csr_matrices(), st.sampled_from([1, 2, 5, 16, 64, 2**20]))
    @example(TestMatrix.from_csr(np.array([0]), np.array([], dtype=np.int64), 5), 1)
    @example(TestMatrix.from_csr(np.array([0, 0, 1, 1]), np.array([3]), 5), 2)
    @settings(max_examples=200, deadline=None)
    def test_round_trip_with_rows_across_chunks(self, matrix, chunk):
        """``chunk`` characters at least per chunk: at a few characters
        each chunk is one row, and rows of any length end chunks
        anywhere. The generated rows are sorted and deduplicated, and the
        block offsets made well formed, so that the file is valid."""
        rows = [sorted(set(row)) for row in matrix.rows]
        blocks = matrix.block_starts and sorted({0, *matrix.block_starts})
        matrix = TestMatrix(rows, matrix.num_items, matrix.col_limit, matrix.row_limit,
                            matrix.design_tag, blocks, matrix.base_tag, matrix.repeat_k)
        text = serialize(matrix)
        with mock.patch.object(core, "_PARSE_CHUNK_CHARS", chunk):
            result, per_line = _parse_reading_lines(text)
        assert result == matrix
        assert result.indices.dtype == np.int32
        assert not per_line

    @pytest.mark.parametrize("chunk", [1, 2**20])
    @pytest.mark.parametrize("name", _TEXTS)
    def test_same_rows_or_error(self, name, chunk):
        text = _TEXTS[name]
        with mock.patch.object(core, "_PARSE_CHUNK_CHARS", chunk):
            got = _outcome(parse, text)
        assert got == _parse_by_lines(text)
        assert isinstance(got, tuple) == name.endswith("(error)")


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
    """``decode_pairs`` on the positive pairs of a (trials, T) array agrees
    with the loop decoder on each row, and returns its pairs sorted."""
    trial, test = np.divmod(bits.reshape(-1).nonzero()[0], bits.shape[1])
    est_trial, est_item, amb_trial, amb_block = plan.decode_pairs(trial, test, len(bits), None)
    for row, row_bits in enumerate(bits):
        want_estimate, want_ambiguous = reference.decode_bits(row_bits)[:2]
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
        _, _, amb_trial, amb_block = plan.decode_pairs(
            *np.divmod(np.stack(refused).reshape(-1).nonzero()[0], num_tests), len(refused), None)
        assert amb_trial.tolist() == list(range(len(refused)))
        assert amb_block.tolist() == [0] * len(refused)
        est_trial, est_item, amb_trial, _ = plan.decode_pairs(
            *np.divmod(batches[0].reshape(-1).nonzero()[0], num_tests), 3, None)
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


@st.composite
def coma_columns(draw):
    """(T, the tests of each item): an empty set leaves the item untested,
    and the weights vary, so some items are lighter than the mean column
    weight rounded up and some heavier."""
    num_tests = draw(st.integers(1, 12))
    return num_tests, draw(st.lists(st.sets(st.integers(0, num_tests - 1)),
                                    min_size=1, max_size=20))


# the rate at which each kind of word sets a (trial, test) bit
_WORD_RATES = {"none": 0.0, "sparse": 0.02, "dense": 0.5, "all": 1.0}


class TestComaBatchAgreesWithTheCountingLoop:
    @given(st.integers(1, 30), st.lists(st.sets(st.integers(0, 29)), max_size=12),
           st.sampled_from([1, 2, 63, 64, 65, 128, 129, 130]),
           st.sampled_from([0.05, 0.3, 0.7]), st.integers(0, 2**32 - 1))
    # items 2 and 3 are in no test
    @example(4, [{0, 1}, {1}], 129, 0.3, 0)
    # every mask is nonzero, so the dense candidate stage decodes; items 0
    # and 1 (weight 5) are heavier than K = 3
    @example(12, [set(range(12)), set(range(0, 12, 2)), {0, 1, 5}, {0, 1, 9}, {0, 1},
                  {1, 2, 3, 4, 5}], 130, 0.7, 3)
    @settings(max_examples=200, deadline=None)
    def test_same_estimate_row_by_row(self, n, rows, num_trials, rate, seed):
        """A batch of one word, and of up to three with the last one
        partial: random rows at ``rate`` and, in every other trial, the
        outcome of two defectives; trial 0 has every test positive, and
        the trials at both ends of each word boundary and the last trial
        none. Items past the largest index in a row are in no test."""
        matrix = TestMatrix(rows=[sorted(i for i in row if i < n) for row in rows], num_items=n)
        rng = np.random.default_rng(seed)
        bits = rng.random((num_trials, matrix.num_tests)) < rate
        for row in bits[1::2]:
            row |= evaluate(matrix, DefectiveSet(rng.choice(n, min(n, 2), replace=False), n)).bits
        bits[63::64] = bits[64::64] = False
        if num_trials > 1:
            bits[-1] = False
        bits[0] = True
        _assert_same_batch_decoding(make_plan(matrix, "coma"), ref.ComaPlan(matrix), bits)

    @given(coma_columns(), st.lists(st.sampled_from(sorted(_WORD_RATES)), min_size=1, max_size=3),
           st.integers(0, 63), st.integers(0, 2**32 - 1))
    # untested, weight 1 and 2, and weight 6 > K = 3; a word where every
    # test fires, one where none does, and a random one
    @example((7, [set(), {0}, {1, 2}, {0, 1, 2, 3, 4, 5}, {2, 6}]), ["all", "none", "dense"], 5, 0)
    @example((3, [{0, 1, 2}, {2}]), ["all"], 0, 1)
    # every item of weight 1, so K = 1 and the sparse stage ANDs no table row
    @example((3, [{0}, {2}, {1}, {2}]), ["all", "dense"], 0, 2)
    # no item in any test
    @example((2, [set(), set(), set()]), ["dense", "none"], 7, 3)
    @settings(max_examples=200, deadline=None)
    def test_both_candidate_stages_agree(self, columns, kinds, short, seed):
        """The positive pairs of one to three words of trials, each of a
        kind in ``_WORD_RATES``, decode to the same pairs through the dense
        and the sparse candidate stage, whichever ``_dense_pays`` would
        select, and to the counting loop's estimate row by row. The last
        word holds 64 - ``short`` trials."""
        num_tests, tests = columns
        rows = [[i for i, col in enumerate(tests) if t in col] for t in range(num_tests)]
        matrix = TestMatrix(rows=rows, num_items=len(tests))
        rng = np.random.default_rng(seed)
        rates = np.repeat([_WORD_RATES[kind] for kind in kinds], 64)
        bits = rng.random((rates.size, num_tests)) < rates[:, None]
        num_trials = rates.size - short
        bits[num_trials:] = False
        trial, test = bits.nonzero()
        plan = make_plan(matrix, "coma")
        decoded = {}
        for dense in (True, False):
            with mock.patch.object(decoders, "_dense_pays", return_value=dense):
                decoded[dense] = plan.decode_pairs(trial, test, num_trials, None)
        for got, want in zip(decoded[True], decoded[False]):
            assert np.array_equal(got, want)
        est_trial, est_item = decoded[True][:2]
        reference = ref.ComaPlan(matrix)
        for row in range(num_trials):
            assert np.array_equal(est_item[est_trial == row], reference.decode_bits(bits[row])[0])

    @given(coma_columns(), st.sampled_from([1, 63, 64, 65, 130]), st.integers(0, 6),
           st.integers(0, 2**32 - 1))
    # items 0 and 1 share tests 0 and 1, so a trial holding both gathers
    # each of them twice; item 2 is untested, and item 3 (weight 4) is
    # heavier than K = 3
    @example((4, [{0, 1}, {0, 1}, set(), {0, 1, 2, 3}, {3}]), 130, 4, 0)
    @example((4, [{0, 1}, {0, 1}, set(), {0, 1, 2, 3}, {3}]), 0, 4, 0)  # no trials
    @example((2, [set(), set(), set()]), 65, 2, 1)  # no tested item
    @settings(max_examples=200, deadline=None)
    def test_both_fills_agree(self, columns, num_trials, d, seed):
        """A batch drawn under the iid prior (``d`` defectives expected, so
        some trials hold none and, at d = 0, all) decodes through
        ``decode_pairs`` from its gathered pairs to the same pairs by the
        scatter fill and the dense stage as by the sorted distinct pairs and
        the sparse stage, and to the counting loop's estimate row by row."""
        num_tests, tests = columns
        rows = [[i for i, col in enumerate(tests) if t in col] for t in range(num_tests)]
        matrix = TestMatrix(rows=rows, num_items=len(tests))
        n = matrix.num_items
        rng = np.random.default_rng(seed)
        prior = Prior(PRIOR_IID_BERNOULLI, min(d, n))
        picks = [sim._draw_defectives(rng, prior, n) for _ in range(num_trials)]
        trial = np.repeat(np.arange(num_trials), [p.size for p in picks]).astype(np.int64)
        items = np.concatenate([np.empty(0, dtype=np.int64), *picks])
        plan = make_plan(matrix, "coma")
        pairs = core._or_gather(plan.evaluated, trial, items)
        decoded = {}
        for dense in (True, False):
            with mock.patch.object(decoders, "_dense_pays", return_value=dense):
                decoded[dense] = plan.decode_pairs(*pairs, num_trials, None)
        for got, want in zip(decoded[True], decoded[False]):
            assert np.array_equal(got, want)
        est_trial, est_item = decoded[True][:2]
        assert np.all((0 <= est_trial) & (est_trial < num_trials))
        assert np.all(np.diff(est_trial * n + est_item) > 0)
        reference = ref.ComaPlan(matrix)
        for row, pick in enumerate(picks):
            bits = ref.evaluate(matrix, DefectiveSet(pick, n))
            assert np.array_equal(est_item[est_trial == row], reference.decode_bits(bits)[0])


def _wide_design(num_tests: int, n: int = 1000) -> TestMatrix:
    """``num_tests`` tests of one or two random items each, over n items:
    about 1.5 T / n tests an item, many items heavier than the mean rounded
    up, so the COMA table leaves tests for ``_and_rest``."""
    rng = np.random.default_rng(num_tests)
    first = rng.integers(0, n, num_tests)
    other = (first + rng.integers(1, n, num_tests)) % n
    pair = rng.random(num_tests) < 0.5
    cells = np.stack([np.where(pair, np.minimum(first, other), first),
                      np.where(pair, np.maximum(first, other), -1)], axis=1).reshape(-1)
    return TestMatrix.from_csr(core._offsets(1 + pair), cells[cells >= 0], n)


def _row_outcome(matrix: TestMatrix, items) -> np.ndarray:
    """The OR channel's outcome of the defectives ``items``, read row by row
    off the CSR arrays, without the column index."""
    rows = np.repeat(np.arange(matrix.num_tests), matrix.row_weights())
    hit = rows[np.isin(matrix.indices, items)]
    return np.bincount(hit, minlength=matrix.num_tests) > 0


class TestWideTestNumbersDecodeAsTheLoop:
    """Designs of T = 40 000 tests (uint16 test numbers in the column
    index) and T = 70 000 (uint32). The dense stage's scatter index
    test * width and ``_and_rest``'s mask index test * words pass 16 bits
    here; each plan decodes as the counting loop does, on both candidate
    stages."""

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
    @pytest.mark.parametrize("num_tests", [40_000, 70_000])
    def test_coma(self, num_tests, dense):
        matrix = _wide_design(num_tests)
        n, num_trials = matrix.num_items, 130
        rng = np.random.default_rng(1)
        picks = [np.sort(rng.choice(n, 3, replace=False)) for _ in range(num_trials)]
        plan = make_plan(matrix, "coma")
        assert plan.tests.dtype == (np.uint16 if num_tests <= 2**16 else np.uint32)
        pairs = core._or_gather(plan.evaluated, np.repeat(np.arange(num_trials), 3),
                                np.concatenate(picks))
        with mock.patch.object(decoders, "_dense_pays", return_value=dense):
            est_trial, est_item, _, _ = plan.decode_pairs(*pairs, num_trials, None)
        reference = ref.ComaPlan(matrix)
        for row, pick in enumerate(picks):
            want = reference.decode_bits(_row_outcome(matrix, pick))[0]
            assert np.array_equal(est_item[est_trial == row], want)

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
    @pytest.mark.parametrize("num_tests", [40_000, 70_000])
    def test_majority(self, num_tests, dense):
        """Three copies of each test, each copy flipped with probability
        0.3, over 65 trials (two words)."""
        base = _wide_design(num_tests)
        matrix = designs.repeat_design(base, 3)
        n, num_trials = matrix.num_items, 65
        rng = np.random.default_rng(2)
        picks = [np.sort(rng.choice(n, 3, replace=False)) for _ in range(num_trials)]
        flips = np.empty((num_trials, matrix.num_tests), dtype=bool)
        for row in flips:
            np.less(rng.random(matrix.num_tests), 0.3, out=row)
        plan = make_plan(matrix, "majority")
        pairs = core._or_gather(plan.evaluated, np.repeat(np.arange(num_trials), 3),
                                np.concatenate(picks))
        with mock.patch.object(decoders, "_dense_pays", return_value=dense):
            est_trial, est_item, _, _ = plan.decode_pairs(*pairs, num_trials, flips)
        reference = ref.MajorityPlan(matrix)
        for row, pick in enumerate(picks):
            observed = np.repeat(_row_outcome(base, pick), 3) ^ flips[row]
            assert np.array_equal(est_item[est_trial == row], reference.decode_bits(observed)[0])


@st.composite
def pair_plans(draw):
    """(design, plan, loop reference) of every plan kind that
    ``decode_pairs`` serves: a hypergrid or binary block design, a COMA
    design, or a repeated COMA design (2 to 4 copies) read by majority vote
    without noise."""
    kind = draw(st.sampled_from(["block", "coma", "majority"]))
    if kind == "block":
        matrix, decoder = draw(block_designs())
        return matrix, make_plan(matrix, decoder), _REFERENCE_PLANS[decoder](matrix)
    num_tests, tests = draw(coma_columns())
    rows = [[i for i, col in enumerate(tests) if t in col] for t in range(num_tests)]
    matrix = TestMatrix(rows=rows, num_items=len(tests))
    if kind == "coma":
        return matrix, make_plan(matrix, "coma"), ref.ComaPlan(matrix)
    matrix = designs.repeat_design(matrix, draw(st.integers(2, 4)))
    return matrix, make_plan(matrix, "majority"), ref.MajorityPlan(matrix)


class TestDecodePairsTakesRawGatheredPairs:
    @given(pair_plans(), st.sampled_from([1, 2, 63, 64, 65, 130]), st.booleans(),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_shuffled_doubled_pairs_decode_as_sorted_distinct(self, case, num_trials, dense,
                                                              seed):
        """A batch of up to three defectives a trial, gathered from the
        matrix the plan evaluates, decodes the same from its pairs shuffled
        with every pair doubled as from its sorted distinct pairs, on the
        candidate stage ``dense`` for COMA and majority plans, and as the
        loop decoder reads each row."""
        matrix, plan, reference = case
        n, num_tests = plan.evaluated.num_items, plan.evaluated.num_tests
        rng = np.random.default_rng(seed)
        picks = [np.sort(rng.choice(n, min(n, int(rng.integers(0, 4))), replace=False))
                 for _ in range(num_trials)]
        trial = np.repeat(np.arange(num_trials), [p.size for p in picks])
        trial, test = core._or_gather(plan.evaluated, trial, np.concatenate(picks))
        distinct = core._or_pairs(trial, test, num_trials, num_tests)
        order = rng.permutation(2 * trial.size)
        doubled = (np.tile(trial, 2)[order], np.tile(test, 2)[order])
        with mock.patch.object(decoders, "_dense_pays", return_value=dense):
            want = plan.decode_pairs(*distinct, num_trials, None)
            got = plan.decode_pairs(*doubled, num_trials, None)
        for got_pairs, want_pairs in zip(got, want):
            assert np.array_equal(got_pairs, want_pairs)
        est_trial, est_item, amb_trial, amb_block = got
        for row, pick in enumerate(picks):
            bits = ref.evaluate(matrix, DefectiveSet(pick, n))
            want_estimate, want_ambiguous = reference.decode_bits(bits)[:2]
            assert np.array_equal(est_item[est_trial == row], want_estimate)
            assert amb_block[amb_trial == row].tolist() == want_ambiguous


# each COMA candidate stage, as what _dense_pays answers
_COMA_STAGES = {"dense": True, "pair": False}


@contextlib.contextmanager
def _coma_stage(stage):
    """Batches decoded, by the harness or a one-shot decoder, on one COMA
    candidate stage."""
    with mock.patch.object(decoders, "_dense_pays", return_value=_COMA_STAGES[stage]):
        yield


def _csr_design(num_tests, tests):
    """A ``from_csr`` design of items in the given tests (``coma_columns``)."""
    rows = [[i for i, col in enumerate(tests) if t in col] for t in range(num_tests)]
    return TestMatrix.from_csr(core._offsets([len(row) for row in rows]),
                               np.array([i for row in rows for i in row], dtype=np.int64),
                               len(tests))


@st.composite
def coma_designs(draw):
    """A small design of each family: random-gamma, permuted-rho, a
    hypergrid, a block hypergrid or binary block design (which the
    every-test-positive rule also reads), or a ``from_csr`` design with
    untested items, items of weight 1 and items heavier than K."""
    kind = draw(st.sampled_from(["random-gamma", "permuted-rho", "block", "csr"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random-gamma":
        n = draw(st.integers(2, 150))
        return random_gamma_design(n, draw(st.integers(1, min(n - 1, 4))),
                                   draw(st.integers(1, 5)), draw(st.floats(0.05, 0.45)), rng)
    if kind == "permuted-rho":
        n = draw(st.integers(2, 200))
        d = draw(st.integers(1, min(n - 1, 4)))
        return permuted_block_rho_design(n, d, draw(st.integers(1, min(30, (n - 1) // d))),
                                         0.5, rng)
    if kind == "block":
        return draw(block_designs())[0]
    return _csr_design(*draw(coma_columns()))


class TestComaStagesAgreeWithTheCountingLoop:
    @given(coma_designs(), st.sampled_from([1, 2, 63, 64, 65, 130]), st.integers(0, 2**32 - 1))
    # untested items, items of weight 1 beside K = 2, an item (weight 5)
    # heavier than K, and items 0 and 1 filed under one (first, second) pair
    @example(_csr_design(6, [{0, 1}, {0, 1}, set(), {2}, {0, 2, 3, 4, 5}, {3, 4}, set()]),
             65, 1)
    # every item of weight 1, so K = 1 and each pair is of one test
    @example(_csr_design(3, [{0}, {2}, {1}, {2}]), 64, 2)
    @settings(max_examples=150, deadline=None)
    def test_each_stage_decodes_as_the_loop(self, matrix, num_trials, seed):
        """A batch of up to three defectives a trial decodes to the same
        pairs on the dense and the pair stage, each row as the counting
        loop reads it; so do one outcome through ``coma_decode`` and, on
        the design repeated three times, one noisy outcome through
        ``majority_coma_decode``."""
        n = matrix.num_items
        rng = np.random.default_rng(seed)
        picks = [np.sort(rng.choice(n, min(n, int(rng.integers(0, 4))), replace=False))
                 for _ in range(num_trials)]
        trial = np.repeat(np.arange(num_trials), [p.size for p in picks])
        items = np.concatenate([np.empty(0, dtype=np.int64), *picks])
        reference = ref.ComaPlan(matrix)
        repeated = designs.repeat_design(matrix, 3)
        noisy = Outcomes(np.repeat(ref.evaluate(matrix, DefectiveSet(picks[0], n)), 3)
                         ^ (rng.random(repeated.num_tests) < 0.2), noisy=True)
        want_majority = ref.MajorityPlan(repeated).decode_bits(noisy.bits)[0]
        decoded = {}
        for stage in _COMA_STAGES:
            with _coma_stage(stage):
                plan = make_plan(matrix, "coma")
                decoded[stage] = plan.decode_pairs(*core._or_gather(plan.evaluated, trial, items),
                                                   num_trials, None)
                bits = ref.evaluate(matrix, DefectiveSet(picks[0], n))
                one = decoders.coma_decode(matrix, Outcomes(bits))
                majority = decoders.majority_coma_decode(repeated, noisy)
            assert list(one.estimate) == reference.decode_bits(bits)[0].tolist()
            assert list(majority.estimate) == want_majority.tolist()
        for got in decoded.values():
            for got_pairs, want_pairs in zip(got, decoded["dense"]):
                assert np.array_equal(got_pairs, want_pairs)
        est_trial, est_item = decoded["dense"][:2]
        for row, pick in enumerate(picks):
            bits = ref.evaluate(matrix, DefectiveSet(pick, n))
            assert np.array_equal(est_item[est_trial == row], reference.decode_bits(bits)[0])


def _assert_same_design(got: TestMatrix, want: TestMatrix) -> None:
    """Equal designs write the same file, so they are compared as one
    bool, ``got == want``: a diff of two large design files would take
    minutes. A failure names T, n and the first row that differs."""
    if got == want:
        return
    where = f"T={got.num_tests}, n={got.num_items}"
    if (got._metadata(), got.num_tests) != (want._metadata(), want.num_tests):
        pytest.fail(f"{where}: headers differ, {got._metadata()} against {want._metadata()} "
                    f"with T={want.num_tests}")
    row = next(t for t, (a, b) in enumerate(zip(got.rows, want.rows)) if a != b)
    pytest.fail(f"{where}: row {row} differs")


def test_a_design_difference_names_t_n_and_its_first_row():
    want = TestMatrix(rows=[(0, 1), (1,), (2,)], num_items=3)
    got = TestMatrix(rows=[(0, 1), (2,), (1,)], num_items=3)
    with pytest.raises(pytest.fail.Exception, match=r"^T=3, n=3: row 1 differs$"):
        _assert_same_design(got, want)
    with pytest.raises(pytest.fail.Exception, match=r"^T=3, n=3: headers differ"):
        _assert_same_design(want, TestMatrix(rows=want.rows, num_items=4))
    _assert_same_design(want, TestMatrix(rows=want.rows, num_items=3))


class TestBlockConstructorsAgreeWithLoops:
    @given(block_constructor_calls())
    @example(("block_hypergrid_design", (7, 3, 2, 0.5)))  # seven blocks of size 1
    @example(("block_binary_rho_design", (10, 1, 3, 0.9)))  # blocks of 2, 3, 2, 3
    @example(("hypergrid_design", (1, 3)))
    @settings(max_examples=300, deadline=None)
    def test_same_matrix_and_bytes(self, call):
        name, args = call
        got, want = getattr(designs, name)(*args), getattr(ref, name)(*args)
        _assert_same_design(got, want)


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
        _assert_same_design(got, want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @given(random_gamma_calls(), st.integers(0, 2**70), st.integers(1, 5), st.booleans())
    @example((2000, 1, 8, 0.4), 2**33 + 1, 1, False)  # 37 % redrawn, one group a piece
    @settings(max_examples=80, deadline=None)
    def test_any_piece_size_and_key_width(self, call, seed, piece, wide):
        """Pieces of a few groups, so that redraws straddle them, and 64-bit
        keys where 32 bits would hold them, change neither the bytes nor
        the generator's end state."""
        key_dtype = (lambda *_: np.uint64) if wide else designs._key_dtype
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        with mock.patch.object(designs, "_GROUP_PIECE", piece), \
                mock.patch.object(designs, "_key_dtype", key_dtype):
            got = random_gamma_design(*call, got_rng)
        want = ref.random_gamma_design(*call, want_rng)
        _assert_same_design(got, want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


@st.composite
def permuted_rho_calls(draw):
    """(n, d, rho, zeta) of a permuted-rho design, d * rho < n: rho often
    not dividing n, so each pass ends in a shorter test."""
    n = draw(st.integers(2, 400))
    rho = draw(st.integers(1, n - 1))
    d = draw(st.integers(1, max(1, (n - 1) // rho)))
    return n, d, rho, draw(st.floats(0.05, 3.0))


class TestPermutedRhoAgreesWithThePassLoop:
    @given(permuted_rho_calls(), st.integers(0, 2**70), st.integers(0, 3))
    @example((10, 1, 3, 0.5), 42, 0)  # passes of 3 + 3 + 3 + 1
    @example((1000, 10, 50, 0.5), 7, 1)
    @example((70_001, 1, 2, 0.5), 3, 0)  # T = 70 002: uint32 column tests
    @settings(max_examples=150, deadline=None)
    def test_same_bytes_and_generator_state(self, call, seed, skip):
        """``rng.permutation(n)`` per pass draws what an in-place shuffle of
        an int32 copy of the items draws. ``skip`` odd 32-bit draws first,
        so the call may start on the upper half of a buffered output."""
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for rng in (got_rng, want_rng):
            rng.integers(0, 5, size=skip)
        got = permuted_block_rho_design(*call, got_rng)
        want = ref.permuted_block_rho_design(*call, want_rng)
        _assert_same_design(got, want)
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


def _key_dtype(limit):
    """The documented dtype of a batch's keys below ``limit`` (trials times
    tests, blocks or items): int32 below 2**31, int64 at or above it."""
    return np.int32 if limit < 2**31 else np.int64


# a repeated design whose noisy runs the replica covers
_NOISY_MAJORITY = designs.repeat_design(hypergrid_design(36, 2), 5)

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

    @pytest.mark.parametrize("batch", [1, 64, 65, 130])
    @pytest.mark.parametrize("count", [63, 64, 65, 129])
    @pytest.mark.parametrize("run", ["coma", "coma-untested", "majority", "majority-noisy"])
    def test_same_counts_across_64_trial_words(self, run, count, batch):
        """COMA and majority plans check a word of 64 trials at once: trial
        counts and batches on both sides of one and two words, with partial
        words at a batch's end, and with items in no test."""
        base = designs.permuted_block_rho_design(60, 3, 6, 0.5, np.random.default_rng(5))
        matrix, decoder, d, sigma = {
            "coma": (base, "coma", 5, 0.0),
            "coma-untested": (TestMatrix.from_csr(base.indptr, base.indices, 62), "coma", 5, 0.0),
            "majority": (designs.repeat_design(base, 3), "majority", 6, 0.0),
            "majority-noisy": (designs.repeat_design(base, 3), "majority", 3, 0.2),
        }[run]
        prior = Prior(PRIOR_UNIFORM_EXACT, d)
        with _batch_size(batch):
            got = sim._run_trial_range(matrix, make_plan(matrix, decoder), prior, sigma,
                                       11, 5, count)
        want = ref.run_trial_range(matrix, ref.PLANS[decoder](matrix), prior, sigma, 11, 5,
                                   count)
        assert got == want
        assert want[0] > 0

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
    def test_or_pairs_are_the_positives_of_or_bits(self, case, num_trials, seed):
        """Distinct defectives per trial, in any order within it: both
        reductions of the same gathered pairs give the loop's outcomes."""
        matrix = case[0]
        n, num_tests = matrix.num_items, matrix.num_tests
        rng = np.random.default_rng(seed)
        picks = [rng.choice(n, int(rng.integers(0, min(n, 5) + 1)), replace=False)
                 for _ in range(num_trials)]
        trial = np.repeat(np.arange(num_trials), [p.size for p in picks])
        gathered = core._or_gather(matrix, trial, np.concatenate(picks).astype(np.int64))
        pair_trial, pair_test = core._or_pairs(*gathered, num_trials, num_tests)
        bits = core._or_bits(*gathered, num_trials, num_tests)
        dense = np.stack([ref.evaluate(matrix, DefectiveSet(p, n)) for p in picks])
        assert pair_trial.dtype == pair_test.dtype == _key_dtype(num_trials * num_tests)
        keys = pair_trial.astype(np.int64) * num_tests + pair_test
        assert np.all(np.diff(keys) > 0)
        for got, want in zip((pair_trial, pair_test), np.nonzero(bits)):
            assert np.array_equal(got, want)
        assert np.array_equal(bits, dense)
        assert dense.shape == (num_trials, num_tests)

    @given(harness_cases(), master_seeds, st.integers(0, 60), st.integers(0, 45))
    @example((_NOISY_MAJORITY, "majority", Prior(PRIOR_UNIFORM_EXACT, 3), 0.2), 2**64 + 9, 7, 45)
    @settings(max_examples=100, deadline=None)
    def test_same_counts_when_the_replica_check_fails(self, case, seed, start, count):
        """A NumPy whose streams differ from the replica gets every trial from
        its own ``default_rng``, noisy ones too."""
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

    @given(harness_cases(max_items=12), st.integers(0, 3),
           st.sampled_from([None, 1, 3, 4, 65, 130]))
    # 220 sets in batches of more than one word of 64, the last one partial
    @example((hypergrid_design(12, 2), "coma", None, 0.0), 3, 65)
    @example((designs.repeat_design(hypergrid_design(12, 2), 3), "majority", None, 0.0), 3, 130)
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
def bit_pairs(draw):
    """(rows, columns, (row, column) pairs): in any order, each pair possibly
    repeated, and none where there are no rows or no columns."""
    num_rows, num_cols = draw(st.integers(0, 5)), draw(st.integers(0, 70))
    if not num_rows * num_cols:
        return num_rows, num_cols, []
    pair = st.tuples(st.integers(0, num_rows - 1), st.integers(0, num_cols - 1))
    return num_rows, num_cols, draw(st.lists(pair, max_size=3 * num_rows * num_cols))


_PAIR_DTYPES = st.sampled_from([np.int32, np.int64, np.uint8, np.uint16, np.uint32])


class TestOrBitsAgreesWithTheLoop:
    @given(bit_pairs(), _PAIR_DTYPES, _PAIR_DTYPES)
    @example((3, 4, [(2, 3), (0, 1), (2, 3), (0, 0), (2, 3)]), np.int32, np.uint16)  # repeats
    @example((2, 3, []), np.int32, np.uint16)  # no pairs
    @example((3, 0, []), np.uint16, np.int32)  # no columns
    @example((0, 5, []), np.int32, np.uint8)  # no rows
    @settings(max_examples=200, deadline=None)
    def test_sets_the_bit_of_every_pair(self, case, row_dtype, col_dtype):
        """Each (row, column) pair's bit is set and no other, whatever the
        order, repeats and narrow dtypes of the pairs."""
        num_rows, num_cols, pairs = case
        row = np.array([r for r, _ in pairs], dtype=row_dtype)
        col = np.array([c for _, c in pairs], dtype=col_dtype)
        bits = core._or_bits(row, col, num_rows, num_cols)
        positive = set(pairs)
        want = [[(r, c) in positive for c in range(num_cols)] for r in range(num_rows)]
        assert bits.dtype == bool
        assert bits.shape == (num_rows, num_cols)
        assert bits.tolist() == want


# the most trials a harness batch holds (16 384), and the count of tests,
# blocks or items at which its keys reach 2**31
_MAX_BATCH = sim._BATCH_BYTES // sim._TRIAL_BYTES
_EDGE = 2**31 // _MAX_BATCH


def _column_evaluate(matrix):
    """``ref.evaluate`` on ``matrix``, read off the loop column index: the
    same bits, without a Python pass over all 2**19 or more rows a trial."""
    offsets, tests = ref.column_index(matrix)

    def evaluate(evaluated, defectives):
        assert evaluated is matrix
        bits = np.zeros(matrix.num_tests, dtype=bool)
        for i in defectives.items:
            bits[tests[offsets[i] : offsets[i + 1]]] = True
        return bits

    return evaluate


class TestBatchesAtThe31BitEdge:
    """Batches of 4096 trials on designs that put each key product below,
    at or past 2**31: trials x T (the OR keys), trials x blocks (the block
    decoder's run keys) and trials x n (the score's keys). The keys take
    the documented dtype and agree with the loop reference."""

    @pytest.mark.parametrize("num_tests", [_EDGE - 1, _EDGE, 2 * _EDGE + 1],
                             ids=["below", "at", "across"])
    def test_or_pairs(self, num_tests):
        """64 items, item i in tests i and T - 1 - i, so that the last
        trials' keys reach num_trials x T; every other test is empty."""
        n = 64
        test = np.stack([np.arange(n), num_tests - 1 - np.arange(n)], axis=1).reshape(-1)
        item = np.repeat(np.arange(n), 2)
        order = np.argsort(test, kind="stable")
        matrix = TestMatrix.from_csr(core._offsets(np.bincount(test, minlength=num_tests)),
                                     item[order], n)
        rng = np.random.default_rng(7)
        picks = [rng.choice(n, int(rng.integers(0, 4)), replace=False)
                 for _ in range(_MAX_BATCH)]
        trial = np.repeat(np.arange(_MAX_BATCH, dtype=np.int32), [p.size for p in picks])
        pair_trial, pair_test = core._or_pairs(
            *core._or_gather(matrix, trial, np.concatenate(picks)), _MAX_BATCH, num_tests)
        offsets, tests = ref.column_index(matrix)
        want = sorted({t * num_tests + int(x) for t, p in enumerate(picks) for i in p
                       for x in tests[offsets[i] : offsets[i + 1]]})
        assert pair_trial.dtype == pair_test.dtype == _key_dtype(_MAX_BATCH * num_tests)
        assert (pair_trial.astype(np.int64) * num_tests + pair_test).tolist() == want
        assert (want[-1] >= 2**31) == (num_tests > _EDGE)

    @pytest.mark.parametrize("width", [_EDGE - 1, _EDGE, _EDGE + 1])
    def test_last_key_of_a_full_batch(self, width):
        """Every key product is formed by ``_pair_keys``: the last pair of
        a full batch keeps its exact key on each side of the edge."""
        keys = core._pair_keys(np.array([0, _MAX_BATCH - 1], dtype=np.int32),
                               np.array([0, width - 1], dtype=np.uint32), _MAX_BATCH, width)
        assert keys.dtype == _key_dtype(_MAX_BATCH * width)
        assert keys.tolist() == [0, _MAX_BATCH * width - 1]

    @pytest.mark.parametrize("build, decoder, d", [
        # blocks of 3 items in 2 tests: every product below 2**31
        (lambda: block_binary_rho_design(_EDGE - 1, 60, 3, 0.5), "binary", 60),
        # every product past 2**31, by amounts that no power of two divides
        (lambda: block_binary_rho_design(3 * (_EDGE + 4099), 60, 3, 0.5), "binary", 60),
        # one grid of 10**6 items in 2000 tests: only trials x n past 2**31
        (lambda: hypergrid_design(10**6, 2), "hypergrid", 1),
    ], ids=["binary-below", "binary-across", "hypergrid-items-across"])
    def test_harness_counts(self, build, decoder, d):
        matrix = build()
        prior = Prior(PRIOR_UNIFORM_EXACT, d)
        with mock.patch.object(ref, "evaluate", _column_evaluate(matrix)):
            want = ref.run_trial_range(matrix, ref.PLANS[decoder](matrix), prior, 0.0, 5,
                                       0, _MAX_BATCH)
        with _batch_size(_MAX_BATCH), _draw_chunk(_MAX_BATCH), \
                mock.patch.object(sim, "_score_batch", wraps=sim._score_batch) as scored:
            got = sim._run_trial_range(matrix, make_plan(matrix, decoder), prior, 0.0, 5,
                                       0, _MAX_BATCH)
        assert [call.args[3] for call in scored.call_args_list] == [_MAX_BATCH]
        assert got == want


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


def _first_draws(seed, first, count, n, d):
    """Floyd's draws v_k = u_k * (j_k + 1) >> 32, with j_k = n - d + k and
    u_k the trial's first d 32-bit halves (low half first) of
    ``PCG64.random_raw``, before any rejection."""
    bound = np.arange(n - d, n, dtype=np.uint64) + 1
    draws = np.empty((count, d), dtype=np.int64)
    for row, t in enumerate(range(first, first + count)):
        raw = np.random.PCG64(sim.derive_trial_seed(seed, t)).random_raw((d + 1) // 2)
        halves = np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=1).reshape(-1)[:d]
        draws[row] = halves * bound >> 32
    return draws


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
    assume(sim._replica_covers(Prior(PRIOR_UNIFORM_EXACT, d), n))
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
    # 28 of the 30 rows repeat a draw; 8 draws are taken by an earlier step's j
    @example(0, 0, 30, (20, 10), 7)
    # 10 rows repeat a draw and 3 draws are taken by an earlier step's j;
    # 12 rows of distinct draws reach n - d
    @example(3, 0, 30, (30, 6), 40)
    @settings(max_examples=200, deadline=None)
    def test_same_sorted_sets(self, seed, first, count, case, batch):
        """Every unflagged trial is the contract's draw; after the redraw of
        the flagged ones from their states, every trial is."""
        n, d = case
        want = np.array([_contract_draw(seed, t, n, d) for t in range(first, first + count)],
                        dtype=np.int64).reshape(count, d)
        picks, flagged, _ = sim._floyd_draws(_states(seed, first, count), n, d)
        assert picks.dtype == np.int64 and flagged.shape == (count,)
        assert np.array_equal(picks[~flagged], want[~flagged])
        batches = list(sim._trial_batches(n, 0, Prior(PRIOR_UNIFORM_EXACT, d), 0.0, seed,
                                          first, count, batch))
        assert [b[2] for b in batches] == [min(batch, count - lo) for lo in range(0, count, batch)]
        assert all(b[3] is None for b in batches)
        got = np.concatenate([items.reshape(num, d) for _, items, num, _ in batches])
        assert np.array_equal(got, want)

    @given(st.integers(0, 2**70), st.integers(0, 2**40), st.integers(1, 40), floyd_cases())
    @example(0, 0, 30, (20, 10))
    @example(3, 0, 30, (30, 6))
    @settings(max_examples=100, deadline=None)
    def test_distinct_draws_are_the_set(self, seed, first, count, case):
        """An unflagged row of distinct draws is the contract's set, also
        where its draws reach n - d: no step keeps its j."""
        n, d = case
        draws = _first_draws(seed, first, count, n, d)
        flagged = sim._floyd_draws(_states(seed, first, count), n, d)[1]
        ranked = np.sort(draws, axis=1)
        for t, row in enumerate(ranked):
            if not flagged[t] and np.all(row[1:] != row[:-1]):
                assert np.array_equal(row, _contract_draw(seed, first + t, n, d))

    @pytest.mark.parametrize("seed, n, d, share", [(42, 10_000, 10, (0.003, 0.006)),
                                                   (7, 10_000, 10, (0.003, 0.006)),
                                                   (0, 20, 10, (0.9, 1.0)),
                                                   (3, 30, 6, (0.3, 0.6))])
    def test_only_rows_with_a_repeated_draw_are_replayed(self, seed, n, d, share):
        """Every other row is its own sorted set. On the desk case
        (10**4, 10) that leaves about 0.5 % of a chunk to replay."""
        count = sim._draw_chunk(d)
        replayed = []

        def replay(draws, n, d):
            replayed.append(draws)
            return real(draws, n, d)

        real = sim._floyd_replay
        with mock.patch.object(sim, "_floyd_replay", replay):
            picks = sim._floyd_draws(_states(seed, 0, count), n, d)[0]
        draws = _first_draws(seed, 0, count, n, d)
        ranked = np.sort(draws, axis=1)
        repeats = (ranked[:, 1:] == ranked[:, :-1]).any(axis=1)
        assert len(replayed) == 1 and np.array_equal(replayed[0], draws[repeats])
        assert np.array_equal(picks[~repeats], ranked[~repeats])
        low, high = share
        assert low <= repeats.mean() <= high

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

    @given(st.integers(0, 2**70), st.integers(0, 2**40), st.integers(1, 40), floyd_cases(),
           st.sampled_from([1, 3, 40]), st.sampled_from([1, 7, 64]))
    @example(2**64 + 1, 0, 30, (2**31 - 1, 2), 7, 5)
    @example(2**64 + 1, 0, 30, (2**31, 12), 3, 7)
    @example(7, 3, 30, (1000, 1), 7, 5)
    @example(0, 0, 20, (12, 12), 3, 5)
    @example(5, 0, 10, (7, 0), 3, 4)
    @settings(max_examples=150, deadline=None)
    def test_noisy_trials_draw_the_contracts_flips(self, seed, first, count, case, batch,
                                                    num_tests):
        """A covered noisy trial draws its noise from the state after
        ``choice`` that the replica computes, or, where flagged, after its own
        ``choice``: the sets and flips of a ``default_rng`` per trial, at
        d = 1 (no shuffle halves), d = 0 and d = n, and near n = 2**31, where
        most trials are flagged."""
        n, d = case
        draws, flips = np.empty(num_tests), np.empty(num_tests, dtype=bool)
        want_sets, want_flips = [], []
        for t in range(first, first + count):
            rng = sim._trial_rng(seed, t)
            want_sets.append(np.sort(rng.choice(n, d, replace=False)))
            core._noise_flips(0.3, rng, draws, flips)
            want_flips.append(flips.copy())
        got = [(items.reshape(num, d), noise.copy()) for _, items, num, noise in
               sim._trial_batches(n, num_tests, Prior(PRIOR_UNIFORM_EXACT, d), 0.3, seed,
                                  first, count, batch)]
        assert [len(sets) for sets, _ in got] == [min(batch, count - lo)
                                                  for lo in range(0, count, batch)]
        assert np.array_equal(np.concatenate([sets for sets, _ in got]),
                              np.reshape(want_sets, (count, d)))
        assert np.array_equal(np.concatenate([noise for _, noise in got]), want_flips)

    @pytest.mark.parametrize("n, d", [(2**31 - 1, 2), (1000, 10), (50, 1)])
    def test_unflagged_noisy_trials_never_call_choice(self, n, d):
        """A ``choice`` that raises unless its generator holds a flagged
        trial's seeded state: every other trial of a covered noisy run
        resumes after ``choice`` and draws only its noise."""
        count, num_tests = 40, 9
        flagged = sim._floyd_draws(_states(42, 0, count), n, d, jump=True)[1]
        hi, lo, *_ = (v[flagged].tolist() for v in _states(42, 0, count))
        seeded = {h << 64 | l for h, l in zip(hi, lo)}
        calls = []

        class FlaggedChoice(np.random.Generator):
            def choice(self, *args, **kwargs):
                assert self.bit_generator.state["state"]["state"] in seeded
                calls.append(args)
                return super().choice(*args, **kwargs)

        draws, flips = np.empty(num_tests), np.empty(num_tests, dtype=bool)
        want = []
        for t in range(count):
            rng = sim._trial_rng(42, t)
            rng.choice(n, d, replace=False)
            core._noise_flips(0.2, rng, draws, flips)
            want.append(flips.copy())
        assert sim._replica_matches()  # its cached check calls choice on every trial
        with mock.patch.object(np.random, "Generator", FlaggedChoice):
            got = [noise.copy() for *_, noise in sim._trial_batches(
                n, num_tests, Prior(PRIOR_UNIFORM_EXACT, d), 0.2, 42, 0, count, 16)]
        assert len(calls) == flagged.sum()
        assert np.array_equal(np.concatenate(got), want)

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

    @pytest.mark.parametrize("n, cap", [(1000, 85), (10_000, 115), (10**5, 165), (10**7, 165)])
    def test_covers_draws_up_to_its_cap(self, n, cap):
        """The replica reproduces ``cap`` draws; a run of one more is drawn
        by generators and never reaches it."""
        covered = [sim._replica_covers(Prior(PRIOR_UNIFORM_EXACT, d), n)
                   for d in (cap, cap + 1)]
        assert covered == [True, False]
        picks, flagged, _ = sim._floyd_draws(_states(3, 0, 4), n, cap)
        assert not flagged.all()
        for t in np.flatnonzero(~flagged).tolist():
            assert np.array_equal(picks[t], _contract_draw(3, t, n, cap))
        prior = Prior(PRIOR_UNIFORM_EXACT, cap + 1)
        assert sim._replica_matches()  # its cached check runs the replica once
        with mock.patch.object(sim, "_floyd_draws", side_effect=AssertionError):
            batches = list(sim._trial_batches(n, 0, prior, 0.0, 3, 0, 6, 4))
        got = np.concatenate([items.reshape(num, cap + 1) for _, items, num, _ in batches])
        assert np.array_equal(got, [_contract_draw(3, t, n, cap + 1) for t in range(6)])

    def test_cap_stays_on_floyds_branch(self):
        """Past 10**4 items ``choice`` shuffles a tail once d > n // 50; the
        cap stays below that, so the replica only ever replays Floyd."""
        for n in (10_001, 12_345, 20_000, 10**5, 10**6):
            assert sim._replica_cap(n) <= n // 50

    def test_check_refuses_a_wrong_replay_free_of_duplicates(self):
        """At d = n any replay free of duplicates gives the right set, so
        the check needs a case with d < n where most rows repeat a draw. A
        replay that takes the lowest free item in place of j fails it."""
        def lowest_free(draws, n, d):
            picks = draws.copy()
            for row in picks:
                for k in range(1, d):
                    if row[k] in row[:k]:
                        row[k] = min(set(range(n)) - set(row[:k].tolist()))
            picks.sort(axis=1)
            return picks

        sim._replica_matches.cache_clear()
        try:
            with mock.patch.object(sim, "_floyd_replay", lowest_free):
                assert not sim._replica_matches()
        finally:
            sim._replica_matches.cache_clear()
        assert sim._replica_matches()

    def test_check_passes_on_this_numpy(self):
        assert sim._replica_matches()
