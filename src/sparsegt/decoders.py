"""Decoders: recover the defective set from an outcome vector.

Every decoder returns a :class:`DecodeResult` whose estimate is always a
well-formed :class:`~sparsegt.core.DefectiveSet`; uncertainty is surfaced in
the status instead of being silently dropped. Three statuses exist:

* ``ok``: the decoder committed to its estimate;
* ``ambiguous``: some blocks held more than one defective (or an impossible
  pattern); those block indices are listed and their items are absent from
  the estimate;
* ``untestable``: some items appear in no test at all, so nothing can be
  learned about them; they are listed and conservatively included in the
  estimate.

Decoding work is split into reusable "plans" so the simulation harness can
prepare a matrix once and decode many outcome vectors through exactly the
same code path the one-shot functions use. A plan has one decode method,
``decode_pairs``, which decodes a batch of trials from the (trial, test)
pairs of their positive tests as the one OR gather
(:func:`~sparsegt.core._or_gather`) gives them: unsorted, and repeated where
two defectives of a trial share a test. The harness gathers each batch's
pairs itself and hands them to the plan; a one-shot decoder hands it the
positive tests of one outcome vector through ``decode_bits``. The pairs
are reduced one of two ways: block plans sort them into distinct pairs
(:func:`~sparsegt.core._or_pairs`), and a COMA plan reads test masks of 64
trials a word, packed from their bool rows
(:func:`~sparsegt.core._or_bits`) or filled from their distinct pairs,
whichever its candidate stage reads. Its work grows with the positives, and
for COMA with the tests positive in a word of 64 trials.

Both block designs (hypergrid and binary) are read by one rule, assuming at
most one defective per block. Each test carries a label weight: digit j on
grid axis a weighs j * base**a, and the test of binary label bit r weighs
2**r. Tests are laid out block by block, and a grid block's tests axis by
axis, so the sorted positives of a trial fall into one run per hit block,
and a grid block's run into one run per hit axis. A hit block decodes to
its first item plus the sum of its run's weights; the first item is the
block start for a grid (labels from 0) and one before it for a binary block
(labels from 1). The block is ambiguous when that item lies at or past the
block's end, or when its grid has other than exactly one positive test on
each axis: gamma positives over gamma distinct axes. The block plans refuse
a matrix whose block offsets :func:`~sparsegt.core.validate` reports as
malformed, so the blocks they read are contiguous, disjoint and in item
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DefectiveSet,
    IncompatibleDecoderError,
    InvalidParameterError,
    Outcomes,
    TAG_BLOCK_BINARY_RHO,
    TAG_BLOCK_HYPERGRID,
    TAG_HYPERGRID,
    TAG_REPEATED,
    TestMatrix,
    _adopt_csr,
    _broken_repeat_group,
    _copy_rows,
    _index_dtype,
    _key_pairs,
    _offsets,
    _or_bits,
    _or_pairs,
    _pair_keys,
    _ragged,
    _test_dtype,
    _well_formed_blocks,
)
from .designs import _grid_test_count, hypergrid_shape, tile_blocks

__all__ = [
    "STATUS_OK",
    "STATUS_AMBIGUOUS",
    "STATUS_UNTESTABLE",
    "DecodeResult",
    "coma_decode",
    "hypergrid_block_decode",
    "binary_block_decode",
    "majority_coma_decode",
    "decoder_for",
    "make_plan",
]

STATUS_OK = "ok"
STATUS_AMBIGUOUS = "ambiguous"
STATUS_UNTESTABLE = "untestable"


@dataclass(frozen=True)
class DecodeResult:
    estimate: DefectiveSet
    status: str
    ambiguous_blocks: tuple[int, ...] = ()
    untestable_items: tuple[int, ...] = ()


# ---------------------------------------------------------------------------
# decode plans
# ---------------------------------------------------------------------------


_NO_ITEMS = np.empty(0, dtype=np.int64)
# trials per uint64 test mask, and the mask bit of each
_WORD_SHIFT = 6
_WORD = 1 << _WORD_SHIFT
_BITS = np.uint64(1) << np.arange(_WORD, dtype=np.uint64)
_BYTE_BITS = np.uint8(1) << np.arange(8, dtype=np.uint8)
# the bytes of each (items, words) array of COMA's dense candidate stage:
# a slice that stays in a core's cache runs faster than a larger one
_DENSE_BYTES = 1 << 18
# keys per piece of the positions a COMA plan packs into its filing keys
_FILE_PIECE = 1 << 16
# the bool cells a COMA plan sets its pair filter's bits in before packing
_FILTER_CELLS = 1 << 19


class _Plan:
    """A decoder prepared for one matrix.

    ``decode_pairs(trial, test, num_trials, flips)`` decodes a batch of
    trials from the (trial, test) pairs of their positive tests, in any
    order and with repeats, under the channel's (trials, T) flips of the
    design's tests, or None when there is no noise; only majority plans
    read flips. The trials below ``num_trials`` come as the harness draws
    them (int32) and the tests in the column index's narrow unsigned dtype;
    the plan forms its keys and positions in ``core._index_dtype`` of
    their bound, int32 below 2**31. It returns the estimate as (trial,
    item) pairs, sorted by trial and then item, with the items of a trial
    distinct and in [0, n), and the ambiguous blocks as (trial, block)
    pairs in the same order; a one-row decode's items are int64.

    It has two callers. The harness gathers a batch's positives from the
    matrix ``evaluated`` (the design itself, or less where the plan needs
    less) with ``core._or_gather`` and hands them over with the flips.
    ``decode_bits`` decodes one dense outcome vector from its positive
    tests, and ``untested`` lists the items in no test. The harness sizes
    its batches by ``trial_bytes``, the bytes of arrays a batch keeps per
    trial besides its gathered pairs (a COMA plan's packed test masks,
    T / 8; block plans keep none), and in multiples of ``batch_step``
    trials (64, a word of masks, for COMA). A COMA batch on the dense stage
    briefly holds T bytes a trial, 8 times its ``trial_bytes``, as bool rows
    it packs into masks.
    """

    untested = _NO_ITEMS
    trial_bytes = 0.0
    batch_step = 1

    def __init__(self, matrix: TestMatrix):
        self.evaluated = matrix

    def decode_bits(self, bits: np.ndarray) -> tuple[np.ndarray, list[int], np.ndarray]:
        test = np.flatnonzero(bits)
        _, estimate, _, ambiguous = self.decode_pairs(np.zeros_like(test), test, 1, None)
        return estimate, ambiguous.tolist(), self.untested


class ComaPlan(_Plan):
    """Every-test-positive rule: an item is reported defective exactly when
    all of its tests are positive; untested items are vacuously included.

    It checks a word of 64 trials at once. A test's ``uint64`` mask in a
    word has bit b set when the test is positive in trial 64 * word + b, so
    the AND of an item's test masks holds the trials in which it passes.

    The plan files each tested item by its first and then its second test
    (``candidates``, in ``core._index_dtype(n)``, with ``group_ptr`` the
    int32 offsets of each first test's run, ``runs`` their lengths) and
    keeps one (K, items) ``table`` of the candidates' first K tests, K the
    mean column weight rounded up (at least 1): row k holds each
    candidate's test k, or its last test where it has no more. So row 0 is
    sorted, and row 1 within each run of row 0. A batch takes one of two
    candidate stages; both read the table, AND the remaining tests of their
    survivors with one ``bitwise_and.reduceat``, and give the same
    survivors.

    Dense: as with tests of rho items, where a trial makes up to a
    d * rho / n share of the tests positive, nearly every item has a
    positive first test in every word. For a slice of the candidates at a
    time the table's rows are ANDed as whole (items, words) rows of the
    (T, words) masks. Each slice's arrays stay within about
    ``_DENSE_BYTES`` whatever n is.

    Pair: an item passes only where its first and its second test are both
    positive, so a trial's candidates are the items filed under one of its
    (positive first test, positive second test) pairs: about d * d pairs on
    designs of tests of rho items, where the items filed under its positive
    tests number about d * rho. A candidate's second test is never below
    its first (it is its first where it has no other), so a trial pairs
    each positive test with its positive tests from that one on. The
    ``pair_index`` (:class:`_PairIndex`) drops most pairs that file no
    item; the others are matched in their run by a binary search of the
    table's second row (row 0 where K is 1), and the items found have
    their other rows checked trial by trial. The plan builds the index with
    its table, so a trial's work and memory grow with its positives, not n.

    ``decode_pairs`` picks the stage by :func:`_dense_pays` before it fills
    any mask, with the nonzero share the pairs would leave if they fell on
    the masks at random. For the dense stage it scatters them into a
    (T, 64 * words) bool array (``core._or_bits``) and packs that into the
    (T, words) masks, so repeated pairs need no sort; for the pair stage it
    sorts them into distinct pairs (``core._or_pairs``) and adds their bits
    into (T, words) masks. ``trial_bytes`` counts the masks, T / 8 bytes a
    trial; the dense fill's bool array takes T bytes a trial while the
    batch packs it.

    The plan keeps the column index and its ``candidates``, ``table``,
    ``group_ptr`` and ``runs``; the table takes the dtype of the index's
    tests (uint16 below 65 536 tests). On a design of items in 4 tests each
    the plan keeps 3 bytes per incidence and its pair index about 0.6
    more, and its build peaks at about 5 above the column index, which
    itself keeps 4 (int64 offsets and uint16 tests), and the int64 column
    weights, 2: in :func:`_filed_table`, as the index is built a piece at a
    time once the filing's scratch is freed. The narrow
    tests enter products only through ``core._pair_keys``, in int32 below
    2**31: the dense fill's scatter index in ``core._or_bits`` (then cast
    to intp, which fancy assignment runs fastest on) and the mask index of
    :meth:`_and_rest`.
    """

    kind = "coma"
    batch_step = _WORD

    def __init__(self, matrix: TestMatrix):
        super().__init__(matrix)
        self.num_items = matrix.num_items
        num_tests = matrix.num_tests
        self.col_indptr, self.tests = matrix.column_index()
        weight = matrix.column_weights()
        self.untested = np.flatnonzero(weight == 0)
        self.candidates, self.table = _filed_table(self.col_indptr, self.tests, weight)
        self.group_ptr = np.zeros(num_tests + 1, dtype=_index_dtype(self.candidates.size + 1))
        np.cumsum(np.bincount(self.table[0], minlength=num_tests), out=self.group_ptr[1:])
        self.runs = np.diff(self.group_ptr)
        # each candidate's second test, or its first where K is 1
        self.second = self.table[min(1, len(self.table) - 1)]
        self.pair_index = _PairIndex.of(self.table[0], self.second, self.runs)
        self.trial_bytes = num_tests / 8  # the test masks

    def decode_pairs(self, trial: np.ndarray, test: np.ndarray, num_trials: int,
                     flips: np.ndarray | None):
        num_tests = self.evaluated.num_tests
        words = -(-num_trials // _WORD)
        width = words * _WORD  # whole words of trials
        # the share of the (word, test) masks that the pairs would leave
        # nonzero if each fell on one of them at random
        share = -math.expm1(-_WORD * test.size / max(1, width * num_tests))
        if _dense_pays(self.table, share):
            # the bool array is freed once packed, so the batch peaks at
            # little more than the pairs and the bool array
            by_test = np.packbits(_or_bits(test, trial, num_tests, width), axis=1,
                                  bitorder="little").view("<u8")
            return self._estimate(*_passed(*self._dense_candidates(by_test)), num_trials)
        trial, test = _or_pairs(trial, test, num_trials, num_tests)
        masks = np.zeros(num_tests * words, dtype=np.uint64)
        # the pairs are now distinct, so adding their bits ORs them
        np.add.at(masks, _pair_keys(test, trial >> _WORD_SHIFT, num_tests, words),
                  np.take(_BITS, trial & (_WORD - 1)))
        pairs = self._pairs(trial, test, num_trials)
        return self._estimate(*self._pair_candidates(masks, words, *pairs), num_trials)

    def _estimate(self, trial: np.ndarray, item: np.ndarray, num_trials: int):
        """The (trial, item) estimate pairs of the (trial, item) pairs that
        passed, with the untested items in every trial, in int64."""
        trials, items = [_NO_ITEMS, trial], [_NO_ITEMS, item]
        if self.untested.size:
            trials.append(np.repeat(np.arange(num_trials), self.untested.size))
            items.append(np.tile(self.untested, num_trials))
        key = np.sort(np.concatenate(trials) * self.num_items + np.concatenate(items))
        return *_key_pairs(key, self.num_items), _NO_ITEMS, _NO_ITEMS

    def _pairs(self, trial: np.ndarray, test: np.ndarray, num_trials: int):
        """The pairs the pair stage reads, from a batch's sorted distinct
        positive pairs. A trial pairs each of its positive tests that files
        items (a first entry: its trial and test) with each of its positive
        tests from that one on that lies in the span of the second tests (a
        second entry: its test). Returns the first entries, the second
        entries and, pair by pair, the first and the second entry of each."""
        pairs = self.pair_index
        first = np.flatnonzero(np.take(self.runs, test))
        is_second = (test >= pairs.low) & (test <= pairs.high)
        second = np.flatnonzero(is_second)
        first_trial = trial[first]
        # a trial's tests are one sorted run, so its second entries from a
        # first entry's own position on are one run of them: from the second
        # entries before that position to those up to its trial's end
        start = np.cumsum(is_second, dtype=_index_dtype(test.size))
        start = np.take(start, first) - np.take(is_second, first)
        lengths = np.take(np.cumsum(np.bincount(trial[second], minlength=num_trials)),
                          first_trial) - start
        return (first_trial, test[first], test[second],
                np.repeat(np.arange(first.size, dtype=start.dtype), lengths),
                _ragged(start, lengths, second.size))

    def _pair_candidates(self, masks: np.ndarray, words: int, first_trial: np.ndarray,
                         first_test: np.ndarray, second_test: np.ndarray, owner: np.ndarray,
                         at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (trial, item) pairs that pass, from the items filed under
        each pair of ``_pairs``, with the flat (T, words) masks."""
        num_tests, pairs = self.evaluated.num_tests, self.pair_index
        # each pair's filter byte: its first test's row, and the byte of its
        # second test's bucket in it
        bucket = pairs.buckets(second_test)
        byte = np.take(pairs.row_bytes(first_test), owner)
        byte += np.take(bucket >> 3, at)
        keep = np.flatnonzero(np.take(pairs.filter, byte)
                              & np.take(np.take(_BYTE_BITS, bucket & 7), at))
        owner = np.take(owner, keep)
        trial, first = np.take(first_trial, owner), np.take(first_test, owner)
        second = np.take(second_test, np.take(at, keep))
        row = self.second
        start, end = np.take(self.group_ptr, first), np.take(self.group_ptr, first + 1)
        slot = _lower_bound(row, start, end - start, second, pairs.depth)
        keep = np.flatnonzero((slot < end) & (np.take(row, slot, mode="clip") == second))
        trial, second, slot, end = trial[keep], second[keep], slot[keep], end[keep]
        # the few pairs that file more than one item take them all
        more = np.flatnonzero((slot + 1 < end)
                              & (np.take(row, slot + 1, mode="clip") == second))
        if more.size:
            count = np.ones(slot.size, dtype=slot.dtype)
            start = slot[more]
            count[more] = _lower_bound(row, start, end[more] - start, second[more] + 1,
                                       pairs.depth) - start
            trial = np.repeat(trial, count)
            slot = _ragged(slot, count, self.candidates.size)
        word = trial >> _WORD_SHIFT
        hit = np.take(_BITS, trial & (_WORD - 1))
        # most of the items found pass, so they are dropped once, at the end
        for row in self.table[2:]:
            hit &= np.take(masks, _pair_keys(np.take(row, slot), word, num_tests, words))
        item = np.take(self.candidates, slot)
        self._and_rest(masks, word, words, item, hit)
        keep = np.flatnonzero(hit != 0)
        return trial[keep], item[keep]

    def _dense_candidates(self, by_test: np.ndarray):
        """(first trial of the word, item, mask of the trials it passes) of
        the tested items, from whole rows of the (T, words) masks at the
        table's tests, for a slice of the candidates at a time; items that
        pass no trial of a word are left out."""
        words = by_test.shape[1]
        step = max(1, _DENSE_BYTES // (8 * max(1, words)))
        found = [(_NO_ITEMS, _NO_ITEMS, _BITS[:0])]
        hits, gathered = np.empty((2, min(step, self.candidates.size), words), dtype=np.uint64)
        for lo in range(0, self.candidates.size, step):
            rows = self.table[:, lo : lo + step]
            # the tests are in range, and "clip" takes straight into out
            hit = np.take(by_test, rows[0], axis=0, out=hits[: rows.shape[1]], mode="clip")
            for test in rows[1:]:
                hit &= np.take(by_test, test, axis=0, out=gathered[: test.size], mode="clip")
            flat = hit.reshape(-1)
            at = np.flatnonzero(flat != 0)  # far faster than on the uint64s
            hit = flat[at]
            at, word = lo + at // words, at % words
            item = self.candidates[at]
            self._and_rest(by_test.reshape(-1), word, words, item, hit)
            found.append((word * _WORD, item, hit))
        return tuple(map(np.concatenate, zip(*found)))

    def _and_rest(self, masks: np.ndarray, offset, stride: int, item: np.ndarray,
                  hit: np.ndarray) -> None:
        """AND into ``hit`` the masks of each item's tests past its first K
        (the table's rows), one run per item that has them, where an item's
        mask of test t is ``masks[offset + stride * t]`` (``offset`` one
        per item)."""
        starts = np.take(self.col_indptr, item) + len(self.table)
        ends = np.take(self.col_indptr, item + 1)
        more = np.flatnonzero(ends > starts)
        if more.size:
            lengths = ends[more] - starts[more]
            test = np.take(self.tests, _ragged(starts[more], lengths, self.tests.size))
            at = _pair_keys(test, np.repeat(offset[more], lengths),
                            self.evaluated.num_tests, stride)
            hit[more] &= np.bitwise_and.reduceat(np.take(masks, at), _offsets(lengths)[:-1])


def _passed(first: np.ndarray, item: np.ndarray, hit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (trial, item) pairs of the dense stage's (first trial of the
    word, item, mask of the trials it passes), taking the lowest set bit of
    each mask off until none is left: a power of two converts to float
    exactly, and frexp reads its exponent."""
    trials, items = [_NO_ITEMS], [_NO_ITEMS]
    while (keep := np.flatnonzero(hit != 0)).size:
        first, item, hit = first[keep], item[keep], hit[keep]
        low = hit & (~hit + 1)
        trials.append(first + np.frexp(low.astype(np.float64))[1] - 1)
        items.append(item)
        hit ^= low
    return np.concatenate(trials), np.concatenate(items)


def _lower_bound(row: np.ndarray, start: np.ndarray, size: np.ndarray, value: np.ndarray,
                 depth: int) -> np.ndarray:
    """Where each ``value`` would go in ``row[start:start + size]``, a sorted
    run of at least one entry: the first position whose entry is not below
    it, or the run's end. ``depth`` halvings bring every run down to one
    entry, which is then compared; no read leaves the run."""
    start, size = start.copy(), size.copy()
    for _ in range(depth):
        half = size >> 1
        size -= half
        start += half * (np.take(row, start + half) < value)
    start += np.take(row, start) < value
    return start


def _filed_table(col_indptr: np.ndarray, tests: np.ndarray,
                 weight: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A COMA plan's ``candidates``, in ``core._index_dtype(n)``, and
    ``table``, in the dtype of the column index's tests, from the CSC index
    of its matrix and its column weights: the tested items filed by their
    first test, then their second (their first where they have no other),
    then item, with one sort (:func:`_file_pairs`) that writes table rows 0
    and 1. The other rows are taken a row at a time, as one (K, items)
    index would peak higher.

    Where every tested item has the same weight, K, the tests are a
    (items, K) array: the other rows are K - 2 takes of its columns at the
    sorted positions, with no scratch but the sort's keys. Otherwise its
    scratch, freed on return, is also the positions of each candidate's
    first and last test, in int32 where they fit, and one int64 position
    buffer reused for every further row, each row's test taken at its
    candidate's first test plus k or its last, whichever comes first."""
    tested = weight != 0
    count = int(np.count_nonzero(tested))
    rows = max(1, -(-tests.size // max(1, count)))  # K
    table = np.empty((rows, count), dtype=tests.dtype)
    if rows * count == tests.size and weight.max(initial=0) == rows:
        columns = tests.reshape(-1, rows)
        position = _file_pairs(columns[:, 0], columns[:, min(1, rows - 1)], table)
        for k in range(2, rows):
            np.take(columns[:, k], position, out=table[k])
    else:
        scratch = _index_dtype(tests.size)
        starts = col_indptr[:-1][tested].astype(scratch)
        last = col_indptr[1:][tested].astype(scratch)
        last -= 1
        position = _file_pairs(tests[starts], tests[np.minimum(starts + 1, last)], table)
        starts, last = starts[position], last[position]
        at = np.empty(count, dtype=np.int64)
        for k in range(2, rows):
            np.add(starts, k, out=at, dtype=np.int64)
            np.minimum(at, last, out=at)
            np.take(tests, at, out=table[k])
    dtype = _index_dtype(weight.size)
    if count == weight.size:
        return position.astype(dtype), table
    return np.take(np.flatnonzero(tested).astype(dtype), position), table


def _file_pairs(first: np.ndarray, second: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The positions of the items whose first and second tests are
    ``first`` and ``second`` (second >= first), sorted by first test, then
    second, then position, as int64, with the sorted tests written into
    table rows 0 and (where there is one) 1.

    It sorts packed uint64 keys ``(first, second, position)`` in place, one
    ``np.sort`` of 8 bytes an item that is several times faster than a
    stable argsort of a combined int32 key, and reads the rows and
    positions back out of them; a design whose keys would not fit 64 bits
    takes one ``lexsort``."""
    count = first.size
    test_bits = int(second.max(initial=0)).bit_length()
    bits = max(count - 1, 0).bit_length()
    if 2 * test_bits + bits > 64:
        position = np.lexsort((second, first))
        np.take(first, position, out=table[0])
        if len(table) > 1:
            np.take(second, position, out=table[1])
        return position
    keys = first.astype(np.uint64)
    keys <<= test_bits
    keys |= second
    keys <<= bits
    # the positions a piece at a time, so no second key-sized array is held
    for lo in range(0, count, _FILE_PIECE):
        keys[lo : lo + _FILE_PIECE] |= np.arange(lo, min(count, lo + _FILE_PIECE),
                                                dtype=np.uint64)
    keys.sort()
    np.right_shift(keys, test_bits + bits, out=table[0], casting="unsafe")
    if len(table) > 1:
        np.right_shift(keys, bits, out=table[1], casting="unsafe")
        table[1] &= (1 << test_bits) - 1
    keys &= (1 << bits) - 1
    return keys.view(np.int64)


@dataclass(frozen=True)
class _PairIndex:
    """A COMA plan's pair index, from the first and second tests of its
    candidates, filed by them (its table's row 0 and its ``second``), and
    its first tests' run lengths.

    The first tests lie from ``first`` on and the second ones from ``low``
    to ``high``. Each first test f has a row of W = 2**``bits``
    bits of ``filter``, from bit (f - first) * W. A second test s falls in
    bucket (s - low) >> ``shift``, below W, and a row's bit is set where a
    candidate filed under its first test has a second test in that bucket.
    W is a power of two of about 16 bits a candidate over the rows, but no
    more than the span of the second tests needs; so about 1 in 20 of the
    pairs that file no candidate pass on a design of equal runs of evenly
    spread second tests, and the filter takes 2 to 4 bytes a candidate. A
    row's buckets rise with s, and the filing sorts each run by second
    test, so the filter's bits come in rising order: they are set a piece
    of the filing at a time as bool cells, which are packed. A run is
    searched in at most ``depth`` halvings."""

    filter: np.ndarray
    first: int
    low: int
    high: int
    bits: int
    shift: int
    depth: int

    @classmethod
    def of(cls, first: np.ndarray, second: np.ndarray, runs: np.ndarray) -> _PairIndex:
        lo, hi = int(first.min(initial=0)), int(first.max(initial=0))
        low, high = int(second.min(initial=0)), int(second.max(initial=0))
        target = max(1, 16 * second.size // (hi - lo + 1))
        bits = max(_WORD_SHIFT, min((target - 1).bit_length(), (high - low).bit_length()))
        index = cls(np.zeros((hi - lo + 1) << (bits - 3), dtype=np.uint8), lo, low, high, bits,
                    max(0, (high - low).bit_length() - bits),
                    max(0, int(runs.max(initial=0)) - 1).bit_length())
        # pieces of the filing whose bits span about _FILTER_CELLS cells
        piece = max(1, _FILTER_CELLS * second.size // (index.filter.size << 3))
        for start in range(0, second.size, piece):
            # the piece's filter bits, rising
            at = np.subtract(first[start : start + piece], lo, dtype=np.intp)
            at <<= bits
            at += index.buckets(second[start : start + piece])
            base = int(at[0]) >> 3
            at -= base << 3
            cells = np.zeros(-(-(int(at[-1]) + 1) // 8) * 8, dtype=bool)
            cells[at] = True
            index.filter[base : base + cells.size // 8] |= np.packbits(cells, bitorder="little")
        return index

    def row_bytes(self, first: np.ndarray) -> np.ndarray:
        """The first byte of each first test's filter row, in int32."""
        return np.left_shift(np.subtract(first, self.first, dtype=np.int32), self.bits - 3)

    def buckets(self, second: np.ndarray) -> np.ndarray:
        """The bucket of each second test, in int32."""
        return np.right_shift(np.subtract(second, self.low, dtype=np.int32), self.shift)


def _dense_pays(table: np.ndarray, share: float) -> bool:
    """Whether a COMA batch takes the dense candidate stage, given a plan's
    (K, items) ``table`` and the share of the batch's (word, test) masks
    that are nonzero. Per word, the dense stage ANDs K masks for every
    item; the pair stage is taken to cost about 8 times that for each item
    filed under a positive first test, plus about 20 000 times it in numpy
    calls."""
    rows, items = table.shape
    return rows * items <= 8 * share * items + 20_000


class BlockPlan(_Plan):
    """The block rule of the module docstring, read run by run.

    Per test: its block and label weight (int32 below 2**31 blocks and
    items) and its grid axis (the narrowest unsigned dtype that holds
    gamma - 1), tiled in these dtypes by :func:`~sparsegt.designs.tile_blocks`.
    Per block: its first item and end, int32 below 2**31 items.
    ``decode_pairs`` sorts a batch's positives into distinct pairs
    (``core._or_pairs``, by key ``trial * T + test``), so their keys
    ``trial * blocks + block`` are nondecreasing, and each run of equal keys is one hit block of one
    trial; both keys are int32 while trials times T stays below 2**31, and
    a run's label weights are summed in int64. Blocks are well formed (the
    constructor refuses others), so the hit blocks of a trial come out in
    item order. A batch allocates only arrays of its positives: on the
    desk-block designs, at most 50 bytes a gathered pair.
    """

    def __init__(self, matrix: TestMatrix, kind: str, block_tests, test_count,
                 first: int, axes: int, design: str):
        super().__init__(matrix)
        self.kind, self.axes = kind, axes
        starts = (0,) if matrix.block_starts is None else matrix.block_starts
        if not _well_formed_blocks(starts, matrix.num_items):
            raise IncompatibleDecoderError(
                f"block offsets must start at 0, increase strictly, and stay below n; not {design}"
            )
        bounds = np.array(matrix.block_bounds(), dtype=_index_dtype(matrix.num_items + 1))
        self.num_blocks = len(bounds)
        # count the tests before tiling, so a wrong header costs no tables
        sizes, blocks = np.unique(bounds[:, 1] - bounds[:, 0], return_counts=True)
        implied = sum(test_count(int(s)) * int(b) for s, b in zip(sizes, blocks))
        if implied != matrix.num_tests:
            raise IncompatibleDecoderError(
                f"matrix has {matrix.num_tests} tests but its block structure "
                f"implies {implied}; not {design}"
            )
        self.first = np.add(bounds[:, 0], first, dtype=bounds.dtype)
        self.end = bounds[:, 1].copy()  # np.take copies a strided array whole
        (self.test_weight, self.test_block), (self.test_axis, _) = tile_blocks(bounds, block_tests)

    def decode_pairs(self, trial: np.ndarray, test: np.ndarray, num_trials: int,
                     flips: np.ndarray | None):
        trial, test = _or_pairs(trial, test, num_trials, self.evaluated.num_tests)
        block = np.take(self.test_block, test)
        keys = _pair_keys(trial, block, num_trials, self.num_blocks)
        new = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=new[1:])
        runs = new.nonzero()[0]
        trial, block = trial[runs], block[runs]
        # a run's weights may sum past 2**31 where its block is ambiguous
        item = np.take(self.first, block) + np.add.reduceat(
            np.take(self.test_weight, test), runs, dtype=np.int64)
        bad = item >= np.take(self.end, block)
        if self.axes:
            # a run's tests are in axis order, so its axes are the axis
            # changes within it
            axis = np.take(self.test_axis, test)
            new[1:] |= axis[1:] != axis[:-1]
            count = np.diff(runs, append=keys.size)
            bad |= (count != self.axes) | (np.add.reduceat(new, runs) != self.axes)
        good = ~bad
        return trial[good], item[good], trial[bad], block[bad]


def _grid_plan(matrix: TestMatrix) -> BlockPlan:
    if matrix.design_tag not in (TAG_HYPERGRID, TAG_BLOCK_HYPERGRID):
        raise IncompatibleDecoderError(
            f"hypergrid decoding needs a hypergrid design, got {matrix.design_tag!r}"
        )
    gamma = matrix.col_limit
    if gamma is None:
        raise IncompatibleDecoderError("hypergrid decoding needs col_limit (the grid dimension)")

    def grid_tests(size: int) -> tuple[np.ndarray, np.ndarray]:
        shape = hypergrid_shape(size, gamma)
        axis = np.repeat(np.arange(gamma, dtype=_test_dtype(gamma)), shape.axis_digits)
        digit = np.arange(shape.num_tests) - _offsets(shape.axis_digits)[axis]
        # each weight, a digit times its axis power, lies below the size
        return np.multiply(digit, np.array(shape.axis_powers)[axis],
                           dtype=_index_dtype(size)), axis

    return BlockPlan(matrix, "hypergrid", grid_tests, lambda size: _grid_test_count(size, gamma),
                     first=0, axes=gamma, design="a hypergrid design")


def _binary_plan(matrix: TestMatrix) -> BlockPlan:
    if matrix.design_tag != TAG_BLOCK_BINARY_RHO:
        raise IncompatibleDecoderError(
            f"binary block decoding needs a binary block design, got {matrix.design_tag!r}"
        )

    def bit_tests(size: int) -> tuple[np.ndarray, np.ndarray]:
        count = size.bit_length()
        # the weights are at most the size; the axes (all 0) are never read
        return (np.left_shift(1, np.arange(count), dtype=_index_dtype(size + 1)),
                np.zeros(count, dtype=np.uint8))

    return BlockPlan(matrix, "binary", bit_tests, int.bit_length, first=-1, axes=0,
                     design="a binary block design")


class MajorityPlan(ComaPlan):
    """Majority vote over the k copies of each base test, then the
    every-test-positive rule of a :class:`ComaPlan` over the base rows on
    the voted outcomes. Ties vote positive.

    The copies of a base test share one noiseless outcome b, so the harness
    evaluates only the base rows (``evaluated``) and counts each group's
    flips F: the group has ``k - F`` positive votes if b is set, else F.
    Without flips the votes are the base outcomes, which go to the
    every-test-positive rule as they are; with flips the votes are formed
    as (trials, T/k) rows, and the pairs of the positive ones go to it.
    ``decode_bits`` reads observed outcomes as the flips of all-negative
    base outcomes, which gives the same votes.

    A design from :func:`~sparsegt.designs.repeat_design` holds its base
    matrix, whose groups are copies by construction: the plan evaluates it
    as it is, and shares its column index. Any other repeated design (one
    parsed or built with ``from_csr``) is checked: the plan refuses one
    whose groups are not copies, which :func:`~sparsegt.core.validate`
    reports as ``repetition``, and keeps each group's first row, copied out
    once, as its base rows.
    """

    kind = "majority"

    def __init__(self, matrix: TestMatrix):
        if matrix.design_tag != TAG_REPEATED or matrix.repeat_k < 2:
            raise IncompatibleDecoderError(
                "majority decoding needs a repeated design (repeat_k >= 2)"
            )
        k = matrix.repeat_k
        if matrix.num_tests % k != 0:
            raise IncompatibleDecoderError(
                f"{matrix.num_tests} tests not divisible by repeat_k={k}"
            )
        base = matrix._base
        if base is None:
            group = _broken_repeat_group(matrix)
            if group is not None:
                raise IncompatibleDecoderError(
                    f"rows {group * k}..{(group + 1) * k - 1} of the repeated design "
                    "are not copies of one row"
                )
            base = _adopt_csr(*_copy_rows(matrix.indices, matrix.indptr[:-1:k],
                                          matrix.row_weights()[::k], 1), matrix.num_items)
        self.k = k
        super().__init__(base)

    def decode_bits(self, bits: np.ndarray) -> tuple[np.ndarray, list[int], np.ndarray]:
        _, estimate, _, _ = self.decode_pairs(_NO_ITEMS, _NO_ITEMS, 1, bits[None])
        return estimate, [], self.untested

    def decode_pairs(self, trial: np.ndarray, test: np.ndarray, num_trials: int,
                     flips: np.ndarray | None):
        if flips is not None:
            trial, test = self._vote(trial, test, flips)
        return super().decode_pairs(trial, test, num_trials, None)

    def _vote(self, trial: np.ndarray, test: np.ndarray,
              flips: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (trial, test) pairs of the positive votes, sorted, from the
        pairs of the positive base outcomes (repeats allowed) under the
        (trials, T) flips."""
        counts = self._group_sums(flips)
        votes = counts >= (self.k + 1) // 2
        # a positive base test gets k - F >= (k + 1) // 2 positive votes
        # when F <= k // 2; one flat intp index is far faster than two, or
        # than one of another dtype
        at = _pair_keys(trial, test, len(votes), votes.shape[1]).astype(np.intp, copy=False)
        votes.reshape(-1)[at] = counts.reshape(-1)[at] <= self.k // 2
        return _key_pairs(np.flatnonzero(votes), votes.shape[1])

    def _group_sums(self, bits: np.ndarray) -> np.ndarray:
        """How many bits of each group of k copies are set, per trial of a
        (trials, T) bool array: one reduceat over the adjacent copies."""
        flat = bits.reshape(-1).view(np.uint8)
        sums = np.add.reduceat(flat, np.arange(0, flat.size, self.k),
                               dtype=np.min_scalar_type(self.k))
        return sums.reshape(len(bits), -1)


_PLAN_TYPES = {
    "coma": ComaPlan,
    "hypergrid": _grid_plan,
    "binary": _binary_plan,
    "majority": MajorityPlan,
}


def decoder_for(matrix: TestMatrix) -> str:
    """The decoder a design was built for."""
    if matrix.design_tag in (TAG_HYPERGRID, TAG_BLOCK_HYPERGRID):
        return "hypergrid"
    if matrix.design_tag == TAG_BLOCK_BINARY_RHO:
        return "binary"
    if matrix.design_tag == TAG_REPEATED:
        return "majority"
    return "coma"


def make_plan(matrix: TestMatrix, decoder: str):
    """Prepare a matrix for repeated decoding with the named decoder.

    ``auto`` picks :func:`decoder_for`. Raises
    :class:`~sparsegt.core.IncompatibleDecoderError` on a mismatched pairing.
    """
    name = decoder_for(matrix) if decoder == "auto" else decoder
    plan_type = _PLAN_TYPES.get(name)
    if plan_type is None:
        raise InvalidParameterError(
            f"unknown decoder {decoder!r}; expected one of "
            f"{sorted(_PLAN_TYPES)} or 'auto'"
        )
    return plan_type(matrix)


# ---------------------------------------------------------------------------
# one-shot decoder functions
# ---------------------------------------------------------------------------


def _run_plan(plan, matrix: TestMatrix, outcomes: Outcomes) -> DecodeResult:
    if outcomes.num_tests != matrix.num_tests:
        raise InvalidParameterError(
            f"outcome vector has {outcomes.num_tests} bits, matrix has "
            f"{matrix.num_tests} tests"
        )
    if outcomes.noisy and plan.kind != "majority":
        raise IncompatibleDecoderError(
            f"{plan.kind} decoding requires noiseless outcomes; "
            "repeat the design and use majority decoding instead"
        )
    estimate, ambiguous, untested = plan.decode_bits(outcomes.bits)
    if ambiguous:
        status = STATUS_AMBIGUOUS
    elif untested.size:
        status = STATUS_UNTESTABLE
    else:
        status = STATUS_OK
    return DecodeResult(
        estimate=DefectiveSet(estimate, matrix.num_items),
        status=status,
        ambiguous_blocks=tuple(int(b) for b in ambiguous),
        untestable_items=tuple(int(i) for i in untested),
    )


def coma_decode(matrix: TestMatrix, outcomes: Outcomes) -> DecodeResult:
    """Report the items none of whose tests came back negative.

    Never misses a true defective on noiseless outcomes; errs only by
    including masked non-defectives (and untested items, which it both
    includes and lists as untestable).
    """
    return _run_plan(ComaPlan(matrix), matrix, outcomes)


def hypergrid_block_decode(matrix: TestMatrix, outcomes: Outcomes) -> DecodeResult:
    """Read one defective per block off its per-axis digits (strict)."""
    return _run_plan(_grid_plan(matrix), matrix, outcomes)


def binary_block_decode(matrix: TestMatrix, outcomes: Outcomes) -> DecodeResult:
    """Read one defective per block off its binary label (strict)."""
    return _run_plan(_binary_plan(matrix), matrix, outcomes)


def majority_coma_decode(matrix: TestMatrix, outcomes: Outcomes) -> DecodeResult:
    """Majority-vote the repeated tests, then decode like coma_decode."""
    return _run_plan(MajorityPlan(matrix), matrix, outcomes)
