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
# the bytes of each (items, words) array of COMA's dense candidate stage:
# a slice that stays in a core's cache runs faster than a larger one
_DENSE_BYTES = 1 << 18


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

    The plan files each tested item under its first test (``candidates``,
    in filing order, with ``group_ptr`` the offsets of each test's run) and
    keeps one (K, items) ``table`` of the candidates' first K tests, K the
    mean column weight rounded up (at least 1): row k holds each
    candidate's test k, or its last test where it has no more. A batch
    takes one of two candidate stages; both read the table, AND the
    remaining tests of their survivors with one ``bitwise_and.reduceat``,
    and give the same survivors.

    Sparse: a word's candidates are the items filed under its positive
    tests. Each table row after the first clears most of those left, and
    the cleared ones are dropped before the next. A word's work grows with
    its positive tests, not n. It reads (words, T) masks.

    Dense: as with tests of rho items, where a trial makes up to a
    d * rho / n share of the tests positive, nearly every item has a
    positive first test in every word. For a slice of the candidates at a
    time the table's rows are ANDed as whole (items, words) rows of the
    (T, words) masks. Each slice's arrays stay within about
    ``_DENSE_BYTES`` whatever n is.

    ``decode_pairs`` picks the stage by :func:`_dense_pays` before it fills
    any mask, with the nonzero share the pairs would leave if they fell on
    the masks at random. For the dense stage it scatters them into a
    (T, 64 * words) bool array (``core._or_bits``) and packs that into the
    (T, words) masks, so repeated pairs need no sort; for the sparse stage
    it sorts them into distinct pairs (``core._or_pairs``) and adds their
    bits into (words, T) masks. ``trial_bytes`` counts the masks, T / 8
    bytes a trial; the dense fill's bool array takes T bytes a trial while
    the batch packs it.

    The plan keeps the column index and its ``candidates``, ``table`` and
    ``group_ptr``; the table takes the dtype of the index's tests (uint16
    below 65 536 tests). Where every tested item has the same weight, as
    in the random-gamma and permuted-rho designs, the table is the index's
    tests taken in filing order, one row at a time (:func:`_filed_table`):
    on a design of items in 4 tests each the build peaks at about 6 bytes
    per incidence above the column index, which itself keeps 4 (int64
    offsets and uint16 tests), and the int64 column weights, 2. Otherwise
    it takes int32 positions of each tested item's first and last test and
    one int64 position buffer, reused for every table row, and frees both.
    The narrow tests enter products only through ``core._pair_keys``, in
    int32 below 2**31:
    the dense fill's scatter index in ``core._or_bits`` (then cast to intp,
    which fancy assignment runs fastest on) and the mask index of
    :meth:`_and_rest`.
    """

    kind = "coma"
    batch_step = _WORD

    def __init__(self, matrix: TestMatrix):
        super().__init__(matrix)
        self.num_items = matrix.num_items
        self.col_indptr, self.tests = matrix.column_index()
        weight = matrix.column_weights()
        self.untested = np.flatnonzero(weight == 0)
        self.candidates, self.table = _filed_table(self.col_indptr, self.tests, weight)
        self.group_ptr = _offsets(np.bincount(self.table[0], minlength=matrix.num_tests))
        self.trial_bytes = matrix.num_tests / 8  # the test masks

    def decode_pairs(self, trial: np.ndarray, test: np.ndarray, num_trials: int,
                     flips: np.ndarray | None):
        num_tests = self.evaluated.num_tests
        words = -(-num_trials // _WORD)
        width = words * _WORD  # whole words of trials
        # the share of the (word, test) masks that the pairs would leave
        # nonzero if each fell on one of them at random
        share = -math.expm1(-_WORD * test.size / max(1, width * num_tests))
        if not _dense_pays(self.table, share):
            trial, test = _or_pairs(trial, test, num_trials, num_tests)
            masks = np.zeros((words, num_tests), dtype=np.uint64)
            # the pairs are now distinct, so adding their bits ORs them
            np.add.at(masks.reshape(-1), _pair_keys(trial >> _WORD_SHIFT, test, words, num_tests),
                      np.take(_BITS, trial & (_WORD - 1)))
            return self._estimate(self._sparse_candidates(masks), num_trials)
        # the bool array is freed once packed, so the batch peaks at little
        # more than the pairs and the bool array
        by_test = np.packbits(_or_bits(test, trial, num_tests, width), axis=1,
                              bitorder="little").view("<u8")
        return self._estimate(self._dense_candidates(by_test), num_trials)

    def _estimate(self, found, num_trials: int):
        """The (trial, item) estimate pairs of a stage's candidates, with
        the untested items in every trial."""
        first, item, hit = found
        # take the lowest set bit of each mask off until none is left; a
        # power of two converts to float exactly, and frexp reads its exponent
        trials, items = [_NO_ITEMS], [_NO_ITEMS]
        while (keep := np.flatnonzero(hit != 0)).size:
            first, item, hit = first[keep], item[keep], hit[keep]
            low = hit & (~hit + 1)
            trials.append(first + np.frexp(low.astype(np.float64))[1] - 1)
            items.append(item)
            hit ^= low
        if self.untested.size:
            trials.append(np.repeat(np.arange(num_trials), self.untested.size))
            items.append(np.tile(self.untested, num_trials))
        key = np.sort(np.concatenate(trials) * self.num_items + np.concatenate(items))
        return *_key_pairs(key, self.num_items), _NO_ITEMS, _NO_ITEMS

    def _sparse_candidates(self, masks: np.ndarray):
        """(first trial of the word, item, mask of the trials it passes) of
        the tested items, word by word of the (words, T) masks from the
        items filed under each positive test; items that pass no trial of a
        word may be left out."""
        found = [(_NO_ITEMS, _NO_ITEMS, _BITS[:0])]
        for word, mask in enumerate(masks):
            positive = np.flatnonzero(mask != 0)
            starts = self.group_ptr[positive]
            lengths = self.group_ptr[positive + 1] - starts
            slot = _ragged(starts, lengths, self.candidates.size)
            hit = np.repeat(mask[positive], lengths)
            for row in self.table[1:]:
                hit &= np.take(mask, np.take(row, slot))
                keep = np.flatnonzero(hit != 0)
                slot, hit = slot[keep], hit[keep]
            item = np.take(self.candidates, slot)
            self._and_rest(mask, 0, 1, item, hit)
            found.append((np.full(hit.size, word * _WORD), item, hit))
        return tuple(map(np.concatenate, zip(*found)))

    def _dense_candidates(self, by_test: np.ndarray):
        """What ``_sparse_candidates`` gives, from whole rows of the
        (T, words) masks at the table's tests, for a slice of the candidates
        at a time."""
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
        value, or one per item)."""
        starts, ends = self.col_indptr[item] + len(self.table), self.col_indptr[item + 1]
        more = np.flatnonzero(ends > starts)
        if more.size:
            lengths = ends[more] - starts[more]
            test = np.take(self.tests, _ragged(starts[more], lengths, self.tests.size))
            at = _pair_keys(test, np.repeat(np.broadcast_to(offset, item.shape)[more], lengths),
                            self.evaluated.num_tests, stride)
            hit[more] &= np.bitwise_and.reduceat(np.take(masks, at), _offsets(lengths)[:-1])


def _filed_table(col_indptr: np.ndarray, tests: np.ndarray,
                 weight: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A COMA plan's ``candidates`` and ``table``, in the dtype of the
    column index's tests, from the CSC index of its matrix and its column
    weights. The table is taken a row at a time, as one (K, items) index
    would peak higher, and ``take`` casts indices of another dtype than
    int64.

    Where every tested item has the same weight, K, the tests are a
    (items, K) array: the table is one stable argsort of its first column
    and K takes of its columns, with no scratch but the order. Otherwise
    its scratch, freed on return, is the positions of each candidate's
    first and last test, in int32 where they fit, and one int64 position
    buffer reused for every row, each row's test taken at its candidate's
    first test plus k or its last, whichever comes first."""
    tested = weight != 0
    count = int(np.count_nonzero(tested))
    rows = max(1, -(-tests.size // max(1, count)))  # K
    table = np.empty((rows, count), dtype=tests.dtype)
    # a stable sort on a dtype of at most 16 bits is a radix sort
    if rows * count == tests.size and weight.max(initial=0) == rows:
        columns = tests.reshape(-1, rows)
        order = np.argsort(columns[:, 0], kind="stable")
        for k, row in enumerate(table):
            np.take(columns[:, k], order, out=row)
        return order if count == weight.size else np.flatnonzero(tested)[order], table
    scratch = _index_dtype(tests.size)
    starts = col_indptr[:-1][tested].astype(scratch)
    last = col_indptr[1:][tested].astype(scratch)
    last -= 1
    order = np.argsort(tests[starts], kind="stable")
    candidates = np.flatnonzero(tested)[order]
    starts, last = starts[order], last[order]
    del order
    at = np.empty(starts.size, dtype=np.int64)
    for k, row in enumerate(table):
        np.add(starts, k, out=at, dtype=np.int64)
        np.minimum(at, last, out=at)
        np.take(tests, at, out=row)
    return candidates, table


def _dense_pays(table: np.ndarray, share: float) -> bool:
    """Whether a COMA batch takes the dense candidate stage, given a plan's
    (K, items) ``table`` and the share of the batch's (word, test) masks
    that are nonzero. Per word, the dense stage ANDs K masks for every
    item; the sparse stage takes the share of the items filed under a
    positive first test, at about 8 times that cost each, plus about 20 000
    times it in numpy calls."""
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
