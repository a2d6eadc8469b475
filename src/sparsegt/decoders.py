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
same code path the one-shot functions use. A plan decodes a batch of trials
from their positive outcomes alone: the (trial, test) pairs of the positive
tests, sorted by trial and then test, as the OR channel
(:func:`~sparsegt.core._or_batch`) gives them. Its work grows with the
positives, not with trials times tests.

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
    _broken_repeat_group,
    _dense_bits,
    _key_pairs,
    _offsets,
    _ragged,
    _select_rows,
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


def _positives(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (trial, test) pairs of the positive bits of a (trials, T) array,
    in row-major order. A 2-D ``nonzero`` is several times slower than this
    1-D one."""
    return _key_pairs(bits.reshape(-1).nonzero()[0], bits.shape[1])


class _Plan:
    """A decoder prepared for one matrix.

    ``decode_batch(trial, test, num_trials)`` decodes a batch of trials from
    the (trial, test) pairs of their positive tests, sorted by trial and then
    test. It returns the estimate as (trial, item) pairs, sorted by trial and
    then item, with the items of a trial distinct and in [0, n), and the
    ambiguous blocks as (trial, block) pairs in the same order.
    ``decode_bits`` is its one-row case on a dense outcome vector, and
    ``untested`` lists the items in no test. ``trial_bytes`` and
    ``defective_bytes`` estimate the bytes of arrays a batch takes per trial
    and per defective of a trial, so that the harness can size its batches.

    The harness evaluates the matrix ``evaluated`` (the design itself, or
    less where the plan needs less) and hands its positive pairs and the
    channel's flips to ``decode_channel``.
    """

    untested = _NO_ITEMS
    trial_bytes = defective_bytes = 0.0

    def __init__(self, matrix: TestMatrix):
        self.evaluated = matrix

    def decode_bits(self, bits: np.ndarray) -> tuple[np.ndarray, list[int], np.ndarray]:
        positives = _positives(np.asarray(bits, dtype=bool)[None])
        _, estimate, _, ambiguous = self.decode_batch(*positives, 1)
        return estimate, ambiguous.tolist(), self.untested

    def decode_channel(self, trial: np.ndarray, test: np.ndarray, num_trials: int,
                       flips: np.ndarray | None):
        """Decode a batch from the noiseless positive pairs of ``evaluated``
        and the channel's (trials, T) flips of the design's tests, or None
        when there is no noise. Only majority plans take flips."""
        return self.decode_batch(trial, test, num_trials)


class ComaPlan(_Plan):
    """Every-test-positive rule: an item is reported defective exactly when
    all of its tests are positive; untested items are vacuously included.

    The work per outcome vector grows with its positive tests, not with n.
    Each tested item is filed once, under its first test, when the plan is
    built, so the candidates are the items filed under positive tests. One
    gather on each candidate's second test drops most of them, one on the
    third test most of the rest, and one ragged gather checks the remaining
    tests of the survivors.
    """

    kind = "coma"

    def __init__(self, matrix: TestMatrix):
        super().__init__(matrix)
        self.num_items = matrix.num_items
        self.col_indptr, self.tests = matrix.column_index()
        weight = matrix.column_weights()
        self.untested = np.flatnonzero(weight == 0)
        tested = np.flatnonzero(weight)
        first = self.tests[self.col_indptr[tested]]
        # a stable sort on a dtype of at most 16 bits is a radix sort
        order = np.argsort(first.astype(np.min_scalar_type(matrix.num_tests)), kind="stable")
        self.candidates = tested[order]
        groups = np.bincount(first, minlength=matrix.num_tests)
        self.group_ptr = _offsets(groups)
        # a defective brings the groups of its tests; four int64 arrays
        # follow each candidate
        self.defective_bytes = 32 * float(matrix.row_weights() @ groups) / self.num_items
        # an item of weight 1 has its first test again as its second
        self.second = self.tests[self.col_indptr[self.candidates] + (weight[self.candidates] > 1)]
        self.trial_bytes = float(matrix.num_tests)  # the outcome lookup

    def decode_batch(self, trial: np.ndarray, test: np.ndarray, num_trials: int):
        num_tests = self.evaluated.num_tests
        flat = _dense_bits(trial * num_tests + test, num_trials, num_tests).reshape(-1)
        starts = self.group_ptr[test]
        lengths = self.group_ptr[test + 1] - starts
        slot = _ragged(starts, lengths)
        trial = np.repeat(trial, lengths)
        keep = flat[trial * num_tests + self.second[slot]].nonzero()[0]
        trial, item = trial[keep], self.candidates[slot[keep]]
        # the third test (the last one again for an item of weight 2 or
        # less) drops most of the rest
        starts, ends = self.col_indptr[item], self.col_indptr[item + 1]
        keep = flat[trial * num_tests + self.tests[np.minimum(starts + 2, ends - 1)]].nonzero()[0]
        trial, item, starts, ends = trial[keep], item[keep], starts[keep] + 3, ends[keep]
        # the tests after the third, one ragged run per survivor; a running
        # count of negative tests gives each run's misses
        lengths = np.maximum(ends - starts, 0)
        at = self.tests[_ragged(starts, lengths)]
        at += np.repeat(trial * num_tests, lengths)
        misses = np.zeros(at.size + 1, dtype=np.int64)
        np.cumsum(~flat[at], out=misses[1:])
        run_ends = np.cumsum(lengths)
        passed = misses[run_ends] == misses[run_ends - lengths]
        trial, item = trial[passed], item[passed]
        if self.untested.size:
            trial = np.concatenate([trial, np.repeat(np.arange(num_trials), self.untested.size)])
            item = np.concatenate([item, np.tile(self.untested, num_trials)])
        key = np.sort(trial * self.num_items + item)
        return key // self.num_items, key % self.num_items, _NO_ITEMS, _NO_ITEMS


class BlockPlan(_Plan):
    """The block rule of the module docstring, read run by run.

    Per test: its block, label weight and grid axis. Per block: its first
    item and end. The keys ``trial * blocks + block`` of a batch's sorted
    positives are nondecreasing, and each run of equal keys is one hit block
    of one trial. Blocks are well formed (the constructor refuses others),
    so the hit blocks of a trial come out in item order. A batch allocates
    only arrays of its positives.
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
        bounds = np.array(matrix.block_bounds(), dtype=np.int64)
        self.num_blocks = len(bounds)
        # count the tests before tiling, so a wrong header costs no tables
        sizes, blocks = np.unique(bounds[:, 1] - bounds[:, 0], return_counts=True)
        implied = sum(test_count(int(s)) * int(b) for s, b in zip(sizes, blocks))
        if implied != matrix.num_tests:
            raise IncompatibleDecoderError(
                f"matrix has {matrix.num_tests} tests but its block structure "
                f"implies {implied}; not {design}"
            )
        self.first, self.end = bounds[:, 0] + first, bounds[:, 1]
        (self.test_weight, self.test_block), (self.test_axis, _) = tile_blocks(bounds, block_tests)

    def decode_batch(self, trial: np.ndarray, test: np.ndarray, num_trials: int):
        block = self.test_block[test]
        keys = trial * self.num_blocks + block
        new = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=new[1:])
        runs = new.nonzero()[0]
        trial, block = trial[runs], block[runs]
        item = self.first[block] + np.add.reduceat(self.test_weight[test], runs)
        bad = item >= self.end[block]
        if self.axes:
            # a run's tests are in axis order, so its axes are the axis
            # changes within it
            axis = self.test_axis[test]
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
        axis = np.repeat(np.arange(gamma), shape.axis_digits)
        digit = np.arange(shape.num_tests) - _offsets(shape.axis_digits)[axis]
        return digit * np.array(shape.axis_powers)[axis], axis

    return BlockPlan(matrix, "hypergrid", grid_tests, lambda size: _grid_test_count(size, gamma),
                     first=0, axes=gamma, design="a hypergrid design")


def _binary_plan(matrix: TestMatrix) -> BlockPlan:
    if matrix.design_tag != TAG_BLOCK_BINARY_RHO:
        raise IncompatibleDecoderError(
            f"binary block decoding needs a binary block design, got {matrix.design_tag!r}"
        )

    def bit_tests(size: int) -> tuple[np.ndarray, np.ndarray]:
        count = size.bit_length()
        return 1 << np.arange(count), np.full(count, -1)  # on no axis

    return BlockPlan(matrix, "binary", bit_tests, int.bit_length, first=-1, axes=0,
                     design="a binary block design")


class MajorityPlan(ComaPlan):
    """Majority vote over the k copies of each base test, then the
    every-test-positive rule of a :class:`ComaPlan` over the base rows on
    the voted outcomes. Ties vote positive.

    The copies of a base test share one noiseless outcome b, so the harness
    evaluates only the base rows (``evaluated``) and counts each group's
    flips F: the group has ``k - F`` positive votes if b is set, else F.
    Without flips the votes are the base outcomes, whose positive pairs go
    to the every-test-positive rule as they are; with flips they are dense
    (trials, T/k) rows, read for their positives. ``decode_batch`` reads
    observed outcomes as the flips of all-negative base outcomes, which
    gives the same votes. The plan refuses a repeated design whose groups
    are not copies, which :func:`~sparsegt.core.validate` reports as
    ``repetition``.
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
        group = _broken_repeat_group(matrix)
        if group is not None:
            raise IncompatibleDecoderError(
                f"rows {group * k}..{(group + 1) * k - 1} of the repeated design "
                "are not copies of one row"
            )
        self.k = k
        indptr, indices = _select_rows(matrix, np.arange(0, matrix.num_tests, k))
        super().__init__(TestMatrix.from_csr(indptr, indices, matrix.num_items))

    def decode_batch(self, trial: np.ndarray, test: np.ndarray, num_trials: int):
        num_tests = self.k * self.evaluated.num_tests
        observed = _dense_bits(trial * num_tests + test, num_trials, num_tests)
        return self.decode_channel(_NO_ITEMS, _NO_ITEMS, num_trials, observed)

    def decode_channel(self, trial: np.ndarray, test: np.ndarray, num_trials: int,
                       flips: np.ndarray | None):
        if flips is None:
            return super().decode_batch(trial, test, num_trials)
        counts = self._group_sums(flips)
        votes = counts >= (self.k + 1) // 2
        # a positive base test gets k - F >= (k + 1) // 2 positive votes
        # when F <= k // 2
        at = trial * self.evaluated.num_tests + test
        votes.reshape(-1)[at] = counts.reshape(-1)[at] <= self.k // 2
        return super().decode_batch(*_positives(votes), num_trials)

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
