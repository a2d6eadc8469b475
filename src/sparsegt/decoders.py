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

Both block designs (hypergrid and binary) are read by one rule, assuming at
most one defective per block. Each test carries a label weight: digit j on
grid axis a weighs j * base**a, and the test of binary label bit r weighs
2**r. A block with a positive test decodes to its first item plus the
weights of its positive tests; the first item is the block start for a grid
(labels from 0) and one before it for a binary block (labels from 1). The
block is ambiguous when that item lies at or past the block's end, or when
some axis of its grid has other than exactly one positive test.

Decoding work is split into reusable "plans" so the simulation harness can
prepare a matrix once and decode many outcome vectors through exactly the
same code path the one-shot functions use.
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
    TAG_CUSTOM,
    TAG_HYPERGRID,
    TAG_REPEATED,
    TestMatrix,
    _offsets,
    _select_rows,
)
from .designs import hypergrid_shape, tile_blocks

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


class ComaPlan:
    """Every-test-positive rule: an item is reported defective exactly when
    all of its tests are positive; untested items are vacuously included."""

    kind = "coma"

    def __init__(self, matrix: TestMatrix):
        self.num_items = matrix.num_items
        # views into the CSR, one per test: concatenating the positive ones
        # is a faster per-trial gather at desk sizes than a vectorised one
        bounds = matrix.indptr.tolist()
        self.row_views = [matrix.indices[a:b] for a, b in zip(bounds, bounds[1:])]
        self.col_weight = matrix.column_weights()
        self.untested = np.flatnonzero(self.col_weight == 0)
        self.tested_weight = np.where(self.col_weight > 0, self.col_weight, -1)

    def decode_bits(self, bits: np.ndarray) -> tuple[np.ndarray, list[int], np.ndarray]:
        positive = np.flatnonzero(bits)
        if positive.size:
            hits = np.concatenate([self.row_views[t] for t in positive])
            counts = np.bincount(hits, minlength=self.num_items)
        else:
            counts = np.zeros(self.num_items, dtype=np.int64)
        fully_positive = np.flatnonzero(counts == self.tested_weight)
        if self.untested.size:
            estimate = np.union1d(fully_positive, self.untested)
        else:
            estimate = fully_positive
        return estimate, [], self.untested


class BlockPlan:
    """The block rule of the module docstring, in one pass over tables.

    Per test: its block, label weight and axis id, ``b * axes + a`` for axis
    ``a`` of block ``b``; binary tests lie on no axis and share a sink id past
    the last axis. Per block: its first item and end. Per axis: its block.
    """

    def __init__(self, matrix: TestMatrix, kind: str, block_tests, first: int,
                 axes: int, design: str):
        self.kind, self.axes = kind, axes
        bounds = np.array(matrix.block_bounds(), dtype=np.int64).reshape(-1, 2)
        self.num_blocks = len(bounds)
        self.first, self.end = bounds[:, 0] + first, bounds[:, 1]
        (self.test_weight, self.test_block), (axis, _) = tile_blocks(bounds, block_tests)
        if self.test_weight.size != matrix.num_tests:
            raise IncompatibleDecoderError(
                f"matrix has {matrix.num_tests} tests but its block structure "
                f"implies {self.test_weight.size}; not {design}"
            )
        self.axis_block = np.repeat(np.arange(self.num_blocks), axes)
        self.test_axis = np.where(axis < 0, self.axis_block.size, self.test_block * axes + axis)

    def decode_bits(self, bits: np.ndarray) -> tuple[np.ndarray, list[int], np.ndarray]:
        positive = bits.nonzero()[0]  # cheaper per call than np.flatnonzero
        blocks = self.test_block[positive]
        hit = np.bincount(blocks, minlength=self.num_blocks).nonzero()[0]
        # float64 sums: exact below 2**53, and any sum above a block's size
        # makes it ambiguous however it rounds
        label = np.bincount(blocks, self.test_weight[positive], self.num_blocks)[hit]
        per_axis = np.bincount(self.test_axis[positive], minlength=self.axis_block.size + 1)
        one_hot = np.bincount(self.axis_block[per_axis[:-1] == 1], minlength=self.num_blocks)
        item = self.first[hit] + label.astype(np.int64)
        bad = (item >= self.end[hit]) | (one_hot[hit] != self.axes)
        # blocks out of item order (a malformed block_starts) decode out of order
        return np.sort(item[~bad]), hit[bad].tolist(), _NO_ITEMS


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

    return BlockPlan(matrix, "hypergrid", grid_tests, first=0, axes=gamma,
                     design="a hypergrid design")


def _binary_plan(matrix: TestMatrix) -> BlockPlan:
    if matrix.design_tag != TAG_BLOCK_BINARY_RHO:
        raise IncompatibleDecoderError(
            f"binary block decoding needs a binary block design, got {matrix.design_tag!r}"
        )

    def bit_tests(size: int) -> tuple[np.ndarray, np.ndarray]:
        count = size.bit_length()
        return 1 << np.arange(count), np.full(count, -1)  # on no axis

    return BlockPlan(matrix, "binary", bit_tests, first=-1, axes=0,
                     design="a binary block design")


class MajorityPlan:
    """Majority vote over the k copies of each base test, then the
    every-test-positive rule on the voted outcomes. Ties vote positive."""

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
        self.k = k
        indptr, indices = _select_rows(matrix, np.arange(0, matrix.num_tests, k))
        base = TestMatrix.from_csr(
            indptr,
            indices,
            num_items=matrix.num_items,
            col_limit=None if matrix.col_limit is None else matrix.col_limit // k,
            row_limit=matrix.row_limit,
            design_tag=matrix.base_tag or TAG_CUSTOM,
            block_starts=matrix.block_starts,
        )
        self.base_plan = ComaPlan(base)

    def decode_bits(self, bits: np.ndarray) -> tuple[np.ndarray, list[int], np.ndarray]:
        grouped = bits.reshape(-1, self.k)
        votes = grouped.sum(axis=1)
        majority = votes * 2 >= self.k
        return self.base_plan.decode_bits(majority)


_NO_ITEMS = np.empty(0, dtype=np.int64)

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
