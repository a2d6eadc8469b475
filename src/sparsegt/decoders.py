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

Decoding work is split into reusable "plans" (one per decoder family) so the
simulation harness can prepare a matrix once and decode many outcome vectors
through exactly the same code path the one-shot functions use.
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
    _select_rows,
)
from .designs import hypergrid_shape

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
        n = matrix.num_items
        self.num_items = n
        self.num_tests = matrix.num_tests
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


class GridPlan:
    """Per-block digit reading for (block-)hypergrid designs.

    A block decodes to nothing when all its tests are negative, to a single
    item when every axis has exactly one positive digit and the digits
    assemble into an index inside the block, and is ambiguous otherwise.
    """

    kind = "hypergrid"

    def __init__(self, matrix: TestMatrix):
        if matrix.design_tag not in (TAG_HYPERGRID, TAG_BLOCK_HYPERGRID):
            raise IncompatibleDecoderError(
                f"hypergrid decoding needs a hypergrid design, got {matrix.design_tag!r}"
            )
        if matrix.col_limit is None:
            raise IncompatibleDecoderError(
                "hypergrid decoding needs col_limit (the grid dimension)"
            )
        gamma = matrix.col_limit
        self.num_items = matrix.num_items
        self.num_tests = matrix.num_tests
        self.blocks = []  # (start, size, shape, test_offset)
        offset = 0
        for start, end in matrix.block_bounds():
            shape = hypergrid_shape(end - start, gamma)
            self.blocks.append((start, end - start, shape, offset))
            offset += shape.num_tests
        if offset != matrix.num_tests:
            raise IncompatibleDecoderError(
                f"matrix has {matrix.num_tests} tests but its block structure "
                f"implies {offset}; not a hypergrid design"
            )
        self.test_block = np.empty(offset, dtype=np.int64)
        for b, (_, _, shape, off) in enumerate(self.blocks):
            self.test_block[off : off + shape.num_tests] = b

    def decode_bits(self, bits: np.ndarray) -> tuple[np.ndarray, list[int], np.ndarray]:
        positive = np.flatnonzero(bits)
        estimate: list[int] = []
        ambiguous: list[int] = []
        for b in np.unique(self.test_block[positive]) if positive.size else ():
            start, size, shape, off = self.blocks[int(b)]
            digits = []
            pos = off
            failed = False
            for m in shape.axis_digits:
                axis_hits = np.flatnonzero(bits[pos : pos + m])
                pos += m
                if axis_hits.size != 1:
                    failed = True
                    break
                digits.append(int(axis_hits[0]))
            if failed:
                ambiguous.append(int(b))
                continue
            local = sum(dig * shape.base**axis for axis, dig in enumerate(digits))
            if local >= size:
                ambiguous.append(int(b))
            else:
                estimate.append(start + local)
        return np.asarray(sorted(estimate), dtype=np.int64), ambiguous, _NO_ITEMS


class BinaryPlan:
    """Per-block label reading for binary block designs.

    Local labels run 1..size inside each block; test r of a block pools the
    labels with bit r set. The positive pattern of a block read as an integer
    is the label of its lone defective; 0 means none; anything above the
    block size is ambiguous.
    """

    kind = "binary"

    def __init__(self, matrix: TestMatrix):
        if matrix.design_tag != TAG_BLOCK_BINARY_RHO:
            raise IncompatibleDecoderError(
                f"binary block decoding needs a binary block design, got {matrix.design_tag!r}"
            )
        self.num_items = matrix.num_items
        self.num_tests = matrix.num_tests
        self.blocks = []  # (start, size, test_offset, test_count)
        offset = 0
        for start, end in matrix.block_bounds():
            size = end - start
            count = size.bit_length()
            self.blocks.append((start, size, offset, count))
            offset += count
        if offset != matrix.num_tests:
            raise IncompatibleDecoderError(
                f"matrix has {matrix.num_tests} tests but its block structure "
                f"implies {offset}; not a binary block design"
            )
        self.test_block = np.empty(offset, dtype=np.int64)
        for b, (_, _, off, count) in enumerate(self.blocks):
            self.test_block[off : off + count] = b

    def decode_bits(self, bits: np.ndarray) -> tuple[np.ndarray, list[int], np.ndarray]:
        positive = np.flatnonzero(bits)
        estimate: list[int] = []
        ambiguous: list[int] = []
        for b in np.unique(self.test_block[positive]) if positive.size else ():
            start, size, off, count = self.blocks[int(b)]
            label = 0
            for r in range(count):
                if bits[off + r]:
                    label |= 1 << r
            if label > size:
                ambiguous.append(int(b))
            else:
                estimate.append(start + label - 1)
        return np.asarray(sorted(estimate), dtype=np.int64), ambiguous, _NO_ITEMS


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
        self.num_items = matrix.num_items
        self.num_tests = matrix.num_tests
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
    "hypergrid": GridPlan,
    "binary": BinaryPlan,
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
    return _run_plan(GridPlan(matrix), matrix, outcomes)


def binary_block_decode(matrix: TestMatrix, outcomes: Outcomes) -> DecodeResult:
    """Read one defective per block off its binary label (strict)."""
    return _run_plan(BinaryPlan(matrix), matrix, outcomes)


def majority_coma_decode(matrix: TestMatrix, outcomes: Outcomes) -> DecodeResult:
    """Majority-vote the repeated tests, then decode like coma_decode."""
    return _run_plan(MajorityPlan(matrix), matrix, outcomes)
