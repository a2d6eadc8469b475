"""Python-loop references for the vectorised core operations and decoders.

These are the straightforward row-by-row versions of ``evaluate``,
``TestMatrix.column_weights``, ``validate``, ``parse`` and the outcome
file reader and writer, the per-block
loops of the hypergrid, block hypergrid and binary block constructors, and
the per-block loops of the hypergrid and binary block decoders, the
every-test-positive decoder that counts the positive tests of all n items,
the Monte Carlo harness that evaluates, flips and decodes one trial at a
time, and the MAP oracle that builds every input's outcome signature by a
lowest-set-bit recursion over per-item bitmasks. The property tests require
the library's array versions to agree with them exactly: the same outcome
bits, the same weights, the same ``Violation`` lists in the same order, the
same ``ParseError`` line and message, the same design bytes, the same
decoded estimate and ambiguous blocks, the same error counts and the same
MAP error, float for float.
"""

import itertools
import math

import numpy as np

from sparsegt.bounds import binary_block_count, ceil_div, hypergrid_block_count
from sparsegt.core import (
    DESIGN_TAGS,
    TAG_BLOCK_BINARY_RHO,
    TAG_BLOCK_HYPERGRID,
    TAG_CUSTOM,
    TAG_HYPERGRID,
    PRIOR_IID_BERNOULLI,
    PRIOR_UNIFORM_EXACT,
    DefectiveSet,
    IncompatibleDecoderError,
    Outcomes,
    ParseError,
    TestMatrix,
    Violation,
    int_root_ceil,
    _offsets,
)
from sparsegt.designs import balanced_block_starts, hypergrid_shape
from sparsegt.sim import derive_trial_seed


def evaluate(matrix: TestMatrix, defectives: DefectiveSet) -> np.ndarray:
    mask = defectives.as_mask()
    return np.array([any(mask[i] for i in row) for row in matrix.rows], dtype=bool)


def column_weights(matrix: TestMatrix) -> np.ndarray:
    weights = np.zeros(matrix.num_items, dtype=np.int64)
    for row in matrix.rows:
        for i in row:
            weights[i] += 1
    return weights


def validate(matrix: TestMatrix) -> list[Violation]:
    report: list[Violation] = []
    n = matrix.num_items
    rows = matrix.rows
    col_weight = np.zeros(n, dtype=np.int64)
    for t, row in enumerate(rows):
        in_range = True
        for i in row:
            if not 0 <= i < n:
                report.append(
                    Violation("index-range", f"row {t}", f"index {i} outside [0, {n})")
                )
                in_range = False
        if any(row[j] >= row[j + 1] for j in range(len(row) - 1)):
            report.append(
                Violation("row-order", f"row {t}", "indices not strictly increasing")
            )
        if matrix.row_limit is not None and len(row) > matrix.row_limit:
            report.append(
                Violation(
                    "row-weight",
                    f"row {t}",
                    f"weight {len(row)} exceeds limit {matrix.row_limit}",
                )
            )
        if in_range:
            for i in set(row):
                col_weight[i] += 1
    if matrix.col_limit is not None:
        for i in np.flatnonzero(col_weight > matrix.col_limit):
            report.append(
                Violation(
                    "col-weight",
                    f"column {int(i)}",
                    f"weight {int(col_weight[i])} exceeds limit {matrix.col_limit}",
                )
            )
    if matrix.block_starts is not None:
        starts = matrix.block_starts
        ok = len(starts) > 0 and starts[0] == 0 and starts[-1] < n
        ok = ok and all(starts[j] < starts[j + 1] for j in range(len(starts) - 1))
        if not ok:
            report.append(
                Violation(
                    "block-structure",
                    "block_starts",
                    "offsets must start at 0, increase strictly, and stay below n",
                )
            )
    if matrix.repeat_k > 1:
        k = matrix.repeat_k
        if matrix.num_tests % k != 0:
            report.append(
                Violation(
                    "repetition",
                    "rows",
                    f"{matrix.num_tests} rows not divisible by repeat_k={k}",
                )
            )
        else:
            for g in range(matrix.num_tests // k):
                group = rows[g * k : (g + 1) * k]
                if any(r != group[0] for r in group[1:]):
                    report.append(
                        Violation(
                            "repetition",
                            f"rows {g * k}..{(g + 1) * k - 1}",
                            "repeated design rows must be consecutive duplicates",
                        )
                    )
                    break
    return report


def _positive_int(token: str, line_no: int, what: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ParseError(line_no, f"{what} must be an integer, got {token!r}") from None
    if value < 1:
        raise ParseError(line_no, f"{what} must be >= 1, got {value}")
    return value


def parse(text: str) -> TestMatrix:
    """Line-by-line design file reader: each line is checked completely
    before the next one is read."""
    content = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            content.append((line_no, stripped))
    if not content:
        raise ParseError(1, "empty design file")

    header_no, header = content[0]
    tokens = header.split()
    if len(tokens) < 2:
        raise ParseError(header_no, "header needs at least 'T n'")
    try:
        num_tests = int(tokens[0])
    except ValueError:
        raise ParseError(header_no, f"test count T must be an integer, got {tokens[0]!r}") from None
    if num_tests < 0:
        raise ParseError(header_no, f"test count T must be >= 0, got {num_tests}")
    num_items = _positive_int(tokens[1], header_no, "item count n")
    if num_items > 2**31:
        raise ParseError(header_no, f"item count n must be <= {2**31}, got {num_items}")

    fields = {"col_limit": None, "row_limit": None, "design_tag": TAG_CUSTOM,
              "base_tag": None, "repeat_k": 1, "block_starts": None}
    seen = set()
    for token in tokens[2:]:
        key, sep, value = token.partition("=")
        if not sep:
            raise ParseError(header_no, f"expected key=value, got {token!r}")
        if key in seen:
            raise ParseError(header_no, f"repeated header key {key!r}")
        seen.add(key)
        if key == "gamma":
            fields["col_limit"] = _positive_int(value, header_no, "gamma")
        elif key == "rho":
            fields["row_limit"] = _positive_int(value, header_no, "rho")
        elif key in ("tag", "base"):
            if value not in DESIGN_TAGS:
                word = "design" if key == "tag" else "base"
                raise ParseError(header_no, f"unknown {word} tag {value!r}")
            fields["design_tag" if key == "tag" else "base_tag"] = value
        elif key == "k":
            fields["repeat_k"] = _positive_int(value, header_no, "repetition count k")
        elif key == "blocks":
            try:
                starts = tuple(int(s) for s in value.split(","))
            except ValueError:
                raise ParseError(
                    header_no, f"blocks must be comma-separated integers, got {value!r}"
                ) from None
            if (
                starts[0] != 0
                or any(a >= b for a, b in zip(starts, starts[1:]))
                or starts[-1] >= num_items
            ):
                raise ParseError(
                    header_no,
                    "block offsets must start at 0, increase strictly, and stay below n",
                )
            fields["block_starts"] = starts
        else:
            raise ParseError(header_no, f"unknown header key {key!r}")

    body = content[1:]
    if len(body) < num_tests:
        last = body[-1][0] if body else header_no
        raise ParseError(last, f"expected {num_tests} row lines, found only {len(body)}")
    if len(body) > num_tests:
        raise ParseError(body[num_tests][0], "trailing content after last row")

    rows = []
    for line_no, line in body:
        try:
            numbers = [int(p) for p in line.split()]
        except ValueError:
            raise ParseError(line_no, f"row entries must be integers: {line!r}") from None
        weight, indices = numbers[0], numbers[1:]
        if weight < 0:
            raise ParseError(line_no, f"row weight must be >= 0, got {weight}")
        if len(indices) != weight:
            raise ParseError(
                line_no, f"row declares weight {weight} but lists {len(indices)} indices"
            )
        for i in indices:
            if not 0 <= i < num_items:
                raise ParseError(line_no, f"index {i} outside [0, {num_items})")
        if any(indices[j] >= indices[j + 1] for j in range(len(indices) - 1)):
            raise ParseError(line_no, "row indices must be strictly increasing")
        rows.append(tuple(indices))
    return TestMatrix(rows=rows, num_items=num_items, **fields)


def serialize_outcomes(outcomes: Outcomes) -> str:
    return "".join("1" if b else "0" for b in outcomes.bits) + "\n"


def parse_outcomes(text: str, expected_tests: int | None = None) -> Outcomes:
    """Character-by-character outcome file reader."""
    content = [
        (line_no, raw.strip())
        for line_no, raw in enumerate(text.splitlines(), start=1)
        if raw.strip() and not raw.strip().startswith("#")
    ]
    if not content:
        raise ParseError(1, "empty outcome file")
    if len(content) > 1:
        raise ParseError(content[1][0], "outcome file must contain a single line")
    line_no, word = content[0]
    if any(ch not in "01" for ch in word):
        raise ParseError(line_no, "outcome line may contain only '0' and '1'")
    if expected_tests is not None and len(word) != expected_tests:
        raise ParseError(line_no, f"expected {expected_tests} outcome bits, got {len(word)}")
    return Outcomes(np.array([ch == "1" for ch in word], dtype=bool))


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

    def decode_bits(self, bits: np.ndarray) -> tuple[np.ndarray, list[int]]:
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
        return np.asarray(sorted(estimate), dtype=np.int64), ambiguous


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

    def decode_bits(self, bits: np.ndarray) -> tuple[np.ndarray, list[int]]:
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
        return np.asarray(sorted(estimate), dtype=np.int64), ambiguous


class ComaPlan:
    """Every-test-positive rule by counting: each positive test adds one to
    each of its items, and an item is reported when its count reaches its
    column weight. Untested items are included and listed."""

    kind = "coma"

    def __init__(self, matrix: TestMatrix):
        self.num_items = matrix.num_items
        self.rows = [np.asarray(row, dtype=np.int64) for row in matrix.rows]
        weights = column_weights(matrix)
        self.untested = np.flatnonzero(weights == 0)
        self.tested_weight = np.where(weights > 0, weights, -1)

    def decode_bits(self, bits: np.ndarray) -> tuple[np.ndarray, list[int], np.ndarray]:
        hits = [self.rows[t] for t in np.flatnonzero(bits)]
        counts = np.bincount(np.concatenate(hits + [np.empty(0, dtype=np.int64)]),
                             minlength=self.num_items)
        estimate = np.union1d(np.flatnonzero(counts == self.tested_weight), self.untested)
        return estimate, [], self.untested


class MajorityPlan:
    """Majority vote over the k copies of each base test (ties vote
    positive), then the counting rule on the base rows."""

    kind = "majority"

    def __init__(self, matrix: TestMatrix):
        self.k = matrix.repeat_k
        base = TestMatrix(rows=matrix.rows[:: self.k], num_items=matrix.num_items)
        self.base_plan = ComaPlan(base)

    def decode_bits(self, bits: np.ndarray) -> tuple[np.ndarray, list[int], np.ndarray]:
        votes = np.asarray(bits).reshape(-1, self.k).sum(axis=1)
        return self.base_plan.decode_bits(votes * 2 >= self.k)


PLANS = {"coma": ComaPlan, "hypergrid": GridPlan, "binary": BinaryPlan,
         "majority": MajorityPlan}


def run_trial_range(matrix: TestMatrix, plan, prior, sigma: float, master_seed: int,
                    start: int, count: int) -> tuple[int, int, int, int]:
    """(errors, false-positive items, ambiguous blocks, wrong estimates) of
    trials ``start .. start + count - 1``, one at a time: seed, draw the
    defectives, evaluate, flip, decode and score."""
    n = matrix.num_items
    errors = fp_items = amb_blocks = wrong = 0
    for t in range(start, start + count):
        rng = np.random.default_rng(derive_trial_seed(master_seed, t))
        if prior.kind == PRIOR_UNIFORM_EXACT:
            defect = np.sort(rng.choice(n, size=prior.d, replace=False)).astype(np.int64)
        else:
            defect = np.flatnonzero(rng.random(n) < prior.d / n).astype(np.int64)
        bits = evaluate(matrix, DefectiveSet(defect, n))
        if sigma > 0.0:
            bits = np.logical_xor(bits, rng.random(bits.size) < sigma)
        estimate, ambiguous = plan.decode_bits(bits)[:2]
        exact = np.array_equal(estimate, defect)
        if ambiguous or not exact:
            errors += 1
            amb_blocks += len(ambiguous)
            if not exact:
                extra = np.setdiff1d(estimate, defect, assume_unique=True)
                missing = np.setdiff1d(defect, estimate, assume_unique=True)
                fp_items += int(extra.size)
                if missing.size:
                    wrong += 1
    return errors, fp_items, amb_blocks, wrong


def exhaustive_errors(matrix: TestMatrix, plan, d: int) -> int:
    """How many size-d defective sets ``plan`` decodes wrongly or ambiguously,
    one set at a time."""
    n = matrix.num_items
    errors = 0
    for combo in itertools.combinations(range(n), d):
        estimate, ambiguous = plan.decode_bits(evaluate(matrix, DefectiveSet(combo, n)))[:2]
        errors += bool(ambiguous) or not np.array_equal(estimate, combo)
    return errors


def bayes_optimal_error(matrix: TestMatrix, sigma: float, prior) -> float:
    """Exact MAP error over all 2^n inputs and 2^T observations, with the
    signatures, popcounts and likelihoods built in Python loops and tables.
    Takes the arguments that ``sim.bayes_optimal_error`` accepts."""
    n, num_tests = matrix.num_items, matrix.num_tests
    col_mask = np.zeros(n, dtype=np.uint32)
    for t, row in enumerate(matrix.rows):
        for i in row:
            col_mask[i] |= np.uint32(1 << t)

    # outcome signature of every input set, via lowest-set-bit recursion
    num_inputs = 1 << n
    signatures = np.zeros(num_inputs, dtype=np.uint32)
    for x in range(1, num_inputs):
        low = x & (-x)
        signatures[x] = signatures[x ^ low] | col_mask[low.bit_length() - 1]

    popcount_inputs = np.array([bin(x).count("1") for x in range(num_inputs)])
    if prior.kind == PRIOR_IID_BERNOULLI:
        p = prior.d / n
        weights = p**popcount_inputs * (1.0 - p) ** (n - popcount_inputs)
    else:
        weights = np.where(
            popcount_inputs == prior.d, 1.0 / math.comb(n, prior.d), 0.0
        )

    # likelihood of an observation depends only on its Hamming distance to
    # the noiseless signature
    flip_likelihood = sigma ** np.arange(num_tests + 1) * (1.0 - sigma) ** (
        num_tests - np.arange(num_tests + 1)
    )
    popcount16 = np.array([bin(v).count("1") for v in range(1 << num_tests)],
                          dtype=np.int64)

    captured = 0.0
    num_observations = 1 << num_tests
    # keep the (inputs x observations) work arrays around 16 MB
    chunk = max(256, (1 << 21) // num_inputs)
    for lo in range(0, num_observations, chunk):
        observed = np.arange(lo, min(lo + chunk, num_observations), dtype=np.uint32)
        distance = popcount16[np.bitwise_xor.outer(signatures, observed)]
        posterior = weights[:, None] * flip_likelihood[distance]
        captured += float(posterior.max(axis=0).sum())
    # captured can exceed 1 by a few ulp when the decoder is perfect
    return max(0.0, 1.0 - captured)


def _hypergrid_rows(start: int, size: int, gamma: int) -> tuple[np.ndarray, np.ndarray]:
    """Row lengths and concatenated items of one digit grid whose local item
    0 is item ``start``: one pass per axis, digits taken from base**axis."""
    base = int_root_ceil(size, gamma)
    local = np.arange(size, dtype=np.int64)
    lengths, items = [], []
    for axis in range(gamma):
        digits = (local // base**axis) % base
        lengths.append(np.bincount(digits, minlength=min(base, ceil_div(size, base**axis))))
        items.append(start + np.argsort(digits, kind="stable"))
    return np.concatenate(lengths), np.concatenate(items)


def hypergrid_design(n: int, gamma: int) -> TestMatrix:
    lengths, items = _hypergrid_rows(0, n, gamma)
    return TestMatrix.from_csr(_offsets(lengths), items, num_items=n, col_limit=gamma,
                               row_limit=None, design_tag=TAG_HYPERGRID)


def block_hypergrid_design(n: int, d: int, gamma: int, epsilon: float) -> TestMatrix:
    starts = balanced_block_starts(n, hypergrid_block_count(d, epsilon))
    lengths, items = [], []
    for start, end in zip(starts, starts[1:] + (n,)):
        block_lengths, block_items = _hypergrid_rows(start, end - start, gamma)
        lengths.append(block_lengths)
        items.append(block_items)
    return TestMatrix.from_csr(_offsets(np.concatenate(lengths)), np.concatenate(items),
                               num_items=n, col_limit=gamma, row_limit=None,
                               design_tag=TAG_BLOCK_HYPERGRID, block_starts=starts)


def block_binary_rho_design(n: int, d: int, rho: int, epsilon: float) -> TestMatrix:
    starts = balanced_block_starts(n, binary_block_count(n, d, rho, epsilon))
    lengths, items = [], []
    for start, end in zip(starts, starts[1:] + (n,)):
        labels = np.arange(1, end - start + 1)
        for r in range((end - start).bit_length()):
            members = labels[(labels >> r) & 1 == 1]
            lengths.append(members.size)
            items.append(start - 1 + members)
    return TestMatrix.from_csr(_offsets(lengths), np.concatenate(items), num_items=n,
                               col_limit=None, row_limit=rho,
                               design_tag=TAG_BLOCK_BINARY_RHO, block_starts=starts)
