"""Core types and operations for non-adaptive group testing.

A test design is a boolean incidence structure over ``n`` items: each test
(row) pools a subset of items, and a test comes back positive exactly when it
contains at least one defective item. This module holds the value types shared
by the rest of the package (test matrices, defective sets, outcome vectors,
parameter bundles), the OR-channel evaluation, the symmetric bit-flip noise
channel, structural validation, and the text serialization of designs.

Indices are 0-based everywhere in code and in files; the CLI additionally
prints 1-based test labels where it echoes per-test detail.
"""

from __future__ import annotations

import itertools
import math
import numbers
import warnings
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from functools import cache, cached_property, partial
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "GroupTestingError",
    "InvalidParameterError",
    "RegimeError",
    "ParseError",
    "ResourceCapError",
    "WorkerLostError",
    "IncompatibleDecoderError",
    "TAG_RANDOM_GAMMA",
    "TAG_HYPERGRID",
    "TAG_BLOCK_HYPERGRID",
    "TAG_PERMUTED_RHO",
    "TAG_BLOCK_BINARY_RHO",
    "TAG_REPEATED",
    "TAG_CUSTOM",
    "DESIGN_TAGS",
    "PRIOR_UNIFORM_EXACT",
    "PRIOR_IID_BERNOULLI",
    "Prior",
    "DefectiveSet",
    "Outcomes",
    "TestMatrix",
    "DesignParams",
    "Violation",
    "evaluate",
    "apply_noise",
    "validate",
    "serialize",
    "parse",
    "serialize_outcomes",
    "parse_outcomes",
    "iceil",
]


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------


class GroupTestingError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(GroupTestingError, ValueError):
    """An argument violates a documented precondition."""


class RegimeError(InvalidParameterError):
    """Parameters fall outside the regime where a construction or bound applies."""


class ParseError(GroupTestingError, ValueError):
    """A design or outcome file is malformed. Carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ResourceCapError(GroupTestingError, RuntimeError):
    """A requested computation exceeds a configured size cap."""


class WorkerLostError(ResourceCapError):
    """A worker process of a parallel run ended before it returned its
    trials, as when the operating system ends it for lack of memory."""


class IncompatibleDecoderError(GroupTestingError, ValueError):
    """The requested decoder cannot be applied to the given matrix/noise pairing."""


# ---------------------------------------------------------------------------
# design tags and priors
# ---------------------------------------------------------------------------

TAG_RANDOM_GAMMA = "random-gamma"
TAG_HYPERGRID = "hypergrid"
TAG_BLOCK_HYPERGRID = "block-hypergrid"
TAG_PERMUTED_RHO = "permuted-rho"
TAG_BLOCK_BINARY_RHO = "block-binary-rho"
TAG_REPEATED = "repeated"
TAG_CUSTOM = "custom"

DESIGN_TAGS = frozenset(
    {
        TAG_RANDOM_GAMMA,
        TAG_HYPERGRID,
        TAG_BLOCK_HYPERGRID,
        TAG_PERMUTED_RHO,
        TAG_BLOCK_BINARY_RHO,
        TAG_REPEATED,
        TAG_CUSTOM,
    }
)

PRIOR_UNIFORM_EXACT = "uniform-exact-d"
PRIOR_IID_BERNOULLI = "iid-bernoulli"


@dataclass(frozen=True)
class Prior:
    """Distribution of the defective set.

    ``uniform-exact-d`` draws a uniformly random size-``d`` subset of items;
    ``iid-bernoulli`` marks each item defective independently with probability
    ``d / n`` (so ``d`` is the expected number of defectives).
    """

    kind: str
    d: int

    def __post_init__(self) -> None:
        if self.kind not in (PRIOR_UNIFORM_EXACT, PRIOR_IID_BERNOULLI):
            raise InvalidParameterError(f"unknown prior kind: {self.kind!r}")
        object.__setattr__(self, "d", _parameter("prior d", self.d))


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DefectiveSet:
    """A set of defective items inside a universe of ``universe`` items.

    Items are stored as a strictly increasing tuple; any iterable is accepted
    and normalized (duplicates collapse, order is ignored).
    """

    items: tuple[int, ...]
    universe: int

    def __init__(self, items: Iterable[int], universe: int):
        universe = _parameter("universe", universe)
        normalized = tuple(sorted({_parameter("item", i, n=universe) for i in items}))
        object.__setattr__(self, "items", normalized)
        object.__setattr__(self, "universe", universe)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[int]:
        return iter(self.items)

    def __contains__(self, item: int) -> bool:
        return item in set(self.items)

    def as_mask(self) -> np.ndarray:
        mask = np.zeros(self.universe, dtype=bool)
        if self.items:
            mask[list(self.items)] = True
        return mask


@dataclass(frozen=True, eq=False)
class Outcomes:
    """An outcome vector: one boolean per test, True = positive.

    ``noisy`` records whether the vector passed through the bit-flip channel.
    The underlying array is write-locked; treat instances as immutable.
    """

    bits: np.ndarray
    noisy: bool = False

    def __post_init__(self) -> None:
        arr = np.array(self.bits, dtype=bool, copy=True)
        arr.setflags(write=False)
        object.__setattr__(self, "bits", arr)

    @property
    def num_tests(self) -> int:
        return int(self.bits.shape[0])

    def positives(self) -> tuple[int, ...]:
        """Indices of positive tests, 0-based."""
        return tuple(int(i) for i in np.flatnonzero(self.bits))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Outcomes):
            return NotImplemented
        return self.noisy == other.noisy and np.array_equal(self.bits, other.bits)

    def __repr__(self) -> str:
        word = "".join("1" if b else "0" for b in self.bits)
        return f"Outcomes({word!r}, noisy={self.noisy})"


# item indices are stored as int32; every index of a valid matrix fits
_MAX_ITEMS = 2**31
# incidences per item range and per block of rows of the column index build
_INDEX_RANGE = 1 << 18
_INDEX_BLOCK = 1 << 16
# entries per piece of rows' copies (256 KiB of int32)
_ROW_CHUNK = 1 << 16


def _key_dtype(num_items: int, shift: int) -> type:
    """The unsigned dtype of keys ``item << shift | low``, for items below
    ``num_items`` and ``low`` below ``1 << shift``: 32 bits where they fit."""
    return np.uint32 if num_items << shift <= 1 << 32 else np.uint64


def _test_dtype(num_tests: int) -> np.dtype:
    """The narrowest unsigned dtype that holds every test number of a
    matrix of ``num_tests`` tests: the dtype of its column index's tests,
    and of the COMA test table taken from them."""
    return np.min_scalar_type(max(num_tests - 1, 0))


def _index_dtype(limit: int) -> type:
    """The signed dtype of a batch's index arrays whose values lie below
    ``limit``: int32 where ``limit`` is below 2**31, else int64. Trial
    numbers, gathered positions, keys and block tables are formed in it
    with an explicit ``dtype=``, never by promotion, which NumPy 1.23 and 2
    resolve differently for an int32 array times a Python int. They index
    through ``np.take``, as a fancy index of another dtype than intp takes
    NumPy's slower general path."""
    return np.int32 if limit < 2**31 else np.int64


# the design-file header's fields in written order: (key, field, default)
_HEADER_FIELDS = (
    ("gamma", "col_limit", None),
    ("rho", "row_limit", None),
    ("tag", "design_tag", TAG_CUSTOM),
    ("k", "repeat_k", 1),
    ("base", "base_tag", None),
    ("blocks", "block_starts", None),
)


def _field_value(key: str, text: str, num_items: int | None, error) -> object:
    """The value of header field ``key`` (or "T" or "n") written as ``text``, else
    ``error(message)`` raised; with ``num_items`` None, any block offsets."""
    if key in ("tag", "base"):
        if text not in DESIGN_TAGS:
            raise error(f"unknown {'design' if key == 'tag' else 'base'} tag {text!r}")
        return text
    if key == "blocks":
        try:
            starts = tuple(map(int, text.split(","))) if text or num_items else ()
        except ValueError:
            raise error(f"blocks must be comma-separated integers, got {text!r}") from None
        if num_items and not _well_formed_blocks(starts, num_items):
            raise error("block offsets must start at 0, increase strictly, and stay below n")
        return starts
    name = {"n": "item count n", "T": "test count T"}.get(key, key)
    try:
        value = int(text)
    except ValueError:
        raise error(f"{_PARAMETERS[name][0]} must be an integer, got {text!r}") from None
    value = _parameter(name, value, error=lambda message: error(f"{message}, got {value}"))
    if key == "n" and value > _MAX_ITEMS:
        raise error(f"item count n must be <= {_MAX_ITEMS}, got {value}")
    return value


def _field_text(value) -> str:
    """A header value as written: a tuple (block offsets) comma-separated."""
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def _read_back(key: str, value) -> object:
    """``value`` (a sequence as a tuple) as parse reads its written text;
    :class:`InvalidParameterError` if it reads back as anything else."""
    if np.iterable(value) and not isinstance(value, str):
        value = tuple(value)
    read = _field_value(key, text := _field_text(value), None, InvalidParameterError)
    if read != value:
        raise InvalidParameterError(f"{key}={text} reads back as {read!r}, not {value!r}")
    return read


class TestMatrix:
    """A pooling design: test ``t`` pools the items
    ``indices[indptr[t]:indptr[t + 1]]``.

    Incidences are stored as compressed sparse rows (CSR): ``indptr`` is an
    int64 array of T + 1 offsets and ``indices`` an int32 array of item
    indices, both write-locked. An index outside int32 raises
    :class:`InvalidParameterError`; nothing wraps. ``rows`` returns the
    same incidences as a tuple of tuples; it is derived on every call and
    not stored. The column index (CSC, see :meth:`column_index`) and the
    column weights are computed on first use and cached on the instance;
    they are not pickled. A constructor whose every item lies in the same
    number of tests hands over its column tests (see :func:`_adopt_csr`),
    and they are read from that instead of sorted out of the rows; a
    matrix from :meth:`from_csr`, :func:`parse` or pickling sorts them.

    A repeated design from :func:`~sparsegt.designs.repeat_design` holds
    its base matrix and k instead of the copies (:func:`_adopt_base`). Its
    ``num_tests``, :meth:`ones_count` and hash are the base's counts times
    k, and it pickles as its base and k. Its ``indptr`` and ``indices`` are
    derived once, on their first read, which ``rows``,
    :meth:`row_weights`, the column index and weights, :func:`serialize`,
    :func:`validate` and ``==`` make.

    ``col_limit`` caps how many tests any single item may appear in (item
    divisibility); ``row_limit`` caps how many items any single test may pool
    (test size). Either may be None when unconstrained. Block designs carry
    ``block_starts``, the start offsets of the contiguous item blocks (always
    beginning with 0). Repeated designs carry ``repeat_k`` > 1 and the
    ``base_tag`` of the design whose rows were duplicated.

    Construction refuses a value of n or of a header field that
    :func:`parse` would refuse, but keeps malformed block offsets and rows
    on purpose, so that :func:`validate` reports them rather than
    half-rejecting them. Instances are immutable and compare by content.
    """

    __test__ = False  # keep pytest from collecting this as a test class
    _columns = None  # a column provider, set only by _adopt_csr
    _base = None  # the base matrix of a repeated design, set only by _adopt_base

    num_items: int
    col_limit: int | None
    row_limit: int | None
    design_tag: str
    block_starts: tuple[int, ...] | None
    base_tag: str | None
    repeat_k: int

    def __init__(
        self,
        rows: Iterable[Iterable[int]],
        num_items: int,
        col_limit: int | None = None,
        row_limit: int | None = None,
        design_tag: str = TAG_CUSTOM,
        block_starts: Iterable[int] | None = None,
        base_tag: str | None = None,
        repeat_k: int = 1,
    ):
        rows = [[_parameter("row item", i) for i in row] for row in rows]
        indptr = _offsets([len(row) for row in rows])
        try:
            indices = np.array([i for row in rows for i in row], dtype=np.int64)
        except OverflowError:
            raise InvalidParameterError("item indices must fit in int32") from None
        self._init(indptr, indices, num_items, col_limit=col_limit, row_limit=row_limit,
                   design_tag=design_tag, block_starts=block_starts, base_tag=base_tag,
                   repeat_k=repeat_k)

    @classmethod
    def from_csr(
        cls,
        indptr: np.ndarray,
        indices: np.ndarray,
        num_items: int,
        col_limit: int | None = None,
        row_limit: int | None = None,
        design_tag: str = TAG_CUSTOM,
        block_starts: Iterable[int] | None = None,
        base_tag: str | None = None,
        repeat_k: int = 1,
    ) -> TestMatrix:
        """Build from CSR arrays (copied); the other arguments are as for
        the constructor."""
        matrix = cls.__new__(cls)
        matrix._init(indptr, indices, num_items, col_limit=col_limit, row_limit=row_limit,
                     design_tag=design_tag, block_starts=block_starts, base_tag=base_tag,
                     repeat_k=repeat_k)
        return matrix

    def _init(self, indptr, indices, num_items, copy: bool = True, **fields) -> None:
        header = _header(num_items, fields)
        indptr = (np.array if copy else np.asarray)(indptr, dtype=np.int64)
        indices = np.asarray(indices)
        if indices.size and not np.issubdtype(indices.dtype, np.integer):
            raise InvalidParameterError("item indices must be integers")
        if indices.ndim != 1 or indptr.ndim != 1 or indptr.size < 1:
            raise InvalidParameterError("indptr and indices must be 1-D, indptr non-empty")
        if indptr[0] != 0 or indptr[-1] != indices.size or np.any(np.diff(indptr) < 0):
            raise InvalidParameterError(
                "indptr must start at 0, not decrease, and end at len(indices)"
            )
        if indices.size and (indices.min() < -_MAX_ITEMS or indices.max() >= _MAX_ITEMS):
            raise InvalidParameterError("item indices must fit in int32")
        indices = indices.astype(np.int32, copy=copy)
        indptr.setflags(write=False)
        indices.setflags(write=False)
        self.__dict__.update(header, indptr=indptr, indices=indices)

    @cached_property
    def indptr(self) -> np.ndarray:
        """The int64 CSR offsets; a matrix holding its base derives them."""
        return self._copies()[0]

    @cached_property
    def indices(self) -> np.ndarray:
        """The int32 item indices; a matrix holding its base derives them."""
        return self._copies()[1]

    def _copies(self) -> tuple[np.ndarray, np.ndarray]:
        """The CSR arrays of a matrix that holds its base: k consecutive
        copies of each base row (:func:`_copy_rows`), write-locked and kept
        as ``indptr`` and ``indices``. Called once, by whichever of the two
        is read first."""
        base = self._base
        indptr, indices = _copy_rows(base.indices, base.indptr[:-1], base.row_weights(),
                                     self.repeat_k)
        indptr.setflags(write=False)
        indices.setflags(write=False)
        self.__dict__.update(indptr=indptr, indices=indices)
        return indptr, indices

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _metadata(self) -> tuple:
        return (self.num_items, self.col_limit, self.row_limit, self.design_tag,
                self.block_starts, self.base_tag, self.repeat_k)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TestMatrix):
            return NotImplemented
        return (
            self._metadata() == other._metadata()
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self) -> int:
        return hash((self._metadata(), self.ones_count()))

    def __reduce__(self):
        if self._base is not None:  # the base and k, not the copies
            return (_adopt_base, (self._base, *self._metadata()))
        return (type(self).from_csr, (self.indptr, self.indices, *self._metadata()))

    def __repr__(self) -> str:
        return (
            f"TestMatrix(num_tests={self.num_tests}, num_items={self.num_items}, "
            f"ones={self.ones_count()}, design_tag={self.design_tag!r})"
        )

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The items of each test, derived from the CSR arrays on each call."""
        flat = self.indices.tolist()
        bounds = self.indptr.tolist()
        return tuple(tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:]))

    @property
    def num_tests(self) -> int:
        if self._base is not None:
            return self._base.num_tests * self.repeat_k
        return self.indptr.size - 1

    def row_weights(self) -> np.ndarray:
        return np.diff(self.indptr)

    def column_weights(self) -> np.ndarray:
        """How many incidences each item has (write-locked, cached).
        Raises :class:`InvalidParameterError` when an index lies outside
        [0, num_items)."""
        return self._column_weights

    def column_index(self) -> tuple[np.ndarray, np.ndarray]:
        """The CSC column index ``(col_indptr, tests)``: item ``i`` is pooled
        by the tests ``tests[col_indptr[i]:col_indptr[i + 1]]``, in increasing
        order. ``col_indptr`` is int64 and ``tests`` the narrowest unsigned
        dtype that holds T - 1 (:func:`_test_dtype`: 2 bytes an incidence
        below 65 536 tests); both write-locked, cached. Raises like
        :meth:`column_weights`.

        It is built with no 64-bit key per incidence. The items are cut
        into ranges of about ``_INDEX_RANGE`` incidences, and the rows into
        blocks of about ``_INDEX_BLOCK``. A block's keys ``item << s |
        (test - first test)``, sorted in 32 bits where they fit, hold each
        range's incidences as one run, which is staged as the range's keys
        ``(item - first item) << b | test``, b the bits of T - 1. Sorted,
        a range's keys order its incidences by item and then by test, and
        their low bits are its tests. Besides the index it holds the staged
        keys (4 bytes an incidence where they fit in 32 bits) and one
        block's keys. A design whose incidences fit one range sorts its
        keys at once.

        A matrix with a column provider (:func:`_adopt_csr`) has each item
        in the same number c of tests: its offsets are ``c * i``, and its
        tests come from the provider, with no sort."""
        return self._column_index

    @cached_property
    def _column_weights(self) -> np.ndarray:
        if self._columns is not None:
            weights = np.full(self.num_items, self._columns[0], dtype=np.int64)
        else:
            _checked_max_index(self.indices, self.num_items)
            # bincount would cast the int32 indices to an intp copy; add.at
            # reads them as they are, nearly as fast
            weights = np.zeros(self.num_items, dtype=np.int64)
            np.add.at(weights, self.indices, 1)
        weights.setflags(write=False)
        return weights

    @cached_property
    def _column_index(self) -> tuple[np.ndarray, np.ndarray]:
        if self._columns is not None:
            weight, provide = self._columns
            col_indptr = np.arange(self.num_items + 1, dtype=np.int64) * weight
            tests = provide(self.indices)
            col_indptr.setflags(write=False)
            tests.setflags(write=False)
            return col_indptr, tests
        col_indptr = _offsets(self.column_weights())
        bits = max(self.num_tests - 1, 0).bit_length()
        tests = np.empty(self.indices.size, dtype=_test_dtype(self.num_tests))
        items = _cuts(col_indptr, _INDEX_RANGE)
        ranges = list(zip(items, items[1:]))
        # each range's keys (item - first item) << bits | test: sorted, they
        # order its incidences by item, then by test, and their low bits
        # are then its tests
        if len(ranges) == 1:
            staged = [self._row_keys(0, self.num_tests, bits)]
        else:
            staged = [np.empty(col_indptr[hi] - col_indptr[lo], dtype=_key_dtype(hi - lo, bits))
                      for lo, hi in ranges]
            filled = [0] * len(ranges)
            rows = _cuts(self.indptr, _INDEX_BLOCK)
            for t0, t1 in zip(rows, rows[1:]):
                # a block's keys item << shift | (test - t0), sorted, hold
                # each range's incidences as one run
                shift = max(t1 - t0 - 1, 0).bit_length()
                keys = self._row_keys(t0, t1, shift)
                keys.sort()
                firsts = np.array(items[1:-1], dtype=keys.dtype) << shift
                at = [0, *np.searchsorted(keys, firsts).tolist(), keys.size]
                for r, (a, b) in enumerate(zip(at, at[1:])):
                    run, out = keys[a:b], staged[r][filled[r] : filled[r] + b - a]
                    np.right_shift(run, shift, out=out)
                    out -= items[r]
                    out <<= bits
                    run &= (1 << shift) - 1
                    run += t0
                    out |= run
                    filled[r] += b - a
        for (lo, hi), keys in zip(ranges, staged):
            keys.sort()
            keys &= (1 << bits) - 1
            tests[col_indptr[lo] : col_indptr[hi]] = keys
        col_indptr.setflags(write=False)
        tests.setflags(write=False)
        return col_indptr, tests

    def _row_keys(self, t0: int, t1: int, shift: int) -> np.ndarray:
        """The keys ``item << shift | (test - t0)`` of the incidences of
        rows ``t0`` to ``t1 - 1``, in CSR order, in 32 bits where they fit."""
        keys = self.indices[self.indptr[t0] : self.indptr[t1]].astype(
            _key_dtype(self.num_items, shift))
        keys <<= shift
        keys |= np.repeat(np.arange(t1 - t0, dtype=_test_dtype(t1 - t0)),
                          np.diff(self.indptr[t0 : t1 + 1]))
        return keys

    def ones_count(self) -> int:
        if self._base is not None:
            return self._base.ones_count() * self.repeat_k
        return int(self.indices.size)

    def block_bounds(self) -> tuple[tuple[int, int], ...]:
        """(start, end) item ranges of the blocks; the whole item range
        counts as a single block when no block structure is recorded."""
        starts = (0,) if self.block_starts is None else self.block_starts
        return tuple(zip(starts, starts[1:] + (self.num_items,)))


def _adopt_csr(indptr: np.ndarray, indices: np.ndarray, num_items: int,
               columns: tuple | None = None, **fields) -> TestMatrix:
    """:meth:`TestMatrix.from_csr` without its copy, for int64 offsets and
    int32 indices that the caller built and holds no other reference to:
    they are write-locked and kept as they are.

    ``columns``, the one way to hand a matrix its column tests, is a
    provider ``(c, provide)`` for a design that puts every item in exactly
    c tests. ``provide(indices)``, called once on first use with the
    matrix's indices, returns the tests of its column index
    (:meth:`TestMatrix.column_index`): c per item, item by item, each
    item's increasing, in ``_test_dtype(T)``. It must hold no reference to
    the matrix."""
    matrix = TestMatrix.__new__(TestMatrix)
    matrix._init(indptr, indices, num_items, **fields, copy=False)
    if columns is not None:
        matrix.__dict__["_columns"] = columns
    return matrix


def _adopt_base(base: TestMatrix, num_items: int, col_limit: int | None = None,
                row_limit: int | None = None, design_tag: str = TAG_CUSTOM,
                block_starts: Iterable[int] | None = None, base_tag: str | None = None,
                repeat_k: int = 1) -> TestMatrix:
    """The design of ``repeat_k`` consecutive copies of each row of
    ``base``, a matrix over the same ``num_items`` items; the other
    arguments are as for :meth:`TestMatrix.from_csr`. The one way a matrix
    holds its base: it keeps ``base`` and k, and derives the CSR arrays of
    the copies on their first read (:meth:`TestMatrix._copies`). The
    majority plan evaluates ``base`` itself, with no copy check, as its
    groups are copies by construction."""
    matrix = TestMatrix.__new__(TestMatrix)
    matrix.__dict__.update(_header(num_items, dict(
        col_limit=col_limit, row_limit=row_limit, design_tag=design_tag,
        block_starts=block_starts, base_tag=base_tag, repeat_k=repeat_k)), _base=base)
    return matrix


def _header(num_items, fields: dict) -> dict:
    """``num_items`` and the header ``fields`` (each field's default where
    it is absent or is the default) as :func:`parse` reads their written
    text (:func:`_read_back`), keyed by field."""
    num_items = _read_back("n", num_items)
    return {"num_items": num_items, **{
        field: value if (value := fields.get(field, default)) is default
        else _read_back(key, value) for key, field, default in _HEADER_FIELDS}}


def _checked_max_index(indices: np.ndarray, num_items: int) -> int:
    """The largest item index (0 with none), after one min/max pass that
    refuses an index outside [0, num_items), which ``parse`` would refuse."""
    low, high = (int(indices.min()), int(indices.max())) if indices.size else (0, 0)
    if low < 0 or high >= num_items:
        raise InvalidParameterError(
            f"matrix has item indices outside [0, {num_items}); validate() lists them"
        )
    return high


def _well_formed_blocks(starts, num_items: int) -> bool:
    """Whether block offsets start at 0, increase strictly and stay below
    ``num_items``: the block check of parse, validate and the block plans."""
    try:
        starts = np.asarray(starts, dtype=np.int64)
    except OverflowError:  # no valid offset lies outside int64
        return False
    return bool(starts.size and starts[0] == 0 and starts[-1] < num_items
                and (np.diff(starts) > 0).all())


def _offsets(lengths) -> np.ndarray:
    """CSR offsets (int64, from 0) of consecutive rows of the given lengths."""
    indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(lengths)
    return indptr


def _cuts(offsets: np.ndarray, size: int) -> list[int]:
    """Where chunks of about ``size`` entries start under the CSR
    ``offsets``: 0, the first row at or past each multiple of ``size``
    entries, and the end (the row count). A row longer than ``size`` is one
    chunk. (The first call of np.unique in a process holds 0.3-1.3 MB of
    RSS for good, so the cuts are deduplicated as a set.)"""
    at = np.searchsorted(offsets, np.arange(0, offsets[-1], size))
    return sorted({0, *at.tolist(), offsets.size - 1})


def _ragged(starts: np.ndarray, lengths: np.ndarray, size: int) -> np.ndarray:
    """The positions ``starts[k] .. starts[k] + lengths[k] - 1`` for every
    ``k``, concatenated in order (a ragged arange), into an array of
    ``size`` entries: in ``_index_dtype(size)``, int32 below 2**31."""
    dtype = _index_dtype(size)
    positions = np.repeat((starts - np.cumsum(lengths) + lengths).astype(dtype), lengths)
    positions += np.arange(positions.size, dtype=dtype)
    return positions


def _rows_with(cells: np.ndarray) -> np.ndarray:
    """Which rows of a 2-D bool array hold a set cell: one ``flatnonzero``,
    much faster than ``any(axis=1)`` when few cells are set."""
    rows = np.zeros(len(cells), dtype=bool)
    rows[np.flatnonzero(cells) // max(1, cells.shape[1])] = True
    return rows


def _length_classes(lengths: np.ndarray, k: int) -> Iterator[tuple[int, list[np.ndarray]]]:
    """``(length, pieces)`` for each nonzero length in ``lengths``, shortest
    first: the rows of that length in order, in pieces of as many rows as
    ``k`` copies of fit in ``_ROW_CHUNK`` entries (one at least)."""
    counts = np.bincount(lengths)  # not np.unique, which holds RSS (see _cuts)
    # a stable sort of 16-bit keys is a radix sort, 3 times as fast as int64's
    order = np.argsort(lengths.astype(np.min_scalar_type(counts.size - 1)), kind="stable")
    ends = np.cumsum(counts).tolist()
    for length in np.flatnonzero(counts[1:]).tolist():
        step = max(1, _ROW_CHUNK // (k * (length + 1)))
        yield length + 1, [order[at : min(at + step, ends[length + 1])]
                           for at in range(ends[length], ends[length + 1], step)]


def _blocks(array: np.ndarray, k: int, length: int) -> np.ndarray:
    """The ``k * length`` entries of a contiguous 1-D ``array`` from each
    position as ``k`` rows: a ``(positions, k, length)`` view, writeable
    where ``array`` is, and the one aliasing view of the package. Nearby
    blocks overlap, so a write through it targets blocks that do not."""
    step = array.itemsize
    return np.ndarray((array.size - k * length + 1, k, length), array.dtype, array,
                      strides=(step, length * step, step))


def _copy_rows(indices: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
               k: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR arrays (int64, int32) of ``k`` consecutive copies of each row
    ``r``, the ``lengths[r]`` entries of ``indices`` from ``starts[r]``.
    The copies of a row of length L are one block of k * L entries, written
    for a piece of rows of one length at once (:func:`_length_classes`)."""
    indptr = _offsets(np.repeat(lengths, k))
    out = np.empty(int(indptr[-1]), dtype=np.int32)
    for length, pieces in _length_classes(lengths, k):
        rows, copies = _blocks(indices, 1, length), _blocks(out, k, length)
        for piece in pieces:
            copies[indptr[piece * k]] = rows[starts[piece]]
    return indptr, out


# ---------------------------------------------------------------------------
# named parameters
# ---------------------------------------------------------------------------

# Each named parameter's words, kind and range (the paper's, for epsilon,
# sigma and zeta), the one place a range is written; an upper end n is the
# item count its reader passes. One entry per range, named for its readers.
_PARAMETERS = {
    "n": ("n", int, "[2, inf)"),  # with a d below it
    "item count n": ("item count n", int, "[1, inf)"),  # without a d
    "test count T": ("test count T", int, "[0, inf)"),  # design-file header
    "row weight": ("row weight", int, "[0, inf)"),  # design-file rows
    "d": ("d", int, "[1, n)"),
    "oracle d": ("d", int, "[0, n]"),  # exact oracles
    "floor d": ("d", int, "[1, inf)"),  # noisy error floor, hypergrid block count
    "prior d": ("prior defective count d", int, "[0, inf)"),
    "gamma": ("gamma", int, "[1, inf)"),
    "rho": ("rho", int, "[1, inf)"),
    "k": ("repetition count k", int, "[1, inf)"),
    "blocks": ("num_blocks", int, "[1, inf)"),  # balanced_block_starts
    "trials": ("trials", int, "[0, inf)"),
    "errors": ("errors", int, "[0, n]"),  # of n trials
    "seed": ("master_seed", int, "[0, inf)"),
    "trial": ("trial", int, "[0, inf)"),
    "jobs": ("parallelism", int, "[1, inf)"),
    "cap": ("cap", int, "[0, inf)"),
    "universe": ("universe size", int, "[0, inf)"),
    "item": ("item index", int, "[0, n)"),  # DefectiveSet
    "row item": ("item index", int, "(-inf, inf)"),  # TestMatrix rows, which validate checks
    "epsilon": ("epsilon", float, "(0, 1/2)"),  # DesignParams, random_gamma_design
    "block epsilon": ("epsilon", float, "(0, 1)"),  # the two block families
    "sigma": ("sigma", float, "[0, 1/2)"),
    "floor sigma": ("sigma", float, "(0, 1/2)"),  # noisy error floor
    "zeta": ("zeta", float, "(0, inf)"),
    "count zeta": ("zeta", float, "(-inf, inf)"),  # repetition_count
    "target epsilon": ("target epsilon", float, "[0, 1]"),  # the CLI's error target
}
# each kind's types (bools aside) and its name in a refusal
_KINDS = {int: ((int, np.integer), "an integer"), float: (numbers.Real, "a real number")}


def _rule(words: str, kind: type, interval: str) -> tuple:
    """An entry of ``_PARAMETERS`` as ``_parameter`` reads it: its words and
    kind, its interval's ends (None for n), whether each is open, and the
    interval."""
    low, high = (None if end == "n" else 0.5 if end == "1/2" else float(end)
                 for end in interval[1:-1].split(", "))
    return words, kind, low, high, interval[0] == "(", interval[-1] == ")", interval


_RULES = {name: _rule(*entry) for name, entry in _PARAMETERS.items()}  # read once


def _parameter(name: str, value, n: int | None = None, label: str | None = None,
               error=InvalidParameterError):
    """``value`` as the Python int or float that parameter ``name`` takes by
    its rule in ``_PARAMETERS``. A bool, another value not of its kind, nan
    and a value outside its range (whose end n is ``n``) raise
    ``error(message)``, naming it ``label`` or else the entry's words; the
    range [a, inf) is worded "must be >= a", any other "must lie in" it."""
    words, kind, low, high, open_low, open_high, interval = _RULES[name]
    label = label or words
    if type(value) is not kind:
        kinds, noun = _KINDS[kind]
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise error(f"{label} must be {noun}, got {value!r}")
        try:
            value = kind(value)
        except OverflowError:  # an integer beyond float range
            value = math.inf if value > 0 else -math.inf
    high = n if high is None else high
    if (low < value if open_low else low <= value) and (
            value < high if open_high else value <= high):
        return value
    if not open_low and high == math.inf:
        raise error(f"{label} must be >= {low:g}")
    raise error(f"{label} must lie in {interval.replace(', n', f', {n}')}")


@dataclass(frozen=True)
class DesignParams:
    """Problem parameters shared by constructions and bound calculators.

    ``n`` items of which ``d`` are defective, target error probability
    ``epsilon``, per-item test budget ``gamma``, per-test item budget ``rho``,
    channel flip probability ``sigma``, and rate exponent ``zeta`` (used where
    the target error is expressed as a power of n). ``alpha`` and ``beta`` are
    the derived sparsity exponents d = n^alpha and rho = (n/d)^beta. Each
    field is read by its rule in ``_PARAMETERS``, as a Python int or float.
    """

    n: int
    d: int
    epsilon: float | None = None
    gamma: int | None = None
    rho: int | None = None
    sigma: float | None = None
    zeta: float | None = None

    def __post_init__(self) -> None:
        # n first, as d's range reads it; an optional field may stay None
        for field in fields(self):
            value = getattr(self, field.name)
            if value is not None or field.default is MISSING:
                object.__setattr__(self, field.name, _parameter(field.name, value, n=self.n))

    @property
    def alpha(self) -> float:
        """Defective-count exponent: d = n^alpha."""
        return math.log(self.d) / math.log(self.n)

    @property
    def beta(self) -> float:
        """Test-size exponent: rho = (n/d)^beta. Requires rho."""
        if self.rho is None:
            raise InvalidParameterError("beta requires rho to be set")
        return math.log(self.rho) / log_ratio(self.n, self.d)

    @property
    def effective_epsilon(self) -> float | None:
        """epsilon when given, else n^(-zeta) when zeta is given."""
        if self.epsilon is not None:
            return self.epsilon
        if self.zeta is not None:
            return float(self.n) ** (-self.zeta)
        return None


# ---------------------------------------------------------------------------
# numeric helpers
# ---------------------------------------------------------------------------


def _check_generator(rng) -> None:
    """Refuse an ``rng`` that is not a ``numpy.random.Generator``."""
    if not isinstance(rng, np.random.Generator):
        raise InvalidParameterError(
            f"rng must be a numpy.random.Generator, got {type(rng).__name__}")


def iceil(x: float) -> int:
    """Ceiling with a 1e-9 relative snap.

    Formula values like d^2/eps are computed in float64 from decimal inputs;
    a hair above an exact integer boundary must not bump the ceiling up. So
    x within 1e-9 * max(1, |x|) above an integer gives that integer, and
    any other x its ceiling: never less than ceil(x) - 1.
    A non-finite value (an overflowed formula) raises InvalidParameterError.
    """
    if not math.isfinite(x):
        raise InvalidParameterError(f"cannot round {x} up to an integer; parameters out of range")
    below = math.floor(x)
    return below if x - below <= 1e-9 * max(1.0, abs(x)) else below + 1


def log_ratio(num: int, den: int | float) -> float:
    """ln(num / den) for positive numbers: the log of the float quotient where
    there is one, else the difference of the logs, which loses nothing once
    the quotient is beyond float range."""
    try:
        return math.log(num / den)
    except OverflowError:
        return math.log(num) - math.log(den)


def int_root_ceil(value: int, k: int) -> int:
    """Smallest integer b with b**k >= value, for value and k >= 1 (exact)."""
    b = max(1, round(value ** (1.0 / k)))
    while b > 1 and (b - 1) ** k >= value:
        b -= 1
    while b**k < value:
        b += 1
    return b


# ---------------------------------------------------------------------------
# channel operations
# ---------------------------------------------------------------------------


def evaluate(matrix: TestMatrix, defectives: DefectiveSet) -> Outcomes:
    """Noiseless OR-channel outcomes: test t is positive iff it pools a defective."""
    if defectives.universe != matrix.num_items:
        raise InvalidParameterError(
            f"defective set is over {defectives.universe} items, "
            f"matrix has {matrix.num_items}"
        )
    items = np.asarray(defectives.items, dtype=np.int64)
    return Outcomes(_or_bits(*_or_gather(matrix, np.zeros_like(items), items), 1,
                             matrix.num_tests)[0])


def _or_gather(matrix: TestMatrix, trial: np.ndarray,
               items: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The OR channel's incidences over a batch of defective sets, on raw
    arrays: trial ``trial[k]`` holds item ``items[k]`` (distinct per trial,
    in range). Returns the (trial, test) pair of every incidence of the
    defectives, gathered from the CSC index item by item, so unsorted and
    with a pair repeated where two defectives of a trial share a test. The
    trials keep the dtype they come in (int32 from the harness), the tests
    the index's narrow unsigned dtype, and the positions read between are
    int32 below 2**31 index entries (:func:`_ragged`); a caller forms keys
    from them with :func:`_pair_keys`. The only OR evaluation, and every
    reader calls it itself: :func:`_or_bits` reduces its pairs to bool
    rows, :func:`_or_pairs` to sorted distinct pairs, and the decode plans
    take them as they come."""
    col_indptr, tests = matrix.column_index()
    starts = col_indptr[items]
    lengths = col_indptr[items + 1] - starts
    return np.repeat(trial, lengths), np.take(tests, _ragged(starts, lengths, tests.size))


def _pair_keys(trial: np.ndarray, low: np.ndarray, num_trials: int, width: int) -> np.ndarray:
    """The keys ``trial * width + low`` of pairs with ``trial`` below
    ``num_trials`` and ``low`` below ``width``, in
    ``_index_dtype(num_trials * width)``: int32 when every key is below
    2**31, else int64. :func:`_key_pairs` splits them again."""
    keys = np.multiply(trial, width, dtype=_index_dtype(num_trials * width))
    keys += low
    return keys


def _or_pairs(trial: np.ndarray, test: np.ndarray, num_trials: int,
              num_tests: int) -> tuple[np.ndarray, np.ndarray]:
    """The gathered (trial, test) pairs, trials below ``num_trials``, sorted
    by trial and then test and distinct, both in the dtype of their keys
    ``trial * num_tests + test`` (int32 below 2**31, see
    :func:`_pair_keys`): the keys sorted, keeping each first of a run of
    equal keys, and split again."""
    keys = _pair_keys(trial, test, num_trials, num_tests)
    keys.sort()
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    # free the sorted keys and the mask before the split, so that it peaks
    # at the distinct pairs
    keys = keys[first]
    del first
    return _key_pairs(keys, num_tests)


def _key_pairs(keys: np.ndarray, num_tests: int) -> tuple[np.ndarray, np.ndarray]:
    """The (trial, test) pairs of the keys ``trial * num_tests + test``, both
    in the keys' dtype; one integer division, which is about twice as fast
    as ``np.divmod``."""
    trial = np.floor_divide(keys, max(num_tests, 1), dtype=keys.dtype)
    test = np.multiply(trial, num_tests, dtype=keys.dtype)
    np.subtract(keys, test, out=test)
    return trial, test


def _or_bits(row: np.ndarray, col: np.ndarray, num_rows: int, num_cols: int) -> np.ndarray:
    """The (num_rows, num_cols) bool array with the bit of every pair
    (row, col) set, the pairs in any order and repeats allowed, as a
    repeated pair sets its bit again: so no sort."""
    bits = np.zeros((num_rows, num_cols), dtype=bool)
    # an intp scatter index, as fancy assignment through any other index
    # dtype is slower; formed as narrow keys, which is faster
    bits.reshape(-1)[_pair_keys(row, col, num_rows, num_cols).astype(np.intp, copy=False)] = True
    return bits


def apply_noise(outcomes: Outcomes, sigma: float, rng: np.random.Generator) -> Outcomes:
    """Flip each outcome bit independently with probability sigma.

    sigma = 0 returns the input unchanged and consumes no randomness.
    """
    sigma = _parameter("sigma", sigma)
    _check_generator(rng)
    if sigma == 0.0:
        return outcomes
    flips = np.empty(outcomes.num_tests, dtype=bool)
    _noise_flips(sigma, rng, np.empty(outcomes.num_tests), flips)
    return Outcomes(np.logical_xor(outcomes.bits, flips), noisy=True)


def _noise_flips(sigma: float, rng: np.random.Generator, draws: np.ndarray,
                 out: np.ndarray) -> None:
    """Which bits the bit-flip channel flips, written to the bool array
    ``out``: one ``rng.random`` draw per bit into the float64 scratch array
    ``draws`` (of the same size), flipping where it falls below sigma. The
    only noise draw; the harness calls it directly with its own arrays, and
    neither caller draws at sigma = 0."""
    np.less(rng.random(out=draws), sigma, out=out)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    """One structural invariant violation found by :func:`validate`."""

    kind: str
    subject: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} at {self.subject}: {self.detail}"


def validate(matrix: TestMatrix) -> list[Violation]:
    """Check every structural invariant; empty report means the matrix is valid.

    Checks: row indices in range and strictly increasing, row weights within
    row_limit, column weights within col_limit, block offsets well formed, and
    repeated designs made of consecutive duplicate row groups. Violations are
    listed row by row, then column by column, then blocks, then repetition.
    Column weights count each item once per row and skip rows holding an
    out-of-range index.

    Only the entries that fail the range or order check are mapped to their
    rows (by a search of ``indptr``). When every row passes both and the
    entries are at least n, the column weights are the matrix's cached
    :meth:`~TestMatrix.column_weights`, which the decode plans reuse.
    Otherwise only the columns the entries hold are counted, from the
    distinct (row, item) pairs, so no array of n counts is made.
    """
    report: list[Violation] = []
    n = matrix.num_items
    indptr, indices = matrix.indptr, matrix.indices
    lengths = matrix.row_weights()
    # as uint32, an int32 index below 0 reads as 2**31 or more, and n <= 2**31
    out_at = np.flatnonzero(indices.view(np.uint32) >= n)
    has_out = np.zeros(matrix.num_tests, dtype=bool)
    has_out[_row_of(indptr, out_at)] = True
    # an entry no greater than the one before it, unless it starts its row
    fall_at = np.flatnonzero(indices[1:] <= indices[:-1]) + 1
    fall_row = _row_of(indptr, fall_at)
    unordered = np.zeros(matrix.num_tests, dtype=bool)
    unordered[fall_row[indptr[fall_row] < fall_at]] = True
    heavy = np.zeros(matrix.num_tests, dtype=bool)
    if matrix.row_limit is not None:
        heavy = lengths > matrix.row_limit
    for t in np.flatnonzero(has_out | unordered | heavy).tolist():
        row = indices[indptr[t] : indptr[t + 1]]
        for i in row[row.view(np.uint32) >= n].tolist():
            report.append(Violation("index-range", f"row {t}", f"index {i} outside [0, {n})"))
        if unordered[t]:
            report.append(Violation("row-order", f"row {t}", "indices not strictly increasing"))
        if heavy[t]:
            report.append(
                Violation(
                    "row-weight",
                    f"row {t}",
                    f"weight {int(lengths[t])} exceeds limit {matrix.row_limit}",
                )
            )
    if matrix.col_limit is not None:
        if not (has_out.any() or unordered.any()) and n <= indices.size:
            col_weight = matrix.column_weights()
            cols = np.flatnonzero(col_weight > matrix.col_limit)
            weights = col_weight[cols]
        else:
            # only the columns the entries hold: a count of all n columns
            # may outweigh the entries by far (n up to 2**31)
            row_of = np.repeat(np.arange(matrix.num_tests), lengths)
            kept = ~has_out[row_of]
            # an unordered row may hold an item twice; it counts once
            pairs = np.unique(row_of[kept] * n + indices[kept])
            cols, weights = np.unique(pairs % n, return_counts=True)
            over = weights > matrix.col_limit
            cols, weights = cols[over], weights[over]
        for i, w in zip(cols.tolist(), weights.tolist()):
            report.append(
                Violation("col-weight", f"column {i}", f"weight {w} exceeds limit {matrix.col_limit}")
            )
    if matrix.block_starts is not None and not _well_formed_blocks(matrix.block_starts, n):
        report.append(Violation("block-structure", "block_starts",
                                "offsets must start at 0, increase strictly, and stay below n"))
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
        elif (g := _broken_repeat_group(matrix)) is not None:
            report.append(
                Violation(
                    "repetition",
                    f"rows {g * k}..{(g + 1) * k - 1}",
                    "repeated design rows must be consecutive duplicates",
                )
            )
    return report


def _row_of(indptr: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The row of each entry position ``at`` under the CSR offsets ``indptr``."""
    return np.searchsorted(indptr, at, side="right") - 1


def _broken_repeat_group(matrix: TestMatrix) -> int | None:
    """The first group of ``repeat_k`` consecutive rows that are not all
    copies of the group's first row, or None when every group is: the
    repetition check of validate and the majority plan. The row count must
    be a multiple of ``repeat_k``.

    A group whose rows differ in length is broken. The groups before the
    first such one are read as blocks of k rows of one length (as
    :func:`_copy_rows` writes them), in bounded pieces, and each copy is
    compared with the one before it."""
    k = matrix.repeat_k
    lengths = matrix.row_weights().reshape(-1, k)
    uneven = np.flatnonzero(lengths != lengths[:, :1])
    broken = int(uneven[0]) // k if uneven.size else len(lengths)
    for length, pieces in _length_classes(lengths[:broken, 0], k):
        blocks = _blocks(matrix.indices, k, length)
        for groups in pieces:
            copies = blocks[matrix.indptr[groups * k]].reshape(len(groups), -1)
            differ = np.flatnonzero(copies[:, length:] != copies[:, :-length])
            if differ.size:
                broken = min(broken, int(groups[differ[0] // ((k - 1) * length)]))
    return broken if broken < len(lengths) else None


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------
#
# Design file: '#' lines are comments; the first content line is
#   "T n [gamma=G] [rho=R] [tag=NAME] [k=K] [base=TAG] [blocks=s0,s1,...]"
# followed by exactly T content lines "w i_1 ... i_w" with strictly increasing
# 0-based indices. Outcome file: one content line of T characters '0'/'1'.


# tokens written per step: the step's arrays stay in cache, and serialize
# holds little beyond its text and the parts it joins
_SERIALIZE_CHUNK_TOKENS = 2**14
# a token is written in groups of 4 decimal digits
_GROUP = 10_000


@cache
def _group_words() -> np.ndarray:
    """One little-endian uint64 word per way of writing a 4-digit group, its
    bytes NUL-padded, at ``kind * 10**4 + value``. Kinds 0-2 write the value
    zero-padded to 4 digits, kinds 3-5 without leading zeros; kinds 0 and 3
    end there, 1 and 4 add a space and 2 and 5 a newline. The entry of kind
    3 and value 0, a leading group with no digits, is the zero word."""
    values = np.arange(_GROUP, dtype=np.uint16)[:, None]
    powers = np.array([1000, 100, 10, 1], dtype=np.uint16)
    padded = (values // powers % 10 + ord("0")).astype(np.uint8)
    leading = padded * ((values >= powers) | (powers == 1))
    table = np.zeros((6, _GROUP, 8), dtype=np.uint8)
    table[:3, :, :4], table[3:, :, :4] = padded, leading
    table[1::3, :, 4], table[2::3, :, 4] = ord(" "), ord("\n")
    table[3, 0] = 0
    return table.view("<u8").reshape(-1)


def _write_tokens(tokens: np.ndarray, row_ends: np.ndarray, groups: int) -> str:
    """The nonnegative int64 ``tokens`` in decimal, each followed by a
    space, or by a newline at the positions ``row_ends``. A token is
    gathered as ``groups`` words of :func:`_group_words`, most significant
    first, and the NUL bytes are dropped."""
    index = np.empty((tokens.size, groups), dtype=np.int64)
    above = 0  # the token's digits above the current group
    for j in range(groups):
        digits = tokens // _GROUP ** (groups - 1 - j) if j < groups - 1 else tokens
        # the first group with a digit is leading (kind 3), the later ones
        # padded (kind 0); a group before it is the zero word
        index[:, j] = digits + (3 * (above == 0) - above) * _GROUP
        above = digits
    index[:, -1] += _GROUP
    index[row_ends, -1] += _GROUP
    return _group_words().take(index).tobytes().translate(None, b"\0").decode()


def serialize(matrix: TestMatrix) -> str:
    """The design file of ``matrix``: the parts of :func:`_serialized_parts`
    joined. Raises :class:`InvalidParameterError`, before writing, when an
    item index lies outside [0, n), as :func:`parse` would refuse the file."""
    return "".join(_serialized_parts(matrix))


def _serialized_parts(matrix: TestMatrix) -> Iterator[str]:
    """The design file of ``matrix`` in parts, each formed as it is asked
    for: the header line, then the rows a chunk of about
    ``_SERIALIZE_CHUNK_TOKENS`` tokens (row weights and items) at a time,
    written from fixed tables of 4-digit groups: no Python object per token
    and no table sized by n. The indices are checked as :func:`serialize`
    documents before the header is given."""
    header = [str(matrix.num_tests), str(matrix.num_items),
              *(f"{key}={_field_text(value)}" for key, field, default in _HEADER_FIELDS
                if (value := getattr(matrix, field)) != default)]
    indptr, indices, lengths = matrix.indptr, matrix.indices, matrix.row_weights()
    top = max(_checked_max_index(indices, matrix.num_items), int(lengths.max(initial=0)))
    groups = 1 + (top >= _GROUP) + (top >= _GROUP**2)  # tokens <= 2**31 < 10**12
    yield " ".join(header) + "\n"
    # token offset of each row, and the rows where the chunks start
    starts = indptr + np.arange(indptr.size)
    cuts = _cuts(starts, _SERIALIZE_CHUNK_TOKENS)
    for lo, hi in zip(cuts, cuts[1:]):
        weight = starts[lo:hi] - starts[lo]  # the position of each row's weight
        is_item = np.ones(starts[hi] - starts[lo], dtype=bool)
        is_item[weight] = False
        tokens = np.empty(is_item.size, dtype=np.int64)
        tokens[is_item] = indices[indptr[lo] : indptr[hi]]
        tokens[weight] = lengths[lo:hi]
        yield _write_tokens(tokens, starts[lo + 1 : hi + 1] - starts[lo] - 1, groups)


def _content_lines(text: str, first_line: int = 1) -> list[tuple[int, str]]:
    """The stripped lines of ``text`` that are neither blank nor comments,
    with their 1-based line numbers, counted from ``first_line``. A line
    ends where ``str.splitlines`` ends one."""
    content = []
    for line_no, raw in enumerate(text.splitlines(), start=first_line):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            content.append((line_no, stripped))
    return content


def parse(text: str) -> TestMatrix:
    """Inverse of :func:`serialize`; raises :class:`ParseError` with the
    offending 1-based line number on any malformation.

    The lines are those of :func:`_content_lines`. The text is read in
    chunks of about ``_PARSE_CHUNK_CHARS`` characters, each ending at a
    "\n", and the header is the first content line of the leading chunks.
    Each chunk of rows goes to one C pass (:func:`_checked_rows`), which
    fills the one int32 array the reader returns, sized by the text's
    spaces. A chunk the pass refuses (one with blank, indented or comment
    lines, or other line ends) is split into its content lines, which go
    to the pass once more. A chunk refused twice (tabs, runs of spaces,
    signs, non-ASCII digits, or any malformation) or a row count other
    than T sends the whole text to :func:`_content_lines` and the per-line
    reader :func:`_read_rows`. These accept the same rows, several times
    more slowly on a large body, and raise the first failing line's error
    with its line number."""
    bounds = [0]
    while bounds[-1] < len(text):
        end = text.find("\n", bounds[-1] + _PARSE_CHUNK_CHARS - 1)
        bounds.append(len(text) if end < 0 else end + 1)
    spans = list(zip(bounds, bounds[1:]))
    chunks = (text[a:b] for a, b in spans)
    line_no = 1
    for chunk in chunks:
        content = _content_lines(chunk, line_no)
        if content:
            break
        line_no += len(chunk.splitlines())
    else:
        raise ParseError(1, "empty design file")
    header_no, header = content[0]
    # the rows of the header's chunk, as the C pass reads them
    rest = "".join(line + "\n" for _, line in content[1:])
    del content
    tokens = header.split()
    error = partial(ParseError, header_no)
    if len(tokens) < 2:
        raise error("header needs at least 'T n'")
    num_tests = _field_value("T", tokens[0], None, error)
    num_items = _field_value("n", tokens[1], None, error)
    field_of = {key: field for key, field, _ in _HEADER_FIELDS}
    fields = {}
    for token in tokens[2:]:
        key, sep, value = token.partition("=")
        if not sep:
            raise error(f"expected key=value, got {token!r}")
        if key not in field_of:
            raise error(f"unknown header key {key!r}")
        if field_of[key] in fields:
            raise error(f"repeated header key {key!r}")
        fields[field_of[key]] = _field_value(key, value, num_items, error)

    # a row line holds one space per index
    indices = np.empty(sum(_spaces(text[a:b].encode("ascii", "replace")) for a, b in spans),
                       dtype=np.int32)
    lengths = [np.empty(0, dtype=np.int64)]
    rows = None
    count = filled = 0
    for chunk in itertools.chain([rest], chunks):
        checked = _checked_rows(_row_bytes(chunk), num_items, indices[filled:])
        if checked is None:
            lines = "".join(line + "\n" for _, line in _content_lines(chunk))
            checked = _checked_rows(_row_bytes(lines), num_items, indices[filled:])
        if checked is None or count + checked.size > num_tests:
            break
        lengths.append(checked)
        count += checked.size
        filled += int(checked.sum())
    else:
        if count == num_tests:
            # a header's or comment line's spaces leave the end of the array unused
            rows = _offsets(np.concatenate(lengths)), indices[:filled]
    if rows is None:
        body = _content_lines(text)[1:]
        if len(body) < num_tests:
            last = body[-1][0] if body else header_no
            raise ParseError(
                last, f"expected {num_tests} row lines, found only {len(body)}"
            )
        if len(body) > num_tests:
            raise ParseError(body[num_tests][0], "trailing content after last row")
        rows = _read_rows(body, num_items)
    return _adopt_csr(*rows, num_items=num_items, **fields)


# characters of text read at a time; a chunk ends at a newline
_PARSE_CHUNK_CHARS = 1 << 18
# the bytes a row body may hold for the C pass
_ROW_BODY_BYTES = b"0123456789 \n"


def _spaces(data: bytes) -> int:
    """The spaces in ``data``, counted by NumPy: several times faster than
    ``bytes.count`` or ``str.count``."""
    return int(np.count_nonzero(np.frombuffer(data, dtype=np.uint8) == ord(" ")))


def _row_bytes(piece: str) -> bytes:
    """``piece`` as ASCII bytes for :func:`_checked_rows`: a non-ASCII
    character as "?", which it refuses, and a "\n" after a last line that
    lacks one."""
    if piece and not piece.endswith("\n"):
        piece += "\n"
    return piece.encode("ascii", "replace")


def _checked_rows(chunk: bytes, num_items: int, out: np.ndarray) -> np.ndarray | None:
    """The row lengths of the lines of ``chunk``, each ended by "\n", with
    their indices written to the front of ``out``; or None unless each
    line is ``w i_1 ... i_w`` in ASCII digits and single spaces, with no
    space at either end, every weight matching its line, and every index
    in ``[0, num_items)`` and above the one before it. One C conversion
    reads the chunk with -1 after each line."""
    if chunk.translate(None, _ROW_BODY_BYTES):
        return None
    with warnings.catch_warnings():
        # NumPy warns, and will raise, on text it cannot read to its end
        warnings.simplefilter("error", DeprecationWarning)
        try:
            values = np.fromstring(chunk.replace(b"\n", b" -1 "), dtype=np.int64, sep=" ")
        except (DeprecationWarning, ValueError):
            return None
    ends = np.flatnonzero(values < 0)
    # a line of t >= 1 tokens holds at least t - 1 spaces, and exactly that
    # many only when they are single and inside it, and a line of no tokens
    # holds at least 0: so the chunk holds as many spaces as tokens past
    # the first of each line only when every line is well spaced
    if _spaces(chunk) != values.size - 2 * ends.size:
        return None
    firsts = np.empty_like(ends)
    firsts[:1], firsts[1:] = 0, ends[:-1] + 1
    lengths = ends - firsts - 1
    # a token too long for int64 reads as 2**63 - 1, which no weight or
    # index check lets through, since n <= 2**31
    if not np.array_equal(values[firsts], lengths):
        return None
    is_item = np.ones(values.size, dtype=bool)
    is_item[firsts] = is_item[ends] = False
    # adjacent items lie in one row
    if (is_item[1:] & is_item[:-1] & (values[1:] <= values[:-1])).any():
        return None
    indices = values[is_item]
    if indices.size and indices.max() >= num_items:
        return None
    out[: indices.size] = indices
    return lengths


def _read_rows(body: list[tuple[int, str]], num_items: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR arrays of the row lines ``body``, read one line at a time with
    Python's ``int`` and each checked in order; raises the
    :class:`ParseError` of the first malformed line."""
    lengths: list[int] = []
    entries: list[int] = []
    for line_no, line in body:
        try:
            numbers = [int(p) for p in line.split()]
        except ValueError:
            raise ParseError(line_no, f"row entries must be integers: {line!r}") from None
        weight = numbers[0]
        indices = numbers[1:]
        _parameter("row weight", weight,
                   error=lambda message: ParseError(line_no, f"{message}, got {weight}"))
        if len(indices) != weight:
            raise ParseError(
                line_no, f"row declares weight {weight} but lists {len(indices)} indices"
            )
        for i in indices:
            if not 0 <= i < num_items:
                raise ParseError(line_no, f"index {i} outside [0, {num_items})")
        if any(indices[j] >= indices[j + 1] for j in range(len(indices) - 1)):
            raise ParseError(line_no, "row indices must be strictly increasing")
        lengths.append(weight)
        entries.extend(indices)
    return _offsets(lengths), np.array(entries, dtype=np.int64)


def serialize_outcomes(outcomes: Outcomes) -> str:
    return np.where(outcomes.bits, 49, 48).astype(np.uint8).tobytes().decode() + "\n"


def parse_outcomes(text: str, expected_tests: int | None = None) -> Outcomes:
    """Inverse of :func:`serialize_outcomes`. A file with no content line
    is the outcome vector of zero tests."""
    content = _content_lines(text)
    if not content:
        if expected_tests:
            raise ParseError(1, "empty outcome file")
        return Outcomes(np.zeros(0, dtype=bool))
    if len(content) > 1:
        raise ParseError(content[1][0], "outcome file must contain a single line")
    line_no, word = content[0]
    digits = word.encode("ascii", "replace")
    if digits.translate(None, b"01"):
        raise ParseError(line_no, "outcome line may contain only '0' and '1'")
    if expected_tests is not None and len(digits) != expected_tests:
        raise ParseError(
            line_no, f"expected {expected_tests} outcome bits, got {len(digits)}"
        )
    return Outcomes(np.frombuffer(digits, dtype=np.uint8) == ord("1"))
