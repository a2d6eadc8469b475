"""Constructors for constrained pooling designs.

Two resource constraints appear throughout: ``gamma`` caps how many tests any
item may join (item divisibility), ``rho`` caps how many items any test may
pool (test size). Each constructor returns a :class:`~sparsegt.core.TestMatrix`
that passes :func:`~sparsegt.core.validate` and, where the underlying count
formula is emitted exactly, agrees with the matching
:func:`~sparsegt.bounds.upper_bound_tests` report.

Each constructor reads its arguments by their rules in the one parameter
table, ``sparsegt.core._PARAMETERS``, where each range is written: the two
block families take ``epsilon`` in (0, 1). Every constructor refuses with
``ResourceCapError``, before it allocates, a design of more than 10**7
tests or 10**8 incidences. It checks the fewest incidences its items can
take, n times its fewest tests per item, before any float formula, so n or
gamma beyond float range is refused there too. The grids count their tests
exactly, from the (at most two) block sizes.

Randomized constructors take an explicit ``numpy.random.Generator``, and
refuse any other ``rng``; equal generators yield identical matrices and
leave the generator in the same state, also when they refuse.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .bounds import (
    binary_block_count,
    ceil_div,
    hypergrid_block_count,
    permuted_constant,
    random_gamma_test_count,
)
from .core import (
    InvalidParameterError,
    ResourceCapError,
    TAG_BLOCK_BINARY_RHO,
    TAG_BLOCK_HYPERGRID,
    TAG_HYPERGRID,
    TAG_PERMUTED_RHO,
    TAG_RANDOM_GAMMA,
    TAG_REPEATED,
    TestMatrix,
    int_root_ceil,
    _adopt_base,
    _adopt_csr,
    _check_generator,
    _index_dtype,
    _key_dtype,
    _offsets,
    _parameter,
    _test_dtype,
)

__all__ = [
    "HypergridShape",
    "hypergrid_shape",
    "balanced_block_starts",
    "random_gamma_design",
    "hypergrid_design",
    "block_hypergrid_design",
    "permuted_block_rho_design",
    "block_binary_rho_design",
    "repeat_design",
]


# the most tests and (item, test) incidences any constructor builds
_MAX_TESTS = 10_000_000
_MAX_INCIDENCES = 100_000_000
# groups drawn per piece of a random-gamma design
_GROUP_PIECE = 1 << 16


# ---------------------------------------------------------------------------
# hypergrid geometry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HypergridShape:
    """Geometry of one gamma-dimensional digit grid over ``size`` items.

    Item j (0-based, local to the grid) has digit (j // base**axis) % base on
    each axis. One test pools the items sharing a digit on an axis; tests are
    emitted axis-major (axis 0 digits first), and digits no item takes are
    omitted. ``axis_digits[a]`` is the number of tests emitted for axis ``a``;
    only a prefix of digits 0..axis_digits[a]-1 ever has support because local
    indices are consecutive. ``axis_powers[a]`` is base**a capped at ``size``,
    which changes no digit: from the cap on, every item has digit 0.
    """

    size: int
    gamma: int
    base: int
    axis_digits: tuple[int, ...]
    axis_powers: tuple[int, ...]

    @property
    def num_tests(self) -> int:
        return sum(self.axis_digits)


def _grid_powers(size: int, gamma: int) -> tuple[int, list[int]]:
    """The base of a grid and the powers base**a that lie below ``size``."""
    size, gamma = _parameter("item count n", size), _parameter("gamma", gamma)
    _check_size(gamma, 0)  # one test per axis at least
    base = int_root_ceil(size, gamma)
    # base >= 2 when size >= 2, so at most log2(size) + 1 powers lie below size
    powers, power = [], 1
    while power < size:
        powers.append(power)
        power *= base
    return base, powers


def hypergrid_shape(size: int, gamma: int) -> HypergridShape:
    base, powers = _grid_powers(size, gamma)
    powers += [size] * (gamma - len(powers))
    axis_digits = tuple(min(base, ceil_div(size, p)) for p in powers)
    return HypergridShape(size, gamma, base, axis_digits, tuple(powers))


def _grid_test_count(size: int, gamma: int) -> int:
    """``hypergrid_shape(size, gamma).num_tests``, raising alike, in
    O(log size): every axis past the powers below ``size`` holds one test."""
    base, powers = _grid_powers(size, gamma)
    return sum(min(base, ceil_div(size, p)) for p in powers) + gamma - len(powers)


def _grid_tests(n: int, num_blocks: int, gamma: int) -> int:
    """Tests of one digit grid per balanced block: ``n % num_blocks`` of the
    blocks hold one item more than the others."""
    size, larger = divmod(n, num_blocks)
    return (_grid_test_count(size, gamma) * (num_blocks - larger)
            + _grid_test_count(size + 1, gamma) * larger)


def _grid_rows(size: int, gamma: int) -> tuple[np.ndarray, np.ndarray]:
    """Row lengths and items (local, from 0) of one digit grid."""
    shape = hypergrid_shape(size, gamma)
    powers = np.array(shape.axis_powers)[:, None]
    first = _offsets(shape.axis_digits)[:-1, None]
    tests = first + np.arange(size) // powers % shape.base  # one row per axis
    items = np.argsort(tests, axis=1, kind="stable")
    return np.bincount(tests.ravel(), minlength=shape.num_tests), items.ravel()


def _binary_rows(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Row lengths and items (local, from 0) of one binary block: test r
    pools the items whose label, item + 1, has bit r set."""
    bits = np.arange(1, size + 1) >> np.arange(size.bit_length())[:, None] & 1
    return bits.sum(axis=1), bits.nonzero()[1]


# ---------------------------------------------------------------------------
# block partitioning
# ---------------------------------------------------------------------------


def balanced_block_starts(n: int, num_blocks: int) -> tuple[int, ...]:
    """Start offsets of a contiguous balanced partition of [0, n).

    Produces exactly min(num_blocks, n) non-empty blocks whose sizes differ by
    at most one; more blocks than items would force empty blocks, and a
    partition into singletons is already collision-free.
    """
    n, num_blocks = _parameter("item count n", n), _parameter("blocks", num_blocks)
    nb = min(num_blocks, n)
    return tuple(i * n // nb for i in range(nb))


def tile_blocks(bounds, layout) -> list[tuple[np.ndarray, np.ndarray]]:
    """Place one layout per block, in block order.

    ``bounds`` holds each block's (start, end) item range; ``layout(size)``
    returns a pair of 1-D arrays and is called once per distinct block size.
    For each array of the pair, returns the blocks' copies in block order,
    in the layout's dtype, and the block of each element, int32 below 2**31
    blocks. There is at least one block.
    """
    bounds = np.asarray(bounds, dtype=np.int64)
    sizes, kind = np.unique(bounds[:, 1] - bounds[:, 0], return_inverse=True)
    layouts = [layout(int(size)) for size in sizes]
    tiled = []
    for pieces in zip(*layouts):
        lengths = np.array([piece.size for piece in pieces], dtype=np.int64)
        counts = lengths[kind]
        at = _offsets(counts)
        # element e of block b is element e - at[b] of its size's layout
        source = np.repeat(_offsets(lengths)[kind] - at[:-1], counts) + np.arange(at[-1])
        pool = np.concatenate(pieces)
        block = np.arange(kind.size, dtype=_index_dtype(kind.size))
        tiled.append((pool[source], np.repeat(block, counts)))
    return tiled


def _tiled_design(n: int, starts: tuple[int, ...], layout, **fields) -> TestMatrix:
    """Blocks from ``starts`` to n, each holding the rows ``layout`` gives
    for its size, shifted to its start."""
    (lengths, _), (items, block) = tile_blocks(list(zip(starts, starts[1:] + (n,))), layout)
    return TestMatrix.from_csr(_offsets(lengths), items + np.array(starts)[block],
                               num_items=n, **fields)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def random_gamma_design(
    n: int,
    d: int,
    gamma: int,
    epsilon: float,
    rng: np.random.Generator,
) -> TestMatrix:
    """Random design with every item in exactly gamma uniformly chosen tests.

    T = ceil(e * gamma * d * (n/epsilon)^(1/gamma)); each item independently
    joins a uniformly random size-gamma subset of the tests. Decoded by the
    every-test-positive rule with error probability at most epsilon when at
    most d items are defective.

    The generator's stream is read as consecutive groups of gamma draws
    from ``rng.integers(0, T)``. A group that repeats a test is rejected,
    and item i takes the i-th accepted group, in stream order: the matrix
    and the generator's end state are those of drawing each item's group
    with its own call and redrawing until it has gamma distinct tests.

    The groups are drawn in pieces of at most ``_GROUP_PIECE``, never more
    than are still needed. Each group is put in increasing order once
    (:func:`_ordered_columns`); that order finds the groups that repeat a
    test, and the accepted groups are item i's tests, kept in the narrow
    ``_test_dtype(T)`` (2 bytes an incidence below 65 536 tests, 4 from
    there on) as the column index's tests, which the matrix takes from
    them unsorted (``core._adopt_csr``). The matrix keeps them for its
    whole life, also where it never builds its column index, as when it is
    only written out, repeated or pickled (a copy sorts its own index). Item i's tests t then become its keys
    ``t << b | i`` (b the bits of n - 1), in 32 bits where they fit.
    Sorted in place, the keys hold the rows in order, each row's items
    increasing, in their low bits. Besides the matrix and its column
    tests the build holds the keys and one piece.
    """
    n, gamma = _parameter("n", n), _parameter("gamma", gamma)
    d, epsilon = _parameter("d", d, n=n), _parameter("epsilon", epsilon)
    _check_generator(rng)
    _check_size(0, n * gamma)
    num_tests = random_gamma_test_count(n, d, gamma, epsilon)
    _check_size(num_tests, n * gamma)
    tests = np.empty((n, gamma), dtype=_test_dtype(num_tests))
    done = 0
    while done < n:
        # For T <= _MAX_TESTS < 2**32, one call of m groups makes the same
        # 32-bit draws (Lemire's method), int32 or int64, as m calls.
        groups = rng.integers(0, num_tests, (min(n - done, _GROUP_PIECE), gamma), np.int32)
        columns = _ordered_columns(groups)
        repeats = np.zeros(len(groups), dtype=bool)
        for low, high in zip(columns, columns[1:]):
            repeats |= low == high
        kept = np.flatnonzero(~repeats)
        rows = tests[done : done + kept.size]
        for k, column in enumerate(columns):
            rows[:, k] = column[kept]
        done += kept.size
    bits = int(n - 1).bit_length()
    keys = tests.astype(_key_dtype(num_tests, bits))
    keys <<= bits
    keys |= np.arange(n, dtype=keys.dtype)[:, None]
    keys = keys.reshape(-1)
    keys.sort()
    indptr = np.append(np.searchsorted(keys, np.arange(num_tests, dtype=keys.dtype) << bits),
                       keys.size)
    items = np.empty(keys.size, dtype=np.int32)  # n <= 2**31
    np.bitwise_and(keys, (1 << bits) - 1, out=items, casting="unsafe")
    tests = tests.reshape(-1)
    return _adopt_csr(indptr, items, num_items=n, columns=(gamma, lambda _: tests),
                      col_limit=gamma, row_limit=None, design_tag=TAG_RANDOM_GAMMA)


def _ordered_columns(groups: np.ndarray) -> list[np.ndarray]:
    """The columns of the (m, gamma) array ``groups`` with each row put in
    increasing order, by an insertion network of gamma (gamma - 1) / 2
    comparators, a ``minimum`` and a ``maximum`` of two columns each. At
    m = 10**4 (2 vCPU) it takes 26 us at gamma = 3 against 225 us for
    ``np.sort(groups, axis=1)``, which sorts row by row, and 140 us for
    one flat sort of 32-bit keys ``row << b | test``. Its calls grow with
    gamma squared: it passes the row sort near gamma = 10 (330 against
    230 us at gamma = 12, 920 against 330 us at gamma = 20), and the flat
    sort near gamma = 18."""
    columns = list(groups.T)
    for top in range(1, len(columns)):
        for k in range(top, 0, -1):
            low, high = columns[k - 1], columns[k]
            columns[k - 1], columns[k] = np.minimum(low, high), np.maximum(low, high)
    return columns


def hypergrid_design(n: int, gamma: int) -> TestMatrix:
    """One digit grid over all n items; at most gamma * ceil(n^(1/gamma)) tests.

    Every item joins exactly gamma tests (one per axis). Decodes exactly when
    at most one item is defective.
    """
    n, gamma = _parameter("item count n", n), _parameter("gamma", gamma)
    _check_size(0, n * gamma)
    _check_size(_grid_tests(n, 1, gamma), n * gamma)
    return _tiled_design(n, (0,), lambda size: _grid_rows(size, gamma),
                         col_limit=gamma, row_limit=None, design_tag=TAG_HYPERGRID)


def block_hypergrid_design(n: int, d: int, gamma: int, epsilon: float) -> TestMatrix:
    """Balanced blocks, one digit grid per block.

    ceil(d^2/epsilon) contiguous blocks (capped at n) make two defectives
    sharing a block an epsilon-rare event; each block then only has to handle
    a single defective, which its grid does exactly.
    """
    n, gamma = _parameter("n", n), _parameter("gamma", gamma)
    d, epsilon = _parameter("d", d, n=n), _parameter("block epsilon", epsilon)
    _check_size(0, n * gamma)
    num_blocks = min(hypergrid_block_count(d, epsilon), n)
    _check_size(_grid_tests(n, num_blocks, gamma), n * gamma)
    starts = balanced_block_starts(n, num_blocks)
    return _tiled_design(n, starts, lambda size: _grid_rows(size, gamma), col_limit=gamma,
                         row_limit=None, design_tag=TAG_BLOCK_HYPERGRID, block_starts=starts)


def permuted_block_rho_design(
    n: int, d: int, rho: int, zeta: float, rng: np.random.Generator
) -> TestMatrix:
    """c independent random partitions of the items into tests of size <= rho.

    Each pass shuffles the items and chops the shuffle into ceil(n/rho)
    consecutive chunks, so every item is pooled exactly once per pass and
    every test pools at most rho items. The pass count
    c = ceil((1+zeta)/((1-alpha)(1-beta))) makes the every-test-positive
    decoder err with probability at most n^(-zeta) for d defectives.

    Each pass is ``rng.permutation(n)``, copied into the int32 indices and
    sorted there test by test: a shuffle draws the same numbers whatever
    the dtype, and NumPy swaps 8-byte items about twice as fast as 4-byte
    ones. Besides the matrix the build holds one pass's permutation. The
    matrix keeps nothing else: it gets a column provider
    (``core._adopt_csr``) that finds its column tests on first use by
    scattering each pass's test numbers through the indices
    (:func:`_pass_tests`), with no sort.
    """
    n, rho = _parameter("n", n), _parameter("rho", rho)
    d, zeta = _parameter("d", d, n=n), _parameter("zeta", zeta)
    _check_generator(rng)
    _check_size(ceil_div(n, rho), n)  # one pass at least
    c = permuted_constant(n, d, rho, zeta)
    _check_size(c * ceil_div(n, rho), c * n)
    full = n - n % rho
    indices = np.empty(c * n, dtype=np.int32)
    for perm in indices.reshape(c, n):
        perm[:] = rng.permutation(n)
        perm[:full].reshape(-1, rho).sort(axis=1)
        perm[full:].sort()
    lengths = [rho] * (n // rho) + ([n % rho] if n % rho else [])
    return _adopt_csr(
        _offsets(lengths * c),
        indices,
        num_items=n,
        columns=(c, functools.partial(_pass_tests, n, rho)),
        col_limit=c,
        row_limit=rho,
        design_tag=TAG_PERMUTED_RHO,
    )


def _pass_tests(n: int, rho: int, indices: np.ndarray) -> np.ndarray:
    """The column index's tests of a permuted-rho design over ``n`` items
    in tests of ``rho`` from its int32 ``indices``: c passes of n entries,
    where position j of pass p lies in test ``p * ceil(n / rho) + j //
    rho``. Item i's test in pass p is its p-th, as the passes' tests
    increase, so each pass scatters its test numbers into column p of an
    (n, c) array, through its entries. Besides the tests it holds one
    pass's test numbers (in the tests' dtype) and an intp copy of the
    pass's entries, which a scatter into a 1-D view runs about twice as
    fast on as on the int32 entries."""
    per_pass = ceil_div(n, rho)
    passes = indices.size // n
    dtype = _test_dtype(passes * per_pass)
    tests = np.empty((n, passes), dtype=dtype)
    numbers = np.repeat(np.arange(per_pass, dtype=dtype), rho)[:n]
    for p, entries in enumerate(indices.reshape(passes, n)):
        if p:
            numbers += per_pass
        tests[:, p][entries.astype(np.intp)] = numbers
    return tests.reshape(-1)


def block_binary_rho_design(n: int, d: int, rho: int, epsilon: float) -> TestMatrix:
    """Balanced blocks, one test per bit of the local item label in each block.

    Block count: ceil(n/rho) while rho stays below n*epsilon/d^2 (test-size
    budget binds), else ceil(d^2/epsilon) (error budget binds); both capped at
    n. Within a block of size m, local labels run 1..m and test r pools the
    labels whose bit r is set, so a lone defective reads off its own label.
    The all-zero pattern is reserved for "no defective in this block".
    """
    n, rho = _parameter("n", n), _parameter("rho", rho)
    d, epsilon = _parameter("d", d, n=n), _parameter("block epsilon", epsilon)
    _check_size(0, n)  # every label has a bit set
    num_blocks = min(binary_block_count(n, d, rho, epsilon), n)
    bits = ceil_div(n, num_blocks).bit_length()  # tests of the largest block
    _check_size(num_blocks * bits, n * bits)
    starts = balanced_block_starts(n, num_blocks)
    return _tiled_design(n, starts, _binary_rows, col_limit=None, row_limit=rho,
                         design_tag=TAG_BLOCK_BINARY_RHO, block_starts=starts)


def repeat_design(matrix: TestMatrix, k: int) -> TestMatrix:
    """Duplicate every test k times consecutively (for majority voting).

    k = 1 returns the matrix unchanged. The per-item budget scales to
    k * col_limit; the per-test budget is unchanged.

    The result holds ``matrix`` and k, not the copies (``core._adopt_base``):
    its T and incidence count are the base's times k, a majority plan
    evaluates ``matrix`` itself, and it pickles as ``matrix`` and k. Its
    CSR arrays are derived on their first read, which ``serialize``,
    ``validate``, ``rows`` and the column index make. All k copies of a row
    of length L are one block of k * L entries, so they are written one row
    length at a time, as 2-D blocks with no position per entry
    (``core._copy_rows``), into int32 indices allocated once.
    """
    k = _parameter("k", k)
    if k == 1:
        return matrix
    if matrix.repeat_k > 1:
        raise InvalidParameterError("matrix is already a repeated design")
    _check_size(matrix.num_tests * k, matrix.ones_count() * k)
    return _adopt_base(
        matrix,
        num_items=matrix.num_items,
        col_limit=None if matrix.col_limit is None else matrix.col_limit * k,
        row_limit=matrix.row_limit,
        design_tag=TAG_REPEATED,
        block_starts=matrix.block_starts,
        base_tag=matrix.design_tag,
        repeat_k=k,
    )


def _check_size(tests: int, incidences: int) -> None:
    """Refuse a design of more than ``_MAX_TESTS`` tests or
    ``_MAX_INCIDENCES`` incidences before building it. Every item joins a
    test, so this also refuses n above the incidence cap."""
    if tests > _MAX_TESTS:
        raise ResourceCapError(f"design needs {tests} tests, above the cap of {_MAX_TESTS}")
    if incidences > _MAX_INCIDENCES:
        raise ResourceCapError(
            f"design needs {incidences} incidences, above the cap of {_MAX_INCIDENCES}"
        )
