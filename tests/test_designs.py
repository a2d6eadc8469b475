"""Constructors: exact test counts, structural invariants, determinism."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparsegt.core import (
    DesignParams,
    GroupTestingError,
    InvalidParameterError,
    PRIOR_UNIFORM_EXACT,
    Prior,
    ResourceCapError,
    TAG_BLOCK_BINARY_RHO,
    TAG_BLOCK_HYPERGRID,
    TAG_HYPERGRID,
    TAG_PERMUTED_RHO,
    TAG_RANDOM_GAMMA,
    TAG_REPEATED,
    TestMatrix,
    _copy_rows,
    parse,
    serialize,
    validate,
)
from sparsegt import designs
from sparsegt.decoders import make_plan
from sparsegt.designs import (
    balanced_block_starts,
    block_binary_rho_design,
    block_hypergrid_design,
    hypergrid_design,
    hypergrid_shape,
    permuted_block_rho_design,
    random_gamma_design,
    repeat_design,
)
from sparsegt.sim import SimConfig, run_monte_carlo, wilson_interval


class TestHypergrid:
    def test_nine_items_two_axes(self):
        m = hypergrid_design(9, 2)
        assert m.rows == (
            (0, 3, 6),
            (1, 4, 7),
            (2, 5, 8),
            (0, 1, 2),
            (3, 4, 5),
            (6, 7, 8),
        )
        assert m.num_tests == 6
        assert m.col_limit == 2
        assert m.design_tag == TAG_HYPERGRID
        assert validate(m) == []

    def test_non_power_size_drops_empty_digit_lines(self):
        m = hypergrid_design(5, 2)
        assert m.rows == ((0, 3), (1, 4), (2,), (0, 1, 2), (3, 4))

    def test_shape_base_and_axis_digits(self):
        sh = hypergrid_shape(40, 2)
        assert (sh.base, sh.axis_digits, sh.num_tests) == (7, (7, 6), 13)
        sh3 = hypergrid_shape(40, 3)
        assert (sh3.base, sh3.axis_digits, sh3.num_tests) == (4, (4, 4, 3), 11)

    @pytest.mark.parametrize("n,gamma", [(1, 3), (2, 3), (7, 2), (27, 3), (30, 3), (100, 4)])
    def test_every_item_in_exactly_gamma_tests(self, n, gamma):
        m = hypergrid_design(n, gamma)
        assert (m.column_weights() == gamma).all()
        assert validate(m) == []

    def test_test_count_bounded_by_gamma_root(self):
        for n in (5, 9, 26, 27, 28, 1000):
            for gamma in (1, 2, 3):
                m = hypergrid_design(n, gamma)
                sh = hypergrid_shape(n, gamma)
                assert m.num_tests <= gamma * sh.base

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameterError):
            hypergrid_design(0, 2)
        with pytest.raises(InvalidParameterError):
            hypergrid_design(9, 0)

    def test_axes_past_the_items_hold_one_test(self):
        # base 2 over 10 items: four axes with two digits, then digit 0 only
        sh = hypergrid_shape(10, 10**5)
        assert sh.axis_digits[:5] == (2, 2, 2, 2, 1)
        assert sh.axis_powers[:5] == (1, 2, 4, 8, 10)
        assert set(sh.axis_digits[4:]) == {1}
        assert sh.num_tests == 10**5 + 4

    def test_gamma_above_the_test_cap_refused(self):
        with pytest.raises(ResourceCapError):
            hypergrid_design(10, 10**8)
        with pytest.raises(ResourceCapError):
            hypergrid_shape(10, 10**8)


class TestBalancedBlocks:
    def test_even_split(self):
        assert balanced_block_starts(36, 8) == (0, 4, 9, 13, 18, 22, 27, 31)

    def test_caps_at_singletons(self):
        assert balanced_block_starts(4, 9) == (0, 1, 2, 3)

    @pytest.mark.parametrize("n,b", [(10, 3), (36, 8), (100, 7), (5, 5), (7, 1)])
    def test_partition_properties(self, n, b):
        starts = balanced_block_starts(n, b)
        assert starts[0] == 0
        assert len(starts) == min(b, n)
        bounds = list(starts) + [n]
        sizes = [bounds[i + 1] - bounds[i] for i in range(len(starts))]
        assert sum(sizes) == n
        assert all(s >= 1 for s in sizes)
        assert max(sizes) - min(sizes) <= 1


class TestRandomGamma:
    def test_desk_scale_test_count(self):
        m = random_gamma_design(10_000, 5, 3, 0.1, np.random.default_rng(7))
        assert m.num_tests == 1893
        assert m.col_limit == 3
        assert m.design_tag == TAG_RANDOM_GAMMA
        assert (m.column_weights() == 3).all()

    def test_structurally_valid(self):
        m = random_gamma_design(50, 3, 2, 0.2, np.random.default_rng(5))
        assert validate(m) == []

    def test_deterministic_given_seed(self):
        a = random_gamma_design(30, 2, 2, 0.2, np.random.default_rng(0))
        b = random_gamma_design(30, 2, 2, 0.2, np.random.default_rng(0))
        c = random_gamma_design(30, 2, 2, 0.2, np.random.default_rng(1))
        assert a == b
        assert a != c

    def test_resource_cap(self):
        with pytest.raises(ResourceCapError):
            random_gamma_design(10**6, 100, 1, 0.01, np.random.default_rng(0))

    def test_incidence_cap_refuses_before_drawing(self):
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        # T is about 8.8e5, under the test cap; n * gamma = 3e12 is not
        with pytest.raises(ResourceCapError, match="3000000000000 incidences"):
            random_gamma_design(10**12, 5, 3, 0.1, rng)
        assert rng.bit_generator.state == state

    def test_incidence_cap_boundary(self, monkeypatch):
        monkeypatch.setattr(designs, "_MAX_INCIDENCES", 100)
        assert random_gamma_design(50, 2, 2, 0.2, np.random.default_rng(0)).num_items == 50
        with pytest.raises(ResourceCapError):
            random_gamma_design(51, 2, 2, 0.2, np.random.default_rng(0))


class TestBlockHypergrid:
    def test_desk_scale(self):
        m = block_hypergrid_design(10_000, 5, 2, 0.1)
        assert m.num_tests == 3250
        assert len(m.block_starts) == 250
        assert (m.column_weights() == 2).all()
        assert m.design_tag == TAG_BLOCK_HYPERGRID
        assert validate(m) == []

    def test_uneven_blocks(self):
        m = block_hypergrid_design(36, 2, 2, 0.5)
        assert m.block_starts == (0, 4, 9, 13, 18, 22, 27, 31)
        assert m.num_tests == 36
        assert (m.column_weights() == 2).all()

    def test_block_count_caps_at_n(self):
        m = block_hypergrid_design(6, 2, 2, 0.5)
        assert m.block_starts == (0, 1, 2, 3, 4, 5)

    def test_epsilon_up_to_one_accepted(self):
        block_hypergrid_design(36, 2, 2, 0.9)
        with pytest.raises(InvalidParameterError):
            block_hypergrid_design(36, 2, 2, 1.0)

    def test_gamma_times_blocks_above_the_test_cap_refused(self):
        # 250 blocks of 40 items; each block has at least gamma tests
        with pytest.raises(ResourceCapError):
            block_hypergrid_design(10_000, 5, 40_001, 0.1)


class TestPermutedBlocks:
    def test_desk_scale(self):
        m = permuted_block_rho_design(10_000, 10, 100, 0.5, np.random.default_rng(11))
        assert m.num_tests == 600
        assert m.col_limit == 6
        assert m.row_limit == 100
        assert m.design_tag == TAG_PERMUTED_RHO

    def test_each_pass_partitions_the_items(self):
        m = permuted_block_rho_design(103, 3, 10, 0.5, np.random.default_rng(2))
        c = m.col_limit
        per_pass = -(-103 // 10)
        assert m.num_tests == c * per_pass
        assert (m.column_weights() == c).all()
        assert m.row_weights().max() <= 10
        assert validate(m) == []

    def test_deterministic_given_seed(self):
        a = permuted_block_rho_design(50, 2, 7, 0.5, np.random.default_rng(4))
        b = permuted_block_rho_design(50, 2, 7, 0.5, np.random.default_rng(4))
        assert a == b

    def test_out_of_regime_rejected(self):
        # d * rho >= n leaves no room for the pass-count constant
        from sparsegt.core import RegimeError

        with pytest.raises(RegimeError):
            permuted_block_rho_design(100, 10, 10, 0.5, np.random.default_rng(0))

    def test_pass_count_above_the_test_cap_refused(self):
        # zeta = 1e9 asks for 2,861,353,119 passes of 10 tests
        rng = np.random.default_rng(0)
        with pytest.raises(ResourceCapError, match="28613531190 tests"):
            permuted_block_rho_design(100, 2, 10, 1e9, rng)
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


class TestBlockBinary:
    def test_test_size_budget_regime(self):
        m = block_binary_rho_design(10_000, 5, 20, 0.1)
        assert m.num_tests == 2500
        assert len(m.block_starts) == 500
        assert m.row_limit == 20
        assert m.design_tag == TAG_BLOCK_BINARY_RHO
        assert m.row_weights().max() <= 20

    def test_error_budget_regime(self):
        m = block_binary_rho_design(10_000, 5, 50, 0.1)
        assert m.num_tests == 1500
        assert len(m.block_starts) == 250

    def test_bit_pattern_rows(self):
        # two blocks of five items; local labels 1..5, test r pools bit r
        m = block_binary_rho_design(10, 1, 5, 0.9)
        assert m.block_starts == (0, 5)
        assert m.rows == (
            (0, 2, 4),
            (1, 2),
            (3, 4),
            (5, 7, 9),
            (6, 7),
            (8, 9),
        )
        assert validate(m) == []

    def test_row_weight_never_exceeds_rho(self):
        for rho in (3, 8, 17):
            m = block_binary_rho_design(100, 2, rho, 0.3)
            assert m.row_weights().max() <= rho
            assert validate(m) == []


class TestRepeat:
    def test_k_one_is_identity(self):
        base = hypergrid_design(9, 2)
        assert repeat_design(base, 1) is base

    def test_consecutive_duplication(self):
        base = hypergrid_design(9, 2)
        m = repeat_design(base, 3)
        assert m.num_tests == 18
        assert m.design_tag == TAG_REPEATED
        assert m.base_tag == TAG_HYPERGRID
        assert m.repeat_k == 3
        assert m.col_limit == 6
        for t in range(base.num_tests):
            assert m.rows[3 * t] == m.rows[3 * t + 1] == m.rows[3 * t + 2] == base.rows[t]
        assert validate(m) == []

    def test_desk_scale_noisy_design(self):
        base = permuted_block_rho_design(1000, 10, 50, 0.5, np.random.default_rng(3))
        assert base.num_tests == 300
        assert base.col_limit == 15
        m = repeat_design(base, 65)
        assert m.num_tests == 19_500
        assert m.col_limit == 975

    def test_refuses_more_tests_than_the_cap_before_building(self, monkeypatch):
        base = hypergrid_design(9, 2)  # 6 tests
        with pytest.raises(ResourceCapError, match="design needs 60000000000000 tests"):
            repeat_design(base, 10**13)
        monkeypatch.setattr(designs, "_MAX_TESTS", 60)
        assert repeat_design(base, 10).num_tests == 60
        with pytest.raises(ResourceCapError):
            repeat_design(base, 11)

    def test_rejects_repeating_a_repeated_design(self):
        m = repeat_design(hypergrid_design(4, 2), 2)
        with pytest.raises(InvalidParameterError):
            repeat_design(m, 2)

    def test_rejects_nonpositive_k(self):
        with pytest.raises(InvalidParameterError):
            repeat_design(hypergrid_design(4, 2), 0)


# a base of each family, and custom ones with ragged and empty rows
_BASES = {
    "random-gamma": lambda: random_gamma_design(40, 2, 3, 0.3, np.random.default_rng(5)),
    "hypergrid": lambda: hypergrid_design(5, 2),  # rows of 2, 2, 1, 3 and 2
    "block-hypergrid": lambda: block_hypergrid_design(50, 2, 2, 0.5),
    "permuted-rho": lambda: permuted_block_rho_design(23, 1, 5, 0.5, np.random.default_rng(5)),
    "block-binary-rho": lambda: block_binary_rho_design(30, 2, 4, 0.5),
    "ragged-and-empty": lambda: TestMatrix(rows=[(0, 2), (), (1,), (0, 1, 2, 3), ()],
                                           num_items=5),
    "all-empty": lambda: TestMatrix(rows=[(), ()], num_items=3),
    "no-rows": lambda: TestMatrix(rows=[], num_items=3),
}


class TestRepeatHoldsItsBase:
    """A repeated design keeps its base and k; the arrays of its copies
    are derived on their first read, as an eager copy writes them."""

    @pytest.mark.parametrize("k", [2, 3, 65])
    @pytest.mark.parametrize("family", sorted(_BASES))
    def test_derived_copies_equal_the_eager_copy(self, family, k):
        base = _BASES[family]()
        m = repeat_design(base, k)
        assert "indices" not in vars(m)
        want_indptr, want_indices = _copy_rows(base.indices, base.indptr[:-1],
                                               base.row_weights(), k)
        assert m.indptr.dtype == np.int64 and m.indices.dtype == np.int32
        assert np.array_equal(m.indptr, want_indptr)
        assert np.array_equal(m.indices, want_indices)
        assert not (m.indptr.flags.writeable or m.indices.flags.writeable)
        assert m.rows == tuple(row for row in base.rows for _ in range(k))
        assert m == TestMatrix.from_csr(want_indptr, want_indices, *m._metadata())

    @pytest.mark.parametrize("family", sorted(_BASES))
    def test_round_trip(self, family):
        m = repeat_design(_BASES[family](), 3)
        again = parse(serialize(m))
        assert again == m and hash(again) == hash(m)
        assert validate(again) == validate(m)

    def test_counts_derive_nothing(self):
        base = _BASES["ragged-and-empty"]()
        m = repeat_design(base, 4)
        assert repr(m) == "TestMatrix(num_tests=20, num_items=5, ones=28, design_tag='repeated')"
        assert hash(m) == hash(TestMatrix.from_csr(*_copy_rows(
            base.indices, base.indptr[:-1], base.row_weights(), 4), *m._metadata()))
        make_plan(m, "majority")
        assert not {"indptr", "indices"} & set(vars(m))
        assert m.row_weights().tolist() == np.repeat(base.row_weights(), 4).tolist()
        assert {"indptr", "indices"} <= set(vars(m))

    def test_majority_counts_equal_on_the_checked_parse(self):
        """C7's design and its parsed copy, whose plan checks and copies
        out the groups, give the same counts."""
        base = permuted_block_rho_design(1000, 10, 50, 0.5, np.random.default_rng(3))
        lazy = repeat_design(base, 65)
        parsed = parse(serialize(lazy))
        assert make_plan(lazy, "majority").evaluated is base
        assert make_plan(parsed, "majority").evaluated is not base
        cfg = SimConfig(params=DesignParams(n=1000, d=10, rho=50, sigma=0.3, zeta=0.5),
                        prior=Prior(PRIOR_UNIFORM_EXACT, 10), trials=1000, master_seed=42)
        counts = [(r.errors, r.breakdown) for r in (run_monte_carlo(m, "majority", cfg)
                                                    for m in (lazy, parsed))]
        assert counts[0] == counts[1]
        assert counts[0][0] > 0


def _rng_state(rng):
    return None if rng is None else rng.bit_generator.state


# each constructor as a call on (n, d, budget, epsilon, zeta, rng), where the
# budget is gamma, rho or k; the generator is None for deterministic ones
_CONSTRUCTORS = {
    "random-gamma": lambda n, d, b, eps, zeta, rng: random_gamma_design(n, d, b, eps, rng),
    "hypergrid": lambda n, d, b, eps, zeta, rng: hypergrid_design(n, b),
    "block-hypergrid": lambda n, d, b, eps, zeta, rng: block_hypergrid_design(n, d, b, eps),
    "permuted-rho": lambda n, d, b, eps, zeta, rng: permuted_block_rho_design(n, d, b, zeta, rng),
    "block-binary-rho": lambda n, d, b, eps, zeta, rng: block_binary_rho_design(n, d, b, eps),
    "repeated": lambda n, d, b, eps, zeta, rng: repeat_design(hypergrid_design(50, 2), b),
}
_RANDOMIZED = {"random-gamma", "permuted-rho"}
_GATE_CAP = 10_000


class TestPreAllocationGate:
    @settings(max_examples=400, deadline=None)
    @given(
        family=st.sampled_from(sorted(_CONSTRUCTORS)),
        n=st.sampled_from([1, 2, 50, 2**31, 2**31 + 1, 10**12, 10**400]),
        d_of=st.sampled_from([lambda n: 0, lambda n: 1, lambda n: n - 1, lambda n: n]),
        budget=st.sampled_from([0, 1, 3, 2**62, 10**400]),
        epsilon=st.sampled_from([0.0, 0.25, 0.5, 1.0, math.nan]),
        zeta=st.sampled_from([0.0, 0.5, math.nan, 1e300]),
    )
    def test_builds_within_the_caps_or_refuses(self, family, n, d_of, budget, epsilon, zeta):
        rng = np.random.default_rng(0) if family in _RANDOMIZED else None
        before = _rng_state(rng)
        with mock.patch.multiple(designs, _MAX_TESTS=_GATE_CAP, _MAX_INCIDENCES=_GATE_CAP):
            try:
                m = _CONSTRUCTORS[family](n, d_of(n), budget, epsilon, zeta, rng)
            except GroupTestingError:
                assert _rng_state(rng) == before
                return
        assert validate(m) == []
        assert m.num_tests <= _GATE_CAP
        assert m.ones_count() <= _GATE_CAP

    @pytest.mark.parametrize(
        "family, args",
        [
            ("random-gamma", (50, 2, 3, 0.25, None)),
            ("hypergrid", (50, None, 3, None, None)),
            ("block-hypergrid", (50, 2, 3, 0.5, None)),
            ("permuted-rho", (50, 1, 5, None, 0.5)),
            ("repeated", (None, None, 3, None, None)),
        ],
    )
    def test_incidence_cap_admits_its_edge(self, monkeypatch, family, args):
        rng = np.random.default_rng(3)
        built = _CONSTRUCTORS[family](*args, rng)
        monkeypatch.setattr(designs, "_MAX_INCIDENCES", built.ones_count())
        assert _CONSTRUCTORS[family](*args, np.random.default_rng(3)) == built
        monkeypatch.setattr(designs, "_MAX_INCIDENCES", built.ones_count() - 1)
        rng = np.random.default_rng(3)
        with pytest.raises(ResourceCapError, match=f"needs {built.ones_count()} incidences"):
            _CONSTRUCTORS[family](*args, rng)
        assert _rng_state(rng) == np.random.default_rng(3).bit_generator.state

    def test_binary_blocks_count_the_bits_of_the_largest_block(self, monkeypatch):
        # blocks of 15 and 16 items hold 4 + 5 tests; the gate counts 2 * 5
        monkeypatch.setattr(designs, "_MAX_TESTS", 10)
        assert block_binary_rho_design(31, 1, 16, 0.9).num_tests == 9
        monkeypatch.setattr(designs, "_MAX_TESTS", 9)
        with pytest.raises(ResourceCapError, match="needs 10 tests"):
            block_binary_rho_design(31, 1, 16, 0.9)

    def test_grids_count_every_test_against_the_cap(self, monkeypatch):
        # a one-axis grid holds one test per item, not gamma = 1 tests
        monkeypatch.setattr(designs, "_MAX_TESTS", 100)
        with pytest.raises(ResourceCapError, match="needs 1000 tests"):
            hypergrid_design(1000, 1)
        assert hypergrid_design(100, 1).num_tests == 100
        # blocks of 7, 8, 8 and 8 items: 7 + 3 * 8 tests
        monkeypatch.setattr(designs, "_MAX_TESTS", 31)
        assert block_hypergrid_design(31, 1, 1, 0.25).num_tests == 31
        monkeypatch.setattr(designs, "_MAX_TESTS", 30)
        with pytest.raises(ResourceCapError, match="needs 31 tests"):
            block_hypergrid_design(31, 1, 1, 0.25)
        monkeypatch.setattr(designs, "_MAX_TESTS", 99)
        with pytest.raises(ResourceCapError, match="needs 100 tests"):
            hypergrid_design(100, 1)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: random_gamma_design(1, 1, 2, 0.1, None), "n must be >= 2"),
            (lambda: random_gamma_design(10, 0, 2, 0.1, None), "d must lie in [1, 10)"),
            (lambda: random_gamma_design(10, 2, 0, 0.1, None), "gamma must be >= 1"),
            (lambda: random_gamma_design(10, 2, 2, 0.5, None), "epsilon must lie in (0, 1/2)"),
            (lambda: hypergrid_design(0, 2), "item count n must be >= 1"),
            (lambda: hypergrid_design(9, 0), "gamma must be >= 1"),
            (lambda: block_hypergrid_design(10, 10, 2, 0.5), "d must lie in [1, 10)"),
            (lambda: block_hypergrid_design(10, 2, 0, 0.5), "gamma must be >= 1"),
            (lambda: block_hypergrid_design(10, 2, 2, 1.0), "epsilon must lie in (0, 1)"),
            (lambda: permuted_block_rho_design(1, 1, 2, 0.5, None), "n must be >= 2"),
            (lambda: permuted_block_rho_design(10, 2, 0, 0.5, None), "rho must be >= 1"),
            (lambda: permuted_block_rho_design(10, 2, 2, 0.0, None), "zeta must lie in (0, inf)"),
            (lambda: permuted_block_rho_design(10, 2, 2, math.nan, None),
             "zeta must lie in (0, inf)"),
            (lambda: permuted_block_rho_design(10, 2, 2, math.inf, None),
             "zeta must lie in (0, inf)"),
            (lambda: block_binary_rho_design(10, -1, 2, 0.5), "d must lie in [1, 10)"),
            (lambda: block_binary_rho_design(10, 2, 0, 0.5), "rho must be >= 1"),
            (lambda: block_binary_rho_design(10, 2, 2, math.nan), "epsilon must lie in (0, 1)"),
        ],
    )
    def test_one_bad_argument_is_named(self, call, message):
        with pytest.raises(InvalidParameterError) as info:
            call()
        assert str(info.value) == message


# a value of each kind that is not an integer, then NumPy integers
_NOT_INTEGERS = [True, False, 2.5, math.nan, "2", None]
_NUMPY_INTEGERS = [np.int64(2), np.int32(3), np.uint8(1)]


class TestArgumentKinds:
    @pytest.mark.parametrize("value", _NOT_INTEGERS + _NUMPY_INTEGERS + [7])
    def test_only_named_errors(self, value):
        """A generator, a repetition count or a binomial count given as a
        bool, float, string or None is refused with a ``GroupTestingError``
        subclass, as an integer is where a generator belongs; integers,
        NumPy's included, are read as counts."""
        calls = {
            "random-gamma rng": lambda: random_gamma_design(100, 2, 2, 0.1, value),
            "permuted-rho rng": lambda: permuted_block_rho_design(100, 2, 10, 0.5, value),
            "repeat k": lambda: repeat_design(hypergrid_design(9, 2), value),
            "wilson errors": lambda: wilson_interval(value, 10),
            "wilson trials": lambda: wilson_interval(1, value),
        }
        integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
        for name, call in calls.items():
            try:
                call()
            except GroupTestingError:
                continue
            assert integer and not name.endswith("rng"), name

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: random_gamma_design(100, 2, 2, 0.1, None),
             "rng must be a numpy.random.Generator, got NoneType"),
            (lambda: permuted_block_rho_design(100, 2, 10, 0.5, 42),
             "rng must be a numpy.random.Generator, got int"),
            (lambda: repeat_design(hypergrid_design(9, 2), 2.5),
             "repetition count k must be an integer, got 2.5"),
            (lambda: repeat_design(hypergrid_design(9, 2), True),
             "repetition count k must be an integer, got True"),
            (lambda: wilson_interval(1, 10.5), "trials must be an integer, got 10.5"),
            (lambda: wilson_interval("1", 10), "errors must be an integer, got '1'"),
            (lambda: hypergrid_design("10", 2), "item count n must be an integer, got '10'"),
            (lambda: hypergrid_design(10, 2.0), "gamma must be an integer, got 2.0"),
        ],
    )
    def test_the_argument_is_named(self, call, message):
        with pytest.raises(InvalidParameterError) as info:
            call()
        assert str(info.value) == message

    def test_numpy_integers(self):
        want = random_gamma_design(300, 2, 3, 0.1, np.random.default_rng(4))
        assert random_gamma_design(np.int64(300), np.int32(2), np.uint8(3), 0.1,
                                   np.random.default_rng(4)) == want
        base = hypergrid_design(9, 2)
        assert repeat_design(base, np.int64(2)) == repeat_design(base, 2)
        assert wilson_interval(np.int64(3), np.uint16(10)) == wilson_interval(3, 10)
