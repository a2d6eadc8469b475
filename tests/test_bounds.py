"""Bound calculators: frozen values, regimes, consistency with constructors."""

import math

import numpy as np
import pytest

from sparsegt.bounds import (
    binary_block_count,
    binary_regime,
    ceil_div,
    gamma_lower_bound,
    hypergrid_block_count,
    noisy_gamma_error_floor,
    permuted_constant,
    random_gamma_test_count,
    repetition_count,
    rho_lower_bound,
    upper_bound_tests,
    UPPER_BOUND_FAMILIES,
)
from sparsegt.core import DesignParams, InvalidParameterError, RegimeError
from sparsegt.designs import (
    block_binary_rho_design,
    block_hypergrid_design,
    permuted_block_rho_design,
    random_gamma_design,
    repeat_design,
)


class TestGammaLowerBound:
    def test_frozen_value(self):
        rep = gamma_lower_bound(DesignParams(n=10**6, d=1, epsilon=0.01, gamma=2))
        # 2 * (10^6)^0.475
        assert rep.value == pytest.approx(2.0 * (10.0**6) ** 0.475, rel=1e-12)
        assert rep.value == pytest.approx(1415.8915687682754, rel=1e-12)
        assert rep.integer_value == 1416

    def test_degenerates_to_gamma_d_at_eps_one_fifth(self):
        rep = gamma_lower_bound(DesignParams(n=10_000, d=5, epsilon=0.2, gamma=3))
        assert rep.value == 15.0
        assert any("degenerates" in note for note in rep.assumptions)

    def test_falls_below_gamma_d_past_eps_one_fifth(self):
        rep = gamma_lower_bound(DesignParams(n=10_000, d=5, epsilon=0.3, gamma=3))
        assert rep.value < 15.0
        assert any("at most gamma*d" in note for note in rep.assumptions)

    def test_wide_gamma_approaches_unconstrained_scale(self):
        # gamma = log2(n/d) and tiny epsilon: value close to 2*gamma*d
        n, d = 2**20, 1
        gamma = 20
        rep = gamma_lower_bound(DesignParams(n=n, d=d, epsilon=1e-9, gamma=gamma))
        assert rep.value == pytest.approx(2.0 * gamma * d, rel=1e-3)

    def test_increasing_in_n(self):
        values = [
            gamma_lower_bound(DesignParams(n=n, d=5, epsilon=0.05, gamma=3)).value
            for n in (10**3, 10**4, 10**5, 10**6)
        ]
        assert values == sorted(values)

    def test_requires_gamma_and_epsilon(self):
        with pytest.raises(InvalidParameterError):
            gamma_lower_bound(DesignParams(n=100, d=2, epsilon=0.1))
        with pytest.raises(InvalidParameterError):
            gamma_lower_bound(DesignParams(n=100, d=2, gamma=2))


class TestRhoLowerBound:
    def test_frozen_value(self):
        rep = rho_lower_bound(DesignParams(n=10_000, d=10, epsilon=0.01, rho=100))
        # beta = ln(100)/ln(1000) = 2/3, value = 0.94 * 3 * 100
        assert rep.value == pytest.approx(282.0, rel=1e-12)
        assert rep.integer_value == 282

    def test_rho_one_is_individual_testing_scale(self):
        rep = rho_lower_bound(DesignParams(n=500, d=2, epsilon=0.05, rho=1))
        assert rep.value == pytest.approx((1 - 0.3) * 500, rel=1e-12)

    def test_epsilon_one_sixth_vanishes(self):
        rep = rho_lower_bound(DesignParams(n=10_000, d=10, epsilon=1 / 6, rho=100))
        assert rep.value == pytest.approx(0.0, abs=1e-12)

    def test_epsilon_above_one_sixth_is_zero_not_negative(self):
        rep = rho_lower_bound(DesignParams(n=1000, d=10, epsilon=0.3, rho=10))
        assert (rep.value, rep.integer_value) == (0.0, 0)
        assert any("vacuous" in note for note in rep.assumptions)

    def test_beta_at_or_above_one_rejected(self):
        with pytest.raises(RegimeError):
            rho_lower_bound(DesignParams(n=100, d=2, epsilon=0.05, rho=50))


class TestScalarHelpers:
    def test_random_gamma_count_desk_scale(self):
        assert random_gamma_test_count(10_000, 5, 3, 0.1) == 1893

    def test_permuted_constant_desk_scale(self):
        assert permuted_constant(10_000, 10, 100, 0.5) == 6

    def test_permuted_constant_is_float_stable(self):
        # the factored form overshoots the exact integer 6 by one ulp and
        # would ceil to 7; the simplified form must not
        n, d, rho, zeta = 10_000, 10, 100, 0.5
        alpha = math.log(d) / math.log(n)
        beta = math.log(rho) / math.log(n / d)
        naive = (1 + zeta) / ((1 - alpha) * (1 - beta))
        assert math.ceil(naive) == 7  # the trap
        assert permuted_constant(n, d, rho, zeta) == 6

    def test_permuted_constant_out_of_regime(self):
        with pytest.raises(RegimeError):
            permuted_constant(100, 10, 10, 0.5)

    def test_repetition_count_desk_scale(self):
        assert repetition_count(1000, 0.1, 0.5) == 65

    def test_repetition_count_grows_with_sigma(self):
        counts = [repetition_count(1000, s, 0.5) for s in (0.05, 0.1, 0.2, 0.3)]
        assert counts == sorted(counts)

    def test_binary_regime_split(self):
        assert binary_regime(10_000, 5, 20, 0.1) == 1
        assert binary_regime(10_000, 5, 50, 0.1) == 2

    def test_binary_regime_tie_goes_to_error_budget(self):
        # threshold n*eps/d^2 = 20 exactly
        assert binary_regime(1000, 5, 20, 0.5) == 2

    def test_block_counts(self):
        assert hypergrid_block_count(5, 0.1) == 250
        assert hypergrid_block_count(2, 0.5) == 8
        assert binary_block_count(10_000, 5, 20, 0.1) == 500
        assert binary_block_count(10_000, 5, 50, 0.1) == 250

    def test_quotients_beyond_float_range_go_through_logs(self):
        # n / d and n / (d * rho) exceed float range; their logs do not
        n, log_n = 10**400, 400 * math.log(10)
        assert permuted_constant(n, 5, 2, 1.0) == math.ceil(2 * log_n / (log_n - math.log(10)))
        beta = DesignParams(n=n, d=5, rho=2).beta
        assert beta == pytest.approx(math.log(2) / (log_n - math.log(5)), rel=1e-12)
        rep = gamma_lower_bound(DesignParams(n=n, d=5, epsilon=0.1, gamma=2))
        assert rep.value == pytest.approx(10 * math.exp(0.25 * (log_n - math.log(5))),
                                          rel=1e-12)

    def test_block_sizes_beyond_float_range_go_through_logs(self):
        # n * epsilon / d^2 exceeds float range; the block bounds do not
        n, log_n = 10**400, 400 * math.log(10)
        log_block = log_n + math.log(0.1) - 2 * math.log(5)
        assert binary_regime(n, 5, 2, 0.1) == 1
        assert binary_regime(n, 5, 10**398, 0.1) == 2
        grid = upper_bound_tests(DesignParams(n=n, d=5, epsilon=0.1, gamma=2), "block-hypergrid")
        assert grid.value == pytest.approx(500 * math.exp(log_block / 2), rel=1e-12)
        assert grid.value == pytest.approx(3.16e201, rel=1e-3)
        assert grid.integer_value == pytest.approx(grid.value, rel=2e-9)
        binary = upper_bound_tests(DesignParams(n=n, d=5, epsilon=0.1, rho=10**398),
                                   "block-binary-rho")
        assert binary.value == pytest.approx(250 * log_block / math.log(2), rel=1e-12)
        assert binary.integer_value == 250 * math.ceil(log_block / math.log(2))
        assert binary.assumptions[0].startswith("error budget binds")

    @pytest.mark.parametrize(
        "call",
        [
            lambda: random_gamma_test_count(10**400, 5, 1, 0.1),
            lambda: random_gamma_test_count(10, 5, 10**400, 0.1),
            # the regime is decided in logs; its bound (n/rho) log2(rho+1) is not
            lambda: upper_bound_tests(DesignParams(n=10**400, d=5, rho=2, epsilon=0.1),
                                      "block-binary-rho"),
            lambda: hypergrid_block_count(10**200, 0.1),
            lambda: rho_lower_bound(DesignParams(n=10**400, d=5, rho=2, epsilon=0.1)),
            lambda: upper_bound_tests(DesignParams(n=10**400, d=5, rho=2, zeta=1.0),
                                      "permuted-rho"),
            lambda: noisy_gamma_error_floor(10**400, 10**400, 0.1),
        ],
        ids=["random-gamma-n", "random-gamma-gamma", "binary-regime", "block-count",
             "rho-lower", "permuted-upper", "noisy-floor"],
    )
    def test_values_beyond_float_range_are_refused(self, call):
        with pytest.raises(InvalidParameterError, match="exceeds float range"):
            call()

    def test_ceil_div(self):
        assert ceil_div(10, 5) == 2
        assert ceil_div(11, 5) == 3
        assert ceil_div(1, 7) == 1


class TestUpperBounds:
    def test_random_gamma_matches_construction(self):
        p = DesignParams(n=10_000, d=5, epsilon=0.1, gamma=3)
        rep = upper_bound_tests(p, "random-gamma")
        m = random_gamma_design(10_000, 5, 3, 0.1, np.random.default_rng(7))
        assert rep.integer_value == m.num_tests == 1893

    def test_permuted_matches_construction(self):
        p = DesignParams(n=10_000, d=10, rho=100, zeta=0.5)
        rep = upper_bound_tests(p, "permuted-rho")
        m = permuted_block_rho_design(10_000, 10, 100, 0.5, np.random.default_rng(11))
        assert rep.integer_value == m.num_tests == 600

    def test_repeated_matches_construction(self):
        p = DesignParams(n=1000, d=10, rho=50, sigma=0.1, zeta=0.5)
        rep = upper_bound_tests(p, "repeated")
        base = permuted_block_rho_design(1000, 10, 50, 0.5, np.random.default_rng(3))
        m = repeat_design(base, repetition_count(1000, 0.1, 0.5))
        assert rep.integer_value == m.num_tests == 19_500

    def test_block_hypergrid_dominates_construction(self):
        p = DesignParams(n=10_000, d=5, epsilon=0.1, gamma=2)
        rep = upper_bound_tests(p, "block-hypergrid")
        m = block_hypergrid_design(10_000, 5, 2, 0.1)
        assert rep.integer_value == 3500
        assert m.num_tests == 3250
        assert rep.integer_value >= m.num_tests

    def test_block_binary_matches_uniform_blocks(self):
        p = DesignParams(n=10_000, d=5, epsilon=0.1, rho=20)
        rep = upper_bound_tests(p, "block-binary-rho")
        m = block_binary_rho_design(10_000, 5, 20, 0.1)
        assert rep.integer_value == m.num_tests == 2500

    def test_unknown_family_rejected(self):
        with pytest.raises(InvalidParameterError):
            upper_bound_tests(DesignParams(n=100, d=2, epsilon=0.1), "custom")

    def test_all_families_enumerated(self):
        assert set(UPPER_BOUND_FAMILIES) == {
            "random-gamma",
            "block-hypergrid",
            "permuted-rho",
            "block-binary-rho",
            "repeated",
        }


class TestNoisyFloor:
    def test_frozen_example(self):
        rep = noisy_gamma_error_floor(2, 2, 0.2)
        assert rep.value == pytest.approx(0.125, rel=1e-12)
        assert rep.floor == pytest.approx(1.0 / 9.0, rel=1e-12)

    def test_desk_scale(self):
        rep = noisy_gamma_error_floor(5, 3, 0.1)
        assert rep.value == pytest.approx(5.0 * (1.0 / 9.0) ** 3, rel=1e-12)
        assert rep.floor == pytest.approx(rep.value / (1.0 + rep.value), rel=1e-12)

    def test_floor_approaches_half_as_sigma_approaches_half(self):
        rep = noisy_gamma_error_floor(1, 3, 0.4999999)
        assert rep.floor == pytest.approx(0.5, abs=1e-5)

    def test_floor_decreases_with_gamma(self):
        floors = [noisy_gamma_error_floor(3, g, 0.2).floor for g in (1, 2, 3, 4)]
        assert floors == sorted(floors, reverse=True)

    def test_sigma_range(self):
        with pytest.raises(InvalidParameterError):
            noisy_gamma_error_floor(2, 2, 0.0)
        with pytest.raises(InvalidParameterError):
            noisy_gamma_error_floor(2, 2, 0.5)


class TestRendering:
    def test_text_format(self):
        rep = noisy_gamma_error_floor(2, 2, 0.2)
        text = rep.render_text()
        assert "name=noisy-gamma-error-floor" in text
        assert "value=0.125" in text
        assert "floor=0.111111" in text
        assert text.count("assumes=") == len(rep.assumptions)

    def test_csv_format(self):
        rep = gamma_lower_bound(DesignParams(n=10**6, d=1, epsilon=0.01, gamma=2))
        row = rep.render_csv()
        fields = row.split(",")
        assert fields[0] == "gamma-lower-bound"
        assert fields[1] == "1415.89"
        assert fields[2] == "1416"
        assert fields[3] == ""
