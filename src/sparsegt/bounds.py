"""Test-count bounds and error floors for constrained group testing.

Each calculator returns a :class:`BoundReport` with the real-valued bound, its
ceiled integer form where meaningful, and the regime assumptions under which
the bound applies. All real arithmetic is float64 with logarithms taken before
exponentiation so large ``n`` does not overflow; a quotient of integers that
only feeds a logarithm is taken as a difference of logs where it exceeds
float range (:func:`sparsegt.core.log_ratio`). Where a bound, or a quantity
it is computed from, still exceeds float range, the calculators raise
``InvalidParameterError``. Ceilings snap within 1e-9 relative tolerance (see
:func:`sparsegt.core.iceil`) so decimal-intended integer boundaries land
exactly.

The ``*_count`` helpers are the single source of the integer test counts; the
constructors in :mod:`sparsegt.designs` call them, which is what makes the
"bound equals constructed T" checks exact for the families that emit the
formula count directly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .core import (
    DesignParams,
    InvalidParameterError,
    RegimeError,
    TAG_BLOCK_BINARY_RHO,
    TAG_BLOCK_HYPERGRID,
    TAG_PERMUTED_RHO,
    TAG_RANDOM_GAMMA,
    TAG_REPEATED,
    _parameter,
    iceil,
    log_ratio,
)

__all__ = [
    "BoundReport",
    "gamma_lower_bound",
    "rho_lower_bound",
    "upper_bound_tests",
    "noisy_gamma_error_floor",
    "UPPER_BOUND_FAMILIES",
    "random_gamma_test_count",
    "permuted_constant",
    "repetition_count",
    "binary_regime",
    "hypergrid_block_count",
    "binary_block_count",
    "ceil_div",
]


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound.

    ``value`` is the real-valued expression; ``integer_value`` its ceiled form
    (None where the bound is a probability, not a test count); ``floor`` is
    only set by the noisy error floor and carries r/(1+r).
    """

    name: str
    value: float
    integer_value: int | None
    assumptions: tuple[str, ...]
    floor: float | None = None

    def render_text(self) -> str:
        lines = [f"name={self.name}", f"value={self.value:.6g}"]
        if self.integer_value is not None:
            lines.append(f"integer_value={self.integer_value}")
        if self.floor is not None:
            lines.append(f"floor={self.floor:.6g}")
        for note in self.assumptions:
            lines.append(f"assumes={note}")
        return "\n".join(lines)

    def render_csv(self) -> str:
        integer = "" if self.integer_value is None else str(self.integer_value)
        floor = "" if self.floor is None else f"{self.floor:.6g}"
        notes = ";".join(self.assumptions)
        return f"{self.name},{self.value:.6g},{integer},{floor},{notes}"


def _in_float_range(calculator):
    """Refuse with ``InvalidParameterError`` the parameters at which
    ``calculator`` meets a value beyond float range."""

    @functools.wraps(calculator)
    def checked(*args, **kwargs):
        try:
            return calculator(*args, **kwargs)
        except OverflowError:
            raise InvalidParameterError(
                f"{calculator.__name__}: a value exceeds float range; parameters out of range"
            ) from None

    return checked


def ceil_div(a: int, b: int) -> int:
    """Exact integer ceiling of a/b for positive ints."""
    return -(-a // b)


# ---------------------------------------------------------------------------
# integer count helpers shared with the constructors
# ---------------------------------------------------------------------------


@_in_float_range
def random_gamma_test_count(n: int, d: int, gamma: int, epsilon: float) -> int:
    """ceil(e * gamma * d * (n/epsilon)^(1/gamma))."""
    n, gamma = _parameter("n", n), _parameter("gamma", gamma)
    d, epsilon = _parameter("d", d, n=n), _parameter("epsilon", epsilon)
    return iceil(_random_gamma_value(n, d, gamma, epsilon))


def _random_gamma_value(n: int, d: int, gamma: int, epsilon: float) -> float:
    return math.exp(
        1.0 + math.log(gamma * d) + (math.log(n) - math.log(epsilon)) / gamma
    )


@_in_float_range
def permuted_constant(n: int, d: int, rho: int, zeta: float) -> int:
    """Number of pooling passes c = ceil((1+zeta) / ((1-alpha)(1-beta))).

    Uses the algebraically equivalent (1-alpha)(1-beta) = ln(n/(d*rho)) / ln(n),
    which is numerically stable where the factored form accumulates rounding
    that can push an exact integer just above itself.
    """
    n, rho = _parameter("n", n), _parameter("rho", rho)
    d, zeta = _parameter("d", d, n=n), _parameter("zeta", zeta)
    if d * rho >= n:
        raise RegimeError(
            f"permuted design needs d*rho < n, got d*rho={d * rho} >= n={n}"
        )
    value = (1.0 + zeta) * math.log(n) / log_ratio(n, d * rho)
    return iceil(value)


@_in_float_range
def repetition_count(n: int, sigma: float, zeta: float) -> int:
    """Repetitions per test k = ceil((1+zeta) * ln(n) / (1/2 - sigma)^2)."""
    n, sigma = _parameter("item count n", n), _parameter("sigma", sigma)
    zeta = _parameter("count zeta", zeta)
    value = (1.0 + zeta) * math.log(n) / (0.5 - sigma) ** 2
    return iceil(value)


def _log_block_size(n: int, d: int, epsilon: float) -> float:
    """log(n*epsilon/d^2), the log of the items per block at which d
    defectives collide with probability about epsilon; a sum of logs where
    n*epsilon exceeds float range."""
    try:
        return math.log(n * epsilon / (d * d))
    except OverflowError:
        return math.log(n) + math.log(epsilon) - 2.0 * math.log(d)


@_in_float_range
def binary_regime(n: int, d: int, rho: int, epsilon: float) -> int:
    """Which block budget binds for the binary block design.

    Regime 1 (rho strictly below n*epsilon/d^2, by more than a relative
    1e-9): the test-size budget binds and blocks have size <= rho. Regime 2
    (ties included): the error budget binds and there are ceil(d^2/epsilon)
    blocks. Compared in logs, so n may exceed float range.
    """
    n, rho = _parameter("n", n), _parameter("rho", rho)
    d, epsilon = _parameter("d", d, n=n), _parameter("block epsilon", epsilon)
    if math.log(rho) < _log_block_size(n, d, epsilon) + math.log1p(-1e-9):
        return 1
    return 2


@_in_float_range
def hypergrid_block_count(d: int, epsilon: float) -> int:
    """ceil(d^2/epsilon) blocks keep the collision probability below epsilon."""
    d, epsilon = _parameter("floor d", d), _parameter("block epsilon", epsilon)
    return iceil(d * d / epsilon)


@_in_float_range
def binary_block_count(n: int, d: int, rho: int, epsilon: float) -> int:
    n, rho = _parameter("n", n), _parameter("rho", rho)
    d, epsilon = _parameter("d", d, n=n), _parameter("block epsilon", epsilon)
    if binary_regime(n, d, rho, epsilon) == 1:
        return ceil_div(n, rho)
    return iceil(d * d / epsilon)


def _required(params: DesignParams, calculator: str, *names: str) -> tuple:
    """``params``' n, d and fields ``names`` (two or more); if any is None,
    ``InvalidParameterError`` naming ``calculator`` and all of ``names``."""
    values = [getattr(params, name) for name in names]
    if None in values:
        raise InvalidParameterError(
            f"{calculator} requires {', '.join(names[:-1])} and {names[-1]}")
    return (params.n, params.d, *values)


# ---------------------------------------------------------------------------
# lower bounds
# ---------------------------------------------------------------------------


@_in_float_range
def gamma_lower_bound(params: DesignParams) -> BoundReport:
    """Minimum tests any epsilon-error design with column weights <= gamma needs.

    value = gamma * d * (n/d)^((1-5*epsilon)/gamma).
    """
    n, d, gamma, eps = _required(params, "gamma_lower_bound", "gamma", "epsilon")
    exponent = (1.0 - 5.0 * eps) / gamma
    value = gamma * d * math.exp(exponent * log_ratio(n, d))
    notes = [
        "applies to every noiseless design with column weights at most gamma",
        "error criterion: exact recovery with probability at least 1-epsilon",
    ]
    if exponent <= 0.0:
        notes.append("epsilon >= 1/5 makes the exponent <= 0; the bound degenerates to "
                     "at most gamma*d (equal only at epsilon = 1/5)")
    return BoundReport(
        name="gamma-lower-bound",
        value=value,
        integer_value=iceil(value),
        assumptions=tuple(notes),
    )


@_in_float_range
def rho_lower_bound(params: DesignParams) -> BoundReport:
    """Minimum tests any epsilon-error design with row weights <= rho needs.

    value = ((1 - 6*epsilon) / (1 - beta)) * (n / rho), beta = ln(rho)/ln(n/d),
    and 0 for epsilon >= 1/6, where no test count is forced.
    """
    n, d, rho, eps = _required(params, "rho_lower_bound", "rho", "epsilon")
    beta = params.beta
    if beta >= 1.0:
        raise RegimeError(
            f"rho_lower_bound needs rho < n/d (beta < 1), got beta={beta:.6g}"
        )
    factor = 1.0 - 6.0 * eps
    value = max(factor, 0.0) / (1.0 - beta) * (n / rho)
    notes = [
        "applies to every noiseless design with row weights at most rho",
        "regime: rho < n/d so that beta = ln(rho)/ln(n/d) stays below 1",
    ]
    if factor <= 0.0:
        notes.append("epsilon >= 1/6 makes 1 - 6*epsilon <= 0; the bound is vacuous (0)")
    return BoundReport(
        name="rho-lower-bound",
        value=value,
        integer_value=iceil(value),
        assumptions=tuple(notes),
    )


# ---------------------------------------------------------------------------
# achievable upper bounds, one per constructor family
# ---------------------------------------------------------------------------

def _upper_random_gamma(params: DesignParams) -> BoundReport:
    value = _random_gamma_value(*_required(params, "random-gamma bound", "gamma", "epsilon"))
    return BoundReport(
        name="random-gamma-tests",
        value=value,
        integer_value=iceil(value),
        assumptions=(
            "uniformly random size-gamma column supports",
            "decoded by the every-test-positive rule",
            "equals the constructed test count exactly",
        ),
    )


def _upper_block_hypergrid(params: DesignParams) -> BoundReport:
    n, d, gamma, eps = _required(params, "block-hypergrid bound", "gamma", "epsilon")
    log_block = _log_block_size(n, d, eps)
    value = math.exp(math.log(d * d * gamma / eps) + log_block / gamma)
    # gamma multiplies the ceiled block count: with the ceiling taken after
    # the product, a fractional d^2/eps can undercount the construction
    integer = gamma * iceil(d * d / eps) * max(1, iceil(math.exp(log_block / gamma)))
    notes = [
        "upper bound: construction drops empty tests so actual T can be lower",
        "at most one defective per block except with probability <= epsilon",
    ]
    if log_block < math.log1p(-1e-9):  # eps*n < d^2, ties excluded
        notes.append("eps*n < d^2: blocks degenerate to single items; count is vacuous")
    return BoundReport(
        name="block-hypergrid-tests",
        value=value,
        integer_value=integer,
        assumptions=tuple(notes),
    )


def _upper_permuted_rho(params: DesignParams) -> BoundReport:
    n, d, rho, zeta = _required(params, "permuted-rho bound", "rho", "zeta")
    c = permuted_constant(n, d, rho, zeta)
    value = (1.0 + zeta) / ((1.0 - params.alpha) * (1.0 - params.beta)) * (n / rho)
    return BoundReport(
        name="permuted-rho-tests",
        value=value,
        integer_value=c * ceil_div(n, rho),
        assumptions=(
            "c independent random partitions of the items into tests of size <= rho",
            "target error epsilon = n^(-zeta)",
            "equals the constructed test count exactly",
            "doubling the passes handles every defective count d' in o(n/rho)",
        ),
    )


def _upper_block_binary(params: DesignParams) -> BoundReport:
    n, d, rho, eps = _required(params, "block-binary bound", "rho", "epsilon")
    if binary_regime(n, d, rho, eps) == 1:
        blocks = ceil_div(n, rho)
        per_block = rho.bit_length()  # ceil(log2(rho+1)), integer exact
        value = (n / rho) * math.log2(rho + 1)
        regime_note = "test-size budget binds: rho below n*epsilon/d^2"
    else:
        blocks = iceil(d * d / eps)
        # log2(block size + 1), with the block size kept in logs
        log_block = _log_block_size(n, d, eps)
        bits = (max(log_block, 0.0) + math.log1p(math.exp(-abs(log_block)))) / math.log(2)
        per_block = iceil(bits)
        value = (d * d / eps) * bits
        regime_note = "error budget binds: rho at or above n*epsilon/d^2"
    return BoundReport(
        name="block-binary-tests",
        value=value,
        integer_value=blocks * per_block,
        assumptions=(
            regime_note,
            "per block: one test per bit of the local item label",
            "equals the constructed test count when blocks are uniform",
        ),
    )


def _upper_repeated_rho(params: DesignParams) -> BoundReport:
    n, d, rho, zeta, sigma = _required(params, "repeated bound", "rho", "zeta", "sigma")
    c = permuted_constant(n, d, rho, zeta)
    k = repetition_count(n, sigma, zeta)
    value = (
        (1.0 + zeta)
        / ((1.0 - params.alpha) * (1.0 - params.beta))
        * (n / rho)
        * ((1.0 + zeta) * math.log(n) / (0.5 - sigma) ** 2)
    )
    return BoundReport(
        name="repeated-rho-tests",
        value=value,
        integer_value=c * ceil_div(n, rho) * k,
        assumptions=(
            "each base test repeated k times through the bit-flip channel",
            "majority vote recovers each base outcome with high probability",
            "achieves error at most 2*n^(-zeta)",
            "equals the constructed test count exactly",
        ),
    )


_UPPER_BOUNDS = {
    TAG_RANDOM_GAMMA: _upper_random_gamma,
    TAG_BLOCK_HYPERGRID: _upper_block_hypergrid,
    TAG_PERMUTED_RHO: _upper_permuted_rho,
    TAG_BLOCK_BINARY_RHO: _upper_block_binary,
    TAG_REPEATED: _upper_repeated_rho,
}
UPPER_BOUND_FAMILIES = tuple(_UPPER_BOUNDS)


@_in_float_range
def upper_bound_tests(params: DesignParams, family: str) -> BoundReport:
    """Achievable test count of the named constructor family.

    For random-gamma, permuted-rho and repeated the integer value equals the
    constructed matrix's T exactly. For the two block families the integer
    value is an upper bound: the constructions drop empty tests and use
    balanced blocks, so their T never exceeds it.
    """
    if family not in _UPPER_BOUNDS:
        raise InvalidParameterError(
            f"unknown family {family!r}; expected one of {sorted(UPPER_BOUND_FAMILIES)}"
        )
    return _UPPER_BOUNDS[family](params)


# ---------------------------------------------------------------------------
# noisy error floor
# ---------------------------------------------------------------------------


@_in_float_range
def noisy_gamma_error_floor(d: int, gamma: int, sigma: float) -> BoundReport:
    """No decoder beats this error under bit-flip noise with column weights <= gamma.

    r = d * (sigma/(1-sigma))^gamma is an odds mass; every decoder errs with
    probability at least r/(1+r) when each item is defective independently
    with probability d/n and d < n/2.
    """
    d, gamma = _parameter("floor d", d), _parameter("gamma", gamma)
    sigma = _parameter("floor sigma", sigma)
    r = d * (sigma / (1.0 - sigma)) ** gamma
    return BoundReport(
        name="noisy-gamma-error-floor",
        value=r,
        integer_value=None,
        assumptions=(
            "items defective independently with probability d/n and d < n/2",
            "every column appears in at most gamma tests",
            "holds for every decoder including maximum a posteriori",
        ),
        floor=r / (1.0 + r),
    )
