"""Every named parameter is read by its rule in the one parameter table,
``core._PARAMETERS``: each constructor, bound calculator, oracle and
parameter bundle, and the CLI, refuses a value outside its range, nan,
an infinity, a bool, a str and None (where the parameter is not optional)
with a ``GroupTestingError`` subclass, and the CLI with one error line and
exit 1. An accepted NumPy number gives what the Python number it holds
gives, and a real is used as a Python float."""

import contextlib
import io
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparsegt import (
    DesignParams,
    GroupTestingError,
    Outcomes,
    PRIOR_UNIFORM_EXACT,
    Prior,
    SimConfig,
    apply_noise,
    derive_trial_seed,
)
from sparsegt.bounds import (
    UPPER_BOUND_FAMILIES,
    binary_block_count,
    binary_regime,
    gamma_lower_bound,
    hypergrid_block_count,
    noisy_gamma_error_floor,
    permuted_constant,
    random_gamma_test_count,
    repetition_count,
    rho_lower_bound,
    upper_bound_tests,
)
from sparsegt.cli import main
from sparsegt.designs import (
    balanced_block_starts,
    block_binary_rho_design,
    block_hypergrid_design,
    hypergrid_design,
    permuted_block_rho_design,
    random_gamma_design,
    repeat_design,
)
from sparsegt.sim import (
    bayes_optimal_error,
    block_collision_error,
    exhaustive_error_probability,
    wilson_interval,
)

GRID9 = hypergrid_design(9, 2)
REALS = {"epsilon", "sigma", "zeta"}
# the calls whose arguments are DesignParams fields, of which all but n and
# d may be None
FIELD_CALLS = {"design-params", "gamma-lower", "rho-lower",
               *(f"upper-{family}" for family in UPPER_BOUND_FAMILIES)}


def _rng():
    return np.random.default_rng(3)


def _bound(calculator, **fields):
    return calculator(DesignParams(**fields))


# each call: the function, and its valid arguments by name; each argument
# named in REALS or a count is one the test varies, any other (a matrix,
# a prior, a generator) stays
CALLS = {
    "random-gamma": (lambda **a: random_gamma_design(**a, rng=_rng()),
                     dict(n=40, d=2, gamma=2, epsilon=0.2)),
    "hypergrid": (hypergrid_design, dict(n=9, gamma=2)),
    "block-hypergrid": (block_hypergrid_design, dict(n=36, d=2, gamma=2, epsilon=0.5)),
    "permuted-rho": (lambda **a: permuted_block_rho_design(**a, rng=_rng()),
                     dict(n=40, d=2, rho=4, zeta=0.5)),
    "block-binary-rho": (block_binary_rho_design, dict(n=40, d=2, rho=4, epsilon=0.2)),
    "repeat": (lambda **a: repeat_design(GRID9, **a), dict(k=3)),
    "gamma-lower": (lambda **a: _bound(gamma_lower_bound, **a),
                    dict(n=100, d=2, gamma=2, epsilon=0.1)),
    "rho-lower": (lambda **a: _bound(rho_lower_bound, **a),
                  dict(n=1000, d=2, rho=10, epsilon=0.1)),
    **{f"upper-{family}": (lambda family=family, **a: upper_bound_tests(DesignParams(**a), family),
                           dict(n=1000, d=2, gamma=2, rho=10, epsilon=0.1, zeta=0.5, sigma=0.1))
       for family in UPPER_BOUND_FAMILIES},
    "noisy-floor": (noisy_gamma_error_floor, dict(d=2, gamma=2, sigma=0.2)),
    "repetition-count": (repetition_count, dict(n=100, sigma=0.1, zeta=0.5)),
    "random-gamma-count": (random_gamma_test_count, dict(n=40, d=2, gamma=2, epsilon=0.2)),
    "permuted-constant": (permuted_constant, dict(n=40, d=2, rho=4, zeta=0.5)),
    "hypergrid-block-count": (hypergrid_block_count, dict(d=2, epsilon=0.5)),
    "binary-regime": (binary_regime, dict(n=40, d=2, rho=4, epsilon=0.2)),
    "binary-block-count": (binary_block_count, dict(n=40, d=2, rho=4, epsilon=0.2)),
    "balanced-blocks": (balanced_block_starts, dict(n=36, num_blocks=8)),
    "apply-noise": (lambda **a: apply_noise(Outcomes(np.ones(8, dtype=bool)), **a, rng=_rng()),
                    dict(sigma=0.2)),
    "design-params": (DesignParams, dict(n=100, d=2, epsilon=0.1, gamma=2, rho=10, sigma=0.1,
                                         zeta=0.5)),
    "sim-config": (lambda **a: SimConfig(DesignParams(9, 1), Prior(PRIOR_UNIFORM_EXACT, 1), **a),
                   dict(trials=5, master_seed=7, parallelism=1)),
    "trial-seed": (derive_trial_seed, dict(master_seed=7, trial=3)),
    "prior": (lambda **a: Prior(PRIOR_UNIFORM_EXACT, **a), dict(d=2)),
    "wilson": (wilson_interval, dict(errors=2, trials=10)),
    "exhaustive": (lambda **a: exhaustive_error_probability(GRID9, "hypergrid", **a),
                   dict(d=1, cap=100)),
    "block-collision": (lambda **a: block_collision_error(GRID9, **a), dict(d=1)),
    "bayes": (lambda **a: bayes_optimal_error(GRID9, **a, prior=Prior(PRIOR_UNIFORM_EXACT, 1)),
              dict(sigma=0.1)),
}

# each parameter at and beyond the edges of its ranges
EDGES = [0, 0.5, 1, 2, 3, 10, -1, 0.1, 0.25, 1e-320, math.nan, math.inf, -math.inf, "0.1",
         None, True, False, np.float32(0.1), np.float32(0.5), np.float64(0.2), np.int64(0),
         np.int64(2), np.int32(3), np.uint8(1), Fraction(1, 4), Decimal("0.1")]


def _python(value):
    """The Python number a NumPy number holds, else ``value``."""
    return value.item() if isinstance(value, np.generic) else value


@given(st.sampled_from(sorted(CALLS)), st.data())
@settings(max_examples=600, deadline=None)
def test_every_site_reads_its_parameters_by_their_rules(name, data):
    call, valid = CALLS[name]
    parameter = data.draw(st.sampled_from(sorted(valid)), label="parameter")
    value = data.draw(st.sampled_from(EDGES), label="value")
    try:
        result = call(**{**valid, parameter: value})
    except GroupTestingError:
        return
    # accepted: never a bool, a str or a non-finite number, nor None but
    # where a DesignParams field is optional
    assert not isinstance(value, (bool, str))
    assert value is not None or (name in FIELD_CALLS and parameter not in ("n", "d"))
    assert value is None or math.isfinite(value)
    if parameter in REALS and value is not None:
        again = call(**{**valid, parameter: float(value)})
    else:
        assert not isinstance(value, (float, np.floating))
        again = call(**{**valid, parameter: _python(value)})
    assert result == again
    if name == "design-params" and value is not None:
        assert type(getattr(result, parameter)) is (float if parameter in REALS else int)
    if hasattr(result, "floor"):  # a BoundReport
        assert all(type(v) is float for v in (result.value, result.floor) if v is not None)


@pytest.mark.parametrize("call", [
    lambda: DesignParams(10, 2, epsilon="0.1"),
    lambda: random_gamma_design(10, 2, 2, None, _rng()),
    lambda: block_hypergrid_design(10, 2, 2, "0.5"),
    lambda: apply_noise(Outcomes(np.ones(3, dtype=bool)), "0.1", _rng()),
    lambda: repetition_count(100, 0.1, "0.5"),
    lambda: noisy_gamma_error_floor("2", 2, 0.1),
    lambda: random_gamma_test_count(100, 2, 2, None),
    lambda: permuted_constant(100, 2, 10, "0.5"),
    lambda: hypergrid_block_count(2, "0.1"),
    lambda: binary_block_count(100, 2, 10, None),
    lambda: balanced_block_starts("10", 2),
], ids=["params-epsilon", "random-gamma-epsilon", "block-hypergrid-epsilon", "apply-noise-sigma",
        "repetition-zeta", "noisy-floor-d", "random-gamma-count-epsilon",
        "permuted-constant-zeta", "hypergrid-block-count-epsilon", "binary-block-count-epsilon",
        "balanced-blocks-n"])
def test_a_str_or_none_is_refused_by_name(call):
    """Each of these raised a raw TypeError."""
    with pytest.raises(GroupTestingError, match="must be a real number|must be an integer"):
        call()


def test_a_zero_block_epsilon_is_refused_by_name():
    """This raised a raw ZeroDivisionError."""
    with pytest.raises(GroupTestingError, match=r"^epsilon must lie in \(0, 1\)$"):
        hypergrid_block_count(2, 0.0)


# command lines that exit 0, 2 or 3, with the flags the test varies
_COMMANDS = [
    ["design", "--family", "random-gamma", "--n", "40", "--d", "2", "--gamma", "2",
     "--epsilon", "0.2", "--seed", "1"],
    ["design", "--family", "hypergrid", "--n", "9", "--gamma", "2"],
    ["design", "--family", "block-hypergrid", "--n", "36", "--d", "2", "--gamma", "2",
     "--epsilon", "0.5"],
    ["design", "--family", "permuted-rho", "--n", "40", "--d", "2", "--rho", "4",
     "--zeta", "0.5"],
    ["design", "--family", "block-binary-rho", "--n", "40", "--d", "2", "--rho", "4",
     "--epsilon", "0.2"],
    ["design", "--family", "hypergrid", "--n", "1000000000", "--gamma", "2"],
    ["simulate", "--family", "hypergrid", "--n", "9", "--gamma", "2", "--d", "1", "--k", "3",
     "--sigma", "0.1", "--trials", "5", "--jobs", "1", "--seed", "1", "--target-epsilon", "0.5"],
    ["simulate", "--family", "permuted-rho", "--n", "40", "--d", "2", "--rho", "4", "--zeta",
     "0.5", "--trials", "5", "--target-epsilon", "0"],
    ["bounds", "--theorem", "1", "--n", "100", "--d", "2", "--gamma", "2", "--epsilon", "0.1"],
    ["bounds", "--theorem", "4", "--n", "1000", "--d", "2", "--rho", "10", "--epsilon", "0.1"],
    ["bounds", "--theorem", "7", "--n", "1000", "--d", "2", "--rho", "10", "--zeta", "0.5",
     "--sigma", "0.1"],
    ["bounds", "--theorem", "noisy", "--d", "2", "--gamma", "2", "--sigma", "0.2"],
    ["oracle", "--design", "fig1", "--d", "1", "--sigma", "0.1", "--target-epsilon", "0.5"],
    ["oracle", "--design", "fig1", "--d", "1", "--cap", "100", "--target-epsilon", "0.5"],
    ["oracle", "--design", "fig1", "--d", "4", "--cap", "10"],
]
# the tokens of the edges; a --jobs above 1 would start worker processes
_TOKENS = ["0", "0.5", "1", "2", "-1", "0.1", "nan", "inf", "-inf", "1e-320", "1e308", "None",
           "True", "x"]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_the_command_lines_run():
    assert [_run(argv)[0] for argv in _COMMANDS] == [0] * 5 + [3, 2] + [0] * 7 + [3]


@given(st.sampled_from(range(len(_COMMANDS))), st.data())
@settings(max_examples=400, deadline=None)
def test_the_cli_refuses_with_one_error_line(index, data):
    argv = list(_COMMANDS[index])
    at = data.draw(st.sampled_from([i for i, token in enumerate(argv)
                                    if token.startswith("--") and token not in
                                    ("--family", "--theorem", "--design")]), label="flag")
    tokens = [t for t in _TOKENS if argv[at] != "--jobs" or t != "2"]
    argv[at + 1] = data.draw(st.sampled_from(tokens), label="value")
    code, out, err = _run(argv)
    assert code in (0, 1, 2, 3)
    if code in (1, 3):
        assert len(err.splitlines()) == 1
        assert err.startswith("error:" if code == 1 else "resource cap:"), err
    else:
        assert err == ""
