"""Golden values for the frozen public contracts: the design file bytes of
every seeded constructor and simulation CSV rows of the majority and the two
block decoders.

A change to any constructor, to ``serialize`` or to the harness that alters
these bytes breaks files and result tables written by earlier versions.
"""

import hashlib

import numpy as np
import pytest

from sparsegt import designs
from sparsegt.core import DesignParams, Prior, PRIOR_UNIFORM_EXACT, serialize
from sparsegt.designs import (
    block_binary_rho_design,
    block_hypergrid_design,
    hypergrid_design,
    permuted_block_rho_design,
    random_gamma_design,
    repeat_design,
)
from sparsegt.sim import SimConfig, run_monte_carlo

SEED = 42


def _rng():
    return np.random.default_rng(SEED)


def _digest(matrix) -> str:
    return hashlib.sha256(serialize(matrix).encode()).hexdigest()


DESIGNS = {
    "random-gamma": (
        lambda: random_gamma_design(10_000, 5, 3, 0.1, _rng()),
        "7aebfcfe7039094bac5a12100928d75a4d5702c1a42d719f36edb543b9b17fae",
    ),
    # T = 64 tests for gamma = 8: about 37 % of the drawn groups repeat a test
    "random-gamma-heavy-redraw": (
        lambda: random_gamma_design(2000, 1, 8, 0.4, _rng()),
        "55b712cc2a07c0e4a03ddaa867ad1753b827e9421a26631d34f5170845e39da5",
    ),
    "hypergrid": (
        lambda: hypergrid_design(10_000, 2),
        "a8b0244aafb292833aefc67eee8ae575f1a169ded9864da8af31cf8c4df2703c",
    ),
    "block-hypergrid": (
        lambda: block_hypergrid_design(10_000, 5, 2, 0.1),
        "edd2f38f58258f209f6650415cee866ff3ca9b1f326913bceacb533090bc134f",
    ),
    "permuted-rho": (
        lambda: permuted_block_rho_design(10_000, 10, 100, 0.5, _rng()),
        "24f59e869af2168fa9d21bd57bdb885e7842af5a58524afa2e46ca60e0759f8c",
    ),
    # n = 4 * 10**5: every item above 9999 is written in two 4-digit groups
    "permuted-rho-large-n": (
        lambda: permuted_block_rho_design(400_000, 10, 100, 0.5, _rng()),
        "71a41a34ba1857c60a27380eb68d51545a91a974752f230f298311fdda7acac5",
    ),
    "block-binary": (
        lambda: block_binary_rho_design(10_000, 5, 20, 0.1),
        "033262c5ee92872f0e2435fe0dd1768a82ef0e74d2e81e34563a8cfc840a0c36",
    ),
    "repeated-permuted-rho": (
        lambda: repeat_design(permuted_block_rho_design(1000, 10, 50, 0.5, _rng()), 3),
        "bffbd28ff335a185fdb629d0e09a5883a6b43767e638b9de885fae3e94a7431f",
    ),
}


@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_serialized_design_bytes(name):
    build, digest = DESIGNS[name]
    assert _digest(build()) == digest


def test_large_random_gamma_bytes_and_generator_state():
    """n = 4 * 10**5 and T = 12 946 tests: T * n is past 2**32, so the
    design's keys take 64 bits."""
    rng = _rng()
    matrix = random_gamma_design(400_000, 10, 3, 0.1, rng)
    assert matrix.num_tests * matrix.num_items > 2**32
    assert _digest(matrix) == (
        "f930d12001b3b534830addf90981055a3eb5eeee85163d88dbce683658b16789")
    state = rng.bit_generator.state
    assert (state["state"]["state"], state["has_uint32"]) == (
        0x4FB4868B4F172954E90872FCCD05CF18, 0)


def test_heavy_redraw_in_pieces_of_three_groups(monkeypatch):
    """Pieces of 3 groups: the redraws of rejected groups straddle pieces,
    and the bytes and the generator's end state stay those of one piece."""
    digest = DESIGNS["random-gamma-heavy-redraw"][1]
    whole, pieces = _rng(), _rng()
    random_gamma_design(2000, 1, 8, 0.4, whole)
    monkeypatch.setattr(designs, "_GROUP_PIECE", 3)
    assert _digest(random_gamma_design(2000, 1, 8, 0.4, pieces)) == digest
    assert pieces.bit_generator.state == whole.bit_generator.state


def test_noisy_majority_csv_row():
    base = permuted_block_rho_design(1000, 10, 50, 0.5, _rng())
    config = SimConfig(
        params=DesignParams(n=1000, d=10, rho=50, zeta=0.5, sigma=0.1),
        prior=Prior(PRIOR_UNIFORM_EXACT, 10),
        trials=300,
        master_seed=SEED,
    )
    report = run_monte_carlo(repeat_design(base, 5), "majority", config)
    assert report.csv_row() == (
        "repeated,1000,10,75,50,0.1,1500,300,187,0.623333,0.567268,0.67628,42"
    )


@pytest.mark.parametrize(
    "name, decoder, params, row",
    [
        (
            "block-hypergrid", "hypergrid", dict(epsilon=0.1, gamma=2),
            "block-hypergrid,10000,5,2,,0,3250,2000,77,0.0385,0.0309143,0.0478551,42",
        ),
        (
            "block-binary", "binary", dict(epsilon=0.1, rho=20),
            "block-binary-rho,10000,5,,20,0,2500,2000,37,0.0185,0.0134513,0.0253948,42",
        ),
    ],
)
def test_block_decoder_csv_row(name, decoder, params, row):
    build, _ = DESIGNS[name]
    config = SimConfig(
        params=DesignParams(n=10_000, d=5, **params),
        prior=Prior(PRIOR_UNIFORM_EXACT, 5),
        trials=2000,
        master_seed=SEED,
    )
    assert run_monte_carlo(build(), decoder, config).csv_row() == row
