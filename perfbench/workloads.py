"""The benchmark's workloads: which designs are built, how they are decoded,
and the counts a correct program reproduces. See README.md for why each
workload exists."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from sparsegt import (
    DesignParams,
    TestMatrix,
    block_binary_rho_design,
    block_hypergrid_design,
    permuted_block_rho_design,
    random_gamma_design,
    repeat_design,
)

PINNED_SEED = 42


@dataclass(frozen=True)
class Part:
    """One design of a workload with its decoder.

    ``trials`` is the trial count of every timed ``run_monte_carlo`` call.
    ``num_tests`` and ``incidences`` hold for every seed; ``pinned`` is
    (errors, false-positive items, ambiguous blocks, wrong estimates) over
    ``trials`` trials at seed ``PINNED_SEED``, and ``design_sha256`` the first
    16 hex digits of the SHA-256 of ``serialize(design)`` at that seed.
    """

    name: str
    decoder: str
    build: Callable[[int], TestMatrix]
    params: DesignParams
    d: int
    trials: int
    num_tests: int
    incidences: int
    pinned: tuple[int, int, int, int]
    design_sha256: str


@dataclass(frozen=True)
class Workload:
    """``roundtrip`` puts serialize, parse and validate into set-up;
    ``jobs_check`` runs the two-worker comparison (skipped where two extra
    copies of the design would not fit a small machine). ``wall_trials``
    times the trials in wall seconds instead of reference seconds (see
    clock.py); set-up is always in reference seconds."""

    name: str
    parts: tuple[Part, ...]
    setup_repeats: int
    roundtrip: bool = False
    jobs_check: bool = True
    wall_trials: bool = False


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk-coma",
            (
                Part("random-gamma", "coma",
                     lambda s: random_gamma_design(10_000, 5, 3, 0.1, _rng(s)),
                     DesignParams(n=10_000, d=5, epsilon=0.1, gamma=3), 5,
                     trials=3000, num_tests=1893, incidences=30_000,
                     pinned=(12, 12, 0, 0), design_sha256="7aebfcfe7039094b"),
                Part("permuted-rho", "coma",
                     lambda s: permuted_block_rho_design(10_000, 10, 100, 0.5, _rng(s)),
                     DesignParams(n=10_000, d=10, rho=100, zeta=0.5), 10,
                     trials=3000, num_tests=600, incidences=60_000,
                     pinned=(27, 27, 0, 0), design_sha256="24f59e869af2168f"),
            ),
            setup_repeats=5,
        ),
        Workload(
            "desk-block",
            (
                Part("block-hypergrid", "hypergrid",
                     lambda s: block_hypergrid_design(10_000, 5, 2, 0.1),
                     DesignParams(n=10_000, d=5, epsilon=0.1, gamma=2), 5,
                     trials=3000, num_tests=3250, incidences=20_000,
                     pinned=(125, 0, 125, 125), design_sha256="edd2f38f58258f20"),
                Part("block-binary", "binary",
                     lambda s: block_binary_rho_design(10_000, 5, 20, 0.1),
                     DesignParams(n=10_000, d=5, epsilon=0.1, rho=20), 5,
                     trials=3000, num_tests=2500, incidences=21_000,
                     pinned=(60, 24, 20, 60), design_sha256="033262c5ee92872f"),
            ),
            setup_repeats=5,
        ),
        Workload(
            "noisy-repeated",
            (
                Part("repeated-permuted-rho", "majority",
                     lambda s: repeat_design(
                         permuted_block_rho_design(1000, 10, 50, 0.5, _rng(s)), 65),
                     DesignParams(n=1000, d=10, rho=50, sigma=0.1, zeta=0.5), 10,
                     trials=1500, num_tests=19_500, incidences=975_000,
                     pinned=(2, 2, 0, 0), design_sha256="a895c22c0088ab6d"),
            ),
            setup_repeats=5,
        ),
        Workload(
            "large-n-roundtrip",
            (
                Part("permuted-rho-large", "coma",
                     lambda s: permuted_block_rho_design(400_000, 10, 100, 0.5, _rng(s)),
                     DesignParams(n=400_000, d=10, rho=100, zeta=0.5), 10,
                     trials=8000, num_tests=16_000, incidences=1_600_000,
                     pinned=(0, 0, 0, 0), design_sha256="71a41a34ba1857c6"),
            ),
            setup_repeats=3,
            roundtrip=True,
            jobs_check=False,
            wall_trials=True,
        ),
    )
}
