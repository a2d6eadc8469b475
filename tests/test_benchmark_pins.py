"""The benchmark's correctness gate, checked in the test suite: at the
pinned seed, each part of each workload in ``perfbench/workloads.py``
serializes to its pinned design digest, and ``run_monte_carlo`` over its
trials returns its pinned counts. A change that moves a count then fails
here rather than only in a benchmark run. The harness's batch sizes on
each part are pinned too, so that a change to a batch's bytes cannot come
from a quietly resized batch. The workload file is imported as it stands
and never changed."""

import hashlib
import sys
import types
from pathlib import Path

import pytest

from sparsegt import PRIOR_UNIFORM_EXACT, Prior, SimConfig, run_monte_carlo, serialize, sim
from sparsegt.decoders import make_plan

WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads() -> types.ModuleType:
    """The workload module, run from its source, so that no bytecode cache
    is written next to it."""
    module = types.ModuleType("_perfbench_workloads")
    # dataclasses look their module up in sys.modules while they are built
    sys.modules[module.__name__] = module
    exec(compile(WORKLOADS_PATH.read_text(), str(WORKLOADS_PATH), "exec"), module.__dict__)
    return module


workloads = _load_workloads()
PARTS = [(w.name, part) for w in workloads.WORKLOADS.values() for part in w.parts]


@pytest.mark.parametrize("workload, part", PARTS, ids=[f"{w}-{p.name}" for w, p in PARTS])
def test_pinned_design_and_counts(workload, part):
    seed = workloads.PINNED_SEED
    matrix = part.build(seed)
    assert hashlib.sha256(serialize(matrix).encode()).hexdigest()[:16] == part.design_sha256
    assert (matrix.num_tests, matrix.ones_count()) == (part.num_tests, part.incidences)
    config = SimConfig(params=part.params, prior=Prior(PRIOR_UNIFORM_EXACT, part.d),
                       trials=part.trials, master_seed=seed)
    report = run_monte_carlo(matrix, part.decoder, config)
    b = report.breakdown
    counts = (report.errors, b.false_positive_items, b.ambiguous_blocks, b.wrong_estimate)
    assert counts == part.pinned


# trials per batch (``sim._batch_trials``, flips counted where the channel
# is noisy) and per chunk of PCG64 states (``sim._draw_chunk``) on each part
BATCHES = {
    "random-gamma": (6784, 37449),
    "permuted-rho": (5120, 21845),
    "block-hypergrid": (12483, 37449),
    "block-binary": (12336, 37449),
    "repeated-permuted-rho": (192, 21845),
    "permuted-rho-large": (1600, 21845),
}


@pytest.mark.parametrize("workload, part", PARTS, ids=[f"{w}-{p.name}" for w, p in PARTS])
def test_pinned_batch_sizes(workload, part):
    matrix = part.build(workloads.PINNED_SEED)
    plan = make_plan(matrix, part.decoder)
    prior, sigma = Prior(PRIOR_UNIFORM_EXACT, part.d), part.params.sigma or 0.0
    flipped = matrix.num_tests if sigma > 0.0 else 0
    batch = sim._batch_trials(plan.evaluated, part.d, plan.trial_bytes + flipped, plan.batch_step)
    floyd = sim._replica_covers(prior, matrix.num_items)
    assert (batch, sim._draw_chunk(part.d if floyd else 0)) == BATCHES[part.name]
