"""The benchmark's correctness gate, checked in the test suite: at the
pinned seed, each part of each workload in ``perfbench/workloads.py``
serializes to its pinned design digest, and ``run_monte_carlo`` over its
trials returns its pinned counts. A change that moves a count then fails
here rather than only in a benchmark run. The workload file is imported
as it stands and never changed."""

import hashlib
import sys
import types
from pathlib import Path

import pytest

from sparsegt import PRIOR_UNIFORM_EXACT, Prior, SimConfig, run_monte_carlo, serialize

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
