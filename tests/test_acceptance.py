"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line; the
whole file finishes in well under a minute on a laptop, far inside each
criterion's stated budget.
"""

import math
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from sparsegt.bounds import (
    binary_regime,
    gamma_lower_bound,
    noisy_gamma_error_floor,
    repetition_count,
    rho_lower_bound,
    upper_bound_tests,
)
from sparsegt.core import (
    DefectiveSet,
    DesignParams,
    Prior,
    PRIOR_IID_BERNOULLI,
    PRIOR_UNIFORM_EXACT,
    TestMatrix,
    evaluate,
)
from sparsegt.decoders import hypergrid_block_decode
from sparsegt.designs import (
    block_binary_rho_design,
    block_hypergrid_design,
    hypergrid_design,
    permuted_block_rho_design,
    random_gamma_design,
    repeat_design,
)
from sparsegt.sim import (
    SimConfig,
    bayes_optimal_error,
    block_collision_error,
    derive_trial_seed,
    exhaustive_error_probability,
    run_monte_carlo,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def _report(cid: str, checks: list[tuple[str, bool]], detail: str) -> None:
    failed = [label for label, ok in checks if not ok]
    status = "PASS" if not failed else "FAIL"
    suffix = detail if not failed else f"{detail}; failed: {', '.join(failed)}"
    print(f"[acceptance] {cid}: {status} {suffix}")
    assert not failed, f"{cid} failed sub-checks: {failed}"


def _mc(matrix, decoder, d, trials, seed, **params):
    cfg = SimConfig(
        params=DesignParams(n=matrix.num_items, d=d, **params),
        prior=Prior(PRIOR_UNIFORM_EXACT, d),
        trials=trials,
        master_seed=seed,
    )
    return run_monte_carlo(matrix, decoder, cfg)


def test_c01_single_defective_grid_readout():
    matrix = hypergrid_design(9, 2)
    y = evaluate(matrix, DefectiveSet({5}, 9))
    positives_1based = tuple(t + 1 for t in y.positives())
    decoded = hypergrid_block_decode(matrix, y)
    exact = exhaustive_error_probability(matrix, "hypergrid", 1)
    checks = [
        ("positive tests", positives_1based == (3, 5)),
        ("decode", decoded.estimate.items == (5,) and decoded.status == "ok"),
        ("d=1 exhaustive error", exact == Fraction(0)),
    ]
    _report(
        "C1",
        checks,
        "hypergrid(9,2) D={5}: tests {3,5} (1-based), decode {5}, "
        f"d=1 error {exact} over all 9 singletons",
    )


def test_c02_pair_confusability():
    matrix = hypergrid_design(9, 2)
    y_a = evaluate(matrix, DefectiveSet({2, 4}, 9))
    y_b = evaluate(matrix, DefectiveSet({1, 5}, 9))
    exact = exhaustive_error_probability(matrix, "hypergrid", 2)
    checks = [
        ("outcome equality", y_a == y_b),
        ("d=2 exhaustive error", exact == Fraction(1)),
    ]
    _report(
        "C2",
        checks,
        "evaluate{2,4} == evaluate{1,5} bit-for-bit; strict decode errs on all "
        f"36 pairs (exact error {exact})",
    )


def test_c03_random_gamma_at_desk_scale():
    started = time.perf_counter()
    matrix = random_gamma_design(10_000, 5, 3, 0.1, np.random.default_rng(7))
    report = _mc(matrix, "coma", d=5, trials=10_000, seed=42, epsilon=0.1, gamma=3)
    wall = time.perf_counter() - started
    checks = [
        ("T == 1893", matrix.num_tests == 1893),
        ("Wilson upper <= 0.1", report.ci_high <= 0.1),
        ("runtime <= 60 s", wall <= 60.0),
    ]
    _report(
        "C3",
        checks,
        f"T={matrix.num_tests}, {report.errors}/{report.trials} errors, "
        f"Wilson upper {report.ci_high:.4g} <= 0.1, {wall:.1f}s",
    )


def _trial_defectives(seed, trials, n, d):
    """Each trial's defective set, re-derived from the published seeding
    contract (uniform size-d prior)."""
    sets = []
    for t in range(trials):
        rng = np.random.default_rng(derive_trial_seed(seed, t))
        sets.append(np.sort(rng.choice(n, size=d, replace=False)))
    return sets


def _collision_trials(matrix, defect_sets):
    """Trials in which some block holds two or more defectives: exactly the
    trials a strict block decoder gets wrong."""
    starts = np.asarray(matrix.block_starts)
    return sum(
        int(np.unique(np.searchsorted(starts, defect, side="right")).size < defect.size)
        for defect in defect_sets
    )


def test_c04_block_hypergrid_at_desk_scale():
    started = time.perf_counter()
    matrix = block_hypergrid_design(10_000, 5, 2, 0.1)
    report = _mc(matrix, "hypergrid", d=5, trials=10_000, seed=42, epsilon=0.1, gamma=2)
    collisions = _collision_trials(matrix, _trial_defectives(42, report.trials, 10_000, 5))
    frequency = 1 - collisions / report.trials
    exact = block_collision_error(matrix, 5)
    wall = time.perf_counter() - started
    checks = [
        ("T <= 3500", matrix.num_tests <= 3500),
        ("MC error <= 0.1", report.error_rate <= 0.1),
        ("no-collision >= 0.9", frequency >= 0.9),
        ("errors == collision trials", report.errors == collisions),
        ("exact error 0.038482", round(float(exact), 6) == 0.038482),
        ("Wilson covers exact", report.ci_low <= exact <= report.ci_high),
        ("runtime <= 60 s", wall <= 60.0),
    ]
    _report(
        "C4",
        checks,
        f"T={matrix.num_tests} <= 3500, error {report.error_rate:.4g} <= 0.1, "
        f"no-collision {frequency:.4g} >= 0.9, errors == {collisions} collision "
        f"trials, Wilson [{report.ci_low:.4g}, {report.ci_high:.4g}] covers exact "
        f"{float(exact):.6f}, {wall:.1f}s",
    )


def test_c05_permuted_blocks_and_universality():
    started = time.perf_counter()
    matrix = permuted_block_rho_design(10_000, 10, 100, 0.5, np.random.default_rng(11))
    report = _mc(matrix, "coma", d=10, trials=10_000, seed=42, rho=100, zeta=0.5)
    checks = [
        ("c == 6", matrix.col_limit == 6),
        ("T == 600", matrix.num_tests == 600),
        ("Wilson upper <= 0.01", report.ci_high <= 0.01),
    ]

    # doubling the pass count must handle every defective count up to 20
    doubled = permuted_block_rho_design(10_000, 10, 100, 2.0, np.random.default_rng(11))
    checks.append(("doubled T == 1200", doubled.num_tests == 2 * matrix.num_tests))
    worst = 0.0
    for d_prime in range(1, 21):
        rep = _mc(doubled, "coma", d=d_prime, trials=2_000, seed=42 + d_prime,
                  rho=100, zeta=2.0)
        worst = max(worst, rep.ci_high)
        checks.append((f"d'={d_prime} error <= 0.01", rep.ci_high <= 0.01))
    wall = time.perf_counter() - started
    checks.append(("runtime <= 120 s", wall <= 120.0))
    _report(
        "C5",
        checks,
        f"c=6, T=600, Wilson upper {report.ci_high:.4g} <= 0.01; doubled T=1200 "
        f"handles d'=1..20 (worst Wilson upper {worst:.4g}), {wall:.1f}s",
    )


def test_c06_binary_blocks_both_regimes():
    started = time.perf_counter()
    defect_sets = _trial_defectives(42, 10_000, 10_000, 5)
    results = []
    for rho, expected_tests in ((20, 2500), (50, 1500)):
        matrix = block_binary_rho_design(10_000, 5, rho, 0.1)
        report = _mc(matrix, "binary", d=5, trials=10_000, seed=42,
                     epsilon=0.1, rho=rho)
        results.append((rho, matrix.num_tests, expected_tests, report,
                        _collision_trials(matrix, defect_sets),
                        block_collision_error(matrix, 5)))
    wall = time.perf_counter() - started
    checks = [
        (f"rho={rho}: T == {want}", got == want)
        for rho, got, want, *_ in results
    ] + [
        (f"rho={rho}: error <= 0.1", report.error_rate <= 0.1)
        for rho, _, _, report, *_ in results
    ] + [
        (f"rho={rho}: errors == collision trials", report.errors == collisions)
        for rho, _, _, report, collisions, _ in results
    ] + [
        (f"rho={rho}: Wilson covers exact", report.ci_low <= exact <= report.ci_high)
        for rho, _, _, report, _, exact in results
    ] + [("runtime <= 60 s", wall <= 60.0)]
    detail = "; ".join(
        f"rho={rho}: T={got} (want {want}), error {report.error_rate:.4g} "
        f"({collisions} collision trials), exact {float(exact):.6f}"
        for rho, got, want, report, collisions, exact in results
    )
    _report("C6", checks, f"{detail}, {wall:.1f}s")


def test_c07_repeated_design_under_noise():
    started = time.perf_counter()
    base = permuted_block_rho_design(1000, 10, 50, 0.5, np.random.default_rng(3))
    k = repetition_count(1000, 0.1, 0.5)
    matrix = repeat_design(base, k)
    report = _mc(matrix, "majority", d=10, trials=10_000, seed=42,
                 rho=50, sigma=0.1, zeta=0.5)
    target = 2.0 * 1000**-0.5
    wall = time.perf_counter() - started
    checks = [
        ("k == 65", k == 65),
        ("T == 19500", matrix.num_tests == 19_500),
        ("error <= 2n^-zeta", report.error_rate <= target),
        ("runtime <= 300 s", wall <= 300.0),
    ]
    _report(
        "C7",
        checks,
        f"k={k}, T={matrix.num_tests}, error {report.error_rate:.4g} <= "
        f"{target:.4g}, {wall:.1f}s",
    )


def test_c08_noisy_error_floor_holds_exactly():
    started = time.perf_counter()
    designs = [
        TestMatrix(rows=tuple((i,) for i in range(6)), num_items=6),
        TestMatrix(rows=((0, 1), (2, 3), (4, 5), (6, 7)), num_items=8),
        hypergrid_design(8, 2),
        hypergrid_design(9, 2),
        hypergrid_design(10, 2),
    ]
    checks = []
    tightest = 1.0
    for matrix in designs:
        gamma = int(matrix.column_weights().max())
        assert matrix.num_items <= 10 and matrix.num_tests <= 14
        for sigma in (0.1, 0.2, 0.25):
            for d in (1, 2):
                error = bayes_optimal_error(matrix, sigma, Prior(PRIOR_IID_BERNOULLI, d))
                floor = noisy_gamma_error_floor(d, gamma, sigma).floor
                tightest = min(tightest, error - floor)
                label = f"T={matrix.num_tests} gamma={gamma} sigma={sigma} d={d}"
                checks.append((label, error >= floor))
    wall = time.perf_counter() - started
    checks.append(("runtime <= 60 s", wall <= 60.0))
    _report(
        "C8",
        checks,
        f"{len(checks) - 1} enumerable instances all have MAP error >= "
        f"d(sigma/(1-sigma))^gamma/(1+r) (tightest margin {tightest:.4g}), {wall:.1f}s",
    )


def test_c09_bound_vs_construction_sweep():
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    checks = []
    tuples = 0

    for n in (1000, 10_000):
        for d in (2, 5):
            for gamma in (2, 3):
                for eps in (0.01, 0.05, 0.1):
                    p = DesignParams(n=n, d=d, epsilon=eps, gamma=gamma)
                    upper = upper_bound_tests(p, "random-gamma")
                    built = random_gamma_design(n, d, gamma, eps, rng)
                    lower = gamma_lower_bound(p)
                    tag = f"rg({n},{d},{gamma},{eps})"
                    checks.append((f"{tag} T exact", upper.integer_value == built.num_tests))
                    checks.append((f"{tag} lower <= upper", lower.value <= upper.value))
                    tuples += 1
                    if eps == 0.01:
                        # the ratio carries the construction's own factor of e
                        factor = (upper.integer_value / lower.value) / (d / eps) ** (1.0 / gamma)
                        checks.append((f"{tag} ratio", 1.0 <= factor <= math.e**2))

    for n in (1000, 10_000):
        for d in (2, 5, 10):
            for rho in (10, 30):
                for zeta in (0.5, 1.0):
                    p = DesignParams(n=n, d=d, rho=rho, zeta=zeta)
                    upper = upper_bound_tests(p, "permuted-rho")
                    built = permuted_block_rho_design(n, d, rho, zeta, rng)
                    lower = rho_lower_bound(
                        DesignParams(n=n, d=d, rho=rho, epsilon=min(0.49, n**-zeta))
                    )
                    tag = f"pm({n},{d},{rho},{zeta})"
                    checks.append((f"{tag} T exact", upper.integer_value == built.num_tests))
                    checks.append((f"{tag} lower <= upper", lower.value <= upper.value))
                    tuples += 1

    for n in (500, 1000):
        for d in (5, 10):
            for rho in (10, 20):
                for sigma in (0.1, 0.2):
                    p = DesignParams(n=n, d=d, rho=rho, sigma=sigma, zeta=0.5)
                    upper = upper_bound_tests(p, "repeated")
                    base = permuted_block_rho_design(n, d, rho, 0.5, rng)
                    built = repeat_design(base, repetition_count(n, sigma, 0.5))
                    tag = f"rep({n},{d},{rho},{sigma})"
                    checks.append((f"{tag} T exact", upper.integer_value == built.num_tests))
                    tuples += 1

    for n in (200, 1000, 5000):
        for d in (2, 4):
            for gamma in (2, 3):
                for eps in (0.3, 0.45):
                    p = DesignParams(n=n, d=d, epsilon=eps, gamma=gamma)
                    upper = upper_bound_tests(p, "block-hypergrid")
                    built = block_hypergrid_design(n, d, gamma, eps)
                    tag = f"bh({n},{d},{gamma},{eps})"
                    checks.append((f"{tag} T <= bound", built.num_tests <= upper.integer_value))
                    tuples += 1

    for n in (200, 1000, 5000):
        for d in (2, 4):
            for rho in (8, 16):
                for eps in (0.3, 0.45):
                    p = DesignParams(n=n, d=d, epsilon=eps, rho=rho)
                    upper = upper_bound_tests(p, "block-binary-rho")
                    built = block_binary_rho_design(n, d, rho, eps)
                    tag = f"bb({n},{d},{rho},{eps})"
                    checks.append((f"{tag} T <= bound", built.num_tests <= upper.integer_value))
                    if binary_regime(n, d, rho, eps) == 1 and n % rho == 0:
                        checks.append((f"{tag} T exact", built.num_tests == upper.integer_value))
                    tuples += 1

    wall = time.perf_counter() - started
    checks.append(("tuple count >= 100", tuples >= 100))
    checks.append(("runtime <= 10 s", wall <= 10.0))
    _report(
        "C9",
        checks,
        f"{tuples} parameter tuples: exact T for the three randomized families, "
        f"bound dominates both block families, lower <= upper, Thm2/Thm1 ratio "
        f"within a factor e of e*(d/eps)^(1/gamma), {wall:.1f}s",
    )


def test_c10_property_suites_run_standalone():
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "tests/test_properties.py", "-q"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=115,
    )
    wall = time.perf_counter() - started
    checks = [
        ("standalone pytest exit 0", proc.returncode == 0),
        ("runtime <= 120 s", wall <= 120.0),
    ]
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "no output"
    _report("C10", checks, f"tests/test_properties.py standalone: {tail}, {wall:.1f}s")
