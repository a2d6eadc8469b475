"""Command-line front end.

Four subcommands: ``design`` constructs a pooling design and writes it to a
file, ``simulate`` runs the Monte Carlo harness against a design, ``bounds``
evaluates a test-count bound or error floor, and ``oracle`` computes exact
error probabilities by enumeration, or from the block sizes for a block
design past the enumeration cap. Every run echoes its full invocation as a
comment line so any output is reproducible from the printed flags and seed.

Exit codes: 0 success (including a met --target-epsilon), 1 usage or input
error, 2 the run completed but the error target was exceeded, 3 a resource
cap refused the computation.
"""

from __future__ import annotations

import argparse
import math
import shlex
import sys
from fractions import Fraction

import numpy as np

from . import bounds as bounds_mod
from .core import (
    DesignParams,
    GroupTestingError,
    IncompatibleDecoderError,
    ParseError,
    PRIOR_IID_BERNOULLI,
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
    _serialized_parts,
    parse,
)
from .decoders import decoder_for, make_plan
from .designs import (
    _binary_rows,
    _grid_rows,
    _tiled_design,
    block_binary_rho_design,
    block_hypergrid_design,
    hypergrid_design,
    permuted_block_rho_design,
    random_gamma_design,
    repeat_design,
)
from .sim import (
    SIM_CSV_HEADER,
    SimConfig,
    bayes_optimal_error,
    block_collision_error,
    exhaustive_error_probability,
    outcome_collision_groups,
    run_monte_carlo,
)

__all__ = ["main"]

_FAMILIES = (
    TAG_RANDOM_GAMMA,
    TAG_HYPERGRID,
    TAG_BLOCK_HYPERGRID,
    TAG_PERMUTED_RHO,
    TAG_BLOCK_BINARY_RHO,
)


# the most defective sets `oracle` enumerates again to list confusable groups
_LIST_CAP = 1_000_000


class _UsageError(GroupTestingError):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsegt",
        description="Constrained group testing: designs, simulation, bounds, oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_design = sub.add_parser("design", help="construct a design and write it out")
    _add_family_flags(p_design)
    p_design.add_argument("--out", help="file to write the design to")

    p_sim = sub.add_parser("simulate", help="Monte Carlo error estimate")
    _add_family_flags(p_sim, optional=True)
    p_sim.add_argument("--design", help="design file (alternative to --family)")
    p_sim.add_argument("--trials", type=int, default=10_000)
    p_sim.add_argument("--jobs", type=int, default=1,
                       help="worker processes, at most one per processor (default 1)")
    p_sim.add_argument("--k", type=int,
                       help="repeat count of the design that runs (repeats a design that is not)")
    p_sim.add_argument(
        "--decoder",
        default="auto",
        choices=["auto", "coma", "hypergrid", "binary", "majority"],
    )
    p_sim.add_argument(
        "--prior", default="exact", choices=["exact", "bernoulli"],
        help="defective-set prior: uniform size-d (exact) or iid d/n",
    )
    p_sim.add_argument("--target-epsilon", type=float)
    p_sim.add_argument("--out", help="also append the CSV row to this file")

    p_bounds = sub.add_parser("bounds", help="evaluate a bound or error floor")
    p_bounds.add_argument(
        "--theorem", required=True, choices=["1", "2", "3", "4", "5", "6", "7", "noisy"]
    )
    p_bounds.add_argument("--n", type=int)
    p_bounds.add_argument("--d", type=int)
    p_bounds.add_argument("--gamma", type=int)
    p_bounds.add_argument("--rho", type=int)
    p_bounds.add_argument("--epsilon", type=float)
    p_bounds.add_argument("--sigma", type=float)
    p_bounds.add_argument("--zeta", type=float)
    p_bounds.add_argument("--csv", action="store_true", help="emit a CSV row")

    p_oracle = sub.add_parser("oracle", help="exact error by enumeration")
    p_oracle.add_argument(
        "--design", required=True, help="design file, or 'fig1' for the 3x3 grid"
    )
    p_oracle.add_argument("--d", type=int, required=True)
    p_oracle.add_argument("--sigma", type=float)
    p_oracle.add_argument(
        "--decoder",
        default="auto",
        choices=["auto", "coma", "hypergrid", "binary", "majority"],
    )
    p_oracle.add_argument("--target-epsilon", type=float)
    p_oracle.add_argument("--cap", type=int, default=10_000_000)
    return parser


def _add_family_flags(p: argparse.ArgumentParser, optional: bool = False) -> None:
    p.add_argument("--family", choices=list(_FAMILIES), required=not optional)
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--gamma", type=int)
    p.add_argument("--rho", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--sigma", type=float)
    p.add_argument("--zeta", type=float)
    p.add_argument("--seed", type=int, default=0)


def _require(args: argparse.Namespace, names: list[str], context: str):
    values = []
    for name in names:
        value = getattr(args, name)
        if value is None:
            raise _UsageError(f"{context} requires --{name}")
        values.append(value)
    return values


def _construct(args: argparse.Namespace) -> TestMatrix:
    family = args.family
    if args.seed < 0:
        raise _UsageError("--seed must be >= 0")
    if family == TAG_RANDOM_GAMMA:
        n, d, gamma, eps = _require(args, ["n", "d", "gamma", "epsilon"], family)
        rng = np.random.default_rng(args.seed)
        return random_gamma_design(n, d, gamma, eps, rng)
    if family == TAG_HYPERGRID:
        n, gamma = _require(args, ["n", "gamma"], family)
        return hypergrid_design(n, gamma)
    if family == TAG_BLOCK_HYPERGRID:
        n, d, gamma, eps = _require(args, ["n", "d", "gamma", "epsilon"], family)
        return block_hypergrid_design(n, d, gamma, eps)
    if family == TAG_PERMUTED_RHO:
        n, d, rho, zeta = _require(args, ["n", "d", "rho", "zeta"], family)
        rng = np.random.default_rng(args.seed)
        return permuted_block_rho_design(n, d, rho, zeta, rng)
    if family == TAG_BLOCK_BINARY_RHO:
        n, d, rho, eps = _require(args, ["n", "d", "rho", "epsilon"], family)
        return block_binary_rho_design(n, d, rho, eps)
    raise _UsageError(f"unknown family {family!r}")


def _summary_line(family: str, matrix: TestMatrix) -> str:
    weights = matrix.row_weights()
    max_row = int(weights.max()) if weights.size else 0
    max_col = int(matrix.column_weights().max()) if matrix.num_items else 0
    return (
        f"{family} {matrix.num_tests} {matrix.num_items} "
        f"{matrix.ones_count()} {max_row} {max_col}"
    )


def _load_design(path: str) -> TestMatrix:
    if path == "fig1":
        return hypergrid_design(9, 2)
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the line of the first bad byte, where str.splitlines ends lines as parse does
        line_no = len((data[: exc.start].decode("utf-8") + "?").splitlines())
        raise ParseError(line_no, "not UTF-8 text") from None
    del data  # parse holds the text alone
    return parse(text)


def _cmd_design(args: argparse.Namespace, echo: str) -> int:
    matrix = _construct(args)
    print(echo)
    print(_summary_line(args.family, matrix))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(echo + "\n")
            fh.write(f"# family={args.family} seed={args.seed}\n")
            # each part is written as it is formed, so the text is never whole
            fh.writelines(_serialized_parts(matrix))
    return 0


def _check_target(args: argparse.Namespace) -> None:
    if args.target_epsilon is not None and not 0.0 <= args.target_epsilon <= 1.0:
        raise _UsageError("--target-epsilon must lie in [0, 1]")


def _cmd_simulate(args: argparse.Namespace, echo: str) -> int:
    _check_target(args)
    if args.design:
        matrix = _load_design(args.design)
    elif args.family:
        matrix = _construct(args)
    else:
        raise _UsageError("simulate needs --design or --family")
    sigma = args.sigma
    # --k is the repeat count of the design that runs
    if args.k is not None:
        if args.k < 1:
            raise _UsageError("--k must be >= 1")
        if matrix.repeat_k == 1:
            matrix = repeat_design(matrix, args.k)
        elif args.k != matrix.repeat_k:
            raise _UsageError(
                f"--k {args.k} differs from the design's repeat count k={matrix.repeat_k}"
            )
    elif sigma is not None and sigma > 0.0 and matrix.design_tag != TAG_REPEATED:
        raise _UsageError(
            "noisy simulation needs a repeated design: pass --k "
            "or load a design with a repetition header"
        )

    (d,) = _require(args, ["d"], "simulate")
    prior_kind = PRIOR_UNIFORM_EXACT if args.prior == "exact" else PRIOR_IID_BERNOULLI
    # the constructors check their own flags; the harness reads only n and sigma
    config = SimConfig(
        params=DesignParams(n=matrix.num_items, d=d, sigma=sigma),
        prior=Prior(prior_kind, d),
        trials=args.trials,
        master_seed=args.seed,
        parallelism=args.jobs,
    )
    report = run_monte_carlo(matrix, args.decoder, config)
    print(echo)
    print(SIM_CSV_HEADER)
    print(report.csv_row())
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(echo + "\n" + SIM_CSV_HEADER + "\n" + report.csv_row() + "\n")
    if args.target_epsilon is not None and report.error_rate > args.target_epsilon:
        print(
            f"# target exceeded: error_rate {report.error_rate:.6g} > "
            f"{args.target_epsilon:.6g}"
        )
        return 2
    return 0


def _cmd_bounds(args: argparse.Namespace, echo: str) -> int:
    theorem = args.theorem
    if theorem == "noisy":
        d, gamma, sigma = _require(args, ["d", "gamma", "sigma"], "noisy floor")
        report = bounds_mod.noisy_gamma_error_floor(d, gamma, sigma)
    else:
        number = int(theorem)
        required = {
            1: ["n", "d", "gamma", "epsilon"],
            2: ["n", "d", "gamma", "epsilon"],
            3: ["n", "d", "gamma", "epsilon"],
            4: ["n", "d", "rho", "epsilon"],
            5: ["n", "d", "rho", "zeta"],
            6: ["n", "d", "rho", "epsilon"],
            7: ["n", "d", "rho", "zeta", "sigma"],
        }[number]
        _require(args, required, f"--theorem {number}")
        params = DesignParams(
            n=args.n,
            d=args.d,
            epsilon=args.epsilon,
            gamma=args.gamma,
            rho=args.rho,
            sigma=args.sigma,
            zeta=args.zeta,
        )
        if number == 1:
            report = bounds_mod.gamma_lower_bound(params)
        elif number == 4:
            report = bounds_mod.rho_lower_bound(params)
        else:
            family = {
                2: TAG_RANDOM_GAMMA,
                3: TAG_BLOCK_HYPERGRID,
                5: TAG_PERMUTED_RHO,
                6: TAG_BLOCK_BINARY_RHO,
                7: TAG_REPEATED,
            }[number]
            report = bounds_mod.upper_bound_tests(params, family)
    print(echo)
    if args.csv:
        print("name,value,integer_value,floor,assumptions")
        print(report.render_csv())
    else:
        print(report.render_text())
    return 0


def _format_items(items: tuple[int, ...]) -> str:
    zero = "{" + ",".join(str(i) for i in items) + "}"
    one = "{" + ",".join(str(i + 1) for i in items) + "}"
    return f"{zero} (1-based {one})"


def _block_error(matrix: TestMatrix, decoder: str, d: int) -> Fraction | None:
    """The exact error of a block design's own decoder under a uniform
    size-d defective set, :func:`~sparsegt.sim.block_collision_error`, or
    None unless the design has blocks, the decoder is its own and it reads
    the design, and its rows are those its constructor lays out for those
    blocks. The decoder then errs exactly when two defectives share a
    block."""
    if matrix.block_starts is None or decoder != decoder_for(matrix):
        return None
    try:
        make_plan(matrix, decoder)
    except IncompatibleDecoderError:
        return None
    if decoder == "hypergrid":
        gamma = matrix.col_limit
        built = _tiled_design(matrix.num_items, matrix.block_starts,
                              lambda size: _grid_rows(size, gamma))
    else:
        built = _tiled_design(matrix.num_items, matrix.block_starts, _binary_rows)
    if not (np.array_equal(built.indptr, matrix.indptr)
            and np.array_equal(built.indices, matrix.indices)):
        return None
    return block_collision_error(matrix, d)


def _cmd_oracle(args: argparse.Namespace, echo: str) -> int:
    _check_target(args)
    matrix = _load_design(args.design)
    if args.sigma is not None and not 0.0 <= args.sigma < 0.5:
        raise _UsageError("--sigma must lie in [0, 1/2)")
    if args.sigma and args.decoder != "auto":
        raise _UsageError(
            "--decoder needs a noiseless oracle: the MAP oracle of --sigma > 0 uses no decoder"
        )
    if args.cap < 0:
        raise _UsageError("--cap must be >= 0")
    print(echo)
    if args.sigma:
        prior = Prior(PRIOR_IID_BERNOULLI, args.d)
        error = bayes_optimal_error(matrix, args.sigma, prior)
        print(f"map_error={error:.6g}")
        col_weights = matrix.column_weights()
        gamma = int(col_weights.max()) if matrix.num_items else 0
        # the floor needs a defective and a tested item; without either, the
        # MAP error alone is the answer
        if gamma >= 1 and args.d >= 1:
            floor_report = bounds_mod.noisy_gamma_error_floor(args.d, gamma, args.sigma)
            floor = floor_report.floor or 0.0
            if 2 * args.d >= matrix.num_items:
                verdict = "n/a"  # the floor assumes d < n/2
            else:
                verdict = "holds" if error >= floor - 1e-12 else "VIOLATED"
            print(f"floor={floor:.6g} (gamma={gamma}) floor_check={verdict}")
        exact_error = error
    else:
        decoder = decoder_for(matrix) if args.decoder == "auto" else args.decoder
        n, d = matrix.num_items, args.d
        total = math.comb(n, d) if 0 <= d <= n else 0
        probability = _block_error(matrix, decoder, d) if total > args.cap else None
        enumerated = probability is None
        if enumerated:
            probability = exhaustive_error_probability(matrix, decoder, d, cap=args.cap)
        print(
            f"exact_error={probability.numerator}/{probability.denominator}"
            f"={float(probability):.6g}"
        )
        if not enumerated:
            print(f"# confusable groups not listed: C({n},{d}) = {total} exceeds the cap of "
                  f"{args.cap}; exact_error is the chance that two defectives share a block")
        elif total > _LIST_CAP:
            print(f"# confusable groups not listed: C({n},{d}) = {total} exceeds {_LIST_CAP}")
        else:
            groups = outcome_collision_groups(matrix, d, cap=_LIST_CAP)
            for group in groups[:10]:
                rendered = " == ".join(_format_items(member) for member in group)
                print(f"# confusable: {rendered}")
            if len(groups) > 10:
                print(f"# ... and {len(groups) - 10} more confusable groups")
        exact_error = float(probability)
    if args.target_epsilon is not None and exact_error > args.target_epsilon:
        print(
            f"# target exceeded: error {exact_error:.6g} > {args.target_epsilon:.6g}"
        )
        return 2
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    echo = "# cmd: sparsegt " + " ".join(shlex.quote(a) for a in argv)
    commands = {
        "design": _cmd_design,
        "simulate": _cmd_simulate,
        "bounds": _cmd_bounds,
        "oracle": _cmd_oracle,
    }
    try:
        return commands[args.command](args, echo)
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except (GroupTestingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
