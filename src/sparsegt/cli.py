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
import functools
import inspect
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
    _PARAMETERS,
    _out_of_memory,
    _parameter,
    _serialized_parts,
    parse,
)
from .decoders import _PLAN_TYPES, decoder_for, make_plan
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

# a family reads the flags named by its constructor's parameters, with its rng
# seeded from --seed; a theorem reads --n and --d into DesignParams, with any
# other parameter flags given, and its calculator refuses what it lacks
_FAMILIES = {
    TAG_RANDOM_GAMMA: random_gamma_design,
    TAG_HYPERGRID: hypergrid_design,
    TAG_BLOCK_HYPERGRID: block_hypergrid_design,
    TAG_PERMUTED_RHO: permuted_block_rho_design,
    TAG_BLOCK_BINARY_RHO: block_binary_rho_design,
}
_THEOREMS = {
    "1": bounds_mod.gamma_lower_bound,
    "2": functools.partial(bounds_mod.upper_bound_tests, family=TAG_RANDOM_GAMMA),
    "3": functools.partial(bounds_mod.upper_bound_tests, family=TAG_BLOCK_HYPERGRID),
    "4": bounds_mod.rho_lower_bound,
    "5": functools.partial(bounds_mod.upper_bound_tests, family=TAG_PERMUTED_RHO),
    "6": functools.partial(bounds_mod.upper_bound_tests, family=TAG_BLOCK_BINARY_RHO),
    "7": functools.partial(bounds_mod.upper_bound_tests, family=TAG_REPEATED),
}


# the most defective sets `oracle` enumerates without --cap, and again to
# list confusable groups
_ENUMERATION_CAP = 10_000_000
_LIST_CAP = 1_000_000

# a block decoder's rows for a block of ``size`` items of a block design
_BLOCK_ROWS = {
    "hypergrid": lambda matrix, size: _grid_rows(size, matrix.col_limit),
    "binary": lambda matrix, size: _binary_rows(size),
}


class _UsageError(GroupTestingError):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser that refuses as a usage error: one line, exit 1."""

    def error(self, message: str):
        raise _UsageError(message)


# flag --x-y reads parameter "x y", typed by its kind; the options flags add
_FLAGS = {
    "seed": {"default": 0},
    "trials": {"default": 10_000},
    "jobs": {"default": 1, "help": "worker processes, at most one per processor (default 1)"},
    "k": {"help": "repeat count of the design that runs (repeats a design that is not)"},
    "cap": {"help": f"most defective sets to enumerate (default {_ENUMERATION_CAP})"},
}
_DESIGN_FLAGS = ("n", "d", "gamma", "rho", "epsilon", "sigma", "zeta")


def _add_flags(p: argparse.ArgumentParser, *names: str, **options) -> None:
    """Add the flag of each parameter of ``names``, with ``options``."""
    for name in names:
        p.add_argument("--" + name.replace(" ", "-"), type=_PARAMETERS[name][1],
                       **_FLAGS.get(name, {}), **options)


def _flag(args: argparse.Namespace, name: str):
    """The flag of parameter ``name`` as its rule reads it, naming the flag,
    or None when it is not given."""
    value = getattr(args, name.replace(" ", "_"))
    return None if value is None else _parameter(name, value, label="--" + name.replace(" ", "-"))


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sparsegt",
        description="Constrained group testing: designs, simulation, bounds, oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_design = sub.add_parser("design", help="construct a design and write it out")
    p_design.add_argument("--family", choices=list(_FAMILIES), required=True)
    _add_flags(p_design, *_DESIGN_FLAGS, "seed")
    p_design.add_argument("--out", help="file to write the design to")

    p_sim = sub.add_parser("simulate", help="Monte Carlo error estimate")
    p_sim.add_argument("--family", choices=list(_FAMILIES))
    _add_flags(p_sim, *_DESIGN_FLAGS, "seed", "trials", "jobs", "k", "target epsilon")
    p_sim.add_argument("--design", help="design file (alternative to --family)")
    p_sim.add_argument(
        "--decoder",
        default="auto",
        choices=["auto", *_PLAN_TYPES],
    )
    p_sim.add_argument(
        "--prior", default="exact", choices=["exact", "bernoulli"],
        help="defective-set prior: uniform size-d (exact) or iid d/n",
    )
    p_sim.add_argument("--out", help="also append the CSV row to this file")

    p_bounds = sub.add_parser("bounds", help="evaluate a bound or error floor")
    p_bounds.add_argument(
        "--theorem", required=True, choices=[*_THEOREMS, "noisy"]
    )
    _add_flags(p_bounds, *_DESIGN_FLAGS)
    p_bounds.add_argument("--csv", action="store_true", help="emit a CSV row")

    p_oracle = sub.add_parser("oracle", help="exact error by enumeration")
    p_oracle.add_argument(
        "--design", required=True, help="design file, or 'fig1' for the 3x3 grid"
    )
    _add_flags(p_oracle, "d", required=True)
    _add_flags(p_oracle, "sigma", "target epsilon", "cap")
    p_oracle.add_argument(
        "--decoder",
        default="auto",
        choices=["auto", *_PLAN_TYPES],
    )
    return parser


def _call(function, args: argparse.Namespace, context: str, **given):
    """Call ``function`` with ``given`` for the parameters named there and the
    flag of the same name for each other parameter; ``context`` requires the
    flag of a parameter without a default."""
    kwargs = {}
    for name, parameter in inspect.signature(function).parameters.items():
        value = given[name] if name in given else getattr(args, name)
        if value is not None:
            kwargs[name] = value
        elif parameter.default is inspect.Parameter.empty:
            raise _UsageError(f"{context} requires --{name}")
    return function(**kwargs)


def _construct(args: argparse.Namespace) -> TestMatrix:
    with _out_of_memory("building the design"):
        return _call(_FAMILIES[args.family], args, args.family,
                     rng=np.random.default_rng(_flag(args, "seed")))


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
    with _out_of_memory("reading the design"):
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


def _cmd_simulate(args: argparse.Namespace, echo: str) -> int:
    target, k = _flag(args, "target epsilon"), _flag(args, "k")
    d = args.d
    if d is None:
        raise _UsageError("simulate requires --d")
    if args.design:
        matrix = _load_design(args.design)
    elif args.family:
        matrix = _construct(args)
    else:
        raise _UsageError("simulate needs --design or --family")
    sigma = args.sigma
    # --k is the repeat count of the design that runs
    if k is not None:
        if matrix.repeat_k == 1:
            matrix = repeat_design(matrix, k)
        elif k != matrix.repeat_k:
            raise _UsageError(
                f"--k {k} differs from the design's repeat count k={matrix.repeat_k}"
            )
    elif sigma is not None and sigma > 0.0 and matrix.design_tag != TAG_REPEATED:
        raise _UsageError(
            "noisy simulation needs a repeated design: pass --k "
            "or load a design with a repetition header"
        )

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
    if target is not None and report.error_rate > target:
        print(f"# target exceeded: error_rate {report.error_rate:.6g} > {target:.6g}")
        return 2
    return 0


def _cmd_bounds(args: argparse.Namespace, echo: str) -> int:
    if args.theorem == "noisy":
        report = _call(bounds_mod.noisy_gamma_error_floor, args, "noisy floor")
    else:
        params = _call(DesignParams, args, f"--theorem {args.theorem}")
        report = _THEOREMS[args.theorem](params)
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
    None unless the design has blocks, the decoder is its own block decoder
    and it reads the design, and its rows are those its constructor lays
    out for those blocks. The decoder then errs exactly when two
    defectives share a block."""
    rows = _BLOCK_ROWS.get(decoder)
    if rows is None or matrix.block_starts is None or decoder != decoder_for(matrix):
        return None
    try:
        make_plan(matrix, decoder)
    except IncompatibleDecoderError:
        return None
    built = _tiled_design(matrix.num_items, matrix.block_starts,
                          functools.partial(rows, matrix))
    if not (np.array_equal(built.indptr, matrix.indptr)
            and np.array_equal(built.indices, matrix.indices)):
        return None
    return block_collision_error(matrix, d)


def _cmd_oracle(args: argparse.Namespace, echo: str) -> int:
    target = _flag(args, "target epsilon")
    matrix = _load_design(args.design)
    sigma = _flag(args, "sigma")
    if sigma and (args.decoder != "auto" or args.cap is not None):
        raise _UsageError("--decoder and --cap need a noiseless oracle: the MAP oracle "
                          "of --sigma > 0 uses no decoder and caps its own work")
    cap = _ENUMERATION_CAP if args.cap is None else _flag(args, "cap")
    print(echo)
    if sigma:
        prior = Prior(PRIOR_IID_BERNOULLI, args.d)
        error = bayes_optimal_error(matrix, sigma, prior)
        print(f"map_error={error:.6g}")
        col_weights = matrix.column_weights()
        gamma = int(col_weights.max()) if matrix.num_items else 0
        # the floor needs a defective and a tested item; without either, the
        # MAP error alone is the answer
        if gamma >= 1 and args.d >= 1:
            floor_report = bounds_mod.noisy_gamma_error_floor(args.d, gamma, sigma)
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
        probability = _block_error(matrix, decoder, d) if total > cap else None
        enumerated = probability is None
        if enumerated:
            probability = exhaustive_error_probability(matrix, decoder, d, cap=cap)
        print(
            f"exact_error={probability.numerator}/{probability.denominator}"
            f"={float(probability):.6g}"
        )
        if not enumerated:
            print(f"# confusable groups not listed: C({n},{d}) = {total} exceeds the cap of "
                  f"{cap}; exact_error is the chance that two defectives share a block")
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
    if target is not None and exact_error > target:
        print(f"# target exceeded: error {exact_error:.6g} > {target:.6g}")
        return 2
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    echo = "# cmd: sparsegt " + " ".join(shlex.quote(a) for a in argv)
    commands = {
        "design": _cmd_design,
        "simulate": _cmd_simulate,
        "bounds": _cmd_bounds,
        "oracle": _cmd_oracle,
    }
    try:
        args = _build_parser().parse_args(argv)
        return commands[args.command](args, echo)
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except (GroupTestingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
