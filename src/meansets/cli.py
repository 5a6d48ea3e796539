"""meanset-lab command line interface.

Subcommands: meanset (solve one instance), walk (multi-vertex random-walk
report), table-f4 (sphere-sampling convergence table), decay (miss-rate
curves), check (randomized invariant sweep).  Exit codes: 0 success, 1 suite
failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from dataclasses import fields
from fractions import Fraction

from .errors import MeansetsError
from .experiments import (
    INVARIANT_SUITES,
    ExperimentConfig,
    SweepReport,
    decay_to_csv,
    derive_seed,
    require_increasing,
    run_decay_experiment,
    run_invariant_suite,
    run_invariant_sweep,
    run_table_experiment,
    table_to_csv,
    table_to_json,
)
from .freegroup import CayleyGraph
from .graphs import load_graph
from .measures import load_measure
from .meanset import (
    mean_set_bounded,
    mean_set_exact,
    mean_set_tree,
    measure_mean_set,
)
from .multivertex import (
    genuine_dimension,
    increments,
    positivity_hypotheses,
    second_moment,
    simulate_walk,
    first_moment,
)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one line on stderr,
    `error: <message>`, with exit code 2; subparsers are of this class too."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _fraction_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _increasing(text: str, minimum: int, what: str) -> tuple[int, ...]:
    """Comma-separated integers under `require_increasing`'s rule."""
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        values = ()
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    try:
        return require_increasing(values, minimum, what)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{exc}, got {text!r}") from None


def _sample_sizes(text: str) -> tuple[int, ...]:
    """Comma-separated sample sizes: positive and strictly increasing."""
    return _increasing(text, 1, "sample sizes")


def _lengths(text: str) -> tuple[int, ...]:
    """Comma-separated sphere lengths: nonnegative and strictly increasing."""
    return _increasing(text, 0, "sphere lengths")


def _load_instance(args):
    """Graph plus measure from --graph FILE or --free-rank R."""
    if args.graph is not None:
        g = load_graph(args.graph)
        mu = load_measure(args.measure, vertex_parser=int)
    else:
        g = CayleyGraph(args.free_rank)
        # a word above rank 26 is several g/G tokens: every field but the mass
        mu = load_measure(args.measure, vertex_parser=g.read_id, multi_token=True)
    return g, mu


def _add_instance_args(parser: argparse.ArgumentParser) -> None:
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph", help="explicit graph file (edge list)")
    src.add_argument("--free-rank", type=_positive_int, metavar="R",
                     help="use the free group of rank R instead of a graph file")
    parser.add_argument("--measure", required=True, help="measure file: 'vertex mass' lines")


def _write_output(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_meanset(args) -> int:
    g, mu = _load_instance(args)
    if args.method == "bounded" and isinstance(g, CayleyGraph):
        raise MeansetsError(
            "--method bounded does not run on a free group: its balls grow "
            "exponentially (use descent)"
        )
    # built per call, so each solver is looked up when the command runs
    solvers = {"auto": measure_mean_set, "exact": mean_set_exact,
               "descent": mean_set_tree, "bounded": mean_set_bounded}
    result = solvers[args.method](g, mu, args.weight_class)
    # on a free group the payload has always reported the atoms' prefix hull
    steps = g.prefix_hull_size(mu.support()) if isinstance(g, CayleyGraph) else result.steps
    payload = {
        "vertices": result.sorted_vertices(),
        "min_weight": _fraction_str(result.min_weight),
        "class": result.class_c,
        "method": result.method,
        "steps": steps,
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_walk(args) -> int:
    g, mu = _load_instance(args)
    meanset = measure_mean_set(g, mu, 2).vertices
    base, *others = sorted(meanset)
    incs = increments(g, mu, base, others, validate=False)
    hypotheses = positivity_hypotheses(incs, mu, base)
    rng = random.Random(derive_seed(args.seed, "walk"))
    walk = simulate_walk(incs, args.steps, rng)
    payload = {
        "mean_set": sorted(meanset),
        "base": base,
        "dimension": genuine_dimension(incs),
        "first_moment": [_fraction_str(x) for x in first_moment(incs)],
        "second_moment": _fraction_str(second_moment(incs)),
        "hypotheses": {
            "has_positive_vector": hypotheses.has_positive_vector,
            "mu_base_positive": hypotheses.mu_base_positive,
        },
        "steps": args.steps,
        "orthant_visits": walk.orthant_visits,
        "last_visit": walk.last_visit,
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_table(args) -> int:
    cfg = ExperimentConfig(**{f.name: getattr(args, f.name) for f in fields(ExperimentConfig)})
    cells = run_table_experiment(cfg, workers=args.workers)
    text = table_to_json(cfg, cells) if args.format == "json" else table_to_csv(cells)
    _write_output(text, args.out)
    return 0


def _cmd_decay(args) -> int:
    g, mu = _load_instance(args)
    points = run_decay_experiment(g, mu, args.samples, args.trials, args.seed)
    _write_output(decay_to_csv(points), args.out)
    return 0


def _cmd_check(args) -> int:
    if args.suite == "all":
        report = run_invariant_sweep(args.seed, args.cases, args.inject_fault)
    else:
        suite = run_invariant_suite(args.suite, args.seed, args.cases, args.inject_fault)
        report = SweepReport(seed=args.seed, suites=[suite])
    sys.stdout.write(report.render())
    return 0 if report.all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="meanset-lab",
        description="Mean-sets on graphs and free groups: solvers and experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("meanset", help="compute the mean-set of a measure")
    _add_instance_args(p)
    p.add_argument("--class", dest="weight_class", type=int, choices=(1, 2), default=2)
    p.add_argument("--method", choices=("auto", "exact", "descent", "bounded"),
                   default="auto")
    p.set_defaults(func=_cmd_meanset)

    p = sub.add_parser("walk", help="multi-vertex random-walk report")
    _add_instance_args(p)
    p.add_argument("--steps", type=_positive_int, default=100_000)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_walk)

    p = sub.add_parser("table-f4", help="sphere-sampling convergence table")
    p.add_argument("--rank", type=_positive_int)
    p.add_argument("--lengths", type=_lengths)
    p.add_argument("--samples", type=_sample_sizes)
    p.add_argument("--trials", type=_positive_int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="cells run in a process pool when > 1; output is unchanged")
    # the table's shape has one home: ExperimentConfig's field defaults
    p.set_defaults(func=_cmd_table, **{f.name: f.default for f in fields(ExperimentConfig)})

    p = sub.add_parser("decay", help="sample mean-set miss-rate curve")
    _add_instance_args(p)
    p.add_argument("--samples", type=_sample_sizes, required=True)
    p.add_argument("--trials", type=_positive_int, default=1000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_decay)

    p = sub.add_parser("check", help="randomized invariant sweep")
    p.add_argument("--suite", choices=("all", *INVARIANT_SUITES), default="all")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--cases", type=_positive_int, default=50)
    p.add_argument("--inject-fault", action="store_true",
                   help="negative control: skip free reduction when shifting")
    p.set_defaults(func=_cmd_check)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first `main` call.

    Sharing it is safe: argparse keeps no state between `parse_args` calls,
    and each `_cmd_*` looks its library functions up at call time.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (MeansetsError, OSError) as exc:
        message = str(exc)
    except MemoryError:
        # written after the handler has released the frames that filled memory
        message = "out of memory"
    print(f"error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
