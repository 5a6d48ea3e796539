"""Reproducible Monte-Carlo experiment runners.

Every runner is a pure function of its configuration including the master
seed: per-trial streams are seeded by a SHA-256 hash of (master seed, cell
identity, trial index), so cells reproduce independently and can run in any
order (or concurrently) without changing the output, which is always sorted
by cell identity.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product

from .errors import VertexIdError
from .freegroup import CayleyGraph, sample_sphere, word_to_str
from .graphs import Graph
from .measures import AtomicMeasure, draw, shift
from .meanset import (
    classical_mean_gap,
    line_mean_set,
    mean_set_exact,
    mean_set_tree,
    measure_mean_set,
    sample_mean_set,
    weight,
)
from .multivertex import dimension_invariance_check, first_moment, increments
from . import randomgen


def derive_seed(master: int, *parts) -> int:
    """Stable 64-bit stream seed from the master seed and a cell/trial path."""
    text = ":".join([str(master), *map(str, parts)])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def require_increasing(values, minimum: int, what: str) -> tuple:
    """`values` as a tuple, after checking the one rule for a list of
    sample sizes or sphere lengths: each value at least `minimum`, values
    strictly increasing.  ValueError naming `what` otherwise."""
    values = tuple(values)
    if any(v < minimum for v in values):
        raise ValueError(f"{what} must be at least {minimum}")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(f"{what} must be strictly increasing")
    return values


@dataclass
class ExperimentConfig:
    rank: int = 4
    lengths: tuple = (5, 10, 20, 50)
    samples: tuple = (2, 4, 6, 8, 10, 12, 14, 16)
    trials: int = 1000
    seed: int = 42

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        require_increasing(self.samples, 1, "sample sizes")
        require_increasing(self.lengths, 0, "sphere lengths")


@dataclass(slots=True)
class CellResult:
    """Displacement histograms of one (rank, L, n) cell."""

    rank: int
    length: int
    n: int
    trials: int
    histogram: dict = field(default_factory=dict)      # max displacement -> count
    histogram_min: dict = field(default_factory=dict)  # min displacement -> count

    def count(self, displacement: int) -> int:
        return self.histogram.get(displacement, 0)


def _flatten_histogram(hist: dict) -> tuple[int, int, int, int]:
    d3plus = sum(c for d, c in hist.items() if d >= 3)
    return hist.get(0, 0), hist.get(1, 0), hist.get(2, 0), d3plus


def run_table_cell(rank: int, length: int, n: int, trials: int, seed: int) -> CellResult:
    """One cell of the sphere-sampling convergence table.

    Each trial draws n words from the uniform sphere measure, solves for the
    sample mean-set with the tree solver, and records the displacement of
    the result from the true center (the identity): both the max and the min
    over the returned vertices, which differ only when the solver returns an
    adjacent pair.
    """
    graph = CayleyGraph(rank)
    center = graph.empty_id
    dist = graph.distance
    hist: dict[int, int] = {}
    hist_min: dict[int, int] = {}
    for trial in range(trials):
        rng = random.Random(derive_seed(seed, "table", rank, length, n, trial))
        counts: dict[str, int] = {}
        for _ in range(n):
            wid = sample_sphere(rank, length, rng)
            counts[wid] = counts.get(wid, 0) + 1
        result = mean_set_tree(graph, AtomicMeasure.from_masses(counts), 2)
        ds = [dist(center, v) for v in result.vertices]
        d_max, d_min = max(ds), min(ds)
        hist[d_max] = hist.get(d_max, 0) + 1
        hist_min[d_min] = hist_min.get(d_min, 0) + 1
    return CellResult(
        rank=rank,
        length=length,
        n=n,
        trials=trials,
        histogram=dict(sorted(hist.items())),
        histogram_min=dict(sorted(hist_min.items())),
    )


def run_table_experiment(cfg: ExperimentConfig, workers: int = 1) -> list[CellResult]:
    """Run every (L, n) cell; the output is sorted by cell identity.

    Cells are pure functions of (rank, L, n, trials, master seed), so with
    workers > 1 they run in a process pool; results are identical to a
    sequential run regardless of completion order.
    """
    params = [
        (cfg.rank, length, n, cfg.trials, cfg.seed)
        for length in cfg.lengths
        for n in cfg.samples
    ]
    if workers > 1 and len(params) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(run_table_cell, *zip(*params)))
    else:
        cells = [run_table_cell(*args) for args in params]
    cells.sort(key=lambda c: (c.length, c.n))
    return cells


def table_to_csv(cells: list[CellResult]) -> str:
    """One row per cell; histograms flattened to d0,d1,d2,d3plus columns.

    The displacement of a multi-vertex result is the max distance to the
    center (conservative); the min-based histogram rides along as secondary
    columns.
    """
    buf = io.StringIO()
    buf.write("# displacement=max over returned vertices; min_* columns use min\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["rank", "L", "n", "trials", "d0", "d1", "d2", "d3plus",
         "min_d0", "min_d1", "min_d2", "min_d3plus"]
    )
    for c in cells:
        writer.writerow([c.rank, c.length, c.n, c.trials,
                         *_flatten_histogram(c.histogram),
                         *_flatten_histogram(c.histogram_min)])
    return buf.getvalue()


def table_to_json(cfg: ExperimentConfig, cells: list[CellResult]) -> str:
    payload = {
        "config": {
            "kind": "table-f4",
            "rank": cfg.rank,
            "lengths": list(cfg.lengths),
            "samples": list(cfg.samples),
            "trials": cfg.trials,
            "seed": cfg.seed,
            "displacement": "max (histogram), min (histogram_min)",
        },
        "cells": [
            {
                "rank": c.rank,
                "L": c.length,
                "n": c.n,
                "trials": c.trials,
                "histogram": {str(d): k for d, k in c.histogram.items()},
                "histogram_min": {str(d): k for d, k in c.histogram_min.items()},
            }
            for c in cells
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# -- decay experiments -------------------------------------------------------

@dataclass
class DecayPoint:
    n: int
    trials: int
    misses: int

    @property
    def miss_rate(self) -> Fraction:
        return Fraction(self.misses, self.trials)


def run_decay_experiment(
    graph: Graph,
    mu: AtomicMeasure,
    samples,
    trials: int,
    seed: int,
) -> list[DecayPoint]:
    """Estimate how often the sample mean-set misses the true one E.

    A miss is S_n not a subset of E.  A mean-set is never empty, so when E
    is one vertex this is S_n != E.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    samples = require_increasing(samples, 1, "sample sizes")
    truth = measure_mean_set(graph, mu, 2).vertices
    points = []
    for n in samples:
        misses = 0
        for trial in range(trials):
            rng = random.Random(derive_seed(seed, "decay", n, trial))
            sample = draw(mu, n, rng)
            if not sample_mean_set(graph, sample, 2).vertices <= truth:
                misses += 1
        points.append(DecayPoint(n=n, trials=trials, misses=misses))
    return points


def decay_to_csv(points: list[DecayPoint]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "trials", "misses", "miss_rate", "n_times_miss_rate", "log_miss_rate"])
    for p in points:
        rate = p.miss_rate
        writer.writerow([
            p.n,
            p.trials,
            p.misses,
            f"{float(rate):.6g}",
            f"{float(p.n * rate):.6g}",
            f"{math.log(rate):.6g}" if rate > 0 else "",
        ])
    return buf.getvalue()


# -- invariant sweep ---------------------------------------------------------

@dataclass
class SuiteResult:
    name: str
    cases: int
    failures: int
    first_failure_seed: int | None = None

    @property
    def passed(self) -> bool:
        return self.failures == 0


@dataclass
class SweepReport:
    seed: int
    suites: list

    @property
    def all_passed(self) -> bool:
        return all(s.passed for s in self.suites)

    def render(self) -> str:
        lines = [f"invariant sweep, seed {self.seed}"]
        for s in self.suites:
            status = "pass" if s.passed else "FAIL"
            line = f"{status:4}  {s.name:24} cases={s.cases} failures={s.failures}"
            if s.first_failure_seed is not None:
                line += f" first_failure_seed={s.first_failure_seed}"
            lines.append(line)
        verdict = "ALL PASS" if self.all_passed else "FAILURES PRESENT"
        lines.append(verdict)
        return "\n".join(lines) + "\n"


def _shift_faulty(mu: AtomicMeasure, g: str) -> AtomicMeasure:
    # negative control: translate rank-2 ids by raw string concatenation,
    # skipping free reduction, so an atom that needed cancelling stays an
    # unreduced id
    gid = "" if g == "e" else g
    moved = {}
    for v, w in mu.items():
        body = "" if v == "e" else v
        moved[(gid + body) or "e"] = w
    return AtomicMeasure(moved)


def _check_shift_property(rng: random.Random, inject_fault: bool = False) -> bool:
    graph = CayleyGraph(2)
    mu = randomgen.random_word_measure(rng, rank=2, max_atoms=4, max_len=4)
    g = word_to_str(randomgen.random_word(rng, rank=2, max_len=3), 2)
    base = mean_set_tree(graph, mu, 2)
    shifted_mu = _shift_faulty(mu, g) if inject_fault else shift(mu, g, graph)
    try:
        shifted = mean_set_tree(graph, shifted_mu, 2)
    except VertexIdError:
        return False  # a translated atom is not a reduced word
    return shifted.vertices == frozenset(graph.multiply(g, v) for v in base.vertices)


def _check_tree_configuration(rng: random.Random) -> bool:
    tree = randomgen.random_tree(rng, max_vertices=15)
    mu = randomgen.random_measure(tree.vertices(), rng)
    by_descent = mean_set_tree(tree, mu, 2)
    by_scan = mean_set_exact(tree, mu, 2)
    if by_descent.vertices != by_scan.vertices:
        return False
    vs = by_descent.sorted_vertices()
    if len(vs) > 2:
        return False
    if len(vs) == 2 and tree.distance(vs[0], vs[1]) != 1:
        return False
    return True


def _check_cut_point(rng: random.Random) -> bool:
    g = randomgen.random_cutpoint_graph(rng, max_vertices=9)
    mu = randomgen.random_measure(g.vertices(), rng)
    vertices = g.vertices()
    d = {v: g.distances(v) for v in vertices}
    w = {v: weight(g, mu, v, 2) for v in vertices}
    for v0 in g.cut_points():
        for comp1, comp2 in combinations(g.components_without([v0]), 2):
            for v1, v2 in product(comp1, comp2):
                d1 = d[v0](v1)
                d2 = d[v0](v2)
                bound = d2 * d1 * (d1 + d2)
                if bound <= 0:
                    return False
                for s in vertices:
                    lhs = d2 * (d[v1](s) ** 2 - d[v0](s) ** 2) + d1 * (
                        d[v2](s) ** 2 - d[v0](s) ** 2
                    )
                    if lhs < bound:
                        return False
                if w[v0] >= w[v1] and w[v0] >= w[v2]:
                    return False
    return True


def _check_dimension_invariance(rng: random.Random) -> bool:
    g, mu, meanset = randomgen.random_multivertex_instance(rng)
    base, *others = sorted(meanset)
    incs = increments(g, mu, base, others, validate=False)
    if any(x != 0 for x in first_moment(incs)):
        return False
    return dimension_invariance_check(g, mu, meanset)


def _check_classical_mean_gap(rng: random.Random) -> bool:
    mu = randomgen.random_integer_measure(rng)
    result = line_mean_set(mu, 2)
    if not 1 <= len(result.vertices) <= 2:
        return False
    return classical_mean_gap(mu) <= Fraction(1, 2)


# name -> (check(rng, inject_fault), divisor of the cases it runs).  Each
# suite seeds its cases from its own name, so a suite run alone reports
# what it reports in the full sweep.
INVARIANT_SUITES = {
    "shift-property": (_check_shift_property, 1),
    "tree-configuration": (lambda rng, fault: _check_tree_configuration(rng), 1),
    "cut-point-inequality": (lambda rng, fault: _check_cut_point(rng), 2),
    "dimension-invariance": (lambda rng, fault: _check_dimension_invariance(rng), 1),
    "classical-mean-gap": (lambda rng, fault: _check_classical_mean_gap(rng), 1),
}


def run_invariant_suite(
    name: str, seed: int = 42, cases: int = 50, inject_fault: bool = False
) -> SuiteResult:
    """Run one suite of INVARIANT_SUITES; deterministic given the seed."""
    if cases < 1:
        raise ValueError("cases must be >= 1")
    check, divisor = INVARIANT_SUITES[name]
    cases = max(cases // divisor, 1)
    failures = 0
    first_failure = None
    for i in range(cases):
        case_seed = derive_seed(seed, name, i)
        if not check(random.Random(case_seed), inject_fault):
            failures += 1
            if first_failure is None:
                first_failure = case_seed
    return SuiteResult(name=name, cases=cases, failures=failures,
                       first_failure_seed=first_failure)


def run_invariant_sweep(
    seed: int = 42, cases: int = 50, inject_fault: bool = False
) -> SweepReport:
    """Run every invariant suite; deterministic given the seed.

    inject_fault skips free reduction in the shift-property suite as a
    negative control, which must make that suite fail.
    """
    suites = [run_invariant_suite(name, seed, cases, inject_fault) for name in INVARIANT_SUITES]
    return SweepReport(seed=seed, suites=suites)
