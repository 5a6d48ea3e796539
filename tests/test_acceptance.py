"""Acceptance suite.

Every test prints one pass/fail line (run with `pytest tests/test_acceptance.py -v -s`
to see them as they complete).  All randomness derives from MASTER_SEED, so
the whole suite is reproducible; the scales and tolerances are fixed here,
not configurable.
"""

import math
import random
import statistics
from fractions import Fraction

import pytest

from meansets.experiments import (
    ExperimentConfig,
    derive_seed,
    run_decay_experiment,
    run_table_experiment,
)
from meansets.freegroup import CayleyGraph, word_to_str
from meansets.graphs import path_graph
from meansets.measures import AtomicMeasure, shift
from meansets.meanset import (
    classical_mean_gap,
    line_mean_set,
    mean_set_exact,
    mean_set_tree,
    weight,
)
from meansets.multivertex import (
    dimension_invariance_check,
    first_moment,
    increments,
    second_moment,
)
from meansets.randomgen import (
    random_connected_graph,
    random_cutpoint_graph,
    random_integer_measure,
    random_measure,
    random_multivertex_instance,
    random_tree,
    random_word,
    random_word_measure,
)

MASTER_SEED = 42

# reference displacement-0 counts per 1000 trials for rank 4,
# rows L in (5, 10, 20, 50), columns n in 2..16 step 2
REFERENCE_TABLE_D0 = {
    5: (885, 943, 978, 988, 999, 998, 1000, 999),
    10: (864, 930, 976, 993, 994, 999, 1000, 1000),
    20: (859, 940, 975, 985, 991, 1000, 999, 999),
    50: (872, 928, 984, 991, 998, 997, 998, 999),
}
TABLE_SAMPLES = (2, 4, 6, 8, 10, 12, 14, 16)


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def full_table():
    cfg = ExperimentConfig(
        rank=4, lengths=(5, 10, 20, 50), samples=TABLE_SAMPLES, trials=1000, seed=MASTER_SEED,
    )
    return {(c.length, c.n): c for c in run_table_experiment(cfg)}


def test_criterion_1_table_reproduction(full_table):
    """Full-scale table reproduction within binomial tolerance bands.

    A cell passes when |reference - reproduced| <= 4 * sqrt(p(1-p) * 1000);
    p is estimated from whichever of the two observed proportions is closer
    to 1/2 (the larger-variance estimate), which keeps the band meaningful
    for cells where one count is exactly 1000.
    """
    cells = full_table
    failures = []
    worst = None
    for length, row in REFERENCE_TABLE_D0.items():
        for n, ref_count in zip(TABLE_SAMPLES, row):
            got = cells[length, n].count(0)
            p_hat = min(ref_count, got, key=lambda c: abs(c - 500)) / 1000
            band = 4 * math.sqrt(p_hat * (1 - p_hat) * 1000)
            diff = abs(ref_count - got)
            slack = band - diff
            if worst is None or slack < worst[0]:
                worst = (slack, length, n, ref_count, got, band)
            if diff > band:
                failures.append((length, n, ref_count, got, round(band, 1)))
    detail = (
        f"32 cells, tightest slack {worst[0]:.2f} at (L={worst[1]}, n={worst[2]}): "
        f"reference {worst[3]}, reproduced {worst[4]}, band {worst[5]:.1f}"
    )
    if failures:
        detail += f"; failures {failures}"
    _report("criterion 1: table reproduction in tolerance", not failures, detail)


def _spearman(xs, ys) -> float:
    def ranks(values):
        order = sorted(range(len(values)), key=lambda i: values[i])
        out = [0.0] * len(values)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
                j += 1
            avg = (i + j) / 2 + 1
            for k in range(i, j + 1):
                out[order[k]] = avg
            i = j + 1
        return out

    rx, ry = ranks(xs), ranks(ys)
    mx = sum(rx) / len(rx)
    my = sum(ry) / len(ry)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    return cov / math.sqrt(vx * vy)


def test_monotone_convergence_trend(full_table):
    """Displacement-0 counts trend upward with n in every full-scale row."""
    rhos = {}
    for length in REFERENCE_TABLE_D0:
        counts = [full_table[length, n].count(0) for n in TABLE_SAMPLES]
        rhos[length] = _spearman(list(TABLE_SAMPLES), counts)
    ok = all(rho > 0 for rho in rhos.values())
    _report(
        "invariant: displacement-0 counts rise with n",
        ok,
        "Spearman rho " + ", ".join(f"L={L}: {r:.2f}" for L, r in rhos.items()),
    )


def test_criterion_2_oracle_equivalence():
    """mean_set_exact vs a fully independent brute-force scan on 500 graphs."""
    rng = random.Random(derive_seed(MASTER_SEED, "crit2"))
    mismatches = 0
    for _ in range(500):
        g = random_connected_graph(rng, 25)
        mu = random_measure(g.vertices(), rng)
        res = mean_set_exact(g, mu, 2)

        # independent oracle: Floyd-Warshall all-pairs + Fraction weights
        vs = g.vertices()
        n = len(vs)
        inf = float("inf")
        dist = [[0 if i == j else inf for j in range(n)] for i in range(n)]
        for u, v in g.edges():
            dist[u][v] = dist[v][u] = 1
        for k in range(n):
            dk = dist[k]
            for i in range(n):
                dik = dist[i][k]
                if dik == inf:
                    continue
                di = dist[i]
                for j in range(n):
                    alt = dik + dk[j]
                    if alt < di[j]:
                        di[j] = alt
        weights = {
            v: sum((Fraction(dist[v][s] ** 2) * mu[s] for s in mu.support()), Fraction(0))
            for v in vs
        }
        best = min(weights.values())
        oracle = frozenset(v for v, w in weights.items() if w == best)
        if res.vertices != oracle or res.min_weight != best:
            mismatches += 1
    _report(
        "criterion 2: exact solver equals brute-force oracle",
        mismatches == 0,
        f"500 graphs, {mismatches} discrepancies",
    )


def test_criterion_3_tree_solver():
    """Tree descent equals the exhaustive scan; at most two adjacent centers."""
    rng = random.Random(derive_seed(MASTER_SEED, "crit3"))
    bad = 0
    for _ in range(200):
        tree = random_tree(rng, 40)
        mu = random_measure(tree.vertices(), rng)
        by_descent = mean_set_tree(tree, mu, 2)
        by_scan = mean_set_exact(tree, mu, 2)
        ok = (
            by_descent.vertices == by_scan.vertices
            and by_descent.min_weight == by_scan.min_weight
            and 1 <= len(by_descent.vertices) <= 2
        )
        if ok and len(by_descent.vertices) == 2:
            a, b = by_descent.sorted_vertices()
            ok = tree.distance(a, b) == 1
        if not ok:
            bad += 1
    _report("criterion 3: tree solver correct on 200 trees", bad == 0, f"{bad} failures")


def test_criterion_4_shift_property():
    """Translating the measure translates the mean-set, 500 random pairs."""
    graph = CayleyGraph(2)
    rng = random.Random(derive_seed(MASTER_SEED, "crit4"))
    bad = 0
    for _ in range(500):
        mu = random_word_measure(rng, 2, max_atoms=6, max_len=5)
        g = word_to_str(random_word(rng, 2, 4), 2)
        base = mean_set_tree(graph, mu, 2)
        moved = mean_set_tree(graph, shift(mu, g, graph), 2)
        expected = frozenset(graph.multiply(g, v) for v in base.vertices)
        if moved.vertices != expected or moved.min_weight != base.min_weight:
            bad += 1
    _report("criterion 4: shift property on 500 pairs", bad == 0, f"{bad} failures")


def test_criterion_5_cut_point_inequality():
    """Exhaustive cut-point inequality plus the impossible flank configuration."""
    rng = random.Random(derive_seed(MASTER_SEED, "crit5"))
    violations = 0
    triples = 0
    for _ in range(100):
        g = random_cutpoint_graph(rng, 12)
        for v0 in g.cut_points():
            comps = g.components_without([v0])
            for i in range(len(comps)):
                for j in range(i + 1, len(comps)):
                    for v1 in comps[i]:
                        for v2 in comps[j]:
                            d1, d2 = g.distance(v0, v1), g.distance(v0, v2)
                            floor = d2 * d1 * (d1 + d2)
                            if floor <= 0:
                                violations += 1
                                continue
                            triples += 1
                            for s in g.vertices():
                                lhs = d2 * (
                                    g.distance(v1, s) ** 2 - g.distance(v0, s) ** 2
                                ) + d1 * (
                                    g.distance(v2, s) ** 2 - g.distance(v0, s) ** 2
                                )
                                if lhs < floor:
                                    violations += 1

    # the two flanks of a 3-vertex path can never form the whole mean-set
    flank_hits = 0
    path = path_graph(3)
    for _ in range(10_000):
        masses = {v: rng.randint(0, 9) for v in path.vertices()}
        if not any(masses.values()):
            continue
        mu = AtomicMeasure.from_masses({v: m for v, m in masses.items() if m})
        if mean_set_exact(path, mu, 2).vertices == frozenset([0, 2]):
            flank_hits += 1
    ok = violations == 0 and flank_hits == 0
    _report(
        "criterion 5: cut-point inequality and impossible configuration",
        ok,
        f"{triples} separated triples checked, {violations} violations; "
        f"{flank_hits} flank-only mean-sets in 10000 measures",
    )


def test_criterion_6_decay_envelopes():
    """Chebyshev envelope and Chernoff-style acceleration of the miss rate.

    Median miss-rate curve over 20 master seeds, 2000 trials per point, on a
    5-vertex path measure with singleton mean-set {2}: the n * miss_rate
    envelope stays within a factor 10, medians never increase, and the
    per-doubling drops of log miss_rate grow (ending past the constant
    log 2 drop that an exact C/n law would give).
    """
    g = path_graph(5)
    mu = AtomicMeasure.from_masses({0: 4, 1: 1, 2: 3, 3: 1, 4: 3})
    assert mean_set_exact(g, mu, 2).vertices == frozenset([2])
    ns = (4, 8, 16, 32, 64)
    curves = []
    for i in range(20):
        pts = run_decay_experiment(
            g, mu, ns, trials=2000, seed=derive_seed(MASTER_SEED, "crit6", i)
        )
        curves.append([p.miss_rate for p in pts])
    medians = [statistics.median(curve[j] for curve in curves) for j in range(len(ns))]

    envelope = [n * r for n, r in zip(ns, medians)]
    nonzero = [e for e in envelope if e > 0]
    ratio = max(nonzero) / min(nonzero)
    monotone = all(a >= b for a, b in zip(medians, medians[1:]))

    logs = [math.log(r) for r in medians if r > 0]
    drops = [a - b for a, b in zip(logs, logs[1:])]
    accelerating = all(a < b for a, b in zip(drops, drops[1:]))
    beats_harmonic = drops[-1] > math.log(2)

    ok = ratio < 10 and monotone and accelerating and beats_harmonic
    _report(
        "criterion 6: Chebyshev envelope and Chernoff acceleration",
        ok,
        f"median rates {[float(round(r, 4)) for r in medians]}, "
        f"n*rate ratio {float(ratio):.2f} (<10), monotone={monotone}, "
        f"log drops {[round(d, 3) for d in drops]} accelerating={accelerating}, "
        f"final drop {drops[-1]:.3f} > log2={math.log(2):.3f}",
    )


def test_criterion_7_multivertex_apparatus():
    """Walk moments, base-invariant dimension, and two-point recurrence."""
    rng = random.Random(derive_seed(MASTER_SEED, "crit7"))
    bad = 0
    for _ in range(200):
        g, mu, meanset = random_multivertex_instance(rng)
        base = min(meanset)
        others = [v for v in sorted(meanset) if v != base]
        incs = increments(g, mu, base, others, validate=False)
        ok = all(x == 0 for x in first_moment(incs))
        ok = ok and dimension_invariance_check(g, mu, meanset)
        bound = sum(
            (
                Fraction(g.distance(base, v)) ** 2
                * (4 * weight(g, mu, base, 2) + 4 * weight(g, mu, v, 2))
                for v in others
            ),
            Fraction(0),
        )
        ok = ok and second_moment(incs) <= bound
        if not ok:
            bad += 1

    # two-point instance on the integer line: both mean-set vertices must
    # show up in the sample mean-set beyond step 1000 of a 100000-step run;
    # the walk statistic is count(0) - count(1)
    recur = 0
    seeds = 100
    for s in range(seeds):
        walk_rng = random.Random(derive_seed(MASTER_SEED, "crit7-walk", s))
        pos = 0
        seen_nonneg = seen_nonpos = False
        rr = walk_rng.randrange
        for n in range(1, 100_001):
            pos += 1 if rr(2) else -1
            if n > 1000:
                if pos >= 0:
                    seen_nonneg = True
                if pos <= 0:
                    seen_nonpos = True
                if seen_nonneg and seen_nonpos:
                    break
        if seen_nonneg and seen_nonpos:
            recur += 1

    ok = bad == 0 and recur >= 95
    _report(
        "criterion 7: multi-vertex apparatus",
        ok,
        f"{bad} failures in 200 instances; both vertices recurred in "
        f"{recur}/100 seeds (need >= 95)",
    )


def test_criterion_8_classical_mean_agreement():
    """Integer-line mean-sets are 1-2 vertices within 1/2 of the mean."""
    rng = random.Random(derive_seed(MASTER_SEED, "crit8"))
    bad = 0
    for _ in range(500):
        mu = random_integer_measure(rng, span=30, max_atoms=10)
        result = line_mean_set(mu, 2)
        k = len(result.vertices)
        if not (1 <= k <= 2 and classical_mean_gap(mu) <= Fraction(1, 2)):
            bad += 1
            continue
        if k == 2:
            a, b = result.sorted_vertices()
            if b - a != 1:
                bad += 1
    _report("criterion 8: classical-mean agreement on 500 measures", bad == 0,
            f"{bad} failures")
