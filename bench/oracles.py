"""Reference computations the benchmark checks the program's outputs against.

Nothing here imports the package: distances, samplers and argmins are
written out again from their definitions, so a defect in the package does
not also sit in the check.  The seed derivation and the samplers follow the
package's documented streams (SHA-256 of the master seed and the trial
path; cumulative inversion with one `randrange` per draw; no-backtracking
sphere words), which a change that keeps results byte-identical keeps too.
"""

from __future__ import annotations

import hashlib
import os
import random
from bisect import bisect_right
from collections import deque
from fractions import Fraction
from math import gcd


def derive_seed(master: int, *parts) -> int:
    text = ":".join([str(master), *map(str, parts)])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def argmin(weights: dict) -> tuple[list, int]:
    """Sorted argmin keys of an integer-valued dict, and the minimum."""
    best = min(weights.values())
    return sorted(v for v, w in weights.items() if w == best), best


# -- free group F_r, r <= 4: words as strings, the empty word spelled "e" ----

EMPTY = "e"


def _letter(x: int) -> str:
    return chr(ord("a") + x - 1) if x > 0 else chr(ord("A") - x - 1)


def sphere_word(rank: int, length: int, rng: random.Random) -> str:
    """Uniform sphere word: 2r first letters, then the 2r - 1 that do not cancel."""
    letters = list(range(-rank, 0)) + list(range(1, rank + 1))
    out = []
    prev = 0
    for _ in range(length):
        choices = [y for y in letters if y != -prev]
        prev = choices[rng.randrange(len(choices))]
        out.append(_letter(prev))
    return "".join(out) or EMPTY


def lcp_distance(a: str, b: str) -> int:
    """Word metric on reduced words: |a| + |b| - 2 lcp(a, b)."""
    a = "" if a == EMPTY else a
    b = "" if b == EMPTY else b
    return len(a) + len(b) - 2 * len(os.path.commonprefix((a, b)))


def word_mean_set(masses: dict, c: int = 2) -> tuple[list, Fraction]:
    """Exact class-c mean-set of integer masses on words, by brute force.

    Every prefix of every atom is scanned.  That set contains the convex
    hull of the atoms, and off the hull a vertex is strictly worse than its
    projection onto it, so the scan is exhaustive.
    """
    hull = {EMPTY}
    for w in masses:
        if w != EMPTY:
            hull.update(w[:k] for k in range(1, len(w) + 1))
    weights = {
        v: sum(lcp_distance(v, s) ** c * m for s, m in masses.items()) for v in hull
    }
    vertices, best = argmin(weights)
    return vertices, Fraction(best, sum(masses.values()))


def table_cell_histograms(rank: int, length: int, n: int, trials: int, seed: int):
    """(max, min) displacement histograms of one table cell, recomputed."""
    hist: dict = {}
    hist_min: dict = {}
    for trial in range(trials):
        rng = random.Random(derive_seed(seed, "table", rank, length, n, trial))
        counts: dict = {}
        for _ in range(n):
            w = sphere_word(rank, length, rng)
            counts[w] = counts.get(w, 0) + 1
        vertices, _ = word_mean_set(counts)
        ds = [lcp_distance(EMPTY, v) for v in vertices]
        hist[max(ds)] = hist.get(max(ds), 0) + 1
        hist_min[min(ds)] = hist_min.get(min(ds), 0) + 1
    return dict(sorted(hist.items())), dict(sorted(hist_min.items()))


# -- explicit graphs -----------------------------------------------------------

def bfs(adj: dict, source) -> dict:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for u in adj[v]:
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def graph_mean_set(adj: dict, masses: dict, c: int) -> tuple[list, Fraction]:
    """Exact class-c mean-set on a finite graph, one BFS per atom."""
    from_atom = {s: bfs(adj, s) for s in masses}
    weights = {
        v: sum(from_atom[s][v] ** c * m for s, m in masses.items()) for v in adj
    }
    vertices, best = argmin(weights)
    return vertices, Fraction(best, sum(masses.values()))


def fraction_text(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


# -- decay on a path -------------------------------------------------------------

def path_decay_misses(masses: list, samples, trials: int, seed: int) -> list[int]:
    """Miss counts of the class-2 sample mean-set on the path 0..k-1.

    A miss is a sample mean-set other than the true one; weights are the
    argmin over the k vertices of sum_j count_j * |i - j|^2.
    """
    k = len(masses)

    def mean_set(counts):
        return argmin({i: sum(m * (i - j) ** 2 for j, m in enumerate(counts)) for i in range(k)})[0]

    truth = mean_set(masses)
    total = sum(masses)
    g = 0
    for m in masses:
        g = gcd(g, m)
    denom = total // g
    cum = []
    acc = 0
    for m in masses:
        acc += m // g
        cum.append(acc)
    misses = []
    for n in samples:
        miss = 0
        for trial in range(trials):
            rng = random.Random(derive_seed(seed, "decay", n, trial))
            counts = [0] * k
            for _ in range(n):
                counts[bisect_right(cum, rng.randrange(denom))] += 1
            if mean_set(counts) != truth:
                miss += 1
        misses.append(miss)
    return misses
