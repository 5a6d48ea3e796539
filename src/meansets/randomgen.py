"""Seeded generators for random test instances.

Everything takes an explicit random.Random so runs reproduce from a seed;
the invariant sweep and the test suite share these.
"""

from __future__ import annotations

import random

from .freegroup import word_to_str
from .graphs import ExplicitGraph, complete_graph, cycle_graph, path_graph
from .measures import AtomicMeasure
from .meanset import mean_set_exact


def random_tree(rng: random.Random, max_vertices: int, min_vertices: int = 2) -> ExplicitGraph:
    """Uniform attachment tree on 0..n-1."""
    n = rng.randint(min_vertices, max_vertices)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    return ExplicitGraph(edges)


def random_connected_graph(
    rng: random.Random, max_vertices: int, min_vertices: int = 2, extra_edge_prob: float = 0.2
) -> ExplicitGraph:
    """Random spanning tree plus a sprinkle of extra edges."""
    n = rng.randint(min_vertices, max_vertices)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < extra_edge_prob:
                edges.add((u, v))
    return ExplicitGraph(sorted(edges))


def random_cutpoint_graph(rng: random.Random, max_vertices: int) -> ExplicitGraph:
    """Random connected graph that has at least one cut-point."""
    while True:
        g = random_connected_graph(rng, max_vertices, min_vertices=3, extra_edge_prob=0.12)
        if g.cut_points():
            return g


def random_measure(
    vertices, rng: random.Random, max_mass: int = 9, max_atoms: int | None = None
) -> AtomicMeasure:
    """Random positive integer masses on a random nonempty subset, normalized."""
    vs = list(vertices)
    if max_atoms is not None and len(vs) > max_atoms:
        vs = rng.sample(vs, max_atoms)
    k = rng.randint(1, len(vs))
    chosen = rng.sample(vs, k)
    return AtomicMeasure.from_masses({v: rng.randint(1, max_mass) for v in chosen})


def random_word(rng: random.Random, rank: int, max_len: int) -> tuple:
    """Signed generator indices of a reduced word of random length <=
    max_len (no-backtracking letters)."""
    length = rng.randint(0, max_len)
    letters: list[int] = []
    choices = [x for i in range(1, rank + 1) for x in (i, -i)]
    for _ in range(length):
        x = rng.choice(choices)
        while letters and letters[-1] == -x:
            x = rng.choice(choices)
        letters.append(x)
    return tuple(letters)


def random_word_measure(
    rng: random.Random, rank: int, max_atoms: int = 5, max_len: int = 5
) -> AtomicMeasure:
    """Measure on serialized free-group words."""
    n_atoms = rng.randint(1, max_atoms)
    masses: dict[str, int] = {}
    for _ in range(n_atoms):
        wid = word_to_str(random_word(rng, rank, max_len), rank)
        masses[wid] = masses.get(wid, 0) + rng.randint(1, 9)
    return AtomicMeasure.from_masses(masses)


def random_integer_measure(
    rng: random.Random, span: int = 20, max_atoms: int = 8, max_mass: int = 9
) -> AtomicMeasure:
    """Measure on a random set of integers in [-span, span]."""
    k = rng.randint(1, max_atoms)
    atoms = rng.sample(range(-span, span + 1), k)
    return AtomicMeasure.from_masses({v: rng.randint(1, max_mass) for v in atoms})


def random_multivertex_instance(rng: random.Random):
    """(graph, measure, mean-set vertices) with a multi-vertex class-2 mean-set.

    Mixes symmetric constructions that force ties (uniform cycles and
    complete graphs, two-point symmetric paths) with rejection sampling over
    arbitrary graphs and measures.
    """
    while True:
        kind = rng.randrange(4)
        if kind == 0:
            g = cycle_graph(rng.randint(3, 8))
            mu = AtomicMeasure.uniform(g.vertices())
        elif kind == 1:
            g = complete_graph(rng.randint(3, 6))
            mu = AtomicMeasure.uniform(g.vertices())
        elif kind == 2:
            # symmetric measure on a path: mirror-image masses tie the center pair
            half = rng.randint(1, 4)
            g = path_graph(2 * half)
            masses = {}
            for i in range(half):
                masses[i] = masses[2 * half - 1 - i] = rng.randint(1, 9)
            mu = AtomicMeasure.from_masses(masses)
        else:
            g = random_connected_graph(rng, 10, min_vertices=3)
            mu = random_measure(g.vertices(), rng, max_mass=4)
        result = mean_set_exact(g, mu, 2)
        if len(result.vertices) >= 2:
            return g, mu, result.vertices
