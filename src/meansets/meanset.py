"""Weight functions and mean-set solvers.

The weight of class c at a vertex v is the exact rational

    W_c(v) = sum over atoms s of d(v, s)^c * mu(s),

and the mean-set is the exact argmin of W_c over the graph.  Three solvers
cover the three graph shapes:

  * mean_set_exact     -- full scan of a finite explicit graph, scored from
                          one BFS column per atom on its index adjacency;
  * mean_set_tree      -- exact on trees: direct descent from a root over
                          the atoms sorted by root-path key (`path_key` on
                          a free group, else the ids on each atom's path
                          from the heaviest atom), each vertex scored from
                          range sums with no distance calls, then an
                          equal-weight flood fill;
  * mean_set_bounded   -- scan of a ball that provably contains the argmin,
                          for implicit graphs that are not trees.

All comparisons are exact: internally the solvers work with integer weight
numerators over the measure's common denominator and convert to Fraction
only when building results.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress, repeat
from operator import add, itemgetter, mul
from typing import Mapping

from .errors import NotATreeError
from .freegroup import CayleyGraph
from .graphs import ExplicitGraph, Graph, IntegerLine, integer_line
from .measures import AtomicMeasure, empirical


@dataclass(frozen=True)
class MeanSetResult:
    """Argmin vertices plus the exact minimal weight.

    `steps` counts the solver's work: the vertices scanned by the exact
    scan (all of them) and the bounded scan (the certified ball), and the
    moves from the root to the mean-set for the tree descent.  The line
    solver reads only the atoms but reports the size of the support's
    hull, the vertices a scan of the line would score.
    """

    vertices: frozenset
    min_weight: Fraction
    class_c: int
    method: str = "exact"
    steps: int = 0

    def sorted_vertices(self) -> list:
        return sorted(self.vertices)


def weight(g: Graph, mu: AtomicMeasure, v, c: int = 2) -> Fraction:
    """Exact class-c weight of v under mu, from one distance column from v."""
    _check_class(c)
    denom, nums = mu.numerators()
    _require_atoms(g, nums)
    dist = g.distances(v)
    return Fraction(sum(dist(s) ** c * m for s, m in nums.items()), denom)


def _check_class(c: int) -> None:
    if c not in (1, 2):
        raise ValueError("weight class must be 1 or 2")


def _require_atoms(g: Graph, atoms) -> None:
    for s in atoms:
        g._require_vertex(s)


def _argmin(candidates, weights: list, denom: int, c: int, method: str,
            steps: int | None = None) -> MeanSetResult:
    """Exact argmin over a sized collection of candidates, `weights` being
    their integer weight numerators in the same order; `steps` records the
    vertices scanned, by default the candidates."""
    best = min(weights)
    return MeanSetResult(
        vertices=frozenset(compress(candidates, map(best.__eq__, weights))),
        min_weight=Fraction(best, denom),
        class_c=c,
        method=method,
        steps=len(candidates) if steps is None else steps,
    )


def mean_set_exact(g: ExplicitGraph, mu: AtomicMeasure, c: int = 2) -> MeanSetResult:
    """Exact argmin over every vertex of a finite explicit graph.

    Each atom's BFS runs on the graph's index adjacency (`_column`, never
    `neighbors`) and gives its distances to every vertex as one list in
    vertex order; the list is raised to the class's power, scaled by the
    atom's mass and added into the running weights, then dropped.  So a
    solve takes O(|supp| * (V + E)) time and O(V) memory: one column plus
    the weights.  A graph with no vertex list (any implicit graph) raises
    InfiniteGraphError before any atom is read.
    """
    _check_class(c)
    vertices = g.vertices()
    denom, nums = mu.numerators()
    _require_atoms(g, nums)
    index = g._index
    weights = [0] * len(vertices)
    for s, m in nums.items():
        column = g._column(index[s])
        if c == 2:
            column = map(mul, column, column)
        weights = list(map(add, weights, map(mul, column, repeat(m))))
    return _argmin(vertices, weights, denom, c, "exact")


def _sorted_support_descent(keys: tuple, masses: tuple, c: int):
    """Exact argmin on a tree rooted at the empty key: direct descent from
    the root, every child scored from range sums over the sorted support.

    `keys` are the atoms' keys in sorted order and `masses` their integer
    masses.  A key spells the path from the root, one element per edge, so
    its prefixes are the keys of the vertices on that path, and the atoms
    below a vertex p form one contiguous run; each child's run is found by
    bisecting on the key element at p's depth, so a move costs O(log n)
    comparisons whatever the depth.  Prefix sums over a run give its mass
    M(p) and its first moment S1(p), the mass-weighted distance from p to
    those atoms.  With T the total mass (Goldman 1971, extended to squares),

        W1(child) = W1(parent) + T - 2 M(child)
        W2(child) = W2(parent) + T + 2 W1(parent) - 4 (S1(child) + M(child)).

    A child with no atoms below it is strictly heavier than its parent, so
    only the children that lead to atoms are scored.  The weight is convex
    along tree paths, so the descent stops at a global minimizer, and the
    argmin set is the connected equal-weight region around it.  The descent
    started at the root or entered that vertex from a strictly heavier
    parent, so the region lies in its subtree and is flooded through
    children only.  Returns the region as (depth, i) pairs, the vertex's key
    being keys[i][:depth], led by the vertex where the descent stopped, and
    the minimal weight numerator.
    """
    cum_m = list(accumulate(masses, initial=0))
    cum_ml = list(accumulate(map(mul, masses, map(len, keys)), initial=0))
    total = cum_m[-1]

    # a vertex is (depth, lo, hi, W1, W2): keys[lo:hi] are the atoms below it
    def children(depth, lo, hi, w1, w2):
        at = itemgetter(depth)
        i = lo + (len(keys[lo]) == depth)  # an atom at the vertex itself sorts first
        while i < hi:
            j = bisect_right(keys, at(keys[i]), i + 1, hi, key=at)
            m = cum_m[j] - cum_m[i]
            first = cum_ml[j] - cum_ml[i] - depth * m  # S1(child) + M(child)
            yield depth + 1, i, j, w1 + total - 2 * m, w2 + total + 2 * w1 - 4 * first
            i = j

    score = 3 if c == 1 else 4
    w2 = sum(m * len(k) ** 2 for k, m in zip(keys, masses))
    node = (0, 0, len(keys), cum_ml[-1], w2)
    while True:
        around = list(children(*node))
        # convexity leaves at most one strictly lighter neighbour
        lighter = [u for u in around if u[score] < node[score]]
        if not lighter:
            break
        node = lighter[0]
    best = node[score]
    region = [node[:2]]
    frontier = [u for u in around if u[score] == best]
    while frontier:
        v = frontier.pop()
        region.append(v[:2])
        frontier.extend(u for u in children(*v) if u[score] == best)
    return region, best


def _root_path_keys(g: Graph, nums: dict):
    """The heaviest atom (ties broken by vertex order) as the root, the
    atoms' keys in sorted order and their masses in that order.  A key is
    the tuple of vertex ids on the path from the root, the root's own left
    out, walked back from the atom through one `distances` column from the
    root: each step goes to the one neighbour a level nearer the root."""
    root = min(nums, key=lambda v: (-nums[v], v))
    neighbors = g.neighbors

    def key(v):
        d = depth(v)
        path = [v] if d else []
        while d > 1:
            d -= 1
            v = next(u for u in neighbors(v) if depth(u) == d)
            path.append(v)
        return tuple(reversed(path))

    depth = g.distances(root)
    keys, masses = zip(*sorted((key(s), m) for s, m in nums.items()))
    return root, keys, masses


def mean_set_tree(g: Graph, mu: AtomicMeasure, c: int = 2) -> MeanSetResult:
    """Mean-set of a measure on a tree, exact: the paper's direct-descent
    algorithm, which on a tree always reaches the global argmin.

    The solver keys each atom by its path from a root and descends from the
    root over the atoms sorted by key (see `_sorted_support_descent`), with
    no distance calls.  The weight is convex along tree paths, so the local
    minimizer found is global and the argmin set is the connected
    equal-weight region around it: at most two adjacent vertices in class 2.

    On a free-group Cayley graph the root is the identity and the keys come
    from `path_key`, so a solve takes O(n log n + depth * (r + log n))
    comparisons and bisects for n atoms at rank r, the depth being that of
    the mean-set.  An atom that is not the id word_to_str gives a reduced
    word of the graph's rank raises VertexIdError.

    On any other tree the root is the heaviest atom and a key is the tuple
    of vertex ids on the atom's path from it (`_root_path_keys`): one
    `distances` column from the root, then one `neighbors` call per step
    back from an atom, at most the sum of the atoms' depths in all.  An
    atom that is not a vertex raises VertexIdError before any key is built.

    On every tree `steps` is the number of descent moves, the distance from
    the root to the mean-set.  The `meanset` payload reports the atoms'
    prefix hull on a free group instead (`CayleyGraph.prefix_hull_size`).

    Any graph whose `is_tree` is false raises NotATreeError: with cycles a
    local minimum need not be global.
    """
    _check_class(c)
    if not g.is_tree:
        raise NotATreeError("descent is exact only on trees; this graph is not a tree")
    denom, nums = mu.numerators()
    if isinstance(g, CayleyGraph):
        keys, masses = zip(*sorted((g.path_key(s), m) for s, m in nums.items()))
        region, best = _sorted_support_descent(keys, masses, c)
        vertices = (g.key_id(keys[i][:depth]) for depth, i in region)
    else:
        _require_atoms(g, nums)
        root, keys, masses = _root_path_keys(g, nums)
        region, best = _sorted_support_descent(keys, masses, c)
        vertices = (keys[i][depth - 1] if depth else root for depth, i in region)
    return MeanSetResult(
        vertices=frozenset(vertices),
        min_weight=Fraction(best, denom),
        class_c=c,
        method="descent",
        steps=region[0][0],
    )


def mean_set_bounded(g: Graph, mu: AtomicMeasure, c: int = 2) -> MeanSetResult:
    """Mean-set of a finitely supported measure on an implicit graph.

    Let v be the heaviest atom (ties broken by vertex order), T the total
    mass and S1 = sum over atoms s of d(v, s) * mu(s) = W_1(v).  For a
    vertex u at distance D from v, every atom has d(u, s) >= |D - d(v, s)|,
    so

        W_2(u) >= T * D^2 - 2 * D * S1 + W_2(v),
        W_1(u) >= T * D - S1,

    and in either class W_c(u) <= W_c(v) forces D <= 2 * S1 / T.  The ball of
    radius floor(2 * S1 / T) around v therefore holds the argmin set in both
    classes, and scanning it is an exhaustive search; a point mass has
    S1 = 0, so its ball is the atom alone.  An atom that is not a vertex
    of the graph raises VertexIdError before any distance is taken.
    """
    _check_class(c)
    denom, nums = mu.numerators()
    _require_atoms(g, nums)
    v = min(nums, key=lambda s: (-nums[s], s))
    columns = [(g.distances(s), m) for s, m in nums.items()]
    first = sum(dist(v) * m for dist, m in columns)
    ball = sorted(g.ball(v, 2 * first // denom))
    weights = [sum(dist(u) ** c * m for dist, m in columns) for u in ball]
    return _argmin(ball, weights, denom, c, "bounded")


def measure_mean_set(g: Graph, mu: AtomicMeasure, c: int = 2) -> MeanSetResult:
    """Dispatch to the solver matching the graph shape."""
    if isinstance(g, ExplicitGraph):
        return mean_set_exact(g, mu, c)
    if isinstance(g, IntegerLine):
        return line_mean_set(mu, c)
    if g.is_tree:
        return mean_set_tree(g, mu, c)
    return mean_set_bounded(g, mu, c)


def sample_mean_set(g: Graph, counts: Mapping, c: int = 2) -> MeanSetResult:
    """Mean-set of the empirical measure of a sample given by its counts."""
    return measure_mean_set(g, empirical(counts), c)


# -- the integer line -------------------------------------------------------

def line_mean_set(mu: AtomicMeasure, c: int = 2) -> MeanSetResult:
    """Mean-set on the integer line in O(n) for n atoms, whatever their span.

    Class 2: the weight is a strictly convex quadratic with its real
    minimum at the mean, so the argmin is among the floor and ceiling of the
    exact mean.  Class 1: the weight is convex and piecewise linear with
    integer breakpoints, so the argmin is every integer of the weighted
    median interval, from the first atom where the cumulative mass reaches
    half the total to the next atom if it reaches exactly half.  `steps`
    is the size of the support's hull, the vertices a scan would score.
    An atom that is not an int raises VertexIdError.
    """
    _check_class(c)
    denom, nums = mu.numerators()
    _require_atoms(integer_line(), nums)
    atoms = list(nums)  # numerators come in vertex order and sum to denom

    def weight(v):
        return sum(abs(v - s) ** c * m for s, m in nums.items())

    if c == 2:
        first = sum(map(mul, nums, nums.values()))
        candidates = sorted({first // denom, -(-first // denom)})
        weights = list(map(weight, candidates))
    else:
        acc = 0
        for k, s in enumerate(atoms):
            acc += nums[s]
            if 2 * acc >= denom:
                break
        candidates = range(s, atoms[k + 1] + 1 if 2 * acc == denom else s + 1)
        weights = [weight(s)] * len(candidates)
    return _argmin(candidates, weights, denom, c, "line-scan", steps=atoms[-1] - atoms[0] + 1)


def classical_mean_gap(mu: AtomicMeasure) -> Fraction:
    """Largest distance between the classical mean and a class-2 mean-set
    vertex on the integer line; always at most 1/2."""
    mean = sum((Fraction(v) * w for v, w in mu.items()), Fraction(0))
    result = line_mean_set(mu, 2)
    return max(abs(mean - v) for v in result.vertices)
