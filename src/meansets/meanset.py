"""Weight functions and mean-set solvers.

The weight of class c at a vertex v is the exact rational

    W_c(v) = sum over atoms s of d(v, s)^c * mu(s),

and the mean-set is the exact argmin of W_c over the graph.  Three solvers
cover the three graph shapes:

  * mean_set_exact     -- full scan of a finite explicit graph, scored from
                          one BFS per atom;
  * mean_set_tree      -- exact on trees: direct descent plus an
                          equal-weight flood fill (the weight is convex
                          along tree paths, so local minima are global and
                          the argmin set is connected); on free-group
                          Cayley graphs it descends from the identity and
                          scores each vertex from range sums over the
                          support sorted by path key, with no distance
                          calls;
  * mean_set_bounded   -- scan of a ball that provably contains the argmin,
                          for implicit graphs that are not trees.

All comparisons are exact: internally the solvers work with integer weight
numerators over the measure's common denominator and convert to Fraction
only when building results.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .errors import (
    DescentStepLimitError,
    NotATreeError,
    UnreachableAtomError,
    UnreachableVertexError,
)
from .freegroup import CayleyGraph, _str_lcp
from .graphs import ExplicitGraph, Graph
from .measures import AtomicMeasure, Sample, empirical

DEFAULT_STEP_LIMIT = 10**6


@dataclass(frozen=True)
class MeanSetResult:
    """Argmin vertices plus the exact minimal weight."""

    vertices: frozenset
    min_weight: Fraction
    class_c: int
    method: str = "exact"
    steps: int = 0

    def sorted_vertices(self) -> list:
        return sorted(self.vertices)

    def __contains__(self, v) -> bool:
        return v in self.vertices


def weight(g: Graph, mu: AtomicMeasure, v, c: int = 2) -> Fraction:
    """Exact class-c weight of v under mu."""
    _check_class(c)
    denom, nums = mu.numerators()
    try:
        return Fraction(_weight_fn(g.distance, nums, c)(v), denom)
    except UnreachableVertexError as exc:
        raise UnreachableAtomError(str(exc)) from None


def _check_class(c: int) -> None:
    if c not in (1, 2):
        raise ValueError("weight class must be 1 or 2")


def _weight_fn(dist, nums: dict, c: int):
    """Integer weight numerator as a function of the vertex.

    Distances are asked for as dist(s, v), atom first, so any BFS that
    `Graph.distance` starts is sourced at one of the |supp| atoms and its
    memoized scan serves every vertex weighted afterwards.
    """
    items = list(nums.items())
    if c == 2:
        def f(v):
            acc = 0
            for s, m in items:
                d = dist(s, v)
                acc += d * d * m
            return acc
    else:
        def f(v):
            acc = 0
            for s, m in items:
                acc += dist(s, v) * m
            return acc
    return f


def _argmin(candidates, weight, denom: int, c: int, method: str) -> MeanSetResult:
    """Exact argmin of an integer weight numerator over a sized collection
    of candidates; `steps` records how many were scanned."""
    best = None
    best_vs: list = []
    for v in candidates:
        w = weight(v)
        if best is None or w < best:
            best = w
            best_vs = [v]
        elif w == best:
            best_vs.append(v)
    return MeanSetResult(
        vertices=frozenset(best_vs),
        min_weight=Fraction(best, denom),
        class_c=c,
        method=method,
        steps=len(candidates),
    )


def mean_set_exact(g: ExplicitGraph, mu: AtomicMeasure, c: int = 2) -> MeanSetResult:
    """Exact argmin over every vertex of a finite explicit graph.

    One BFS per atom gives a column of distances to every vertex, and each
    vertex is scored by lookups in the columns: O(|supp| * (V + E)) time and
    O(|supp| * V) memory.
    """
    _check_class(c)
    denom, nums = mu.numerators()
    try:
        columns = {s: g.distances_from(s) for s in nums}
    except UnreachableVertexError as exc:
        raise UnreachableAtomError(str(exc)) from None
    f = _weight_fn(lambda s, v: columns[s][v], nums, c)
    return _argmin(g.vertices(), f, denom, c, "exact")


def certify_radius(g: Graph, mu: AtomicMeasure, v0, r: int) -> bool:
    """Exact test of the outer-tail certificate

        sum over atoms s with d(v0, s) > r/2 of d(v0, s) * mu(s)  <  (r/2) * mu(v0).

    When it holds, every vertex outside the ball of radius r around v0 has
    strictly larger class-2 weight than v0, so the mean-set lies inside that
    ball.  It can only hold when mu(v0) > 0.
    """
    if r < 1:
        raise ValueError("radius must be positive")
    denom, nums = mu.numerators()
    # multiply both sides by 2*denom to stay in integers
    tail = sum(
        2 * g.distance(v0, s) * m
        for s, m in nums.items()
        if 2 * g.distance(v0, s) > r
    )
    return tail < r * nums.get(v0, 0)


def _descend(g: Graph, f, start, max_steps: int):
    """Direct descent: returns (local minimizer, steps taken, value cache)."""
    cache = {start: f(start)}
    v = start
    fv = cache[start]
    steps = 0
    while True:
        best_u = None
        best_fu = fv
        for u in g.neighbors(v):
            fu = cache.get(u)
            if fu is None:
                fu = cache[u] = f(u)
            if fu < best_fu or (fu == best_fu and best_u is not None and u < best_u):
                best_u = u
                best_fu = fu
        if best_u is None:
            return v, steps, cache
        v, fv = best_u, best_fu
        steps += 1
        if steps > max_steps:
            raise DescentStepLimitError(
                f"descent exceeded {max_steps} steps; objective is not locally finite"
            )


def direct_descent(g: Graph, f, start, max_steps: int = DEFAULT_STEP_LIMIT):
    """Walk to strictly smaller neighbors until none exists.

    Among strictly smaller neighbors the one with the smallest value is
    taken, remaining ties broken by vertex order, so runs are reproducible.
    Returns a local minimizer of f; when f is locally decreasing and locally
    finite this is a global minimizer.
    """
    v, _steps, _cache = _descend(g, f, start, max_steps)
    return v


def _equal_weight_region(g: Graph, f, seed_vertex, value, cache: dict) -> set:
    """Flood fill over vertices whose f equals value, starting at seed_vertex."""
    region = {seed_vertex}
    frontier = [seed_vertex]
    while frontier:
        v = frontier.pop()
        for u in g.neighbors(v):
            if u in region:
                continue
            fu = cache.get(u)
            if fu is None:
                fu = cache[u] = f(u)
            if fu == value:
                region.add(u)
                frontier.append(u)
    return region


def _free_group_descent(g: CayleyGraph, denom: int, nums: dict, c: int) -> MeanSetResult:
    """Exact argmin on a free-group Cayley graph: direct descent from the
    identity, every neighbour scored from range sums over the sorted support.

    Sorted by `path_key`, the atoms below a vertex p form one contiguous run,
    found by bisect, and prefix sums over the run give its mass M(p) and its
    first moment S1(p), the mass-weighted distance from p to those atoms.
    With T the total mass (Goldman 1971, extended to squares),

        W1(child) = W1(parent) + T - 2 M(child)
        W2(child) = W2(parent) + T + 2 W1(parent) - 4 (S1(child) + M(child)).

    A child with no atoms below it is strictly heavier than its parent, so
    only the children that lead to atoms are scored.  The weight is convex
    along tree paths, so the descent stops at a global minimizer, and the
    argmin set is the connected equal-weight region around it.  The descent
    entered that vertex from a strictly heavier parent, so the region lies
    in its subtree and is flooded through children only.  `steps` is the
    size of the atoms' prefix hull, counted from the sorted keys.
    """
    keyed = sorted((g.path_key(s), m) for s, m in nums.items())
    keys = [k for k, _ in keyed]
    cum_m = list(accumulate((m for _, m in keyed), initial=0))
    cum_ml = list(accumulate((m * len(k) for k, m in keyed), initial=0))
    total = cum_m[-1]
    top = "~" if isinstance(keys[0], str) else ("~",)  # sorts after every letter and token

    # a vertex is (key, lo, hi, W1, W2): keys[lo:hi] are the atoms below it
    def children(key, lo, hi, w1, w2):
        depth = len(key)
        i = lo + (len(keys[lo]) == depth)  # an atom at key itself sorts first
        while i < hi:
            child = keys[i][: depth + 1]
            j = bisect_left(keys, child + top, i + 1, hi)
            m = cum_m[j] - cum_m[i]
            first = cum_ml[j] - cum_ml[i] - depth * m  # S1(child) + M(child)
            yield child, i, j, w1 + total - 2 * m, w2 + total + 2 * w1 - 4 * first
            i = j

    score = 3 if c == 1 else 4
    node = (keys[0][:0], 0, len(keys), cum_ml[-1], sum(m * len(k) ** 2 for k, m in keyed))
    while True:
        around = list(children(*node))
        # convexity leaves at most one strictly lighter neighbour
        lighter = [u for u in around if u[score] < node[score]]
        if not lighter:
            break
        node = lighter[0]
    best = node[score]
    region = [node[0]]
    frontier = [u for u in around if u[score] == best]
    while frontier:
        v = frontier.pop()
        region.append(v[0])
        frontier.extend(u for u in children(*v) if u[score] == best)
    steps = 1 + len(keys[0]) + sum(len(b) - _str_lcp(a, b) for a, b in zip(keys, keys[1:]))
    return MeanSetResult(
        vertices=frozenset(g.key_id(k) for k in region),
        min_weight=Fraction(best, denom),
        class_c=c,
        method="descent",
        steps=steps,
    )


def mean_set_tree(
    g: Graph,
    mu: AtomicMeasure,
    c: int = 2,
    start=None,
    max_steps: int = DEFAULT_STEP_LIMIT,
) -> MeanSetResult:
    """Mean-set of a measure on a tree, exact.

    On a free-group Cayley graph the solver descends from the identity over
    the atoms sorted by `path_key` (see `_free_group_descent`): O(n log n +
    depth * (r + log n)) comparisons and bisects for n atoms at rank r, the
    depth being that of the mean-set.  `steps` is the size of the atoms'
    prefix hull, the vertices on the geodesics from the identity to the
    atoms; `start` and `max_steps` do not apply there.  An atom that is not
    the id word_to_str gives a reduced word of the graph's rank raises
    VertexIdError.

    On other trees the solver runs direct descent, from `start` or else the
    heaviest atom (ties broken by vertex order), so the walk stays inside
    the convex hull of the support, and `steps` counts the descent's moves.
    The weight is convex along tree paths, hence the local minimizer found
    is global and the full argmin set is the connected equal-weight region
    around it; for class 2 that region has at most two (adjacent) vertices.

    On a graph with cycles a local minimum need not be global, so any graph
    whose `is_tree` is false, explicit or implicit, raises NotATreeError.
    """
    _check_class(c)
    if not g.is_tree:
        raise NotATreeError("descent is exact only on trees; this graph is not a tree")
    denom, nums = mu.numerators()
    if len(nums) == 1:
        g._require_vertex(*nums)
        return MeanSetResult(
            vertices=frozenset(nums),
            min_weight=Fraction(0),
            class_c=c,
            method="descent",
            steps=0,
        )
    if isinstance(g, CayleyGraph):
        return _free_group_descent(g, denom, nums, c)
    if start is None:
        start = min(nums, key=lambda v: (-nums[v], v))
    f = _weight_fn(g.distance, nums, c)
    v, steps, cache = _descend(g, f, start, max_steps)
    best = cache[v]
    region = _equal_weight_region(g, f, v, best, cache)
    return MeanSetResult(
        vertices=frozenset(region),
        min_weight=Fraction(best, denom),
        class_c=c,
        method="descent",
        steps=steps,
    )


def mean_set_bounded(g: Graph, mu: AtomicMeasure, c: int = 2) -> MeanSetResult:
    """Mean-set of a finitely supported measure on an implicit graph.

    Let v be the heaviest atom.  Choose the smallest radius r whose ball
    around v carries at least half of W_c(v):

        2 * sum over atoms s with d(v, s) <= r of d(v, s)^c * mu(s)  >=  W_c(v).

    Every vertex u with d(u, v) >= 3r (class 2; 4r for class 1) then
    satisfies W_c(u) > W_c(v), so scanning the ball of that radius is an
    exhaustive search for the argmin set.  Every atom must be a vertex of
    the graph (`VertexIdError` on a free group, `UnreachableVertexError` on
    an explicit graph), checked before any distance is taken.
    """
    _check_class(c)
    support = mu.support()
    for s in support:
        g._require_vertex(s)
    if len(support) == 1:
        return MeanSetResult(
            vertices=frozenset(support),
            min_weight=Fraction(0),
            class_c=c,
            method="bounded",
            steps=0,
        )
    denom, nums = mu.numerators()
    v = min(support, key=lambda s: (-nums[s], s))
    dist_to_atom = {s: g.distance(v, s) for s in support}
    total = sum(dist_to_atom[s] ** c * m for s, m in nums.items())
    acc = 0
    r = 0
    for s in sorted(support, key=lambda s: dist_to_atom[s]):
        if 2 * acc >= total:
            break
        r = dist_to_atom[s]
        acc += r ** c * nums[s]
    radius = 3 * r if c == 2 else 4 * r
    ball = sorted(g.ball(v, radius))
    return _argmin(ball, _weight_fn(g.distance, nums, c), denom, c, "bounded")


def measure_mean_set(g: Graph, mu: AtomicMeasure, c: int = 2) -> MeanSetResult:
    """Dispatch to the solver matching the graph shape."""
    if isinstance(g, ExplicitGraph):
        return mean_set_exact(g, mu, c)
    if g.is_tree:
        return mean_set_tree(g, mu, c)
    return mean_set_bounded(g, mu, c)


def sample_mean_set(g: Graph, s: Sample, c: int = 2) -> MeanSetResult:
    """Mean-set of the empirical measure of a sample."""
    return measure_mean_set(g, empirical(s), c)


# -- the integer line -------------------------------------------------------

def line_mean_set(mu: AtomicMeasure, c: int = 2) -> MeanSetResult:
    """Mean-set on the integer line by scanning the convex hull of the support.

    The weight is convex in the vertex and strictly increasing outside the
    hull, so the scan is exhaustive.
    """
    _check_class(c)
    support = mu.support()
    lo, hi = min(support), max(support)
    denom, nums = mu.numerators()
    return _argmin(
        range(lo, hi + 1),
        lambda v: sum(abs(v - s) ** c * m for s, m in nums.items()),
        denom, c, "line-scan",
    )


def classical_mean_gap(mu: AtomicMeasure) -> Fraction:
    """Largest distance between the classical mean and a class-2 mean-set
    vertex on the integer line; always at most 1/2."""
    mean = sum((Fraction(v) * w for v, w in mu.items()), Fraction(0))
    result = line_mean_set(mu, 2)
    return max(abs(mean - v) for v in result.vertices)
