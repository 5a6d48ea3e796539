import copy
import random
import re
from fractions import Fraction

import pytest

from meansets.errors import (
    InfiniteGraphError,
    NotATreeError,
    VertexIdError,
)
from meansets.freegroup import CayleyGraph, sample_sphere, word_to_str
from meansets.graphs import (
    ExplicitGraph,
    ImplicitGraph,
    complete_graph,
    cycle_graph,
    integer_grid,
    integer_line,
    path_graph,
)
from meansets.measures import AtomicMeasure, empirical, shift
from meansets.meanset import (
    _argmin,
    classical_mean_gap,
    line_mean_set,
    mean_set_bounded,
    mean_set_exact,
    mean_set_tree,
    measure_mean_set,
    sample_mean_set,
    weight,
)
from meansets.randomgen import (
    random_connected_graph,
    random_cutpoint_graph,
    random_integer_measure,
    random_measure,
    random_tree,
    random_word,
    random_word_measure,
)

from freewords import ReducedWord, ball_words, fg_distance, multiply, parse_word, word_id
from test_graphs import SPARSE_EDGES, sparse_relabel


def brute_force_mean_set(g: ExplicitGraph, mu: AtomicMeasure, c: int, edges=None):
    """Independent oracle: Floyd-Warshall distances, Fraction weights, argmin.
    Given `edges` (the list g was built from), it reads vertices and edges
    from that list instead of from g."""
    if edges is None:
        edges = g.edges()
    vs = sorted({x for e in edges for x in e})
    inf = float("inf")
    d = {(u, v): 0 if u == v else inf for u in vs for v in vs}
    for u, v in edges:
        d[u, v] = d[v, u] = 1
    for k in vs:
        for i in vs:
            for j in vs:
                if d[i, k] + d[k, j] < d[i, j]:
                    d[i, j] = d[i, k] + d[k, j]
    weights = {
        v: sum((Fraction(d[v, s]) ** c * mu[s] for s in mu.support()), Fraction(0))
        for v in vs
    }
    best = min(weights.values())
    return frozenset(v for v, w in weights.items() if w == best), best


def line_hull_scan(mu: AtomicMeasure, c: int):
    """Independent oracle for the integer line: score every integer of the
    support's hull with Fraction weights (the weight grows outside it)."""
    support = mu.support()
    lo, hi = min(support), max(support)
    weights = {v: sum((abs(v - s) ** c * mu[s] for s in support), Fraction(0))
               for v in range(lo, hi + 1)}
    best = min(weights.values())
    return frozenset(v for v, w in weights.items() if w == best), best, hi - lo + 1


def as_implicit(g: ExplicitGraph) -> ImplicitGraph:
    return ImplicitGraph(lambda v: g.neighbors(v), is_tree=g.is_tree)


class CountingPath(ExplicitGraph):
    """An explicit graph that counts the calls that walk it by id."""

    calls = 0

    def neighbors(self, v):
        self.calls += 1
        return super().neighbors(v)


class TestWeight:
    def test_path_two_point(self):
        g = path_graph(3)
        mu = AtomicMeasure.uniform([0, 2])
        assert weight(g, mu, 1, 2) == 1
        assert weight(g, mu, 0, 2) == 2

    def test_point_mass_is_zero_at_atom(self):
        g = cycle_graph(5)
        mu = AtomicMeasure.point_mass(3)
        assert weight(g, mu, 3, 2) == 0

    def test_three_vertex_path_weights(self):
        # center vertex 1 flanked by 0 and 2, all mass on the flanks:
        # W(1) = mu0 + mu2, W(0) = 4*mu2, W(2) = 4*mu0 (plus cross terms via 1)
        g = path_graph(3)
        mu = AtomicMeasure({0: Fraction(1, 2), 2: Fraction(1, 2)})
        assert weight(g, mu, 1, 2) == Fraction(1)
        assert weight(g, mu, 0, 2) == Fraction(2)
        assert weight(g, mu, 2, 2) == Fraction(2)

    def test_class_one(self):
        g = path_graph(3)
        mu = AtomicMeasure.uniform([0, 2])
        assert weight(g, mu, 1, 1) == 1
        assert weight(g, mu, 0, 1) == 1

    def test_unreachable_atom(self):
        broken = ImplicitGraph(lambda v: ())
        mu = AtomicMeasure.point_mass(5)
        with pytest.raises(VertexIdError):
            weight(broken, mu, 0, 2)

    def test_bad_class(self):
        with pytest.raises(ValueError):
            weight(path_graph(2), AtomicMeasure.point_mass(0), 0, 3)


class TestMeanSetExact:
    def test_cycle_uniform_is_everything(self):
        g = cycle_graph(5)
        res = mean_set_exact(g, AtomicMeasure.uniform(g.vertices()), 2)
        assert res.vertices == frozenset(g.vertices())

    def test_complete_uniform_is_everything(self):
        g = complete_graph(4)
        res = mean_set_exact(g, AtomicMeasure.uniform(g.vertices()), 2)
        assert res.vertices == frozenset(g.vertices())

    def test_path_center(self):
        g = path_graph(3)
        res = mean_set_exact(g, AtomicMeasure.uniform([0, 2]), 2)
        assert res.vertices == frozenset([1])
        assert res.min_weight == 1

    def test_matches_brute_force(self):
        rng = random.Random(2025)
        for _ in range(60):
            g = random_connected_graph(rng, 12)
            mu = random_measure(g.vertices(), rng)
            for c in (1, 2):
                res = mean_set_exact(g, mu, c)
                vs, best = brute_force_mean_set(g, mu, c)
                assert res.vertices == vs
                assert res.min_weight == best

    def test_class_one_matches_floyd_warshall_with_cycles(self):
        rng = random.Random(4471)
        for _ in range(80):
            g = random_connected_graph(rng, 14, min_vertices=3, extra_edge_prob=0.35)
            masses = {v: Fraction(rng.randint(1, 9)) for v in g.vertices() if rng.random() < 0.4}
            masses[0] = Fraction(rng.randint(1, 9))
            mu = AtomicMeasure.from_masses(masses)
            res = mean_set_exact(g, mu, 1)
            vs, best = brute_force_mean_set(g, mu, 1)
            assert res.vertices == vs
            assert res.min_weight == best
            assert res.steps == len(g)

    def test_sparse_ids_match_floyd_warshall(self):
        # ids far apart and not starting at 0, edges shuffled and flipped:
        # the scan's columns are in vertex order and must map back to ids
        rng = random.Random(1920)
        for _ in range(60):
            edges = sparse_relabel(rng, random_connected_graph(rng, 12, extra_edge_prob=0.3))
            g = ExplicitGraph(edges)
            mu = random_measure(g.vertices(), rng)
            for c in (1, 2):
                res = mean_set_exact(g, mu, c)
                vs, best = brute_force_mean_set(g, mu, c, edges=edges)
                assert (res.vertices, res.min_weight) == (vs, best)
                assert (res.method, res.steps) == ("exact", len(g))
        g = ExplicitGraph(SPARSE_EDGES)
        res = mean_set_exact(g, AtomicMeasure.from_masses({17: 1, 999: 1}), 2)
        assert res.vertices == frozenset([3, 10**6]) and res.min_weight == 1

    def test_scan_runs_on_index_lists(self):
        # one BFS column per atom on the index adjacency, no `neighbors` call
        class CountingGraph(ExplicitGraph):
            columns = 0

            def neighbors(self, v):
                raise AssertionError("the exact scan walked the graph by id")

            def _column(self, i, banned=()):
                self.columns += 1
                return super()._column(i, banned)

        g = CountingGraph((i, (i + 1) % 50) for i in range(50))
        g.columns = 0  # the connectivity check at construction is not solver work
        mu = AtomicMeasure.from_masses({0: 1, 7: 2, 30: 3})
        assert mean_set_exact(g, mu, 1) == mean_set_exact(cycle_graph(50), mu, 1)
        assert g.columns == 3

    def test_long_path_work_is_one_bfs_per_atom(self):
        n = 10**4
        g = CountingPath((i, i + 1) for i in range(n - 1))
        g.calls = 0  # the connectivity check at construction is not solver work
        mu = AtomicMeasure.from_masses({0: 1, 5000: 2, 9999: 1})
        res = mean_set_exact(g, mu, 2)
        assert res.vertices == frozenset([5000])
        assert res.min_weight == Fraction(49990001, 4)
        assert g.calls <= 3 * n

    def test_repeated_solves_keep_no_scans(self):
        # solves leave the graph as constructed: no state grows per source
        g = path_graph(400)
        before = copy.deepcopy(vars(g))
        rng = random.Random(400)
        for _ in range(200):
            mu = AtomicMeasure.uniform(rng.sample(range(400), 3))
            mean_set_exact(g, mu, 2)
            mean_set_bounded(g, mu, 2)
        assert vars(g) == before

    @pytest.mark.parametrize("g, atom", [(CayleyGraph(2), "e"), (integer_grid(), (0, 0))],
                             ids=["free-group", "grid"])
    def test_implicit_graph_refused(self, g, atom):
        # an implicit graph has no vertex list to scan
        with pytest.raises(InfiniteGraphError):
            mean_set_exact(g, AtomicMeasure.point_mass(atom), 2)

    def test_atom_outside_graph(self):
        with pytest.raises(VertexIdError):
            mean_set_exact(path_graph(3), AtomicMeasure.point_mass(99), 2)
        with pytest.raises(VertexIdError):
            weight(path_graph(3), AtomicMeasure.point_mass(99), 0, 2)

    def test_weight_at_a_non_vertex_atom(self):
        # the atom is the vertex weighted: d(7, 7) used to read 0
        with pytest.raises(VertexIdError):
            weight(path_graph(3), AtomicMeasure.point_mass(7), 7, 2)

    def test_weight_at_a_non_canonical_free_group_atom(self):
        # "aA" is unreduced, so it names no vertex of F2
        with pytest.raises(VertexIdError):
            weight(CayleyGraph(2), AtomicMeasure.point_mass("aA"), "e", 2)


class TestMeanSetBounded:
    @pytest.mark.parametrize("masses", [{"a": 2, "1": 1}, {"a": 1, "aA": 1}, {"1": 1}])
    def test_refuses_non_canonical_atoms(self, masses):
        # only the centre atom used to be checked: {"a": 2, "1": 1} returned
        # {e} after scanning 156,865 vertices, "1" read as a one-letter word
        with pytest.raises(VertexIdError):
            mean_set_bounded(CayleyGraph(4), AtomicMeasure.from_masses(masses), 2)

    def test_point_mass_on_free_group(self):
        g = CayleyGraph(2)
        res = mean_set_bounded(g, AtomicMeasure.point_mass("ab"), 2)
        assert res.vertices == frozenset(["ab"])
        assert res.min_weight == 0
        assert res.steps == 1

    def test_uniform_three_words(self):
        g = CayleyGraph(2)
        mu = AtomicMeasure.uniform(["e", "a", "A"])
        res = mean_set_bounded(g, mu, 2)
        # independent scan over the materialized radius-6 ball
        atoms = {parse_word(v, 2): mu[v] for v in mu.support()}
        best = None
        best_words = []
        for w in ball_words(2, 6):
            val = sum((Fraction(fg_distance(w, s)) ** 2 * p for s, p in atoms.items()),
                      Fraction(0))
            if best is None or val < best:
                best, best_words = val, [w]
            elif val == best:
                best_words.append(w)
        assert res.vertices == frozenset(word_id(w) for w in best_words)
        assert res.vertices == frozenset(["e"])
        assert res.min_weight == best == Fraction(2, 3)

    @pytest.mark.parametrize("shape", [random_tree, random_connected_graph,
                                       random_cutpoint_graph])
    def test_agrees_with_exact_on_implicit_graphs(self, shape):
        rng = random.Random(88)
        for _ in range(40):
            g = shape(rng, 14)
            mu = random_measure(g.vertices(), rng)
            for c in (1, 2):
                res = mean_set_bounded(as_implicit(g), mu, c)
                exact = mean_set_exact(g, mu, c)
                assert res.vertices == exact.vertices
                assert res.min_weight == exact.min_weight

    def test_grid_solves_keep_no_scans(self):
        # each ball used to stay cached on the graph, one per distinct centre
        grid = integer_grid()
        before = copy.deepcopy(vars(grid))
        rng = random.Random(90)
        for _ in range(20):
            atoms = {(rng.randint(-8, 8), rng.randint(-8, 8)) for _ in range(3)}
            mean_set_bounded(grid, AtomicMeasure.uniform(atoms), 2)
        assert vars(grid) == before

    def test_opaque_grid_work_is_one_bfs_per_atom(self):
        # with no distance oracle each atom's BFS column serves the whole
        # ball; a BFS per distance call took ~730,000 neighbors calls here
        grid = integer_grid()
        calls = 0

        def neighbors(p):
            nonlocal calls
            calls += 1
            return grid.neighbors(p)

        mu = AtomicMeasure.from_masses({(0, 0): 2, (3, 1): 1, (-2, 4): 1})
        res = mean_set_bounded(ImplicitGraph(neighbors), mu, 2)
        assert res.vertices == frozenset([(0, 1)]) and res.min_weight == 9
        assert res.steps == len(grid.ball((0, 0), 5))
        assert calls <= 2 * (len(mu.support()) + 1) * res.steps

    def test_generous_ball_rescan(self):
        # scan a ball three steps larger than the half-weight certificate's:
        # the argmin set must not change
        rng = random.Random(89)
        for _ in range(25):
            tree = random_tree(rng, 10)
            mu = random_measure(tree.vertices(), rng)
            g = as_implicit(tree)
            support = mu.support()
            for c in (1, 2):
                res = mean_set_bounded(g, mu, c)
                v, radius = half_weight_certificate(g, mu, c)
                best = None
                best_vs = []
                for u in sorted(g.ball(v, radius + 3)):
                    val = sum((Fraction(g.distance(u, s)) ** c * mu[s] for s in support),
                              Fraction(0))
                    if best is None or val < best:
                        best, best_vs = val, [u]
                    elif val == best:
                        best_vs.append(u)
                assert res.vertices == frozenset(best_vs)
                assert res.min_weight == best

    def test_ball_within_half_weight_certificate_on_grid(self):
        # the scanned ball is never larger than the half-weight certificate's
        # ball around the same atom, and scanning that ball finds the same
        # argmin
        grid = integer_grid()
        rng = random.Random(91)
        for _ in range(12):
            n = rng.randint(2, 6)
            atoms = {(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(n)}
            mu = AtomicMeasure.from_masses({s: rng.randint(1, 9) for s in atoms})
            denom, nums = mu.numerators()
            for c in (1, 2):
                res = mean_set_bounded(grid, mu, c)
                v, radius = half_weight_certificate(grid, mu, c)
                ball = sorted(grid.ball(v, radius))
                weights = [sum(grid.distance(u, s) ** c * m for s, m in nums.items())
                           for u in ball]
                old = _argmin(ball, weights, denom, c, "bounded")
                assert res.steps <= len(ball)
                assert res.vertices == old.vertices
                assert res.min_weight == old.min_weight


def half_weight_certificate(g, mu: AtomicMeasure, c: int):
    """The half-weight radius certificate, kept as an oracle for the ball
    scan: around the heaviest atom v (ties broken by vertex order), the
    smallest r whose ball carries at least half of W_c(v), then the ball of
    radius 3r (class 2) or 4r (class 1) holds the argmin.  Returns v and
    that radius."""
    support = mu.support()
    v = min(support, key=lambda s: (-mu[s], s))
    total = sum((Fraction(g.distance(v, s)) ** c * mu[s] for s in support), Fraction(0))
    acc = Fraction(0)
    r = 0
    for s in sorted(support, key=lambda s: g.distance(v, s)):
        if 2 * acc >= total:
            break
        r = g.distance(v, s)
        acc += Fraction(r) ** c * mu[s]
    return v, 3 * r if c == 2 else 4 * r


def reference_descent(g, mu: AtomicMeasure, c: int, start=None):
    """The paper's direct descent on the graph's own distance and neighbors:
    from `start` (by default the heaviest atom, ties broken by vertex order)
    move to the lightest neighbour, ties broken by vertex order, while it is
    strictly lighter, then flood the equal-weight region around the vertex
    reached.  Returns the region and its weight.  On a tree the weight is
    convex, so this is the mean-set: the reference for the tree solver,
    which runs the same descent over sorted keys."""
    cache: dict = {}

    def f(v):
        if v not in cache:
            cache[v] = sum((Fraction(g.distance(s, v)) ** c * mu[s] for s in mu.support()),
                           Fraction(0))
        return cache[v]

    v = min(mu.support(), key=lambda s: (-mu[s], s)) if start is None else start
    while True:
        u = min(g.neighbors(v), key=lambda u: (f(u), u))
        if f(u) >= f(v):
            break
        v = u
    region = {v}
    frontier = [v]
    while frontier:
        for u in g.neighbors(frontier.pop()):
            if u not in region and f(u) == f(v):
                region.add(u)
                frontier.append(u)
    return frozenset(region), f(v)


class TestDirectDescent:
    def test_single_step_on_path(self):
        g = path_graph(3)
        mu = AtomicMeasure.uniform([0, 2])
        assert reference_descent(g, mu, 2, start=0) == (frozenset([1]), Fraction(1))

    def test_start_at_minimum_stays(self):
        g = path_graph(3)
        mu = AtomicMeasure.uniform([0, 2])
        assert reference_descent(g, mu, 2, start=1) == (frozenset([1]), Fraction(1))

    def test_lands_in_mean_set_on_random_trees(self):
        rng = random.Random(31337)
        for _ in range(200):
            tree = random_tree(rng, 20)
            mu = random_measure(tree.vertices(), rng)
            start = rng.choice(tree.vertices())
            exact = mean_set_exact(tree, mu, 2)
            assert reference_descent(tree, mu, 2, start) == (exact.vertices, exact.min_weight)


class TestMeanSetTree:
    def test_two_point_line(self):
        line = integer_line()
        mu = AtomicMeasure.uniform([0, 1])
        res = mean_set_tree(line, mu, 2)
        assert res.vertices == frozenset([0, 1])
        assert res.min_weight == Fraction(1, 2)

    def test_matches_exact_on_random_trees(self):
        rng = random.Random(61)
        for _ in range(120):
            tree = random_tree(rng, 25)
            mu = random_measure(tree.vertices(), rng)
            res = mean_set_tree(tree, mu, 2)
            exact = mean_set_exact(tree, mu, 2)
            assert res.vertices == exact.vertices
            assert res.min_weight == exact.min_weight
            assert 1 <= len(res.vertices) <= 2
            vs = res.sorted_vertices()
            if len(vs) == 2:
                assert tree.distance(vs[0], vs[1]) == 1

    def test_class_one_full_median_set(self):
        # the class-1 argmin region can be wider than two vertices; the
        # flood fill must still return all of it on a tree
        line = integer_line()
        mu = AtomicMeasure.uniform([0, 3])
        res = mean_set_tree(line, mu, 1)
        assert res.vertices == frozenset([0, 1, 2, 3])
        exact = line_mean_set(mu, 1)
        assert res.vertices == exact.vertices

    def test_free_group_sphere_sample(self):
        g = CayleyGraph(4)
        mu = AtomicMeasure.from_masses({"abcd": 1, "abDC": 1, "aBc": 2})
        res = mean_set_tree(g, mu, 2)
        # all mass shares the prefix a, so the center is near it; verify by
        # scanning a materialized ball
        atoms = {parse_word(v, 4): mu[v] for v in mu.support()}
        best = None
        best_words = set()
        for w in ball_words(4, 5):
            val = sum((Fraction(fg_distance(w, s)) ** 2 * p for s, p in atoms.items()),
                      Fraction(0))
            if best is None or val < best:
                best, best_words = val, {word_id(w)}
            elif val == best:
                best_words.add(word_id(w))
        assert res.vertices == frozenset(best_words)

    def test_refuses_graph_with_cycles(self):
        # descent stops at 1, but 1 and 2 tie: W = 1 at both
        g = ExplicitGraph([(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
        mu = AtomicMeasure.from_masses({0: 1, 4: 1})
        with pytest.raises(NotATreeError):
            mean_set_tree(g, mu, 2)
        assert mean_set_exact(g, mu, 2).vertices == frozenset([1, 2])
        # the same graph behind a neighbor oracle, not declared a tree
        with pytest.raises(NotATreeError):
            mean_set_tree(ImplicitGraph(g.neighbors, is_tree=False), mu, 2)
        with pytest.raises(NotATreeError):
            mean_set_tree(integer_grid(), AtomicMeasure.uniform([(0, 0), (1, 1)]), 2)

    @pytest.mark.parametrize("masses", [{0: 1, 7: 1}, {0: 1, 7: 2}, {7: 1}])
    def test_atom_outside_graph(self, masses):
        # every solver names a missing atom with the same error
        mu = AtomicMeasure.from_masses(masses)
        for solve in (mean_set_tree, mean_set_exact, mean_set_bounded):
            with pytest.raises(VertexIdError):
                solve(path_graph(3), mu, 2)

    def test_unreachable_atom_on_implicit_tree(self):
        # an oracle violating the connectivity contract: isolated vertices
        broken = ImplicitGraph(lambda v: (), is_tree=True)
        with pytest.raises(VertexIdError):
            mean_set_tree(broken, AtomicMeasure.from_masses({0: 1, 5: 1}), 2)

    def test_explicit_tree_walked_only_back_to_the_root(self):
        # every distance comes from a column on the index lists: the ball
        # scan never walks the graph by id, and the descent's keys take one
        # `neighbors` call per step from an atom back to the root
        rng = random.Random(2323)
        for _ in range(60):
            tree = CountingPath(random_tree(rng, 40).edges())
            mu = random_measure(tree.vertices(), rng, max_atoms=8)
            root = min(mu.support(), key=lambda s: (-mu[s], s))
            depths = sum(tree.distance(root, s) for s in mu.support())
            for c in (1, 2):
                exact = mean_set_exact(tree, mu, c)
                tree.calls = 0
                res = mean_set_bounded(tree, mu, c)
                assert tree.calls == 0
                assert (res.vertices, res.min_weight) == (exact.vertices, exact.min_weight)
                res = mean_set_tree(tree, mu, c)
                assert tree.calls <= depths
                assert (res.vertices, res.min_weight) == (exact.vertices, exact.min_weight)

    def test_single_atom_short_circuit(self):
        g = CayleyGraph(2)
        res = mean_set_tree(g, AtomicMeasure.point_mass("abab"), 2)
        assert res.vertices == frozenset(["abab"])
        assert res.min_weight == 0
        # four moves from the identity; the payload's hull of one atom is 0
        assert res.steps == 4
        assert g.prefix_hull_size(["abab"]) == 0

    def test_agrees_with_bounded_solver_on_free_group(self):
        # two independent solvers, one instance: descent+flood vs the
        # certified-ball scan must name the same argmin set and value
        # (supports kept tight: the ball scan grows exponentially in rank 2)
        rng = random.Random(2042)
        cases = [(CayleyGraph(2), 1, 40), (CayleyGraph(1), 4, 40)]
        for g, max_len, count in cases:
            for _ in range(count):
                mu = random_word_measure(rng, g.rank, max_atoms=5, max_len=max_len)
                for c in (1, 2):
                    by_tree = mean_set_tree(g, mu, c)
                    by_ball = mean_set_bounded(g, mu, c)
                    assert by_tree.vertices == by_ball.vertices
                    assert by_tree.min_weight == by_ball.min_weight


def long_branch_tree(rng: random.Random, max_vertices: int) -> ExplicitGraph:
    """Each vertex attaches to one of the four before it: long paths, so the
    mean-set tends to lie many moves from the heaviest atom."""
    n = rng.randint(2, max_vertices)
    return ExplicitGraph((rng.randrange(max(0, v - 4), v), v) for v in range(1, n))


class TestTreeSolverDifferential:
    """The tree solver on keys of vertex ids against the independent full
    scan and hull scan."""

    @pytest.mark.parametrize("shape", [random_tree, long_branch_tree])
    def test_matches_exact_scan(self, shape):
        rng = random.Random(7070)
        for _ in range(150):
            tree = shape(rng, 30)
            mu = random_measure(tree.vertices(), rng, max_atoms=8)
            heaviest = min(mu.support(), key=lambda s: (-mu[s], s))
            # the same tree behind an opaque neighbor oracle
            for g in (tree, ImplicitGraph(tree.neighbors, is_tree=True)):
                for c in (1, 2):
                    res = mean_set_tree(g, mu, c)
                    exact = mean_set_exact(tree, mu, c)
                    assert (res.vertices, res.min_weight) == (exact.vertices, exact.min_weight)
                    assert res.method == "descent"
                    assert res.steps == min(tree.distance(heaviest, v) for v in res.vertices)

    def test_line_matches_hull_scan(self):
        rng = random.Random(7071)
        line = integer_line()
        for _ in range(150):
            mu = random_integer_measure(rng, span=30)
            heaviest = min(mu.support(), key=lambda s: (-mu[s], s))
            for c in (1, 2):
                res = mean_set_tree(line, mu, c)
                assert (res.vertices, res.min_weight) == line_hull_scan(mu, c)[:2]
                assert res.steps == min(abs(heaviest - v) for v in res.vertices)

    def test_deep_descent_on_wide_line(self):
        # a deep descent: 6,700 moves from the root 0 over keys of up to
        # 20,000 elements
        mu = AtomicMeasure.from_masses({0: 1, 100: 1, 20000: 1})
        res = mean_set_tree(integer_line(), mu, 2)
        ref = line_mean_set(mu, 2)
        assert (res.vertices, res.min_weight) == (ref.vertices, ref.min_weight) == (
            frozenset([6700]), Fraction(6700**2 + 6600**2 + 13300**2, 3))
        assert res.steps == 6700


def prefix_hull_scan(rank: int, mu: AtomicMeasure, c: int):
    """Brute force over every prefix of every atom, on ReducedWords and the
    word metric; also returns how many vertices were scanned."""
    atoms = {parse_word(s, rank): mu[s] for s in mu.support()}
    hull = {ReducedWord(rank, w.letters[:k]) for w in atoms for k in range(len(w) + 1)}
    weights = {
        v: sum((Fraction(fg_distance(v, s)) ** c * p for s, p in atoms.items()), Fraction(0))
        for v in hull
    }
    best = min(weights.values())
    return frozenset(word_id(v) for v, w in weights.items() if w == best), best, len(hull)


class TestFreeGroupPrefixTrie:
    """The free-group tree solver against descent and a brute-force scan of
    the prefix hull."""

    RANKS = (1, 2, 4, 5, 27)

    def assert_agree(self, g, mu, c):
        res = mean_set_tree(g, mu, c)
        vertices, best, hull_size = prefix_hull_scan(g.rank, mu, c)
        assert (res.vertices, res.min_weight) == (vertices, best)
        assert (res.vertices, res.min_weight) == reference_descent(g, mu, c)
        assert res.method == "descent"
        assert res.steps == min(g.distance(g.empty_id, v) for v in res.vertices)
        assert g.prefix_hull_size(mu.support()) == (0 if len(mu) == 1 else hull_size)

    @pytest.mark.parametrize("rank", RANKS)
    def test_random_measures(self, rank):
        rng = random.Random(8100 + rank)
        g = CayleyGraph(rank)
        for _ in range(25 if rank == 27 else 60):
            mu = random_word_measure(rng, rank, max_atoms=6, max_len=8 if rank == 1 else 5)
            for c in (1, 2):
                self.assert_agree(g, mu, c)

    @pytest.mark.parametrize("rank", RANKS)
    def test_point_masses_identity_atoms_and_ties(self, rank):
        rng = random.Random(8200 + rank)
        g = CayleyGraph(rank)
        e = g.empty_id
        for _ in range(10):
            w = random_word(rng, rank, 5)
            wid = word_to_str(w, rank)
            step = word_to_str(w[:1], rank)
            cases = [
                AtomicMeasure.point_mass(wid),
                AtomicMeasure.point_mass(e),
                AtomicMeasure.from_masses({e: rng.randint(1, 9), wid: rng.randint(1, 9)}),
                AtomicMeasure.from_masses({e: 1, step: 1}),
            ]
            for mu in cases:
                for c in (1, 2):
                    self.assert_agree(g, mu, c)
            if len(w):
                # two adjacent atoms of equal mass: both are the class-2 mean-set
                assert mean_set_tree(g, cases[3], 2).vertices == frozenset([e, step])

    @pytest.mark.parametrize("rank", (2, 4, 5, 27))
    def test_deep_common_prefix(self, rank):
        # the descent walks 40 steps down a^40 before the atoms split
        g = CayleyGraph(rank)
        stem = (1,) * 40
        mu = AtomicMeasure.from_masses({
            word_to_str(stem + (2,), rank): 1,
            word_to_str(stem + (-2,), rank): 1,
        })
        for c in (1, 2):
            self.assert_agree(g, mu, c)
        assert mean_set_tree(g, mu, 2).vertices == frozenset([word_to_str(stem, rank)])

    @pytest.mark.parametrize("rank", RANKS)
    def test_class_one_plateau(self, rank):
        # every vertex of the geodesic from A^30 to a^30 has class-1 weight 30
        g = CayleyGraph(rank)
        mu = AtomicMeasure.from_masses({word_to_str((1,) * 30, rank): 1,
                                        word_to_str((-1,) * 30, rank): 1})
        for c in (1, 2):
            self.assert_agree(g, mu, c)
        res = mean_set_tree(g, mu, 1)
        assert len(res.vertices) == 61
        assert res.min_weight == 30
        assert mean_set_tree(g, mu, 2).vertices == frozenset([g.empty_id])

    @pytest.mark.parametrize("rank", RANKS)
    def test_atom_that_prefixes_another(self, rank):
        rng = random.Random(8300 + rank)
        g = CayleyGraph(rank)
        for _ in range(20):
            w = random_word(rng, rank, 10)
            cuts = rng.sample(range(len(w) + 1), min(len(w) + 1, rng.randint(2, 4)))
            mu = AtomicMeasure.from_masses({
                word_to_str(w[:k], rank): rng.randint(1, 9) for k in cuts
            })
            for c in (1, 2):
                self.assert_agree(g, mu, c)

    @pytest.mark.parametrize("masses", [
        {"g1": 1, "g1 g2": 1, "g10": 2},
        {"g1 g2": 3, "g10": 1, "g1": 1, "g1 g20": 1},
        {"g2": 1, "g27 g3": 2, "G1 g10": 1, "g1 g1": 1},
    ])
    def test_rank_27_tokens_that_share_a_prefix_string(self, masses):
        # "g10" sorts between "g1 g2" and "g2" as a string but is no
        # descendant of "g1": its token key keeps the subtree runs apart
        g = CayleyGraph(27)
        mu = AtomicMeasure.from_masses(masses)
        for c in (1, 2):
            self.assert_agree(g, mu, c)

    @pytest.mark.parametrize("rank", RANKS)
    def test_long_words(self, rank):
        # the heavy atom drags the class-2 mean-set about 50 steps or more along
        # its geodesic, so the descent runs deep
        rng = random.Random(8400 + rank)
        g = CayleyGraph(rank)
        heavy = sample_sphere(rank, 200, rng)
        masses = {heavy: 5}
        for _ in range(3):
            masses.setdefault(sample_sphere(rank, 200, rng), 1)
        mu = AtomicMeasure.from_masses(masses)
        for c in (1, 2):
            self.assert_agree(g, mu, c)
        assert g.distance(g.empty_id, min(mean_set_tree(g, mu, 2).vertices)) >= 40

    @pytest.mark.parametrize(
        "masses",
        [{"1": 1, "a": 1}, {"aA": 1, "e": 1}, {"aA": 1}, {"ab": 1, "abBa": 2}, {"a": 1, "x": 1}],
    )
    def test_refuses_non_canonical_atoms(self, masses):
        # "1" used to be scored as a one-letter word ({e} at weight 1, where
        # the mean-set of e and a is {e, a} at 1/2) and "aA" as a two-letter one
        with pytest.raises(VertexIdError):
            mean_set_tree(CayleyGraph(4), AtomicMeasure.from_masses(masses), 2)


class TestSampleMeanSet:
    def test_constant_sample(self):
        g = path_graph(4)
        res = sample_mean_set(g, {2: 9}, 2)
        assert res.vertices == frozenset([2])

    def test_two_point_line_sample(self):
        res = sample_mean_set(integer_line(), {0: 1, 1: 1}, 2)
        assert res.vertices == frozenset([0, 1])

    def test_definitional_equivalence(self):
        rng = random.Random(71)
        for _ in range(40):
            g = random_connected_graph(rng, 10)
            counts = {v: rng.randint(1, 5) for v in rng.sample(g.vertices(), rng.randint(1, len(g)))}
            assert sample_mean_set(g, counts, 2).vertices == mean_set_exact(g, empirical(counts), 2).vertices


class TestShiftProperty:
    def test_translation_moves_mean_set(self):
        graph = CayleyGraph(2)
        rng = random.Random(515)
        for _ in range(200):
            mu = random_word_measure(rng, 2, max_atoms=5, max_len=5)
            g = word_to_str(random_word(rng, 2, 4), 2)
            base = mean_set_tree(graph, mu, 2)
            moved = mean_set_tree(graph, shift(mu, g, graph), 2)
            expected = frozenset(
                word_id(multiply(parse_word(g, 2), parse_word(v, 2))) for v in base.vertices
            )
            assert moved.vertices == expected
            assert moved.min_weight == base.min_weight


class TestConfigurationConstraints:
    def test_impossible_center_pair(self):
        # the two flank vertices of a length-2 path can never be the whole
        # mean-set: the middle vertex always does at least as well
        g = path_graph(3)
        rng = random.Random(313)
        for _ in range(1000):
            masses = {v: rng.randint(0, 9) for v in g.vertices()}
            if sum(masses.values()) == 0:
                continue
            mu = AtomicMeasure.from_masses({v: m for v, m in masses.items() if m})
            res = mean_set_exact(g, mu, 2)
            assert res.vertices != frozenset([0, 2])

    def test_cut_point_weight_exclusion(self):
        rng = random.Random(99)
        for _ in range(40):
            g = random_cutpoint_graph(rng, 10)
            mu = random_measure(g.vertices(), rng)
            for v0 in g.cut_points():
                comps = g.components_without([v0])
                m0 = weight(g, mu, v0, 2)
                for i in range(len(comps)):
                    for j in range(i + 1, len(comps)):
                        for v1 in comps[i]:
                            for v2 in comps[j]:
                                assert not (
                                    m0 >= weight(g, mu, v1, 2)
                                    and m0 >= weight(g, mu, v2, 2)
                                )

    def test_mean_set_confined_by_cut_point(self):
        rng = random.Random(98)
        for _ in range(40):
            g = random_cutpoint_graph(rng, 10)
            mu = random_measure(g.vertices(), rng)
            res = mean_set_exact(g, mu, 2)
            for v0 in g.cut_points():
                comps = g.components_without([v0])
                touched = [
                    i for i, comp in enumerate(comps) if res.vertices & comp
                ]
                assert len(touched) <= 1


class TestIntegerLine:
    def test_symmetric_two_point(self):
        mu = AtomicMeasure.uniform([0, 1])
        res = line_mean_set(mu, 2)
        assert res.vertices == frozenset([0, 1])
        assert res.min_weight == Fraction(1, 2)
        # the off-support vertex loses clearly
        line = integer_line()
        assert weight(line, mu, -1, 2) == Fraction(5, 2)
        assert classical_mean_gap(mu) == Fraction(1, 2)

    def test_point_mass_gap_zero(self):
        assert classical_mean_gap(AtomicMeasure.point_mass(7)) == 0

    def test_matches_hull_scan_oracle(self):
        rng = random.Random(4848)
        for trial in range(400):
            span = rng.choice([2, 6, 25])
            masses = {rng.randint(-span, span): rng.randint(1, 6) for _ in range(rng.randint(1, 6))}
            if trial % 3 == 0:
                masses = {v: Fraction(m, rng.randint(1, 5)) for v, m in masses.items()}
            mu = AtomicMeasure.from_masses(masses)
            for c in (1, 2):
                res = line_mean_set(mu, c)
                assert (res.vertices, res.min_weight, res.steps) == line_hull_scan(mu, c)
                assert (res.method, res.class_c) == ("line-scan", c)

    def test_class_one_median_interval(self):
        # half the mass at each end: every integer between them is a median
        res = line_mean_set(AtomicMeasure.from_masses({-3: 2, 1: 1, 4: 3}), 1)
        assert res.vertices == frozenset(range(1, 5))
        assert res.min_weight == Fraction(4 * 2 + 3 * 3, 6)

    def test_atoms_far_apart(self):
        # a hull scan would score 10^9 + 1 integers; the solver reads 2 atoms
        far = 10**9
        mu = AtomicMeasure.from_masses({0: 1, far: 1})
        res = line_mean_set(mu, 2)
        assert res.vertices == frozenset([far // 2])
        assert res.min_weight == (far // 2) ** 2
        assert res.steps == far + 1
        assert classical_mean_gap(mu) == 0
        res = line_mean_set(AtomicMeasure.from_masses({0: 1, far: 2}), 1)
        assert (res.vertices, res.min_weight) == (frozenset([far]), Fraction(far, 3))
        odd = AtomicMeasure.from_masses({-far: 1, far + 1: 1})
        assert line_mean_set(odd, 2).vertices == frozenset([0, 1])
        assert classical_mean_gap(odd) == Fraction(1, 2)

    def test_random_measures_contract(self):
        from meansets.randomgen import random_integer_measure

        rng = random.Random(44)
        for _ in range(200):
            mu = random_integer_measure(rng)
            res = line_mean_set(mu, 2)
            assert 1 <= len(res.vertices) <= 2
            assert classical_mean_gap(mu) <= Fraction(1, 2)
            if len(res.vertices) == 2:
                a, b = res.sorted_vertices()
                assert b - a == 1

    def test_agrees_with_tree_solver_on_line(self):
        from meansets.randomgen import random_integer_measure

        rng = random.Random(45)
        line = integer_line()
        for _ in range(50):
            mu = random_integer_measure(rng, span=8)
            assert line_mean_set(mu, 2).vertices == mean_set_tree(line, mu, 2).vertices

    def test_dispatch_matches_tree_solver(self):
        # measure_mean_set sends the line to line_mean_set; the descent on
        # the same graph is the oracle
        rng = random.Random(48)
        line = integer_line()
        for _ in range(150):
            mu = random_integer_measure(rng, span=rng.choice([5, 30, 300]))
            for c in (1, 2):
                res, ref = measure_mean_set(line, mu, c), mean_set_tree(line, mu, c)
                assert (res.vertices, res.min_weight) == (ref.vertices, ref.min_weight)
                assert res.method == "line-scan"

    def test_dispatch_never_walks_the_line(self):
        # the descent keys atom 200000 by its path from the root, one
        # neighbors call per step; the line solver reads only the atoms
        line = integer_line()
        calls = []
        walk = line.neighbors
        line.neighbors = lambda v: calls.append(v) or walk(v)
        mu = AtomicMeasure.from_masses({0: 1, 100: 1, 200000: 1})
        res = measure_mean_set(line, mu, 2)
        assert (res.vertices, res.steps) == (frozenset([66700]), 200001)
        assert calls == []

    @pytest.mark.parametrize("atom", [1.5, "a", (0,)])
    def test_non_integer_atom_raises(self, atom):
        with pytest.raises(VertexIdError):
            measure_mean_set(integer_line(), AtomicMeasure.point_mass(atom), 2)

    def test_abelian_right_translation(self):
        # on the integer line (an abelian group) translating the measure by k
        # translates the mean-set by k; documented counterpart of the left
        # shift property for the grid-like groups
        from meansets.randomgen import random_integer_measure

        rng = random.Random(47)
        for _ in range(50):
            mu = random_integer_measure(rng, span=10)
            k = rng.randint(-8, 8)
            moved = AtomicMeasure({v + k: w for v, w in mu.items()})
            base = line_mean_set(mu, 2)
            translated = line_mean_set(moved, 2)
            assert translated.vertices == frozenset(v + k for v in base.vertices)
            assert translated.min_weight == base.min_weight

    def test_class1_contains_atom_medians(self):
        # exploratory: every atom at which the cumulative mass crosses 1/2
        # minimizes the class-1 weight
        from meansets.randomgen import random_integer_measure

        rng = random.Random(46)
        for _ in range(100):
            mu = random_integer_measure(rng)
            res = line_mean_set(mu, 1)
            acc = Fraction(0)
            for v in mu.support():
                prev = acc
                acc += mu[v]
                if prev <= Fraction(1, 2) <= acc:
                    assert v in res.vertices


class TestGridRemark:
    def test_grid_mean_set_differs_from_coordinate_mean(self):
        # three corner atoms: the coordinatewise mean lands at (1, 1) but the
        # grid mean-set is the corner (0, 0)
        grid = integer_grid()
        mu = AtomicMeasure.uniform([(0, 0), (0, 3), (3, 0)])
        res = mean_set_bounded(grid, mu, 2)
        assert res.vertices == frozenset([(0, 0)])
        coordinate_mean = (1, 1)
        assert weight(grid, mu, coordinate_mean, 2) > res.min_weight


class TestDispatch:
    def test_explicit_goes_exact(self):
        g = path_graph(4)
        res = measure_mean_set(g, AtomicMeasure.uniform([0, 3]), 2)
        assert res.method == "exact"

    def test_implicit_tree_goes_descent(self):
        tree = ImplicitGraph(path_graph(5).neighbors, is_tree=True)
        res = measure_mean_set(tree, AtomicMeasure.uniform([0, 1]), 2)
        assert res.method == "descent"

    def test_integer_line_goes_line_scan(self):
        res = measure_mean_set(integer_line(), AtomicMeasure.uniform([0, 3]), 2)
        assert (res.method, res.vertices, res.steps) == ("line-scan", frozenset([1, 2]), 4)

    def test_implicit_non_tree_goes_bounded(self):
        res = measure_mean_set(integer_grid(), AtomicMeasure.point_mass((0, 0)), 2)
        assert res.method == "bounded"


def bfs_path(n: int, *, is_tree: bool) -> ImplicitGraph:
    """path(n) behind a bare neighbor oracle: no vertex rule and no distance
    oracle, so only its BFS can tell that an id is not a vertex."""
    return ImplicitGraph(lambda v: [u for u in (v - 1, v + 1) if 0 <= u < n], is_tree=is_tree)


# kind -> (graph, a vertex, masses with one atom that is not a vertex, that
# atom, the entry points besides weight and measure_mean_set that take the kind)
NON_VERTEX = {
    "path": (path_graph(3), 0, {0: 1, 99: 1}, 99,
             ("mean_set_exact", "mean_set_tree", "mean_set_bounded")),
    "free-group": (CayleyGraph(2), "e", {"a": 1, "c": 1}, "c",
                   ("mean_set_tree", "mean_set_bounded", "shift")),
    "line": (integer_line(), 0, {0: 1, 0.5: 1}, 0.5,
             ("line_mean_set", "mean_set_tree", "mean_set_bounded")),
    "grid": (integer_grid(), (0, 0), {(0, 0): 1, (0, 0.5): 1}, (0, 0.5), ("mean_set_bounded",)),
    "bfs-tree": (bfs_path(3, is_tree=True), 0, {0: 1, 99: 1}, 99,
                 ("mean_set_tree", "mean_set_bounded")),
    "bfs": (bfs_path(3, is_tree=False), 0, {0: 1, 99: 1}, 99, ("mean_set_bounded",)),
}

ENTRY_POINTS = {
    "weight": lambda g, v, mu: weight(g, mu, v, 2),
    "measure_mean_set": lambda g, v, mu: measure_mean_set(g, mu, 2),
    "mean_set_exact": lambda g, v, mu: mean_set_exact(g, mu, 2),
    "mean_set_tree": lambda g, v, mu: mean_set_tree(g, mu, 2),
    "mean_set_bounded": lambda g, v, mu: mean_set_bounded(g, mu, 2),
    "line_mean_set": lambda g, v, mu: line_mean_set(mu, 2),
    "shift": lambda g, v, mu: shift(mu, "a", g),
}


class TestNonVertexId:
    @pytest.mark.parametrize("kind, entry", [
        (kind, entry)
        for kind, (*_, entries) in NON_VERTEX.items()
        for entry in ("weight", "measure_mean_set", *entries)
    ])
    def test_atom_raises_vertex_id_error(self, kind, entry):
        # one except catches a bad atom on every graph kind: the line's and
        # the grid's distance oracles would compute with any value, so atoms
        # meet their vertex rules first; a bare oracle graph's BFS raises
        # once it ends without reaching the atom, which takes a second atom:
        # a lone atom asks no BFS to leave it, and the oracle cannot tell it
        # from a one-vertex graph
        g, v, masses, bad, _ = NON_VERTEX[kind]
        with pytest.raises(VertexIdError, match=re.escape(repr(bad))):
            ENTRY_POINTS[entry](g, v, AtomicMeasure.from_masses(masses))

    @pytest.mark.parametrize("kind, bad", [
        ("path", 99), ("free-group", "c"), ("line", 0.5), ("grid", [0, 0]),
    ])
    @pytest.mark.parametrize("query", ["distance", "ball"])
    def test_source_raises_vertex_id_error(self, kind, bad, query):
        # a source is checked before it reaches the oracle or is hashed
        g, v, *_ = NON_VERTEX[kind]
        with pytest.raises(VertexIdError, match=re.escape(repr(bad))):
            g.distances(bad)(v) if query == "distance" else g.ball(bad, 1)

    def test_grid_point_mass_on_an_int(self):
        # the grid's oracle would subscript the int
        with pytest.raises(VertexIdError, match="^5 is not a vertex of the integer grid$"):
            mean_set_bounded(integer_grid(), AtomicMeasure.point_mass(5), 2)
