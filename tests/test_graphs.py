import random

import pytest

from meansets.errors import GraphFormatError, InfiniteGraphError, VertexIdError
from meansets.freegroup import CayleyGraph
from meansets.graphs import (
    ExplicitGraph,
    ImplicitGraph,
    complete_graph,
    cycle_graph,
    integer_grid,
    integer_line,
    parse_graph,
    path_graph,
    star_graph,
)
from meansets.randomgen import random_connected_graph, random_cutpoint_graph


def floyd_warshall(g: ExplicitGraph) -> dict:
    """Independent all-pairs oracle."""
    vs = g.vertices()
    inf = float("inf")
    d = {(u, v): 0 if u == v else inf for u in vs for v in vs}
    for u, v in g.edges():
        d[u, v] = d[v, u] = 1
    for k in vs:
        for i in vs:
            dik = d[i, k]
            if dik == inf:
                continue
            for j in vs:
                if dik + d[k, j] < d[i, j]:
                    d[i, j] = dik + d[k, j]
    return d


def column(g: ExplicitGraph, s) -> dict:
    """The distance from s to every vertex, read through `distances(s)`."""
    d = g.distances(s)
    return {v: d(v) for v in g.vertices()}


def components_oracle(g: ExplicitGraph, removed: set) -> list[set]:
    """Union-find over the surviving edges."""
    parent = {v: v for v in g.vertices() if v not in removed}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.edges():
        if u not in removed and v not in removed:
            parent[find(u)] = find(v)
    comps: dict = {}
    for v in parent:
        comps.setdefault(find(v), set()).add(v)
    return sorted(comps.values(), key=lambda c: min(c))


class TestDistance:
    def test_path_endpoints(self):
        g = path_graph(3)
        assert g.distance(0, 2) == 2

    def test_self_distance_zero(self):
        g = cycle_graph(5)
        for v in g.vertices():
            assert g.distance(v, v) == 0

    def test_matches_floyd_warshall_on_random_graphs(self):
        rng = random.Random(2024)
        for _ in range(40):
            g = random_connected_graph(rng, 10)
            oracle = floyd_warshall(g)
            for u in g.vertices():
                for v in g.vertices():
                    assert g.distance(u, v) == oracle[u, v]

    def test_metric_axioms(self):
        rng = random.Random(7)
        for _ in range(20):
            g = random_connected_graph(rng, 9)
            vs = g.vertices()
            for u in vs:
                for v in vs:
                    assert g.distance(u, v) == g.distance(v, u)
                    assert (g.distance(u, v) == 0) == (u == v)
            for _ in range(30):
                u, v, w = (rng.choice(vs) for _ in range(3))
                assert g.distance(u, w) <= g.distance(u, v) + g.distance(v, w)

    def test_unreachable_raises(self):
        # an oracle violating the connectivity contract: isolated vertices
        g = ImplicitGraph(lambda v: ())
        with pytest.raises(VertexIdError):
            g.distance(0, 5)


def never_called(v):
    raise AssertionError(f"neighbors of {v!r} asked for")


class TestDistancesFrom:
    def test_matches_floyd_warshall(self):
        rng = random.Random(808)
        for _ in range(25):
            g = random_connected_graph(rng, 12)
            oracle = floyd_warshall(g)
            for s in g.vertices():
                assert column(g, s) == {v: oracle[s, v] for v in g.vertices()}

    def test_completes_a_partial_scan(self):
        g = path_graph(6)
        assert g.distance(2, 3) == 1
        assert column(g, 2) == {0: 2, 1: 1, 2: 0, 3: 1, 4: 2, 5: 3}

    def test_non_vertex_source_raises(self):
        g = path_graph(3)
        with pytest.raises(VertexIdError):
            g.distances(7)
        # ball reads the BFS column by position, so it checks its centre
        # first: the bare position lookup would raise KeyError
        with pytest.raises(VertexIdError):
            g.ball(7, 1)
        with pytest.raises(VertexIdError):
            g.distance(7, 0)
        with pytest.raises(VertexIdError):
            g.distance(0, 7)

    def test_non_vertex_to_itself_raises(self):
        # u == v used to answer 0 before the vertex check
        with pytest.raises(VertexIdError):
            path_graph(3).distance(7, 7)

    @pytest.mark.parametrize(
        "graph",
        [integer_line, integer_grid, lambda: CayleyGraph(2), lambda: ImplicitGraph(never_called)],
        ids=["line", "grid", "cayley-2", "no-search"],
    )
    def test_implicit_graph_raises(self, graph):
        # a scan of every vertex of an infinite graph never ends, so the
        # whole-graph query raises before it asks for any neighbour
        with pytest.raises(InfiniteGraphError):
            graph().vertices()


class TestBall:
    def test_path_ball(self):
        g = path_graph(4)
        assert g.ball(1, 1) == {0, 1, 2}

    def test_radius_zero(self):
        g = cycle_graph(6)
        assert g.ball(3, 0) == {3}

    def test_free_group_ball_size(self):
        # reduced words of length <= 2 over two generators: 1 + 4 + 4*3
        g = CayleyGraph(2)
        assert len(g.ball("e", 2)) == 17

    def test_nesting(self):
        rng = random.Random(11)
        for _ in range(10):
            g = random_connected_graph(rng, 10)
            v = rng.choice(g.vertices())
            for r in range(3):
                assert g.ball(v, r) <= g.ball(v, r + 1)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            path_graph(3).ball(0, -1)


class TestCutPoints:
    def test_path_interior(self):
        g = path_graph(3)
        assert g.is_cut_point(1)
        assert not g.is_cut_point(0)

    def test_triangle_has_none(self):
        g = complete_graph(3)
        assert not any(g.is_cut_point(v) for v in g.vertices())

    def test_matches_component_count_oracle(self):
        rng = random.Random(5)
        for _ in range(40):
            g = random_connected_graph(rng, 12)
            for v in g.vertices():
                expected = len(components_oracle(g, {v})) > 1
                assert g.is_cut_point(v) == expected

    def test_implicit_raises(self):
        with pytest.raises(InfiniteGraphError):
            integer_line().is_cut_point(0)
        with pytest.raises(InfiniteGraphError):
            integer_line().components_without([0])


class TestComponentsWithout:
    def test_path_cut(self):
        g = path_graph(3)
        assert g.components_without({1}) == [{0}, {2}]

    def test_star_center(self):
        g = star_graph(4)
        assert g.components_without({0}) == [{1}, {2}, {3}, {4}]

    def test_matches_union_find(self):
        rng = random.Random(17)
        for _ in range(30):
            g = random_connected_graph(rng, 11)
            vs = g.vertices()
            cut = set(rng.sample(vs, rng.randint(0, min(3, len(vs) - 1))))
            assert g.components_without(cut) == components_oracle(g, cut)


class TestCutPointInequality:
    def test_exhaustive_on_small_graphs(self):
        rng = random.Random(23)
        for _ in range(25):
            g = random_cutpoint_graph(rng, 8)
            for v0 in g.cut_points():
                comps = g.components_without([v0])
                for i in range(len(comps)):
                    for j in range(i + 1, len(comps)):
                        for v1 in comps[i]:
                            for v2 in comps[j]:
                                d1, d2 = g.distance(v0, v1), g.distance(v0, v2)
                                floor = d2 * d1 * (d1 + d2)
                                assert floor > 0
                                for s in g.vertices():
                                    lhs = d2 * (
                                        g.distance(v1, s) ** 2 - g.distance(v0, s) ** 2
                                    ) + d1 * (
                                        g.distance(v2, s) ** 2 - g.distance(v0, s) ** 2
                                    )
                                    assert lhs >= floor


class TestFileFormat:
    def test_parse_with_comments(self):
        g = parse_graph("# a path\n0 1\n\n1 2  # tail\n \t \r\n2\t3\r\n\t3 4 \n")
        assert g.vertices() == (0, 1, 2, 3, 4)
        assert g.distance(0, 4) == 4

    def test_rejects_self_loop(self):
        with pytest.raises(GraphFormatError):
            parse_graph("0 0")

    def test_rejects_parallel_edge(self):
        with pytest.raises(GraphFormatError):
            parse_graph("0 1\n1 0")

    def test_rejects_disconnected(self):
        with pytest.raises(GraphFormatError):
            parse_graph("0 1\n2 3")

    def test_rejects_bad_line(self):
        with pytest.raises(GraphFormatError):
            parse_graph("0 1 2")
        with pytest.raises(GraphFormatError):
            parse_graph("a b")
        with pytest.raises(GraphFormatError):
            parse_graph("-1 0")
        # the message quotes the line as read, comment and whitespace kept
        with pytest.raises(GraphFormatError) as exc:
            parse_graph("0 1\n\t1 2 3 # tail \n")
        assert str(exc.value) == "line 2: expected 'u v', got '\\t1 2 3 # tail '"

    def test_first_bad_line_after_good_lines(self):
        cases = {
            "0 1\n1 2\n2 3 4\n3 4\n": "line 3: expected 'u v', got '2 3 4'",
            "0 1\n# c\n1 x\n-2 3\n": "line 3: ids must be integers, got '1 x'",
            "0 1\r\n1 2\r\n2 -3\r\n4\r\n": "line 3: ids must be nonnegative",
        }
        for text, message in cases.items():
            with pytest.raises(GraphFormatError) as exc:
                parse_graph(text)
            assert str(exc.value) == message


class TestImplicitGraphs:
    def test_integer_line(self):
        line = integer_line()
        assert line.distance(-3, 4) == 7
        assert set(line.neighbors(0)) == {-1, 1}
        assert line.is_tree

    def test_integer_grid(self):
        grid = integer_grid()
        assert grid.distance((0, 0), (3, -2)) == 5
        assert len(grid.neighbors((1, 1))) == 4

    def test_bfs_distance_agrees_with_oracle(self):
        # drop the closed-form metric and make BFS do the work
        plain = ImplicitGraph(lambda n: (n - 1, n + 1))
        assert plain.distance(0, 9) == 9
        assert plain.ball(0, 3) == {-3, -2, -1, 0, 1, 2, 3}


def sparse_relabel(rng: random.Random, g: ExplicitGraph) -> list[tuple]:
    """g's edges on sparse ids that do not start at 0, shuffled, each edge
    in a random orientation."""
    ids = rng.sample(range(3, 10**7), len(g))
    label = dict(zip(g.vertices(), ids))
    edges = [(label[u], label[v]) if rng.random() < 0.5 else (label[v], label[u])
             for u, v in g.edges()]
    rng.shuffle(edges)
    return edges


def edge_list_distances(edges) -> dict:
    """Floyd-Warshall straight from an edge list, without the graph class."""
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
    return d


SPARSE_EDGES = [(999, 3), (10**6, 17), (17, 3), (10**6, 999), (3, 10**6)]


class TestIndexLayer:
    """The id <-> position mapping of ExplicitGraph's index adjacency."""

    def test_sparse_ids(self):
        g = ExplicitGraph(SPARSE_EDGES)
        assert g.vertices() == (3, 17, 999, 10**6)
        assert g.edges() == [(3, 17), (3, 999), (3, 10**6), (17, 10**6), (999, 10**6)]
        assert g.neighbors(3) == (17, 999, 10**6)
        assert g.neighbors(17) == (3, 10**6)
        assert column(g, 17) == {3: 1, 17: 0, 999: 2, 10**6: 1}
        assert not g.is_tree
        with pytest.raises(KeyError):
            g.neighbors(0)  # position 0 holds the id 3, not the id 0

    def test_distances_from_matches_floyd_warshall_on_sparse_ids(self):
        rng = random.Random(1919)
        for _ in range(40):
            edges = sparse_relabel(rng, random_connected_graph(rng, 12))
            g = ExplicitGraph(edges)
            oracle = edge_list_distances(edges)
            assert g.vertices() == tuple(sorted({x for e in edges for x in e}))
            # the lazy BFS by id behind an opaque oracle answers the same
            by_id = ImplicitGraph(g.neighbors)
            for s in g.vertices():
                assert column(g, s) == {v: oracle[s, v] for v in g.vertices()}
                assert set(g.neighbors(s)) == {v for v in g.vertices() if oracle[s, v] == 1}
                for h in (g, by_id):
                    assert [h.distance(s, v) for v in g.vertices()] == [
                        oracle[s, v] for v in g.vertices()]
                    for r in range(4):
                        assert h.ball(s, r) == {v for v in g.vertices() if oracle[s, v] <= r}

    def test_column_reads_minus_one_where_banned_or_cut_off(self):
        g = path_graph(5)
        assert g._column(0) == [0, 1, 2, 3, 4]
        assert g._column(0, {2}) == [0, 1, -1, -1, -1]
        assert g._column(3, {2}) == [-1, -1, -1, 0, 1]

    @pytest.mark.parametrize("edges, message", [
        ([(3, 17), (17, 999), (999, 999), (17, 3)], "self-loop at 999"),
        ([(3, 17), (17, 999), (999, 17), (5, 5)], "parallel edge 999 17"),
        ([(10**6, 3), (3, 17), (3, 10**6)], "parallel edge 3 1000000"),
        ([(3, 17), (17, 999), (17, 3), (999, 17)], "parallel edge 17 3"),
        ([(3, 17), (17, 17), (17, 17)], "self-loop at 17"),
    ], ids=["self-loop-first", "parallel-first", "parallel-reversed", "two-parallel",
            "repeated-self-loop"])
    def test_first_bad_edge_in_input_order(self, edges, message):
        # the duplicate check is made in bulk; the error names the first
        # offending edge of the input, with the message the per-edge check gave
        with pytest.raises(GraphFormatError) as exc:
            ExplicitGraph(edges)
        assert str(exc.value) == message

    def test_disconnected_sparse_ids(self):
        with pytest.raises(GraphFormatError, match="not connected"):
            ExplicitGraph([(3, 17), (999, 10**6)])

    def test_cut_points_and_components_match_oracle_on_sparse_ids(self):
        rng = random.Random(2020)
        for _ in range(40):
            g = ExplicitGraph(sparse_relabel(rng, random_connected_graph(
                rng, 12, min_vertices=3, extra_edge_prob=0.1)))
            vs = g.vertices()
            for v in vs:
                assert g.components_without([v]) == components_oracle(g, {v})
                assert g.is_cut_point(v) == (len(components_oracle(g, {v})) > 1)
            cut = set(rng.sample(vs, rng.randint(0, min(3, len(vs) - 1))))
            assert g.components_without(cut) == components_oracle(g, cut)
            # ids that are not vertices are ignored, as before
            assert g.components_without(cut | {-5}) == components_oracle(g, cut)
