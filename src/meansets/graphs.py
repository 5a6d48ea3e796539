"""Locally finite graphs: explicit adjacency or implicit neighbor oracles.

Vertex ids are opaque hashable values with a total order (ints for explicit
graphs, strings for Cayley graphs, tuples for grids).  Distances are graph
geodesics, and every query goes through one method per graph kind,
`distances(source)`: an explicit graph reads one BFS column over its index
adjacency, an implicit graph asks its exact oracle or grows one BFS by id.
Only an explicit graph can answer for every vertex at once; an implicit
graph raises InfiniteGraphError for such whole-graph queries.  Each query
runs its own search; the graph keeps no state between queries.
"""

from __future__ import annotations

from functools import partial
from itertools import chain
from typing import Callable, Hashable, Iterable

from .errors import GraphFormatError, InfiniteGraphError, VertexIdError

VertexId = Hashable


class Graph:
    """Connected, undirected, locally finite graph.

    Immutable after construction: queries keep nothing on the graph, so one
    instance can be shared by any number of callers.
    """

    is_tree = False

    def neighbors(self, v) -> tuple:
        raise NotImplementedError

    def distances(self, source):
        """The function v -> d(source, v), through which every distance query goes."""
        raise NotImplementedError

    def _require_vertex(self, v) -> None:
        """Raise VertexIdError if v is not a vertex: the graph kind's vertex
        rule, against which queries check their sources and solvers their
        atoms.  A bare oracle graph has no rule and accepts every id; its
        BFS raises only when it ends without reaching an id asked for, so a
        lone id passes: the oracle cannot tell it from a one-vertex graph.
        Membership, like connectivity, is the caller's contract there."""

    def distance(self, u, v) -> int:
        """Geodesic distance between u and v."""
        return self.distances(u)(v)


class ExplicitGraph(Graph):
    """Finite graph given by its full adjacency.

    The graph is held as one index adjacency: `_vertices` lists the ids in
    sorted order, `_index` maps an id to its position there, and `_nbrs[i]`
    is the sorted list of the neighbours' positions of the vertex at
    position i.  Every query (distances, balls, the exact scan,
    connectivity, cut-points, component splits) runs on these lists through
    one BFS kernel, `_column`, and never calls `neighbors`, which maps
    positions back to ids for callers that walk the graph by id.

    The constructor checks each edge as it adds it, in input order, and
    names the first self-loop or parallel edge (they never change
    distances); then it requires connectivity.
    """

    def __init__(self, edges: Iterable[tuple]):
        pairs = list(edges)
        if not pairs:
            raise GraphFormatError("graph has no edges and no vertices")
        ids = sorted(set(chain.from_iterable(pairs)))
        index = dict(zip(ids, range(len(ids))))
        nbrs: list[list[int]] = [[] for _ in ids]
        seen = set()
        for u, v in pairs:
            i = index[u]
            j = index[v]
            if i == j:
                raise GraphFormatError(f"self-loop at {u!r}")
            key = (i, j) if i < j else (j, i)
            if key in seen:
                raise GraphFormatError(f"parallel edge {u!r} {v!r}")
            seen.add(key)
            nbrs[i].append(j)
            nbrs[j].append(i)
        for ns in nbrs:
            ns.sort()
        self._vertices = tuple(ids)
        self._index = index
        self._nbrs = nbrs
        self._n_edges = len(pairs)
        if -1 in self._column(0):
            raise GraphFormatError("graph is not connected")

    def _column(self, i: int, banned=()) -> list[int]:
        """Distances from the vertex at position i to every vertex, in vertex
        order, -1 where it cannot reach: one BFS over `_nbrs` that never
        enters a position in `banned` (which reads -1 too)."""
        nbrs = self._nbrs
        dist = [-1] * len(nbrs)
        for b in banned:
            dist[b] = 0
        dist[i] = 0
        queue = [i]
        for v in queue:
            d = dist[v] + 1
            for u in nbrs[v]:
                if dist[u] < 0:
                    dist[u] = d
                    queue.append(u)
        for b in banned:
            dist[b] = -1
        return dist

    def neighbors(self, v) -> tuple:
        ids = self._vertices
        return tuple([ids[j] for j in self._nbrs[self._index[v]]])

    def _require_vertex(self, v) -> None:
        if v not in self._index:
            raise VertexIdError(f"{v!r} is not a vertex")

    def distances(self, source):
        """v -> d(source, v), read from one `_column`; VertexIdError
        for a source or a v that is not a vertex.  The column covers the
        whole graph, so a lone `distance(u, v)` costs a full BFS with no
        early stop: callers asking many distances share one `distances`."""
        self._require_vertex(source)
        return _Column(zip(self._vertices, self._column(self._index[source]))).__getitem__

    def ball(self, v, r: int) -> set:
        """All vertices at distance <= r from v."""
        if r < 0:
            raise ValueError("radius must be nonnegative")
        self._require_vertex(v)
        return {u for u, d in zip(self._vertices, self._column(self._index[v])) if d <= r}

    def vertices(self) -> tuple:
        return self._vertices

    def edges(self) -> list[tuple]:
        ids = self._vertices
        return [(u, ids[j]) for i, u in enumerate(ids) for j in self._nbrs[i] if i < j]

    def __len__(self) -> int:
        return len(self._vertices)

    @property
    def is_tree(self) -> bool:
        return self._n_edges == len(self._vertices) - 1

    def is_cut_point(self, v) -> bool:
        """True iff deleting v disconnects the graph."""
        return len(self.components_without([v])) > 1

    def components_without(self, cut: Iterable) -> list[set]:
        """Connected components of the graph with `cut` deleted, sorted by min vertex."""
        index = self._index
        banned = {index[v] for v in cut if v in index}
        ids = self._vertices
        todo = [i for i in range(len(ids)) if i not in banned]
        comps = []
        while todo:  # each component starts at its least vertex
            col = self._column(todo[0], banned)
            comps.append({ids[i] for i in todo if col[i] >= 0})
            todo = [i for i in todo if col[i] < 0]
        return comps

    def cut_points(self) -> list:
        return [v for v in self._vertices if self.is_cut_point(v)]


class _Column(dict):
    """Distances from one source by vertex id; a non-vertex has none."""

    def __missing__(self, v):
        raise VertexIdError(f"{v!r} is not a vertex")


class ImplicitGraph(Graph):
    """Infinite (or just unenumerated) graph given by a neighbor oracle.

    Connectivity and symmetric adjacency are a construction contract, not a
    checked property: they are not decidable from the oracle.  An exact
    `distance_fn` may be supplied to bypass BFS; else `distances` walks
    `neighbors` by id in `_layers`, the BFS that also serves `ball`.
    """

    def __init__(
        self,
        neighbor_fn: Callable,
        distance_fn: Callable | None = None,
        is_tree: bool = False,
    ):
        self._neighbor_fn = neighbor_fn
        self._distance_fn = distance_fn
        self.is_tree = is_tree

    def neighbors(self, v) -> tuple:
        return tuple(self._neighbor_fn(v))

    def _layers(self, source):
        """Breadth-first search from `source`, yielding (depth, dist) after
        each completed layer: dist maps every vertex within `depth` of the
        source to its distance.  The first yield is (0, {source: 0}); the
        search ends when a layer adds no vertex."""
        neighbors = self.neighbors
        dist = {source: 0}
        frontier = [source]
        depth = 0
        while frontier:
            yield depth, dist
            depth += 1
            nxt = []
            for v in frontier:
                for u in neighbors(v):
                    if u not in dist:
                        dist[u] = depth
                        nxt.append(u)
            frontier = nxt

    def distances(self, source):
        """v -> d(source, v): the exact oracle if the graph has one, else
        one BFS column grown only as far as the vertices asked for, and
        VertexIdError once the search ends without reaching v."""
        self._require_vertex(source)
        if self._distance_fn is not None:
            return partial(self._distance_fn, source)
        layers = self._layers(source)
        column = next(layers)[1]

        def dist(v):
            while v not in column:
                if next(layers, None) is None:
                    raise VertexIdError(f"no path from {source!r} to {v!r}")
            return column[v]

        return dist

    def ball(self, v, r: int) -> set:
        """All vertices at distance <= r from v."""
        if r < 0:
            raise ValueError("radius must be nonnegative")
        self._require_vertex(v)
        for depth, dist in self._layers(v):
            if depth == r:
                break
        return set(dist)

    def vertices(self):
        raise InfiniteGraphError("vertex scan needs a finite explicit graph")

    def is_cut_point(self, v):
        raise InfiniteGraphError("cut-point test needs a finite explicit graph")

    def components_without(self, cut):
        raise InfiniteGraphError("component split needs a finite explicit graph")


class IntegerLine(ImplicitGraph):
    """The line's own type, which `measure_mean_set` sends to `line_mean_set`.
    Its vertices are the ints, bools included."""

    def _require_vertex(self, v) -> None:
        if not isinstance(v, int):
            raise VertexIdError(f"{v!r} is not a vertex of the integer line")


class IntegerGrid(ImplicitGraph):
    """The grid's own type: its vertices are the pairs of ints."""

    def _require_vertex(self, v) -> None:
        if not (isinstance(v, tuple) and len(v) == 2 and all(isinstance(x, int) for x in v)):
            raise VertexIdError(f"{v!r} is not a vertex of the integer grid")


def integer_line() -> IntegerLine:
    """The graph on all integers with edges n -- n+1."""
    return IntegerLine(
        lambda n: (n - 1, n + 1),
        distance_fn=lambda a, b: abs(a - b),
        is_tree=True,
    )


def integer_grid() -> IntegerGrid:
    """The planar grid on integer pairs with unit steps (L1 geodesics)."""
    return IntegerGrid(
        lambda p: ((p[0] - 1, p[1]), (p[0] + 1, p[1]), (p[0], p[1] - 1), (p[0], p[1] + 1)),
        distance_fn=lambda a, b: abs(a[0] - b[0]) + abs(a[1] - b[1]),
    )


def parse_graph(text: str) -> ExplicitGraph:
    """Parse the edge-list format: one `u v` pair of nonnegative integer ids
    per line, `#` comments and blank lines ignored."""
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: ids must be integers, got {raw!r}") from None
        if u < 0 or v < 0:
            raise GraphFormatError(f"line {lineno}: ids must be nonnegative")
        edges.append((u, v))
    return ExplicitGraph(edges)


def read_text(path, error) -> str:
    """The text of the UTF-8 file at path; raises error, an exception class,
    naming the path and the first bad byte if the file is not UTF-8."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def load_graph(path) -> ExplicitGraph:
    return parse_graph(read_text(path, GraphFormatError))


def path_graph(n: int) -> ExplicitGraph:
    """Path 0 -- 1 -- ... -- n-1."""
    return ExplicitGraph((i, i + 1) for i in range(n - 1))


def cycle_graph(n: int) -> ExplicitGraph:
    return ExplicitGraph([(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> ExplicitGraph:
    return ExplicitGraph((i, j) for i in range(n) for j in range(i + 1, n))


def star_graph(n_leaves: int) -> ExplicitGraph:
    """Center 0 joined to leaves 1..n_leaves."""
    return ExplicitGraph((0, i) for i in range(1, n_leaves + 1))
