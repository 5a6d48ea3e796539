"""Exception types shared across the package."""


class MeansetsError(Exception):
    """Base class for all errors raised by this package."""


class InfiniteGraphError(MeansetsError):
    """An operation that needs the full vertex set was called on an implicit graph."""


class VertexIdError(MeansetsError):
    """A vertex id, or a measure's atom, is not a vertex of the graph (on a
    free-group Cayley graph, a string that word_to_str does not produce)."""


class NotATreeError(MeansetsError):
    """The tree solver was asked to solve on a graph that is not a tree
    (explicit with cycles, or implicit and not declared a tree), where a
    local minimum of the weight need not be a global one."""


class NotMeanSetError(MeansetsError):
    """The vertex list handed to the random-walk apparatus is not the mean-set
    of the supplied measure."""


class MeasureFormatError(MeansetsError):
    """A measure file or literal could not be parsed into an exact measure."""


class GraphFormatError(MeansetsError):
    """A graph file violates the edge-list format or its structural contract."""
