"""Mean-sets of probability measures on graphs and finitely generated free groups.

The mean-set of a measure mu on a connected locally finite graph is the set
of vertices minimizing the expected squared distance to a mu-distributed
vertex.  This package computes such sets exactly (rational arithmetic
throughout), provides the free group of any finite rank as an implicit
Cayley graph, and ships Monte-Carlo experiment runners that track how fast
sample mean-sets converge to the true one.
"""

from .errors import (
    GraphFormatError,
    InfiniteGraphError,
    MeansetsError,
    MeasureFormatError,
    NotATreeError,
    NotMeanSetError,
    VertexIdError,
)
from .freegroup import (
    CayleyGraph,
    sample_sphere,
    word_to_str,
)
from .graphs import (
    ExplicitGraph,
    Graph,
    ImplicitGraph,
    integer_grid,
    integer_line,
    load_graph,
    parse_graph,
)
from .measures import AtomicMeasure, draw, empirical, load_measure, parse_measure, shift
from .meanset import (
    MeanSetResult,
    classical_mean_gap,
    line_mean_set,
    mean_set_bounded,
    mean_set_exact,
    mean_set_tree,
    measure_mean_set,
    sample_mean_set,
    weight,
)
from .multivertex import (
    PositivityReport,
    WalkResult,
    dimension_invariance_check,
    first_moment,
    genuine_dimension,
    has_positive_lattice_vector,
    increments,
    positivity_hypotheses,
    second_moment,
    simulate_walk,
)

__version__ = "0.1.0"
