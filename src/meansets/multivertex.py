"""Random-walk apparatus for multi-vertex mean-sets.

For a mean-set {v_1, ..., v_k} with base v_1, each atom s of the measure
contributes the integer increment vector

    ( d^2(v_2, s) - d^2(v_1, s), ..., d^2(v_k, s) - d^2(v_1, s) )

with probability mu(s).  The walk driven by these increments tracks the
scaled weight differences n * (M_n(v_i+1) - M_n(v_1)) of the sample weight
function, so its visits to the nonnegative orthant decide how often the base
vertex appears in the sample mean-set.  This module computes the increment
distribution, its exact moments, the rank of the lattice the increments
generate ("genuine dimension"), positivity conditions sufficient for
orthant recurrence, and a descriptive simulation of the walk.  The rank and
the exact decision whether the lattice holds a strictly positive vector
share one fraction-free integer pivot routine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from math import gcd
from operator import and_, itemgetter, lshift

from .errors import NotMeanSetError
from .graphs import Graph
from .measures import AtomicMeasure, _atom_sampler
from .meanset import measure_mean_set

_BLOCK = 1024  # walk steps per block of simulate_walk


@dataclass(frozen=True)
class WalkResult:
    orthant_visits: int
    last_visit: int | None
    final_position: tuple


@dataclass(frozen=True)
class PositivityReport:
    """Sufficient-condition check for orthant recurrence of the walk.

    has_positive_vector is the exact answer of has_positive_lattice_vector.
    """

    has_positive_vector: bool
    mu_base_positive: bool


def increments(
    g: Graph,
    mu: AtomicMeasure,
    base,
    others,
    validate: bool = True,
) -> AtomicMeasure:
    """Increment law of the walk associated with the base vertex: a measure
    on coordinate tuples, whose support is sorted by coordinates.

    base plus others must be exactly the mean-set of mu, each vertex once;
    atoms with equal increments add their masses.
    """
    others = list(others)
    if validate:
        claimed = [base, *others]
        solved = measure_mean_set(g, mu, 2).vertices
        if len(claimed) != len(solved) or frozenset(claimed) != solved:
            raise NotMeanSetError(
                f"claimed mean-set {sorted(claimed)!r} but solver found {sorted(solved)!r}"
            )
    _, nums = mu.numerators()
    grouped: dict[tuple, int] = {}
    for s, m in nums.items():
        dist = g.distances(s)
        d_base = dist(base) ** 2
        coords = tuple(dist(v) ** 2 - d_base for v in others)
        grouped[coords] = grouped.get(coords, 0) + m
    return AtomicMeasure.from_masses(grouped)


def _dimension(vectors) -> int:
    """The length every vector shares, 0 for no vectors."""
    dims = set(map(len, vectors))
    if len(dims) > 1:
        raise ValueError("increment vectors must all have the same length")
    return dims.pop() if dims else 0


def first_moment(incs: AtomicMeasure) -> tuple:
    """Exact mean increment; the zero vector for any genuine mean-set walk."""
    dim = _dimension(incs.support())
    denom, nums = incs.numerators()
    return tuple(
        Fraction(sum(m * coords[i] for coords, m in nums.items()), denom)
        for i in range(dim)
    )


def second_moment(incs: AtomicMeasure) -> Fraction:
    """Exact expected squared euclidean step length; finite by construction."""
    denom, nums = incs.numerators()
    return Fraction(sum(m * sum(x * x for x in coords) for coords, m in nums.items()), denom)


def genuine_dimension(incs: AtomicMeasure) -> int:
    """Rank of the integer lattice generated by the increment vectors: the
    rational rank of the vectors, the number of pivots of Gauss-Jordan
    elimination."""
    return len(_independent_rows(list(incs.support())))


def _pivot(rows: list[list[int]], r: int, c: int) -> None:
    """Clear column c from every row but rows[r], in place and without
    fractions: a row with an entry there becomes row * p - row[c] * rows[r]
    for the pivot p = rows[r][c], divided by the gcd of its entries.  Rows
    stay int, and a positive p keeps the sign of every row."""
    head = rows[r]
    p = head[c]
    for i, row in enumerate(rows):
        f = row[c]
        if f and i != r:
            row = [a * p - f * b for a, b in zip(row, head)]
            g = gcd(*row)
            rows[i] = [x // g for x in row] if g > 1 else row


def _independent_rows(vectors) -> list[list[int]]:
    """Gauss-Jordan elimination by _pivot: one row per pivot, spanning the
    same rational space as the vectors."""
    rows = [list(v) for v in vectors if any(v)]
    rank = 0
    for c in range(_dimension(vectors)):
        r = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if r is not None:
            rows[rank], rows[r] = rows[r], rows[rank]
            _pivot(rows, rank, c)
            rank += 1
    return rows[:rank]


def dimension_invariance_check(g: Graph, mu: AtomicMeasure, meanset) -> bool:
    """True iff every choice of base vertex yields the same genuine dimension."""
    vertices = sorted(meanset)
    if len(vertices) < 2:
        raise ValueError("need a mean-set with at least two vertices")
    dims = set()
    for base in vertices:
        others = [v for v in vertices if v != base]
        dims.add(genuine_dimension(increments(g, mu, base, others, validate=False)))
    return len(dims) == 1


def has_positive_lattice_vector(vectors: list[tuple]) -> bool:
    """Whether the lattice the vectors generate holds a strictly positive
    vector, decided exactly.

    A rational vector scaled by a common denominator stays in the lattice,
    so the answer is whether the vectors' rational span meets the open
    orthant: yes in dimension 0, for a strictly positive vector and for a
    span of full rank.  Otherwise, by Gordan's alternative, yes iff no
    y >= 0 with sum(y) = 1 is orthogonal to the span.  Phase 1 of the
    simplex method decides that: one artificial variable per row of the
    system, _pivot steps, and Bland's rule, so it terminates; the answer is
    yes iff the artificial variables cannot all reach 0.
    """
    if not vectors:
        raise ValueError("need at least one increment vector")
    dim = _dimension(vectors)
    if dim == 0 or any(all(x > 0 for x in vec) for vec in vectors):
        return True
    basis = _independent_rows(vectors)
    if len(basis) == dim:
        return True
    rows = [*basis, [1] * dim]
    m = len(rows)
    # row 0 gives w, the artificial variables' sum, as rhs - row . z up to a
    # positive factor: a positive entry is a variable whose rise lowers w
    tableau = [[*map(sum, zip(*rows)), *[0] * m, 1]]
    tableau += [[*row, *(int(i == k) for k in range(m)), int(i == m - 1)]
                for i, row in enumerate(rows)]
    basic = [None, *range(dim, dim + m)]  # the basic variable of each row
    while True:
        objective = tableau[0]
        c = next((j for j in range(dim + m) if objective[j] > 0), None)
        if c is None:
            return objective[-1] != 0
        r = min(
            (i for i in range(1, m + 1) if tableau[i][c] > 0),
            key=lambda i: (Fraction(tableau[i][-1], tableau[i][c]), basic[i]),
        )
        _pivot(tableau, r, c)
        basic[r] = c


def positivity_hypotheses(incs: AtomicMeasure, mu: AtomicMeasure, base) -> PositivityReport:
    """Check the sufficient conditions for orthant recurrence of the walk
    whose increment law `increments` gave as incs for this base.

    When mu(base) > 0 the increment of the base atom itself is a strictly
    positive vector (all squared distances to the other mean-set vertices),
    so the lattice decision is immediate.
    """
    return PositivityReport(
        has_positive_vector=has_positive_lattice_vector(list(incs.support())),
        mu_base_positive=mu[base] > 0,
    )


def simulate_walk(
    incs: AtomicMeasure,
    steps: int,
    rng: random.Random,
) -> WalkResult:
    """Simulate the walk whose steps incs gives (an increment law as
    `increments` returns it) and report nonnegative-orthant visit statistics:
    the visit count, the last-visit step and the final position, exact over
    all steps.  Recurrence is an asymptotic property, so the result is
    descriptive only.

    A position is one int: coordinates 0..dim-2 sit in width-bit fields
    biased by 2**(width-1), the last coordinate unbiased on top, and width
    exceeds the bit length of steps * max|coord|, so no field ever carries
    into the next and the sign of the int is the sign of the last
    coordinate.  A step visits the orthant iff the int is nonnegative and
    every field's top bit is set: one `&` with a mask of those bits plus a
    bit above the top field, which only a negative int has.  Steps run in
    blocks of _BLOCK: a block draws its increments in bulk as
    measures.draw does, gathers their packed ints in one itemgetter call
    (led by the never-drawn index 0, whose packed int is 0, so the call
    returns a tuple even for one step), adds them up in one running sum
    and unpacks a position only at the end.  A block whose positions are
    all negative ints is not tested: each has a negative last coordinate,
    so none is in the orthant, in every dimension.  The result, and the
    state rng is left in, equal those of one randrange call per step, in
    O(_BLOCK) memory.
    """
    if steps < 1:
        raise ValueError("need steps >= 1")
    support = incs.support()
    dim = _dimension(support)
    draw = _atom_sampler(incs, rng)
    reach = steps * max((abs(x) for coords in support for x in coords), default=0)
    width = reach.bit_length() + 1
    shifts = range(0, width * dim, width)
    bias = 1 << width - 1
    field = (1 << width) - 1
    low, top = shifts[:-1], shifts[-1:]  # both empty in dimension 0
    high = sum(bias << s for s in low)  # the origin: every field at its bias
    mask = high | 1 << width * dim  # q & mask == high iff no coordinate is negative
    packed = [0, *(sum(map(lshift, coords, shifts)) for coords in support)]

    q = high
    visits = 0
    last_visit = None
    for start in range(0, steps, _BLOCK):
        size = min(_BLOCK, steps - start)
        qs = list(accumulate(itemgetter(0, *draw(size))(packed), initial=q))
        del qs[:2]  # q itself, then q + 0
        if max(qs) >= 0:
            flags = list(map(and_, qs, repeat(mask)))
            hits = flags.count(high)
            if hits:
                visits += hits
                last_visit = start + size - flags[::-1].index(high)
        q = qs[-1]
    return WalkResult(
        orthant_visits=visits,
        last_visit=last_visit,
        final_position=tuple([(q >> s & field) - bias for s in low] + [q >> s for s in top]),
    )
