import random
from bisect import bisect_right
from collections import defaultdict
from fractions import Fraction
from itertools import accumulate, product
from math import comb, lcm, sqrt

import pytest

from meansets.errors import NotMeanSetError, VertexIdError
from meansets.experiments import derive_seed
from meansets.graphs import integer_line, path_graph, star_graph
from meansets.measures import AtomicMeasure, _increment_sampler
from meansets.meanset import mean_set_exact, weight
from meansets.multivertex import (
    _BLOCK,
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
from meansets.randomgen import (
    random_connected_graph,
    random_measure,
    random_multivertex_instance,
)

from test_meanset import CountingPath


def rational_rank(rows: list[list[int]]) -> int:
    """Independent oracle: Gaussian elimination over Fraction."""
    rows = [[Fraction(x) for x in r] for r in rows if any(r)]
    if not rows:
        return 0
    cols = len(rows[0])
    rank = 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        head = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col] / head[col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], head)]
        rank += 1
    return rank


def lattice_basis(rows: list[list[int]]) -> list[list[int]]:
    """Basis of the lattice generated by the rows, via unimodular row ops
    (Euclidean reduction column by column, so the lattice is preserved)."""
    work = [r[:] for r in rows if any(r)]
    basis = []
    for col in range(len(work[0]) if work else 0):
        live = [r for r in work if r[col]]
        rest = [r for r in work if not r[col]]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            head = live[0]
            reduced = [head]
            for r in live[1:]:
                q = r[col] // head[col]
                newr = [a - q * b for a, b in zip(r, head)]
                (reduced if newr[col] else rest).append(newr)
            live = reduced
        if live:
            basis.append(live[0])
        work = rest
    return basis


def bounded_lattice_search(vectors):
    """Reference: a search for a strictly positive vector over integer
    combinations of a lattice basis with coefficients in [-5, 5], at most
    300,000 of them.  True on a witness; False when the lattice is trivial
    or some coordinate vanishes on all of it; None when the search is
    inconclusive."""
    dim = len(vectors[0])
    if dim == 0 or any(all(x > 0 for x in vec) for vec in vectors):
        return True
    basis = lattice_basis([list(v) for v in vectors])
    if not basis or any(all(row[j] == 0 for row in basis) for j in range(dim)):
        return False
    coeffs = product(range(-5, 6), repeat=len(basis))
    for _, ks in zip(range(300_000), coeffs):
        if all(sum(k * row[j] for k, row in zip(ks, basis)) > 0 for j in range(dim)):
            return True
    return None


def reference_walk(law, steps, rng, positions=None):
    """Independent oracle: the walk one randrange call per step; positions,
    when given, is a list that gets the position after every step."""
    atoms = law.items()
    dim = len(atoms[0][0])
    denom = lcm(*(p.denominator for _, p in atoms))
    cum = list(accumulate(int(p * denom) for _, p in atoms))
    position = [0] * dim
    visits = 0
    last_visit = None
    for n in range(1, steps + 1):
        step_vec = atoms[bisect_right(cum, rng.randrange(denom))][0]
        for i in range(dim):
            position[i] += step_vec[i]
        if all(x >= 0 for x in position):
            visits += 1
            last_visit = n
        if positions is not None:
            positions.append(tuple(position))
    return WalkResult(
        orthant_visits=visits,
        last_visit=last_visit,
        final_position=tuple(position),
    )


def orthant_visit_law(incs, steps):
    """Exact law {visits: probability} of the number of orthant visits in
    the first `steps` steps of a one-dimensional walk: a DP over (position,
    visits) in integer counts over denom**steps."""
    denom, nums = incs.numerators()
    counts = {(0, 0): 1}
    for _ in range(steps):
        stepped = defaultdict(int)
        for (x, v), c in counts.items():
            for (dx,), m in nums.items():
                stepped[x + dx, v + (x + dx >= 0)] += c * m
        counts = stepped
    law = defaultdict(int)
    for (_, v), c in counts.items():
        law[v] += c
    return {v: Fraction(c, denom**steps) for v, c in law.items()}


def reference_increments(g, mu, base, others):
    """Independent oracle: each atom's coordinates from graph distances,
    mapped to the sum of its atoms' Fraction weights, sorted by coordinates."""
    law = defaultdict(Fraction)
    for s, w in mu.items():
        d_base = g.distance(base, s) ** 2
        law[tuple(g.distance(v, s) ** 2 - d_base for v in others)] += w
    return sorted(law.items())


def random_increments(rng, dim, max_weight):
    """Seeded increment law; weights up to max_weight set the denominator."""
    weights = [rng.randint(1, max_weight) for _ in range(rng.randint(1, 6))]
    total = sum(weights)
    return iv(*[([rng.randint(-4, 4) for _ in range(dim)], w, total) for w in weights])


def iv(*steps):
    """The increment law of the steps (coords, p) and (coords, p, q): coords
    with probability p (or p/q), the probabilities of equal coords added."""
    probs = defaultdict(Fraction)
    for coords, *p in steps:
        probs[tuple(coords)] += Fraction(*p)
    return AtomicMeasure(probs)


TWO_POINT_LINE = (integer_line(), AtomicMeasure.uniform([0, 1]), 0, [1])


def two_point_line_increments():
    """The walk of the two-point line on path(2): steps -1 and +1 w.p. 1/2."""
    incs = increments(path_graph(2), AtomicMeasure.uniform([0, 1]), 0, [1])
    assert incs.items() == [((-1,), Fraction(1, 2)), ((1,), Fraction(1, 2))]
    return incs


class TestIncrements:
    def test_two_point_line(self):
        g, mu, base, others = TWO_POINT_LINE
        incs = increments(g, mu, base, others)
        assert incs.items() == [((-1,), Fraction(1, 2)), ((1,), Fraction(1, 2))]

    def test_probabilities_sum_to_one_and_aggregate(self):
        # two atoms contributing the same vector must merge
        g = path_graph(4)
        mu = AtomicMeasure.from_masses({0: 1, 1: 1, 2: 1, 3: 1})
        res = mean_set_exact(g, mu, 2)
        vs = sorted(res.vertices)
        incs = increments(g, mu, vs[0], vs[1:])
        assert sum((p for _, p in incs.items()), Fraction(0)) == 1

    def test_degenerate_single_vertex_mean_set(self):
        g = star_graph(4)
        mu = AtomicMeasure.uniform([1, 2, 3, 4])
        assert mean_set_exact(g, mu, 2).vertices == frozenset([0])
        incs = increments(g, mu, 0, [])
        assert incs.items() == [((), 1)]

    def test_validation_rejects_non_mean_set(self):
        g, mu, *_ = TWO_POINT_LINE
        with pytest.raises(NotMeanSetError):
            increments(g, mu, 0, [2])
        # {1, 2} is the mean-set, but a repeated vertex, or the base among
        # the others, would build a walk of the wrong dimension
        g, mu = path_graph(4), AtomicMeasure.uniform([0, 3])
        assert mean_set_exact(g, mu, 2).vertices == frozenset([1, 2])
        for others in ([2, 2], [1, 2]):
            with pytest.raises(NotMeanSetError):
                increments(g, mu, 1, others)

    def test_unvalidated_non_vertex_raises(self):
        # distances are lookups into per-atom BFS columns: a vertex that no
        # column reaches must raise the graph's error, not a KeyError
        with pytest.raises(VertexIdError):
            increments(path_graph(3), AtomicMeasure.uniform([0, 2]), 1, [9], validate=False)

    def test_explicit_graph_never_walked_by_id(self):
        # each atom's distances are one column on the index lists
        rng = random.Random(1002)
        for _ in range(30):
            g, mu, meanset = random_multivertex_instance(rng)
            counting = CountingPath(g.edges())
            base, *others = sorted(meanset)
            incs = increments(counting, mu, base, others)
            assert counting.calls == 0
            assert incs.items() == reference_increments(g, mu, base, others)

    def test_first_moment_zero_on_random_instances(self):
        rng = random.Random(1001)
        for _ in range(60):
            g, mu, meanset = random_multivertex_instance(rng)
            base = min(meanset)
            others = [v for v in sorted(meanset) if v != base]
            incs = increments(g, mu, base, others, validate=False)
            assert all(x == 0 for x in first_moment(incs))


class TestIncrementsDifferential:
    def test_matches_reference_aggregation(self):
        # any base and others on random small graphs, mean-set or not; on
        # graphs this small, atoms often share an increment, and the count
        # of such laws keeps the aggregation exercised
        rng = random.Random(2024)
        merged = 0
        for _ in range(300):
            g = random_connected_graph(rng, 9)
            mu = random_measure(g.vertices(), rng, max_mass=6)
            chosen = rng.sample(g.vertices(), rng.randint(1, min(4, len(g))))
            base, others = chosen[0], chosen[1:]
            incs = increments(g, mu, base, others, validate=False)
            expected = reference_increments(g, mu, base, others)
            assert incs.items() == expected
            merged += len(expected) < len(mu)
            dim = len(others)
            assert first_moment(incs) == tuple(
                sum((p * coords[i] for coords, p in expected), Fraction(0)) for i in range(dim)
            )
            assert second_moment(incs) == sum(
                (p * sum(x * x for x in coords) for coords, p in expected), Fraction(0)
            )
        assert merged > 50

    def test_matches_reference_on_mean_sets(self):
        rng = random.Random(2025)
        for _ in range(60):
            g, mu, meanset = random_multivertex_instance(rng)
            base, *others = sorted(meanset)
            incs = increments(g, mu, base, others)
            assert incs.items() == reference_increments(g, mu, base, others)
            assert all(x == 0 for x in first_moment(incs))


class TestGenuineDimension:
    def test_two_point_line_is_one(self):
        g, mu, base, others = TWO_POINT_LINE
        assert genuine_dimension(increments(g, mu, base, others)) == 1

    def test_zero_vectors(self):
        assert genuine_dimension(iv(((0, 0), 1))) == 0
        # a walk with no increments cannot be built
        with pytest.raises(ValueError, match="nonempty support"):
            AtomicMeasure({})

    def test_matches_rational_elimination_oracle(self):
        rng = random.Random(321)
        for _ in range(300):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            mat = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
            total = Fraction(1, len(mat))
            incs = iv(*[(r, total) for r in mat])
            assert genuine_dimension(incs) == rational_rank(mat)

    def test_rank_deficient_matches_rational_oracle(self):
        # rows drawn as integer combinations of fewer generators, so the
        # rank is often below min(rows, cols)
        rng = random.Random(654)
        for _ in range(300):
            cols = rng.randint(1, 6)
            gens = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rng.randint(1, 3))]
            mat = [
                [sum(rng.randint(-3, 3) * g[j] for g in gens) for j in range(cols)]
                for _ in range(rng.randint(1, 6))
            ]
            incs = iv(*[(r, 1, len(mat)) for r in mat])
            assert genuine_dimension(incs) == rational_rank(mat)

    def test_base_invariance_on_random_instances(self):
        rng = random.Random(77)
        for _ in range(60):
            g, mu, meanset = random_multivertex_instance(rng)
            assert dimension_invariance_check(g, mu, meanset)

    def test_base_invariance_two_point(self):
        g, mu, *_ = TWO_POINT_LINE
        assert dimension_invariance_check(g, mu, frozenset([0, 1]))


class TestPositivity:
    def test_two_point_line_both_flags(self):
        g, mu, base, others = TWO_POINT_LINE
        report = positivity_hypotheses(increments(g, mu, base, others), mu, base)
        assert report.mu_base_positive is True
        assert report.has_positive_vector is True

    def test_base_outside_support(self):
        # mass on the path ends only; the centers carry no mass themselves
        g = path_graph(4)
        mu = AtomicMeasure.uniform([0, 3])
        assert mean_set_exact(g, mu, 2).vertices == frozenset([1, 2])
        report = positivity_hypotheses(increments(g, mu, 1, [2]), mu, 1)
        assert report.mu_base_positive is False
        # the increment of atom 0 is d(2,0)^2 - d(1,0)^2 = 3 > 0, a witness
        assert report.has_positive_vector is True

    def test_witness_when_base_in_support(self):
        rng = random.Random(3333)
        for _ in range(40):
            g, mu, meanset = random_multivertex_instance(rng)
            base = min(meanset)
            if mu[base] > 0:
                others = [v for v in sorted(meanset) if v != base]
                report = positivity_hypotheses(increments(g, mu, base, others), mu, base)
                assert report.has_positive_vector is True

    def test_hyperplane_lattice_is_definitively_negative(self):
        assert has_positive_lattice_vector([(1, 0), (-1, 0)]) is False

    def test_trivial_lattice_is_definitively_negative(self):
        assert has_positive_lattice_vector([(0, 0)]) is False

    def test_line_missing_the_orthant_is_negative(self):
        # the lattice Z*(2,-1) never has an all-positive vector; a bounded
        # search over combinations could not prove that
        assert has_positive_lattice_vector([(2, -1), (-2, 1)]) is False

    def test_full_rank_is_positive_beyond_small_coefficients(self):
        # (1, -100) + 101 * (0, 1) = (1, 1); coefficients in [-5, 5] miss it
        assert has_positive_lattice_vector([(1, -100), (0, 1)]) is True
        assert bounded_lattice_search([(1, -100), (0, 1)]) is None

    @pytest.mark.parametrize("dim", range(2, 8))
    def test_sum_zero_hyperplane_is_negative(self, dim):
        # e_i - e_(i+1) span the vectors whose coordinates sum to 0, and
        # no such vector is strictly positive
        vectors = [tuple(int(j == i) - int(j == i + 1) for j in range(dim)) for i in range(dim - 1)]
        assert has_positive_lattice_vector(vectors) is False

    def test_dimension_zero_is_vacuous(self):
        assert has_positive_lattice_vector([()]) is True

    def test_no_vectors_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            has_positive_lattice_vector([])

    def test_planted_orthogonal_vector_is_negative(self):
        # every generator is orthogonal to some y >= 0, y != 0, so every
        # lattice vector v has v . y = 0 and none is strictly positive
        rng = random.Random(2101)
        for _ in range(300):
            dim = rng.randint(1, 7)
            y = [rng.choice([0, 0, 1, 2, 3]) for _ in range(dim)]
            y[rng.randrange(dim)] = rng.randint(1, 3)
            yy = sum(a * a for a in y)
            vectors = []
            for _ in range(rng.randint(1, 7)):
                v = [rng.randint(-6, 6) for _ in range(dim)]
                vy = sum(a * b for a, b in zip(v, y))
                vectors.append(tuple(yy * a - vy * b for a, b in zip(v, y)))
            assert has_positive_lattice_vector(vectors) is False

    def test_planted_positive_combination_is_positive(self):
        # the last generator is chosen so that an integer combination of
        # all of them is a strictly positive target
        rng = random.Random(2102)
        for _ in range(300):
            dim = rng.randint(1, 7)
            gens = [[rng.randint(-6, 6) for _ in range(dim)] for _ in range(rng.randint(0, 6))]
            ks = [rng.randint(-4, 4) for _ in gens]
            target = [rng.randint(1, 5) for _ in range(dim)]
            last = [t - sum(k * g[j] for k, g in zip(ks, gens)) for j, t in enumerate(target)]
            vectors = [tuple(v) for v in gens + [last]]
            rng.shuffle(vectors)
            assert has_positive_lattice_vector(vectors) is True

    def test_matches_bounded_search_where_it_is_conclusive(self):
        rng = random.Random(2103)
        conclusive = 0
        for _ in range(400):
            dim = rng.randint(1, 5)
            vectors = [tuple(rng.randint(-4, 4) for _ in range(dim)) for _ in range(rng.randint(1, 4))]
            expected = bounded_lattice_search(vectors)
            got = has_positive_lattice_vector(vectors)
            assert type(got) is bool
            if expected is not None:
                assert got is expected
                conclusive += 1
        assert conclusive > 250


class TestMoments:
    def test_two_point_second_moment(self):
        g, mu, base, others = TWO_POINT_LINE
        assert second_moment(increments(g, mu, base, others)) == 1

    def test_zero_increments(self):
        assert second_moment(iv(((0, 0), 1))) == 0

    def test_distance_scaled_weight_bound(self):
        rng = random.Random(555)
        for _ in range(60):
            g, mu, meanset = random_multivertex_instance(rng)
            base = min(meanset)
            others = [v for v in sorted(meanset) if v != base]
            incs = increments(g, mu, base, others, validate=False)
            m2 = second_moment(incs)
            bound = sum(
                (
                    Fraction(g.distance(base, v)) ** 2
                    * (4 * weight(g, mu, base, 2) + 4 * weight(g, mu, v, 2))
                    for v in others
                ),
                Fraction(0),
            )
            assert m2 <= bound


class TestSimulateWalk:
    def test_zero_increment_walk_always_visits(self):
        incs = iv(((0, 0), 1))
        res = simulate_walk(incs, 500, random.Random(1))
        assert res.orthant_visits == 500
        assert res.last_visit == 500
        assert res.final_position == (0, 0)

    def test_negative_drift_walk_stops_visiting(self):
        incs = iv(((-1,), 3, 4), ((1,), 1, 4))
        res = simulate_walk(incs, 20_000, random.Random(7))
        assert res.orthant_visits < 1000
        assert res.last_visit is None or res.last_visit < 2000

    def test_symmetric_walk_recurrence(self):
        # empirical recurrence of the fair +-1 walk: the nonnegative side is
        # revisited late in the run for most seeds (measured rate ~0.90 for
        # the window (10^4, 10^5]; the arcsine law gives 0.898)
        g, mu, base, others = TWO_POINT_LINE
        incs = increments(g, mu, base, others)
        late = 0
        seeds = 100
        for seed in range(seeds):
            res = simulate_walk(incs, 100_000, random.Random(seed))
            if res.last_visit is not None and res.last_visit > 10_000:
                late += 1
        assert late >= 80

    def test_dimension_zero_visits_every_step(self):
        # path(3) with uniform masses has the singleton mean-set {1}
        g = path_graph(3)
        mu = AtomicMeasure.uniform([0, 1, 2])
        incs = increments(g, mu, 1, [])
        res = simulate_walk(incs, 2500, random.Random(2))
        assert res.orthant_visits == 2500
        assert res.last_visit == 2500
        assert res.final_position == ()

    def test_exact_visit_law_mean_is_a_binomial_tail_sum(self):
        # E[V_K] = sum_{k=1..K} P(S_k >= 0), and S_k >= 0 iff at least
        # ceil(k/2) of the k steps are +1
        incs = two_point_line_increments()
        K = 32
        law = orthant_visit_law(incs, K)
        assert sum(law.values()) == 1
        tails = (sum(comb(k, j) for j in range((k + 1) // 2, k + 1)) for k in range(1, K + 1))
        assert sum(v * p for v, p in law.items()) == sum(
            Fraction(t, 2**k) for k, t in enumerate(tails, 1)
        )

    def test_visit_count_matches_exact_law(self):
        # the sample mean of V_32 over 5,000 seeded walks against its exact
        # mean and variance; the bound |z| <= 4 was fixed in advance, not
        # fitted to these seeds
        incs = two_point_line_increments()
        K = 32
        law = orthant_visit_law(incs, K)
        mean = sum(v * p for v, p in law.items())
        var = sum(v * v * p for v, p in law.items()) - mean**2
        seeds = 5000
        total = sum(
            simulate_walk(incs, K, random.Random(derive_seed(42, "orthant-law", i))).orthant_visits
            for i in range(seeds)
        )
        z = (Fraction(total, seeds) - mean) / sqrt(var / seeds)
        assert abs(z) <= 4

    def test_deterministic(self):
        incs = iv(((1,), 1, 2), ((-1,), 1, 2))
        a = simulate_walk(incs, 5000, random.Random(11))
        b = simulate_walk(incs, 5000, random.Random(11))
        assert a == b

    def test_both_vertices_recur_in_sample_mean_set(self):
        # over one long run the sample mean-set of the two-point measure
        # takes each of the values {0}, {1}, {0, 1} beyond step 1000:
        # the walk statistic count0 - count1 is positive, negative and zero
        g, mu, base, others = TWO_POINT_LINE
        incs = increments(g, mu, base, others)
        rng = random.Random(4)
        denom = 2
        position = 0
        seen_pos = seen_neg = seen_zero = False
        coords = {0: 1, 1: -1}
        for n in range(1, 100_001):
            position += coords[rng.randrange(denom)]
            if n > 1000:
                seen_pos |= position > 0
                seen_neg |= position < 0
                seen_zero |= position == 0
        assert seen_pos and seen_neg and seen_zero


def assert_matches_reference(incs, steps, seed, positions=None):
    ref_rng, rng_under_test = random.Random(seed), random.Random(seed)
    expected = reference_walk(incs, steps, ref_rng, positions)
    assert simulate_walk(incs, steps, rng_under_test) == expected
    assert rng_under_test.getstate() == ref_rng.getstate()
    return expected


@pytest.mark.parametrize("steps", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
@pytest.mark.parametrize("dim", range(7))
def test_walk_matches_per_step_reference(dim, steps):
    # small weights give denominators of at most 8 bits (the byte draw),
    # large ones the bisection path; the generator must end in the same state
    rng = random.Random(1000 * dim + steps)
    for max_weight in (9, 10**6):
        for _ in range(4):
            incs = random_increments(rng, dim, max_weight)
            assert_matches_reference(incs, steps, rng.randrange(2**32))


@pytest.mark.parametrize("magnitude", [1, 7, 10**6])
@pytest.mark.parametrize("dim", range(1, 7))
def test_walk_reaches_field_width_bound(dim, magnitude):
    # one increment drawn every step: each coordinate ends at exactly
    # +-steps * max|coord|, the extreme the packed fields are sized for
    steps = 2 * _BLOCK + 1
    for signs in ([1] * dim, [-1] * dim, [(-1) ** i for i in range(dim)]):
        coords = [x * magnitude for x in signs]
        expected = assert_matches_reference(iv((coords, 1)), steps, dim)
        assert expected.final_position == tuple(steps * x for x in coords)
        # a second, shorter increment keeps the drift one-sided
        incs = iv((coords, 1, 2), ([x // 2 for x in coords], 1, 2))
        assert_matches_reference(incs, steps, dim + 1)


@pytest.mark.parametrize("dim", [1, 2, 5])
def test_walk_negative_drift_skips_blocks(dim):
    # the last coordinate steps +1 w.p. 2/5 and -1 w.p. 3/5 while the others
    # drift up: early blocks visit the orthant and are tested, later blocks
    # lie wholly below it (every packed position negative) and are skipped;
    # one seed draws the same steps in every dimension, and its walk
    # returns to the orthant a few times before it drifts away
    steps = 20 * _BLOCK
    incs = iv(([1] * (dim - 1) + [1], 2, 5), ([2] * (dim - 1) + [-1], 3, 5))
    positions = []
    expected = assert_matches_reference(incs, steps, 8, positions)
    lasts = [position[-1] for position in positions]
    tops = [max(lasts[i:i + _BLOCK]) for i in range(0, steps, _BLOCK)]
    assert expected.orthant_visits > 0
    assert tops[0] >= 0 and tops[-1] < 0


@pytest.mark.parametrize("denom", [1, 2, 255, 256, 257, 2**32 + 15, 2**64 + 13])
@pytest.mark.parametrize("dim", [1, 2, 5])
def test_walk_denominators(dim, denom):
    # denominators of at most 8 bits take the byte draw, 256 and up bisect,
    # and past 2**32 every draw is a multi-word getrandbits call; weight 0
    # (denominators 1 and 2) gives an increment that is never drawn
    rng = random.Random(denom + dim)
    weights = [1, denom // 2, denom - 1 - denom // 2]
    incs = iv(*[([rng.randint(-4, 4) for _ in range(dim)], w, denom) for w in weights])
    assert_matches_reference(incs, 2 * _BLOCK + 1, denom)


def test_walk_ignores_zero_probability_increments():
    # more increments than a byte can index, all but two never drawn: the
    # law drops them, so the byte draw still serves the other two
    incs = iv(*[((x, -x), 0) for x in range(300)], ((1, 2), 1, 3), ((-2, -1), 2, 3))
    assert incs.support() == ((-2, -1), (1, 2))
    assert_matches_reference(incs, 3000, 5)


def test_walk_rejects_negative_probability():
    with pytest.raises(ValueError, match="negative weight"):
        iv(((1,), 3, 2), ((-1,), -1, 2))


@pytest.mark.parametrize("coords", [[(1,), (-1, 5)], [(1, 2), (-1,)], [(), (1,)]])
def test_walk_rejects_vectors_of_different_lengths(coords):
    # a longer vector lost its extra coordinates, a shorter one read as
    # padded with zeros
    incs = iv(*[(c, 1, 2) for c in coords])
    with pytest.raises(ValueError, match="same length"):
        simulate_walk(incs, 10, random.Random(0))


# the law's support is sorted, so the longer vector comes first in one
# case and the shorter in the other
@pytest.mark.parametrize("coords", [[(1,), (-1, 5)], [(-1,), (1, 5)]])
@pytest.mark.parametrize(
    "statistic",
    [
        first_moment,
        genuine_dimension,
        lambda incs: has_positive_lattice_vector(list(incs.support())),
    ],
    ids=["first_moment", "genuine_dimension", "has_positive_lattice_vector"],
)
def test_statistics_reject_vectors_of_different_lengths(statistic, coords):
    # a dimension read off one vector would drop the 5 or index past the
    # shorter vector
    incs = iv(*[(c, 1, 2) for c in coords])
    with pytest.raises(ValueError, match="same length"):
        statistic(incs)


@pytest.mark.parametrize("n", [1, 2, 6, 8, 1000, 255, 256, 2**40 + 1])
def test_block_draw_reproduces_randrange(n):
    # with one increment per value, increment r + 1 is drawn by randrange value r;
    # draws split over calls of several sizes continue one stream
    cum = range(n + 1)
    for seed in range(5):
        ref = random.Random(seed)
        expected = [ref.randrange(n) + 1 for _ in range(3000)]
        rng = random.Random(seed)
        draw = _increment_sampler(rng.getrandbits, cum)
        got = [*draw(1), *draw(1023), *draw(1976)]
        assert got == expected
        assert rng.getstate() == ref.getstate()
