import random
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from math import lcm

import pytest

from meansets.errors import MeasureFormatError, VertexIdError
from meansets.freegroup import CayleyGraph, word_to_str
from meansets.measures import (
    _CHUNK,
    AtomicMeasure,
    draw,
    empirical,
    parse_measure,
    shift,
)


class TestAtomicMeasure:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            AtomicMeasure({0: Fraction(1, 2)})

    def test_from_masses_normalizes(self):
        mu = AtomicMeasure.from_masses({0: 1, 1: 2, 2: 3})
        assert mu[0] == Fraction(1, 6)
        assert mu[1] == Fraction(2, 6)
        assert mu[2] == Fraction(3, 6)

    def test_zero_mass_atoms_dropped(self):
        mu = AtomicMeasure({0: Fraction(1), 1: Fraction(0)})
        assert mu.support() == (0,)

    def test_numerators_exact(self):
        mu = AtomicMeasure.from_masses({0: 1, 1: 2})
        denom, nums = mu.numerators()
        assert denom == 3 and nums == {0: 1, 1: 2}
        assert sum(nums.values()) == denom

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            AtomicMeasure({})

    def test_integer_masses_match_the_fraction_path(self):
        # same denominator (draw calls randrange on it) and numerators, so
        # draw streams do not depend on how the masses were given
        rng = random.Random(606)
        for _ in range(300):
            masses = {v: rng.randint(0, 40) * rng.choice((1, 2, 6, 35))
                      for v in range(rng.randint(1, 7))}
            total = sum(masses.values())
            if total == 0:
                continue
            by_int = AtomicMeasure.from_masses(masses)
            by_fraction = AtomicMeasure.from_masses({v: Fraction(m) for v, m in masses.items()})
            denom = lcm(*(Fraction(m, total).denominator for m in masses.values() if m))
            expected = {v: m * denom // total for v, m in masses.items() if m}
            assert by_int.numerators() == by_fraction.numerators() == (denom, expected)
            assert by_int == by_fraction
            assert by_int.items() == by_fraction.items()
            seed = rng.randrange(2**32)
            assert draw(by_int, 40, random.Random(seed)) == draw(by_fraction, 40, random.Random(seed))

    def test_integer_masses_validated(self):
        with pytest.raises(ValueError):
            AtomicMeasure.from_masses({0: 0, 1: 0})
        with pytest.raises(ValueError):
            AtomicMeasure.from_masses({0: 3, 1: -1})
        assert AtomicMeasure.from_masses({0: 0, 1: 4}) == AtomicMeasure.point_mass(1)


# (masses, expected (D, numerators) or ValueError message); messages and the
# order of the checks are part of the contract: from_masses({0: -1, 1: 1})
# fails on its total before it looks at the negative mass and names the
# scaled weight, while the constructor checks negatives first and names the
# weight as given
INIT_TABLE = [
    ({}, "measure must have nonempty support"),
    ({0: 0}, "measure must have nonempty support"),
    ({0: -1, 1: 2}, "negative weight -1 at 0"),
    ({0: Fraction(1, 3)}, "weights sum to 1/3, not 1"),
    ({0: "1/2", 1: 0.5}, (2, {0: 1, 1: 1})),
    ({0: Fraction(1, 2), 1: 0, 2: Fraction(1, 2)}, (2, {0: 1, 2: 1})),
    ({0: -1, 1: 1}, "negative weight -1 at 0"),
    ({0: -1, 1: 3}, "negative weight -1 at 0"),
]
FROM_MASSES_TABLE = [
    ({}, "total mass must be positive"),
    ({0: 0}, "total mass must be positive"),
    ({0: -1, 1: 3}, "negative weight -1/2 at 0"),
    ({0: Fraction(-1, 2), 1: 1}, "negative weight -1 at 0"),
    ({0: 0.5, 1: 1}, (3, {0: 1, 1: 2})),
    ({0: "1/2", 1: 1}, (3, {0: 1, 1: 2})),
    ({0: Fraction(1, 2), 1: Fraction(1, 3)}, (5, {0: 3, 1: 2})),
    ({0: -1, 1: 1}, "total mass must be positive"),
]


@pytest.mark.parametrize(
    "build, atoms, expected",
    [(AtomicMeasure, *case) for case in INIT_TABLE]
    + [(AtomicMeasure.from_masses, *case) for case in FROM_MASSES_TABLE],
    ids=[f"init-{i}" for i in range(len(INIT_TABLE))]
    + [f"from_masses-{i}" for i in range(len(FROM_MASSES_TABLE))],
)
def test_constructor_behaviour_table(build, atoms, expected):
    if isinstance(expected, str):
        with pytest.raises(ValueError) as exc:
            build(atoms)
        assert str(exc.value) == expected
    else:
        assert build(atoms).numerators() == expected


def lowest_terms_oracle(masses):
    """Independent oracle: weights m / total in Fraction arithmetic, over the
    lcm of their reduced denominators."""
    total = sum((Fraction(m) for m in masses.values()), Fraction(0))
    weights = {v: Fraction(m) / total for v, m in sorted(masses.items()) if m}
    denom = lcm(*(w.denominator for w in weights.values()))
    return denom, {v: w.numerator * (denom // w.denominator) for v, w in weights.items()}


def test_normaliser_matches_fraction_oracle():
    rng = random.Random(1717)
    kinds = {
        "int": lambda: rng.randint(0, 30) * rng.choice((1, 6, 35)),
        "fraction": lambda: Fraction(rng.randint(0, 30), rng.randint(1, 12)),
    }
    kinds["mixed"] = lambda: rng.choice((kinds["int"], kinds["fraction"]))()
    for kind, mass in kinds.items():
        for _ in range(200):
            masses = {v: mass() for v in rng.sample(range(-20, 20), rng.randint(1, 7))}
            if not any(masses.values()):
                continue
            expected = lowest_terms_oracle(masses)
            assert AtomicMeasure.from_masses(masses).numerators() == expected, kind
            denom, nums = expected
            weights = {v: Fraction(m, denom) for v, m in nums.items()}
            assert AtomicMeasure(weights).numerators() == expected, kind


class TestDraw:
    def test_point_mass(self):
        mu = AtomicMeasure.point_mass("v")
        assert draw(mu, 5, random.Random(1)) == {"v": 5}

    def test_determinism(self):
        mu = AtomicMeasure.from_masses({0: 1, 1: 2, 2: 3})
        a = draw(mu, 1000, random.Random(31))
        b = draw(mu, 1000, random.Random(31))
        assert a == b

    def test_two_atom_concentration(self):
        # binomial(10^4, 1/2): |count - 5000| <= 150 is a 3-sigma event
        mu = AtomicMeasure.uniform([0, 1])
        inside = 0
        runs = 100
        for seed in range(runs):
            counts = draw(mu, 10_000, random.Random(seed))
            if abs(counts.get(0, 0) - 5000) <= 150:
                inside += 1
        assert inside >= 99

    def test_law_of_large_numbers_deviation(self):
        mu = AtomicMeasure.from_masses({0: 1, 1: 2, 2: 3})
        emp = empirical(draw(mu, 100_000, random.Random(7)))
        dev = max(abs(emp[v] - mu[v]) for v in mu.support())
        assert dev < Fraction(1, 100)

    def test_needs_positive_n(self):
        with pytest.raises(ValueError):
            draw(AtomicMeasure.point_mass(0), 0, random.Random(0))

    @pytest.mark.parametrize("n", [1, 2, 257, 1000, _CHUNK + 1])
    @pytest.mark.parametrize(
        "masses",
        [
            {0: 4, 1: 1, 2: 3, 3: 1, 4: 3},
            {"a": Fraction(1, 3), "b": Fraction(1, 5), "c": Fraction(7, 15)},
            {0: 1, 1: 254},
            {0: 1, 1: 255},
            {0: 2, 1: 7, 2: 291},
            {"x": Fraction(1, 7), "y": Fraction(2, 11), "z": Fraction(3, 13)},
            {0: 1, 1: 2**33},
            {0: Fraction(1, 2**32 + 15), 1: Fraction(5, 3)},
        ],
        ids=["int-12", "fraction-15", "int-255", "int-256", "int-300", "fraction-1001",
             "int-past-2**32", "fraction-past-2**32"],
    )
    def test_matches_one_randrange_per_draw(self, masses, n):
        # draw makes its draws in bulk; the counts and the state rng is left
        # in must be those of one randrange(denominator) call per draw
        mu = AtomicMeasure.from_masses(masses)
        denom, nums = mu.numerators()
        atoms, cum = list(nums), list(accumulate(nums.values()))
        for seed in range(3):
            ref = random.Random(seed)
            counts: dict = {}
            for _ in range(n):
                v = atoms[bisect_right(cum, ref.randrange(denom))]
                counts[v] = counts.get(v, 0) + 1
            rng = random.Random(seed)
            got = draw(mu, n, rng)
            assert got == counts
            assert list(got) == [v for v in atoms if v in counts]  # vertex order
            assert rng.getstate() == ref.getstate()


class TestEmpirical:
    def test_two_singletons(self):
        mu = empirical({"a": 1, "b": 1})
        assert mu["a"] == mu["b"] == Fraction(1, 2)

    def test_single_atom(self):
        assert empirical({"v": 7}) == AtomicMeasure.point_mass("v")

    def test_zero_counts_dropped(self):
        assert empirical({"a": 0, "b": 3, "c": 0}) == AtomicMeasure.point_mass("b")

    @pytest.mark.parametrize(
        "counts", [{}, {"a": 0}, {"a": 2, "b": -1}, {"a": -1, "b": 1}],
        ids=["empty", "all-zero", "negative", "negative-sum-zero"],
    )
    def test_bad_counts_rejected(self, counts):
        with pytest.raises(ValueError):
            empirical(counts)

    def test_sums_to_one(self):
        rng = random.Random(5)
        for _ in range(20):
            counts = {i: rng.randint(1, 9) for i in range(rng.randint(1, 6))}
            mu = empirical(counts)
            assert sum(mu[v] for v in mu.support()) == 1
            n = sum(counts.values())
            assert mu == AtomicMeasure({v: Fraction(c, n) for v, c in counts.items()})


class TestConvergence:
    def test_total_variation_decreases_in_median(self):
        mu = AtomicMeasure.from_masses({0: 1, 1: 2, 2: 3})
        medians = []
        for n in (100, 1000, 10_000):
            tvs = sorted(
                empirical(draw(mu, n, random.Random(1000 + seed))).total_variation(mu)
                for seed in range(50)
            )
            medians.append((tvs[24] + tvs[25]) / 2)
        assert medians[0] > medians[1] > medians[2]


class TestShift:
    F2 = CayleyGraph(2)

    def test_identity_shift(self):
        mu = AtomicMeasure.from_masses({"a": 1, "bA": 2})
        assert shift(mu, "e", self.F2) == mu

    def test_point_mass_moves(self):
        mu = AtomicMeasure.point_mass("e")
        assert shift(mu, "ab", self.F2) == AtomicMeasure.point_mass("ab")

    def test_weight_multiset_preserved(self):
        rng = random.Random(17)
        from meansets.randomgen import random_word, random_word_measure

        for _ in range(50):
            mu = random_word_measure(rng, 2, max_atoms=5, max_len=4)
            g = word_to_str(random_word(rng, 2, 4), 2)
            moved = shift(mu, g, self.F2)
            assert sorted(w for _, w in mu.items()) == sorted(w for _, w in moved.items())

    def test_cancellation_merges_nothing(self):
        # translation is a bijection, so distinct atoms stay distinct
        mu = AtomicMeasure.from_masses({"a": 1, "aa": 1})
        moved = shift(mu, "A", self.F2)
        assert moved == AtomicMeasure.from_masses({"e": 1, "a": 1})

    def test_non_word_atom_rejected(self):
        mu = AtomicMeasure.from_masses({0: 1})
        with pytest.raises(VertexIdError):
            shift(mu, "a", self.F2)

    def test_word_object_atom_rejected(self):
        # atoms are vertex ids; a tuple of letters is not one
        mu = AtomicMeasure.from_masses({(2,): 1})
        with pytest.raises(VertexIdError):
            shift(mu, "a", self.F2)

    @pytest.mark.parametrize("rank, atoms", [
        (2, {"g1": 1, " b ": 1}),  # spellings read_id reads, but no ids
        (2, {"a": 1, "g1": 1}),
        (2, {" b ": 1}),
        (4, {"1": 1}),  # the identity is "e" up to rank 4
        (5, {"e": 1, "1": 1, "eE": 1}),
        (2, {"c": 1}),
        (27, {"a": 1}),
    ])
    def test_atom_that_is_not_a_vertex_rejected(self, rank, atoms):
        mu = AtomicMeasure.from_masses(atoms)
        graph = CayleyGraph(rank)
        with pytest.raises(VertexIdError):
            shift(mu, graph.neighbors(graph.empty_id)[0], graph)

    @pytest.mark.parametrize("rank, g", [(2, " a"), (2, "aA"), (4, "1"), (27, "g28")])
    def test_shift_that_is_not_a_vertex_rejected(self, rank, g):
        with pytest.raises(VertexIdError):
            shift(AtomicMeasure.point_mass("e" if rank <= 4 else "1"), g, CayleyGraph(rank))


class TestParsing:
    def test_integer_masses(self):
        mu = parse_measure("0 1\n1 2\n# comment\n\n \t\r\n2\t3\r\n\t3 0.5 # tail\n")
        assert mu[2] == Fraction(6, 13) and mu[3] == Fraction(1, 13)

    def test_word_vertices(self):
        mu = parse_measure("e 1\nab 1\n")
        assert mu.support() == ("ab", "e")

    def test_decimal_masses_exact(self):
        mu = parse_measure("0 0.25\n1 0.75\n")
        assert mu[0] == Fraction(1, 4)

    def test_fraction_masses(self):
        mu = parse_measure("0 1/6\n1 5/6\n")
        assert mu[0] == Fraction(1, 6)

    def test_repeated_vertex_accumulates(self):
        mu = parse_measure("0 1\n0 1\n1 2\n")
        assert mu[0] == Fraction(1, 2)

    def test_rejects_bad_mass(self):
        with pytest.raises(MeasureFormatError):
            parse_measure("0 zero\n")
        with pytest.raises(MeasureFormatError):
            parse_measure("0 -1\n")
        with pytest.raises(MeasureFormatError):
            parse_measure("0 0\n")

    def test_rejects_bad_shape(self):
        with pytest.raises(MeasureFormatError):
            parse_measure("0 1 2\n")
        with pytest.raises(MeasureFormatError):
            parse_measure("")
        with pytest.raises(MeasureFormatError) as exc:
            parse_measure("0 1\n\t1 2 3 # tail \n")
        assert str(exc.value) == "line 2: expected 'vertex mass', got '\\t1 2 3 # tail '"

    def test_default_vertex_parser_error_names_the_line(self):
        # the default parser reads "--5" as an integer, which int rejects
        with pytest.raises(MeasureFormatError, match="^line 2: bad vertex '--5': "):
            parse_measure("0 1\n--5 1\n")

    @pytest.mark.parametrize("token, reason", [
        ("aA", "'aA' is not the id of a reduced word of rank 2"),
        ("g99999999999", "'g99999999999' is not a generator token of rank 2"),
        ("g" + "1" * 5000, ""),  # int may refuse an index this long: ValueError
    ])
    def test_word_reader_error_names_the_line(self, token, reason):
        with pytest.raises(MeasureFormatError, match=f"^line 2: bad vertex '.*': {reason}"):
            parse_measure(f"a 1\n{token} 1\n", vertex_parser=CayleyGraph(2).read_id)

    def test_multi_token_vertex(self):
        mu = parse_measure("g1 g2 1\ng3  1/2\n", multi_token=True)
        assert mu["g1 g2"] == Fraction(2, 3)
        assert mu["g3"] == Fraction(1, 3)
        with pytest.raises(MeasureFormatError):
            parse_measure("g1 g2\n", multi_token=True)
