import gc
import random
import weakref
from collections import Counter

import pytest

from meansets.errors import RankMismatchError, VertexIdError
from meansets.freegroup import (
    CayleyGraph,
    ReducedWord,
    cayley_neighbors,
    fg_distance,
    identity,
    generator,
    multiply,
    sample_sphere,
    sphere_size,
    word_from_str,
    word_to_str,
)
from meansets.randomgen import random_word

from freewords import ball_words, reference_sphere_id, sphere_words

# 0.999 quantile of the chi-square distribution with 35 degrees of freedom
CHI2_35_DF_999 = 66.62


def bfs_cayley_oracle(rank: int, radius: int) -> dict:
    """Distances from the identity by explicit BFS over materialized words."""
    start = identity(rank)
    dist = {start: 0}
    frontier = [start]
    while frontier and dist[frontier[0]] < radius:
        nxt = []
        for w in frontier:
            for u in cayley_neighbors(w):
                if u not in dist:
                    dist[u] = dist[w] + 1
                    nxt.append(u)
        frontier = nxt
    return dist


class TestMultiply:
    def test_single_cancellation(self):
        a = word_from_str("ab", 2)
        b = word_from_str("Ba", 2)
        assert word_to_str(multiply(a, b)) == "aa"

    def test_inverse_gives_identity(self):
        rng = random.Random(3)
        words = [random_word(rng, 3, 6) for _ in range(50)]
        words += [ReducedWord(r, ls) for r, ls in ((1, ()), (1, (-1, -1)), (27, (27, -3)))]
        for w in words:
            assert multiply(w, w.inverse()) == identity(w.rank)
            assert multiply(w.inverse(), w) == identity(w.rank)
            assert w.inverse().inverse() == w

    def test_associativity_on_random_triples(self):
        rng = random.Random(9)
        for _ in range(1000):
            a, b, c = (random_word(rng, 2, 5) for _ in range(3))
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatchError):
            multiply(identity(2), identity(3))

    def test_unreduced_letters_rejected(self):
        with pytest.raises(ValueError):
            ReducedWord(2, (1, -1))
        with pytest.raises(ValueError):
            ReducedWord(2, (3,))


class TestReducedWord:
    def test_fields_are_read_only(self):
        w = ReducedWord(2, (1, 2))
        for name, value in (("letters", (1,)), ("rank", 3)):
            with pytest.raises(AttributeError):
                setattr(w, name, value)
        assert (w.rank, w.letters) == (2, (1, 2))

    def test_letters_from_any_iterable_give_one_word(self):
        from_list, from_tuple = ReducedWord(3, [1, -2, 3]), ReducedWord(3, (1, -2, 3))
        assert from_list == from_tuple
        assert hash(from_list) == hash(from_tuple)
        assert from_list.letters == (1, -2, 3)
        assert {from_list: "x"}[from_tuple] == "x"
        assert len({from_list, from_tuple}) == 1

    def test_rank_is_part_of_the_word(self):
        assert ReducedWord(2, (1, 2)) != ReducedWord(3, (1, 2))
        assert ReducedWord(2) != ReducedWord(3)


class TestDistance:
    def test_length_from_identity(self):
        assert fg_distance(identity(2), word_from_str("aba", 2)) == 3

    def test_zero_on_equal(self):
        w = word_from_str("abAB", 2)
        assert fg_distance(w, w) == 0

    def test_matches_bfs_on_materialized_ball(self):
        oracle = bfs_cayley_oracle(2, 8)
        rng = random.Random(41)
        words = [random_word(rng, 2, 4) for _ in range(60)]
        e = identity(2)
        for a in words:
            for b in words:
                # d(a, b) = d(e, a^-1 b), and |a^-1 b| <= 8 is inside the oracle
                rel = multiply(a.inverse(), b)
                assert fg_distance(a, b) == oracle[rel]
                assert fg_distance(e, rel) == oracle[rel]

    def test_left_invariance(self):
        rng = random.Random(13)
        for _ in range(1000):
            g = random_word(rng, 2, 4)
            a = random_word(rng, 2, 4)
            b = random_word(rng, 2, 4)
            assert fg_distance(a, b) == fg_distance(multiply(g, a), multiply(g, b))


class TestSphereSize:
    def test_rank2_length1(self):
        assert sphere_size(2, 1) == 4

    def test_rank4_length2(self):
        assert sphere_size(4, 2) == 56

    def test_matches_enumeration(self):
        words = ball_words(2, 3)
        by_len = Counter(len(w) for w in words)
        assert by_len[3] == 36 == sphere_size(2, 3)
        assert by_len[0] == 1 == sphere_size(2, 0)
        assert by_len[1] == 4
        assert by_len[2] == 12


class TestSampleSphere:
    def test_length_zero_is_identity(self):
        rng = random.Random(0)
        for _ in range(10):
            assert sample_sphere(3, 0, rng) == "e"

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            sample_sphere(4, -1, random.Random(0))

    def test_exact_length_and_reduced(self):
        rng = random.Random(5)
        for _ in range(300):
            w = word_from_str(sample_sphere(2, 7, rng), 2)  # revalidates free reduction
            assert len(w) == 7

    def test_rank2_length1_frequencies(self):
        rng = random.Random(2718)
        counts = Counter(sample_sphere(2, 1, rng) for _ in range(10_000))
        assert set(counts) == {"a", "A", "b", "B"}
        for c in counts.values():
            assert abs(c / 10_000 - 0.25) < 0.02

    def test_rank2_length3_chi_square(self):
        sphere = [word_to_str(w) for w in sphere_words(2, 3)]
        assert len(sphere) == 36
        rng = random.Random(31415)
        n = 100_000
        counts = Counter(sample_sphere(2, 3, rng) for _ in range(n))
        assert set(counts) <= set(sphere)
        expected = n / 36
        chi2 = sum((counts.get(w, 0) - expected) ** 2 / expected for w in sphere)
        assert chi2 < CHI2_35_DF_999

    @pytest.mark.parametrize("rank", [1, 2, 4, 5, 26, 27, 127, 128])
    def test_matches_reference_chain(self, rank):
        # same ids and the same generator state as one randrange per letter
        # over signed indices, so seeded tables do not depend on the sampler
        for length in range(51):
            ours, ref = random.Random(900 + length), random.Random(900 + length)
            for _ in range(3):
                assert sample_sphere(rank, length, ours) == reference_sphere_id(rank, length, ref)
            assert ours.getstate() == ref.getstate()


class TestCayleyNeighbors:
    def test_identity_neighbors(self):
        ns = cayley_neighbors(identity(2))
        assert len(ns) == 4
        assert all(len(w) == 1 for w in ns)

    def test_neighbors_of_generator(self):
        ns = {word_to_str(w) for w in cayley_neighbors(word_from_str("a", 2))}
        assert ns == {"e", "aa", "ab", "aB"}

    def test_all_at_distance_one(self):
        rng = random.Random(77)
        for _ in range(100):
            w = random_word(rng, 3, 5)
            ns = cayley_neighbors(w)
            assert len(ns) == 6
            for u in ns:
                assert fg_distance(w, u) == 1

    def test_tree_no_second_paths(self):
        # BFS within radius 6 never reaches a word twice
        seen = bfs_cayley_oracle(2, 6)
        total = sum(sphere_size(2, k) for k in range(7))
        assert len(seen) == total


class TestSerialization:
    def test_examples(self):
        assert word_to_str(word_from_str("abA", 2)) == "abA"
        assert word_to_str(identity(2)) == "e"
        assert word_from_str("e", 4) == identity(4)

    def test_roundtrip_random(self):
        rng = random.Random(99)
        for rank in (1, 2, 4, 5, 26):
            for _ in range(40):
                w = random_word(rng, rank, 6)
                assert word_from_str(word_to_str(w), rank) == w

    def test_rank5_empty_spelling_avoids_generator_e(self):
        # letter e is generator 5 from rank 5 on, so the empty word moves to "1"
        g5 = generator(5, 5)
        assert word_to_str(g5) == "e"
        assert word_from_str("e", 5) == g5
        assert word_to_str(identity(5)) == "1"
        assert word_from_str("1", 5) == identity(5)

    def test_token_syntax_high_rank(self):
        w = ReducedWord(30, (3, -7, 28))
        assert word_to_str(w) == "g3 G7 g28"
        assert word_from_str("g3 G7 g28", 30) == w
        assert word_from_str("1", 30) == identity(30)

    @pytest.mark.parametrize("text", ["e", "abc", "Z", "g1 b"])
    def test_high_rank_reads_only_tokens(self, text):
        # above rank 26 word_to_str writes g/G tokens, never letters
        with pytest.raises(ValueError):
            word_from_str(text, 27)

    def test_bad_input(self):
        with pytest.raises(ValueError):
            word_from_str("a3b", 2)
        with pytest.raises(ValueError):
            word_from_str("c", 2)  # letter out of rank


class TestStringLcp:
    def test_matches_naive_scan(self):
        from meansets.freegroup import _str_lcp

        def naive(a, b):
            n = 0
            for x, y in zip(a, b):
                if x != y:
                    break
                n += 1
            return n

        rng = random.Random(12)
        alphabet = "abAB"
        for _ in range(500):
            prefix = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
            a = prefix + "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
            b = prefix + "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
            assert _str_lcp(a, b) == naive(a, b)
        assert _str_lcp("", "abc") == 0
        assert _str_lcp("abc", "abc") == 3
        assert _str_lcp("ab", "abab") == 2


class TestCayleyGraph:
    def test_neighbors_match_word_level(self):
        # rank 5 spells generator 5 with the letter e; rank 27 uses g/G tokens
        rng = random.Random(55)
        for rank in (2, 5, 27):
            g = CayleyGraph(rank)
            for _ in range(80):
                w = random_word(rng, rank, 5)
                via_graph = g.neighbors(word_to_str(w))
                via_words = tuple(word_to_str(u) for u in cayley_neighbors(w))
                assert via_graph == via_words

    def test_distance_matches_word_metric(self):
        g = CayleyGraph(3)
        rng = random.Random(56)
        for _ in range(200):
            a = random_word(rng, 3, 6)
            b = random_word(rng, 3, 6)
            assert g.distance(word_to_str(a), word_to_str(b)) == fg_distance(a, b)
        # above rank 26 a distance compares the ids' token tuples
        g = CayleyGraph(27)
        for _ in range(200):
            a = random_word(rng, 27, 6)
            b = random_word(rng, 27, 6)
            if rng.random() < 0.5:  # a prefix of a, so the ids share tokens
                b = ReducedWord(27, a.letters[: rng.randint(0, len(a))])
            assert g.distance(word_to_str(a), word_to_str(b)) == fg_distance(a, b)

    @pytest.mark.parametrize("a, b", [("g3 G3", "g1"), ("g1", "g28"), ("g1 ", "g1"), ("1", "e")])
    def test_high_rank_distance_rejects_non_canonical_ids(self, a, b):
        with pytest.raises(VertexIdError):
            CayleyGraph(27).distance(a, b)

    def test_high_rank_graph(self):
        g = CayleyGraph(30)
        assert g.empty_id == "1"
        ns = g.neighbors("1")
        assert len(ns) == 60
        assert g.distance("g3 G7", "g3") == 1

    @pytest.mark.parametrize("rank, radius", [(2, 5), (4, 3), (27, 2)])
    def test_ball_matches_enumeration(self, rank, radius):
        # each id the BFS reaches is checked when it is expanded, so every
        # id the neighbour step makes must be canonical
        g = CayleyGraph(rank)
        words = ball_words(rank, radius)
        assert g.ball(g.empty_id, radius) == {word_to_str(w) for w in words}
        centre = ReducedWord(rank, (1, -2) if rank > 1 else (1, 1))
        assert g.ball(word_to_str(centre), radius) == {
            word_to_str(multiply(centre, w)) for w in words
        }

    def test_degree_is_2r_everywhere(self):
        g = CayleyGraph(4)
        rng = random.Random(57)
        for _ in range(50):
            w = word_to_str(random_word(rng, 4, 5))
            assert len(g.neighbors(w)) == 8

    def test_prefixes_are_the_geodesic_from_the_identity(self):
        # the prefixes of a path key are the keys of the geodesic's vertices
        rng = random.Random(58)
        for rank in (1, 2, 5, 27):
            g = CayleyGraph(rank)
            assert g.path_key(g.empty_id) == ("" if rank <= 26 else ())
            assert g.key_id(g.path_key(g.empty_id)) == g.empty_id
            for _ in range(40):
                w = random_word(rng, rank, 6)
                key = g.path_key(word_to_str(w))
                assert len(key) == len(w)
                assert [g.key_id(key[:k]) for k in range(len(w) + 1)] == [
                    word_to_str(ReducedWord(rank, w.letters[:k])) for k in range(len(w) + 1)
                ]

    @pytest.mark.parametrize(
        "rank, vid",
        [(4, "1"), (4, ""), (4, "aA"), (4, "Aa"), (4, "abBa"), (4, "ae"), (4, "a b"),
         (4, "a%"), (4, 0), (1, "b"), (5, "eE"), (26, "zZ"), (27, "g28"), (27, "g0"),
         (27, "g01"), (27, "g"), (27, "g3 G3"), (27, "G3 g3"), (27, "g1 g3 G3"),
         (27, "g1  g2"), (27, "g1 "), (27, " g1"), (27, "a"), (27, "e")],
    )
    def test_prefixes_reject_non_canonical_ids(self, rank, vid):
        # foreign characters, the other spelling of the identity, unreduced
        # pairs and malformed or out-of-rank tokens name no vertex
        g = CayleyGraph(rank)
        with pytest.raises(VertexIdError):
            g.path_key(vid)
        with pytest.raises(VertexIdError):
            g.neighbors(vid)
        with pytest.raises(VertexIdError):
            g.distance(vid, g.empty_id)
        with pytest.raises(VertexIdError):
            g.ball(vid, 1)
        with pytest.raises(VertexIdError):
            g.prefix_hull_size([g.empty_id, vid])

    @pytest.mark.parametrize(
        "rank, vid",
        [(4, "e"), (5, "1"), (5, "e"), (26, "zY"), (27, "1"), (27, "g27"),
         (27, "g12 G1"), (27, "g1 G12"), (27, "g3 g3"), (30, "G30 g29")],
    )
    def test_prefixes_accept_canonical_ids(self, rank, vid):
        g = CayleyGraph(rank)
        key = g.path_key(vid)
        w = word_from_str(vid, rank)
        assert [g.key_id(key[:k]) for k in range(1, len(w) + 1)] == [
            word_to_str(ReducedWord(rank, w.letters[:k])) for k in range(1, len(w) + 1)
        ]
        assert g.key_id(key) == vid

    def test_freed_without_the_cycle_collector(self):
        gc.disable()
        try:
            g = CayleyGraph(4)
            g.neighbors("ab")
            g.distance("ab", "aC")
            ref = weakref.ref(g)
            del g
            assert ref() is None
        finally:
            gc.enable()
