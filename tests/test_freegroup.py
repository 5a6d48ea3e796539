import gc
import random
import tracemalloc
import weakref
from collections import Counter

import pytest

from meansets.errors import VertexIdError
from meansets.freegroup import CayleyGraph, sample_sphere, word_to_str
from meansets.randomgen import random_word

from freewords import (
    ReducedWord,
    ball_words,
    cayley_neighbors,
    fg_distance,
    identity,
    multiply,
    parse_word,
    reference_sphere_id,
    sphere_size,
    sphere_words,
    word_id,
)

# 0.999 quantile of the chi-square distribution with 35 degrees of freedom
CHI2_35_DF_999 = 66.62

RANKS = (1, 2, 4, 5, 26, 27)


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


def random_id(rng, rank: int, max_len: int) -> str:
    return word_to_str(random_word(rng, rank, max_len), rank)


class TestMultiply:
    def test_single_cancellation(self):
        assert CayleyGraph(2).multiply("ab", "Ba") == "aa"

    def test_inverse_gives_identity(self):
        rng = random.Random(3)
        words = [ReducedWord(3, random_word(rng, 3, 6)) for _ in range(50)]
        words += [ReducedWord(r, ls) for r, ls in ((1, ()), (1, (-1, -1)), (27, (27, -3)))]
        for w in words:
            g = CayleyGraph(w.rank)
            wid, inv = word_id(w), word_id(w.inverse())
            assert g.multiply(wid, inv) == g.multiply(inv, wid) == g.empty_id

    def test_associativity_on_random_triples(self):
        g = CayleyGraph(2)
        rng = random.Random(9)
        for _ in range(1000):
            a, b, c = (random_id(rng, 2, 5) for _ in range(3))
            assert g.multiply(g.multiply(a, b), c) == g.multiply(a, g.multiply(b, c))

    def test_rank_mismatch(self):
        # an element of another rank is not a vertex of this graph
        with pytest.raises(VertexIdError):
            CayleyGraph(2).multiply("e", "c")
        with pytest.raises(VertexIdError):
            CayleyGraph(27).multiply("g28", "1")

    def test_unreduced_letters_rejected(self):
        g = CayleyGraph(2)
        with pytest.raises(VertexIdError, match="^'aA' is not the id of a reduced word of rank 2$"):
            g.read_id("aA")
        with pytest.raises(VertexIdError, match="^'c' is not the id of a reduced word of rank 2$"):
            g.read_id("c")

    @pytest.mark.parametrize("rank", RANKS)
    def test_matches_word_product(self, rank):
        # identity on either side, full cancellation a a^-1, and random pairs
        g = CayleyGraph(rank)
        rng = random.Random(4400 + rank)
        e = identity(rank)
        for _ in range(300):
            a = ReducedWord(rank, random_word(rng, rank, 6))
            pairs = [(a, ReducedWord(rank, random_word(rng, rank, 6))), (e, a), (a, e),
                     (a, a.inverse())]
            # a prefix of a's inverse cancels part of a
            inv = a.inverse().letters
            pairs.append((a, ReducedWord(rank, inv[: rng.randint(0, len(inv))])))
            for x, y in pairs:
                assert g.multiply(word_id(x), word_id(y)) == word_id(multiply(x, y))
        assert g.multiply(g.empty_id, g.empty_id) == g.empty_id


class TestDistance:
    def test_length_from_identity(self):
        assert CayleyGraph(2).distance("e", "aba") == 3

    def test_zero_on_equal(self):
        assert CayleyGraph(2).distance("abAB", "abAB") == 0

    def test_matches_bfs_on_materialized_ball(self):
        g = CayleyGraph(2)
        oracle = bfs_cayley_oracle(2, 8)
        rng = random.Random(41)
        words = [ReducedWord(2, random_word(rng, 2, 4)) for _ in range(60)]
        for a in words:
            for b in words:
                # d(a, b) = d(e, a^-1 b), and |a^-1 b| <= 8 is inside the oracle
                rel = multiply(a.inverse(), b)
                assert g.distance(word_id(a), word_id(b)) == oracle[rel] == fg_distance(a, b)
                assert g.distance(g.empty_id, word_id(rel)) == oracle[rel]

    def test_left_invariance(self):
        graph = CayleyGraph(2)
        rng = random.Random(13)
        for _ in range(1000):
            g, a, b = (random_id(rng, 2, 4) for _ in range(3))
            moved = graph.multiply(g, a), graph.multiply(g, b)
            assert graph.distance(a, b) == graph.distance(*moved)


class TestSphereSize:
    def test_rank2_length1(self):
        assert sphere_size(2, 1) == 4 == len(CayleyGraph(2).neighbors("e"))

    def test_rank4_length2(self):
        g = CayleyGraph(4)
        assert sphere_size(4, 2) == 56 == len(g.ball("e", 2)) - len(g.ball("e", 1))

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
            w = parse_word(sample_sphere(2, 7, rng), 2)  # revalidates free reduction
            assert len(w) == 7

    def test_rank2_length1_frequencies(self):
        rng = random.Random(2718)
        counts = Counter(sample_sphere(2, 1, rng) for _ in range(10_000))
        assert set(counts) == {"a", "A", "b", "B"}
        for c in counts.values():
            assert abs(c / 10_000 - 0.25) < 0.02

    def test_rank2_length3_chi_square(self):
        sphere = [word_id(w) for w in sphere_words(2, 3)]
        assert len(sphere) == 36
        rng = random.Random(31415)
        n = 100_000
        counts = Counter(sample_sphere(2, 3, rng) for _ in range(n))
        assert set(counts) <= set(sphere)
        expected = n / 36
        chi2 = sum((counts.get(w, 0) - expected) ** 2 / expected for w in sphere)
        assert chi2 < CHI2_35_DF_999

    def test_memory_is_linear_in_the_rank(self):
        # no other test samples at rank 613, so the peak includes whatever
        # the call builds and caches: O(r) letters, not a (2r)(2r - 1) table
        tracemalloc.start()
        try:
            sample_sphere(613, 3, random.Random(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("rank", [1, 2, 4, 5, 26, 27, 127, 128, 600])
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
        # each generator, then its inverse
        assert CayleyGraph(2).neighbors("e") == ("a", "A", "b", "B")

    def test_neighbors_of_generator(self):
        assert set(CayleyGraph(2).neighbors("a")) == {"e", "aa", "ab", "aB"}

    def test_all_at_distance_one(self):
        g = CayleyGraph(3)
        rng = random.Random(77)
        for _ in range(100):
            w = ReducedWord(3, random_word(rng, 3, 5))
            ns = g.neighbors(word_id(w))
            assert len(ns) == 6
            for u in ns:
                assert fg_distance(w, parse_word(u, 3)) == 1

    def test_tree_no_second_paths(self):
        # BFS within radius 6 never reaches a word twice
        seen = bfs_cayley_oracle(2, 6)
        total = sum(sphere_size(2, k) for k in range(7))
        assert len(seen) == total == len(CayleyGraph(2).ball("e", 6))


class TestSerialization:
    def test_examples(self):
        assert CayleyGraph(2).read_id("abA") == "abA"
        assert word_to_str((), 2) == "e"
        assert CayleyGraph(4).read_id("e") == "e"
        assert parse_word("e", 4) == identity(4)

    def test_roundtrip_random(self):
        rng = random.Random(99)
        for rank in (1, 2, 4, 5, 26, 27):
            g = CayleyGraph(rank)
            for _ in range(40):
                w = random_word(rng, rank, 6)
                vid = word_to_str(w, rank)
                assert g.read_id(vid) == vid
                assert parse_word(vid, rank).letters == w

    def test_rank5_empty_spelling_avoids_generator_e(self):
        # letter e is generator 5 from rank 5 on, so the empty word moves to "1"
        g = CayleyGraph(5)
        assert word_to_str((5,), 5) == "e"
        assert g.read_id("e") == "e" and parse_word("e", 5).letters == (5,)
        assert word_to_str((), 5) == "1"
        assert g.read_id("1") == "1" and parse_word("1", 5) == identity(5)

    def test_token_syntax_high_rank(self):
        g = CayleyGraph(30)
        assert word_to_str((3, -7, 28), 30) == "g3 G7 g28"
        assert g.read_id("g3 G7 g28") == "g3 G7 g28"
        assert parse_word("g3 G7 g28", 30).letters == (3, -7, 28)
        assert g.read_id("1") == "1"

    @pytest.mark.parametrize("text", ["e", "abc", "Z", "g1 b"])
    def test_high_rank_reads_only_tokens(self, text):
        # above rank 26 word_to_str writes g/G tokens, never letters
        with pytest.raises(VertexIdError):
            CayleyGraph(27).read_id(text)

    # each row names the fault that keeps the text from spelling a word;
    # the error names the text and the rank
    @pytest.mark.parametrize("rank, text, fault", [
        (1, "ab", "letter 2 out of range for rank 1"),
        (26, "G27", "letter -27 out of range for rank 26"),
        (27, "g28", "letter 28 out of range for rank 27"),
        (27, "g0", "letter 0 out of range for rank 27"),
        (30, "G31 g2", "letter -31 out of range for rank 30"),
        (1, "aA", "word is not freely reduced"),
        (2, "abBa", "word is not freely reduced"),
        (5, "eE", "word is not freely reduced"),
        (26, "zZ", "word is not freely reduced"),
        (27, "g3 G3", "word is not freely reduced"),
        (2, "g1 G1", "word is not freely reduced"),
    ])
    def test_range_and_reduction(self, rank, text, fault):
        with pytest.raises(VertexIdError, match=f"^'[^']+' is not .* of rank {rank}$"):
            CayleyGraph(rank).read_id(text)

    def test_rank_zero_rejected(self):
        with pytest.raises(ValueError, match="^rank must be >= 1$"):
            CayleyGraph(0)

    def test_bad_input(self):
        g = CayleyGraph(2)
        with pytest.raises(VertexIdError):
            g.read_id("a3b")
        with pytest.raises(VertexIdError):
            g.read_id("c")  # letter out of rank
        with pytest.raises(VertexIdError, match="^'g3' is not a generator token of rank 2$"):
            g.read_id("g1 g3")


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
        # path keys of words up to 1,000 letters: strings at rank 2, g/G
        # token tuples at rank 27; kb shares a random prefix of ka
        for rank in (2, 27):
            g = CayleyGraph(rank)
            for _ in range(100):
                ka = g.path_key(sample_sphere(rank, rng.randint(0, 1000), rng))
                prefix = g.key_id(ka[: rng.randint(0, len(ka))])
                kb = g.path_key(g.multiply(prefix, sample_sphere(rank, rng.randint(0, 1000), rng)))
                assert _str_lcp(ka, kb) == _str_lcp(kb, ka) == naive(ka, kb)
        key = ("g1", "G2", "g10", "g1")
        assert _str_lcp((), ()) == 0
        assert _str_lcp((), key) == _str_lcp(key, ()) == 0
        assert _str_lcp(key, key) == 4
        assert _str_lcp(key[:2], key) == _str_lcp(key, key[:2]) == 2
        assert _str_lcp(("g1", "g10"), ("g1", "g1")) == 1


class TestCayleyGraph:
    def test_neighbors_match_word_level(self):
        # rank 5 spells generator 5 with the letter e; rank 27 uses g/G tokens
        rng = random.Random(55)
        for rank in (2, 5, 27):
            g = CayleyGraph(rank)
            for _ in range(80):
                w = ReducedWord(rank, random_word(rng, rank, 5))
                via_graph = g.neighbors(word_id(w))
                via_words = tuple(word_id(u) for u in cayley_neighbors(w))
                assert via_graph == via_words

    def test_distance_matches_word_metric(self):
        g = CayleyGraph(3)
        rng = random.Random(56)
        for _ in range(200):
            a = ReducedWord(3, random_word(rng, 3, 6))
            b = ReducedWord(3, random_word(rng, 3, 6))
            assert g.distance(word_id(a), word_id(b)) == fg_distance(a, b)
        # above rank 26 a distance compares the ids' token tuples
        g = CayleyGraph(27)
        for _ in range(200):
            a = ReducedWord(27, random_word(rng, 27, 6))
            b = ReducedWord(27, random_word(rng, 27, 6))
            if rng.random() < 0.5:  # a prefix of a, so the ids share tokens
                b = ReducedWord(27, a.letters[: rng.randint(0, len(a))])
            assert g.distance(word_id(a), word_id(b)) == fg_distance(a, b)

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
        assert g.ball(g.empty_id, radius) == {word_id(w) for w in words}
        centre = ReducedWord(rank, (1, -2) if rank > 1 else (1, 1))
        assert g.ball(word_id(centre), radius) == {word_id(multiply(centre, w)) for w in words}

    def test_degree_is_2r_everywhere(self):
        g = CayleyGraph(4)
        rng = random.Random(57)
        for _ in range(50):
            assert len(g.neighbors(random_id(rng, 4, 5))) == 8

    def test_prefixes_are_the_geodesic_from_the_identity(self):
        # the prefixes of a path key are the keys of the geodesic's vertices
        rng = random.Random(58)
        for rank in (1, 2, 5, 27):
            g = CayleyGraph(rank)
            assert g.path_key(g.empty_id) == ("" if rank <= 26 else ())
            assert g.key_id(g.path_key(g.empty_id)) == g.empty_id
            for _ in range(40):
                w = random_word(rng, rank, 6)
                key = g.path_key(word_to_str(w, rank))
                assert len(key) == len(w)
                assert [g.key_id(key[:k]) for k in range(len(w) + 1)] == [
                    word_to_str(w[:k], rank) for k in range(len(w) + 1)
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
        w = parse_word(vid, rank).letters
        assert [g.key_id(key[:k]) for k in range(1, len(w) + 1)] == [
            word_to_str(w[:k], rank) for k in range(1, len(w) + 1)
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
