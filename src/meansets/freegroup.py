"""Free groups of finite rank as implicit Cayley graphs.

An element of the free group on r generators is a vertex id of its Cayley
graph: its freely reduced word, spelled as a string.  Generator i is
chr('a'+i-1), its inverse the uppercase form (rank <= 26); higher ranks use
space-separated "g3"/"G7" tokens.  The empty word is spelled "e" up to rank
4; from rank 5 on the letter e names generator 5, so the empty word is
spelled "1" there.  `word_to_str` writes the id of a tuple of signed
1-based generator indices (i for a generator, -i for its inverse);
`sample_sphere` draws ids directly.

`CayleyGraph` reads every id it is given through `path_key`, the one
validator of words, which gives both spellings one form: the sequence of
letters or tokens whose prefixes spell the geodesic from the identity.
`CayleyGraph.read_id` maps the looser spellings a measure file may use onto
ids, and leaves range and free reduction to `path_key`.  The group law
works on these keys: the product ab cancels the longest common prefix of
a^-1 and b, and the word metric d(a, b) = |a^-1 b| cancels the longest
common prefix of a and b, so

    d(a, b) = |a| + |b| - 2 * lcp(a, b).
"""

from __future__ import annotations

import functools
import random
import re
from itertools import compress, count
from operator import ne

from .errors import VertexIdError
from .graphs import ImplicitGraph


@functools.cache
def _letters(rank: int) -> tuple:
    """The ids of the 2r one-letter words, in the order x^-r..x^-1, x1..xr:
    with top = 2r - 1, letters[top - i] is the inverse of letters[i]."""
    return tuple(word_to_str((x,), rank) for x in range(-rank, rank + 1) if x)


def sample_sphere(rank: int, length: int, rng: random.Random) -> str:
    """Uniform draw from the sphere of the given length, as its vertex id.

    Built as a no-backtracking chain over the indices of `_letters`, one
    `rng.randrange` call per letter: the first index i is uniform over the
    2r letters, and each next one is the j-th, j uniform, of the 2r - 1
    letters that do not cancel letter i (every index but top - i).
    """
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if length <= 0:
        if length < 0:
            raise ValueError("length must be >= 0")
        return empty_spelling(rank)
    letters = _letters(rank)
    randrange = rng.randrange
    top = 2 * rank - 1
    i = randrange(top + 1)
    out = [letters[i]]
    for _ in range(length - 1):
        j = randrange(top)
        i = j + 1 if j >= top - i else j
        out.append(letters[i])
    return ("" if rank <= 26 else " ").join(out)


# -- serialization ----------------------------------------------------------

def empty_spelling(rank: int) -> str:
    return "e" if rank <= 4 else "1"


def word_to_str(letters: tuple, rank: int) -> str:
    """The id of the reduced word with the given signed generator indices."""
    if not letters:
        return empty_spelling(rank)
    if rank <= 26:
        return "".join(chr(ord("a") + x - 1) if x > 0 else chr(ord("A") - x - 1) for x in letters)
    return " ".join(f"g{x}" if x > 0 else f"G{-x}" for x in letters)


# -- Cayley graph over serialized ids ---------------------------------------

def _str_lcp(a, b) -> int:
    """Length of the longest common prefix of two strings or two tuples: the
    position of the first mismatch, found in one pass at C speed."""
    return next(compress(count(), map(ne, a, b)), min(len(a), len(b)))


def _id_pattern(rank: int) -> re.Pattern:
    """Matches the ids word_to_str gives the nonempty reduced words of the
    rank, except that a g/G token's index is not checked against the rank
    (the caller checks each token against the rank's token set)."""
    if rank <= 26:
        letters = _letters(rank)
        # each letter not followed by its inverse
        inverses = zip(letters, reversed(letters))
        return re.compile("(?:" + "|".join(f"{x}(?!{y})" for x, y in inverses) + ")+")
    # space-separated tokens, each not followed by its inverse
    token = r"(?:g(?P<i>[1-9][0-9]*)(?! G(?P=i)\b)|G(?P<j>[1-9][0-9]*)(?! g(?P=j)\b))"
    return re.compile(rf"(?:{token}(?: (?!\Z)|\Z))+")


class CayleyGraph(ImplicitGraph):
    """Cayley graph of the free group of the given rank.

    Vertex ids are serialized reduced words, and every query reads them
    through `path_key`, the one place that knows both spellings.  The graph
    is a 2r-regular tree, rooted at the identity by `path_key`: the sorted
    keys of a finite vertex set list each subtree as one contiguous run,
    which is what the tree solver's descent searches with bisect.
    """

    def __init__(self, rank: int):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        self.rank = rank
        self.empty_id = empty_spelling(rank)
        self._id_match = _id_pattern(rank).fullmatch
        # key element -> its inverse, in neighbour order (x1, x1^-1, x2, ...)
        letters, top = _letters(rank), 2 * rank - 1
        self._inverse = {
            letters[i]: letters[top - i] for k in range(rank, 2 * rank) for i in (k, top - k)
        }
        self._sep = "" if rank <= 26 else " "
        super().__init__(None, is_tree=True)

    def neighbors(self, v: str) -> tuple:
        """v times each generator and inverse, in the order x1, x1^-1, x2,
        x2^-1, ...: the letter that cancels v's last letter or token gives
        v's parent."""
        key = self.path_key(v)
        if not key:
            return tuple(self._inverse)
        parent, inv_last, prefix = self.key_id(key[:-1]), self._inverse[key[-1]], v + self._sep
        return tuple([parent if x == inv_last else prefix + x for x in self._inverse])

    def distance(self, a: str, b: str) -> int:
        ka, kb = self.path_key(a), self.path_key(b)
        return len(ka) + len(kb) - 2 * _str_lcp(ka, kb)

    def distances(self, source: str):
        return functools.partial(self.distance, source)

    def multiply(self, a: str, b: str) -> str:
        """The id of the product ab: a's key less the letters that cancel
        against the start of b's key, then the rest of b's key."""
        ka, kb = self.path_key(a), self.path_key(b)
        k, n, inverse = 0, min(len(ka), len(kb)), self._inverse
        while k < n and kb[k] == inverse[ka[-1 - k]]:
            k += 1
        return self.key_id(ka[: len(ka) - k] + kb[k:])

    def path_key(self, v: str):
        """Sort key of v that spells its geodesic from the identity: v itself
        at rank <= 26 ("" for the identity), the tuple of its g/G tokens above
        (() for the identity).  Its prefixes are the keys of the vertices on
        that geodesic, so the keys of a subtree form one contiguous run in
        sorted order; the token tuple keeps "g10" out of the subtree of "g1".
        Raises VertexIdError if v is not an id word_to_str produces: a
        foreign or out-of-rank character or token, an unreduced pair, a
        second spelling of the identity, or a malformed g/G token."""
        if v == self.empty_id:
            return () if self._sep else ""
        if isinstance(v, str) and self._id_match(v):
            if not self._sep:  # the pattern names each letter of the rank
                return v
            key = tuple(v.split(" "))
            if self._inverse.keys() >= set(key):
                return key
        raise VertexIdError(f"{v!r} is not the id of a reduced word of rank {self.rank}")

    # validating an id is computing its key
    _require_vertex = path_key

    def read_id(self, text: str) -> str:
        """The id of a word as a measure file may spell it: the id itself,
        "1" or blank text for the identity, or g/G tokens at any rank (with
        leading zeros or any decimal digits int reads, so "g01" is "a" at
        rank 2).  Raises VertexIdError if the text spells no reduced word of
        the rank (ValueError for an index too long for int to read)."""
        text = text.strip()
        if text in ("", "1"):
            return self.empty_id
        if self._sep or " " in text or (text[0] in "gG" and text[1:].isdecimal()):
            letters = []
            for tok in text.split():
                i = int(tok[1:]) if tok[0] in "gG" and tok[1:].isdecimal() else 0
                if not 0 < i <= self.rank:
                    raise VertexIdError(f"{tok!r} is not a generator token of rank {self.rank}")
                letters.append(i if tok[0] == "g" else -i)
            text = word_to_str(letters, self.rank)
        self.path_key(text)
        return text

    def key_id(self, key) -> str:
        """The vertex id whose `path_key` is key."""
        return (" ".join(key) if self._sep else key) or self.empty_id

    def prefix_hull_size(self, vertices) -> int:
        """Number of vertices on the geodesics from the identity to the
        given vertices, the identity included: the vertices a brute-force
        scan of every prefix of every atom would score.  One vertex gives 0,
        not 1: the `meanset` payload has always reported 0 for a point mass,
        whose solve scores nothing.  An id that is not a vertex raises
        VertexIdError."""
        keys = sorted({self.path_key(v) for v in vertices})
        if len(keys) <= 1:
            return 0
        # sorted keys list each subtree as one run, so each key adds the
        # elements past its common prefix with the key before it
        return 1 + len(keys[0]) + sum(len(b) - _str_lcp(a, b) for a, b in zip(keys, keys[1:]))
