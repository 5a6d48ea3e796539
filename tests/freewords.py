"""An independent model of the free group for the tests: reduced words as
letter tuples with their own product, word metric, neighbours and sphere
count, and enumerations of spheres and balls.  The package computes all of
these on vertex ids (`CayleyGraph.path_key`, `distance`, `neighbors`,
`multiply`); this model is the oracle they are checked against.  It reads
ids with its own parser, `parse_word`, and shares only the package's
writer, `word_to_str`."""

from dataclasses import dataclass
from itertools import product

from meansets.freegroup import word_to_str


@dataclass(frozen=True, slots=True)
class ReducedWord:
    """A freely reduced word; immutable.  `letters` may be given as any
    iterable and is stored as a tuple."""

    rank: int
    letters: tuple = ()

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        letters = tuple(self.letters)
        for x in letters:
            if x == 0 or abs(x) > self.rank:
                raise ValueError(f"letter {x} out of range for rank {self.rank}")
        for a, b in zip(letters, letters[1:]):
            if a == -b:
                raise ValueError("word is not freely reduced")
        object.__setattr__(self, "letters", letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __repr__(self) -> str:
        return f"ReducedWord(rank={self.rank}, {word_id(self)!r})"

    def inverse(self) -> "ReducedWord":
        return ReducedWord(self.rank, tuple(-x for x in reversed(self.letters)))


def word_id(w: ReducedWord) -> str:
    """The vertex id of w."""
    return word_to_str(w.letters, w.rank)


def parse_word(vid: str, rank: int) -> ReducedWord:
    """The word a vertex id names: letters a..z and A..Z up to rank 26,
    space-separated g/G tokens above, and "e" or "1" for the identity."""
    if vid == ("e" if rank <= 4 else "1"):
        return identity(rank)
    if rank <= 26:
        return ReducedWord(rank, [ord(c) - 96 if c.islower() else 64 - ord(c) for c in vid])
    return ReducedWord(rank, [int(t[1:]) if t[0] == "g" else -int(t[1:]) for t in vid.split(" ")])


def identity(rank: int) -> ReducedWord:
    return ReducedWord(rank)


def generator(rank: int, i: int) -> ReducedWord:
    """The i-th generator (1-based); negative i gives the inverse."""
    return ReducedWord(rank, (i,))


def _check_ranks(a: ReducedWord, b: ReducedWord) -> None:
    if a.rank != b.rank:
        raise ValueError(f"rank {a.rank} vs {b.rank}")


def multiply(a: ReducedWord, b: ReducedWord) -> ReducedWord:
    """Freely reduced product ab, cancelling one letter pair at a time."""
    _check_ranks(a, b)
    out = list(a.letters)
    for x in b.letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return ReducedWord(a.rank, out)


def fg_distance(a: ReducedWord, b: ReducedWord) -> int:
    """Word-metric distance, i.e. the length of a^-1 b."""
    _check_ranks(a, b)
    return len(multiply(a.inverse(), b))


def sphere_size(rank: int, length: int) -> int:
    """Number of reduced words of exactly the given length."""
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if length < 0:
        raise ValueError("length must be >= 0")
    if length == 0:
        return 1
    return 2 * rank * (2 * rank - 1) ** (length - 1)


def cayley_neighbors(w: ReducedWord) -> list[ReducedWord]:
    """The 2r words at distance one: right multiplication by each generator
    and inverse, in the order x1, x1^-1, x2, ..., one of which shortens w
    when w is nonempty."""
    return [multiply(w, generator(w.rank, x)) for i in range(1, w.rank + 1) for x in (i, -i)]


def sphere_words(rank: int, length: int) -> list[ReducedWord]:
    """Every reduced word of exactly `length` letters: all letter strings
    of that length with no letter next to its inverse."""
    letters = [x for i in range(1, rank + 1) for x in (i, -i)]
    return [
        ReducedWord(rank, w)
        for w in product(letters, repeat=length)
        if all(a != -b for a, b in zip(w, w[1:]))
    ]


def ball_words(rank: int, radius: int) -> list[ReducedWord]:
    """Every reduced word of at most `radius` letters, shortest first."""
    return [w for length in range(radius + 1) for w in sphere_words(rank, length)]


def reference_sphere_id(rank: int, length: int, rng) -> str:
    """The id of a uniform word of the sphere, drawn as a chain over signed
    generator indices: one `rng.randrange` per letter, over the letters in
    the order -r..-1, 1..r, leaving out the inverse of the previous letter."""
    everything = [x for x in range(-rank, rank + 1) if x]
    letters: list[int] = []
    for _ in range(length):
        choices = [x for x in everything if not letters or x != -letters[-1]]
        letters.append(choices[rng.randrange(len(choices))])
    return word_to_str(tuple(letters), rank)
