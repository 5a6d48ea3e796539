"""Free-group words enumerated for the tests, independently of the package's
own ball and neighbour code, which the solvers under test use."""

from itertools import product

from meansets.freegroup import ReducedWord, word_to_str


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
    return word_to_str(ReducedWord(rank, letters))
