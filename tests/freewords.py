"""Free-group words enumerated for the tests, independently of the package's
own ball and neighbour code, which the solvers under test use."""

from itertools import product

from meansets.freegroup import ReducedWord


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
