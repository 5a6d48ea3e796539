"""Exact atomic probability measures on vertex ids, and sampling from them.

All weights are `fractions.Fraction`; nothing in this module (or anywhere
downstream) touches floating point, because mean-set membership is an exact
argmin and float ties would corrupt it.  Measure files therefore carry
positive integer masses (or exact decimal fractions) that are normalized by
their total.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import accumulate, pairwise, repeat
from math import gcd, lcm
from typing import Iterable, Mapping

from .errors import MeasureFormatError, VertexIdError
from .graphs import read_text

_CHUNK = 1 << 16  # draws per sampler call in `draw`, which bounds its memory


def _lowest_terms(masses: Mapping) -> tuple[int, dict]:
    """The weights m / total of masses as the least common denominator D and
    the integer numerators over D, in vertex order, zero masses dropped;
    ValueError if the total is not positive or a mass is negative.

    Integer masses are used as they are, with no Fraction arithmetic: D is
    total // gcd(masses) and each numerator mass // gcd(masses).  Any other
    masses are read by Fraction() and first scaled to integers by the lcm of
    their denominators, which leaves every weight as it was.
    """
    if not all(isinstance(m, int) for m in masses.values()):
        masses = {v: Fraction(m) for v, m in masses.items()}
        scale = lcm(*(m.denominator for m in masses.values()))
        masses = {v: m.numerator * (scale // m.denominator) for v, m in masses.items()}
    total = sum(masses.values())
    if total <= 0:
        raise ValueError("total mass must be positive")
    for v, m in masses.items():
        if m < 0:
            raise ValueError(f"negative weight {Fraction(m, total)} at {v!r}")
    g = gcd(*masses.values())
    return total // g, {v: m // g for v, m in sorted(masses.items()) if m}


class AtomicMeasure:
    """Finitely supported probability measure with exact rational weights.

    Stored as integer numerators over the common denominator of the
    weights, the least one (so the representation is unique); weights are
    read out as Fractions.
    """

    __slots__ = ("_denom", "_nums")

    def __init__(self, atoms: Mapping):
        weights: dict = {}
        for v, w in atoms.items():
            weights[v] = w = Fraction(w)
            if w < 0:
                raise ValueError(f"negative weight {w} at {v!r}")
        if not any(weights.values()):
            raise ValueError("measure must have nonempty support")
        total = sum(weights.values())
        if total != 1:
            raise ValueError(f"weights sum to {total}, not 1")
        self._denom, self._nums = _lowest_terms(weights)

    @classmethod
    def from_masses(cls, masses: Mapping) -> "AtomicMeasure":
        """Normalize arbitrary positive masses (anything Fraction() reads)
        by their total."""
        mu = object.__new__(cls)
        mu._denom, mu._nums = _lowest_terms(masses)
        return mu

    @classmethod
    def point_mass(cls, v) -> "AtomicMeasure":
        return cls.from_masses({v: 1})

    @classmethod
    def uniform(cls, vertices: Iterable) -> "AtomicMeasure":
        vs = list(vertices)
        if not vs:
            raise ValueError("uniform measure needs at least one vertex")
        return cls.from_masses({v: 1 for v in vs})

    def __getitem__(self, v) -> Fraction:
        return Fraction(self._nums.get(v, 0), self._denom)

    def __contains__(self, v) -> bool:
        return v in self._nums

    def __len__(self) -> int:
        return len(self._nums)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AtomicMeasure)
            and self._denom == other._denom
            and self._nums == other._nums
        )

    def __repr__(self) -> str:
        inner = ", ".join(f"{v!r}: {w}" for v, w in self.items())
        return f"AtomicMeasure({{{inner}}})"

    def items(self) -> list:
        """(vertex, Fraction weight) pairs in vertex order."""
        d = self._denom
        return [(v, Fraction(n, d)) for v, n in self._nums.items()]

    def support(self) -> tuple:
        return tuple(self._nums)

    def numerators(self) -> tuple[int, dict]:
        """Common denominator D and integer numerators summing to D.

        Weight computations run on these integers and divide once at the end.
        """
        return self._denom, dict(self._nums)

    def total_variation(self, other: "AtomicMeasure") -> Fraction:
        keys = set(self._nums) | set(other._nums)
        return sum((abs(self[v] - other[v]) for v in keys), Fraction(0)) / 2


def _increment_sampler(getrandbits, cum: list):
    """draw(count): the 1-based increments bisect_right(cum, r) of the next
    count values r of randrange(cum[-1]), as bytes or a list of ints.

    random.Random.randrange(n) draws getrandbits(k), k = n.bit_length(),
    until a value falls below n, so successive calls return the accepted
    values of one stream of getrandbits(k) draws.  getrandbits(k) for
    k <= 32 is the top k bits of one 32-bit word, and getrandbits(32 * m)
    is m such words, the first one lowest.  For k <= 8 a call takes m words
    in one getrandbits call and reads the top byte b of each, whose value
    is r = b >> 8 - k: one bytes.translate pass maps each accepted byte
    through a table to its increment and deletes the redraws, the bytes
    n << 8 - k and up, whose r is at least n.  Larger k draw
    getrandbits(k) one at a time and bisect.  Either way no call asks for
    more draws than values are still missing, so the generator ends where
    count calls of randrange leave it.
    """
    n = cum[-1]
    k = n.bit_length()
    if k <= 8:
        # each r fills 2**(8 - k) entries; the padding is never read
        table = b"".join(
            bytes([i]) * (hi - lo << 8 - k)
            for i, (lo, hi) in enumerate(pairwise(cum), 1)
            if hi > lo
        ).ljust(256, b"\0")
        redraw = bytes(range(n << 8 - k, 256))

        def draw(count: int) -> bytes:
            out = b""
            while len(out) < count:
                m = count - len(out)
                top = getrandbits(32 * m).to_bytes(4 * m, "little")[3::4]
                out += top.translate(table, redraw)
            return out

    else:

        def draw(count: int) -> list:
            out: list = []
            while len(out) < count:
                out += filter(n.__gt__, map(getrandbits, repeat(k, count - len(out))))
            return list(map(bisect_right, repeat(cum), out))

    return draw


def _atom_sampler(mu: AtomicMeasure, rng: random.Random):
    """draw(count): count draws from mu as 1-based indices into mu.support(),
    made as count calls of rng.randrange(denominator) make them."""
    return _increment_sampler(rng.getrandbits, [0, *accumulate(mu._nums.values())])


def draw(mu: AtomicMeasure, n: int, rng: random.Random) -> dict:
    """n i.i.d. draws from mu, aggregated into counts: a dict from each
    drawn atom to its (positive) count, in vertex order.

    Uses exact cumulative-weight inversion: a uniform integer below the
    common denominator selects an atom, so the draw distribution is exactly
    mu, not a float approximation of it.  The draws, and the state rng is
    left in, are those of n calls of rng.randrange(denominator), made in
    bulk by _increment_sampler.
    """
    if n < 1:
        raise ValueError("need n >= 1 draws")
    atoms = [None, *mu._nums]  # index i draws atoms[i]
    sampler = _atom_sampler(mu, rng)
    counts: Counter = Counter()
    for start in range(0, n, _CHUNK):
        counts.update(sampler(min(_CHUNK, n - start)))
    return {atoms[i]: counts[i] for i in sorted(counts)}


def empirical(counts: Mapping) -> AtomicMeasure:
    """The relative-frequency measure count/n of a sample given by its
    counts; ValueError if a count is negative or none is positive."""
    return AtomicMeasure.from_masses(counts)


def shift(mu: AtomicMeasure, g: str, graph) -> AtomicMeasure:
    """Left-translate every atom by g, a vertex id of the free-group Cayley
    graph `graph`; weights are unchanged.

    Raises VertexIdError if g or an atom is not a vertex of the graph, g
    checked first.
    """
    return AtomicMeasure({graph.multiply(g, v): w for v, w in mu.items()})


def parse_mass(token: str) -> Fraction:
    """Parse an exact positive mass: integer, fraction p/q, or decimal string."""
    try:
        mass = Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise MeasureFormatError(f"bad mass {token!r}") from None
    if mass <= 0:
        raise MeasureFormatError(f"mass must be positive, got {token!r}")
    return mass


def parse_measure(text: str, vertex_parser=None, multi_token: bool = False) -> AtomicMeasure:
    """Parse 'vertex mass' lines into a normalized measure.

    vertex_parser maps the vertex token to a vertex id (default: int when the
    token looks like an integer, else the raw string); a ValueError or
    VertexIdError it raises becomes a MeasureFormatError that names the
    line.  With multi_token the
    vertex is every field before the mass, joined by single spaces, as in
    the free-group word "g1 g2" above rank 26; otherwise a line has exactly
    two fields.
    """
    parse = vertex_parser or (lambda tok: int(tok) if tok.lstrip("-").isdigit() else tok)
    masses: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if multi_token and len(parts) > 2:
            parts = [" ".join(parts[:-1]), parts[-1]]
        if len(parts) != 2:
            raise MeasureFormatError(f"line {lineno}: expected 'vertex mass', got {raw!r}")
        token, mass_tok = parts
        try:
            v = parse(token)
        except (ValueError, VertexIdError) as exc:
            raise MeasureFormatError(f"line {lineno}: bad vertex {token!r}: {exc}") from None
        mass = parse_mass(mass_tok)
        masses[v] = masses.get(v, 0) + mass
    if not masses:
        raise MeasureFormatError("measure file has no atoms")
    return AtomicMeasure.from_masses(masses)


def load_measure(path, vertex_parser=None, multi_token: bool = False) -> AtomicMeasure:
    return parse_measure(read_text(path, MeasureFormatError), vertex_parser, multi_token)
