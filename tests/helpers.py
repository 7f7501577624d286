"""Helpers that only the tests use: the step alphabet as an enum, factor
containment, the augment/diminish pair on paths, the trinomial and Catalan
numbers, and inversion sequences with their 102 test.  The library itself
works on plain step words and counts inversion sequences without listing
them, so these live here."""

from __future__ import annotations

import enum
import itertools
import math
from typing import Iterator

from delannoy.counting import _exact, binomial
from delannoy.paths import _DISPLACEMENT, LatticePath, Point, _as_patterns, _Record


class Step(str, enum.Enum):
    """The three admissible unit steps."""

    N = "N"
    E = "E"
    D = "D"
    __str__ = str.__str__  # str(Step.D) is "D", so a member works wherever its letter does

    @property
    def displacement(self) -> Point:
        return _DISPLACEMENT[self.value]


def contains_pattern(path: LatticePath, pattern: str) -> bool:
    """True iff the pattern word occurs as a factor (consecutive steps)."""
    _as_patterns((pattern,))
    return pattern in path.word


def augment(path: LatticePath) -> LatticePath:
    """Prepend an E step and append an N step.

    The start moves one unit west so that the original path's vertices are
    unchanged; the end moves one unit north.
    """
    sx, sy = path.start
    return LatticePath(start=(sx - 1, sy), word="E" + path.word + "N")


def diminish(path: LatticePath) -> LatticePath:
    """Drop the first and last steps (inverse of augment on its image)."""
    if len(path.word) < 2:
        raise ValueError("diminish needs a path with at least two steps")
    sx, sy = path.start
    dx, dy = _DISPLACEMENT[path.word[0]]
    return LatticePath(start=(sx + dx, sy + dy), word=path.word[1:-1])


def multinomial(top: int, a: int, b: int, c: int) -> int:
    """Trinomial coefficient top! / (a! b! c!); 0 if any lower index is negative."""
    if a < 0 or b < 0 or c < 0:
        return 0
    if top != a + b + c:
        raise ValueError(f"multinomial top {top} != {a} + {b} + {c}")
    return math.comb(top, a) * math.comb(top - a, b)


def catalan(n: int) -> int:
    """The n-th Catalan number C(2n, n) / (n + 1)."""
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    return _exact(binomial(2 * n, n), n + 1, f"catalan({n})")


class InversionSequence(_Record):
    """e_1 .. e_n with 0 <= e_i <= i-1; contains 102 iff e_j < e_i < e_k for i<j<k."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[int, ...]) -> None:
        ints = tuple(map(int, entries))
        for i, (e, given) in enumerate(zip(ints, entries)):
            if e != given or not 0 <= e <= i:  # 1.0 is 1; 1.7 is refused, not truncated
                raise ValueError(f"entry {given} at position {i + 1} is not an integer in [0, {i}]")
        object.__setattr__(self, "entries", ints)

    def has_pattern_102(self) -> bool:
        e = self.entries
        n = len(e)
        for i in range(n):
            for j in range(i + 1, n):
                if e[j] >= e[i]:
                    continue
                for k in range(j + 1, n):
                    if e[k] > e[i]:
                        return True
        return False


def inversion_sequences(n: int) -> Iterator[tuple[int, ...]]:
    """All inversion sequences of length n (there are n! of them)."""
    if n < 0:
        raise ValueError(f"length must be nonnegative, got {n}")
    return itertools.product(*(range(i + 1) for i in range(n)))
