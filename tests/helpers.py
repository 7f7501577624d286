"""Helpers that only the tests use: the step alphabet as an enum, factor
containment, the augment/diminish pair on paths, the trinomial and Catalan
numbers, inversion sequences with their 102 test, the plain convolution of two
coefficient lists, and the k=1 radical check by squaring.  The library itself
works on plain step words, counts inversion sequences without listing them,
multiplies series by its own product kernel and checks the radical form by its
differential equation, so these live here."""

from __future__ import annotations

import enum
import itertools
import math
from typing import Iterator

from delannoy.counting import _exact, binomial
from delannoy.paths import _DISPLACEMENT, LatticePath, Point, _as_patterns, _Record
from delannoy.series import RadicalCheck, SeriesTriple


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


def double_sum(a: list[int], b: list[int]) -> list[int]:
    """The truncated product as the plain convolution: every (i, j) pair, no shortcut."""
    n = min(len(a), len(b))
    return [sum(a[i] * b[m - i] for i in range(m + 1)) for m in range(n)]


def radical_check_by_squaring(order: int, triple: SeriesTriple) -> RadicalCheck:
    """The k=1 radical check by series products: P = (1-x)^2 - 2 x^2 F squared against
    (1-x)^4 - 4 x^2 (1-x), with FD = x F and FE = (1-x) F - 1, O(order^2); the first
    index where any of the three pairs differs."""
    f, fd, fe = (list(s[: order + 1]) for s in (triple.f, triple.fd, triple.fe))
    one, x = [1] + [0] * order, [0, 1, *[0] * order][: order + 1]
    one_minus_x = [a - b for a, b in zip(one, x)]
    x2, square = double_sum(x, x), double_sum(one_minus_x, one_minus_x)
    p = [a - 2 * b for a, b in zip(square, double_sum(x2, f))]
    rhs = [a - 4 * b for a, b in zip(double_sum(square, square), double_sum(x2, one_minus_x))]
    pairs = ((double_sum(p, p), rhs), (fd, double_sum(x, f)),
             (fe, [a - b for a, b in zip(double_sum(one_minus_x, f), one)]))
    if all(left == right for left, right in pairs):
        return RadicalCheck(True, None)
    return RadicalCheck(False, next(
        i for i in range(order + 1) if any(left[i] != right[i] for left, right in pairs)))
