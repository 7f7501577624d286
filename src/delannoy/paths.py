"""Delannoy lattice paths as words over the step alphabet {N, E, D}.

A path is a start point plus a word of unit steps N = (0,1), E = (1,0),
D = (1,1).  Everything downstream (pattern avoidance, region restrictions,
the peak/diagonal rewriting maps) works on these words, so the word is kept
as a plain string: factor containment is substring containment and the
rewriting maps are string surgery.
"""

from __future__ import annotations

import enum
from operator import attrgetter
from typing import Iterable, Iterator

Point = tuple[int, int]


class Step(str, enum.Enum):
    """The three admissible unit steps."""

    N = "N"
    E = "E"
    D = "D"
    __str__ = str.__str__  # str(Step.D) is "D", so a member works wherever its letter does

    @property
    def displacement(self) -> Point:
        return _DISPLACEMENT[self.value]


_DISPLACEMENT: dict[str, Point] = {"N": (0, 1), "E": (1, 0), "D": (1, 1)}
_STEP_CHARS = frozenset(_DISPLACEMENT)

# Enumeration emits words in lexicographic order under E < N < D; the order is
# part of the output contract, so it is fixed here once.  The walker pushes
# the steps on a stack, so they are listed largest first.
_STEPS_REVERSED: tuple[tuple[str, int, int], ...] = (("D", 1, 1), ("N", 0, 1), ("E", 1, 0))


def _check_word(text: str) -> None:
    if _STEP_CHARS.issuperset(text):  # one C-level pass; the loop only names the culprit
        return
    for i, c in enumerate(text):
        if c not in _DISPLACEMENT:
            raise ValueError(f"invalid step character {c!r} at position {i}")


class _Record:
    """An immutable record of the fields its class's ``__slots__`` names: equal and hashed field by
    field within its class, shown as Name(field=value, ...), pickled and copied by its constructor."""

    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls) -> None:
        cls._key = staticmethod(attrgetter(*cls.__slots__))  # the one field, or a tuple
        cls.__match_args__ = cls.__slots__  # case Name(a, b) binds the fields in order

    def __init__(self, *args, **kwargs) -> None:  # fields by position or keyword, or from _defaults
        names = self.__slots__
        if kwargs or len(args) != len(names):  # bound as a call to Name(*names) would bind them
            values = {**self._defaults, **dict(zip(names, args)), **kwargs}
            if len(args) > len(names) or values.keys() != set(names) or kwargs.keys() & names[:len(args)]:
                raise TypeError(f"{type(self).__name__}{names}: {len(args)} positional, {sorted(kwargs)}")
            args = map(values.get, names)
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        return self._key(self) == self._key(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self.__slots__)})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class LatticePath(_Record):
    """A start point and a step word; two paths are equal iff both agree."""

    __slots__ = ("start", "word")

    def __init__(self, start: Point = (0, 0), word: str = "") -> None:
        _check_word(word)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "word", word)

    def __len__(self) -> int:
        return len(self.word)

    @property
    def end(self) -> Point:
        (x, y), w = self.start, self.word
        d = w.count("D")
        return (x + w.count("E") + d, y + w.count("N") + d)

    def vertices(self) -> list[Point]:
        """All visited points, start first, end last (length |word| + 1)."""
        x, y = self.start
        out = [(x, y)]
        for c in self.word:
            dx, dy = _DISPLACEMENT[c]
            x, y = x + dx, y + dy
            out.append((x, y))
        return out


def parse_path(text: str, start: Point = (0, 0)) -> LatticePath:
    """Build a path from a step word; empty text is the empty path."""
    return LatticePath(start=start, word=text)  # its check names the offending position


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


def in_region(path: LatticePath, k: int) -> bool:
    """True iff every vertex (x, y) of the path satisfies y >= k*x."""
    k = _as_slope(k)
    return all(y >= k * x for x, y in path.vertices())


def _as_slope(k) -> int:
    # a bool or a fraction is refused; an integral float such as 2.0 becomes 2
    if isinstance(k, bool) or int(k) != k or k < 1:
        raise ValueError(f"slope k must be a positive integer, got {k!r}")
    return int(k)


def _as_patterns(patterns: Iterable[str]) -> frozenset[str]:
    if isinstance(patterns, str):  # its letters would each become a pattern
        raise ValueError(f"patterns must be a collection of words, not the string {patterns!r}")
    out = frozenset(str(p) for p in patterns)
    for p in out:
        if not p:
            raise ValueError("pattern word must be nonempty")
        _check_word(p)
    return out


def _as_step(value: str | Step | None) -> str | None:
    if value is None:
        return None
    c = str(value)
    if c not in _DISPLACEMENT:
        raise ValueError(f"invalid step {value!r}")
    return c


class PathFamilySpec(_Record):
    """A finite family of paths from the origin to ``target``.

    A path satisfies the spec iff it runs origin -> target, avoids every word
    in ``forbidden`` as a factor, its augmented path avoids every word in
    ``forbidden_aug``, all its vertices lie in y >= region_k * x (when set),
    and its first/last steps match the filters (when set).
    """

    __slots__ = ("target", "forbidden", "forbidden_aug", "region_k", "first_step", "last_step")

    def __init__(self, target: Point, forbidden: Iterable[str] = frozenset(),
                 forbidden_aug: Iterable[str] = frozenset(), region_k: int | None = None,
                 first_step: str | None = None, last_step: str | None = None) -> None:
        x, y = target
        if int(x) != x or int(y) != y:
            raise ValueError(f"corner coordinates must be integers, got {target}")
        _check_corner(int(x), int(y))
        super().__init__((int(x), int(y)), _as_patterns(forbidden), _as_patterns(forbidden_aug),
                         None if region_k is None else _as_slope(region_k),
                         _as_step(first_step), _as_step(last_step))


def satisfies(path: LatticePath, spec: PathFamilySpec) -> bool:
    """Membership test for the family described by ``spec``."""
    if path.start != (0, 0) or path.end != spec.target:
        return False
    if any(p in path.word for p in spec.forbidden):
        return False
    if spec.region_k is not None and not in_region(path, spec.region_k):
        return False
    word = path.word
    if spec.first_step is not None and word[:1] != spec.first_step:
        return False
    if spec.last_step is not None and word[-1:] != spec.last_step:
        return False
    aug = "E" + word + "N"
    return not any(p in aug for p in spec.forbidden_aug)


def _check_corner(n: int, m: int) -> None:
    if n < 0 or m < 0:
        raise ValueError(f"corner coordinates must be nonnegative, got ({n}, {m})")


def _member_words(spec: PathFamilySpec) -> Iterator[str]:
    """Yield the words of the family, in lexicographic order E < N < D.

    Depth-first walk over prefixes on an explicit stack, so the path length
    is not bounded by the recursion limit.  Steps never decrease a
    coordinate, so a prefix dies as soon as it overshoots the target, leaves
    the region, or completes a forbidden factor.  Every completion's
    augmented word starts with "E" + prefix, so a prefix also dies as soon as
    that string ends with a forbidden augmented pattern; the lone leading
    "E" is checked once, before the walk.  A prefix that reaches the target
    is a whole word, and there only the step filters and the augmented
    occurrences that end at the closing N are left to check.
    """
    n, m = spec.target
    pats = tuple(spec.forbidden)
    augs = tuple(spec.forbidden_aug)
    k = spec.region_k
    first, last = spec.first_step, spec.last_step
    if "E" in augs:
        return
    stack = [("", 0, 0)]
    while stack:
        word, x, y = stack.pop()
        if x == n and y == m:
            if (first is None or word[:1] == first) and (last is None or word[-1:] == last):
                if not (augs and ("E" + word + "N").endswith(augs)):
                    yield word
            continue
        for c, dx, dy in _STEPS_REVERSED:
            if not word and first is not None and c != first:
                continue
            x2, y2 = x + dx, y + dy
            if x2 > n or y2 > m:
                continue
            if k is not None and y2 < k * x2:
                continue
            w2 = word + c
            if pats and w2.endswith(pats):
                continue
            if augs and ("E" + w2).endswith(augs):
                continue
            stack.append((w2, x2, y2))


def enumerate_paths(spec: PathFamilySpec) -> Iterator[LatticePath]:
    """Yield every path of the family, in lexicographic word order E < N < D."""
    return (LatticePath(word=w) for w in _member_words(spec))


def count_bruteforce(spec: PathFamilySpec) -> int:
    """Cardinality of enumerate_paths(spec), without materializing the paths."""
    return sum(1 for _ in _member_words(spec))
