"""Delannoy lattice paths as words over the step alphabet {N, E, D}.

A path is a start point plus a word of unit steps N = (0,1), E = (1,0),
D = (1,1).  Everything downstream (pattern avoidance, region restrictions,
the peak/diagonal rewriting maps) works on these words, so the word is kept
as a plain string: factor containment is substring containment and the
rewriting maps are string surgery.
"""

from __future__ import annotations

from functools import partial
from operator import attrgetter
from typing import Iterable, Iterator

Point = tuple[int, int]


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
        _set_start(self, start)
        _set_word(self, word)

    def __eq__(self, other: object) -> bool:  # _Record's, inlined: verify_bijection looks up every path
        if other.__class__ is not LatticePath:
            return NotImplemented
        return self.word == other.word and self.start == other.start

    def __hash__(self) -> int:
        return hash((self.start, self.word))

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


_set_start, _set_word = LatticePath.start.__set__, LatticePath.word.__set__  # the slots' own setters


def parse_path(text: str, start: Point = (0, 0)) -> LatticePath:
    """Build a path from a step word; empty text is the empty path."""
    return LatticePath(start=start, word=text)  # its check names the offending position


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


def _as_step(value: str | None) -> str | None:
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
    is not bounded by the recursion limit.  A prefix is held as "E" + prefix,
    how every completion's augmented word starts: a step is one concatenation,
    and a prefix dies once it ends with a forbidden factor (past that "E") or
    a forbidden augmented pattern, or leaves the region; inside the target's
    box no step overshoots.  On the last column or the top row the rest of the
    word is forced, so it is extended in place, letter by letter under the
    same two tests (at once, with no patterns), up to the first forbidden
    letter.  A whole word is then left with the step filters and the
    augmented occurrences that end at the closing N.
    """
    n, m = spec.target
    pats, augs = tuple(spec.forbidden), tuple(spec.forbidden_aug)
    k, first, last = spec.region_k, spec.first_step, spec.last_step
    if "E" in augs or (k is not None and m < k * n) or (0 in (n, m) and first not in (None, "EN"[n == 0])):
        return  # the leading E; a top-row tail below the region; a root on an axis has its first step forced
    seam = tuple(p[:-1] for p in augs if p[-1] == "N")  # the patterns met at the closing N, less that N
    steps = tuple(s for s in _STEPS_REVERSED if first in (None, s[0]))  # the root's; all after it
    stack = [("E", 0, 0)]
    while stack:
        a2, x, y = stack.pop()
        if x == n or y == m:
            c, end = ("N", len(a2) + m - y) if x == n else ("E", len(a2) + n - x)
            if not (pats or augs):
                a2 += c * (end - len(a2))
            while len(a2) < end:
                a2 += c
                if (pats and a2.endswith(pats, 1)) or (augs and a2.endswith(augs)):
                    break
            else:
                word = a2[1:]
                if first in (None, word[:1]) and last in (None, word[-1:]) and not (seam and a2.endswith(seam)):
                    yield word
            continue
        for c, dx, dy in steps:
            if k is not None and y + dy < k * (x + dx):
                continue
            a3 = a2 + c
            if not ((pats and a3.endswith(pats, 1)) or (augs and a3.endswith(augs))):
                stack.append((a3, x + dx, y + dy))
        steps = _STEPS_REVERSED


def enumerate_paths(spec: PathFamilySpec) -> Iterator[LatticePath]:
    """Yield every path of the family, in lexicographic word order E < N < D."""
    return map(partial(LatticePath, (0, 0)), _member_words(spec))


def count_bruteforce(spec: PathFamilySpec) -> int:
    """Cardinality of enumerate_paths(spec), without materializing the paths."""
    return sum(1 for _ in _member_words(spec))
