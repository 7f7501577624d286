"""Equinumerosity checks between path families and other combinatorial families.

Two open correspondences are tested numerically:

1. peak/valley-free paths on y >= x ending at (n, n) with an east step, versus
   North-East paths to (n+1, n+1) weakly above the diagonal with no symmetric
   peak (a peak whose maximal N-run and E-run have equal length);
2. peak/valley-free paths on y >= 2x ending at (n, 2n) with a diagonal step,
   versus inversion sequences of length n with no (strict) 102 pattern.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .counting import family_spec
from .paths import PathFamilySpec, count_bruteforce, enumerate_paths


@dataclass(frozen=True)
class InversionSequence:
    """e_1 .. e_n with 0 <= e_i <= i-1; contains 102 iff e_j < e_i < e_k for i<j<k."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(int(e) for e in self.entries))
        for i, e in enumerate(self.entries):
            if not 0 <= e <= i:
                raise ValueError(f"entry {e} at position {i + 1} outside [0, {i}]")

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


def count_inversion_102(n: int) -> int:
    """Number of inversion sequences of length n avoiding the pattern 102.

    Depth-first construction with an incremental test: appending e creates an
    occurrence (as its final entry) iff some earlier pair e_j < e_i has
    e_i < e.  Only the minimal such e_i matters, so the search carries that
    single threshold and extends a prefix only while e <= threshold.
    """
    if n < 1:
        raise ValueError(f"length must be positive, got {n}")
    prefix: list[int] = []

    def extend(pos: int, threshold: int) -> int:
        if pos == n:
            return 1
        total = 0
        for e in range(pos + 1):
            if e > threshold:
                continue
            new_threshold = threshold
            for earlier in prefix:
                if e < earlier < new_threshold:
                    new_threshold = earlier
            prefix.append(e)
            total += extend(pos + 1, new_threshold)
            prefix.pop()
        return total

    return extend(0, n)  # thresholds never exceed n-1, so n acts as infinity


def _has_symmetric_peak(word: str) -> bool:
    for p in range(len(word) - 1):
        if word[p] == "N" and word[p + 1] == "E":
            i = p
            while i > 0 and word[i - 1] == "N":
                i -= 1
            j = p + 1
            while j + 1 < len(word) and word[j + 1] == "E":
                j += 1
            if (p - i) == (j - p - 1):  # N-run length == E-run length
                return True
    return False


def count_catalan_no_symmetric_peak(n: int) -> int:
    """North-East paths to (n, n) weakly above y = x with no symmetric peak."""
    if n < 1:
        raise ValueError(f"size must be positive, got {n}")
    spec = PathFamilySpec(target=(n, n), forbidden=frozenset({"D"}), region_k=1)
    return sum(1 for path in enumerate_paths(spec) if not _has_symmetric_peak(path.word))


@dataclass(frozen=True)
class ConjectureReport:
    """Side-by-side counts for one conjecture, for each size up to n_max."""

    which: int
    n_max: int
    rows: tuple[tuple[int, int, int], ...]  # (n, path count, partner count)

    @property
    def verdict(self) -> bool:
        return all(lhs == rhs for _, lhs, rhs in self.rows)

    def __bool__(self) -> bool:
        return self.verdict


# Conjecture number -> (region slope k, last step of the peak/valley-free
# paths to (n, kn), partner count at size n).  The partners are looked up when
# called, so rebinding them on the module reaches the check.
_CONJECTURES = {
    1: (1, "E", lambda n: count_catalan_no_symmetric_peak(n + 1)),
    2: (2, "D", lambda n: count_inversion_102(n)),
}


def _check(which: int, n_max: int) -> ConjectureReport:
    if n_max < 1:
        raise ValueError(f"n_max must be positive, got {n_max}")
    k, last, partner = _CONJECTURES[which]
    rows = tuple(
        (n, count_bruteforce(family_spec("h", n, k * n, region_k=k, last_step=last)), partner(n))
        for n in range(1, n_max + 1)
    )
    return ConjectureReport(which=which, n_max=n_max, rows=rows)


def check_conjecture1(n_max: int) -> ConjectureReport:
    """Peak/valley-free paths on y >= x to (n, n) ending in E, versus
    symmetric-peak-free Catalan paths of size n + 1, for 1 <= n <= n_max."""
    return _check(1, n_max)


def check_conjecture2(n_max: int) -> ConjectureReport:
    """Peak/valley-free paths on y >= 2x to (n, 2n) ending in D, versus
    102-avoiding inversion sequences of length n, for 1 <= n <= n_max."""
    return _check(2, n_max)
