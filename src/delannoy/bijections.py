"""Rewriting maps between pattern-avoiding path families.

pi contracts every peak (factor NE) of a North-East path into a diagonal
step; delta expands every diagonal step back into a peak.  tau matches the
EENN-avoiding North-East words whose augmented word does acquire an EENN
factor with the same family one corner lower.  verify_bijection checks any
such map exhaustively on finite families.
"""

from __future__ import annotations

from typing import Callable

from .paths import LatticePath, PathFamilySpec, _Record, enumerate_paths, satisfies


def pi_map(path: LatticePath) -> LatticePath:
    """Replace each factor NE by a D step (leftmost, non-overlapping scan).

    Occurrences of NE cannot overlap, so the scan order only fixes which of
    the equal results is produced.  Start and end points are preserved.
    """
    if "D" in path.word:
        raise ValueError("pi_map expects a North-East path (no diagonal steps)")
    return LatticePath(start=path.start, word=path.word.replace("NE", "D"))


def delta_map(path: LatticePath) -> LatticePath:
    """Replace each D step by the factor NE (inverse of pi_map on its image)."""
    if "NE" in path.word:
        raise ValueError("delta_map expects a peak-free path (no NE factor)")
    return LatticePath(start=path.start, word=path.word.replace("D", "NE"))


def _check_tau_operand(path: LatticePath, name: str) -> str:
    w = path.word
    if "D" in w:
        raise ValueError(f"{name} expects a North-East path (no diagonal steps)")
    if "EENN" in w:
        raise ValueError(f"{name} expects a word avoiding the factor EENN")
    return w


def tau_map(path: LatticePath) -> LatticePath:
    """Shrink an EENN-avoiding word whose augmented word contains EENN.

    Such a word either starts with ENN, ends with EEN, or is exactly EN
    (the augmented word E..N then contains EENN at the seam).  The image has
    one E and one N fewer:

      ENN b   -> N b      (takes precedence when the word also ends in EEN;
                           the other candidate would contain EENN)
      a EEN   -> E a
      EN      -> empty word
    """
    w = _check_tau_operand(path, "tau_map")
    if w == "EN":
        return LatticePath(start=path.start, word="")
    if w.startswith("ENN"):
        return LatticePath(start=path.start, word="N" + w[3:])
    if w.endswith("EEN"):
        return LatticePath(start=path.start, word="E" + w[:-3])
    raise ValueError(
        "tau_map expects a word whose augmented word contains EENN "
        "(starts with ENN, ends with EEN, or equals EN)"
    )


def tau_inverse(path: LatticePath) -> LatticePath:
    """Grow an EENN-avoiding word by one E and one N, undoing tau_map."""
    w = _check_tau_operand(path, "tau_inverse")
    if not w:
        return LatticePath(start=path.start, word="EN")
    if w[0] == "E":
        return LatticePath(start=path.start, word=w[1:] + "EEN")
    return LatticePath(start=path.start, word="ENN" + w[1:])


class BijectionReport(_Record):
    """Outcome of an exhaustive check of a map between two finite families."""

    __slots__ = ("domain_size", "codomain_size", "injective", "surjective", "images_in_codomain",
                 "counterexamples")
    _defaults = {"counterexamples": ()}

    @property
    def ok(self) -> bool:
        return (
            self.injective
            and self.surjective
            and self.images_in_codomain
            and self.domain_size == self.codomain_size
        )

    def __bool__(self) -> bool:
        return self.ok


def verify_bijection(
    domain: PathFamilySpec,
    mapping: Callable[[LatticePath], LatticePath],
    codomain: PathFamilySpec,
    domain_exclude: PathFamilySpec | None = None,
) -> BijectionReport:
    """Map each domain path once and test bijectivity exhaustively.

    ``domain_exclude`` drops the paths that also satisfy a second spec, so set
    differences such as "all EENN-avoiders minus those whose augmented path
    avoids EENN" are expressible.  Each image is tested with ``satisfies`` and
    keeps its first preimage; every failure records a (reason, paths...)
    witness, and each verdict holds exactly when it has none.  ``satisfies``
    judges images and exclusions apart from the walker, and ``ok`` also needs
    equal sizes, the only check on a codomain walk that drops an image.
    """
    outside: list[tuple] = []
    collisions: list[tuple] = []
    preimage: dict[LatticePath, LatticePath] = {}
    for p in enumerate_paths(domain):
        if domain_exclude is not None and satisfies(p, domain_exclude):
            continue
        q = mapping(p)
        if not satisfies(q, codomain):
            outside.append(("image outside codomain", p, q))
        if q in preimage:
            collisions.append(("collision", preimage[q], p, q))
        else:
            preimage[q] = p
    codomain_paths = list(enumerate_paths(codomain))
    missed = [("not hit", q) for q in codomain_paths if q not in preimage]
    return BijectionReport(  # the domain's paths are each a first preimage or a collision
        len(preimage) + len(collisions), len(codomain_paths), not collisions, not missed, not outside,
        tuple(outside + collisions + missed))
