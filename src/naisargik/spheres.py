"""Deletion spheres and exhaustive s-deletion-correction checking.

The s-deletion sphere of a word x is the set of all distinct length-(|x|-s)
subsequences of x.  A codebook corrects s deletions exactly when all pairwise
spheres are disjoint; this module decides that by hashing every sphere member
and looking for collisions, which also yields an explicit witness on failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable

from .words import Word, ResourceLimitError

#: Refuse single-word sphere computations beyond this many index subsets.
DEFAULT_SPHERE_CAP = 10_000_000


@dataclass(frozen=True)
class CorrectionReport:
    """Outcome of an s-deletion-correction check over one codebook.

    ``witness`` is None exactly when ``ok`` is true; otherwise it is the
    lexicographically first violating pair together with the smallest word
    their spheres share.
    """

    ok: bool
    witness: tuple[Word, Word, Word] | None = None

    def __post_init__(self) -> None:
        if self.ok == (self.witness is not None):
            raise ValueError("witness must be present exactly on failure")


def _check_sphere_args(word: Word, s: int, cap: int) -> None:
    if not 0 <= s <= len(word):
        raise ValueError(f"deletion count {s} out of range for length {len(word)}")
    if comb(len(word), s) > cap:
        raise ResourceLimitError(
            f"sphere of a length-{len(word)} word at s={s} exceeds cap {cap}"
        )


def sphere_members(word: Word, s: int, cap: int = DEFAULT_SPHERE_CAP) -> frozenset[Word]:
    """The member set of D_s(word), by iterated single deletions with dedup."""
    _check_sphere_args(word, s, cap)
    members: set[Word] = {word}
    for _ in range(s):
        members = {w[:i] + w[i + 1 :] for w in members for i in range(len(w))}
    return frozenset(members)


def sphere_collisions(
    code: list[Word], s: int, cap: int = DEFAULT_SPHERE_CAP
) -> dict[Word, list[Word]]:
    """Each s-deletion sphere member shared by two or more words of ``code``,
    mapped to its owners in ascending order.

    ``code`` must be sorted and free of duplicates.  A member keeps only its
    first owner until a second one arrives.
    """
    first: dict[Word, Word] = {}
    shared: dict[Word, list[Word]] = {}
    for word in code:
        for member in sphere_members(word, s, cap):
            other = first.setdefault(member, word)
            if other != word:
                shared.setdefault(member, [other]).append(word)
    return shared


def check_deletion_correcting(
    codewords: Iterable[Word], s: int, cap: int = DEFAULT_SPHERE_CAP
) -> CorrectionReport:
    """Decide whether a codebook corrects s deletions.

    All codewords must share one length n >= s.  A sphere member shared by
    two codewords is a violation.  The reported witness pair is the
    lexicographically first violating pair, independent of iteration order:
    it leads the owner list of each member it shares, since a smaller first
    owner, or a word between the two, would make a smaller pair.
    """
    code = sorted(set(codewords))
    if code:
        n = len(code[0])
        if any(len(w) != n for w in code):
            raise ValueError("codebook must have a single word length")
        if s > n:
            raise ValueError(f"deletion count {s} exceeds word length {n}")
    shared = sphere_collisions(code, s, cap)
    witness = min(((o[0], o[1], m) for m, o in shared.items()), default=None)
    return CorrectionReport(ok=witness is None, witness=witness)
