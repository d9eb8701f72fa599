"""Deletion spheres and exhaustive s-deletion-correction checking.

The s-deletion sphere D_s(x) of a word x is the set of all distinct
length-(|x|-s) subsequences of x.  A codebook corrects s deletions exactly when
all pairwise spheres are disjoint; this module decides that by hashing every
sphere member and looking for collisions, which also yields an explicit witness
on failure.

One kernel builds every sphere.  It peels D_s off one level at a time and, at
each level, deletes one symbol per run only: deleting any symbol of a run gives
the same word, so |D_1(x)| is the number of runs of x (Levenshtein, 1966).
Members are packed as ``bytes``, one byte per symbol, which restricts symbols to
range(256); words cross the public API as ``tuple``s.  ``sphere_collisions``
holds at most ``cap`` distinct members across a codebook, and any one sphere
is refused when its C(n, s) index subsets exceed ``cap``.
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


def _check_sphere_args(n: int, s: int, cap: int) -> None:
    if not 0 <= s <= n:
        raise ValueError(f"deletion count {s} out of range for length {n}")
    if comb(n, s) > cap:
        raise ResourceLimitError(f"sphere of a length-{n} word at s={s} exceeds cap {cap}")


def _packed_sphere(word: Word, s: int) -> set[bytes]:
    """D_s(word) with each member packed as bytes, one deletion per run per level."""
    try:
        level = {bytes(word)}
    except ValueError:
        bad = next(sym for sym in word if not 0 <= sym < 256)
        raise ValueError(f"sphere words take symbols in range(256), not {bad}") from None
    for _ in range(s):
        below: set[bytes] = set()
        add = below.add
        for w in level:
            prev = -1
            for i, sym in enumerate(w):
                if sym != prev:
                    add(w[:i] + w[i + 1 :])
                    prev = sym
        level = below
    return level


def sphere_members(word: Word, s: int, cap: int = DEFAULT_SPHERE_CAP) -> frozenset[Word]:
    """The member set of D_s(word)."""
    _check_sphere_args(len(word), s, cap)
    return frozenset(tuple(m) for m in _packed_sphere(word, s))


def sphere_collisions(
    code: list[Word], s: int, cap: int = DEFAULT_SPHERE_CAP
) -> dict[Word, list[Word]]:
    """Each s-deletion sphere member shared by two or more words of ``code``,
    mapped to its owners in ascending order.

    ``code`` must be sorted, free of duplicates and of a single word length.
    A member keeps only its first owner until a second one arrives.  Raises
    ``ResourceLimitError`` once more than ``cap`` distinct members are held.
    """
    if not code:
        return {}
    _check_sphere_args(len(code[0]), s, cap)
    first: dict[bytes, Word] = {}
    shared: dict[bytes, list[Word]] = {}
    for word in code:
        for member in _packed_sphere(word, s):
            other = first.setdefault(member, word)
            if other != word:
                shared.setdefault(member, [other]).append(word)
        if len(first) > cap:
            raise ResourceLimitError(
                f"{len(first)} distinct s={s} sphere members exceed cap {cap}"
            )
    return {tuple(m): owners for m, owners in shared.items()}


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
    if any(len(w) != len(code[0]) for w in code):
        raise ValueError("codebook must have a single word length")
    shared = sphere_collisions(code, s, cap)
    witness = min(((o[0], o[1], m) for m, o in shared.items()), default=None)
    return CorrectionReport(ok=witness is None, witness=witness)
