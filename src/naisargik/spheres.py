"""Deletion spheres and exhaustive s-deletion-correction checking.

The s-deletion sphere D_s(x) of a word x is the set of all distinct
length-(|x|-s) subsequences of x.  A codebook corrects s deletions exactly when
all pairwise spheres are disjoint, and two length-n words' spheres meet exactly
when their longest common subsequence (LCS) has length at least n - s
(Levenshtein, 1966).  ``check_deletion_correcting`` decides a codebook by one
of two routes, chosen per call from its size k, its length n and s:

* pairs: the LCS of each pair in ``combinations`` order over the sorted
  codebook, by the bit-parallel recurrence of Allison and Dix (1986), O(n)
  integer operations a pair, stopping at the first pair that meets;
* hashing: ``sphere_collisions`` hashes every sphere member once, k spheres
  in all.

Pairs are taken when (k - 1) * n <= 16 * C(ceil(n/2) + s - 1, s); the right
side estimates one sphere by a word of ceil(n/2) runs.  Both routes report the
same canonical witness: the lexicographically first pair that meets and the
smallest member of its two spheres' intersection.

One kernel builds every sphere.  It peels D_s off one level at a time and, at
each level, deletes one symbol per run only: deleting any symbol of a run gives
the same word, so |D_1(x)| is the number of runs of x (Levenshtein, 1966).
Members are packed as ``bytes``, one byte per symbol, which restricts symbols to
range(256) on both routes; words cross the public API as ``tuple``s.  Any one
sphere is refused when its C(n, s) index subsets exceed ``cap``, on both
routes; ``sphere_collisions``, and so only the hashing route, also holds at
most ``cap`` distinct members across a codebook.
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


def _pack(word: Word) -> bytes:
    try:
        return bytes(word)
    except ValueError:
        bad = next(sym for sym in word if not 0 <= sym < 256)
        raise ValueError(f"sphere words take symbols in range(256), not {bad}") from None


def _packed_sphere(word: Word, s: int) -> set[bytes]:
    """D_s(word) with each member packed as bytes, one deletion per run per level."""
    level = {_pack(word)}
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


def _first_meeting_pair(code: list[bytes], s: int) -> tuple[int, int] | None:
    """Indices of the first pair of ``code``, in ``combinations`` order, whose
    LCS is at least n - s, or None.

    Bit-parallel LCS (Allison and Dix, 1986): bit i of ``match[sym]`` marks
    y[i] == sym, and after every symbol of x the zero bits of the low n bits of
    v count LCS(x, y).  Carries past bit n - 1 never reach the low bits.
    """
    n = len(code[0])
    low = (1 << n) - 1
    alphabet = max(b"".join(code), default=0) + 1
    matches = []
    for y in code:
        match = [0] * alphabet
        bit = 1
        for sym in y:
            match[sym] |= bit
            bit <<= 1
        matches.append(match)
    for i, x in enumerate(code):
        for j in range(i + 1, len(code)):
            match = matches[j]
            v = low
            for sym in x:
                u = v & match[sym]
                v = (v + u) | (v - u)
            if (v & low).bit_count() <= s:
                return i, j
    return None


def check_deletion_correcting(
    codewords: Iterable[Word], s: int, cap: int = DEFAULT_SPHERE_CAP
) -> CorrectionReport:
    """Decide whether a codebook corrects s deletions.

    All codewords must share one length n >= s.  A sphere member shared by
    two codewords is a violation.  The reported witness pair is the
    lexicographically first violating pair, independent of iteration order
    and of the route (see the module docstring): the pair route meets it
    first, and on the hashing route it leads the owner list of each member it
    shares, since a smaller first owner, or a word between the two, would
    make a smaller pair.
    """
    code = sorted(set(codewords))
    if not code:
        return CorrectionReport(ok=True)
    n, k = len(code[0]), len(code)
    if any(len(w) != n for w in code):
        raise ValueError("codebook must have a single word length")
    _check_sphere_args(n, s, cap)
    # Pairs cost about k^2 * n / 2 steps and hashing k spheres, estimated at
    # C(ceil(n/2) + s - 1, s) members each.  Timed on campaign classes
    # (n = 6..18, s = 1..4, k <= 40; 2 vCPUs, Python 3.11), the two routes
    # cost the same where (k - 1) * n is 14 to 16 times the estimate, both at
    # s = 1 (k of 9 at n = 6..9) and at s = 2 (k of 36 at n = 18).
    if (k - 1) * n > 16 * comb((n + 1) // 2 + s - 1, s):
        shared = sphere_collisions(code, s, cap)
        witness = min(((o[0], o[1], m) for m, o in shared.items()), default=None)
        return CorrectionReport(ok=witness is None, witness=witness)
    pair = _first_meeting_pair([_pack(w) for w in code], s)
    if pair is None:
        return CorrectionReport(ok=True)
    x, y = (code[i] for i in pair)
    shared = tuple(min(_packed_sphere(x, s) & _packed_sphere(y, s)))
    return CorrectionReport(ok=False, witness=(x, y, shared))
