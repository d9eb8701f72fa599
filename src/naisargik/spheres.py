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

Pairs are taken when (k - 1) * n <= 12 * C(ceil(n/2) + s - 1, s); the right
side estimates one sphere by a word of ceil(n/2) runs.  Both routes report the
same canonical witness: the lexicographically first pair that meets and the
smallest member of its two spheres' intersection.

One kernel, ``_peel``, builds every sphere, level by level and for all words
of a class at once, deleting one symbol per run only: deleting any symbol of
a run gives the same word (Levenshtein, 1966).  The pair route builds no
sphere: its witness, the least common subsequence of length n - s, comes
from a greedy walk over the same LCS recurrence.  Members are packed as
``bytes``, one byte per symbol, so symbols lie in range(256); words cross
the public API as ``tuple``s.  Any one sphere is refused when its C(n, s)
index subsets exceed ``cap``, on both routes; ``sphere_collisions``, and so
only the hashing route, also refuses a class whose spheres hold more than
``cap`` distinct members, and expands at most about ``cap`` members at a time.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress
from math import comb
from operator import lt
from struct import Struct, unpack
from typing import Iterable, Sequence

from .words import Word, ResourceLimitError

#: Refuse single-word sphere computations beyond this many index subsets.
DEFAULT_SPHERE_CAP = 10_000_000

#: A class goes by pairs while (k - 1) * n is at most this many times the
#: estimated size of one sphere (see ``check_deletion_correcting``).
_PAIRS_PER_MEMBER = 12


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


def _pack(words: Iterable[Word]) -> bytes:
    """The words end to end, one byte per symbol, packed in one C-level pass."""
    try:
        return bytes(bytearray(chain.from_iterable(words)))
    except ValueError:
        bad = next(sym for sym in chain.from_iterable(words) if not 0 <= sym < 256)
        raise ValueError(f"sphere words take symbols in range(256), not {bad}") from None


#: ``bytes.translate`` table sending every nonzero byte to 1.
_NONZERO = bytes(1) + b"\x01" * 255


def _delete_one_per_run(
    blob: bytes, w: int, owners: Sequence[int], first: Sequence[int]
) -> tuple[list[bytes], array, list[int]]:
    """The next deletion level of the w-symbol members laid end to end in
    ``blob``: each new member beside its owner, grouped by the position p
    deleted, with the index just past each group.

    Read as one big-endian integer x, each member is a w-byte lane.  Lane by
    lane, y holds a zero byte, the member's bytes before p and its bytes after
    p, so unpacking y skips one byte and cuts one member with p deleted from
    every lane; moving from p to p + 1 copies byte p of x into byte p + 1 of
    y.  Only the last symbol of a run is deleted (p = w - 1, or x_p differs
    from x_(p+1)), which leaves one member per run (Levenshtein, 1966).
    Only lanes i >= first[p] lose p, and only they are cut; ``_peel`` passes
    the group ends of the level above, so deletions run right to left.
    """
    lanes = len(owners)
    size = lanes * w
    x = int.from_bytes(blob, "big")
    shifted = x >> 8
    # Byte i of ``ends`` is 1 exactly where byte i of x differs from byte
    # i - 1, so ends[p + 1 :: w] marks the lanes whose symbol p ends a run.
    ends = (x ^ shifted).to_bytes(size, "big").translate(_NONZERO)
    column = int.from_bytes((b"\xff" + bytes(w - 1)) * lanes, "big")
    y = x ^ (x & column)
    cut = Struct(f"x{w - 1}s" * lanes).unpack_from
    members: list[bytes] = []
    held = array("q")
    after: list[int] = []
    for p in range(w):
        f = first[p]
        keep = ends[f * w + p + 1 :: w] if p + 1 < w else b"\x01" * (lanes - f)
        cut_tail = Struct(f"x{w - 1}s" * (lanes - f)).unpack_from if f else cut
        members.extend(compress(cut_tail(y.to_bytes(size, "big"), f * w), keep))
        held.extend(compress(owners[f:], keep))
        after.append(len(members))
        column >>= 8
        y ^= (y ^ shifted) & column
    return members, held, after


def _peel(blob: bytes, n: int, s: int, owners: range) -> tuple[list[bytes], Sequence[int]]:
    """D_s of words ``owners`` of the n-symbol words laid end to end in
    ``blob`` (one word at s = 0), each member beside its owner.  A member may
    lose only a symbol left of the one it lost last, so each member of D_s is
    reached once per owner, through its leftmost embedding: the only deletion
    set whose every deleted symbol differs from the next kept one."""
    members, first = [blob[owners.start * n : owners.stop * n]], [0] * n
    for t in range(s):
        members, owners, first = _delete_one_per_run(b"".join(members), n - t, owners, first)
    return members, owners


def _shared_members(code: Sequence[Word], s: int, cap: int) -> dict[bytes, list[int]]:
    """``sphere_collisions`` with each member packed and its owners given by
    their indices into ``code``.

    ``_peel`` reaches no (member, owner) pair twice, so members are counted: a
    first pass counts each member's owners and the distinct members against
    ``cap``, in chunks of words that expand to at most about ``cap`` members;
    a second pass groups by owner only the members counted twice or more,
    rebuilding each chunk unless there was only one.
    """
    if not code:
        return {}
    n, k = len(code[0]), len(code)
    if set(map(len, code)) != {n}:
        raise ValueError("codebook must have a single word length")
    _check_sphere_args(n, s, cap)
    blob = _pack(code)
    if s == 0 or k == 1:
        # Distinct words share no member when nothing is deleted, and one
        # sphere holds at most C(n, s) <= cap members.
        if k > cap:
            raise ResourceLimitError(f"{k} distinct s={s} sphere members exceed cap {cap}")
        return {}
    step = max(1, cap // max(comb(n, t) for t in range(1, s + 1)))
    chunks = [range(start, min(start + step, k)) for start in range(0, k, step)]
    counts: Counter[bytes] = Counter()
    for chunk in chunks:
        pairs = _peel(blob, n, s, chunk)
        counts.update(pairs[0])
        if len(counts) > cap:
            raise ResourceLimitError(
                f"{len(counts)} distinct s={s} sphere members exceed cap {cap}"
            )
    if counts.total() == len(counts):
        return {}
    hits = sorted(m for m, c in counts.items() if c > 1)
    shared: dict[bytes, list[int]] = {m: [] for m in hits}
    for chunk in chunks:
        members, owners = pairs if len(chunks) == 1 else _peel(blob, n, s, chunk)
        for m, o in compress(zip(members, owners), map(shared.__contains__, members)):
            shared[m].append(o)
    for owners in shared.values():
        owners.sort()
    return shared


def sphere_members(word: Word, s: int, cap: int = DEFAULT_SPHERE_CAP) -> frozenset[Word]:
    """The member set of D_s(word)."""
    _check_sphere_args(len(word), s, cap)
    return frozenset(map(tuple, _peel(_pack((word,)), len(word), s, range(1))[0]))


def sphere_collisions(
    code: Sequence[Word], s: int, cap: int = DEFAULT_SPHERE_CAP
) -> dict[Word, list[Word]]:
    """Each s-deletion sphere member shared by two or more words of ``code``,
    mapped to its owners in ascending order; the members come in ascending
    order too.

    ``code`` must be sorted, free of duplicates and of a single word length.
    Raises ``ResourceLimitError`` once more than ``cap`` distinct members are
    held.
    """
    return {
        tuple(m): [code[i] for i in owners]
        for m, owners in _shared_members(code, s, cap).items()
    }


def _match(word: Sequence[int], alphabet: int) -> list[int]:
    """Bit i of entry sym marks word[i] == sym, for sym in range(alphabet)."""
    match = [0] * alphabet
    bit = 1
    for sym in word:
        match[sym] |= bit
        bit <<= 1
    return match


def _first_meeting_pair(blob: bytes, n: int, s: int) -> tuple[int, int] | None:
    """Indices of the first pair of the n-symbol words laid end to end in
    ``blob``, in ``combinations`` order, whose LCS is at least n - s, or None.

    Bit-parallel LCS (Allison and Dix, 1986) against ``_match(y)``: after
    every symbol of x, the zero bits of the low n bits of v count LCS(x, y).
    Carries past bit n - 1 never reach the low bits.
    """
    code = unpack(f"{n}s" * (len(blob) // n), blob)
    low = (1 << n) - 1
    alphabet = max(blob) + 1
    # The first word is never the second of a pair, so it needs no table.
    matches = [_match(y, alphabet) for y in code[1:]]
    for i, x in enumerate(code):
        for j in range(i, len(matches)):
            match = matches[j]
            v = low
            for sym in x:
                u = v & match[sym]
                v = (v + u) | (v - u)
            if (v & low).bit_count() <= s:
                return i, j + 1
    return None


def _least_common_member(x: Word, y: Word, s: int) -> Word:
    """The least common subsequence of length n - s of two n-symbol words,
    which is the least member of D_s(x) & D_s(y) when their LCS is that long.

    Row i of the recurrence of ``_first_meeting_pair`` over x and y reversed
    counts LCS(x[n - i :], y[n - j :]) in its zero bits below bit j; each step
    takes the least symbol whose next occurrences leave a long enough LCS."""
    n = len(x)
    match = _match(y[::-1], 256)
    rows = [(1 << n) - 1]
    for sym in reversed(x):
        u = rows[-1] & match[sym]
        rows.append((rows[-1] + u) | (rows[-1] - u))
    member, i, j = [], 0, 0
    for need in range(n - s - 1, -1, -1):
        for sym in sorted(set(x[i:]) & set(y[j:])):
            a, b = x.index(sym, i) + 1, y.index(sym, j) + 1
            if n - b - (rows[n - a] & ((1 << (n - b)) - 1)).bit_count() >= need:
                break
        member.append(sym)
        i, j = a, b
    return tuple(member)


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
    make a smaller pair.  A strictly ascending list or tuple is not re-sorted.
    """
    code = codewords if isinstance(codewords, (list, tuple)) else list(codewords)
    if not all(map(lt, code, code[1:])):
        code = sorted(set(code))
    if not code:
        return CorrectionReport(ok=True)
    n, k = len(code[0]), len(code)
    if set(map(len, code)) != {n}:
        raise ValueError("codebook must have a single word length")
    _check_sphere_args(n, s, cap)
    # Pairs cost about k^2 * n / 2 steps and hashing k spheres, estimated at
    # C(ceil(n/2) + s - 1, s) members each.  Timed on 301 campaign classes
    # (n = 6..18, s = 1..4, k <= 43; 2 vCPUs, Python 3.11), the two routes
    # cost the same where (k - 1) * n is 12 to 14 times the estimate at s = 1
    # (k of 8 or 9 at n = 6..9) and 9 to 10 times at s = 2 (k of 23 to 26 at
    # n = 16..18); no class at s >= 3 came near.  A factor of 12 keeps the
    # summed time of both routes within 3 % of the best single factor.
    if (k - 1) * n > _PAIRS_PER_MEMBER * comb((n + 1) // 2 + s - 1, s):
        shared = sphere_collisions(code, s, cap)
        witness = min(((o[0], o[1], m) for m, o in shared.items()), default=None)
        return CorrectionReport(ok=witness is None, witness=witness)
    blob = _pack(code)
    pair = None if k == 1 else _first_meeting_pair(blob, n, s)
    if pair is None:
        return CorrectionReport(ok=True)
    x, y = (code[i] for i in pair)
    return CorrectionReport(ok=False, witness=(x, y, _least_common_member(x, y, s)))
