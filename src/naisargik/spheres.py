"""Deletion spheres and exhaustive s-deletion-correction checking.

The s-deletion sphere D_s(x) of a word x is the set of all distinct
length-(|x|-s) subsequences of x.  A codebook corrects s deletions exactly when
all pairwise spheres are disjoint, and two length-n words' spheres meet exactly
when their longest common subsequence (LCS) has length at least n - s
(Levenshtein, 1966).  ``check_codebooks`` decides many codebooks at once, and
``check_deletion_correcting`` one; each codebook goes by one of two routes,
chosen from its size k, its length n and s:

* pairs: the LCS of every pair over the sorted codebook, by the bit-parallel
  recurrence of Allison and Dix (1986), run by ``_first_meeting_pairs`` on
  every pair of a whole chunk of codebooks at once, one lane per pair, with
  the pairs' first and second words laid out in two lane blobs;
* hashing: ``_shared_members`` hashes every sphere member once, k spheres
  in all.

Pairs are taken when (k - 1) * n <= 40 * C(ceil(n/2) + s - 1, s), the right
side estimating one sphere by a word of ceil(n/2) runs, and when the
codebook's pairs hold at most ``cap`` lane symbols (pairs times n).  Both
routes find the lexicographically first pair that meets, as the first
meeting lane or as the least owner pair of a shared member, and take its
witness, the smallest member of the two spheres' intersection, from one
greedy walk over the LCS recurrence (``_least_common_member``).

One kernel, ``_peel``, builds every sphere, level by level and for all words
of a class at once, deleting one symbol per run only: deleting any symbol of
a run gives the same word (Levenshtein, 1966).  It builds no owners: it keeps
each level's run-end masks, from which ``_owners`` replays the owner of every
member when asked.  Members are packed as ``bytes``, one byte per symbol, so
symbols lie in range(256); words cross the public API as ``tuple``s.  Any one
sphere is refused when its C(n, s) index subsets exceed ``cap``, on both
routes; ``_shared_members``, and so only the hashing route, also refuses a
class whose spheres hold more than ``cap`` distinct members, and expands at
most about ``cap`` members at a time.  ``_shared_members`` goes in two
passes: the first counts the members, and a class whose members are all
distinct ends there without an owner built; only a class whose members
collide replays its owners, once per chunk.
"""

from __future__ import annotations

from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain, combinations, compress, repeat
from math import comb
from operator import gt, lt
from struct import Struct
from typing import Iterable, Sequence

from .words import Word, ResourceLimitError

#: Refuse single-word sphere computations beyond this many index subsets.
DEFAULT_SPHERE_CAP = 10_000_000

#: A class goes by pairs while (k - 1) * n is at most this many times the
#: estimated size of one sphere (see ``check_codebooks``).
_PAIRS_PER_MEMBER = 40


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
    words = list(words) if iter(words) is words else words  # read again on a bad symbol
    try:
        return bytes(bytearray(chain.from_iterable(words)))
    except ValueError:
        bad = next(sym for sym in chain.from_iterable(words) if not 0 <= sym < 256)
        raise ValueError(f"sphere words take symbols in range(256), not {bad}") from None


#: ``bytes.translate`` table sending every nonzero byte to 1.
_NONZERO = bytes(1) + b"\x01" * 255


def _delete_one_per_run(
    blob: bytes, w: int, first: Sequence[int]
) -> tuple[list[bytes], list[tuple[int, bytes]], list[int]]:
    """The next deletion level of the w-symbol members laid end to end in
    ``blob``, grouped by the position p deleted: the new members, the first
    lane and the ``keep`` mask of each p, and the index just past each group.

    Read as one big-endian integer x, each member is a w-byte lane.  Lane by
    lane, y holds a zero byte, the member's bytes before p and its bytes after
    p, so unpacking y skips one byte and cuts one member with p deleted from
    every lane; moving from p to p + 1 copies byte p of x into byte p + 1 of
    y.  Only the last symbol of a run is deleted (p = w - 1, or x_p differs
    from x_(p+1)), which leaves one member per run (Levenshtein, 1966).
    Only lanes i >= first[p] lose p, and only they are cut; ``_peel`` passes
    the group ends of the level above, so deletions run right to left.  Lane
    i + first[p] is cut at p exactly when byte i of the mask is 1, so
    ``_owners`` replays the masks to find each member's owner.
    """
    lanes = len(blob) // w
    size = len(blob)
    x = int.from_bytes(blob, "big")
    shifted = x >> 8
    # Byte i of ``ends`` is 1 exactly where byte i of x differs from byte
    # i - 1, so ends[p + 1 :: w] marks the lanes whose symbol p ends a run.
    ends = (x ^ shifted).to_bytes(size, "big").translate(_NONZERO)
    column = int.from_bytes((b"\xff" + bytes(w - 1)) * lanes, "big")
    y = x ^ (x & column)
    cut = Struct(f"x{w - 1}s" * lanes).unpack_from
    members: list[bytes] = []
    kept: list[tuple[int, bytes]] = []
    after: list[int] = []
    for p in range(w):
        f = first[p]
        keep = ends[f * w + p + 1 :: w] if p + 1 < w else b"\x01" * (lanes - f)
        cut_tail = Struct(f"x{w - 1}s" * (lanes - f)).unpack_from if f else cut
        members.extend(compress(cut_tail(y.to_bytes(size, "big"), f * w), keep))
        kept.append((f, keep))
        after.append(len(members))
        column >>= 8
        y ^= (y ^ shifted) & column
    return members, kept, after


def _peel(
    blob: bytes, n: int, s: int, owners: range
) -> tuple[list[bytes], list[list[tuple[int, bytes]]]]:
    """D_s of words ``owners`` of the n-symbol words laid end to end in
    ``blob`` (one word at s = 0), with the masks of each level, from which
    ``_owners`` finds each member's owner.  A member may lose only a symbol
    left of the one it lost last, so each member of D_s is reached once per
    owner, through its leftmost embedding: the only deletion set whose every
    deleted symbol differs from the next kept one."""
    members, first = [blob[owners.start * n : owners.stop * n]], [0] * n
    levels = []
    for t in range(s):
        members, kept, first = _delete_one_per_run(b"".join(members), n - t, first)
        levels.append(kept)
    return members, levels


def _owners(levels: list[list[tuple[int, bytes]]], owners: range) -> list[int]:
    """The owner of each member ``_peel`` returned with ``levels``, given
    ``owners``, the indices of the words it peeled."""
    # Lists, not arrays: they extend from ``compress`` about twice as fast,
    # and every level refers to the same int objects.
    held = list(owners)
    for kept in levels:
        owners, held = held, []
        for f, keep in kept:
            held += compress(owners[f:], keep)
    return held


def _shared_members(code: Sequence[Word], s: int, cap: int) -> dict[bytes, list[int]]:
    """``sphere_collisions`` with each member packed and its owners given by
    their indices into ``code``.

    ``_peel`` reaches no (member, owner) pair twice, so members are counted: a
    first pass counts the members, and the distinct ones against ``cap``, in
    chunks of words that expand to at most about ``cap`` members, and builds
    no owner.  A class whose members are all distinct ends there.  Otherwise
    a second pass replays the masks of each chunk, peeling it again unless
    there was only one, and groups by owner only the members counted twice or
    more.
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
    total = 0
    for chunk in chunks:
        members, levels = _peel(blob, n, s, chunk)
        counts.update(members)
        total += len(members)
        if len(counts) > cap:
            raise ResourceLimitError(
                f"{len(counts)} distinct s={s} sphere members exceed cap {cap}"
            )
    if total == len(counts):
        return {}
    hits = sorted(compress(counts, map(gt, counts.values(), repeat(1))))
    del counts  # before any owner is built
    shared: dict[bytes, list[int]] = {m: [] for m in hits}
    for chunk in chunks:
        if len(chunks) > 1:
            members, levels = _peel(blob, n, s, chunk)
        owners = _owners(levels, chunk)
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


#: ``bytes.translate`` table of the number of set bits in each byte.
_POPCOUNT = bytes(map(int.bit_count, range(256)))


def _sends(sym: int, value: int) -> bytes:
    """``bytes.translate`` table sending byte ``sym`` to ``value``, every other to 0."""
    return bytes(sym) + bytes((value,)) + bytes(255 - sym)


def _first_meeting_pairs(
    codes: Sequence[Sequence[Word]], n: int, s: int
) -> list[tuple[int, int] | None]:
    """For each class in ``codes`` of n-symbol words, n >= 1, the indices
    within the class of its first pair in ``combinations`` order whose LCS
    is at least n - s, or None.

    Each pair (x_i, x_j), i < j, is one lane of w = ceil((n + 1) / 8) bytes of
    a little-endian integer, and the bit-parallel LCS recurrence of Allison
    and Dix (1986) runs on every lane at once.  The K classes of k words are
    packed once, block i holding word i of each, so pair p of
    ``combinations(range(k), 2)`` of the c-th is lane p * K + c of their run
    when, for each i, the x-lanes repeat block i k - 1 - i times and the
    y-lanes take the blocks after it.  Then column t of every x_i (or x_j) is
    one extended slice, ``xblob[t::n]`` (or ``yblob[t::n]``), of the lane
    blobs joined from every run.  Bit b of a lane of ``match[c]`` marks
    x_j[b] == c.  Step t selects in each lane the entry of symbol x_i[t], by
    one mask per symbol that is all ones on the lanes where x_i[t] == c.
    u = v & match lies within v, so v - u borrows nothing, and the carry of
    v + u out of a lane's low n bits stops in its guard bits, which ``low``
    clears.  Then the zero bits of a lane count LCS(x_i, x_j), so the pair
    meets when the lane holds at most s ones.
    """
    runs: defaultdict[int, array] = defaultdict(lambda: array("q"))
    for c, k in enumerate(map(len, codes)):
        if k > 1:
            runs[k].append(c)
    xlanes, ylanes, symbols = [], [], b""
    for k, run in runs.items():
        block = len(run) * n
        packed = _pack(chain.from_iterable(zip(*[codes[c] for c in run])))
        # The distinct symbols, each found by one pass deleting those before.
        while rest := packed.translate(None, symbols):
            symbols += rest[:1]
        packed = memoryview(packed)
        for i in range(k - 1):
            xlanes += [packed[i * block : (i + 1) * block]] * (k - 1 - i)
            ylanes.append(packed[(i + 1) * block :])
    xblob, yblob = b"".join(xlanes), b"".join(ylanes)
    del xlanes, ylanes
    lanes = len(xblob) // n
    w = n // 8 + 1
    size = lanes * w
    width = (1 << n) - 1
    low = int.from_bytes((b"\x01" + bytes(w - 1)) * lanes, "little") * width
    # Eight columns of the x_j fill one byte of every lane, written into
    # ``lane`` by one extended-slice assignment.
    lane = bytearray(size)
    match = {}
    for c in sorted(symbols)[1:]:
        for g in range(w):
            bits = 0
            for b in range(8 * g, min(8 * g + 8, n)):
                bits |= int.from_bytes(yblob[b::n].translate(_sends(c, 1 << b % 8)), "little")
            lane[g::w] = bits.to_bytes(lanes, "little")
        match[c] = int.from_bytes(lane, "little")
    del yblob
    # Every lane holds one symbol at each step, so the least symbol's entry
    # is ``low`` without the others, and it selects every entry together with
    # the difference to each other symbol's entry on the lanes holding it.
    base = low
    for entry in match.values():
        base ^= entry
    others = [(_sends(c, 1), base ^ entry) for c, entry in match.items()]
    lane = bytearray(size)
    v = low
    for t in range(n):
        column = xblob[t::n]
        selected = base
        for table, diff in others:
            lane[::w] = column.translate(table)
            selected ^= diff & int.from_bytes(lane, "little") * width
        u = v & selected
        v = ((v + u) | (v - u)) & low
    ones = v.to_bytes(size, "little").translate(_POPCOUNT)
    if w < 32:
        # Byte w - 1 of each lane of the product sums the lane's w byte
        # counts; no sum of w byte counts passes 8w < 256, so none carries.
        spread = int.from_bytes(b"\x01" * w, "little")
        counts = (int.from_bytes(ones, "little") * spread).to_bytes(size + w, "little")
        meets = counts[w - 1 : size : w].translate(bytes(c <= s for c in range(256)))
    else:
        meets = bytes(sum(ones[i : i + w]) <= s for i in range(0, size, w))
    found: list[tuple[int, int] | None] = [None] * len(codes)
    at = 0
    for k, run in runs.items():
        K = len(run)
        stop = at + K * k * (k - 1) // 2
        if meets.find(1, at, stop) >= 0:
            pairs = list(combinations(range(k), 2))
            for offset, c in enumerate(run):
                p = meets[at + offset : stop : K].find(1)
                if p >= 0:
                    found[c] = pairs[p]
        at = stop
    return found


def _least_common_member(x: Word, y: Word, s: int) -> Word:
    """The least common subsequence of length n - s of two n-symbol words,
    which is the least member of D_s(x) & D_s(y) when their LCS is that long.

    Row i of the LCS recurrence (Allison and Dix, 1986) over x and y reversed
    counts LCS(x[n - i :], y[n - j :]) in its zero bits below bit j; each step
    takes the least symbol whose next occurrences leave a long enough LCS."""
    n = len(x)
    match: dict[int, int] = {}
    for j, sym in enumerate(reversed(y)):
        match[sym] = match.get(sym, 0) | 1 << j
    rows = [(1 << n) - 1]
    for sym in reversed(x):
        u = rows[-1] & match.get(sym, 0)
        rows.append((rows[-1] + u) | (rows[-1] - u))
    symbols = sorted(match.keys() & set(x))
    xb, yb = bytes(x), bytes(y)
    member, i, j = [], 0, 0
    for need in range(n - s - 1, -1, -1):
        for sym in symbols:
            a, b = xb.find(sym, i) + 1, yb.find(sym, j) + 1
            if a and b and n - b - (rows[n - a] & ((1 << (n - b)) - 1)).bit_count() >= need:
                break
        member.append(sym)
        i, j = a, b
    return tuple(member)


def check_codebooks(
    codebooks: Iterable[Iterable[Word]], s: int, cap: int = DEFAULT_SPHERE_CAP
) -> list[CorrectionReport]:
    """Decide, for each codebook in turn, whether it corrects s deletions.

    All codewords of one codebook must share one length n >= s.  A sphere
    member shared by two codewords is a violation.  The reported witness pair
    is the lexicographically first violating pair, independent of iteration
    order and of the route (see the module docstring): the pair route meets
    it first, and hashing takes the least first two owners of a shared
    member, as no member two words share has larger ones.  A strictly
    ascending list or tuple is not re-sorted.

    The codebooks on the pair route go to ``_first_meeting_pairs`` together,
    in chunks of one word length and at most ``cap`` lane symbols (pairs
    times n); a codebook whose own pairs hold more goes by hashing.
    """
    passed = CorrectionReport(ok=True)
    reports: list[CorrectionReport] = []
    found: list[tuple[int, Sequence[Word], Sequence[int] | None]] = []
    chunks: list[tuple[int, list[int], list[Sequence[Word]]]] = []
    bounds: dict[int, int] = {}
    held = 0
    for codewords in codebooks:
        code = codewords if isinstance(codewords, (list, tuple)) else list(codewords)
        if not all(map(lt, code, code[1:])):
            code = sorted(set(code))
        reports.append(passed)
        if not code:
            continue
        n, k = len(code[0]), len(code)
        if set(map(len, code)) != {n}:
            raise ValueError("codebook must have a single word length")
        if n not in bounds:
            _check_sphere_args(n, s, cap)
            # Pairs cost about k^2 * n / 2 lane steps and hashing k spheres,
            # estimated at C(ceil(n/2) + s - 1, s) members each.  Timed on 193
            # campaign classes (n = 6..18, s = 1 and 2, k <= 172; 2 vCPUs,
            # Python 3.11), each class's pairs as a tenth of one kernel call
            # on ten copies of it: at s = 1 the two routes cost the same where
            # (k - 1) * n is about 40 times the estimate (k of 21 to 23 at
            # n = 8), and pairs cost more on every class from 58 times on
            # (k of 30 to 172 at n = 8..11); at s = 2 pairs cost at most a
            # quarter of hashing on every class (up to 17 times the estimate,
            # 43 words of length 18), and no class at s >= 3 reached 3 times.
            # Factors from 24 to 128 keep the summed time of both routes
            # within 1 % of the best single factor, 38.
            bounds[n] = _PAIRS_PER_MEMBER * comb((n + 1) // 2 + s - 1, s)
        lane_symbols = k * (k - 1) // 2 * n
        if (k - 1) * n > bounds[n] or lane_symbols > cap:
            owners = _shared_members(code, s, cap).values()
            found.append((len(reports) - 1, code, min((o[:2] for o in owners), default=None)))
        elif k == 1:
            _pack(code)  # only to check the symbol range
        else:
            if not chunks or chunks[-1][0] != n or held + lane_symbols > cap:
                chunks.append((n, [], []))
                held = 0
            chunks[-1][1].append(len(reports) - 1)
            chunks[-1][2].append(code)
            held += lane_symbols
    for n, where, codes in chunks:
        found += zip(where, codes, _first_meeting_pairs(codes, n, s))
    for r, code, pair in found:
        if pair is not None:
            x, y = code[pair[0]], code[pair[1]]
            reports[r] = CorrectionReport(ok=False, witness=(x, y, _least_common_member(x, y, s)))
    return reports


def check_deletion_correcting(
    codewords: Iterable[Word], s: int, cap: int = DEFAULT_SPHERE_CAP
) -> CorrectionReport:
    """Decide whether one codebook corrects s deletions (see ``check_codebooks``)."""
    return check_codebooks([codewords], s, cap)[0]
