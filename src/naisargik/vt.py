"""Varshamov-Tenengolts codebooks over Z_2 and Z_q, and their map images.

Binary VT codes fix the weighted checksum sum(i * x_i) mod (n+1).  The q-ary
form constrains the signature sequence (alpha_i = 1 iff x_i <= x_{i+1}) to a
binary VT class and additionally fixes the symbol sum mod q.  On top of the
plain constructions this module runs the two image-level analyses: the
equal-weight scan over intersecting 1-deletion spheres, and the search for
same-residue image pairs whose spheres intersect.

Index conventions follow the defining checksums: positions are 1-based in
every residue formula, 0-based only inside loops.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain, combinations, repeat
from typing import Iterator, Sequence

from .helberg import _residue_stream, helberg_code
from .maps import SymbolMap
from .spheres import DEFAULT_SPHERE_CAP, _shared_members, sphere_collisions
from .words import (
    DEFAULT_MAX_ENUM,
    Word,
    check_symbols,
    ensure_enumerable,
    iter_words,
)


def binary_vt_residue(word: Word) -> int:
    """Checksum sum(i * x_i) mod (n+1) with 1-based positions."""
    check_symbols(word, 2)
    if not word:
        raise ValueError("binary VT residue needs length >= 1")
    return sum(i * bit for i, bit in enumerate(word, start=1)) % (len(word) + 1)


def binary_vt_code(
    n: int, a: int, limit: int = DEFAULT_MAX_ENUM
) -> frozenset[Word]:
    """All binary words of length n with checksum a.

    This is the Helberg code H(n, 2, 1, a): its weights are 1..n and its
    modulus is n + 1.
    """
    if n < 1:
        raise ValueError("codeword length must be >= 1")
    if not 0 <= a <= n:
        raise ValueError(f"residue {a} not in Z_{n + 1}")
    return helberg_code(n, 2, 1, a, limit)


def signature(word: Word) -> tuple[int, ...]:
    """The monotonicity bits of a word: bit i is 1 iff x_i <= x_{i+1}."""
    if not word:
        raise ValueError("signature needs length >= 1")
    return tuple(
        1 if word[i] <= word[i + 1] else 0 for i in range(len(word) - 1)
    )


def qary_vt_residues(word: Word, q: int) -> tuple[int, int]:
    """The residue pair (a, b) of a word: signature checksum mod n, sum mod q.

    For n = 1 the signature is empty and a is 0 (the only element of Z_1).
    """
    check_symbols(word, q)
    n = len(word)
    if n < 1:
        raise ValueError("residues need length >= 1")
    b = sum(word) % q
    if n == 1:
        return 0, b
    a = sum(i * bit for i, bit in enumerate(signature(word), start=1)) % n
    return a, b


def guard_vt_space(n: int, q: int, limit: int = DEFAULT_MAX_ENUM) -> None:
    """Refuse Z_q^n as ``ensure_enumerable`` does, then n = 0: the empty word has no residues."""
    ensure_enumerable(n, q, limit)
    if n < 1:
        raise ValueError("residues need length >= 1")


def _vt_stream(
    n: int, q: int, limit: int, smap: SymbolMap | None = None
) -> Iterator[tuple[Word, int]]:
    """Every word of Z_q^n with its key a * q + b, (a, b) its residue pair.

    Letter y at 1-based position i + 1 adds its symbol to the sum B, and i to
    the signature checksum A when the letter c before it has c <= y.  It adds
    B + A * step, with step above any symbol sum, so the residue mod n * step
    of ``_residue_stream`` is (A mod n) * step + B, and a table maps it to its
    key.  No word is scored on its own.

    Position 1 has one row, as no letter precedes it.  With ``smap`` (q = 4
    only) the words are those of Z_2^(2n), each bit pair p standing for the
    symbol smap.inverse[p]: an image is keyed by its preimage.
    """
    if smap is not None and q != 4:
        raise ValueError(f"a symbol map pairs Z_4 with Z_2^2; got q = {q}")
    guard_vt_space(n, q, limit)
    if smap is None:
        symbols: Sequence[int] = range(q)
        words = iter_words(n, q, limit)
    else:
        symbols = smap.inverse
        words = iter_words(2 * n, 2, limit)
    step = (q - 1) * n + 1
    rows = [[list(symbols)]]
    rows += ([[y + i * step * (c <= y) for y in symbols] for c in symbols] for i in range(1, n))
    key_of = [a * q + b % q for a in range(n) for b in range(step)]
    return zip(words, map(key_of.__getitem__, _residue_stream(rows, n * step)))


def qary_vt_classes(
    n: int, q: int, limit: int = DEFAULT_MAX_ENUM, smap: SymbolMap | None = None
) -> dict[tuple[int, int], tuple[Word, ...]]:
    """Bucket all of Z_q^n by residue pair; words sorted within each class.

    The pairs come from ``_vt_stream``.  With ``smap`` (q = 4 only) each class
    holds the binary images of its words, as ``helberg_classes(..., smap)``
    does, and no word is mapped on its own.
    """
    buckets: defaultdict[int, list[Word]] = defaultdict(list)
    for w, key in _vt_stream(n, q, limit, smap):
        buckets[key].append(w)
    return {divmod(key, q): tuple(buckets[key]) for key in sorted(buckets)}


def qary_vt_code(
    n: int, q: int, a: int, b: int, limit: int = DEFAULT_MAX_ENUM
) -> frozenset[Word]:
    """All length-n words over Z_q with residue pair (a, b), read from ``_vt_stream``."""
    if n < 1:
        raise ValueError("codeword length must be >= 1")
    if q < 2:
        raise ValueError("alphabet size must be >= 2")
    if not 0 <= a < n:
        raise ValueError(f"residue {a} not in Z_{n}")
    if not 0 <= b < q:
        raise ValueError(f"residue {b} not in Z_{q}")
    key = a * q + b
    return frozenset(w for w, k in _vt_stream(n, q, limit) if k == key)


def qary_vt_census(
    n: int, q: int, limit: int = DEFAULT_MAX_ENUM
) -> dict[tuple[int, int], int]:
    """Codeword count for every one of the q*n residue pairs; sums to q^n.

    A dynamic program over word prefixes counts the words without
    enumerating them.  Its state is (last symbol, signature checksum mod n,
    symbol sum mod q): appending y after a prefix ending in c at position i
    sets signature bit i to [c <= y], which adds i to the checksum when set.
    Pairs no word reaches map to 0.
    """
    if n < 1 or q < 2:
        raise ValueError(f"need n >= 1 and q >= 2; got ({n}, {q})")
    ensure_enumerable(n, q, limit)
    # counts[c][a][b]: prefixes ending in symbol c with residues (a, b).
    counts = [[[0] * q for _ in range(n)] for _ in range(q)]
    for c in range(q):
        counts[c][0][c] = 1
    for i in range(1, n):
        nxt = [[[0] * q for _ in range(n)] for _ in range(q)]
        for c in range(q):
            for a in range(n):
                for b, k in enumerate(counts[c][a]):
                    if k:
                        for y in range(q):
                            nxt[y][(a + i * (c <= y)) % n][(b + y) % q] += k
        counts = nxt
    return {
        (a, b): sum(counts[c][a][b] for c in range(q))
        for a in range(n)
        for b in range(q)
    }


def image_pair_diff(
    x_bits: Word, y_bits: Word, smap: SymbolMap
) -> tuple[int, int]:
    """Absolute residue differences of the quaternary preimages of two images.

    Residues are canonical representatives; the differences are plain integer
    absolute values, not reduced modulo anything.
    """
    if len(x_bits) != len(y_bits):
        raise ValueError("image pair must have equal lengths")
    x = smap.invert(x_bits)
    y = smap.invert(y_bits)
    ax, bx = qary_vt_residues(x, 4)
    ay, by = qary_vt_residues(y, 4)
    return abs(ax - ay), abs(bx - by)


def equal_weight_scan(
    n: int, smap: SymbolMap, limit: int = DEFAULT_MAX_ENUM
) -> tuple[int, tuple[Word, Word] | None]:
    """Check the equal-weight property of one map over all of Z_4^n.

    Within every residue class of the quaternary VT partition, any two images
    with intersecting 1-deletion spheres must have equal Hamming weight.
    Returns the number of distinct image pairs whose spheres intersect, and
    the least pair of unequal weight, or None when the property holds.  Two
    images share a sphere member iff they own one member in common, which
    the class kernel behind ``sphere_collisions`` reports for the whole class
    at once, so no non-intersecting pair is enumerated.  A class's pairs are taken as index
    pairs into the class, and each image's weight is summed once.
    """
    count = 0
    unequal: list[tuple[Word, Word]] = []
    for images in qary_vt_classes(n, 4, limit, smap).values():
        shared = _shared_members(images, 1, DEFAULT_SPHERE_CAP).values()
        pairs = set(chain.from_iterable(map(combinations, shared, repeat(2))))
        count += len(pairs)
        weight = list(map(sum, images))
        unequal.extend((images[i], images[j]) for i, j in pairs if weight[i] != weight[j])
    return count, min(unequal, default=None)


def same_residue_witness(
    n: int, smap: SymbolMap, limit: int = DEFAULT_MAX_ENUM
) -> tuple[Word, Word, frozenset[Word]] | None:
    """First same-residue image pair with intersecting 1-deletion spheres.

    Residue classes are visited in sorted order; within a class the
    lexicographically first intersecting image pair wins, which is the
    witness pair of the class's single-deletion check.  Returns the two
    images and the full shared member set, or None if every class has
    pairwise disjoint spheres.
    """
    for images in qary_vt_classes(n, 4, limit, smap).values():
        shared = sphere_collisions(images, 1)
        if shared:
            x, y = min(owners[:2] for owners in shared.values())
            both = frozenset(m for m, owners in shared.items() if x in owners and y in owners)
            return x, y, both
    return None
