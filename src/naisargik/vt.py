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

import itertools
from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence

from .maps import SymbolMap
from .spheres import sphere_collisions
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
    """All binary words of length n with checksum a, by exhaustive scan."""
    if n < 1:
        raise ValueError("codeword length must be >= 1")
    if not 0 <= a <= n:
        raise ValueError(f"residue {a} not in Z_{n + 1}")
    return frozenset(
        w for w in iter_words(n, 2, limit) if binary_vt_residue(w) == a
    )


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


def _vt_codes(start: int, length: int, q: int, step: int) -> list[int]:
    """A * step + B for the words of Z_q^length in lexicographic order.

    The words sit at 1-based positions start+1..start+length; A sums the
    positions i of their own set signature bits [x_i <= x_(i+1)], and B is
    their symbol sum.  The expansion appends one symbol at a time, and
    prefix index j ends in symbol j % q.
    """
    codes = list(range(q)) if length else [0]
    for i in range(start + 1, start + length):
        rows = [[y + i * step * (c <= y) for y in range(q)] for c in range(q)]
        codes = [code + d for j, code in enumerate(codes) for d in rows[j % q]]
    return codes


def qary_vt_classes(
    n: int, q: int, limit: int = DEFAULT_MAX_ENUM
) -> dict[tuple[int, int], tuple[Word, ...]]:
    """Bucket all of Z_q^n by residue pair; words sorted within each class.

    The pairs come from a stream, as ``helberg_classes`` reads its residues.
    The positions split into a head (1..h, h = n // 2) and a tail (the rest).
    A word's unreduced signature checksum A and symbol sum B are the head's
    plus the tail's, and A gains h when the boundary bit
    [last(head) <= first(tail)] is set.  The code A * step + B, with step
    above any symbol sum, indexes a table of (A mod n, B mod q).  At most
    O(q^(ceil(n/2) + 1)) codes are held at once, and no word is scored on
    its own.
    """
    words = iter_words(n, q, limit)
    if n < 1:
        raise ValueError("residues need length >= 1")
    step = (q - 1) * n + 1
    key_of = [
        (a % n) * q + b % q for a in range(n * (n - 1) // 2 + 1) for b in range(step)
    ]
    cut = n // 2
    tail = _vt_codes(cut, n - cut, q, step)
    block = q ** (n - cut - 1)  # tail index k starts with symbol k // block
    tails = [
        [t + cut * step * (k // block >= c) for k, t in enumerate(tail)] for c in range(q)
    ]
    stream = itertools.chain.from_iterable(
        [key_of[h + t] for t in tails[j % q]]
        for j, h in enumerate(_vt_codes(0, cut, q, step))
    )
    buckets: defaultdict[int, list[Word]] = defaultdict(list)
    for w, key in zip(words, stream):
        buckets[key].append(w)
    return {divmod(key, q): tuple(buckets[key]) for key in sorted(buckets)}


def qary_vt_code(
    n: int, q: int, a: int, b: int, limit: int = DEFAULT_MAX_ENUM
) -> frozenset[Word]:
    """All length-n words over Z_q with residue pair (a, b), by exhaustive scan."""
    if n < 1:
        raise ValueError("codeword length must be >= 1")
    if q < 2:
        raise ValueError("alphabet size must be >= 2")
    if not 0 <= a < n:
        raise ValueError(f"residue {a} not in Z_{n}")
    if not 0 <= b < q:
        raise ValueError(f"residue {b} not in Z_{q}")
    return frozenset(
        w for w in iter_words(n, q, limit) if qary_vt_residues(w, q) == (a, b)
    )


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


@dataclass(frozen=True)
class EqualWeightScan:
    """Result of scanning one map for the equal-weight property.

    Within every residue class of the quaternary VT partition, any two mapped
    codewords with intersecting 1-deletion spheres must have equal Hamming
    weight.  ``intersecting_pairs`` counts the distinct image pairs whose
    spheres intersect; ``counterexample`` carries the first violating image
    pair when the property fails.
    """

    n: int
    map_name: str
    passed: bool
    classes: int
    intersecting_pairs: int
    counterexample: tuple[Word, Word] | None = None


def _scan_map(
    n: int, classes: dict[tuple[int, int], tuple[Word, ...]], smap: SymbolMap
) -> EqualWeightScan:
    pairs: set[tuple[Word, Word]] = set()
    bad: list[tuple[Word, Word]] = []
    for words in classes.values():
        images = sorted(smap.apply(w) for w in words)
        for owners in sphere_collisions(images, 1).values():
            for x, y in itertools.combinations(owners, 2):
                pairs.add((x, y))
                if sum(x) != sum(y):
                    bad.append((x, y))
    counterexample = min(bad) if bad else None
    return EqualWeightScan(
        n=n,
        map_name=smap.name,
        passed=not bad,
        classes=len(classes),
        intersecting_pairs=len(pairs),
        counterexample=counterexample,
    )


def equal_weight_scan(
    n: int, smaps: Sequence[SymbolMap], limit: int = DEFAULT_MAX_ENUM
) -> tuple[EqualWeightScan, ...]:
    """Check the equal-weight property for each map over all of Z_4^n.

    The residue classes are built once and shared by every map.  Two images
    share a 1-deletion sphere member iff they land in a common bucket, so the
    scan never enumerates non-intersecting pairs.
    """
    classes = qary_vt_classes(n, 4, limit)
    return tuple(_scan_map(n, classes, smap) for smap in smaps)


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
    for words in qary_vt_classes(n, 4, limit).values():
        shared = sphere_collisions(sorted(smap.apply(w) for w in words), 1)
        if shared:
            x, y = min(owners[:2] for owners in shared.values())
            both = frozenset(m for m, owners in shared.items() if x in owners and y in owners)
            return x, y, both
    return None
