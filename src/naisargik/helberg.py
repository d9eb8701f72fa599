"""Generalized Helberg codes: number-theoretic weights, moments, codebooks.

The weight sequence obeys v_i = 1 + (q-1) * (v_{i-1} + ... + v_{i-s}) with
v_i = 0 for i <= 0.  A codeword of length n belongs to H(n, q, s, a) when its
moment sum(v_i * x_i) is congruent to a modulo m, where m equals v_{n+1}
(identically, (q-1) * (v_n + ... + v_{n-s+1}) + 1).  Such a codebook corrects
s deletions.

Everything here is exact integer or rational arithmetic; Python integers are
unbounded, so the weight recursion cannot silently wrap at any desk scale.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import cycle, islice
from math import factorial
from operator import add
from typing import Iterable, Iterator, Sequence

from .maps import SymbolMap
from .words import (
    DEFAULT_MAX_ENUM,
    Word,
    check_symbols,
    ensure_enumerable,
    iter_words,
)


@dataclass(frozen=True)
class WeightSequence:
    """Weights v_1..v_{n+1} for alphabet size q and deletion budget s."""

    q: int
    s: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) < 2:
            raise ValueError("need at least v_1 and v_2")
        if list(self.values) != sorted(set(self.values)):
            raise ValueError("weights must be strictly increasing")

    @property
    def n(self) -> int:
        return len(self.values) - 1

    @property
    def modulus(self) -> int:
        """The codebook modulus m = v_{n+1}."""
        return self.values[-1]

    def v(self, i: int) -> int:
        """v_i with the recursion's base: zero for every i <= 0."""
        if i <= 0:
            return 0
        if i > len(self.values):
            raise ValueError(f"v_{i} not computed (have up to v_{len(self.values)})")
        return self.values[i - 1]


def _check_domain(n: int, q: int, s: int) -> None:
    if n < 1 or q < 2 or s < 1:
        raise ValueError(f"need n >= 1, q >= 2, s >= 1; got ({n}, {q}, {s})")


def _weights(q: int, s: int) -> Iterator[int]:
    """v_1, v_2, ... by the defining recursion, without end."""
    window = [0] * s
    while True:
        nxt = 1 + (q - 1) * sum(window)
        yield nxt
        window = window[1:] + [nxt] if s > 1 else [nxt]


def weight_sequence(n: int, q: int, s: int) -> WeightSequence:
    """Compute v_1..v_{n+1} by the defining recursion."""
    _check_domain(n, q, s)
    return WeightSequence(q=q, s=s, values=tuple(islice(_weights(q, s), n + 1)))


def guard_word_space(n: int, q: int, s: int, limit: int, a: int | None = None) -> None:
    """Refuse a bad (n, q, s), then a residue a outside Z_m, then Z_q^n past ``limit``.

    No weight above a is built: the weights increase, so a >= 0 lies in Z_m,
    m = v_{n+1}, once one of v_1..v_{n+1} exceeds it.  An oversized n thus
    costs no big-integer work, and a refused a prints no number longer than a.
    """
    _check_domain(n, q, s)
    if a is not None:
        if a < 0:
            raise ValueError(f"residue {a} is negative")
        for m in islice(_weights(q, s), n + 1):
            if m > a:
                break
        else:
            raise ValueError(f"residue {a} not in Z_{m}")
    ensure_enumerable(n, q, limit)


def moment(word: Word, weights: WeightSequence) -> int:
    """The weighted symbol sum sum(v_i * x_i), exactly."""
    if len(word) > weights.n:
        raise ValueError(
            f"word length {len(word)} exceeds weight sequence length {weights.n}"
        )
    check_symbols(word, weights.q)
    return sum(v * x for v, x in zip(weights.values, word))


def _prefix_sums(sums: list[int], rows: list[list[list[int]]]) -> list[int]:
    """``sums`` extended by one letter per position of ``rows``, in lexicographic order.

    After sum j, letter y at position p adds rows[p][j % len(rows[p])][y];
    sum j ends in letter j % q, so a position with q rows is read by the
    letter before it, and one with a single row by none.
    """
    for row in rows:
        sums = [t + d for t, after in zip(sums, cycle(row)) for d in after]
    return sums


def _guard_space(n: int, q: int, s: int, limit: int, smap: SymbolMap | None = None) -> None:
    """Refuse a map that cannot pair Z_q^n with bits, then what ``guard_word_space`` refuses."""
    if smap is not None:
        if q not in (2, 4):
            raise ValueError(f"a symbol map pairs Z_4 with Z_2^2; got q = {q}")
        if q == 2 and n % 2:
            raise ValueError("binary length must be even to invert the map")
    guard_word_space(n, q, s, limit)


def _walk(
    m: int,
    heads: Iterable[tuple[int, int, Word]],
    tables: Sequence[tuple[Sequence[int], Sequence[Word]]],
    ranges: Sequence[range],
) -> dict[int, tuple[Word, ...]]:
    """The classes of Z_m whose residues lie in ``ranges``, each word a head and a tail.

    This is the two-list split of Horowitz and Sahni (1974).  A head is (h,
    t, word): its residue h, the index t of its table, and its word.  A table
    is its tails' residues and words, sorted by (residue, word); head h with a
    tail of residue r lies in class (h + r) mod m.

    ``ranges`` are disjoint ranges of at most m consecutive residues, each
    member taken mod m, so range(m - 1, m + 1) is m - 1 and 0.  The tails that
    put head h in a range of L residues from r are the L residues from
    (r - h) mod m on, found by two bisects (in two slices when they wrap past
    m - 1).  Heads come in lexicographic order, so no class is sorted
    afterwards, and no word outside ``ranges`` is built.  The classes come
    out range by range, in range order within each, empty ones left out, each
    a strictly ascending tuple.
    """
    buckets: list[list[list[Word]]] = [[[] for _ in span] for span in ranges]
    for h, t, head in heads:
        residues, tails = tables[t]
        for span, into in zip(ranges, buckets):
            lo = (span.start - h) % m
            hi = lo + len(span)
            i = bisect_left(residues, lo)
            if hi <= m:
                cuts = [(i, bisect_left(residues, hi), -lo)]
            else:
                cuts = [(i, len(tails), -lo), (0, bisect_left(residues, hi - m), m - lo)]
            for i, j, shift in cuts:
                for r, tail in zip(residues[i:j], tails[i:j]):
                    into[r + shift].append(head + tail)
    classes = {}
    for span, into in zip(ranges, buckets):
        for a, ws in zip(span, into):
            if ws:
                # Class by class, so no more than one class is held twice.
                classes[a % m] = tuple(ws)
                ws.clear()
    return classes


def helberg_classes(
    n: int,
    q: int,
    s: int,
    limit: int = DEFAULT_MAX_ENUM,
    smap: SymbolMap | None = None,
    ranges: Sequence[range] | None = None,
) -> dict[int, tuple[Word, ...]]:
    """The classes of H(n, q, s, .) whose residues lie in ``ranges``.

    ``ranges`` go to ``_walk``; None is all of Z_m, m = v_{n+1} (the
    ``modulus`` of ``weight_sequence(n, q, s)``).  Residues with no codeword
    are absent, each class is a strictly ascending tuple, and no word's moment
    is evaluated on its own.  Symbol x at position i adds x * v_i.  With
    ``smap`` the class of a holds the words the map pairs with H(n, q, s, a):
    - q = 4: the binary images, from Z_2^(2n), where the bit pair at letter
      i adds smap.inverse[pair] * v_i;
    - q = 2: the quaternary preimages, from Z_4^(n/2), where symbol x at
      position i adds b1 * v_(2i-1) + b2 * v_(2i) for (b1, b2) = smap(x).

    A position adds the same whatever precedes it, so every head, the first
    half of the positions, reads one table: the tails keyed by moment mod m.
    """
    _guard_space(n, q, s, limit, smap)
    w = weight_sequence(n, q, s)
    m, v = w.modulus, w.values[:-1]
    if smap is None:
        steps = [[x * vi for x in range(q)] for vi in v]
        alphabet, width = q, 1
    elif q == 4:
        steps = [[x * vi for x in smap.inverse] for vi in v]
        alphabet, width = 2, 2
    else:
        steps = [
            [b1 * v1 + b2 * v2 for b1, b2 in smap.table] for v1, v2 in zip(v[::2], v[1::2])
        ]
        alphabet, width = 4, 1
    rows = [[step] for step in steps]
    cut = len(rows) // 2
    tails = list(iter_words(width * (len(rows) - cut), alphabet, limit))
    table = tuple(zip(*sorted(zip([t % m for t in _prefix_sums([0], rows[cut:])], tails))))
    heads = zip(_prefix_sums([0], rows[:cut]), iter_words(width * cut, alphabet, limit))
    heads = ((h % m, 0, word) for h, word in heads)
    return _walk(m, heads, [table], [range(m)] if ranges is None else list(ranges))


def helberg_code(
    n: int, q: int, s: int, a: int, limit: int = DEFAULT_MAX_ENUM
) -> tuple[Word, ...]:
    """All length-n words whose moment is congruent to a mod m: ``helberg_classes`` on a alone."""
    guard_word_space(n, q, s, limit, a)
    return helberg_classes(n, q, s, limit, ranges=[range(a, a + 1)]).get(a, ())


def helberg_census(n: int, q: int, s: int, limit: int = DEFAULT_MAX_ENUM) -> list[int]:
    """Count the words of Z_q^n per moment residue, without enumerating them.

    Returns the m counts indexed by residue, zeros kept; they sum to q^n.

    The number of words with moment t is the coefficient of z^t in the
    product over positions of 1 + z^v + z^(2v) + ... + z^((q-1)v), one factor
    per weight v = v_1..v_n.  The product is built one factor at a time as q
    shifted sums of the previous coefficients, modulo z^m - 1: after each
    factor the coefficients from m on are added onto the residues they fold
    to.  Since (q-1) * v_n < m, one fold per factor suffices and the list
    never holds more than m + (q-1) * v_n coefficients; the unfolded product
    has (q-1) * (v_1 + ... + v_n) + 1 >= m of them, so exactly m are returned.
    """
    guard_word_space(n, q, s, limit)
    w = weight_sequence(n, q, s)
    m = w.modulus
    poly = [1]
    for v in w.values[:-1]:
        size = len(poly)
        grown = poly + [0] * ((q - 1) * v)
        for shift in range(v, q * v, v):
            grown[shift : shift + size] = map(add, grown[shift : shift + size], poly)
        tail = grown[m:]
        del grown[m:]
        grown[: len(tail)] = map(add, grown, tail)
        poly = grown
    return poly


def coefficient(i: int, weights: WeightSequence) -> int:
    """The bit-position coefficient C_i = ((i+1) mod 2 + 1) * v_ceil(i/2).

    Expanding a quaternary moment over mapped bits doubles the index range;
    C_i is the weight the i-th bit picks up: 2 * v_{i/2} at even i,
    v_{(i+1)/2} at odd i.
    """
    if i < 1:
        raise ValueError("coefficient index must be >= 1")
    half = (i + 1) // 2
    return ((i + 1) % 2 + 1) * weights.v(half)


def cardinality_lower_bound(n: int, q: int, s: int) -> Fraction:
    """Asymptotic lower bound ((s!)^2 q^(n+s) + s) / ((q-1)^(2s) 2^n 2^s)."""
    _check_domain(n, q, s)
    return Fraction(
        factorial(s) ** 2 * q ** (n + s) + s, (q - 1) ** (2 * s) * 2**n * 2**s
    )


def cardinality_upper_bound(n: int, q: int, s: int) -> Fraction:
    """Asymptotic upper bound s! q^n / ((q-1)^s n^s)."""
    _check_domain(n, q, s)
    return Fraction(factorial(s) * q**n, (q - 1) ** s * n**s)


def upper_bound_exponent(n: int, q: int, s: int) -> int:
    """An exponent e with cardinality_upper_bound(n, q, s) > 2^e, from bit lengths alone.

    For x >= 1, 2^(len(x) - 1) <= x < 2^len(x), and s! >= 1; no power of q
    is built.
    """
    _check_domain(n, q, s)
    return n * (q.bit_length() - 1) - s * ((q - 1).bit_length() + n.bit_length())


def reduction_code(code: Iterable[Word]) -> tuple[Word, ...]:
    """Componentwise mod-2 image of a quaternary code, deduplicated and sorted."""
    out = set()
    for word in code:
        check_symbols(word, 4)
        out.add(tuple(sym % 2 for sym in word))
    return tuple(sorted(out))


def torsion_code(code: Iterable[Word]) -> tuple[Word, ...]:
    """Binary words y such that 2y (componentwise, in Z_4) lies in the code, sorted."""
    out = set()
    for word in code:
        check_symbols(word, 4)
        if all(sym % 2 == 0 for sym in word):
            out.add(tuple(sym // 2 for sym in word))
    return tuple(sorted(out))
