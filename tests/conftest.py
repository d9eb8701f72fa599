"""Shared oracles and hypothesis strategies for the test suite."""

from __future__ import annotations

import contextlib
import itertools
from collections import Counter

import pytest
from hypothesis import strategies as st

from naisargik import (
    CampaignCell,
    CorrectionReport,
    binary_vt_residue,
    moment,
    qary_vt_residues,
    weight_sequence,
)
from naisargik import verify as verify_mod
from naisargik.helberg import _prefix_sums


def sphere_by_index_subsets(word, s):
    """Independent sphere oracle: drop every s-subset of positions, dedup."""
    n = len(word)
    return frozenset(
        tuple(word[i] for i in range(n) if i not in dropped)
        for dropped in itertools.combinations(range(n), s)
    )


def all_words(n, q):
    return itertools.product(range(q), repeat=n)


def least_colliding_pair(words, s):
    """Brute-force oracle: the least pair of words whose s-deletion spheres
    share a member, with the shared set, or None if all spheres are disjoint."""
    spheres = {w: sphere_by_index_subsets(w, s) for w in words}
    for x, y in itertools.combinations(sorted(spheres), 2):
        shared = spheres[x] & spheres[y]
        if shared:
            return x, y, shared
    return None


def oracle_report(code, s):
    """The report the brute-force oracle implies: its least pair and the
    smallest member the pair's spheres share."""
    found = least_colliding_pair(code, s)
    if found is None:
        return CorrectionReport(ok=True)
    x, y, shared = found
    return CorrectionReport(ok=False, witness=(x, y, min(shared)))


def insertion_supersequences(z, t, q):
    """The distinct words of Z_q^(len(z) + t) that hold z as a subsequence,
    built one inserted symbol at a time."""
    level = {tuple(z)}
    for _ in range(t):
        level = {w[:i] + (c,) + w[i:] for w in level for i in range(len(w) + 1) for c in range(q)}
    return level


def insertion_failing_classes(key, length, t, q):
    """Sphere-free route to the classes of Z_q^length, each word keyed by
    ``key``, that do not correct t deletions.

    Two words share a t-deletion sphere member z exactly when both are
    t-insertion supersequences of z (Levenshtein, 1966), so a class fails
    when two supersequences of one z in Z_q^(length - t) share its key.  No
    class fails when t > length: every sphere is empty.
    """
    failing = set()
    for z in itertools.product(range(q), repeat=length - t) if t <= length else ():
        seen = set()
        for word in insertion_supersequences(z, t, q):
            k = key(word)
            if k in seen:
                failing.add(k)
            seen.add(k)
    return failing


def conj1_fails_by_insertions(smap, n, key=lambda x: qary_vt_residues(x, 4)):
    """Sphere-free route to a Conjecture 1 failure of ``smap`` at length n.

    Two images of Z_4^n share a 1-deletion member z exactly when both are
    1-insertion supersequences of z, so their weights differ by at most one,
    and they differ exactly when one inserts a 0 and the other a 1.  The map
    fails when some z in Z_2^(2n - 1) has a 0-insertion and a 1-insertion
    whose preimages share a class ``key``, by default the q-ary VT residue
    pair.
    """

    def keys(z, bit):
        return {key(smap.invert(z[:i] + (bit,) + z[i:])) for i in range(len(z) + 1)}

    return any(keys(z, 0) & keys(z, 1) for z in all_words(2 * n - 1, 2))


def first_meeting_pair(blob, n, s):
    """Scalar oracle for ``spheres._first_meeting_pairs`` on one class: the
    indices of the first pair of the n-symbol words laid end to end in
    ``blob``, in ``combinations`` order, whose LCS is at least n - s, or None.

    Bit-parallel LCS (Allison and Dix, 1986), one pair at a time: bit i of
    ``match[sym]`` marks y[i] == sym, and after every symbol of x the zero bits
    of the low n bits of v count LCS(x, y).
    """
    code = [blob[i : i + n] for i in range(0, len(blob), n)]
    low = (1 << n) - 1
    matches = []
    for y in code:
        match = [0] * 256
        for i, sym in enumerate(y):
            match[sym] |= 1 << i
        matches.append(match)
    for i, j in itertools.combinations(range(len(code)), 2):
        v = low
        for sym in code[i]:
            u = v & matches[j][sym]
            v = (v + u) | (v - u)
        if (v & low).bit_count() <= s:
            return i, j
    return None


def lcs_length(x, y):
    """Textbook dynamic program for the longest common subsequence length."""
    row = [0] * (len(y) + 1)
    for a in x:
        prev = row[:]
        for j, b in enumerate(y, 1):
            row[j] = prev[j - 1] + 1 if a == b else max(prev[j], row[j - 1])
    return row[-1]


def helberg_residue(n, q, s):
    """Per-word class key of H(n, q, s, .): a word's moment residue."""
    w = weight_sequence(n, q, s)
    return lambda x: moment(x, w) % w.modulus


def helberg_classes_by_moment(n, q, s, smap=None):
    """Per-word oracle for ``helberg_classes``: bucket Z_q^n by moment residue.

    With ``smap`` each class is mapped word by word, by ``apply`` at q = 4
    and by ``invert`` at q = 2, and sorted.  Returns the classes by residue.
    """
    w = weight_sequence(n, q, s)
    buckets = {}
    for x in all_words(n, q):
        buckets.setdefault(moment(x, w) % w.modulus, []).append(x)
    if smap is not None:
        mapped = smap.apply if q == 4 else smap.invert
        buckets = {a: sorted(map(mapped, ws)) for a, ws in buckets.items()}
    return {a: tuple(ws) for a, ws in sorted(buckets.items())}


def _residue_stream(rows, m):
    """(sum over p of rows[p][x_(p-1)][x_p]) mod m for every word x, in
    lexicographic order: the per-word residue stream the class walks replaced.

    Letter y at position p adds rows[p][c][y] after letter c.  The rows of a
    position are cycled over c, so a position whose increments do not depend
    on c (rows[0], every Helberg position) has one row.  The head and tail
    prefix sums are expanded separately (prefix j ends in letter j % q), the
    tail once per row of its first position, and each word's residue is
    (head + tail) % m.
    """
    cut = len(rows) // 2
    tails = [[t % m for t in _prefix_sums(first, rows[cut + 1 :])] for first in rows[cut]]
    return itertools.chain.from_iterable(
        [(h + t) % m for t in tail]
        for h, tail in zip(_prefix_sums([0], rows[:cut]), itertools.cycle(tails))
    )


def helberg_stream_classes(n, q, s, smap=None):
    """Stream oracle for ``helberg.helberg_classes``: every word of the space
    zipped with its residue from ``_residue_stream``, bucketed, the
    classes in ascending residue order.

    This is the class builder the walk replaced.  Symbol x at position i adds
    x * v_i.  With ``smap`` the words are those the map pairs with Z_q^n: at
    q = 4 the binary images, from Z_2^(2n), the bit pair at letter i adding
    smap.inverse[pair] * v_i; at q = 2 the quaternary preimages, from
    Z_4^(n/2), symbol x at position i adding b1 * v_(2i-1) + b2 * v_(2i) for
    (b1, b2) = smap(x).  Returns the classes by residue.
    """
    w = weight_sequence(n, q, s)
    v = w.values[:-1]
    if smap is None:
        steps = [[x * vi for x in range(q)] for vi in v]
        words = all_words(n, q)
    elif q == 4:
        steps = [[x * vi for x in smap.inverse] for vi in v]
        words = all_words(2 * n, 2)
    else:
        steps = [[b1 * v1 + b2 * v2 for b1, b2 in smap.table] for v1, v2 in zip(v[::2], v[1::2])]
        words = all_words(n // 2, 4)
    buckets = {}
    for x, a in zip(words, _residue_stream([[step] for step in steps], w.modulus)):
        buckets.setdefault(a, []).append(x)
    return {a: tuple(buckets[a]) for a in sorted(buckets)}


def qary_vt_classes_by_residues(n, q, smap=None):
    """Per-word oracle for ``qary_vt_classes``: bucket Z_q^n by residue pair.

    With ``smap`` each class is mapped word by word by ``apply``, and sorted.
    """
    buckets = {}
    for x in all_words(n, q):
        buckets.setdefault(qary_vt_residues(x, q), []).append(x)
    if smap is not None:
        buckets = {res: sorted(map(smap.apply, ws)) for res, ws in buckets.items()}
    return {res: tuple(ws) for res, ws in sorted(buckets.items())}


def binary_vt_code_by_checksum(n, a):
    """Per-word oracle for ``binary_vt_code``: the words of Z_2^n with checksum a,
    in scan order, which is lexicographic."""
    return tuple(w for w in all_words(n, 2) if binary_vt_residue(w) == a)


def qary_vt_code_by_residues(n, q, a, b):
    """Per-word oracle for ``qary_vt_code``: the words of Z_q^n with residues (a, b),
    in scan order, which is lexicographic."""
    return tuple(w for w in all_words(n, q) if qary_vt_residues(w, q) == (a, b))


@contextlib.contextmanager
def direct_route():
    """Second route for the orbit campaigns: inside, every class is built and
    every cell decided on its own.

    ``verify._helberg_cells`` is replaced by one that builds every class of
    the space with the stream oracle (``helberg_stream_classes``), takes each
    class's size from its words, and calls the batch function on each class
    of ``min_size`` or more words as a batch of one, its verdict making the
    cell of label "a=<residue>".  ``verify._run_orbits`` is replaced by a
    loop that calls the batch function on every input in order, as a batch
    of one, its verdict making the cell of the item's label.  So no verdict
    or size is copied between classes or maps, no class comes from the walk,
    and no class shares a kernel call.
    """

    def each(items, fn, workers):
        return [
            CampaignCell(label, *verdict)
            for _, label, args in items
            for verdict in fn([args])
        ]

    def every_class(n, q, s, smap, limit, batch, check_s, workers, min_size=2, paired=True):
        m = weight_sequence(n, q, s).modulus
        classes = helberg_stream_classes(n, q, s, smap)
        cells = [
            CampaignCell(f"a={a}", *verdict)
            for a, ws in classes.items()
            if len(ws) >= min_size
            for verdict in batch(check_s, [ws])
        ]
        return m, [len(classes.get(a, ())) for a in range(m)], tuple(cells)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify_mod, "_run_orbits", each)
        patch.setattr(verify_mod, "_helberg_cells", every_class)
        yield


def _check_bits(*bits):
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"bit {b} not in {{0, 1}}")


def phi8_symbol_from_bits(b1, b2):
    """Closed form for the phi8 preimage of a bit pair: 3*b1 + b2 - 2*b1*b2."""
    _check_bits(b1, b2)
    return 3 * b1 + b2 - 2 * b1 * b2


def phi9_symbol_from_bits(b1, b2):
    """Closed form for the phi9 preimage of a bit pair: 3 - b1 - 2*b2."""
    _check_bits(b1, b2)
    return 3 - b1 - 2 * b2


def phi9_bits_from_symbol(sym):
    """Closed form for the phi9 image of a symbol: ((x+1) mod 2, 1 - x//2)."""
    if sym not in (0, 1, 2, 3):
        raise ValueError(f"symbol {sym} not in Z_4")
    return ((sym + 1) % 2, 1 - sym // 2)


def phi8_signature_bit(b1, b2, b3, b4):
    """Signature bit of two consecutive phi8-mapped symbols, from their bits.

    Evaluates the boolean polynomial equivalent to
    phi8^-1(b1 b2) <= phi8^-1(b3 b4).
    """
    _check_bits(b1, b2, b3, b4)
    return (
        (1 - b1) * (1 - b2)
        + (1 - b1) * b2 * (1 - b3) * b4
        + b2 * b3
        + b1 * (1 - b2) * b3 * (1 - b4)
    )


def modulus_from_definition(n, q, s):
    """m written out directly: (q-1) * sum of the s top weights, plus one."""
    w = weight_sequence(n, q, s)
    return (q - 1) * sum(w.v(n - i) for i in range(s)) + 1


#: Largest word space the enumeration oracle visits.
ORACLE_MAX_WORDS = 4**7


def enumerated_census(n, q, residue):
    """Enumeration oracle: words of Z_q^n per residue, populated ones only."""
    if q**n > ORACLE_MAX_WORDS:
        raise ValueError(f"{q}^{n} words exceed the oracle's {ORACLE_MAX_WORDS}")
    return dict(sorted(Counter(residue(w) for w in all_words(n, q)).items()))


def oracle_grids(max_q=4):
    """Random (n, q) with 2 <= q <= max_q and q^n within the oracle's reach."""

    def lengths(q):
        top = max(n for n in range(1, 20) if q**n <= ORACLE_MAX_WORDS)
        return st.tuples(st.integers(min_value=1, max_value=top), st.just(q))

    return st.integers(min_value=2, max_value=max_q).flatmap(lengths)


def grids_beyond_oracle(max_q=5, max_words=2**20):
    """Random (n, q) with 2 <= q <= max_q and q^n past the oracle's reach."""

    def lengths(q):
        ns = [n for n in range(1, 40) if ORACLE_MAX_WORDS < q**n <= max_words]
        return st.tuples(st.sampled_from(ns), st.just(q))

    return st.integers(min_value=2, max_value=max_q).flatmap(lengths)


@pytest.fixture
def sphere_oracle():
    return sphere_by_index_subsets


def words_strategy(max_len=10, max_q=4, min_len=0):
    """Random (word, q) pairs with symbols drawn from Z_q."""

    def build(q):
        return st.tuples(
            st.lists(
                st.integers(min_value=0, max_value=q - 1),
                min_size=min_len,
                max_size=max_len,
            ).map(tuple),
            st.just(q),
        )

    return st.integers(min_value=2, max_value=max_q).flatmap(build)
