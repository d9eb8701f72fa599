"""Shared oracles and hypothesis strategies for the test suite."""

from __future__ import annotations

import itertools
from collections import Counter

import pytest
from hypothesis import strategies as st


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
