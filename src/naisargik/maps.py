"""Bijections between Z_4 and 2-bit binary pairs.

There are 4! = 24 such bijections.  Nine of them, the Naisargik maps
phi1..phi9, have special behaviour on VT and Helberg codebooks and are
available by name.  phi8 is the classical Gray map; phi9 drives the Helberg
results.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .words import Word, check_symbols

BitPair = tuple[int, int]


@dataclass(frozen=True)
class SymbolMap:
    """A bijection Z_4 -> Z_2^2, stored as the image pair of each symbol."""

    name: str
    table: tuple[BitPair, BitPair, BitPair, BitPair]

    def __post_init__(self) -> None:
        if len(set(self.table)) != 4:
            raise ValueError(f"map {self.name}: image pairs must be distinct")
        for pair in self.table:
            if len(pair) != 2 or any(b not in (0, 1) for b in pair):
                raise ValueError(f"map {self.name}: images must be bit pairs")

    @cached_property
    def inverse(self) -> tuple[int, ...]:
        """The symbol each bit pair (b1, b2) stands for, at index 2 * b1 + b2."""
        return tuple(sorted(range(4), key=self.table.__getitem__))

    def apply(self, word: Word) -> Word:
        """Map a quaternary word to its binary image of twice the length."""
        check_symbols(word, 4)
        out: list[int] = []
        table = self.table
        for sym in word:
            out.extend(table[sym])
        return tuple(out)

    def invert(self, bits: Word) -> Word:
        """Map an even-length binary word back to its quaternary preimage."""
        if len(bits) % 2:
            raise ValueError("inverse map needs an even-length binary word")
        check_symbols(bits, 2)
        inverse = self.inverse
        return tuple(inverse[2 * b1 + b2] for b1, b2 in zip(bits[::2], bits[1::2]))


def _mk(name: str, *pairs: BitPair) -> SymbolMap:
    return SymbolMap(name, tuple(pairs))  # type: ignore[arg-type]


#: The nine named maps, keyed phi1..phi9.
NAISARGIK_MAPS: dict[str, SymbolMap] = {
    m.name: m
    for m in (
        _mk("phi1", (0, 0), (1, 0), (1, 1), (0, 1)),
        _mk("phi2", (0, 1), (0, 0), (1, 0), (1, 1)),
        _mk("phi3", (0, 1), (1, 1), (1, 0), (0, 0)),
        _mk("phi4", (1, 1), (0, 1), (0, 0), (1, 0)),
        _mk("phi5", (1, 1), (1, 0), (0, 0), (0, 1)),
        _mk("phi6", (1, 0), (0, 0), (0, 1), (1, 1)),
        _mk("phi7", (1, 0), (1, 1), (0, 1), (0, 0)),
        _mk("phi8", (0, 0), (0, 1), (1, 1), (1, 0)),
        _mk("phi9", (1, 1), (0, 1), (1, 0), (0, 0)),
    )
}

#: phi1..phi8 show the equal-weight behaviour on VT images; phi9 is the
#: Helberg map.
VT_MAP_NAMES = tuple(f"phi{i}" for i in range(1, 9))


def naisargik_map(name: str) -> SymbolMap:
    """Look up one of the nine named maps; unknown names are a usage error."""
    try:
        return NAISARGIK_MAPS[name]
    except KeyError:
        known = ", ".join(NAISARGIK_MAPS)
        raise ValueError(f"unknown map {name!r} (known: {known})") from None


def all_bijections() -> tuple[SymbolMap, ...]:
    """All 24 bijections Z_4 -> Z_2^2 in lexicographic order of their tables.

    Maps matching a Naisargik row keep their phi name; the rest are named
    perm-<k> by their position k in this canonical order.  The sequence is
    identical on every call.
    """
    named = {m.table: m.name for m in NAISARGIK_MAPS.values()}
    out = []
    pairs = tuple(itertools.product((0, 1), repeat=2))
    for k, table in enumerate(sorted(itertools.permutations(pairs, 4))):
        name = named.get(table, f"perm-{k}")
        out.append(SymbolMap(name, table))
    return tuple(out)

