"""Words over Z_q: digit-string serialization, validation, guarded enumeration.

A word is a plain tuple of small ints, one per symbol.  All modules in this
package share this representation; the alphabet size ``q`` travels alongside
wherever it matters (parsing, residue computations, codebook parameters).
"""

from __future__ import annotations

import itertools
from typing import Iterator

Word = tuple[int, ...]

#: Default cap on the number of words a single exhaustive enumeration may visit.
DEFAULT_MAX_ENUM = 4**12


class ResourceLimitError(RuntimeError):
    """Raised when an exhaustive computation would exceed its configured cap."""


def check_symbols(word: Word, q: int) -> None:
    """Raise ValueError unless every symbol of ``word`` lies in [0, q)."""
    if q < 2:
        raise ValueError(f"alphabet size must be >= 2, got {q}")
    for sym in word:
        if not 0 <= sym < q:
            raise ValueError(f"symbol {sym} out of range for alphabet Z_{q}")


def check_digit_alphabet(q: int) -> None:
    """Raise ValueError unless words over Z_q serialize as digit strings."""
    if q > 10:
        raise ValueError("digit-string serialization requires q <= 10")


def parse_word(text: str, q: int) -> Word:
    """Parse a digit string like '0321' into a word over Z_q.

    The empty string parses to the empty word.  Only works for q <= 10,
    which covers everything this package constructs.
    """
    check_digit_alphabet(q)
    try:
        word = tuple(int(ch) for ch in text.strip())
    except ValueError:
        raise ValueError(f"not a digit string: {text!r}") from None
    check_symbols(word, q)
    return word


#: ``bytes.translate`` table sending symbols 0..9 to their digits and every
#: other byte to a non-ASCII one.
_DIGITS = b"0123456789" + b"\x80" * 246


def format_word(word: Word) -> str:
    """Render a word as a plain digit string ('' for the empty word).

    Symbols outside 0..9 are written in decimal, one after another."""
    try:
        return bytes(word).translate(_DIGITS).decode("ascii")
    except ValueError:  # a symbol outside range(256), or outside 0..9
        return "".join(map(str, word))


def ensure_enumerable(n: int, q: int, limit: int = DEFAULT_MAX_ENUM) -> None:
    """Guard an exhaustive scan of the q^n words of Z_q^n against the cap ``limit``.

    A negative n or q < 2 is refused first.  q^n is never built: a length past
    the cap's bit length is over it already, and the message names ``q^n``.
    """
    if n < 0:
        raise ValueError("word length must be >= 0")
    if q < 2:
        raise ValueError(f"alphabet size must be >= 2, got {q}")
    if limit < 1:
        raise ValueError("enumeration cap must be >= 1")
    if q ** min(n, limit.bit_length()) > limit:
        raise ResourceLimitError(
            f"enumeration of {q}^{n} words exceeds the cap of {limit}"
        )


def iter_words(n: int, q: int, limit: int = DEFAULT_MAX_ENUM) -> Iterator[Word]:
    """Yield all q^n words of length n in lexicographic order, guarded."""
    ensure_enumerable(n, q, limit)
    return itertools.product(range(q), repeat=n)
