"""Builders for the golden reference tables the CLI can emit.

Every builder recomputes its content from the library; nothing is replayed
from stored data except the fixed study pairs of the residue-difference
table, which are inputs rather than results.  Tables whose reference
counterparts are known to be internally inconsistent carry a note column
saying the values are recomputed.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, replace

from .helberg import (
    cardinality_lower_bound,
    cardinality_upper_bound,
    guard_word_space,
    helberg_census,
    helberg_classes,
    helberg_code,
    upper_bound_exponent,
)
from .maps import naisargik_map
from .spheres import sphere_members
from .verify import phi9_image_classes, verify_residue_bijection
from .vt import image_pair_diff, qary_vt_census, qary_vt_code
from .words import DEFAULT_MAX_ENUM, format_word, parse_word


@dataclass(frozen=True)
class Table:
    name: str
    headers: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]


#: Fixed equal-weight study pairs (images under phi8), one per length.
RESIDUE_DIFF_PAIRS: tuple[tuple[str, str], ...] = (
    ("10", "00"),
    ("0001", "0000"),
    ("110001", "100001"),
    ("11100001", "11000001"),
    ("1011110111", "1011101101"),
    ("001000111001", "001000011001"),
    ("10111111100001", "10011111100001"),
    ("0001000011101000", "0000100001101000"),
    ("010111011010011101", "010111010100101101"),
    ("11110101011101111011", "11110101011011110101"),
)


def _sphere_cell(word, s: int) -> str:
    return ";".join(sorted(format_word(w) for w in sphere_members(word, s)))


def table2(n: int = 4, a: int = 1, limit: int = DEFAULT_MAX_ENUM) -> Table:
    """Quaternary VT codebook (a, 2) beside its phi8 images."""
    smap = naisargik_map("phi8")
    words = qary_vt_code(n, 4, a, 2, limit)
    rows = tuple((format_word(w), format_word(smap.apply(w))) for w in words)
    return Table("table2", ("codeword", "image"), rows)


def table3() -> Table:
    """Recomputed residue differences for the fixed phi8 study pairs."""
    smap = naisargik_map("phi8")
    rows = []
    for xs, ys in RESIDUE_DIFF_PAIRS:
        x = parse_word(xs, 2)
        y = parse_word(ys, 2)
        da, db = image_pair_diff(x, y, smap)
        rows.append((str(len(x) // 2), xs, ys, str(da), str(db)))
    return Table("table3", ("n", "x", "y", "abs_da", "abs_db"), tuple(rows))


def table5(n: int = 4, q: int = 4, s: int = 1, limit: int = DEFAULT_MAX_ENUM) -> Table:
    """Helberg residue census, one row per populated residue."""
    counts = helberg_census(n, q, s, limit)
    rows = tuple((str(a), str(c)) for a, c in enumerate(counts) if c)
    return Table("table5", ("residue", "count"), rows)


def table6(n_values: Iterable[int] = (3, 4, 5, 6, 7), limit: int = DEFAULT_MAX_ENUM) -> Table:
    """Maximum-cardinality residues and their binary image residues."""
    rows = []
    for n in n_values:
        result = verify_residue_bijection(n, limit)
        top = result.summary["max_codewords"]
        for a, a_prime in result.summary["mapping"]:
            rows.append((str(n), str(top), str(a), str(a_prime)))
    return Table("table6", ("n", "count", "residue", "image_residue"), tuple(rows))


def table7(n_values: Iterable[int] = (2, 3, 4, 5, 6), limit: int = DEFAULT_MAX_ENUM) -> Table:
    """Cardinality comparison with the bound columns evaluated exactly.

    The note column marks every row as recomputed: the bound columns come
    from the formulas as implemented, and the maxima from fresh censuses.
    """
    rows = []
    for n in n_values:
        max_binary = max(helberg_census(2 * n, 2, 2, limit))
        max_image = max(helberg_census(n, 4, 1, limit))
        rows.append(
            (
                str(n),
                str(cardinality_lower_bound(n, 4, 1)),
                str(cardinality_upper_bound(n, 4, 1)),
                str(max_binary),
                str(max_image),
                "recomputed",
            )
        )
    return Table(
        "table7",
        ("n", "lower_bound", "upper_bound", "max_binary", "max_image", "note"),
        tuple(rows),
    )


def table8(
    n_values: Iterable[int] | None = None,
    s: int | None = None,
    limit: int = DEFAULT_MAX_ENUM,
) -> Table:
    """Maximum codebook size and all achieving residues per (n, s).

    Without ``n_values`` and ``s`` the cells are those of the reference
    table; given both, one cell per length at that ``s``.
    """
    if (n_values is None) != (s is None):
        raise ValueError("table8 takes --n and --s together, or neither")
    if n_values is None:
        cells = ((3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 1), (5, 2), (6, 1), (7, 1))
    else:
        cells = ((n, s) for n in n_values)
    rows = []
    for n, s in cells:
        counts = helberg_census(n, 4, s, limit)
        top = max(counts)
        residues = " ".join(str(a) for a, c in enumerate(counts) if c == top)
        rows.append((str(n), str(s), str(top), residues))
    return Table("table8", ("n", "s", "count", "residues"), tuple(rows))


def table9(
    n: int = 10, s: int = 2, a: int | None = None, limit: int = DEFAULT_MAX_ENUM
) -> Table:
    """Binary Helberg codebook beside its phi9 inverse images.

    Defaults to the smallest maximum-cardinality residue when ``a`` is omitted.
    An odd ``n`` has no inverse image and is refused before any counting.
    """
    if n % 2:
        raise ValueError("binary length must be even to invert the map")
    smap = naisargik_map("phi9")
    if a is None:
        counts = helberg_census(n, 2, s, limit)
        a = counts.index(max(counts))
    code = helberg_code(n, 2, s, a, limit)
    rows = tuple((format_word(w), format_word(smap.invert(w))) for w in code)
    return Table("table9", ("codeword", "image"), rows)


def table10(n: int = 4, a: int = 40, limit: int = DEFAULT_MAX_ENUM) -> Table:
    """phi9 images of one quaternary class against its binary class.

    The images lie in their binary class exactly when they share one residue.
    """
    pairs, image_residues = phi9_image_classes(n, (a,), limit)[a]
    rows = tuple(
        (
            format_word(w),
            format_word(img),
            format_word(img) if len(image_residues) == 1 else "",
        )
        for w, img in pairs
    )
    return Table("table10", ("codeword", "image", "binary_codeword"), rows)


def table11(n: int = 5, a: int = 134, limit: int = DEFAULT_MAX_ENUM) -> Table:
    """Table 10 for the maximal class a = 134 at n = 5."""
    return replace(table10(n, a, limit), name="table11")


def table12(n: int = 4, s: int = 1, a: int = 13, limit: int = DEFAULT_MAX_ENUM) -> Table:
    """(s+1)-deletion spheres of the phi9 images of one Helberg codebook.

    Emitted from recomputed images; the reference listing for these spheres
    does not match its own mapping table, hence the note column.
    """
    smap = naisargik_map("phi9")
    images = map(smap.apply, helberg_code(n, 4, s, a, limit))
    rows = tuple((format_word(x), _sphere_cell(x, s + 1), "recomputed") for x in images)
    return Table("table12", ("codeword", "sphere", "note"), rows)


def table13(
    n: int = 10, s: int = 2, a: int = 66, limit: int = DEFAULT_MAX_ENUM
) -> Table:
    """1-deletion spheres of the phi9 inverse images of one binary codebook.

    An odd ``n`` has no inverse image and is refused before any enumeration.
    """
    if n % 2:
        raise ValueError("binary length must be even to invert the map")
    guard_word_space(n, 2, s, limit, a)
    preimages = helberg_classes(n, 2, s, limit, naisargik_map("phi9"), [range(a, a + 1)])
    rows = tuple((format_word(w), _sphere_cell(w, 1)) for w in preimages.get(a, ()))
    return Table("table13", ("codeword", "sphere"), rows)


def table14(n: int = 4, a: int = 1, limit: int = DEFAULT_MAX_ENUM) -> Table:
    """1-deletion spheres of the phi8 images of one quaternary VT codebook (a, 2)."""
    smap = naisargik_map("phi8")
    images = map(smap.apply, qary_vt_code(n, 4, a, 2, limit))
    rows = tuple((format_word(x), _sphere_cell(x, 1)) for x in images)
    return Table("table14", ("codeword", "sphere"), rows)


def table15(n: int = 4, q: int = 4, limit: int = DEFAULT_MAX_ENUM) -> Table:
    """Residue-pair census of the q-ary VT partition."""
    census = qary_vt_census(n, q, limit)
    rows = tuple(
        (str(a), str(b), str(count)) for (a, b), count in sorted(census.items())
    )
    return Table("table15", ("a", "b", "count"), rows)


def bounds_table(n_values: Iterable[int] = (2, 3, 4, 5, 6), q: int = 4, s: int = 1) -> Table:
    """Formula-evaluated lower/upper cardinality bounds, exact and approximate.

    A row whose upper bound exceeds 2^1024 by its bit lengths alone is refused
    before either Fraction is built; nearer the float limit the exact bounds
    are converted and an overflow refuses the row the same way.
    """
    rows = []
    for n in n_values:
        try:
            if upper_bound_exponent(n, q, s) >= 1024:
                raise OverflowError
            lo = cardinality_lower_bound(n, q, s)
            hi = cardinality_upper_bound(n, q, s)
            approx = (f"{float(lo):.6g}", f"{float(hi):.6g}")
        except OverflowError:
            raise ValueError(f"the approximate bound column overflows a float at n = {n}") from None
        rows.append((str(n), str(q), str(s), str(lo), approx[0], str(hi), approx[1]))
    return Table(
        "bounds",
        ("n", "q", "s", "lower", "lower_approx", "upper", "upper_approx"),
        tuple(rows),
    )
