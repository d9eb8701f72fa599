"""Cross-cutting verification campaigns over maps, spheres, and codebooks.

Each campaign sweeps a parameter grid (usually the residues of one codebook
family), runs one cell per grid point (mostly an exhaustive sphere check),
and aggregates verdicts into a CampaignResult that serializes to JSON.  The
Helberg class campaigns (thm1, thm2, helberg-self, binary vt1, reduction,
torsion) share one builder, ``_helberg_cells``, and every class campaign one
runner, ``_run_orbits``, the one place a class campaign's cells are made.  A
batch function takes a list of inputs and returns one (passed, detail)
verdict per input, so one call decides a whole round of a campaign (one
``check_codebooks`` call for its sphere checks); the inputs are independent,
so the runner may instead fan chunks of them out across one pool of worker
processes and join their verdicts in order, making output identical for
every worker count.  The runner labels each verdict's cell from its item.

Deletion commutes with every symbol permutation and with reversal
(Levenshtein 1966), so two cells whose inputs such a symmetry carries onto
each other share their verdict and their counts.  A campaign that knows such
a symmetry builds its orbit where it builds its classes: the complement
``_complement`` (thm1 with a map that turns x -> 3 - x into bit complement,
thm2, helberg-self, binary vt1), reversal with complement
``_reverse_complement`` (q-ary vt1), or ``_map_orbit`` for conj1's maps.
Those campaigns decide only the first cell of each orbit and mirror a
passing verdict onto the rest; the cells of an orbit whose first cell fails,
and a class that is its own partner, are decided directly.  Under the
complement a mirrored class is not even built unless its leader fails: its
size is its leader's.  Other campaigns, and thm1 under any other map (phi8,
phi3), decide every cell.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Callable, Hashable, Sequence

from .helberg import (
    _guard_space,
    coefficient,
    guard_word_space,
    helberg_census,
    helberg_classes,
    moment,
    reduction_code,
    torsion_code,
    weight_sequence,
)
from .maps import SymbolMap, naisargik_map
from .spheres import CorrectionReport, check_codebooks
from .vt import equal_weight_scan, guard_vt_space, qary_vt_classes
from .words import DEFAULT_MAX_ENUM, Word, format_word


@dataclass(frozen=True)
class CampaignCell:
    """One grid cell: a label, a verdict, and JSON-ready detail."""

    label: str
    passed: bool
    detail: dict


@dataclass(frozen=True)
class CampaignResult:
    campaign: str
    params: dict
    cells: tuple[CampaignCell, ...]
    summary: dict

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cells)

    def first_failure(self) -> CampaignCell | None:
        for cell in self.cells:
            if not cell.passed:
                return cell
        return None

    def to_dict(self) -> dict:
        return {
            "campaign": self.campaign,
            "params": self.params,
            "passed": self.passed,
            "summary": self.summary,
            "cells": [
                {"label": c.label, "passed": c.passed, **c.detail}
                for c in self.cells
            ],
        }


def _witness_detail(report: CorrectionReport) -> dict:
    if report.ok or report.witness is None:
        return {}
    x, y, shared = report.witness
    return {
        "witness": {
            "x": format_word(x),
            "y": format_word(y),
            "shared": format_word(shared),
        }
    }


Verdict = tuple[bool, dict]


def _correction_batch(check_s: int, inputs: Sequence[Sequence[Word]]) -> list[Verdict]:
    return [
        (report.ok, {"codewords": len(ws), **_witness_detail(report)})
        for ws, report in zip(inputs, check_codebooks(inputs, check_s))
    ]


def _reduction_batch(check_s: int, inputs: Sequence[Sequence[Word]]) -> list[Verdict]:
    reduced = [reduction_code(ws) for ws in inputs]
    return [
        (report.ok, {"codewords": len(ws), "reduced": len(red), **_witness_detail(report)})
        for ws, red, report in zip(inputs, reduced, check_codebooks(reduced, check_s))
    ]


def _torsion_batch(_: None, inputs: Sequence[Sequence[Word]]) -> list[Verdict]:
    return [
        (
            len(tor) <= 1,
            {
                "codewords": len(ws),
                "torsion_size": len(tor),
                "torsion": list(map(format_word, tor)),
            },
        )
        for ws, tor in zip(inputs, map(torsion_code, inputs))
    ]


def effective_workers(requested: int, cells: int, cpus: int | None) -> int:
    """Worker processes worth starting: no more than the cells or the CPUs."""
    return min(requested, cells, cpus or 1)


def _equal_weight_batch(inputs: Sequence[tuple[int, str, int]]) -> list[Verdict]:
    verdicts = []
    for n, name, limit in inputs:
        pairs, bad = equal_weight_scan(n, naisargik_map(name), limit)
        detail: dict = {"intersecting_pairs": pairs}
        if bad is not None:
            detail["witness"] = {"x": format_word(bad[0]), "y": format_word(bad[1])}
        verdicts.append((bad is None, detail))
    return verdicts


def _run_orbits(
    items: Sequence[tuple[Hashable, str, object]],
    fn: Callable[[Sequence], list[Verdict]],
    workers: int,
    fill: Callable[[list], list] | None = None,
) -> list[CampaignCell]:
    """Cells of ``fn`` on (orbit, label, input) items, in their order, deciding one per orbit.

    ``fn`` takes a list of inputs and returns one verdict per input, in their
    order; each verdict becomes its item's cell, under the item's label, as
    soon as its round returns it.  Items of one orbit must share ``fn``'s
    verdict and counts.  The first item of every orbit is decided in one
    round; a later one takes a passing first cell under its own label.  When
    the first cell fails, the later ones are decided too, in a second round,
    so each failing cell reports its own canonical witness.  With ``fill``, a
    later item's input is a stand-in that ``fill`` turns into the real one,
    called once on the stand-ins of the second round.

    A round of one worker hands ``fn`` every input in one call.  A round of
    more than one input may take worker processes instead: its inputs go in
    order in chunks, about four per worker, one call per chunk.  The first
    round that does so opens the one pool both rounds share.
    """
    first: dict[Hashable, int] = {}
    heads = [first.setdefault(orbit, i) for i, (orbit, _, _) in enumerate(items)]
    cells: list[CampaignCell | None] = [None] * len(items)
    pool: ProcessPoolExecutor | None = None
    with ExitStack() as stack:

        def run(rows: list[int], inputs: list) -> None:
            nonlocal pool
            size = effective_workers(workers, len(inputs), os.cpu_count())
            if size > 1:
                if pool is None:
                    pool = stack.enter_context(ProcessPoolExecutor(max_workers=size))
                step = max(1, len(inputs) // (4 * size))
                chunks = [inputs[start : start + step] for start in range(0, len(inputs), step)]
                verdicts = chain.from_iterable(pool.map(fn, chunks))
            else:
                verdicts = fn(inputs)
            for i, (passed, detail) in zip(rows, verdicts):
                cells[i] = CampaignCell(items[i][1], passed, detail)

        leaders = list(first.values())
        run(leaders, [items[i][2] for i in leaders])
        redo = [i for i, head in enumerate(heads) if head != i and not cells[head].passed]
        if redo:
            inputs = [items[i][2] for i in redo]
            run(redo, fill(inputs) if fill else inputs)
    return [
        CampaignCell(label, cells[head].passed, cells[head].detail) if cell is None else cell
        for cell, head, (_, label, _) in zip(cells, heads, items)
    ]


def _complement(n: int, q: int, s: int) -> tuple[int, int]:
    """m and c such that x -> q - 1 - x, symbol by symbol, sends class a of
    H(n, q, s, .) to class (c - a) mod m.

    With weights v_1..v_n, c is (q - 1) * (v_1 + ... + v_n) mod m.
    """
    w = weight_sequence(n, q, s)
    return w.modulus, (q - 1) * sum(w.values[:-1]) % w.modulus


def _reverse_complement(n: int, q: int) -> Callable[[tuple[int, int]], tuple[int, int]]:
    """Orbit of q-ary VT class (a, b) under reversal with x -> q - 1 - x.

    Signature bit i of the image is bit n - i of the word, so the checksum
    goes to -a mod n, and the symbol sum to n(q - 1) - b mod q.
    """
    return lambda key: min(key, (-key[0] % n, (n * (q - 1) - key[1]) % q))


def _complement_commutes(smap: SymbolMap) -> bool:
    """smap(3 - x) is the bit complement of smap(x) for every symbol x."""
    return all(smap.table[3 - x] == (1 - b1, 1 - b2) for x, (b1, b2) in enumerate(smap.table))


def _map_orbit(smap: SymbolMap) -> tuple:
    """The least table of the maps sharing every conj1 cell value with ``smap``.

    Two operations generate them: c o smap complements every image, and
    swap o smap o (3 - .) gives the reversed image of the reversed complement
    of each word, which lies in VT class (-a, 3n - b) when the word lies in
    (a, b).  Neither changes which images share a sphere member, nor whether
    two images have equal weight.
    """
    flip = tuple((b2, b1) for b1, b2 in reversed(smap.table))
    return min(
        tuple((1 - b1, 1 - b2) for b1, b2 in table) if complement else table
        for table in (smap.table, flip)
        for complement in (False, True)
    )


def _scan_campaign(n: int, names: tuple[str, ...], limit: int, workers: int) -> CampaignResult:
    """Equal-weight scans, one cell per map, each cell building its own image classes.

    One map of each orbit in ``names`` is scanned (see ``_map_orbit``).  Z_4^n
    is guarded here first, so a refused n starts no worker.
    """
    guard_vt_space(n, 4, limit)
    items = [(_map_orbit(naisargik_map(name)), name, (n, name, limit)) for name in names]
    cells = _run_orbits(items, _equal_weight_batch, workers)
    return CampaignResult(
        campaign="equal-weight",
        params={"n": n, "maps": ",".join(names)},
        cells=tuple(cells),
        summary={"intersecting_pairs": sum(c.detail["intersecting_pairs"] for c in cells)},
    )


def _helberg_cells(
    n: int,
    q: int,
    s: int,
    smap: SymbolMap | None,
    limit: int,
    batch: Callable[[int | None, Sequence], list[Verdict]],
    check_s: int | None,
    workers: int,
    min_size: int = 2,
    paired: bool = True,
) -> tuple[int, list[int], tuple[CampaignCell, ...]]:
    """m, the size of every class of H(n, q, s, .) by residue, and the cells of
    ``batch`` at ``check_s``, one per class of ``min_size`` or more words, in
    residue order.

    Smaller classes are trivial: they get no cell, so a campaign tallies them
    as its residues minus its cells.  The classes are built through ``smap``
    as ``helberg_classes(..., smap)`` builds them, so no codeword is mapped
    here.  ``paired`` campaigns pair class a with (c - a) mod m under
    x -> q - 1 - x (``_complement``).  The leader of each orbit, the smaller
    residue, lies in [0, c/2] or in [c + 1, (c + m)/2], and only those two
    ranges are built.  A partner takes its leader's size, and one pass over
    Z_m gives every residue of ``min_size`` or more words its item: a leader
    its class, a partner its own residue as the stand-in of its class.  A
    partner takes its leader's cell when the leader passes (``_run_orbits``).
    The partners of failing leaders lie in [c - c/2, c] and in
    [(c + m)/2, m - 1], one side of c each; ``fill`` builds them by one walk
    over the stretch of each side between the first and the last of them, so
    leaders and partners together cost at most one walk of Z_m.
    """
    _guard_space(n, q, s, limit, smap)
    m, c = _complement(n, q, s)
    spans = [range(c // 2 + 1), range(c + 1, (c + m) // 2 + 1)] if paired else [range(m)]
    leaders = helberg_classes(n, q, s, limit, smap, spans)
    sizes = [0] * m
    for a, ws in leaders.items():
        sizes[a] = len(ws)
        if paired:
            sizes[(c - a) % m] = len(ws)
    items = [
        (a, f"a={a}", leaders[a]) if a in leaders else ((c - a) % m, f"a={a}", a)
        for a, size in enumerate(sizes)
        if size >= min_size
    ]

    def fill(residues: list[int]) -> list[tuple[Word, ...]]:
        # The residues come in ascending order.
        sides = [[a for a in residues if a <= c], [a for a in residues if a > c]]
        wanted = [range(side[0], side[-1] + 1) for side in sides if side]
        partners = helberg_classes(n, q, s, limit, smap, wanted)
        return [partners[a] for a in residues]

    return m, sizes, tuple(_run_orbits(items, partial(batch, check_s), workers, fill))


def _class_summary(m: int, sizes: list[int], cells: tuple) -> dict:
    top = max(sizes, default=0)
    return {
        "modulus": m,
        "residues": m,
        "trivial_residues": m - len(cells),
        "max_codewords": top,
        "max_residues": [a for a, k in enumerate(sizes) if k == top],
    }


def verify_image_correction(
    n: int,
    s: int,
    smap: SymbolMap | None = None,
    limit: int = DEFAULT_MAX_ENUM,
    workers: int = 1,
) -> CampaignResult:
    """Mapped quaternary Helberg codebooks correct one extra deletion.

    For every residue a in Z_m the image of H(n, 4, s, a) is checked at
    s + 1 deletions.  Classes of size <= 1 pass vacuously and are tallied in
    the summary instead of producing cells.
    """
    smap = smap or naisargik_map("phi9")
    # x -> 3 - x on the quaternary words complements every image bit, for
    # maps that commute with it.
    paired = _complement_commutes(smap)
    m, sizes, cells = _helberg_cells(
        n, 4, s, smap, limit, _correction_batch, s + 1, workers, paired=paired
    )
    return CampaignResult(
        campaign="image-correction",
        params={"n": n, "q": 4, "s": s, "check_s": s + 1, "map": smap.name},
        cells=cells,
        summary=_class_summary(m, sizes, cells),
    )


def verify_inverse_correction(
    n_bits: int,
    s: int,
    smap: SymbolMap | None = None,
    limit: int = DEFAULT_MAX_ENUM,
    workers: int = 1,
) -> CampaignResult:
    """Inverse images of binary Helberg codebooks correct floor(s/2) deletions.

    ``n_bits`` must be even so every codeword has a quaternary preimage.
    """
    smap = smap or naisargik_map("phi9")
    # Bit complement of the binary words; on the preimages it is the symbol
    # permutation smap^-1 o c o smap, for every map.
    m, sizes, cells = _helberg_cells(n_bits, 2, s, smap, limit, _correction_batch, s // 2, workers)
    return CampaignResult(
        campaign="inverse-correction",
        params={"n": n_bits, "q": 2, "s": s, "check_s": s // 2, "map": smap.name},
        cells=cells,
        summary=_class_summary(m, sizes, cells),
    )


def phi9_image_classes(
    n: int, residues: Sequence[int] | None, limit: int
) -> dict[int, tuple[tuple[tuple[Word, Word], ...], frozenset[int]]]:
    """phi9 images of classes of H(n, 4, 1, .) and their residues in H(2n, 2, 2, .).

    ``residues`` picks the quaternary classes, each checked against Z_m
    before the walk; None picks every class of maximum cardinality, as
    ``helberg_census`` counts them.  Each picked residue a maps to a pair: the
    (codeword, image) pairs of H(n, 4, 1, a) in class order, and the residues
    of the images in H(2n, 2, 2, .).  When those residues are the single a',
    every image lies in H(2n, 2, 2, a') by the definition of the class.  Only
    the picked classes of Z_4^n are built.
    """
    if residues is None:
        counts = helberg_census(n, 4, 1, limit)
        top = max(counts)
        residues = [a for a, k in enumerate(counts) if k == top]
    for a in residues:
        guard_word_space(n, 4, 1, limit, a)
    smap = naisargik_map("phi9")
    classes4 = helberg_classes(n, 4, 1, limit, None, [range(a, a + 1) for a in residues])
    w2 = weight_sequence(2 * n, 2, 2)
    out = {}
    for a in residues:
        pairs = tuple((w, smap.apply(w)) for w in classes4.get(a, ()))
        out[a] = (pairs, frozenset(moment(img, w2) % w2.modulus for _, img in pairs))
    return out


def verify_residue_bijection(
    n: int, limit: int = DEFAULT_MAX_ENUM
) -> CampaignResult:
    """Maximum single-deletion quaternary classes map onto one binary class.

    For each residue a of maximum cardinality in H(n, 4, 1, .), all phi9
    images must share a single residue a' of H(2n, 2, 2, .), which puts them
    in that class, and (stronger, reported separately) fill it.  phi9 is
    injective, so the images fill the class when their count equals its
    census count.
    """
    cells = []
    mapping: list[tuple[int, int]] = []
    classes = phi9_image_classes(n, None, limit)
    counts = helberg_census(2 * n, 2, 2, limit)
    for a, (pairs, image_residues) in classes.items():
        consistent = len(image_residues) == 1
        a_prime = min(image_residues)
        mapping.append((a, a_prime))
        cells.append(
            CampaignCell(
                label=f"a={a}",
                passed=consistent,
                detail={
                    "image_residue": a_prime,
                    "consistent": consistent,
                    "subset": consistent,
                    "set_equal": consistent and len(pairs) == counts[a_prime],
                    "codewords": len(pairs),
                },
            )
        )
    summary = {
        "max_codewords": max(c.detail["codewords"] for c in cells),
        "mapping": mapping,
        "all_classes_equal": all(c.detail["set_equal"] for c in cells),
    }
    return CampaignResult(
        campaign="residue-bijection",
        params={"n": n, "map": "phi9"},
        cells=tuple(cells),
        summary=summary,
    )


def reduction_analysis(
    n: int,
    s: int,
    check_s: int | None = None,
    limit: int = DEFAULT_MAX_ENUM,
    workers: int = 1,
) -> CampaignResult:
    """Per-residue sphere disjointness of componentwise mod-2 reductions.

    The expected outcome is mixed: some residues reduce to a deletion-
    correcting binary code and some do not, so the summary records both
    counts.  ``check_s`` defaults to the codebook's own s.  The codebooks are
    quaternary: the reduction is defined over Z_4 only.
    """
    check = s if check_s is None else check_s
    m, _, cells = _helberg_cells(
        n, 4, s, None, limit, _reduction_batch, check, workers, min_size=1, paired=False
    )
    passing = sum(1 for c in cells if c.passed)
    summary = {
        "modulus": m,
        "check_s": check,
        "passing_residues": passing,
        "failing_residues": len(cells) - passing,
        "mixed": 0 < passing < len(cells),
    }
    return CampaignResult(
        campaign="reduction",
        params={"n": n, "q": 4, "s": s, "check_s": check},
        cells=cells,
        summary=summary,
    )


def torsion_analysis(
    n: int, s: int, limit: int = DEFAULT_MAX_ENUM, workers: int = 1
) -> CampaignResult:
    """Torsion codes of every quaternary residue class; nontrivial ones fail their cell.

    A cell passes when the torsion code has at most one word, confirming
    that no residue carries a nontrivial torsion code.
    """
    m, _, cells = _helberg_cells(
        n, 4, s, None, limit, _torsion_batch, None, workers, min_size=1, paired=False
    )
    sizes = sorted({c.detail["torsion_size"] for c in cells})
    summary = {"modulus": m, "torsion_sizes_seen": sizes}
    return CampaignResult(
        campaign="torsion",
        params={"n": n, "q": 4, "s": s},
        cells=cells,
        summary=summary,
    )


def verify_vt_correction(
    n: int, q: int = 2, limit: int = DEFAULT_MAX_ENUM, workers: int = 1
) -> CampaignResult:
    """Every VT residue class (binary or q-ary) corrects a single deletion."""
    # The binary VT code is the Helberg code with q = 2 and s = 1: its weights
    # are 1..n and its modulus is n + 1.
    if q == 2:
        _, _, cells = _helberg_cells(
            n, 2, 1, None, limit, _correction_batch, 1, workers, min_size=1
        )
    else:
        orbit = _reverse_complement(n, q)
        items = [
            (orbit(key), f"a={key[0]},b={key[1]}", ws)
            for key, ws in qary_vt_classes(n, q, limit).items()
        ]
        cells = tuple(_run_orbits(items, partial(_correction_batch, 1), workers))
    return CampaignResult(
        campaign="vt-correction",
        params={"n": n, "q": q, "s": 1},
        cells=cells,
        summary={"classes": len(cells)},
    )


def verify_helberg_self(
    n: int, q: int, s: int, limit: int = DEFAULT_MAX_ENUM, workers: int = 1
) -> CampaignResult:
    """Every Helberg codebook corrects its own deletion budget s."""
    m, _, cells = _helberg_cells(n, q, s, None, limit, _correction_batch, s, workers)
    return CampaignResult(
        campaign="helberg-self",
        params={"n": n, "q": q, "s": s},
        cells=cells,
        summary={"modulus": m, "trivial_residues": m - len(cells)},
    )


def verify_coefficient_lemma(
    n: int, q: int, s: int, limit: int = DEFAULT_MAX_ENUM
) -> CampaignResult:
    """The coefficient/weight inequalities behind Theorems 1 and 2, one cell per family.

    monotone:   C_i > C_{i-1} for 2 <= i <= 2n.
    single_gap: C_L - sum_{i=L-s}^{L-1} C_i >= 1 for 1 <= L <= 2n.
    paired_gap: v_{2L-1} - sum_{i=L-floor(s/2)+1}^{L-1} (v_{2i-1} + v_{2i}) >= 1
                for 1 <= L <= n.
    Sum terms with indices <= 0 contribute nothing.  A cell passes when its
    ``violations`` list is empty.  Z_q^n is checked against ``limit`` before
    any weight is built.
    """
    guard_word_space(n, q, s, limit)
    w = weight_sequence(2 * n, q, s)  # the families read v up to v_{2n-1}
    c = {i: coefficient(i, w) for i in range(1, 2 * n + 1)}
    single = {L: c[L] - sum(c[i] for i in range(max(1, L - s), L)) for L in c}
    paired = {
        L: w.v(2 * L - 1)
        - sum(w.v(2 * i - 1) + w.v(2 * i) for i in range(max(1, L - s // 2 + 1), L))
        for L in range(1, n + 1)
    }
    violations = {
        "monotone": [f"C_{i} <= C_{i - 1}" for i in c if i > 1 and c[i] <= c[i - 1]],
        "single_gap": [f"C_{L} gap {g} < 1" for L, g in single.items() if g < 1],
        "paired_gap": [f"v_{2 * L - 1} paired gap {g} < 1" for L, g in paired.items() if g < 1],
    }
    return CampaignResult(
        campaign="coefficient-lemma",
        params={"n": n, "q": q, "s": s},
        cells=tuple(CampaignCell(k, not v, {"violations": v}) for k, v in violations.items()),
        summary={"coefficients": 2 * n},
    )
