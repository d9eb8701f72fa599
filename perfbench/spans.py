"""Per-layer spans and counts for the naisargik package, installed from outside.

``from .x import f`` copies a binding, so every traced function is replaced at
each module of the package that holds it, not only where it is defined.  A call
through any binding then lands in the same span.  Spans are aggregated in
memory per metric group; a parent stack gives each group its self time (its
span time minus the time of wrapped child spans).  Nothing on disk changes,
and leaving the ``Tracer`` context restores every original binding.
"""

from __future__ import annotations

import itertools
import sys
import time
from collections import defaultdict
from math import comb
from operator import itemgetter

PACKAGE = "naisargik"


def _count_members(counts: dict, args: tuple, kwargs: dict, result) -> None:
    word = args[0] if args else kwargs["word"]
    s = args[1] if len(args) > 1 else kwargs["s"]
    counts["spheres.members.out"] += len(result)
    counts["spheres.members.subsets"] += comb(len(word), s)


def _count_check(counts: dict, args: tuple, kwargs: dict, result) -> None:
    codewords = args[0] if args else kwargs["codewords"]
    counts["spheres.check.codewords"] += len(codewords)
    counts["spheres.check.failed"] += not result.ok


def _count_cells(counts: dict, args: tuple, kwargs: dict, result) -> None:
    counts["verify.cells"] += len(result.cells)


def _returned(layer: str, classes: bool):
    """Tally the codewords a class builder hands back that a decision needs.

    Only classes of at least two codewords count: a class of one is
    deletion-correcting without any sphere work.
    """

    def tally(counts: dict, args: tuple, kwargs: dict, result) -> None:
        if classes:
            mapping = result[1] if isinstance(result, tuple) else result
            counts[f"{layer}.returned"] += sum(len(ws) for ws in mapping.values() if len(ws) >= 2)
        elif len(result) >= 2:
            counts[f"{layer}.returned"] += len(result)

    return tally


_TABLES = tuple(f"table{i}" for i in (2, 3, *range(5, 16))) + ("bounds_table",)
_CAMPAIGNS = (
    "verify_image_correction",
    "verify_inverse_correction",
    "verify_residue_bijection",
    "verify_vt_correction",
    "verify_helberg_self",
    "reduction_analysis",
    "torsion_analysis",
)

#: (metric group, defining module, qualified name, tally of extra counts).
SPANS: tuple = (
    ("words.format", "words", "format_word", None),
    ("maps.apply", "maps", "SymbolMap.apply", None),
    ("maps.invert", "maps", "SymbolMap.invert", None),
    ("spheres.members", "spheres", "sphere_members", _count_members),
    ("spheres.check", "spheres", "check_deletion_correcting", _count_check),
    ("helberg.moment", "helberg", "moment", None),
    ("helberg.classes", "helberg", "helberg_classes", _returned("helberg", True)),
    ("helberg.classes", "helberg", "helberg_code", _returned("helberg", False)),
    ("helberg.census", "helberg", "helberg_census", None),
    ("vt.residues", "vt", "binary_vt_residue", None),
    ("vt.residues", "vt", "qary_vt_residues", None),
    ("vt.classes", "vt", "qary_vt_classes", _returned("vt", True)),
    ("vt.classes", "vt", "binary_vt_code", _returned("vt", False)),
    ("vt.classes", "vt", "qary_vt_code", _returned("vt", False)),
    ("vt.scan", "vt", "equal_weight_scan", None),
    ("vt.scan", "vt", "same_residue_witness", None),
    *(("verify.campaign", "verify", name, _count_cells) for name in _CAMPAIGNS),
    # The conj1 campaign is assembled in the CLI module.
    ("verify.campaign", "cli", "_scan_campaign", _count_cells),
    *(("tables.build", "tables", name, None) for name in _TABLES),
    ("cli.main", "cli", "main", None),
)

#: Count-valued per-layer metrics; they must repeat exactly between passes.
COUNTS = (
    "spheres.members.calls",
    "spheres.members.out",
    "spheres.check.calls",
    "spheres.check.codewords",
    "spheres.check.failed",
    "helberg.moment.calls",
    "helberg.classes.calls",
    "helberg.census.calls",
    "vt.residues.calls",
    "vt.classes.calls",
    "vt.scan.calls",
    "words.enumerated",
    "words.format.calls",
    "maps.apply.calls",
    "maps.invert.calls",
    "verify.campaign.calls",
    "verify.cells",
    "tables.build.calls",
    "cli.main.calls",
)


class _Group:
    __slots__ = ("calls", "busy_s", "self_s", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    """Context manager that wraps the package's public layer functions.

    Figures accumulate over every entry into the context.  ``busy_s`` of a
    group counts only its outermost spans, so nested calls within one group
    are not counted twice.  ``missing`` lists span targets that the package
    no longer defines; they are left untraced, and a run that finds any fails.
    """

    def __init__(self) -> None:
        self.groups = {group: _Group() for group, *_ in SPANS}
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[float] = []
        self._word_counters: list[tuple[str, itertools.count]] = []
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.missing = []
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for group, module, qualname, tally in SPANS:
            owner, attr = self._resolve(module, qualname)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module}.{qualname}")
                continue
            wrapper = self._span(self.groups[group], original, tally)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
            else:
                self._patch_bindings(modules, original, lambda _mod: wrapper)
        words = sys.modules.get(f"{PACKAGE}.words")
        iter_words = getattr(words, "iter_words", None)
        if iter_words is None:
            self.missing.append("words.iter_words")
        else:
            self._patch_bindings(
                modules, iter_words, lambda mod: self._enumeration_counter(mod, iter_words)
            )
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        self._drain_word_counters()

    def _resolve(self, module: str, qualname: str) -> tuple[object, str]:
        owner = sys.modules.get(f"{PACKAGE}.{module}")
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        return owner, attr

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_bindings(self, modules: list, original: object, make) -> None:
        for mod in modules:
            names = [name for name, value in vars(mod).items() if value is original]
            for name in names:
                self._patch(mod, name, make(mod))

    def _span(self, group: _Group, fn, tally):
        stack = self._stack
        clock = time.perf_counter
        counts = self.counts

        def traced(*args, **kwargs):
            stack.append(0.0)
            group.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                group.depth -= 1
                group.calls += 1
                group.self_s += elapsed - stack.pop()
                if not group.depth:
                    group.busy_s += elapsed
                if stack:
                    stack[-1] += elapsed
            if tally is not None:
                tally(counts, args, kwargs, result)
            return result

        return traced

    def _enumeration_counter(self, module, original):
        """Wrap ``iter_words`` as bound in ``module``; words pulled count for it.

        The counter rides along in ``zip`` so that each word pulled costs one
        C-level ``next`` and no Python frame; ``zip`` stops on the exhausted
        word iterator before touching the counter, so ``next(counter)`` later
        returns exactly the number of words pulled.
        """
        layer = module.__name__.rpartition(".")[2]
        counters = self._word_counters

        def iter_words(*args, **kwargs):
            counter = itertools.count()
            counters.append((layer, counter))
            return map(itemgetter(0), zip(original(*args, **kwargs), counter))

        return iter_words

    def _drain_word_counters(self) -> None:
        for layer, counter in self._word_counters:
            pulled = next(counter)
            self.counts[f"{layer}.enumerated"] += pulled
            self.counts["words.enumerated"] += pulled
        self._word_counters.clear()

    def snapshot(self) -> dict[str, float]:
        """Every per-layer figure gathered so far, keyed by metric name.

        Call it between invocations, never while one is running: it settles
        the word counters of the enumerations made so far.
        """
        self._drain_word_counters()
        out: dict[str, float] = {}
        for name, g in self.groups.items():
            out[f"{name}.calls"] = g.calls
            out[f"{name}.busy_s"] = g.busy_s
            out[f"{name}.self_s"] = g.self_s
        counts = self.counts
        for name in COUNTS:
            out.setdefault(name, counts[name])
        out["spheres.members_per_subset"] = _ratio(
            counts["spheres.members.out"], counts["spheres.members.subsets"], 0.0
        )
        for layer in ("helberg", "vt"):
            # Nothing enumerated wastes nothing, so an empty layer yields 1.
            out[f"{layer}.code_yield"] = _ratio(
                counts[f"{layer}.returned"], counts[f"{layer}.enumerated"], 1.0
            )
        return out


def _ratio(num: float, den: float, empty: float) -> float:
    """num / den, and ``empty`` when the layer did no work to divide by."""
    return num / den if den else empty
