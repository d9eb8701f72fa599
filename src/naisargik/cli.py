"""Command-line front end.

Subcommands: ``gen`` (emit a codebook), ``map`` (apply a symbol map forward
or inverse), ``sphere`` (emit a deletion sphere), ``verify`` (run a
verification campaign), ``tables`` (emit a recomputed reference table).

Exit codes: 0 success/verified, 1 property violated (a JSON counterexample
is written to stdout), 2 usage or domain error, 3 enumeration guard tripped.
Identical invocations produce byte-identical output for any worker count.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from typing import Callable

from . import tables as tables_mod
from .helberg import HelbergParams, helberg_code
from .maps import VT_MAP_NAMES, naisargik_map
from .spheres import sphere_members
from .tables import Table
from .verify import (
    CampaignCell,
    CampaignResult,
    reduction_analysis,
    torsion_analysis,
    verify_helberg_self,
    verify_image_correction,
    verify_inverse_correction,
    verify_residue_bijection,
    verify_vt_correction,
)
from .vt import (
    BinaryVtParams,
    QaryVtParams,
    binary_vt_code,
    equal_weight_scan,
    qary_vt_code,
)
from .words import (
    DEFAULT_MAX_ENUM,
    ResourceLimitError,
    check_digit_alphabet,
    format_word,
    parse_word,
)


@dataclass(frozen=True)
class RunConfig:
    """One parsed invocation: the command plus everything that shapes output."""

    command: str
    params: dict
    fmt: str = "text"
    max_enum: int = DEFAULT_MAX_ENUM
    workers: int = 1

    def __post_init__(self) -> None:
        if self.max_enum < 1:
            raise ValueError("--max-enum must be >= 1")
        if self.workers < 1:
            raise ValueError("--workers must be >= 1")
        name = self.params.get("map")
        if name is not None:
            naisargik_map(name)
        if self.command in ("gen", "verify") and self.params.get("q") is not None:
            check_digit_alphabet(self.params["q"])


def _parse_int_range(text: str) -> tuple[int, ...]:
    """'4' -> (4,); '2..6' -> (2, 3, 4, 5, 6)."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        values = tuple(range(int(lo), int(hi) + 1))
        if not values:
            raise ValueError(f"empty range {text!r}")
        return values
    return (int(text),)


def _parse_map_list(text: str) -> tuple[str, ...]:
    """'phi3' | 'phi1,phi4' | 'phi1..phi8' -> map names."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        i, j = int(lo.removeprefix("phi")), int(hi.removeprefix("phi"))
        names = tuple(f"phi{k}" for k in range(i, j + 1))
    else:
        names = tuple(part.strip() for part in text.split(",") if part.strip())
    for name in names:
        naisargik_map(name)
    return names


def _emit_words(words: list[str], fmt: str, meta: dict) -> None:
    if fmt == "json":
        print(json.dumps({**meta, "codewords": words}, indent=2))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["codeword"])
        writer.writerows([w] for w in words)
    else:
        for w in words:
            print(w)


def _emit_table(table: Table, fmt: str) -> None:
    if fmt == "json":
        rows = [dict(zip(table.headers, row)) for row in table.rows]
        print(json.dumps({"table": table.name, "rows": rows}, indent=2))
    elif fmt == "text":
        widths = [
            max(len(h), *(len(r[i]) for r in table.rows)) if table.rows else len(h)
            for i, h in enumerate(table.headers)
        ]
        print("  ".join(h.ljust(w) for h, w in zip(table.headers, widths)).rstrip())
        for row in table.rows:
            print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(table.headers)
        writer.writerows(table.rows)


def _emit_campaign(result: CampaignResult, fmt: str) -> int:
    if fmt == "json":
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(f"campaign: {result.campaign}")
        print("params: " + " ".join(f"{k}={v}" for k, v in result.params.items()))
        for key, value in result.summary.items():
            if isinstance(value, list):
                value = " ".join(str(v) for v in value)
            print(f"{key}: {value}")
        print(f"cells checked: {len(result.cells)}")
        print(f"passed: {'yes' if result.passed else 'no'}")
    if result.passed:
        return 0
    failure = result.first_failure()
    print(
        json.dumps(
            {
                "campaign": result.campaign,
                "cell": failure.label,
                **failure.detail,
            }
        )
    )
    return 1


def _cmd_gen(config: RunConfig) -> int:
    p = config.params
    kind = p["kind"]
    if kind == "vt-binary":
        if p.get("a") is None:
            raise ValueError("gen vt-binary needs --n and --a")
        code = binary_vt_code(BinaryVtParams(p["n"], p["a"]), config.max_enum)
    elif kind == "vt-qary":
        if p.get("a") is None or p.get("b") is None:
            raise ValueError("gen vt-qary needs --n, --q, --a and --b")
        code = qary_vt_code(
            QaryVtParams(p["n"], p.get("q") or 4, p["a"], p["b"]), config.max_enum
        )
    else:
        if p.get("s") is None or p.get("a") is None:
            raise ValueError("gen helberg needs --n, --q, --s and --a")
        params = HelbergParams(p["n"], p.get("q") or 4, p["s"], p["a"])
        code = helberg_code(params, config.max_enum)
    words = sorted(format_word(w) for w in code)
    meta = {"command": "gen", "kind": kind}
    meta.update({k: v for k, v in p.items() if k != "kind" and v is not None})
    _emit_words(words, config.fmt, meta)
    return 0


def _cmd_map(config: RunConfig) -> int:
    p = config.params
    smap = naisargik_map(p["map"])
    forward = p["direction"] == "forward"
    if p["words"]:
        lines = list(p["words"])
    elif p["input"] is not None:
        with open(p["input"], encoding="ascii") as fh:
            lines = [line.strip() for line in fh if line.strip()]
    else:
        lines = [line.strip() for line in sys.stdin if line.strip()]
    out = []
    for text in lines:
        if forward:
            out.append(format_word(smap.apply(parse_word(text, 4))))
        else:
            out.append(format_word(smap.invert(parse_word(text, 2))))
    meta = {"command": "map", "map": smap.name, "direction": p["direction"]}
    _emit_words(out, config.fmt, meta)
    return 0


def _cmd_sphere(config: RunConfig) -> int:
    p = config.params
    q = p.get("q") or max(2, max((int(c) + 1 for c in p["word"]), default=2))
    word = parse_word(p["word"], q)
    members = sorted(
        format_word(w) for w in sphere_members(word, p["s"], config.max_enum)
    )
    meta = {"command": "sphere", "word": p["word"], "s": p["s"]}
    _emit_words(members, config.fmt, meta)
    return 0


def _scan_campaign(n: int, names: tuple[str, ...], limit: int) -> CampaignResult:
    """Equal-weight scans over several maps, packaged as one campaign."""
    cells = []
    total_pairs = 0
    for scan in equal_weight_scan(n, [naisargik_map(name) for name in names], limit):
        total_pairs += scan.intersecting_pairs
        detail: dict = {"intersecting_pairs": scan.intersecting_pairs}
        if scan.counterexample is not None:
            x, y = scan.counterexample
            detail["witness"] = {"x": format_word(x), "y": format_word(y)}
        cells.append(CampaignCell(label=scan.map_name, passed=scan.passed, detail=detail))
    return CampaignResult(
        campaign="equal-weight",
        params={"n": n, "maps": ",".join(names)},
        cells=tuple(cells),
        summary={"intersecting_pairs": total_pairs},
    )


def _need(params: dict, key: str) -> int:
    value = params.get(key)
    if value is None:
        raise ValueError(f"--{key.replace('_', '-')} is required for this campaign")
    return value


def _opt_map(params: dict):
    name = params.get("map")
    return naisargik_map(name) if name else None


#: Campaign builders by name, each called as ``build(params, limit, workers)``.
#: Every entry looks its function up at call time, so a module attribute
#: replaced from outside (by a tracer, say) is the one that runs.
CAMPAIGNS: dict[str, Callable[[dict, int, int], CampaignResult]] = {
    "thm1": lambda p, limit, workers: verify_image_correction(
        _need(p, "n"), _need(p, "s"), _opt_map(p), limit, workers
    ),
    "thm2": lambda p, limit, workers: verify_inverse_correction(
        _need(p, "n"), _need(p, "s"), _opt_map(p), limit, workers
    ),
    "conj1": lambda p, limit, workers: _scan_campaign(
        names=_parse_map_list(p["maps"]) if p.get("maps") else VT_MAP_NAMES,
        n=_need(p, "n"),
        limit=limit,
    ),
    "conj2": lambda p, limit, workers: verify_residue_bijection(_need(p, "n"), limit),
    "reduction": lambda p, limit, workers: reduction_analysis(
        _need(p, "n"), p.get("q") or 4, _need(p, "s"), p.get("check_s"), limit
    ),
    "torsion": lambda p, limit, workers: torsion_analysis(
        _need(p, "n"), p.get("q") or 4, _need(p, "s"), limit
    ),
    "vt1": lambda p, limit, workers: verify_vt_correction(
        _need(p, "n"), p.get("q") or 2, limit, workers
    ),
    "helberg-self": lambda p, limit, workers: verify_helberg_self(
        _need(p, "n"), p.get("q") or 4, _need(p, "s"), limit, workers
    ),
}


def _cmd_verify(config: RunConfig) -> int:
    build = CAMPAIGNS[config.params["campaign"]]
    result = build(config.params, config.max_enum, config.workers)
    return _emit_campaign(result, config.fmt)


#: Table builders by name, each called as ``build(params, n_values, limit)``
#: where ``n_values`` is the parsed ``--n`` range or None.  Every entry looks
#: its builder up on the tables module at call time, as ``CAMPAIGNS`` does.
TABLES: dict[str, Callable[[dict, tuple[int, ...] | None, int], Table]] = {
    "table2": lambda p, ns, limit: tables_mod.table2(limit=limit),
    "table3": lambda p, ns, limit: tables_mod.table3(),
    "table5": lambda p, ns, limit: tables_mod.table5(
        (ns or (4,))[0], p.get("q") or 4, p.get("s") or 1, limit
    ),
    "table6": lambda p, ns, limit: tables_mod.table6(ns or (3, 4, 5, 6, 7), limit),
    "table7": lambda p, ns, limit: tables_mod.table7(ns or (2, 3, 4, 5, 6), limit),
    "table8": lambda p, ns, limit: (
        tables_mod.table8(tuple((n, p["s"]) for n in ns), limit)
        if ns and p.get("s")
        else tables_mod.table8(limit=limit)
    ),
    "table9": lambda p, ns, limit: tables_mod.table9(
        (ns or (10,))[0], p.get("s") or 2, p.get("a"), limit
    ),
    "table10": lambda p, ns, limit: tables_mod.table10(limit=limit),
    "table11": lambda p, ns, limit: tables_mod.table11(limit=limit),
    "table12": lambda p, ns, limit: tables_mod.table12(limit=limit),
    "table13": lambda p, ns, limit: tables_mod.table13(limit=limit),
    "table14": lambda p, ns, limit: tables_mod.table14(limit=limit),
    "table15": lambda p, ns, limit: tables_mod.table15((ns or (4,))[0], p.get("q") or 4, limit),
    "bounds": lambda p, ns, limit: tables_mod.bounds_table(
        ns or (2, 3, 4, 5, 6), p.get("q") or 4, p.get("s") or 1
    ),
}


def _cmd_tables(config: RunConfig) -> int:
    p = config.params
    n_values = _parse_int_range(p["n"]) if p.get("n") else None
    _emit_table(TABLES[p["which"]](p, n_values, config.max_enum), config.fmt)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="naisargik",
        description="VT and Helberg deletion-correcting codes, symbol maps, "
        "and exhaustive sphere verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, fmt_default: str = "text") -> None:
        p.add_argument(
            "--format",
            choices=("text", "csv", "json"),
            default=fmt_default,
            help=f"output format (default {fmt_default})",
        )
        p.add_argument(
            "--max-enum",
            type=int,
            default=DEFAULT_MAX_ENUM,
            help="cap on exhaustively enumerated words (default 4^12)",
        )
        p.add_argument("--workers", type=int, default=1, help="worker processes")

    g = sub.add_parser("gen", help="generate a codebook")
    g.add_argument("kind", choices=("vt-binary", "vt-qary", "helberg"))
    g.add_argument("--n", type=int, required=True, help="codeword length")
    g.add_argument("--q", type=int, help="alphabet size")
    g.add_argument("--s", type=int, help="deletion budget (helberg)")
    g.add_argument("--a", type=int, help="residue a")
    g.add_argument("--b", type=int, help="residue b (vt-qary)")
    common(g)

    m = sub.add_parser("map", help="apply a symbol map to a codebook")
    m.add_argument("map", help="map name, e.g. phi9")
    m.add_argument("direction", choices=("forward", "inverse"))
    m.add_argument("words", nargs="*", help="words inline; else --input/stdin")
    m.add_argument("--input", help="read words from this file, one per line")
    common(m)

    s = sub.add_parser("sphere", help="emit a deletion sphere")
    s.add_argument("word", help="center word as a digit string")
    s.add_argument("--s", type=int, required=True, help="number of deletions")
    s.add_argument("--q", type=int, help="alphabet size (inferred if omitted)")
    common(s)

    v = sub.add_parser("verify", help="run a verification campaign")
    v.add_argument("campaign", choices=CAMPAIGNS)
    v.add_argument("--n", type=int, help="length parameter")
    v.add_argument("--q", type=int, help="alphabet size")
    v.add_argument("--s", type=int, help="deletion budget")
    v.add_argument("--map", help="map name (default phi9 where applicable)")
    v.add_argument("--maps", help="map list for conj1, e.g. phi1..phi8")
    v.add_argument("--check-s", type=int, dest="check_s", help="override check depth")
    common(v)

    t = sub.add_parser("tables", help="emit a recomputed reference table")
    t.add_argument("which", choices=TABLES)
    t.add_argument("--n", help="length or range like 2..6")
    t.add_argument("--q", type=int)
    t.add_argument("--s", type=int)
    t.add_argument("--a", type=int)
    common(t, fmt_default="csv")

    return parser


_DISPATCH = {
    "gen": _cmd_gen,
    "map": _cmd_map,
    "sphere": _cmd_sphere,
    "verify": _cmd_verify,
    "tables": _cmd_tables,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    params = {
        k: v
        for k, v in vars(args).items()
        if k not in ("command", "format", "max_enum", "workers")
    }
    try:
        config = RunConfig(
            command=args.command,
            params=params,
            fmt=args.format,
            max_enum=args.max_enum,
            workers=args.workers,
        )
        return _DISPATCH[args.command](config)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
