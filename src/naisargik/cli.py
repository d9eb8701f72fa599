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
import inspect
import json
import sys
from itertools import islice
from typing import Callable

from . import tables as tables_mod
from .helberg import helberg_code
from .maps import VT_MAP_NAMES, naisargik_map
from .spheres import sphere_members
from .tables import Table
from .verify import (
    CampaignResult,
    _scan_campaign,
    reduction_analysis,
    torsion_analysis,
    verify_coefficient_lemma,
    verify_helberg_self,
    verify_image_correction,
    verify_inverse_correction,
    verify_residue_bijection,
    verify_vt_correction,
)
from .vt import binary_vt_code, qary_vt_code
from .words import (
    DEFAULT_MAX_ENUM,
    ResourceLimitError,
    check_digit_alphabet,
    format_word,
    parse_word,
)


def _parse_int_range(text: str) -> range:
    """'4' -> range(4, 5); '2..6' -> range(2, 7), never materialised."""
    lo, dots, hi = text.partition("..")
    try:
        values = range(int(lo), int(hi if dots else lo) + 1)
    except ValueError:
        raise ValueError(f"--n takes a length or a range like 2..6, not {text!r}") from None
    if not values:
        raise ValueError(f"--n has the empty range {text!r}")
    return values


def _parse_map_list(text: str) -> tuple[str, ...]:
    """'phi3' | 'phi1,phi4' | 'phi1..phi8' -> map names, each checked as it is made."""
    if ".." in text:
        try:
            names = (f"phi{k}" for k in _parse_int_range(text.replace("phi", "")))
        except ValueError:
            raise ValueError(f"--maps takes a range like phi1..phi8, not {text!r}") from None
    else:
        names = (part.strip() for part in text.split(",") if part.strip())
    names = tuple(naisargik_map(name).name for name in names)
    if not names:
        raise ValueError(f"empty map list {text!r}")
    return names


#: Encoder chunks joined into one write by ``_print_json``.
_JSON_BATCH = 1 << 14


def _print_json(obj) -> None:
    """``print(json.dumps(obj, indent=2))``, written in batches of encoder
    chunks, so the document is never held as one string."""
    chunks = json.JSONEncoder(indent=2).iterencode(obj)
    write = sys.stdout.write
    for batch in iter(lambda: list(islice(chunks, _JSON_BATCH)), []):
        write("".join(batch))
    write("\n")


def _emit_words(words: list[str], fmt: str, meta: dict) -> None:
    if fmt == "json":
        _print_json({**meta, "codewords": words})
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
        _print_json({"table": table.name, "rows": rows})
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
        _print_json(result.to_dict())
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


def _flags(args: argparse.Namespace, positional: str) -> dict:
    """The flags given to a registry command, in parser order, without its positional."""
    skip = ("command", "format", "max_enum", "workers", positional)
    return {k: v for k, v in vars(args).items() if v is not None and k not in skip}


def _call(what: str, signature: inspect.Signature, entry: Callable, flags: dict, **context):
    """Call ``entry`` with the given ``flags`` by keyword, after checking them.

    A flag that ``signature`` does not take, or a required one that is
    missing, raises ``ValueError`` (exit 2) naming the flag.  ``context``
    (``limit``, ``workers``) goes to the entries whose signature names it.
    """
    kwargs = {**flags, **{k: v for k, v in context.items() if k in signature.parameters}}
    try:
        signature.bind(**kwargs)
    except TypeError:
        params = signature.parameters
        stray = [k for k in flags if k not in params]
        missing = [k for k, p in params.items() if p.default is p.empty and k not in kwargs]
        problem = f"does not take --{stray[0]}" if stray else f"needs --{missing[0]}"
        raise ValueError(f"{what} {problem.replace('_', '-')}") from None
    return entry(**kwargs)


#: Codebook generators by ``gen`` kind; each signature states its flags.
GENERATORS: dict[str, Callable[..., tuple]] = {
    "vt-binary": lambda n, a, *, limit: binary_vt_code(n, a, limit),
    "vt-qary": lambda n, a, b, q=4, *, limit: qary_vt_code(n, q, a, b, limit),
    "helberg": lambda n, s, a, q=4, *, limit: helberg_code(n, q, s, a, limit),
}


def _cmd_gen(args: argparse.Namespace) -> int:
    flags = _flags(args, "kind")
    entry = GENERATORS[args.kind]
    code = _call(f"gen {args.kind}", inspect.signature(entry), entry, flags, limit=args.max_enum)
    words = list(map(format_word, code))
    _emit_words(words, args.format, {"command": "gen", "kind": args.kind, **flags})
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    smap = naisargik_map(args.map)
    forward = args.direction == "forward"
    if args.words:
        lines = list(args.words)
    elif args.input is not None:
        with open(args.input, encoding="ascii") as fh:
            lines = [line.strip() for line in fh if line.strip()]
    else:
        lines = [line.strip() for line in sys.stdin if line.strip()]
    out = []
    for text in lines:
        if forward:
            out.append(format_word(smap.apply(parse_word(text, 4))))
        else:
            out.append(format_word(smap.invert(parse_word(text, 2))))
    meta = {"command": "map", "map": smap.name, "direction": args.direction}
    _emit_words(out, args.format, meta)
    return 0


def _cmd_sphere(args: argparse.Namespace) -> int:
    # Without --q any digit string is a word: the sphere needs no alphabet.
    word = parse_word(args.word, 10 if args.q is None else args.q)
    members = sorted(format_word(w) for w in sphere_members(word, args.s, args.max_enum))
    meta = {"command": "sphere", "word": args.word, "s": args.s}
    _emit_words(members, args.format, meta)
    return 0


def _opt_map(name: str | None):
    return None if name is None else naisargik_map(name)


#: Campaigns by ``verify`` key, each called by keyword with its flags plus
#: ``limit`` and ``workers``.  Every entry looks its function up at call
#: time, so a module attribute replaced from outside (by a tracer, say) is
#: the one that runs.
CAMPAIGNS: dict[str, Callable[..., CampaignResult]] = {
    "thm1": lambda n, s, map=None, *, limit, workers: verify_image_correction(
        n, s, _opt_map(map), limit, workers
    ),
    "thm2": lambda n, s, map=None, *, limit, workers: verify_inverse_correction(
        n, s, _opt_map(map), limit, workers
    ),
    "conj1": lambda n, maps=None, *, limit, workers: _scan_campaign(
        n, VT_MAP_NAMES if maps is None else _parse_map_list(maps), limit, workers
    ),
    "conj2": lambda n, *, limit, workers: verify_residue_bijection(n, limit),
    "reduction": lambda n, s, check_s=None, *, limit, workers: reduction_analysis(
        n, s, check_s, limit, workers
    ),
    "torsion": lambda n, s, *, limit, workers: torsion_analysis(n, s, limit, workers),
    "vt1": lambda n, q=2, *, limit, workers: verify_vt_correction(n, q, limit, workers),
    "helberg-self": lambda n, s, q=4, *, limit, workers: verify_helberg_self(
        n, q, s, limit, workers
    ),
    "lemma": lambda n, s, q=4, *, limit, workers: verify_coefficient_lemma(n, q, s, limit),
}


def _cmd_verify(args: argparse.Namespace) -> int:
    entry = CAMPAIGNS[args.campaign]
    flags = _flags(args, "campaign")
    limits = {"limit": args.max_enum, "workers": args.workers}
    result = _call(f"verify {args.campaign}", inspect.signature(entry), entry, flags, **limits)
    return _emit_campaign(result, args.format)


#: Table builders by ``tables`` name.  Their signatures are read here, once;
#: ``build_table`` looks each builder up on the tables module by name at call
#: time, so a wrapper installed there from outside (by a tracer, say) runs.
TABLES: dict[str, Callable[..., Table]] = {
    **{f"table{i}": getattr(tables_mod, f"table{i}") for i in (2, 3, *range(5, 16))},
    "bounds": tables_mod.bounds_table,
}
_TABLE_SIGNATURES = {name: inspect.signature(build) for name, build in TABLES.items()}


def build_table(name: str, flags: dict, limit: int) -> Table:
    """Build table ``name`` from its ``tables`` flags (``--n`` as given text).

    ``--n`` is a length or a range for builders that take ``n_values``, and a
    single length for builders that take ``n``.
    """
    signature = _TABLE_SIGNATURES[name]
    flags = dict(flags)
    if "n" in flags and "n_values" in signature.parameters:
        flags["n_values"] = _parse_int_range(flags.pop("n"))
    elif "n" in flags and "n" in signature.parameters:
        if ".." in flags["n"]:
            raise ValueError(f"tables {name} takes one --n, not the range {flags['n']!r}")
        flags["n"] = _parse_int_range(flags["n"])[0]
    builder = getattr(tables_mod, TABLES[name].__name__)
    return _call(f"tables {name}", signature, builder, flags, limit=limit)


def _cmd_tables(args: argparse.Namespace) -> int:
    _emit_table(build_table(args.which, _flags(args, "which"), args.max_enum), args.format)
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
    g.add_argument("kind", choices=GENERATORS)
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
    args = build_parser().parse_args(argv)
    try:
        if args.max_enum < 1:
            raise ValueError("--max-enum must be >= 1")
        if args.workers < 1:
            raise ValueError("--workers must be >= 1")
        if args.command in ("gen", "verify") and args.q is not None:
            check_digit_alphabet(args.q)
        return _DISPATCH[args.command](args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
