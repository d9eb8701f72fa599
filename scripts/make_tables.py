#!/usr/bin/env python3
"""Regenerate every reference table into an output directory as CSV.

Usage: python scripts/make_tables.py [--out OUT_DIR]
"""

from __future__ import annotations

import argparse
import csv
from pathlib import Path

from naisargik import DEFAULT_MAX_ENUM
from naisargik.cli import TABLES, build_table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/tables", help="output directory")
    args = parser.parse_args()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    for name in TABLES:
        table = build_table(name, {}, DEFAULT_MAX_ENUM)
        path = out_dir / f"{table.name}.csv"
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(table.headers)
            writer.writerows(table.rows)
        print(f"wrote {path} ({len(table.rows)} rows)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
