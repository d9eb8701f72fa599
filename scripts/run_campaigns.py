#!/usr/bin/env python3
"""Run the full verification campaign grid and print one line per campaign.

Covers: mapped Helberg codebooks at s+1 deletions (quaternary n <= 6, s <= 3,
plus the n=7 single-deletion row), inverse images at floor(s/2) (binary
lengths up to 12, s in {2,3,4}), the equal-weight scans for phi1..phi8 up to
n = 8, the residue bijection for n = 3..7, reduction/torsion analyses, the
coefficient/weight inequality families at n = 10 for s = 1..6, and the
cardinality comparison.  Every campaign runs through ``cli.CAMPAIGNS``
and the comparison through ``cli.build_table``.  Exits nonzero if any
theorem-backed campaign fails.

Usage: python scripts/run_campaigns.py [--workers N] [--fast]
"""

from __future__ import annotations

import argparse
import sys
import time

from naisargik import DEFAULT_MAX_ENUM
from naisargik.cli import CAMPAIGNS, _emit_table, build_table


def grid(fast: bool) -> list[tuple[str, dict]]:
    """(campaign key, params) pairs; ``fast`` shrinks the three largest grids."""
    image_n, inverse_n, scan_n = (4, 8, 5) if fast else (6, 12, 8)
    return [
        *(("thm1", {"n": n, "s": s}) for n in range(1, image_n + 1) for s in (1, 2, 3)),
        *([] if fast else [("thm1", {"n": 7, "s": 1})]),
        *(("thm2", {"n": nb, "s": s}) for nb in range(2, inverse_n + 1, 2) for s in (2, 3, 4)),
        *(("conj1", {"n": n}) for n in range(2, scan_n + 1)),
        *(("conj2", {"n": n}) for n in range(3, 8)),
        ("reduction", {"n": 4, "s": 1, "check_s": 2}),
        *(("torsion", {"n": n, "s": s}) for n in range(1, 6) for s in (1, 2)),
        *(("lemma", {"n": 10, "s": s}) for s in range(1, 7)),
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--fast", action="store_true", help="shrink the grids")
    args = parser.parse_args()

    ok = True
    for key, params in grid(args.fast):
        started = time.perf_counter()
        result = CAMPAIGNS[key](**params, limit=DEFAULT_MAX_ENUM, workers=args.workers)
        # Reduction is expected to be mixed: some residues pass, some fail.
        passed = result.summary["mixed"] if key == "reduction" else result.passed
        ok &= passed
        name = " ".join([key, *(f"{k}={v}" for k, v in params.items())])
        summary = " ".join(f"{k}={v}" for k, v in result.summary.items())
        status = "pass" if passed else "FAIL"
        print(f"{name:<34} {status}  ({time.perf_counter() - started:6.2f}s)  {summary}")

    print("\ncardinality comparison (recomputed):")
    _emit_table(build_table("table7", {}, DEFAULT_MAX_ENUM), "text")

    print(f"\noverall: {'all campaigns passed' if ok else 'FAILURES above'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
