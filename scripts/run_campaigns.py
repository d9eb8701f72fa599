#!/usr/bin/env python3
"""Run the full verification campaign grid and print a one-line-per-cell log.

Covers: mapped Helberg codebooks at s+1 deletions (quaternary n <= 6, s <= 3,
plus the n=7 single-deletion row), inverse images at floor(s/2) (binary
lengths up to 12, s in {2,3,4}), the equal-weight scans for phi1..phi8 up to
n = 8, the residue bijection for n = 3..7, reduction/torsion analyses, and
the cardinality comparison.  Exits nonzero if any theorem-backed campaign
fails.

Usage: python scripts/run_campaigns.py [--workers N] [--fast]
"""

from __future__ import annotations

import argparse
import sys
import time

from naisargik import (
    cardinality_comparison,
    equal_weight_scan,
    naisargik_map,
    reduction_analysis,
    torsion_analysis,
    verify_image_correction,
    verify_inverse_correction,
    verify_residue_bijection,
)


def log(name: str, passed: bool, started: float, extra: str = "") -> bool:
    status = "pass" if passed else "FAIL"
    print(f"{name:<34} {status}  ({time.perf_counter() - started:6.2f}s)  {extra}")
    return passed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--fast", action="store_true", help="shrink the grids")
    args = parser.parse_args()

    ok = True
    image_cells = [(n, s) for n in range(1, 7) for s in range(1, 4)] + [(7, 1)]
    scan_max = 8
    inverse_cells = [(nb, s) for nb in range(2, 13, 2) for s in (2, 3, 4)]
    if args.fast:
        image_cells = [(n, s) for n, s in image_cells if n <= 4]
        inverse_cells = [(nb, s) for nb, s in inverse_cells if nb <= 8]
        scan_max = 5

    for n, s in image_cells:
        started = time.perf_counter()
        result = verify_image_correction(n, s, workers=args.workers)
        extra = (
            f"max={result.summary['max_codewords']} at "
            f"{result.summary['max_residues']}"
        )
        ok &= log(f"image-correction n={n} s={s}", result.passed, started, extra)

    for n_bits, s in inverse_cells:
        started = time.perf_counter()
        result = verify_inverse_correction(n_bits, s, workers=args.workers)
        ok &= log(f"inverse-correction N={n_bits} s={s}", result.passed, started)

    for n in range(2, scan_max + 1):
        started = time.perf_counter()
        scans = equal_weight_scan(n, [naisargik_map(f"phi{i}") for i in range(1, 9)])
        passed = all(scan.passed for scan in scans)
        pairs = sum(scan.intersecting_pairs for scan in scans)
        ok &= log(f"equal-weight n={n}", passed, started, f"pairs={pairs}")

    for n in range(3, 8):
        started = time.perf_counter()
        result = verify_residue_bijection(n)
        mapping = " ".join(f"{a}->{ap}" for a, ap in result.summary["mapping"])
        ok &= log(f"residue-bijection n={n}", result.passed, started, mapping)

    started = time.perf_counter()
    red = reduction_analysis(4, 4, 1, check_s=2)
    log(
        "reduction H(4,4,1,.) at s=2",
        red.summary["mixed"],
        started,
        f"pass={red.summary['passing_residues']} fail={red.summary['failing_residues']}",
    )
    ok &= red.summary["mixed"]

    started = time.perf_counter()
    torsion_ok = all(
        torsion_analysis(n, 4, s).passed for n in range(1, 6) for s in (1, 2)
    )
    ok &= log("torsion grid n<=5 s<=2", torsion_ok, started)

    started = time.perf_counter()
    print("\ncardinality comparison (recomputed):")
    print(f"{'n':>2} {'lower':>10} {'upper':>10} {'max binary':>11} {'max image':>10}")
    for row in cardinality_comparison(range(2, 7)):
        print(
            f"{row.n:>2} {float(row.lower):>10.4f} {float(row.upper):>10.4f} "
            f"{row.max_binary:>11} {row.max_image:>10}"
        )
    print(f"(computed in {time.perf_counter() - started:.2f}s)")

    print(f"\noverall: {'all campaigns passed' if ok else 'FAILURES above'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
