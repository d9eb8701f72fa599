"""Pin and cross-check the expected outcome of every benchmark invocation.

    python3 perfbench/pin.py

Exits 1 on any disagreement with the pins in workloads.json or with the second
route; the pins are never rewritten, since stdout must stay byte-identical to
the pinned commit's.  Each invocation runs once through ``naisargik.cli.main``.  Its stdout is then
compared with text rebuilt by a second route that shares no code with the
package: residue censuses by counting (a convolution over positions for
Helberg moments, a dynamic programme over (last symbol, signature checksum,
symbol sum) for q-ary VT), the cardinality bounds from their formulas, and
1-deletion spheres built one deletion per run.  The counting routes are first
checked against the reference values in tests/golden.py.  Where the second
route cannot rebuild a line (the canonical witness of a failing campaign), the
line is checked for consistency instead: both words lie in the named class
and share the named subsequence.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from fractions import Fraction

from run import HERE, ROOT, import_cli, run_invocation

sys.path.insert(0, str(ROOT / "tests"))
import golden  # noqa: E402

#: Bit pairs of the named maps used by the benchmark, symbol 0..3 in order.
MAPS = {
    "phi1": ("00", "10", "11", "01"),
    "phi2": ("01", "00", "10", "11"),
    "phi3": ("01", "11", "10", "00"),
    "phi4": ("11", "01", "00", "10"),
    "phi5": ("11", "10", "00", "01"),
    "phi6": ("10", "00", "01", "11"),
    "phi7": ("10", "11", "01", "00"),
    "phi8": ("00", "01", "11", "10"),
    "phi9": ("11", "01", "10", "00"),
}


def weights(n: int, q: int, s: int) -> list[int]:
    """v_1..v_{n+1} of v_i = 1 + (q-1)(v_{i-1} + ... + v_{i-s}), v_i = 0 for i <= 0."""
    v: list[int] = []
    for i in range(n + 1):
        v.append(1 + (q - 1) * sum(v[max(0, i - s) : i]))
    return v


def helberg_counts(n: int, q: int, s: int) -> tuple[int, list[int]]:
    """(m, counts) with counts[a] = |H(n, q, s, a)|, by convolving one position at a time."""
    v = weights(n, q, s)
    m = v[n]
    counts = [1] + [0] * (m - 1)
    for vi in v[:n]:
        # Symbol x at this position moves the count of residue a to a + vi * x.
        shifts = [vi * x % m for x in range(q)]
        counts = [sum(t) for t in zip(*(counts[m - k :] + counts[: m - k] for k in shifts))]
    require(sum(counts) == q**n, f"census of ({n}, {q}, {s}) does not sum to q^n")
    return m, counts


def vt_counts(n: int, q: int) -> dict[tuple[int, int], int]:
    """|{x : residues(x) = (a, b)}| for the q-ary VT partition, by dynamic programming."""
    states = {(x, 0, x % q): 1 for x in range(q)}
    for i in range(1, n):
        nxt: dict[tuple[int, int, int], int] = {}
        for (last, a, b), c in states.items():
            for x in range(q):
                key = (x, (a + i * (last <= x)) % n, (b + x) % q)
                nxt[key] = nxt.get(key, 0) + c
        states = nxt
    out = {(a, b): 0 for a in range(n) for b in range(q)}
    for (_, a, b), c in states.items():
        out[(a, b)] += c
    return out


def require(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"check failed: {message}")


def top(counts) -> tuple[int, list[int]]:
    best = max(counts)
    return best, [a for a, c in enumerate(counts) if c == best]


def deletions(word: str) -> set[str]:
    """D_1(word): one deletion per run of equal symbols."""
    return {word[:i] + word[i + 1 :] for i in range(len(word)) if i == 0 or word[i] != word[i - 1]}


def is_subsequence(short: str, word: str) -> bool:
    it = iter(word)
    return all(ch in it for ch in short)


def moment(word: str, v: list[int]) -> int:
    return sum(vi * int(ch) for vi, ch in zip(v, word))


def invert(bits: str, name: str) -> str:
    table = {pair: str(sym) for sym, pair in enumerate(MAPS[name])}
    return "".join(table[bits[i : i + 2]] for i in range(0, len(bits), 2))


def apply(word: tuple[int, ...], name: str) -> str:
    return "".join(MAPS[name][x] for x in word)


def vt_words(n: int) -> dict[tuple[int, int], list[tuple[int, ...]]]:
    classes: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for w in itertools.product(range(4), repeat=n):
        a = sum(i for i in range(1, n) if w[i - 1] <= w[i]) % n
        classes.setdefault((a, sum(w) % 4), []).append(w)
    return classes


def intersecting_pairs(n: int, names: list[str]) -> int:
    """Distinct same-class image pairs whose 1-deletion spheres meet, over maps."""
    total = 0
    classes = vt_words(n)
    for name in names:
        pairs: set[tuple[str, str]] = set()
        for words in classes.values():
            owners: dict[str, list[str]] = {}
            for w in words:
                img = apply(w, name)
                for d in deletions(img):
                    owners.setdefault(d, []).append(img)
            for imgs in owners.values():
                pairs.update(itertools.combinations(sorted(imgs), 2))
        total += len(pairs)
    return total


def lines(*rows) -> str:
    return "".join(f"{row}\n" for row in rows)


def correction_text(campaign: str, params: str, m: int, counts, extra: bool = True) -> str:
    used = sum(c >= 2 for c in counts)
    best, residues = top(counts)
    summary = [f"modulus: {m}"]
    if extra:
        summary += [f"residues: {m}", f"trivial_residues: {m - used}",
                    f"max_codewords: {best}", "max_residues: " + " ".join(map(str, residues))]
    else:
        summary += [f"trivial_residues: {m - used}"]
    return lines(f"campaign: {campaign}", f"params: {params}", *summary, f"cells checked: {used}")


def opt(argv: list[str], key: str, default=None):
    return argv[argv.index(key) + 1] if key in argv else default


def int_range(text: str) -> range:
    lo, _, hi = text.partition("..")
    return range(int(lo), int(hi or lo) + 1)


def expected(argv: list[str], stdout: str) -> tuple[int, str]:
    """Exit code and stdout the second route predicts for one invocation."""
    cmd, what = argv[0], argv[1]
    n = int(opt(argv, "--n").split("..")[0])
    if cmd == "tables" and what == "table8":
        s = int(opt(argv, "--s"))
        rows = []
        for k in int_range(opt(argv, "--n")):
            best, residues = top(helberg_counts(k, 4, s)[1])
            rows.append(f"{k},{s},{best}," + " ".join(map(str, residues)))
        return 0, lines("n,s,count,residues", *rows)
    if cmd == "tables" and what == "table5":
        counts = helberg_counts(n, 4, 1)[1]
        return 0, lines("residue,count", *(f"{a},{c}" for a, c in enumerate(counts) if c))
    if cmd == "tables" and what == "table15":
        census = vt_counts(n, 4)
        return 0, lines("a,b,count", *(f"{a},{b},{c}" for (a, b), c in sorted(census.items())))
    if cmd == "tables" and what == "table7":
        rows = []
        for k in int_range(opt(argv, "--n")):
            lower = Fraction(4 ** (k + 1) + 1, 9 * 2**k * 2)
            upper = Fraction(4**k, 3 * k)
            max_binary = top(helberg_counts(2 * k, 2, 2)[1])[0]
            max_image = top(helberg_counts(k, 4, 1)[1])[0]
            rows.append(f"{k},{lower},{upper},{max_binary},{max_image},recomputed")
        return 0, lines("n,lower_bound,upper_bound,max_binary,max_image,note", *rows)
    if what == "thm1":
        s = int(opt(argv, "--s"))
        name = opt(argv, "--map", "phi9")
        m, counts = helberg_counts(n, 4, s)
        text = correction_text("image-correction", f"n={n} q=4 s={s} check_s={s + 1} map={name}", m, counts)
        if name != "phi8":
            return 0, text + "passed: yes\n"
        return 1, text + "passed: no\n" + witness_line(stdout, n, s, m, counts, name)
    if what == "thm2":
        s = int(opt(argv, "--s"))
        m, counts = helberg_counts(n, 2, s)
        text = correction_text("inverse-correction", f"n={n} q=2 s={s} check_s={s // 2} map=phi9", m, counts)
        return 0, text + "passed: yes\n"
    if what == "helberg-self":
        q, s = int(opt(argv, "--q")), int(opt(argv, "--s"))
        m, counts = helberg_counts(n, q, s)
        return 0, correction_text("helberg-self", f"n={n} q={q} s={s}", m, counts, extra=False) + "passed: yes\n"
    if what == "vt1":
        q = int(opt(argv, "--q", "2"))
        classes = n + 1 if q == 2 else sum(1 for c in vt_counts(n, q).values() if c)
        return 0, lines("campaign: vt-correction", f"params: n={n} q={q} s=1",
                        f"classes: {classes}", f"cells checked: {classes}", "passed: yes")
    if what == "conj1":
        names = [f"phi{k}" for k in range(1, 9)]
        return 0, lines("campaign: equal-weight", f"params: n={n} maps={','.join(names)}",
                        f"intersecting_pairs: {intersecting_pairs(n, names)}",
                        "cells checked: 8", "passed: yes")
    raise ValueError(f"no second route for {argv}")


def witness_line(stdout: str, n: int, s: int, m: int, counts, name: str) -> str:
    """The program's witness line, after checking it names a real collision."""
    line = stdout.splitlines()[-1]
    data = json.loads(line)
    a = int(data["cell"].removeprefix("a="))
    x, y, shared = (data["witness"][k] for k in ("x", "y", "shared"))
    v = weights(n, 4, s)
    ok = (
        data["codewords"] == counts[a]
        and x < y
        and all(moment(invert(w, name), v) % m == a for w in (x, y))
        and len(shared) == 2 * n - (s + 1)
        and is_subsequence(shared, x)
        and is_subsequence(shared, y)
    )
    if not ok:
        raise SystemExit(f"witness line does not name a collision: {line}")
    return line + "\n"


def golden_cell_ok(n: int, s: int, count: int, residues) -> bool:
    cell = golden.MAX_CODEWORD_CELLS[(n, s)]
    if cell["exact"]:
        return count == cell["count"] and sorted(cell["residues"]) == sorted(residues)
    return count == cell["count"] and set(cell["residues"]) <= set(residues)


def check_golden(cli) -> None:
    """Check the counting routes and the program's table8 against tests/golden.py."""
    require(vt_counts(4, 4) == golden.VT_4_4_CENSUS, "VT census (4, 4) against golden")
    _, counts = helberg_counts(4, 4, 1)
    for size, residues in ((5, golden.HELBERG_4_4_1_TOP[5]), (4, golden.HELBERG_4_4_1_FOURS_RECOMPUTED)):
        found = tuple(a for a, c in enumerate(counts) if c == size)
        require(found == residues, f"H(4, 4, 1) residues of size {size} against golden")
    for n, s in golden.MAX_CODEWORD_CELLS:
        require(golden_cell_ok(n, s, *top(helberg_counts(n, 4, s)[1])),
                f"counted maxima of H({n}, 4, {s}) against golden")
    # The default table8 has one row per golden (n, s) cell.
    code, text, _ = run_invocation(cli, ["tables", "table8"])
    rows = [row.split(",") for row in text.splitlines()[1:]]
    require(code == 0 and len(rows) == len(golden.MAX_CODEWORD_CELLS), "default table8 rows")
    for n, s, count, residues in rows:
        require(golden_cell_ok(int(n), int(s), int(count), map(int, residues.split())),
                f"table8 row n={n} s={s} against golden")


def main() -> int:
    cli = import_cli()
    check_golden(cli)

    spec = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    differing = 0
    for workload, body in spec["workloads"].items():
        for inv in body["invocations"]:
            code, text, seconds = run_invocation(cli, inv["argv"])
            want_code, want_text = expected(inv["argv"], text)
            if (code, text) != (want_code, want_text):
                raise SystemExit(f"{workload}: {' '.join(inv['argv'])}: output disagrees "
                                 f"with the second route\n--- got\n{text}--- expected\n{want_text}")
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            verdict = "ok"
            if (inv["exit"], inv["sha256"]) != (code, digest):
                differing += 1
                verdict = f"DIFFERS from pinned exit {inv['exit']} {inv['sha256'][:16]}"
            print(f"{workload:10} exit {code} {digest[:16]} {seconds:6.2f} s  "
                  f"{' '.join(inv['argv'])}: {verdict}")
    if differing:
        print(f"{differing} invocations differ from their pins")
        return 1
    print("every invocation matches its pin and the second route")
    return 0


if __name__ == "__main__":
    sys.exit(main())
