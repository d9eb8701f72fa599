"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Two sub-assertions are marked strict-xfail because the stated expectation
contradicts the defining formulas; each carries the recomputed value in its
reason string and is covered by a green companion test asserting the
consistent behaviour.  Everything else must pass at the stated tolerance.
"""

import itertools
import time
from fractions import Fraction

import pytest

from naisargik import (
    all_bijections,
    binary_vt_code,
    cardinality_lower_bound,
    cardinality_upper_bound,
    check_deletion_correcting,
    equal_weight_scan,
    helberg_census,
    helberg_classes,
    helberg_code,
    image_pair_diff,
    naisargik_map,
    parse_word,
    qary_vt_census,
    qary_vt_classes,
    qary_vt_code,
    signature,
    sphere_members,
    verify_image_correction,
    verify_inverse_correction,
    verify_coefficient_lemma,
    verify_residue_bijection,
    weight_sequence,
)
from naisargik.cli import main as cli_main
from conftest import (
    phi8_signature_bit,
    phi8_symbol_from_bits,
    phi9_bits_from_symbol,
    phi9_symbol_from_bits,
    sphere_by_index_subsets,
)
from golden import (
    HELBERG_4_4_1_13_IMAGES,
    HELBERG_4_4_1_40_IMAGES,
    HELBERG_4_4_1_FOURS_RECOMPUTED,
    HELBERG_4_4_1_TOP,
    HELBERG_10_2_2_66_INVERSE,
    HELBERG_5_4_1_134_IMAGES,
    HELBERG_INVERSE_SPHERES,
    MAX_CODEWORD_CELLS,
    RESIDUE_BIJECTION,
    RESIDUE_DIFF_ROWS,
    VT_1_2_IMAGES,
    VT_1_2_IMAGE_SPHERES,
    VT_4_4_CENSUS,
)

PHI9 = naisargik_map("phi9")
PHI8 = naisargik_map("phi8")


def report(number: int, ok: bool, note: str) -> None:
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'}: {note}", flush=True)


def cli_lines(capsys, *argv):
    code = cli_main(list(argv))
    assert code == 0
    return capsys.readouterr().out.splitlines()


@pytest.mark.xfail(
    strict=True,
    reason="the stated expectation reproduces only under s=2: the weight "
    "recursion at (n=5, q=4, s=3) gives v=(1,4,16,64,253), m=1000 and the "
    "codebook {00000, 10333}; see the companion test for the consistent run",
)
def test_criterion_01_helberg_example_as_stated(capsys):
    start = time.perf_counter()
    out = cli_lines(capsys, "gen", "helberg", "--n", "5", "--q", "4", "--s", "3", "--a", "0")
    w = weight_sequence(5, 4, 3)
    elapsed = time.perf_counter() - start
    ok = (
        out == ["00000", "10033", "23323"]
        and w.values == (1, 4, 16, 61, 232, 880)
        and elapsed < 1.0
    )
    report(1, ok, "stated s=3 example (documented defect: values are the s=2 run)")
    assert out == ["00000", "10033", "23323"]
    assert w.values == (1, 4, 16, 61, 232, 880)


def test_criterion_01_helberg_example_consistent(capsys):
    start = time.perf_counter()
    three = cli_lines(capsys, "gen", "helberg", "--n", "5", "--q", "4", "--s", "3", "--a", "0")
    two = cli_lines(capsys, "gen", "helberg", "--n", "5", "--q", "4", "--s", "2", "--a", "0")
    elapsed = time.perf_counter() - start
    assert three == ["00000", "10333"]
    assert weight_sequence(5, 4, 3).values == (1, 4, 16, 64, 253, 1000)
    assert two == ["00000", "10033", "23323"]
    assert weight_sequence(5, 4, 2).values == (1, 4, 16, 61, 232, 880)
    assert elapsed < 1.0
    report(1, True, "worked example reproduces under its actual parameters (s=2)")


def test_criterion_02_helberg_census():
    start = time.perf_counter()
    census = helberg_census(4, 4, 1)
    elapsed = time.perf_counter() - start
    assert len(census) == weight_sequence(4, 4, 1).modulus
    assert tuple(a for a, c in enumerate(census) if c == 5) == HELBERG_4_4_1_TOP[5]
    for residue in HELBERG_4_4_1_TOP[4]:
        assert census[residue] == 4
    assert tuple(a for a, c in enumerate(census) if c == 4) == HELBERG_4_4_1_FOURS_RECOMPUTED
    assert sum(census) == 4**4
    assert elapsed < 1.0
    report(2, True, "H(4,4,1,.) census: 5s at {13,40}, listed 4s confirmed")


def test_criterion_03_vt_census():
    start = time.perf_counter()
    census = qary_vt_census(4, 4)
    code = qary_vt_code(4, 4, 1, 2)
    elapsed = time.perf_counter() - start
    assert census == VT_4_4_CENSUS
    assert code == {parse_word(w, 4) for w, _ in VT_1_2_IMAGES}
    assert elapsed < 1.0
    report(3, True, "VT(4;4) census and the (1,2) codebook match exactly")


def test_criterion_04_map_fidelity():
    start = time.perf_counter()
    vt_images = {
        (w, "".join(map(str, PHI8.apply(parse_word(w, 4)))))
        for w in (w for w, _ in VT_1_2_IMAGES)
    }
    helberg_images = {
        (w, "".join(map(str, PHI9.apply(parse_word(w, 4)))))
        for w, _ in HELBERG_4_4_1_13_IMAGES
    }
    inverse_images = {
        (w, "".join(map(str, PHI9.invert(parse_word(w, 2)))))
        for w, _ in HELBERG_10_2_2_66_INVERSE
    }
    elapsed = time.perf_counter() - start
    assert vt_images == set(VT_1_2_IMAGES)
    assert helberg_images == set(HELBERG_4_4_1_13_IMAGES)
    assert inverse_images == set(HELBERG_10_2_2_66_INVERSE)
    assert helberg_code(4, 4, 1, 13) == {
        parse_word(w, 4) for w, _ in HELBERG_4_4_1_13_IMAGES
    }
    assert helberg_code(10, 2, 2, 66) == {
        parse_word(w, 2) for w, _ in HELBERG_10_2_2_66_INVERSE
    }
    assert elapsed < 1.0
    report(4, True, "phi8/phi9 images and inverse images match the golden tables")


def test_criterion_05_sphere_tables():
    start = time.perf_counter()
    vt_spheres = {
        "".join(map(str, img)): {
            "".join(map(str, m)) for m in sphere_members(img, 1)
        }
        for img in (PHI8.apply(parse_word(w, 4)) for w, _ in VT_1_2_IMAGES)
    }
    inverse_spheres = {
        "".join(map(str, inv)): {
            "".join(map(str, m)) for m in sphere_members(inv, 1)
        }
        for inv in (PHI9.invert(parse_word(w, 2)) for w, _ in HELBERG_10_2_2_66_INVERSE)
    }
    elapsed = time.perf_counter() - start
    assert vt_spheres == VT_1_2_IMAGE_SPHERES
    assert inverse_spheres == HELBERG_INVERSE_SPHERES
    assert elapsed < 1.0
    report(5, True, "1-deletion sphere tables match as sets")


@pytest.mark.parametrize("n,s", sorted(MAX_CODEWORD_CELLS))
def test_criterion_06_image_correction_grid(n, s):
    expected = MAX_CODEWORD_CELLS[(n, s)]
    result = verify_image_correction(n, s, PHI9)
    assert result.passed, result.first_failure()
    assert result.summary["max_codewords"] == expected["count"]
    achieved = set(result.summary["max_residues"])
    if expected["exact"]:
        assert achieved == set(expected["residues"])
    else:
        assert set(expected["residues"]) <= achieved
    report(
        6,
        True,
        f"({n},{s}): all residues correct {s + 1} deletions after mapping; "
        f"max {expected['count']}",
    )


def test_criterion_07_inverse_correction():
    start = time.perf_counter()
    result = verify_inverse_correction(10, 2, PHI9)
    elapsed = time.perf_counter() - start
    assert result.passed
    assert result.summary["max_codewords"] == 8
    assert result.summary["max_residues"] == [66]
    assert elapsed < 10.0
    report(7, True, "H(10,2,2,.): every inverse image corrects one deletion")


@pytest.mark.parametrize("n", range(1, 9))
def test_criterion_08_equal_weight_scan(n):
    total_pairs = 0
    for i in range(1, 9):
        pairs, counterexample = equal_weight_scan(n, naisargik_map(f"phi{i}"))
        assert counterexample is None, counterexample
        total_pairs += pairs
    if n >= 2:
        assert total_pairs > 0
    report(8, True, f"n={n}: equal weights on all intersecting image pairs")


def test_criterion_08_residue_diff_rows():
    for n, x, y, da, db in RESIDUE_DIFF_ROWS:
        if n > 6:
            continue
        assert image_pair_diff(parse_word(x, 2), parse_word(y, 2), PHI8) == (da, db)
    report(8, True, "residue-difference rows reproduce for n <= 6")


def test_criterion_09_residue_bijection():
    start = time.perf_counter()
    for n in range(3, 8):
        result = verify_residue_bijection(n)
        assert result.passed
        mapping = tuple(tuple(p) for p in result.summary["mapping"])
        assert mapping == RESIDUE_BIJECTION[n]
        if n in (4, 5):
            assert result.summary["all_classes_equal"]
    images_40 = {PHI9.apply(w) for w in helberg_code(4, 4, 1, 40)}
    assert images_40 == {parse_word(img, 2) for _, img in HELBERG_4_4_1_40_IMAGES}
    assert images_40 == helberg_code(8, 2, 2, 12)
    images_134 = {PHI9.apply(w) for w in helberg_code(5, 4, 1, 134)}
    assert images_134 == {parse_word(img, 2) for _, img in HELBERG_5_4_1_134_IMAGES}
    assert images_134 == helberg_code(10, 2, 2, 32)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(9, True, "max-class mappings match; set equality holds at n=4,5")


def max_binary_and_image(n: int) -> tuple[int, int]:
    """max |H(2n,2,2,.)| and max |H(n,4,1,.)|, the second also max |phi9(H(n,4,1,.))|."""
    return max(helberg_census(2 * n, 2, 2)), max(helberg_census(n, 4, 1))


def test_criterion_10_cardinality_and_bounds():
    assert max_binary_and_image(2) == (2, 2)
    assert max_binary_and_image(3) == (3, 3)
    assert max_binary_and_image(4) == (5, 5)
    assert max_binary_and_image(6) == (11, 11)
    for n in (2, 3, 4, 6):
        for length, q, s in ((2 * n, 2, 2), (n, 4, 1)):
            assert len(helberg_census(length, q, s)) == weight_sequence(length, q, s).modulus
    # Bound columns come from the implemented formulas, checked against
    # independent arithmetic to 1e-12 relative tolerance.
    assert float(cardinality_upper_bound(4, 4, 1)) == pytest.approx(64 / 3, rel=1e-12)
    assert float(cardinality_lower_bound(2, 4, 1)) == pytest.approx(65 / 72, rel=1e-12)
    assert cardinality_upper_bound(4, 2, 2) == Fraction(2)
    report(10, True, "N columns for n in {2,3,4,6} and formula spot-checks")


@pytest.mark.xfail(
    strict=True,
    reason="recomputation gives max|H(10,2,2,.)| = 8 (unique, at residue 66) "
    "and max|H(5,4,1,.)| = 7 (at {39,40,133,134}); the stated (9,8) row is "
    "not reproducible from the definitions",
)
def test_criterion_10_stated_n5_row():
    row = max_binary_and_image(5)
    ok = row == (9, 8)
    report(10, ok, "stated n=5 row (documented defect: recomputed (8,7))")
    assert row == (9, 8)


def test_criterion_11_map_roundtrips():
    maps = all_bijections()
    for n in range(0, 9):
        for word in itertools.product(range(4), repeat=n):
            for smap in maps:
                image = smap.apply(word)
                assert len(image) == 2 * n
                assert smap.invert(image) == word
    report(11, True, "roundtrips for all 24 bijections on words up to length 8")


def test_criterion_11_sphere_oracle():
    for n in range(0, 11):
        for word in itertools.product(range(2), repeat=n):
            for s in range(0, min(n, 3) + 1):
                assert sphere_members(word, s) == sphere_by_index_subsets(word, s)
    for n in range(0, 6):
        for word in itertools.product(range(4), repeat=n):
            for s in range(0, min(n, 3) + 1):
                assert sphere_members(word, s) == sphere_by_index_subsets(word, s)
    report(11, True, "sphere oracle equivalence (binary n <= 10, quaternary n <= 5)")


def test_criterion_11_vt_partitions():
    for n in range(1, 15):
        total = sum(len(binary_vt_code(n, a)) for a in range(n + 1))
        assert total == 2**n
    for n in range(1, 9):
        assert sum(qary_vt_census(n, 4).values()) == 4**n
    report(11, True, "VT partition sums (binary n <= 14, quaternary n <= 8)")


def test_criterion_11_vt_single_deletion():
    for n in range(1, 11):
        for a in range(n + 1):
            code = binary_vt_code(n, a)
            assert check_deletion_correcting(code, 1).ok
    for n in range(2, 7):
        for words in qary_vt_classes(n, 4).values():
            assert check_deletion_correcting(words, 1).ok
    report(11, True, "every VT class corrects one deletion")


def test_criterion_11_helberg_grids():
    for n in range(1, 7):
        for s in range(1, 4):
            _, classes = helberg_classes(n, 4, s)
            for words in classes.values():
                assert check_deletion_correcting(words, min(s, n)).ok
    for n in range(1, 13):
        for s in range(1, 5):
            _, classes = helberg_classes(n, 2, s)
            for words in classes.values():
                assert check_deletion_correcting(words, min(s, n)).ok
    report(11, True, "Helberg codebooks correct their budget on the desk grid")


def test_criterion_11_lemma_families():
    for s in range(1, 7):
        for n in range(1, 11):
            assert verify_coefficient_lemma(n, 4, s).passed
            binary = {cell.label: cell.passed for cell in verify_coefficient_lemma(n, 2, s).cells}
            assert binary["paired_gap"]
    report(11, True, "coefficient and weight inequality families hold")


def test_criterion_11_closed_forms():
    inverse8 = {pair: sym for sym, pair in enumerate(PHI8.table)}
    inverse9 = {pair: sym for sym, pair in enumerate(PHI9.table)}
    for b1, b2 in itertools.product((0, 1), repeat=2):
        assert phi8_symbol_from_bits(b1, b2) == inverse8[(b1, b2)]
        assert phi9_symbol_from_bits(b1, b2) == inverse9[(b1, b2)]
    for sym in range(4):
        assert phi9_bits_from_symbol(sym) == PHI9.table[sym]
    for bits in itertools.product((0, 1), repeat=4):
        symbols = PHI8.invert(bits)
        assert phi8_signature_bit(*bits) == signature(symbols)[0]
    report(11, True, "closed forms agree with table lookups on all inputs")
