import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from naisargik import (
    DEFAULT_MAX_ENUM,
    ResourceLimitError,
    all_bijections,
    binary_vt_code,
    binary_vt_residue,
    equal_weight_scan,
    helberg_classes,
    image_pair_diff,
    naisargik_map,
    parse_word,
    qary_vt_census,
    qary_vt_classes,
    qary_vt_code,
    qary_vt_residues,
    same_residue_witness,
    signature,
    sphere_members,
    weight_sequence,
)
from naisargik.verify import _scan_campaign
from conftest import (
    all_words,
    binary_vt_code_by_checksum,
    enumerated_census,
    least_colliding_pair,
    phi8_signature_bit,
    qary_vt_classes_by_residues,
    qary_vt_code_by_residues,
)
from golden import RESIDUE_DIFF_ROWS, VT_1_2_IMAGES, VT_4_4_CENSUS


def test_binary_residue_examples():
    assert binary_vt_residue((0, 0, 0)) == 0
    assert binary_vt_residue((1, 0, 1)) == 0
    assert binary_vt_residue((0, 1, 0, 0, 0, 0)) == 2


def test_binary_residue_rejects_non_binary():
    with pytest.raises(ValueError):
        binary_vt_residue((0, 2, 0))


def test_binary_code_small():
    assert binary_vt_code(3, 0) == tuple(sorted({(0, 0, 0), (1, 0, 1)}))
    sizes = [len(binary_vt_code(3, a)) for a in range(4)]
    assert sizes == [2, 2, 2, 2]  # n+1 a power of two: exactly 2^n/(n+1) each


@pytest.mark.parametrize("n", range(1, 11))
def test_binary_partition(n):
    total = sum(len(binary_vt_code(n, a)) for a in range(n + 1))
    assert total == 2**n


@pytest.mark.parametrize("n", range(1, 13))
def test_binary_classes_match_codes(n):
    # The binary VT classes are the Helberg classes with q = 2 and s = 1.
    m = weight_sequence(n, 2, 1).modulus
    classes = helberg_classes(n, 2, 1)
    assert m == n + 1
    assert list(classes) == list(range(n + 1))
    assert classes == {a: binary_vt_code_by_checksum(n, a) for a in range(n + 1)}


#: Every (n, q) over the digit alphabets with q^n within 4^5.
_CODE_GRID = [(n, q) for q in range(2, 11) for n in range(1, 11) if q**n <= 4**5]


@pytest.mark.parametrize("n", [n for n, q in _CODE_GRID if q == 2])
def test_binary_code_equals_the_per_word_scan(n):
    for a in range(n + 1):
        assert binary_vt_code(n, a) == binary_vt_code_by_checksum(n, a)


@pytest.mark.parametrize("n,q", _CODE_GRID)
def test_qary_code_equals_the_per_word_scan(n, q):
    for a in range(n):
        for b in range(q):
            assert qary_vt_code(n, q, a, b) == qary_vt_code_by_residues(n, q, a, b)


def test_binary_classes_guards():
    for n in (0, -1):
        with pytest.raises(ValueError):
            helberg_classes(n, 2, 1, 1000)
    with pytest.raises(ResourceLimitError):
        helberg_classes(12, 2, 1, 1000)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("n", range(1, 8))
def test_qary_classes_equal_the_per_word_scan(n, q):
    got = qary_vt_classes(n, q)
    expected = qary_vt_classes_by_residues(n, q)
    assert got == expected
    assert list(got) == list(expected)


@pytest.mark.parametrize("n", range(1, 6))
def test_qary_classes_through_every_map_equal_the_mapped_scan(n):
    for smap in all_bijections():
        assert qary_vt_classes(n, 4, smap=smap) == qary_vt_classes_by_residues(n, 4, smap)


PHI8, PHI9 = naisargik_map("phi8"), naisargik_map("phi9")


@st.composite
def vt_walk_points(draw):
    """(n, q, smap, keys): n 1-6, q 2-5, no map or (at q = 4 only) phi8 or
    phi9, and a random set of residue pairs (a, b)."""
    q = draw(st.integers(2, 5))
    n = draw(st.integers(1, 6))
    smap = draw(st.sampled_from([None, PHI8, PHI9])) if q == 4 else None
    keys = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, q - 1)), max_size=4))
    return n, q, smap, keys


@settings(max_examples=150, deadline=None)
@given(vt_walk_points())
@example((1, 3, None, {(0, 0), (0, 2)}))  # one letter: the head is the word, the tail empty
@example((1, 4, PHI9, {(0, 1)}))
@example((6, 4, PHI8, {(2, 0), (5, 3)}))  # gcd(n, q) = 2
@example((6, 3, None, {(0, 0), (3, 1)}))  # gcd(n, q) = 3
@example((4, 4, PHI9, {(0, 0), (3, 3)}))  # gcd(n, q) = 4
@example((5, 5, None, {(4, 4)}))  # gcd(n, q) = 5
def test_vt_walk_equals_the_per_word_oracle(point):
    # The walk keys a head by (A_h mod n) * q and its tail table by the last
    # head letter and B_h mod q, with no CRT step, so n and q may share factors.
    n, q, smap, keys = point
    got = qary_vt_classes(n, q, smap=smap)
    expected = qary_vt_classes_by_residues(n, q, smap)
    assert got == expected
    assert list(got) == list(expected)
    for a, b in keys:
        assert qary_vt_code(n, q, a, b) == qary_vt_code_by_residues(n, q, a, b)


def test_qary_classes_map_only_quaternary_words():
    for q in (2, 3, 5):
        with pytest.raises(ValueError, match="pairs Z_4 with Z_2\\^2"):
            qary_vt_classes(3, q, smap=naisargik_map("phi8"))


def test_qary_classes_guards():
    with pytest.raises(ValueError, match="residues need length >= 1"):
        qary_vt_classes(0, 4)
    with pytest.raises(ValueError, match="word length must be >= 0"):
        qary_vt_classes(-1, 4)
    with pytest.raises(ValueError, match="alphabet size must be >= 2"):
        qary_vt_classes(3, 1)
    with pytest.raises(ResourceLimitError):
        qary_vt_classes(9, 4, 1000)


def test_params_validation():
    # limit=1 would trip the enumeration guard: the residues are checked first.
    with pytest.raises(ValueError):
        binary_vt_code(3, 4, limit=1)
    with pytest.raises(ValueError):
        qary_vt_code(4, 4, 4, 0, limit=1)
    with pytest.raises(ValueError):
        qary_vt_code(4, 4, 0, 4, limit=1)


def test_signature_examples():
    assert signature((0, 3, 2, 1)) == (1, 0, 0)
    assert signature((2,) * 5) == (1, 1, 1, 1)
    assert signature((3, 2, 1, 0)) == (0, 0, 0)
    assert signature((7,)) == ()


def test_qary_residue_examples():
    assert qary_vt_residues((0, 3, 2, 1), 4) == (1, 2)
    assert qary_vt_residues((1, 3, 2, 0), 4) == (1, 2)
    assert qary_vt_residues((0, 0, 0, 0), 4) == (2, 0)
    assert qary_vt_residues((3,), 4) == (0, 3)


def test_qary_code_matches_golden_class():
    expected = {parse_word(w, 4) for w, _ in VT_1_2_IMAGES}
    assert qary_vt_code(4, 4, 1, 2) == tuple(sorted(expected))


def test_qary_census_golden():
    census = qary_vt_census(4, 4)
    assert census == VT_4_4_CENSUS
    assert sum(census.values()) == 4**4
    assert max(census.values()) >= 4**4 // (4 * 4)


@pytest.mark.parametrize(
    "n,q", [(2, 4), (3, 4), (5, 4), (4, 3), (1, 2), (7, 4), (8, 3), (6, 5), (14, 2)]
)
def test_qary_partition(n, q):
    counted = enumerated_census(n, q, lambda w: qary_vt_residues(w, q))
    assert qary_vt_census(n, q) == {
        (a, b): counted.get((a, b), 0) for a in range(n) for b in range(q)
    }


def test_qary_census_guard_trips_before_counting():
    with pytest.raises(ResourceLimitError):
        qary_vt_census(9, 4, limit=1000)


@pytest.mark.parametrize("n,q", [(0, 4), (-1, 4), (3, 1), (3, 0)])
def test_qary_census_rejects_bad_domain(n, q):
    with pytest.raises(ValueError):
        qary_vt_census(n, q)


def test_phi8_signature_bit_matches_direct_signature():
    phi8 = naisargik_map("phi8")
    for bits in itertools.product((0, 1), repeat=4):
        symbols = phi8.invert(bits)
        expected = signature(symbols)[0]
        assert phi8_signature_bit(*bits) == expected


def test_phi8_signature_bit_examples():
    for alpha, beta in itertools.product((0, 1), repeat=2):
        assert phi8_signature_bit(0, 0, alpha, beta) == 1
    assert phi8_signature_bit(1, 0, 1, 0) == 1
    assert phi8_signature_bit(1, 0, 0, 1) == 0


@pytest.mark.parametrize("n,x,y,da,db", RESIDUE_DIFF_ROWS)
def test_image_pair_diff_rows(n, x, y, da, db):
    diff = image_pair_diff(parse_word(x, 2), parse_word(y, 2), naisargik_map("phi8"))
    assert diff == (da, db)


def test_image_pair_diff_rejects_mismatch():
    with pytest.raises(ValueError):
        image_pair_diff((1, 0), (1, 0, 0, 1), naisargik_map("phi8"))


@pytest.mark.parametrize("name", [f"phi{i}" for i in range(1, 9)])
def test_equal_weight_scan_small(name):
    _, counterexample = equal_weight_scan(2, naisargik_map(name))
    assert counterexample is None


def test_equal_weight_scan_shares_classes_across_maps():
    # The campaign runs one cell per map; each cell equals the single-map scan.
    names = tuple(f"phi{i}" for i in range(1, 9))
    together = _scan_campaign(3, names, DEFAULT_MAX_ENUM, 1).cells
    assert [cell.label for cell in together] == list(names)
    for cell, name in zip(together, names):
        pairs, counterexample = equal_weight_scan(3, naisargik_map(name))
        assert cell.passed == (counterexample is None)
        assert cell.detail == {"intersecting_pairs": pairs}


def test_equal_weight_scan_finds_intersections():
    pairs, counterexample = equal_weight_scan(4, naisargik_map("phi8"))
    assert counterexample is None
    assert pairs >= 1
    assert len(qary_vt_classes(4, 4)) == 16


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_equal_weight_scan_matches_brute_force(n):
    # Every map, failing ones (phi9 among them) included: the count of
    # intersecting image pairs and the least pair of unequal weight equal a
    # scan of all pairs of each residue class.
    classes = {}
    for w in all_words(n, 4):
        classes.setdefault(qary_vt_residues(w, 4), []).append(w)
    for smap in all_bijections():
        pairs = []
        for words in classes.values():
            images = sorted(smap.apply(w) for w in words)
            pairs += [
                (x, y)
                for x, y in itertools.combinations(images, 2)
                if sphere_members(x, 1) & sphere_members(y, 1)
            ]
        unequal = [(x, y) for x, y in pairs if sum(x) != sum(y)]
        assert equal_weight_scan(n, smap) == (len(pairs), min(unequal, default=None)), smap.name


def test_equal_weight_bound_on_binary_weights():
    # Intersecting 1-deletion spheres can shift the weight by at most one.
    for x, y in itertools.combinations(itertools.product((0, 1), repeat=6), 2):
        if sphere_members(x, 1) & sphere_members(y, 1):
            assert abs(sum(x) - sum(y)) <= 1


def test_table2_images_are_consistent_with_the_map():
    # Golden images must be exactly phi8 of the codeword column.  The image
    # 01111000 sometimes quoted for 1320 is phi8 of 1230, which is not even
    # a member of the (1, 2) class, so the recomputed 01101100 is the only
    # value consistent with the map table.
    phi8 = naisargik_map("phi8")
    for word, image in VT_1_2_IMAGES:
        assert phi8.apply(parse_word(word, 4)) == parse_word(image, 2)
    stray = phi8.invert(parse_word("01111000", 2))
    assert stray == (1, 2, 3, 0)
    assert qary_vt_residues(stray, 4) != (1, 2)


def test_same_residue_witness_none_for_length_one():
    for smap in all_bijections():
        assert same_residue_witness(1, smap) is None


def test_same_residue_witness_at_length_four():
    witness = same_residue_witness(4, naisargik_map("phi8"))
    assert witness is not None
    x, y, shared = witness
    assert (x, y) == ((0, 0, 1, 1, 0, 0, 1, 1), (0, 0, 1, 1, 0, 1, 0, 1))
    assert shared == sphere_members(x, 1) & sphere_members(y, 1)
    phi8 = naisargik_map("phi8")
    assert qary_vt_residues(phi8.invert(x), 4) == qary_vt_residues(phi8.invert(y), 4)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_same_residue_witness_matches_brute_force(n):
    classes = {}
    for w in all_words(n, 4):
        classes.setdefault(qary_vt_residues(w, 4), []).append(w)
    for smap in all_bijections():
        expected = None
        for residue in sorted(classes):
            expected = least_colliding_pair([smap.apply(w) for w in classes[residue]], 1)
            if expected:
                break
        assert same_residue_witness(n, smap) == expected, smap.name


def test_witness_pair_3311_3302_recomputes_cleanly():
    # The image pair 10100101 / 10100011 inverts to 3311 and 3302, both in
    # residue class (0, 0), sharing exactly two one-deletion subsequences.
    phi8 = naisargik_map("phi8")
    x_bits = parse_word("10100101", 2)
    y_bits = parse_word("10100011", 2)
    assert phi8.invert(x_bits) == (3, 3, 1, 1)
    assert phi8.invert(y_bits) == (3, 3, 0, 2)
    assert qary_vt_residues((3, 3, 1, 1), 4) == (0, 0)
    assert qary_vt_residues((3, 3, 0, 2), 4) == (0, 0)
    assert qary_vt_residues((3, 3, 2, 2), 4) != (0, 0)
    shared = sphere_members(x_bits, 1) & sphere_members(y_bits, 1)
    assert shared == {(1, 0, 1, 0, 0, 0, 1), (1, 0, 1, 0, 0, 1, 1)}


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=8))
def test_residue_pair_ranges(symbols):
    word = tuple(symbols)
    a, b = qary_vt_residues(word, 4)
    assert 0 <= a < len(word)
    assert 0 <= b < 4
