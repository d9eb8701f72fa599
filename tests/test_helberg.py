import itertools
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naisargik import (
    ResourceLimitError,
    all_bijections,
    cardinality_lower_bound,
    cardinality_upper_bound,
    check_deletion_correcting,
    coefficient,
    helberg_census,
    helberg_classes,
    helberg_code,
    moment,
    naisargik_map,
    parse_word,
    qary_vt_census,
    qary_vt_classes,
    reduction_code,
    torsion_code,
    verify_coefficient_lemma,
    weight_sequence,
)
from naisargik.words import DEFAULT_MAX_ENUM
from conftest import (
    _residue_stream,
    enumerated_census,
    grids_beyond_oracle,
    helberg_classes_by_moment,
    helberg_stream_classes,
    modulus_from_definition,
    oracle_grids,
)


class TestWeightSequence:
    def test_single_deletion_weights(self):
        assert weight_sequence(4, 4, 1).values == (1, 4, 13, 40, 121)

    def test_two_deletion_binary_weights(self):
        w = weight_sequence(10, 2, 2)
        assert w.values == (1, 2, 4, 7, 12, 20, 33, 54, 88, 143, 232)
        assert w.modulus == 232

    def test_two_deletion_quaternary_weights(self):
        w = weight_sequence(5, 4, 2)
        assert w.values == (1, 4, 16, 61, 232, 880)
        assert w.modulus == 880

    def test_three_deletion_quaternary_weights(self):
        # The recursion sums the previous three terms: v_4 = 1 + 3*(16+4+1).
        w = weight_sequence(5, 4, 3)
        assert w.values == (1, 4, 16, 64, 253, 1000)
        assert w.modulus == 1000

    def test_base_and_bounds(self):
        w = weight_sequence(4, 4, 2)
        assert w.v(0) == 0 and w.v(-3) == 0
        assert w.v(1) == 1
        with pytest.raises(ValueError):
            w.v(7)

    def test_strictly_increasing_and_geometric(self):
        for q, s in [(2, 1), (2, 4), (4, 1), (4, 3)]:
            w = weight_sequence(12, q, s)
            for i in range(2, 13):
                assert w.v(i) > w.v(i - 1) >= 1
                assert w.v(i) > (q - 1) * w.v(i - 1)

    def test_rejects_bad_parameters(self):
        for n, q, s in [(0, 4, 1), (4, 1, 1), (4, 4, 0)]:
            with pytest.raises(ValueError):
                weight_sequence(n, q, s)

    def test_exact_at_large_indices(self):
        # Arbitrary-precision integers: the deep tail must stay exact.
        w = weight_sequence(32, 4, 6)
        assert w.v(33) == 1 + 3 * sum(w.v(33 - j) for j in range(1, 7))


@pytest.mark.parametrize("q", [2, 4])
@pytest.mark.parametrize("s", range(1, 7))
def test_modulus_identity(q, s):
    for n in range(1, 17):
        assert weight_sequence(n, q, s).modulus == modulus_from_definition(n, q, s)


def test_moment_examples():
    w5 = weight_sequence(5, 4, 2)
    assert moment((0, 0, 0, 0, 0), w5) == 0
    assert moment((1, 0, 0, 3, 3), w5) == 880
    assert moment((2, 3, 3, 2, 3), w5) == 880
    with pytest.raises(ValueError):
        moment((0,) * 7, w5)


class TestHelbergCode:
    def test_two_deletion_example(self):
        code = helberg_code(5, 4, 2, 0)
        assert code == tuple(sorted({
            (0, 0, 0, 0, 0),
            (1, 0, 0, 3, 3),
            (2, 3, 3, 2, 3),
        }))

    def test_three_deletion_example(self):
        assert helberg_code(5, 4, 3, 0) == tuple(sorted({
            (0, 0, 0, 0, 0),
            (1, 0, 3, 3, 3),
        }))

    def test_single_deletion_class_13(self):
        assert helberg_code(4, 4, 1, 13) == tuple(sorted({
            parse_word(w, 4)
            for w in ("0010", "1013", "1300", "2303", "3332")
        }))

    def test_residue_out_of_range(self):
        # limit=1 would trip the enumeration guard: the residue is checked first.
        with pytest.raises(ValueError):
            helberg_code(5, 4, 3, 1000, limit=1)

    def test_codebooks_correct_their_budget(self):
        for n, q, s in [(5, 4, 2), (5, 4, 3), (6, 4, 1), (10, 2, 2), (8, 2, 3)]:
            classes = helberg_classes(n, q, s)
            for words in classes.values():
                assert check_deletion_correcting(words, s).ok


class TestClasses:
    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_equal_the_per_word_scan(self, q, s):
        # Odd and even lengths both run: the residue stream's head is n // 2
        # positions and its tail the rest.
        for n in range(1, 9):
            if q**n > 4**6:
                break
            got = helberg_classes(n, q, s)
            expected = helberg_classes_by_moment(n, q, s)
            assert got == expected
            assert list(got) == list(expected)
            for a in (min(expected), max(expected)):
                assert helberg_code(n, q, s, a) == tuple(sorted(expected[a]))

    @pytest.mark.parametrize("n,q,s", [(4, 4, 1), (3, 4, 2), (8, 2, 2), (8, 2, 3)])
    def test_map_classes_equal_the_mapped_scan(self, n, q, s):
        # q = 4: images of each class; q = 2: preimages, for all 24 maps.
        for smap in all_bijections():
            got = helberg_classes(n, q, s, smap=smap)
            expected = helberg_classes_by_moment(n, q, s, smap)
            assert got == expected, smap.name
            assert list(got) == list(expected)

    def test_map_needs_an_even_binary_length(self):
        phi9 = naisargik_map("phi9")
        with pytest.raises(ValueError, match="binary length must be even to invert the map"):
            helberg_classes(7, 2, 1, smap=phi9)

    @pytest.mark.parametrize("q", [3, 5, 8])
    def test_map_needs_a_binary_or_quaternary_code(self, q):
        with pytest.raises(ValueError):
            helberg_classes(4, q, 1, smap=naisargik_map("phi9"))


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(2, 4), st.integers(1, 6), st.integers(1, 60), st.booleans())
def test_residue_stream_equals_the_per_word_sum(data, q, n, m, helberg_shaped):
    # rows[p][c][y] is what letter y adds at position p after letter c.  A
    # Helberg-shaped position repeats one row object for every c; otherwise
    # each c gets its own row, so the tail depends on the letter ending the head.
    def row():
        return data.draw(st.lists(st.integers(-30, 30), min_size=q, max_size=q))

    rows = []
    for p in range(n):
        if helberg_shaped or p == 0:
            rows.append([row()] * q)
        else:
            rows.append([row() for _ in range(q)])
    expected = [
        (rows[0][0][x[0]] + sum(rows[p][x[p - 1]][x[p]] for p in range(1, n))) % m
        for x in itertools.product(range(q), repeat=n)
    ]
    assert list(_residue_stream(rows, m)) == expected


PHI8, PHI9 = naisargik_map("phi8"), naisargik_map("phi9")


def _restricted(m, classes, runs):
    """The oracle's classes in ``runs``, run by run, members taken mod m."""
    return {a % m: classes[a % m] for run in runs for a in run if a % m in classes}


@st.composite
def walk_points(draw):
    """(n, q, s, smap) with at most 256 words: q = 2, 3, 4, and at q = 2 and
    4 also the word spaces phi9 and phi8 pair with Z_q^n."""
    q = draw(st.sampled_from([2, 3, 4]))
    smap = None if q == 3 else draw(st.sampled_from([None, PHI9, PHI8]))
    if q == 2 and smap is not None:
        n = 2 * draw(st.integers(1, 4))
    else:
        n = draw(st.integers(1, {2: 8, 3: 5, 4: 4}[q]))
    return n, q, draw(st.integers(1, 3)), smap


@settings(max_examples=200, deadline=None)
@given(walk_points(), st.data())
def test_walk_equals_the_stream_oracle_on_any_runs(point, data):
    # Disjoint runs from a random start, with gaps, empty runs, and runs that
    # pass m - 1 and wrap to 0; every shifted run of a head may wrap too.
    n, q, s, smap = point
    m = weight_sequence(n, q, s).modulus
    classes = helberg_stream_classes(n, q, s, smap)
    pos = start = data.draw(st.integers(0, m - 1))
    runs = []
    for gap, length in data.draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 6)))):
        pos += gap
        length = min(length, start + m - pos)
        if length < 0:
            break
        runs.append(range(pos, pos + length))
        pos += length
    expected = _restricted(m, classes, runs)
    walk = helberg_classes(n, q, s, DEFAULT_MAX_ENUM, smap, runs)
    assert walk == expected
    assert list(walk) == list(expected)
    if smap is None:
        a = data.draw(st.integers(0, m - 1))
        assert helberg_code(n, q, s, a) == tuple(sorted(classes[a]))


@pytest.mark.parametrize(
    "n, q, s, smap",
    [(6, 2, 2, None), (7, 2, 1, None), (4, 3, 1, None), (3, 4, 2, None), (3, 4, 1, PHI9),
     (4, 4, 1, PHI8), (8, 2, 3, PHI9), (6, 2, 2, PHI8)],
)
def test_walk_on_the_runs_a_campaign_takes(n, q, s, smap):
    # The two leader runs of x -> q - 1 - x and their mirrors tile Z_m, the
    # self-partner residues c/2 and (c + m)/2 falling in the leader runs; a
    # run of all m residues may start anywhere; an empty run and no runs
    # give no class.
    w = weight_sequence(n, q, s)
    m, classes = w.modulus, helberg_stream_classes(n, q, s, smap)
    c = (q - 1) * sum(w.values[:-1]) % m
    leaders = [range(c // 2 + 1), range(c + 1, (c + m) // 2 + 1)]
    mirrors = [range(c - c // 2, c + 1), range(c + m - (c + m) // 2, m)]
    selves = [range(t // 2, t // 2 + 1) for t in (c, c + m) if t % 2 == 0]
    tiled = sorted(a for run in leaders + mirrors for a in run)
    assert tiled == sorted([*range(m), *(run.start for run in selves)])
    everything = [range(m)], [range(m - 1, 2 * m - 1)]
    for runs in (leaders, mirrors, selves, *everything, [range(3, 3)], []):
        walk = helberg_classes(n, q, s, DEFAULT_MAX_ENUM, smap, runs)
        assert walk == _restricted(m, classes, runs)


# Peaks of the per-word builders the residue streams replaced, measured with
# tracemalloc on Python 3.11.7: helberg_classes(8, 4, 2) 24.41 MB and
# qary_vt_classes(8, 4) 7.91 MB.  The Helberg stream holds O(q^ceil(n/2)) sums
# and the VT stream O(q^(ceil(n/2) + 1)); a list of all q^n residues measured
# 8.33 MB (+5.3 %) on the VT builder, and 188.3 MB against 174.6 MB at
# helberg_classes(10, 4, 1).
@pytest.mark.parametrize(
    "build,args,parent_mb",
    [(helberg_classes, (8, 4, 2), 24.41), (qary_vt_classes, (8, 4), 7.91)],
)
def test_class_builders_hold_no_more_than_the_per_word_scan(build, args, parent_mb):
    tracemalloc.start()
    try:
        build(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * parent_mb * 1e6


class TestCensus:
    def test_top_groups(self):
        census = helberg_census(4, 4, 1)
        assert weight_sequence(4, 4, 1).modulus == 121
        assert len(census) == 121
        assert max(census) == 5
        assert tuple(a for a, c in enumerate(census) if c == 5) == (13, 40)
        assert tuple(a for a, c in enumerate(census) if c == 4) == (0, 12, 14, 26, 27, 39, 41, 53)
        assert sum(census) == 256

    def test_binary_two_deletion_census(self):
        census = helberg_census(10, 2, 2)
        assert len(census) == weight_sequence(10, 2, 2).modulus
        assert max(census) == 8
        assert tuple(a for a, c in enumerate(census) if c == 8) == (66,)
        assert sum(census) == 1024

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_binary_census_folds_as_it_grows(self, s):
        # At q = 2 the product outgrows m within a few factors (m = n + 1 at
        # s = 1), so most factors are folded onto Z_m before the next one.
        for n in range(1, 15):
            w = weight_sequence(n, 2, s)
            counted = enumerated_census(n, 2, lambda x: moment(x, w) % w.modulus)
            assert helberg_census(n, 2, s) == [counted.get(a, 0) for a in range(w.modulus)]

    def test_census_holds_one_folded_product(self):
        # Unfolded to its last coefficient and returned as a residue -> count
        # dict, this census peaked at 200 MB (tracemalloc, Python 3.11.7);
        # folded as it grows and returned as a list, it peaks at 43 MB.
        tracemalloc.start()
        try:
            helberg_census(11, 4, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2**20


def test_coefficient_values():
    w = weight_sequence(4, 4, 1)
    assert coefficient(1, w) == 1
    assert coefficient(2, w) == 2
    assert coefficient(3, w) == 4
    assert coefficient(4, w) == 8
    assert coefficient(5, w) == 13
    with pytest.raises(ValueError):
        coefficient(0, w)


@pytest.mark.parametrize("n,q,s", [(6, 4, 1), (8, 4, 3), (6, 4, 2)])
def test_lemma_families_hold_for_quaternary_weights(n, q, s):
    result = verify_coefficient_lemma(n, q, s)
    assert result.passed, result.to_dict()


def lemma_cells(n, q, s):
    """The lemma campaign's cells by family: monotone, single_gap, paired_gap."""
    return {cell.label: cell for cell in verify_coefficient_lemma(n, q, s).cells}


def test_paired_gap_holds_for_binary_weights():
    cells = lemma_cells(10, 2, 2)
    assert cells["paired_gap"].passed
    # Strict coefficient monotonicity needs q >= 3: at q = 2 consecutive
    # coefficients tie (C_3 = C_2 = 2), so the other two families fail.
    assert not cells["monotone"].passed
    assert any(v.startswith("C_3") for v in cells["monotone"].detail["violations"])


def test_lemma_families_hold_across_grid():
    for s in range(1, 7):
        for n in (1, 2, 5, 10):
            assert verify_coefficient_lemma(n, 4, s).passed
            assert lemma_cells(n, 2, s)["paired_gap"].passed


class TestBounds:
    def test_upper_examples(self):
        assert cardinality_upper_bound(4, 2, 2) == 2
        assert cardinality_upper_bound(1, 2, 1) == 2
        assert cardinality_upper_bound(4, 4, 1) == Fraction(64, 3)

    def test_lower_examples(self):
        assert cardinality_lower_bound(2, 4, 1) == Fraction(65, 72)

    def test_exact_rationals(self):
        lo = cardinality_lower_bound(3, 4, 2)
        hi = cardinality_upper_bound(3, 4, 2)
        assert isinstance(lo, Fraction) and isinstance(hi, Fraction)
        assert lo == Fraction(4 * 4**5 + 2, 9**2 * 2**3 * 2**2)
        assert hi == Fraction(2 * 4**3, 3**2 * 3**2)


def test_reduction_code():
    assert reduction_code({(0, 0, 0, 0, 0)}) == tuple(sorted({(0, 0, 0, 0, 0)}))
    assert reduction_code({(2, 3, 3, 2, 3)}) == tuple(sorted({(0, 1, 1, 0, 1)}))
    code = helberg_code(5, 4, 2, 0)
    assert reduction_code(code) == tuple(sorted({
        parse_word("00000", 2),
        parse_word("10011", 2),
        parse_word("01101", 2),
    }))


def test_torsion_code():
    code = helberg_code(5, 4, 1, 0)
    assert (0, 0, 0, 0, 0) in code
    assert torsion_code(code) == tuple(sorted({(0, 0, 0, 0, 0)}))
    assert torsion_code({(1, 2, 3), (3, 2, 1)}) == ()
    assert torsion_code({(2, 0, 2)}) == tuple(sorted({(1, 0, 1)}))
    assert torsion_code({(2, 2, 0), (0, 2, 2), (0, 0, 2)}) == ((0, 0, 1), (0, 1, 1), (1, 1, 0))


@settings(max_examples=60, deadline=None)
@given(oracle_grids(), st.integers(min_value=1, max_value=3))
def test_census_partitions_the_space(grid, s):
    n, q = grid
    w = weight_sequence(n, q, s)
    census = helberg_census(n, q, s)
    assert len(census) == w.modulus
    counted = enumerated_census(n, q, lambda x: moment(x, w) % w.modulus)
    assert census == [counted.get(a, 0) for a in range(w.modulus)]


@settings(max_examples=20, deadline=None)
@given(grids_beyond_oracle(), st.integers(min_value=1, max_value=3))
def test_census_counts_beyond_enumeration(grid, s):
    n, q = grid
    census = helberg_census(n, q, s)
    m = weight_sequence(n, q, s).modulus
    assert sum(census) == q**n
    assert len(census) == m
    assert all(type(c) is int and c >= 0 for c in census)
    vt = qary_vt_census(n, q)
    assert sum(vt.values()) == q**n
    assert min(vt.values()) >= 0


def test_census_guard_trips_before_counting():
    # Counting (9, 4, 1) holds about 44k coefficients; a guard that fires
    # first allocates next to nothing.
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            helberg_census(9, 4, 1, limit=1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 1024


@pytest.mark.parametrize("n,q", [(0, 4), (-1, 4), (3, 1), (3, 0)])
def test_census_rejects_bad_domain(n, q):
    with pytest.raises(ValueError):
        helberg_census(n, q, 1)
