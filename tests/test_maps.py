import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naisargik import (
    NAISARGIK_MAPS,
    SymbolMap,
    all_bijections,
    naisargik_map,
)
from conftest import phi8_symbol_from_bits, phi9_bits_from_symbol, phi9_symbol_from_bits


def test_registry_has_nine_maps():
    assert len(NAISARGIK_MAPS) == 9
    assert set(NAISARGIK_MAPS) == {f"phi{i}" for i in range(1, 10)}


def test_registry_rows():
    assert naisargik_map("phi9").table == ((1, 1), (0, 1), (1, 0), (0, 0))
    assert naisargik_map("phi1").table == ((0, 0), (1, 0), (1, 1), (0, 1))
    assert naisargik_map("phi8").table == ((0, 0), (0, 1), (1, 1), (1, 0))


def test_unknown_name_is_a_usage_error():
    with pytest.raises(ValueError, match="unknown map"):
        naisargik_map("phi10")


def test_duplicate_image_pairs_rejected():
    with pytest.raises(ValueError, match="distinct"):
        SymbolMap("bad", ((0, 0), (0, 0), (1, 1), (1, 0)))


class TestAllBijections:
    def test_count_and_uniqueness(self):
        maps = all_bijections()
        assert len(maps) == 24
        assert len({m.table for m in maps}) == 24

    def test_deterministic_and_sorted(self):
        first = all_bijections()
        second = all_bijections()
        assert [m.table for m in first] == [m.table for m in second]
        assert [m.table for m in first] == sorted(m.table for m in first)

    def test_contains_the_gray_table(self):
        tables = {m.table for m in all_bijections()}
        assert ((0, 0), (0, 1), (1, 1), (1, 0)) in tables

    def test_named_rows_carry_phi_names(self):
        by_table = {m.table: m.name for m in all_bijections()}
        for name, smap in NAISARGIK_MAPS.items():
            assert by_table[smap.table] == name

    def test_inverse_names_the_symbol_of_each_pair(self):
        pairs = list(itertools.product((0, 1), repeat=2))
        for smap in all_bijections():
            assert len(smap.inverse) == 4, smap.name
            for pair, sym in zip(pairs, smap.inverse):
                assert smap.table[sym] == pair, smap.name


def test_apply_examples():
    assert naisargik_map("phi8").apply((0, 3, 2, 1)) == (0, 0, 1, 0, 1, 1, 0, 1)
    assert naisargik_map("phi9").apply((0, 0, 1, 0)) == (1, 1, 1, 1, 0, 1, 1, 1)
    assert naisargik_map("phi3").apply(()) == ()


def test_apply_rejects_non_quaternary():
    with pytest.raises(ValueError):
        naisargik_map("phi8").apply((0, 4))


def test_invert_examples():
    assert naisargik_map("phi9").invert((0, 0, 0, 0, 1, 0, 0, 1, 0, 0)) == (3, 3, 2, 1, 3)
    assert naisargik_map("phi8").invert((0, 0, 1, 0, 1, 1, 0, 1)) == (0, 3, 2, 1)
    assert naisargik_map("phi8").invert(()) == ()


def test_invert_rejects_odd_length():
    with pytest.raises(ValueError, match="even"):
        naisargik_map("phi9").invert((1, 0, 1))


@settings(max_examples=200)
@given(
    st.sampled_from(range(24)),
    st.lists(st.integers(min_value=0, max_value=3), max_size=8).map(tuple),
)
def test_roundtrip_and_length_law(index, word):
    smap = all_bijections()[index]
    image = smap.apply(word)
    assert len(image) == 2 * len(word)
    assert smap.invert(image) == word


def test_roundtrip_exhaustive_short_words():
    for smap in all_bijections():
        for n in range(4):
            for word in itertools.product(range(4), repeat=n):
                assert smap.invert(smap.apply(word)) == word


def test_phi8_closed_form_matches_table():
    inverse = {pair: sym for sym, pair in enumerate(naisargik_map("phi8").table)}
    for b1, b2 in itertools.product((0, 1), repeat=2):
        assert phi8_symbol_from_bits(b1, b2) == inverse[(b1, b2)]
    assert phi8_symbol_from_bits(0, 0) == 0
    assert phi8_symbol_from_bits(1, 1) == 2
    assert phi8_symbol_from_bits(1, 0) == 3


def test_phi9_closed_forms_match_table():
    phi9 = naisargik_map("phi9")
    inverse = {pair: sym for sym, pair in enumerate(phi9.table)}
    for b1, b2 in itertools.product((0, 1), repeat=2):
        assert phi9_symbol_from_bits(b1, b2) == inverse[(b1, b2)]
    for sym in range(4):
        assert phi9_bits_from_symbol(sym) == phi9.table[sym]
        assert phi9_symbol_from_bits(*phi9_bits_from_symbol(sym)) == sym
    assert phi9_symbol_from_bits(1, 1) == 0
    assert phi9_symbol_from_bits(0, 0) == 3
    assert phi9_symbol_from_bits(1, 0) == 2
    assert phi9_bits_from_symbol(2) == (1, 0)
    assert phi9_bits_from_symbol(0) == (1, 1)
    assert phi9_bits_from_symbol(3) == (0, 0)

