import itertools
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naisargik import (
    ResourceLimitError,
    check_deletion_correcting,
    sphere_collisions,
    sphere_members,
)
from conftest import sphere_by_index_subsets, words_strategy


def test_single_deletions_collapses_repeats():
    assert sphere_members((0, 0), 1) == {(0,)}


def test_single_deletions_examples():
    assert sphere_members((0, 1, 0, 0, 0, 0), 1) == {
        (1, 0, 0, 0, 0),
        (0, 0, 0, 0, 0),
        (0, 1, 0, 0, 0),
    }
    assert len(sphere_members((0, 1, 2, 3), 1)) == 4


def test_single_deletions_rejects_empty():
    with pytest.raises(ValueError):
        sphere_members((), 1)


def test_sphere_of_000101_contains_every_subsequence():
    # Dropping both ones leaves 0000, so the sphere has five members, not four.
    assert sphere_members((0, 0, 0, 1, 0, 1), 2) == {
        (0, 1, 0, 1),
        (0, 0, 0, 1),
        (0, 0, 1, 1),
        (0, 0, 1, 0),
        (0, 0, 0, 0),
    }


def test_sphere_of_010000():
    assert sphere_members((0, 1, 0, 0, 0, 0), 2) == {
        (0, 0, 0, 0),
        (1, 0, 0, 0),
        (0, 1, 0, 0),
    }


def test_sphere_zero_deletions_is_the_center():
    word = (2, 0, 1, 3)
    assert sphere_members(word, 0) == {word}


def test_sphere_full_deletion_is_the_empty_word():
    assert sphere_members((1, 0, 1), 3) == {()}


@pytest.mark.parametrize("s", [-1, 4])
def test_sphere_rejects_out_of_range_s(s):
    with pytest.raises(ValueError):
        sphere_members((0, 1, 0), s)
    with pytest.raises(ValueError):
        check_deletion_correcting([(0, 1, 0), (1, 1, 0)], s)


def test_sphere_cap_guard():
    with pytest.raises(ResourceLimitError):
        sphere_members(tuple(range(2)) * 30, 30, cap=1000)


def test_sphere_collisions_member_cap():
    # Every word of Z_2^6 passes the per-word guard, C(6, 1) = 6 <= 10, but
    # their 1-deletion spheres hold 32 distinct members in all.
    code = list(itertools.product(range(2), repeat=6))
    with pytest.raises(ResourceLimitError, match="cap 10"):
        sphere_collisions(code, 1, cap=10)
    assert sphere_collisions(code, 1, cap=32)


def test_sphere_rejects_symbols_beyond_a_byte():
    with pytest.raises(ValueError, match="not 256"):
        sphere_members((0, 256, 1), 1)
    with pytest.raises(ValueError, match="not -1"):
        sphere_members((0, -1), 0)
    # Every word of a codebook is checked, not only the first.
    with pytest.raises(ValueError, match="not 300"):
        sphere_collisions([(0, 1, 2), (0, 300, 2)], 1)


def test_oracle_equivalence_exhaustive_small():
    for q in (2, 3, 4):
        for n in range(0, 7):
            for word in itertools.product(range(q), repeat=n):
                for s in range(0, min(n, 3) + 1):
                    assert sphere_members(word, s) == sphere_by_index_subsets(word, s)


@settings(max_examples=300, deadline=None)
@given(words_strategy(max_len=10), st.integers(min_value=0, max_value=3))
def test_oracle_equivalence_random(word_q, s):
    word, _ = word_q
    if s > len(word):
        s = len(word)
    assert sphere_members(word, s) == sphere_by_index_subsets(word, s)


@settings(max_examples=200, deadline=None)
@given(words_strategy(max_len=9), st.integers(min_value=0, max_value=3))
def test_size_bounds(word_q, s):
    word, _ = word_q
    if s > len(word):
        s = len(word)
    size = len(sphere_members(word, s))
    assert 1 <= size <= comb(len(word), s)


def test_constant_word_collapses_to_one_member():
    for s in range(6):
        assert len(sphere_members((1,) * 5, min(s, 5))) == 1


def test_intersection_basics():
    assert not sphere_members((0, 1, 2), 1) & sphere_members((2, 1, 0), 1)

    x, y = (1, 0, 0, 1, 0, 1, 0, 1), (1, 0, 0, 1, 1, 0, 1, 0)
    assert (1, 0, 0, 1, 0, 1, 0) in sphere_members(x, 1) & sphere_members(y, 1)


def test_the_000101_pair_intersects_at_two_deletions():
    # The shared member 0000 shows this pair is not 2-deletion correcting.
    x, y = (0, 0, 0, 1, 0, 1), (0, 1, 0, 0, 0, 0)
    assert sphere_members(x, 2) & sphere_members(y, 2) == {(0, 0, 0, 0)}


def test_intersection_rejects_unequal_lengths():
    with pytest.raises(ValueError):
        check_deletion_correcting([(0, 1), (0, 1, 0)], 1)


@settings(max_examples=150, deadline=None)
@given(words_strategy(max_len=7, min_len=2), st.data())
def test_intersection_is_symmetric(word_q, data):
    x, q = word_q
    y = tuple(
        data.draw(st.integers(min_value=0, max_value=q - 1)) for _ in range(len(x))
    )
    s = data.draw(st.integers(min_value=0, max_value=min(2, len(x))))
    shared = sphere_members(x, s) & sphere_members(y, s)
    assert shared == sphere_by_index_subsets(y, s) & sphere_by_index_subsets(x, s)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 4), st.integers(1, 6), st.integers(0, 2), st.data())
def test_report_ignores_codebook_order_and_duplicates(q, n, s, data):
    word = st.lists(st.integers(0, q - 1), min_size=n, max_size=n).map(tuple)
    code = data.draw(st.lists(word, max_size=8))
    shuffled = data.draw(st.permutations(code + code[: len(code) // 2]))
    s = min(s, n)
    assert check_deletion_correcting(shuffled, s) == check_deletion_correcting(code, s)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 4), st.integers(1, 6), st.integers(0, 3), st.data())
def test_collisions_match_brute_force(q, n, s, data):
    word = st.lists(st.integers(0, q - 1), min_size=n, max_size=n).map(tuple)
    code = sorted(set(data.draw(st.lists(word, max_size=8))))
    s = min(s, n)
    owners = {}
    for w in code:
        for member in sphere_by_index_subsets(w, s):
            owners.setdefault(member, []).append(w)
    shared = {member: ws for member, ws in owners.items() if len(ws) >= 2}
    assert sphere_collisions(code, s) == shared


class TestCorrectionCheck:
    def test_singleton_passes_any_s(self):
        for s in range(4):
            assert check_deletion_correcting({(1, 2, 3, 0)}, s).ok

    def test_two_deletion_codebook(self):
        # H(5, 4, 2, 0): corrects two deletions but not three.
        code = {(0, 0, 0, 0, 0), (1, 0, 0, 3, 3), (2, 3, 3, 2, 3)}
        assert check_deletion_correcting(code, 2).ok
        report = check_deletion_correcting(code, 3)
        assert not report.ok

    def test_three_deletion_codebook(self):
        assert check_deletion_correcting({(0, 0, 0, 0, 0), (1, 0, 3, 3, 3)}, 3).ok

    def test_witness_is_canonical_and_shared(self):
        report = check_deletion_correcting(
            {(0, 0, 0, 1, 0, 1), (0, 1, 0, 0, 0, 0)}, 2
        )
        assert not report.ok
        x, y, shared = report.witness
        assert (x, y) == ((0, 0, 0, 1, 0, 1), (0, 1, 0, 0, 0, 0))
        assert shared in sphere_members(x, 2)
        assert shared in sphere_members(y, 2)

    def test_subset_of_passing_code_still_passes(self):
        code = [(0, 0, 0, 0), (1, 1, 1, 1), (2, 2, 2, 2)]
        assert check_deletion_correcting(code, 2).ok
        for pair in itertools.combinations(code, 2):
            assert check_deletion_correcting(pair, 2).ok

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValueError):
            check_deletion_correcting({(0, 1), (0, 1, 0)}, 1)

    def test_empty_codebook_passes(self):
        assert check_deletion_correcting(set(), 1).ok

    def test_report_requires_witness_exactly_on_failure(self):
        from naisargik import CorrectionReport

        with pytest.raises(ValueError):
            CorrectionReport(ok=False, witness=None)
        with pytest.raises(ValueError):
            CorrectionReport(ok=True, witness=((0,), (1,), ()))
