import itertools
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from naisargik import (
    CorrectionReport,
    ResourceLimitError,
    binary_vt_code,
    check_codebooks,
    check_deletion_correcting,
    helberg_classes,
    naisargik_map,
    sphere_collisions,
    sphere_members,
)
from naisargik import spheres
from conftest import (
    first_meeting_pair,
    lcs_length,
    oracle_report,
    sphere_by_index_subsets,
    words_strategy,
)


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


def test_pack_names_the_bad_symbol_of_an_iterator():
    # The lane kernel packs an iterator; the message must not depend on
    # reading the words twice.
    with pytest.raises(ValueError, match="symbols in range\\(256\\), not 256"):
        spheres._pack(iter([(0, 1), (2, 256)]))
    with pytest.raises(ValueError, match="symbols in range\\(256\\), not -1"):
        spheres._pack(w for w in [(0, 1), (-1, 2)])
    assert spheres._pack(iter([(0, 1), (2, 255)])) == bytes([0, 1, 2, 255])
    with pytest.raises(ValueError, match="symbols in range\\(256\\), not 256"):
        spheres._first_meeting_pairs([[(0, 1), (1, 0)], [(2, 256), (256, 2)]], 2, 1)


def test_oracle_equivalence_exhaustive_small():
    for q in (2, 3, 4):
        for n in range(0, 7):
            for word in itertools.product(range(q), repeat=n):
                for s in range(0, min(n, 3) + 1):
                    assert sphere_members(word, s) == sphere_by_index_subsets(word, s)


@settings(max_examples=300, deadline=None)
@given(words_strategy(max_len=10), st.data())
def test_oracle_equivalence_random(word_q, data):
    # s runs up to the word length, so the kernel's deeper levels, which cut
    # only the lanes that may still lose a symbol, are checked too.
    word, _ = word_q
    s = data.draw(st.integers(min_value=0, max_value=len(word)))
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


@settings(max_examples=200, deadline=None)
@given(words_strategy(max_len=9), st.integers(min_value=0, max_value=3), st.data())
def test_deletion_commutes_with_symbol_permutation_and_reversal(word_q, s, data):
    # The lemma behind deciding one class per symmetry orbit (Levenshtein 1966):
    # D_s(pi(x)) = pi(D_s(x)) for every symbol permutation pi, and
    # D_s(reversed x) is D_s(x) with every member reversed.
    word, q = word_q
    s = min(s, len(word))
    pi = data.draw(st.permutations(range(q)))
    permuted = sphere_members(tuple(pi[x] for x in word), s)
    assert permuted == {tuple(pi[x] for x in member) for member in sphere_members(word, s)}
    reversed_sphere = sphere_members(word[::-1], s)
    assert reversed_sphere == {member[::-1] for member in sphere_members(word, s)}


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


def per_word_collisions(code, s):
    """The oracle of ``sphere_collisions``: the union of the words'
    index-subset spheres, each member shared by two or more words mapped to
    its owners in code order, members ascending."""
    owners = {}
    for w in code:
        for member in sphere_by_index_subsets(w, s):
            owners.setdefault(member, []).append(w)
    return {m: ws for m, ws in sorted(owners.items()) if len(ws) >= 2}


@st.composite
def classes(draw, max_words=40, max_len=10):
    """A sorted class of at most max_words distinct words of one length
    n <= max_len over Z_q, q <= 4, sometimes with one word holding symbol 255,
    and s in 0..3 or s = n."""
    q = draw(st.integers(2, 4))
    n = draw(st.integers(1, max_len))
    word = st.lists(st.integers(0, q - 1), min_size=n, max_size=n).map(tuple)
    code = set(draw(st.lists(word, max_size=max_words)))
    if code and draw(st.booleans()):
        w = list(code.pop())
        w[draw(st.integers(0, n - 1))] = 255
        code.add(tuple(w))
    s = draw(st.sampled_from(sorted({min(t, n) for t in range(4)} | {n})))
    return sorted(code), s


@settings(max_examples=200, deadline=None)
@given(classes())
def test_class_kernel_matches_the_per_word_spheres(code_s):
    code, s = code_s
    shared = sphere_collisions(code, s)
    # Equal as ordered item lists: members ascending, owners ascending.
    assert list(shared.items()) == list(per_word_collisions(code, s).items())


def test_class_kernel_edge_cases():
    for s in (0, 1, 3):
        assert sphere_collisions([], s) == {}
        assert sphere_collisions([(2, 0, 255)], s) == {}
    length_one = [(0,), (1,), (255,)]
    assert sphere_collisions(length_one, 0) == {}
    assert sphere_collisions(length_one, 1) == {(): length_one}
    assert list(sphere_collisions([(0, 0, 1), (0, 1, 0), (1, 0, 0)], 1)) == [(0, 0), (0, 1), (1, 0)]


@pytest.mark.parametrize("s", [1, 2])
def test_member_cap_bounds_what_the_kernel_holds(s, monkeypatch):
    # 1024 words whose spheres hold 512 (s = 1) and 256 (s = 2) distinct
    # members: the words go in chunks, so no level of the kernel expands more
    # than about cap members before the distinct count is checked.
    code = list(itertools.product(range(2), repeat=10))
    expanded = []
    real = spheres._delete_one_per_run

    def spy(*args):
        members, kept, after = real(*args)
        expanded.append(len(members))
        return members, kept, after

    monkeypatch.setattr(spheres, "_delete_one_per_run", spy)
    message = f"^\\d+ distinct s={s} sphere members exceed cap 100$"
    with pytest.raises(ResourceLimitError, match=message):
        sphere_collisions(code, s, cap=100)
    assert expanded and max(expanded) <= 100


@pytest.mark.parametrize("s", [1, 2])
def test_chunked_classes_give_the_unchunked_answer(s):
    # Z_2^6 holds exactly 2^(6 - s) distinct members, so a cap of that many
    # passes, while splitting the class into chunks of a few words.
    code = list(itertools.product(range(2), repeat=6))
    assert sphere_collisions(code, s, cap=2 ** (6 - s)) == sphere_collisions(code, s)
    with pytest.raises(ResourceLimitError, match=f"{2 ** (6 - s)} distinct"):
        sphere_collisions(code, s, cap=2 ** (6 - s) - 1)


def spy_on(patch, *names):
    """The arguments of every call of each named kernel of ``spheres``, which
    still runs."""
    calls = {name: [] for name in names}
    for name in names:
        real = getattr(spheres, name)
        spy = lambda *args, real=real, log=calls[name]: log.append(args) or real(*args)  # noqa: E731
        patch.setattr(spheres, name, spy)
    return calls


def test_owners_are_replayed_only_for_classes_that_collide(monkeypatch):
    calls = spy_on(monkeypatch, "_peel", "_owners")
    # Binary VT classes correct one deletion: their members are all distinct,
    # so each class is peeled once and no owner is built.
    for a in range(11):
        assert sphere_collisions(binary_vt_code(10, a), 1) == {}
    sphere_members((0, 1, 1, 0), 2)
    assert len(calls["_peel"]) == 12 and not calls["_owners"]
    # Z_2^6 collides at s = 1.  A cap of 32 takes chunks of 32 // 6 = 5 words:
    # each of the 13 is peeled once to count and once more to replay.
    code = list(itertools.product(range(2), repeat=6))
    for cap, step in ((spheres.DEFAULT_SPHERE_CAP, 64), (32, 5)):
        chunks = [range(i, min(i + step, 64)) for i in range(0, 64, step)]
        calls["_peel"].clear()
        calls["_owners"].clear()
        assert sphere_collisions(code, 1, cap) == per_word_collisions(code, 1)
        assert [args[3] for args in calls["_peel"]] == chunks * (1 if len(chunks) == 1 else 2)
        assert [args[1] for args in calls["_owners"]] == chunks


@settings(max_examples=150, deadline=None)
@given(classes(max_words=24, max_len=6))
def test_chunked_classes_match_the_per_word_spheres(code_s):
    # A cap of step * max C(n, t), t <= s, puts step words in each chunk, so
    # steps 1..k force k down to 1 chunks; the class passes exactly when its
    # distinct members fit the cap, and a colliding class replays its owners
    # once per chunk.
    code, s = code_s
    expected = list(per_word_collisions(code, s).items())
    distinct = len(set().union(*(sphere_by_index_subsets(w, s) for w in code)))
    per_word = max(comb(len(code[0]), t) for t in range(s + 1)) if code else 1
    for step in range(1, len(code) + 1):
        cap = step * per_word
        with pytest.MonkeyPatch.context() as patch:
            calls = spy_on(patch, "_owners")
            if distinct > cap:
                with pytest.raises(ResourceLimitError, match=f"distinct s={s} sphere members"):
                    sphere_collisions(code, s, cap)
                continue
            assert list(sphere_collisions(code, s, cap).items()) == expected
        assert len(calls["_owners"]) == (-(-len(code) // step) if expected else 0)


def test_sphere_collisions_rejects_mixed_lengths():
    with pytest.raises(ValueError, match="single word length"):
        sphere_collisions([(0, 1), (0, 1, 0)], 1)


@st.composite
def meeting_pairs(draw, max_len=10):
    """Two words of one length n <= max_len over Z_q, q <= 4, sometimes with
    symbol 255 in one of them, and any s at which their spheres meet."""
    q = draw(st.integers(2, 4))
    n = draw(st.integers(0, max_len))
    word = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    x, y = draw(word), tuple(draw(word))
    if n and draw(st.booleans()):
        x[draw(st.integers(0, n - 1))] = 255
    x = tuple(x)
    return x, y, draw(st.integers(n - lcs_length(x, y), n))


@settings(max_examples=300, deadline=None)
@given(meeting_pairs())
@example(((0, 1, 1, 0), (1, 0, 0, 1), 4))  # s = n: the witness is ()
@example(((255, 1, 0), (1, 0, 255), 1))
def test_least_common_member_is_the_least_shared_sphere_member(pair):
    x, y, s = pair
    shared = sphere_by_index_subsets(x, s) & sphere_by_index_subsets(y, s)
    assert spheres._least_common_member(x, y, s) == min(shared)


@st.composite
def class_chunks(draw):
    """Classes for one kernel call: 1 to 6 classes of 1 to 20 distinct sorted
    words each, all of one length n in 1..24 (lanes of 1, 2 and 3 bytes), over
    an alphabet of 1 to 4 symbols drawn from range(256), and any s in 0..n.
    Small alphabets make pairs meet; at s = 0 a class of a few words already
    lies past the route crossover, which only the kernel's callers apply."""
    n = draw(st.integers(1, 24))
    alphabet = draw(st.lists(st.integers(0, 255), min_size=1, max_size=4, unique=True))
    word = st.lists(st.sampled_from(alphabet), min_size=n, max_size=n).map(tuple)
    classes = st.lists(word, min_size=1, max_size=20, unique=True).map(sorted)
    return draw(st.lists(classes, min_size=1, max_size=6)), n, draw(st.integers(0, n))


#: At s = 1, 24 binary words of length 8 lie past the crossover, since
#: 23 * 8 > 40 * C(4, 1), and meet; two words lie before it.
_BOTH_SIDES = (
    [sorted(itertools.product((0, 1), repeat=8))[100:124], [(0,) * 8, (1, 1, 0, 0, 1, 0, 1, 0)]],
    8,
    1,
)


@settings(max_examples=200, deadline=None)
@given(class_chunks())
@example(_BOTH_SIDES)
@example(([[(255, 0, 255), (255, 255, 0)], [(7, 7, 7)]], 3, 1))
def test_lane_kernel_meets_the_scalar_first_pair_of_each_class(chunk):
    classes, n, s = chunk
    found = spheres._first_meeting_pairs(classes, n, s)
    assert found == [
        first_meeting_pair(bytes(itertools.chain.from_iterable(code)), n, s) for code in classes
    ]


def test_lane_kernel_counts_lanes_of_32_bytes_and_more():
    # From n = 248 on a lane spans 32 bytes or more, past what one multiply
    # can sum without carries; such lanes are counted one at a time.
    # The three words lie 2, 1 and 3 deletions apart, pair by pair.
    base = [i % 3 for i in range(260)]
    words = [tuple(base), (1, 1, 1, *base[3:]), (2, *base[:-1])]
    blob = bytes(itertools.chain.from_iterable(words))
    found = [spheres._first_meeting_pairs([words], 260, s)[0] for s in (0, 1, 2, 3, 259)]
    assert found == [first_meeting_pair(blob, 260, s) for s in (0, 1, 2, 3, 259)]
    assert found == [None, (0, 2), (0, 1), (0, 1), (0, 1)]


def test_both_sides_example_straddles_the_route_crossover():
    classes, n, s = _BOTH_SIDES
    bound = spheres._PAIRS_PER_MEMBER * comb((n + 1) // 2 + s - 1, s)
    assert [(len(code) - 1) * n > bound for code in classes] == [True, False]
    assert first_meeting_pair(bytes(itertools.chain.from_iterable(classes[0])), n, s)


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
        for s in (0, 1, 5):
            assert check_deletion_correcting(set(), s).ok
            assert check_deletion_correcting(set(), s, cap=0).ok

    def test_report_requires_witness_exactly_on_failure(self):
        from naisargik import CorrectionReport

        with pytest.raises(ValueError):
            CorrectionReport(ok=False, witness=None)
        with pytest.raises(ValueError):
            CorrectionReport(ok=True, witness=((0,), (1,), ()))


def hashed(code, s, monkeypatch):
    """Whether ``check_deletion_correcting`` decides ``code`` by hashing."""
    calls = []
    real = spheres._shared_members
    with monkeypatch.context() as patch:
        patch.setattr(
            spheres, "_shared_members", lambda *args: calls.append(args) or real(*args)
        )
        check_deletion_correcting(code, s)
    return bool(calls)


#: A class for each route of the check at s = 1 and 2: two words go by
#: pairwise LCS, all 64 binary words of length 6 by hashing sphere members.
ROUTE_CLASSES = {
    "pairs": [(0, 1, 0, 1, 1, 0), (1, 1, 0, 0, 1, 0)],
    "hashing": list(itertools.product(range(2), repeat=6)),
}


@pytest.mark.parametrize("route", sorted(ROUTE_CLASSES))
class TestBothRoutesKeepTheErrorContract:
    def test_class_takes_its_route(self, route, monkeypatch):
        for s in (1, 2):
            assert hashed(ROUTE_CLASSES[route], s, monkeypatch) == (route == "hashing")

    @pytest.mark.parametrize("s", [-1, 7])
    def test_s_out_of_range(self, route, s):
        with pytest.raises(ValueError, match=f"deletion count {s} out of range for length 6"):
            check_deletion_correcting(ROUTE_CLASSES[route], s)

    def test_symbol_beyond_a_byte(self, route):
        code = ROUTE_CLASSES[route][:-1] + [(0, 1, 0, 1, 256, 0)]
        with pytest.raises(ValueError, match="symbols in range\\(256\\), not 256"):
            check_deletion_correcting(code, 1)

    def test_mixed_lengths(self, route):
        with pytest.raises(ValueError, match="single word length"):
            check_deletion_correcting(ROUTE_CLASSES[route] + [(0, 1, 0)], 1)

    def test_sphere_cap(self, route):
        # One sphere at n = 6, s = 2 takes C(6, 2) = 15 index subsets.
        with pytest.raises(ResourceLimitError, match="length-6 word at s=2 exceeds cap 14"):
            check_deletion_correcting(ROUTE_CLASSES[route], 2, cap=14)

    def test_member_cap_binds_only_hashing(self, route):
        # Every sphere fits C(6, 1) = 6, but each class's spheres hold more
        # distinct members than that between them.
        code = ROUTE_CLASSES[route]
        with pytest.raises(ResourceLimitError, match="distinct s=1 sphere members exceed cap 6"):
            sphere_collisions(code, 1, cap=6)
        if route == "hashing":
            with pytest.raises(ResourceLimitError, match="distinct"):
                check_deletion_correcting(code, 1, cap=6)
        else:
            assert check_deletion_correcting(code, 1, cap=6) == check_deletion_correcting(code, 1)


def codebooks(max_words=40, max_len=8):
    """Random (code, s): 2 to max_words distinct words of one length
    n <= max_len over Z_q, q in {2, 3, 4}, and s <= min(3, n).  About a
    quarter of the draws are large enough to take the hashing route."""

    def build(q, n):
        word = st.lists(st.integers(0, q - 1), min_size=n, max_size=n).map(tuple)
        return st.tuples(
            st.lists(word, min_size=2, max_size=max_words, unique=True),
            st.integers(0, min(3, n)),
        )

    return st.tuples(st.integers(2, 4), st.integers(1, max_len)).flatmap(lambda qn: build(*qn))


@settings(max_examples=150, deadline=None)
@given(codebooks())
def test_report_matches_least_colliding_pair(code_s):
    code, s = code_s
    assert check_deletion_correcting(code, s) == oracle_report(code, s)


@settings(max_examples=150, deadline=None)
@given(codebooks())
def test_correction_iff_no_pair_has_a_long_common_subsequence(code_s):
    # Levenshtein (1966): two length-n words' t-deletion spheres meet exactly
    # when their LCS has length at least n - t.
    code, t = code_s
    close = any(
        lcs_length(x, y) >= len(x) - t for x, y in itertools.combinations(code, 2)
    )
    assert check_deletion_correcting(code, t).ok == (not close)


@settings(max_examples=150, deadline=None)
@given(codebooks())
def test_both_routes_report_the_same_witness(code_s):
    code, s = code_s
    reports = []
    real = spheres._shared_members
    # 0 sends every class of two or more words to hashing, and k * 8 keeps
    # it on pairs, since (k - 1) * n < k * 8 <= k * 8 * C(ceil(n/2) + s - 1, s).
    for per_member, hashes in ((0, True), (len(code) * 8, False)):
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spheres, "_PAIRS_PER_MEMBER", per_member)
            patch.setattr(
                spheres, "_shared_members", lambda *args: calls.append(args) or real(*args)
            )
            reports.append(check_deletion_correcting(code, s))
        assert bool(calls) == hashes
    assert reports[0] == reports[1] == oracle_report(code, s)


def test_hashing_route_case_largest_class_of_h_10_2_1(monkeypatch):
    classes = helberg_classes(10, 2, 1)
    code = max(classes.values(), key=len)
    assert len(code) == 94
    assert hashed(code, 1, monkeypatch)
    assert check_deletion_correcting(code, 1) == oracle_report(code, 1) == CorrectionReport(ok=True)


def test_pair_route_case_phi8_images_of_h_5_4_1(monkeypatch):
    classes = helberg_classes(5, 4, 1)
    code = [naisargik_map("phi8").apply(w) for w in classes[0]]
    assert len(code) == 4
    assert not hashed(code, 2, monkeypatch)
    report = check_deletion_correcting(code, 2)
    assert report == oracle_report(code, 2)
    assert report.witness == (
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
        (0, 1, 0, 0, 0, 0, 0, 0, 1, 0),
        (0, 0, 0, 0, 0, 0, 0, 0),
    )


@st.composite
def codebook_lists(draw):
    """1 to 5 codebooks of ``codebooks``, of mixed lengths, and one s that
    suits them all."""
    drawn = draw(st.lists(codebooks(max_words=12), min_size=1, max_size=5))
    return [code for code, _ in drawn], min(s for _, s in drawn)


@settings(max_examples=100, deadline=None)
@given(codebook_lists())
def test_check_codebooks_reports_each_codebook_as_the_oracle(codes_s):
    codes, s = codes_s
    assert check_codebooks(codes, s) == [oracle_report(code, s) for code in codes]


def test_cap_bounds_each_kernel_call_and_hashes_a_class_beyond_it(monkeypatch):
    # At n = 6 a pair holds 6 lane symbols, so a cap of 20 takes three
    # two-word classes per kernel call.  The five-word class lies before the
    # crossover, (5 - 1) * 6 being less than C(3, 1) times the factor, but its
    # ten pairs hold 60 symbols, so it hashes; its spheres hold fewer than 20
    # distinct members.
    pair = ROUTE_CLASSES["pairs"]
    steps = [(0,) * (6 - i) + (1,) * i for i in range(5)]
    codes = [pair] * 3 + [steps] + [pair] * 2
    assert (5 - 1) * 6 <= spheres._PAIRS_PER_MEMBER * comb(3, 1)
    calls, hashed = [], []
    kernel, members = spheres._first_meeting_pairs, spheres._shared_members
    monkeypatch.setattr(
        spheres,
        "_first_meeting_pairs",
        lambda codes, n, s: calls.append([len(c) for c in codes]) or kernel(codes, n, s),
    )
    monkeypatch.setattr(
        spheres, "_shared_members", lambda *args: hashed.append(args[0]) or members(*args)
    )
    assert check_codebooks(codes, 1, cap=20) == [oracle_report(code, 1) for code in codes]
    assert calls == [[2, 2, 2], [2, 2]]
    assert hashed == [steps]
