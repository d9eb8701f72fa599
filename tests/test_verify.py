import importlib.util
import json
import os
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

from naisargik import (
    DEFAULT_MAX_ENUM,
    VT_MAP_NAMES,
    all_bijections,
    equal_weight_scan,
    format_word,
    helberg_classes,
    helberg_code,
    moment,
    naisargik_map,
    parse_word,
    qary_vt_classes,
    qary_vt_residues,
    reduction_analysis,
    reduction_code,
    torsion_analysis,
    verify_helberg_self,
    verify_image_correction,
    verify_inverse_correction,
    verify_residue_bijection,
    verify_vt_correction,
    weight_sequence,
)
from naisargik import spheres
from naisargik import tables as tables_mod
from naisargik import verify as verify_mod
from naisargik.cli import CAMPAIGNS
from naisargik.verify import _scan_campaign, effective_workers
from conftest import (
    conj1_fails_by_insertions,
    direct_route,
    helberg_residue,
    insertion_failing_classes,
    oracle_report,
)
from golden import (
    HELBERG_4_4_1_13_IMAGES,
    HELBERG_4_4_1_40_IMAGES,
    HELBERG_10_2_2_66_INVERSE,
    HELBERG_5_4_1_134_IMAGES,
    RESIDUE_BIJECTION,
)

PHI9 = naisargik_map("phi9")


def test_image_code_golden_class_13():
    code = helberg_code(4, 4, 1, 13)
    expected = {parse_word(img, 2) for _, img in HELBERG_4_4_1_13_IMAGES}
    assert {PHI9.apply(w) for w in code} == expected


def test_image_code_golden_class_40():
    code = helberg_code(4, 4, 1, 40)
    expected = {parse_word(img, 2) for _, img in HELBERG_4_4_1_40_IMAGES}
    assert {PHI9.apply(w) for w in code} == expected


def test_image_code_preserves_cardinality():
    code = helberg_code(5, 4, 1, 134)
    assert len({PHI9.apply(w) for w in code}) == len(code)


def test_inverse_image_golden():
    code = helberg_code(10, 2, 2, 66)
    expected = {parse_word(w, 4) for _, w in HELBERG_10_2_2_66_INVERSE}
    inverse = {PHI9.invert(w) for w in code}
    assert inverse == expected
    assert (2, 3, 2, 1, 0) in inverse


def test_image_correction_4_1():
    result = verify_image_correction(4, 1)
    assert result.passed
    assert result.summary["max_codewords"] == 5
    assert result.summary["max_residues"] == [13, 40]
    assert result.params["check_s"] == 2


def test_image_correction_3_2():
    result = verify_image_correction(3, 2)
    assert result.passed
    assert result.summary["max_codewords"] == 2
    # 0 and 1 are joined by residue 2: all three classes reach the maximum.
    assert result.summary["max_residues"] == [0, 1, 2]


def test_image_correction_deterministic_across_workers():
    seq = verify_image_correction(4, 1, workers=1)
    par = verify_image_correction(4, 1, workers=3)
    assert seq == par


def test_inverse_correction_10_2():
    result = verify_inverse_correction(10, 2)
    assert result.passed
    assert result.summary["max_codewords"] == 8
    assert result.summary["max_residues"] == [66]
    assert result.params["check_s"] == 1


def test_inverse_correction_rejects_odd_length():
    with pytest.raises(ValueError):
        verify_inverse_correction(9, 2)


def test_image_residue_examples():
    w8 = weight_sequence(8, 2, 2)
    for a, expected in [(40, 12), (13, 33)]:
        for x in sorted(helberg_code(4, 4, 1, a)):
            assert moment(PHI9.apply(x), w8) % w8.modulus == expected
    w10 = weight_sequence(10, 2, 2)
    for x in sorted(helberg_code(5, 4, 1, 134)):
        assert moment(PHI9.apply(x), w10) % w10.modulus == 32


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_residue_bijection(n):
    result = verify_residue_bijection(n)
    assert result.passed
    assert tuple(tuple(pair) for pair in result.summary["mapping"]) == RESIDUE_BIJECTION[n]
    assert result.summary["all_classes_equal"]


def test_residue_bijection_images_match_binary_class():
    result = verify_residue_bijection(5)
    by_label = {cell.label: cell for cell in result.cells}
    cell = by_label["a=134"]
    assert cell.detail["image_residue"] == 32
    assert cell.detail["set_equal"]
    expected = {parse_word(img, 2) for _, img in HELBERG_5_4_1_134_IMAGES}
    code = helberg_code(5, 4, 1, 134)
    assert {PHI9.apply(w) for w in code} == expected


@pytest.mark.parametrize(
    "name, kwargs, n, a",
    [
        ("table10", {}, 4, 40),
        ("table11", {}, 5, 134),
        ("table10", {"n": 4, "a": 0}, 4, 0),
        ("table10", {"n": 4, "a": 6}, 4, 6),
    ],
    ids=["table10", "table11", "table10-a0", "table10-a6"],
)
def test_image_tables_match_codes_built_by_definition(name, kwargs, n, a):
    # The third column holds an image exactly when all images of the class
    # share one binary residue a' and the image lies in H(2n, 2, 2, a').
    table = getattr(tables_mod, name)(**kwargs)
    code = sorted(helberg_code(n, 4, 1, a))
    images = [PHI9.apply(w) for w in code]
    w2 = weight_sequence(2 * n, 2, 2)
    image_residues = {moment(img, w2) % w2.modulus for img in images}
    binary = set()
    if len(image_residues) == 1:
        binary = helberg_code(2 * n, 2, 2, image_residues.pop())
    expected = tuple(
        (format_word(w), format_word(img), format_word(img) if img in binary else "")
        for w, img in zip(code, images)
    )
    assert table.name == name
    assert table.headers == ("codeword", "image", "binary_codeword")
    assert table.rows == expected


@pytest.mark.parametrize("name, n, a", [("table10", 4, 40), ("table11", 5, 134)])
def test_image_tables_walk_only_the_asked_residue(name, n, a, monkeypatch):
    calls = []
    real = verify_mod.helberg_classes

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(verify_mod, "helberg_classes", spy)
    table = getattr(tables_mod, name)()
    assert calls == [(n, 4, 1, DEFAULT_MAX_ENUM, None, [range(a, a + 1)])]
    assert len(table.rows) == len(helberg_code(n, 4, 1, a))


def test_cardinality_comparison_recomputed():
    table = tables_mod.table7(range(2, 7))
    observed = [(int(r[3]), int(r[4])) for r in table.rows]
    assert observed == [(2, 2), (3, 3), (5, 5), (8, 7), (11, 11)]
    by_n = {int(r[0]): r for r in table.rows}
    assert Fraction(by_n[2][1]) == Fraction(65, 72)
    assert Fraction(by_n[4][2]) == Fraction(64, 3)
    assert float(Fraction(by_n[4][2])) == pytest.approx(64 / 3, rel=1e-12)


def test_reduction_analysis_mixed_pattern():
    result = reduction_analysis(4, 1, check_s=2)
    assert result.summary["mixed"]
    assert result.summary["passing_residues"] == 52
    assert result.summary["failing_residues"] == 69
    assert not result.passed
    failure = result.first_failure()
    assert failure is not None and "witness" in failure.detail


def test_reduction_analysis_singletons_pass():
    result = reduction_analysis(2, 1)
    for cell in result.cells:
        if cell.detail["reduced"] <= 1:
            assert cell.passed


def test_hashed_reduction_cells_carry_the_brute_force_witness(monkeypatch):
    # At (8, 1), 48 reduced classes of 22 to 26 binary words lie past the
    # route crossover, so their witnesses come from the hashing route; all
    # 48 fail.
    hashed = []
    real = spheres._shared_members
    monkeypatch.setattr(
        spheres, "_shared_members", lambda code, *args: hashed.append(code) or real(code, *args)
    )
    cells = {c.label: c for c in reduction_analysis(8, 1).cells}
    assert len(hashed) == 48
    hashed_codes = set(map(tuple, hashed))
    checked = 0
    for a, ws in helberg_classes(8, 4, 1)[1].items():
        code = sorted(reduction_code(frozenset(ws)))
        if tuple(code) in hashed_codes:
            x, y, shared = oracle_report(code, 1).witness
            witness = {"x": format_word(x), "y": format_word(y), "shared": format_word(shared)}
            assert not cells[f"a={a}"].passed
            assert cells[f"a={a}"].detail["witness"] == witness
            checked += 1
    assert checked == 48


def test_torsion_analysis_grid():
    for n in range(1, 6):
        for s in (1, 2):
            result = torsion_analysis(n, s)
            assert result.passed
            assert max(result.summary["torsion_sizes_seen"]) <= 1


def test_torsion_analysis_finds_the_zero_word():
    result = torsion_analysis(5, 1)
    by_label = {cell.label: cell for cell in result.cells}
    assert by_label["a=0"].detail["torsion"] == ["00000"]


@pytest.mark.parametrize(
    "campaign",
    [
        lambda workers: reduction_analysis(4, 1, check_s=2, workers=workers),
        lambda workers: torsion_analysis(5, 1, workers=workers),
    ],
    ids=["reduction", "torsion"],
)
def test_class_analyses_match_across_workers(monkeypatch, campaign):
    # Two CPUs, so workers=2 really starts a pool, whatever the host has.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    pools = []
    monkeypatch.setattr(
        verify_mod,
        "ProcessPoolExecutor",
        lambda max_workers: pools.append(max_workers) or ProcessPoolExecutor(max_workers),
    )
    assert campaign(2).to_dict() == campaign(1).to_dict()
    assert pools == [2]


def test_vt_correction_binary():
    for n in (4, 7):
        assert verify_vt_correction(n).passed


def test_vt_correction_qary():
    assert verify_vt_correction(4, q=4).passed


def test_helberg_self_correction():
    for n, q, s in [(5, 4, 2), (4, 4, 3), (10, 2, 3)]:
        assert verify_helberg_self(n, q, s).passed


def test_image_correction_full_grid():
    # Every residue of every quaternary codebook up to (n=6, s=3) maps to a
    # binary code correcting one extra deletion.
    for n in range(1, 7):
        for s in range(1, 4):
            assert verify_image_correction(n, s).passed, (n, s)


def test_inverse_correction_full_grid():
    # Inverse images over even binary lengths up to 12 and s in {2, 3, 4}.
    for n_bits in range(2, 13, 2):
        for s in (2, 3, 4):
            assert verify_inverse_correction(n_bits, s).passed, (n_bits, s)


def test_campaign_result_is_json_serializable():
    result = verify_image_correction(3, 1)
    payload = json.loads(json.dumps(result.to_dict()))
    assert payload["campaign"] == "image-correction"
    assert payload["passed"] is True
    assert payload["summary"]["max_codewords"] == 3
    assert payload["summary"]["max_residues"] == [0, 1, 13, 14]


@pytest.mark.parametrize(
    "requested,cells,cpus,expected",
    [
        (1, 9, 8, 1),
        (4, 9, 2, 2),
        (4, 3, 8, 3),
        (10**6, 9, 2, 2),
        (4, 9, None, 1),
        (4, 0, 8, 0),
    ],
)
def test_effective_workers_clamp(requested, cells, cpus, expected):
    assert effective_workers(requested, cells, cpus) == expected


# One class, or one conj1 map, is decided per symmetry orbit.  The tests below
# check each orbit rule of ``verify`` (``_complement``, ``_reverse_complement``,
# ``_map_orbit``) word for word, which campaigns pair their cells by them, and
# every such campaign against the direct route of ``conftest.direct_route``.

PERM7 = next(m for m in all_bijections() if m.name == "perm-7")


def _complement(word):
    return tuple(1 - b for b in word)


def _complement_orbit(n, q, s):
    """The orbit of a class of H(n, q, s, .) under ``verify._complement``: the
    lesser of its residue and its partner's."""
    m, c = verify_mod._complement(n, q, s)
    return lambda a: min(a, (c - a) % m)


def _assert_classes_pair(classes, orbit, transform):
    """``transform`` sends each class onto the other class of its orbit, or onto itself."""
    groups = {}
    for key in classes:
        groups.setdefault(orbit(key), []).append(key)
    assert all(len(keys) <= 2 for keys in groups.values())
    for keys in groups.values():
        for key in keys:
            partner = keys[-1] if key == keys[0] else keys[0]
            assert tuple(sorted(map(transform, classes[key]))) == classes[partner], key


@pytest.mark.parametrize("n, q, s", [(6, 2, 2), (9, 2, 3), (4, 3, 1), (4, 4, 2), (3, 5, 1)])
def test_helberg_classes_pair_by_complement(n, q, s):
    _, classes = helberg_classes(n, q, s)
    orbit = _complement_orbit(n, q, s)
    _assert_classes_pair(classes, orbit, lambda w: tuple(q - 1 - x for x in w))


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_binary_vt_classes_pair_by_complement(n):
    _, classes = helberg_classes(n, 2, 1)
    _assert_classes_pair(classes, _complement_orbit(n, 2, 1), _complement)


@pytest.mark.parametrize("n, q", [(1, 3), (2, 4), (5, 3), (4, 4), (3, 5)])
def test_qary_vt_classes_pair_by_reversed_complement(n, q):
    orbit = verify_mod._reverse_complement(n, q)
    reverse_complement = lambda w: tuple(q - 1 - x for x in reversed(w))  # noqa: E731
    _assert_classes_pair(qary_vt_classes(n, q), orbit, reverse_complement)


@pytest.mark.parametrize("smap", all_bijections(), ids=lambda m: m.name)
def test_inverse_classes_pair_by_bit_complement_under_every_map(smap):
    for n_bits, s in [(6, 2), (8, 3)]:
        _, classes = helberg_classes(n_bits, 2, s, smap=smap)
        orbit = _complement_orbit(n_bits, 2, s)
        _assert_classes_pair(classes, orbit, lambda w: smap.invert(_complement(smap.apply(w))))


#: The maps with smap(3 - x) = complement(smap(x)): x -> 3 - x complements
#: their images.
THM1_PAIRED_MAPS = {
    "phi9", "perm-0", "perm-2", "perm-7", "perm-10", "perm-13", "perm-16", "perm-23"
}


@pytest.mark.parametrize("smap", all_bijections(), ids=lambda m: m.name)
def test_image_classes_pair_by_complement_only_under_maps_that_commute_with_it(smap):
    for n, s in [(3, 1), (4, 2)]:
        commutes = verify_mod._complement_commutes(smap)
        assert commutes == (smap.name in THM1_PAIRED_MAPS)
        if commutes:
            orbit = _complement_orbit(n, 4, s)
            _assert_classes_pair(helberg_classes(n, 4, s, smap=smap)[1], orbit, _complement)


def test_conj1_maps_fall_into_two_orbits_of_the_named_maps():
    groups = {}
    for smap in all_bijections():
        groups.setdefault(verify_mod._map_orbit(smap), set()).add(smap.name)
    assert sorted(map(len, groups.values())) == [4] * 6
    named = {frozenset(g & set(VT_MAP_NAMES)) for g in groups.values()} - {frozenset()}
    assert named == {
        frozenset({"phi1", "phi2", "phi4", "phi7"}),
        frozenset({"phi3", "phi5", "phi6", "phi8"}),
    }


@pytest.mark.parametrize("n", [3, 4])
def test_conj1_maps_of_one_orbit_have_alike_image_classes(n):
    # Within an orbit, one map's image classes are another's under bit
    # complement, reversal, or both; each keeps sphere meetings and weight gaps.
    transforms = (
        lambda w: w,
        _complement,
        lambda w: w[::-1],
        lambda w: _complement(w[::-1]),
    )

    def classes(smap):
        return {frozenset(ws) for ws in qary_vt_classes(n, 4, smap=smap).values()}

    groups = {}
    for smap in all_bijections():
        groups.setdefault(verify_mod._map_orbit(smap), []).append(smap)
    for first, *rest in groups.values():
        base = classes(first)
        for smap in rest:
            mapped = classes(smap)
            assert any(
                mapped == {frozenset(map(t, c)) for c in base} for t in transforms
            ), (first.name, smap.name)


def _weight_parity_map(smap):
    """(wt(smap(x)) - x) mod 2 is one value for every symbol x."""
    return len({(sum(bits) - x) % 2 for x, bits in enumerate(smap.table)}) == 1


@pytest.mark.parametrize("n", [3, 4, 5])
def test_equal_weight_holds_exactly_under_the_parity_maps(n):
    # Under a parity map every image in a VT class has one weight parity, and
    # two images sharing a 1-deletion member differ in weight by at most one.
    parity = {m.name for m in all_bijections() if _weight_parity_map(m)}
    assert parity == set(VT_MAP_NAMES)
    passing = {m.name for m in all_bijections() if equal_weight_scan(n, m)[1] is None}
    assert passing == parity
    assert len(all_bijections()) - len(passing) == 16


@pytest.mark.parametrize("n", [3, 4, 5])
def test_equal_weight_holds_on_the_parity_classes_exactly_under_the_parity_maps(n):
    # The VT checksum plays no part: on the two classes of sum(X) mod 2 alone,
    # images sharing a 1-deletion member have equal weight exactly under the
    # 8 maps with (wt(smap(x)) - x) mod 2 constant.
    passing = {
        m.name
        for m in all_bijections()
        if not conj1_fails_by_insertions(m, n, key=lambda x: sum(x) % 2)
    }
    assert passing == {m.name for m in all_bijections() if _weight_parity_map(m)}
    assert len(passing) == 8


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_conj1_insertion_route_agrees_with_the_scan_under_every_map(n):
    for smap in all_bijections():
        fails = equal_weight_scan(n, smap)[1] is not None
        assert conj1_fails_by_insertions(smap, n) == fails, smap.name


def test_conj1_cells_agree_with_the_insertion_route():
    result = CAMPAIGNS["conj1"](n=5, maps="phi1..phi9", limit=DEFAULT_MAX_ENUM, workers=1)
    assert [c.label for c in result.cells] == [f"phi{i}" for i in range(1, 10)]
    assert [c.label for c in result.cells if not c.passed] == ["phi9"]
    for cell in result.cells:
        assert cell.passed != conj1_fails_by_insertions(naisargik_map(cell.label), 5), cell.label


_spec = importlib.util.spec_from_file_location(
    "run_campaigns", Path(__file__).resolve().parents[1] / "scripts" / "run_campaigns.py"
)
_run_campaigns = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_run_campaigns)

#: The benchmark's campaign invocations, as (campaign key, flags).
BENCHMARK_POINTS = [
    ("thm1", {"n": 7, "s": 1}),
    ("thm1", {"n": 7, "s": 2}),
    ("thm1", {"n": 7, "s": 1, "map": "phi8"}),
    ("thm2", {"n": 16, "s": 3}),
    ("thm2", {"n": 16, "s": 4}),
    ("helberg-self", {"n": 14, "q": 2, "s": 2}),
    ("conj1", {"n": 7}),
    ("vt1", {"n": 16}),
    ("vt1", {"n": 8, "q": 4}),
]

ORBIT_POINTS = [
    *(point for point in _run_campaigns.grid(True) if point[0] in ("thm1", "thm2", "conj1")),
    *BENCHMARK_POINTS,
    ("thm2", {"n": 10, "s": 2, "map": "phi8"}),
    ("helberg-self", {"n": 6, "q": 4, "s": 2}),
    ("helberg-self", {"n": 5, "q": 3, "s": 2}),
    ("vt1", {"n": 1, "q": 3}),
    ("vt1", {"n": 6, "q": 3}),
    ("vt1", {"n": 4, "q": 5}),
    ("vt1", {"n": 9}),
    ("conj1", {"n": 5, "maps": "phi1..phi9"}),
    ("conj1", {"n": 3, "maps": "phi9,phi1,phi9"}),
]


@pytest.mark.parametrize(
    "key, params",
    ORBIT_POINTS,
    ids=[" ".join([key, *(f"{k}={v}" for k, v in params.items())]) for key, params in ORBIT_POINTS],
)
def test_mirrored_cells_equal_the_direct_route(key, params):
    def run():
        return CAMPAIGNS[key](**params, limit=DEFAULT_MAX_ENUM, workers=1).to_dict()

    mirrored = run()
    with direct_route():
        assert run() == mirrored


def test_failing_orbits_report_the_direct_witnesses():
    # perm-7 commutes with x -> 3 - x, so its thm1 classes are paired, and 120
    # of its 140 cells at (5, 2) fail: each must carry its own least witness.
    assert verify_mod._complement_commutes(PERM7)
    mirrored = verify_image_correction(5, 2, PERM7)
    assert len(mirrored.cells) == 140
    assert sum(not c.passed for c in mirrored.cells) == 120
    with direct_route():
        assert verify_image_correction(5, 2, PERM7).to_dict() == mirrored.to_dict()


def _count_kernel_classes(monkeypatch):
    """The class sizes and word length of each kernel call, in order, from here on."""
    calls = []
    kernel = spheres._first_meeting_pairs
    monkeypatch.setattr(
        spheres,
        "_first_meeting_pairs",
        lambda codes, n, s: calls.append(([len(c) for c in codes], n)) or kernel(codes, n, s),
    )
    return calls


def test_orbit_campaigns_decide_one_cell_per_orbit(monkeypatch):
    # Every class of H(10, 2, 2) has at most 8 words, so all go by pairs:
    # one kernel call decides the first class of every orbit, and no other.
    calls = _count_kernel_classes(monkeypatch)
    result = verify_helberg_self(10, 2, 2)
    assert result.passed
    _, classes = helberg_classes(10, 2, 2)
    orbit = _complement_orbit(10, 2, 2)
    orbits = {orbit(a) for a, ws in classes.items() if len(ws) >= 2}
    assert len(calls) == 1
    assert len(calls[0][0]) == len(orbits) < len(result.cells)

    scans = []
    scan = verify_mod.equal_weight_scan
    monkeypatch.setattr(
        verify_mod,
        "equal_weight_scan",
        lambda n, smap, limit: scans.append(smap.name) or scan(n, smap, limit),
    )
    assert len(_scan_campaign(4, VT_MAP_NAMES, DEFAULT_MAX_ENUM, 1).cells) == 8
    assert scans == ["phi1", "phi3"]


#: Campaigns by whether they pair cells by a symmetry: (id, campaign, paired).
ORBIT_PAIRING = [
    *(
        (f"thm1 {m.name}", partial(verify_image_correction, 4, 1, m), m.name in THM1_PAIRED_MAPS)
        for m in all_bijections()
    ),
    *(
        (
            " ".join([key, *(f"{k}={v}" for k, v in params.items())]),
            partial(CAMPAIGNS[key], **params),
            paired,
        )
        for key, params, paired in [
            ("thm2", {"n": 8, "s": 2}, True),
            ("thm2", {"n": 8, "s": 3, "map": "phi8"}, True),
            ("vt1", {"n": 8}, True),
            ("vt1", {"n": 5, "q": 3}, True),
            ("vt1", {"n": 4, "q": 4}, True),
            ("helberg-self", {"n": 8, "q": 2, "s": 2}, True),
            ("helberg-self", {"n": 4, "q": 4, "s": 1}, True),
            ("conj1", {"n": 3}, True),
            ("reduction", {"n": 4, "s": 1}, False),
            ("torsion", {"n": 4, "s": 1}, False),
            ("conj2", {"n": 4}, False),
        ]
    ),
]


@pytest.mark.parametrize(
    "campaign, paired", [p[1:] for p in ORBIT_PAIRING], ids=[p[0] for p in ORBIT_PAIRING]
)
def test_paired_campaigns_hand_the_runner_fewer_orbits_than_cells(monkeypatch, campaign, paired):
    # A cell that does not pass through ``_run_orbits`` is its own orbit.
    handed = []
    run_orbits = verify_mod._run_orbits
    monkeypatch.setattr(
        verify_mod,
        "_run_orbits",
        lambda items, fn, workers, fill=None: handed.append(items)
        or run_orbits(items, fn, workers, fill),
    )
    cells = len(campaign(limit=DEFAULT_MAX_ENUM, workers=1).cells)
    routed = sum(map(len, handed))
    orbits = sum(len({orbit for orbit, _, _ in items}) for items in handed) + cells - routed
    assert 0 < orbits < cells if paired else 0 < orbits == cells


@pytest.mark.parametrize(
    "campaign, cap",
    [
        (lambda: verify_helberg_self(10, 2, 2), 300),
        (lambda: verify_image_correction(5, 2, PERM7), 120),
    ],
    ids=["helberg-self", "thm1-perm-7"],
)
def test_a_small_cap_splits_a_campaign_into_kernel_calls(monkeypatch, campaign, cap):
    # A cap of ``cap`` lane symbols (pairs times n) holds a few classes per
    # kernel call; the cells, witnesses included, do not change.  At the
    # default cap each round of these campaigns is one kernel call.
    expected = campaign().to_dict()
    calls = _count_kernel_classes(monkeypatch)
    campaign()
    rounds = len(calls)
    assert rounds <= 2
    calls.clear()
    check = verify_mod.check_codebooks
    monkeypatch.setattr(verify_mod, "check_codebooks", lambda codes, s: check(codes, s, cap))
    assert campaign().to_dict() == expected
    assert len(calls) > rounds
    assert all(sum(k * (k - 1) // 2 for k in sizes) * n <= cap for sizes, n in calls)


@pytest.mark.parametrize(
    "campaign, pools",
    [
        (lambda workers: verify_helberg_self(10, 2, 2, workers=workers), [2]),
        (lambda workers: verify_vt_correction(6, 4, workers=workers), [2]),
        (lambda workers: verify_image_correction(5, 2, PERM7, workers=workers), [2]),
        (lambda workers: _scan_campaign(4, VT_MAP_NAMES, DEFAULT_MAX_ENUM, workers), [2]),
    ],
    ids=["helberg-self", "vt1-q4", "thm1-perm-7", "conj1"],
)
def test_orbit_campaigns_match_across_workers(monkeypatch, campaign, pools):
    # A failing orbit decides its other cells in a second round, in the same pool.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    started = []
    monkeypatch.setattr(
        verify_mod,
        "ProcessPoolExecutor",
        lambda max_workers: started.append(max_workers) or ProcessPoolExecutor(max_workers),
    )
    assert campaign(2).to_dict() == campaign(1).to_dict()
    assert started == pools


def test_a_second_round_of_many_cells_opens_the_pool(monkeypatch):
    # One orbit of four: its failing first cell is decided in process, and
    # the other three, decided again, in the one pool of two workers.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    started = []
    monkeypatch.setattr(
        verify_mod,
        "ProcessPoolExecutor",
        lambda max_workers: started.append(max_workers) or ProcessPoolExecutor(max_workers),
    )
    items = [("phi9", label, (4, "phi9", DEFAULT_MAX_ENUM)) for label in "abcd"]
    runs = [verify_mod._run_orbits(items, verify_mod._equal_weight_batch, w) for w in (1, 2)]
    assert started == [2]
    assert runs[0] == runs[1]
    assert not any(cell.passed for cell in runs[1])


# A sphere-free second route for the correction campaigns: the classes that
# fail by t-insertion supersequences (``conftest.insertion_failing_classes``)
# are exactly the failing cells.  Images and preimages tile their word spaces,
# so every checked word has a class.

PHI8 = naisargik_map("phi8")


def _checked_words(key, params, smap):
    """The class key, length, deletion count and alphabet of the words a
    correction campaign checks."""
    n, s, q = params["n"], params.get("s", 1), params.get("q", 2 if key == "vt1" else 4)
    if key == "thm1":
        residue = helberg_residue(n, 4, s)
        return (lambda bits: residue(smap.invert(bits))), 2 * n, s + 1, 2
    if key == "thm2":
        residue = helberg_residue(n, 2, s)
        return (lambda x: residue(smap.apply(x))), n // 2, s // 2, 4
    if key == "helberg-self":
        return helberg_residue(n, q, s), n, s, q
    # The binary VT code is H(n, 2, 1); a q-ary class is keyed by its residue pair.
    return (helberg_residue(n, 2, 1) if q == 2 else lambda x: qary_vt_residues(x, q)), n, 1, q


_FAST_GRID = _run_campaigns.grid(True)
INSERTION_POINTS = [
    *((key, params, PHI9) for key, params in _FAST_GRID if key in ("thm1", "thm2")),
    *(("thm1", params, smap) for smap in (PHI8, PERM7) for key, params in _FAST_GRID if key == "thm1"),
    ("thm1", {"n": 5, "s": 1}, PHI8),
    ("thm1", {"n": 5, "s": 2}, PERM7),
    ("thm2", {"n": 10, "s": 2}, PHI8),
    ("thm2", {"n": 12, "s": 3}, PHI9),
    ("helberg-self", {"n": 6, "q": 4, "s": 2}, None),
    ("helberg-self", {"n": 5, "q": 3, "s": 2}, None),
    ("helberg-self", {"n": 10, "q": 2, "s": 2}, None),
    ("helberg-self", {"n": 8, "q": 2, "s": 3}, None),
    *(("vt1", {"n": n, "q": q}, None) for n, q in ((1, 3), (6, 3), (4, 5), (6, 4), (9, 2))),
]


@pytest.mark.parametrize(
    "key, params, smap",
    INSERTION_POINTS,
    ids=[
        " ".join([key, *(f"{k}={v}" for k, v in params.items()), *([smap.name] if smap else [])])
        for key, params, smap in INSERTION_POINTS
    ],
)
def test_failing_cells_equal_the_insertion_route(key, params, smap):
    if key in ("thm1", "thm2"):
        campaign = verify_image_correction if key == "thm1" else verify_inverse_correction
        result = campaign(params["n"], params["s"], smap)
    else:
        result = CAMPAIGNS[key](**params, limit=DEFAULT_MAX_ENUM, workers=1)
    failing = insertion_failing_classes(*_checked_words(key, params, smap))
    labels = {f"a={k[0]},b={k[1]}" if isinstance(k, tuple) else f"a={k}" for k in failing}
    assert labels == {c.label for c in result.cells if not c.passed}


def test_insertion_route_finds_failing_classes():
    # The route is not vacuous: phi8 and perm-7 images fail Theorem 1 here.
    for params, smap, count in [
        ({"n": 4, "s": 1}, PHI8, 77),
        ({"n": 5, "s": 1}, PHI8, 272),
        ({"n": 5, "s": 2}, PERM7, 120),
    ]:
        assert len(insertion_failing_classes(*_checked_words("thm1", params, smap))) == count
