import csv
import importlib.util
import io
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naisargik import cli as cli_mod
from naisargik.cli import CAMPAIGNS, TABLES, main
from naisargik import tables as tables_mod
from naisargik import verify as verify_mod
from naisargik import words as words_mod
from naisargik.tables import Table
from naisargik.verify import CampaignResult
from golden import HELBERG_4_4_1_13_IMAGES, VT_1_2_IMAGES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def lines(out):
    return out.splitlines()


class TestGen:
    def test_helberg_two_deletions(self, capsys):
        code, out = run(capsys, "gen", "helberg", "--n", "5", "--q", "4", "--s", "2", "--a", "0")
        assert code == 0
        assert lines(out) == ["00000", "10033", "23323"]

    def test_helberg_three_deletions(self, capsys):
        code, out = run(capsys, "gen", "helberg", "--n", "5", "--q", "4", "--s", "3", "--a", "0")
        assert code == 0
        assert lines(out) == ["00000", "10333"]

    def test_vt_qary(self, capsys):
        code, out = run(capsys, "gen", "vt-qary", "--n", "4", "--q", "4", "--a", "1", "--b", "2")
        assert code == 0
        assert lines(out) == sorted(w for w, _ in VT_1_2_IMAGES)

    def test_vt_binary(self, capsys):
        code, out = run(capsys, "gen", "vt-binary", "--n", "3", "--a", "0")
        assert code == 0
        assert lines(out) == ["000", "101"]

    def test_residue_out_of_range_is_usage_error(self, capsys):
        code, _ = run(capsys, "gen", "helberg", "--n", "4", "--q", "4", "--s", "1", "--a", "121")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("vt-binary", "--n", "3", "--a", "4"),
            ("vt-qary", "--n", "4", "--a", "4", "--b", "0"),
            ("vt-qary", "--n", "4", "--a", "0", "--b", "4"),
            ("helberg", "--n", "4", "--s", "1", "--a", "121"),
        ],
    )
    def test_residue_is_checked_before_the_guard(self, capsys, argv):
        # --max-enum 1 trips the guard (exit 3) on any scan, so exit 2 shows
        # that the residue was refused before enumeration.
        assert run(capsys, "gen", *argv, "--max-enum", "1") == (2, "")

    def test_guard_trips_exit_3(self, capsys):
        code, _ = run(capsys, "gen", "vt-binary", "--n", "20", "--a", "0", "--max-enum", "1000")
        assert code == 3

    def test_qary_alphabet_beyond_digits_is_usage_error(self, capsys):
        code, out = run(capsys, "gen", "vt-qary", "--n", "2", "--q", "12", "--a", "0", "--b", "0")
        assert code == 2
        assert out == ""

    def test_json_format(self, capsys):
        code, out = run(
            capsys, "gen", "helberg", "--n", "4", "--q", "4", "--s", "1", "--a", "13",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["codewords"] == sorted(w for w, _ in HELBERG_4_4_1_13_IMAGES)


class TestMap:
    def test_forward_inline(self, capsys):
        code, out = run(capsys, "map", "phi9", "forward", "0010")
        assert code == 0 and lines(out) == ["11110111"]

    def test_inverse_inline(self, capsys):
        code, out = run(capsys, "map", "phi9", "inverse", "0000100100")
        assert code == 0 and lines(out) == ["33213"]

    def test_empty_word(self, capsys):
        code, out = run(capsys, "map", "phi8", "forward", "")
        assert code == 0 and out == "\n"

    def test_stdin_round_trip(self, capsys, monkeypatch):
        originals = [w for w, _ in VT_1_2_IMAGES]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(originals) + "\n"))
        code, out = run(capsys, "map", "phi8", "forward")
        assert code == 0
        images = lines(out)
        assert images == [img for _, img in VT_1_2_IMAGES]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(images) + "\n"))
        code, out = run(capsys, "map", "phi8", "inverse")
        assert code == 0
        assert lines(out) == originals

    def test_input_file(self, capsys, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("0321\n1001\n")
        code, out = run(capsys, "map", "phi8", "forward", "--input", str(path))
        assert code == 0
        assert lines(out) == ["00101101", "01000001"]

    def test_unknown_map_is_usage_error(self, capsys):
        code, _ = run(capsys, "map", "phi12", "forward", "0")
        assert code == 2

    def test_inverse_odd_length_is_usage_error(self, capsys):
        code, _ = run(capsys, "map", "phi9", "inverse", "010")
        assert code == 2


class TestSphere:
    def test_binary_two_deletions(self, capsys):
        code, out = run(capsys, "sphere", "000101", "--s", "2")
        assert code == 0
        assert lines(out) == ["0000", "0001", "0010", "0011", "0101"]

    def test_quaternary_single_deletion(self, capsys):
        code, out = run(capsys, "sphere", "23210", "--s", "1")
        assert code == 0 and len(lines(out)) == 5

    def test_repeated_symbol(self, capsys):
        code, out = run(capsys, "sphere", "11", "--s", "1")
        assert code == 0 and lines(out) == ["1"]

    def test_s_too_large_is_usage_error(self, capsys):
        code, _ = run(capsys, "sphere", "101", "--s", "4")
        assert code == 2

    @pytest.mark.parametrize("q", ["0", "1"])
    def test_alphabet_below_two_is_usage_error(self, capsys, q):
        assert run(capsys, "sphere", "0110", "--s", "1", "--q", q) == (2, "")

    def test_non_digit_word_is_usage_error(self, capsys):
        assert main(["sphere", "01x", "--s", "1"]) == 2
        assert capsys.readouterr() == ("", "error: not a digit string: '01x'\n")

    def test_max_enum_caps_index_subsets(self, capsys):
        # C(4, 2) = 6 index subsets against a cap of 5.
        assert run(capsys, "sphere", "0101", "--s", "2", "--max-enum", "5") == (3, "")
        assert run(capsys, "sphere", "0101", "--s", "2", "--max-enum", "6")[0] == 0


class TestVerify:
    def test_thm1(self, capsys):
        code, out = run(capsys, "verify", "thm1", "--n", "4", "--s", "1")
        assert code == 0
        assert "max_codewords: 5" in out
        assert "max_residues: 13 40" in out

    def test_thm1_json(self, capsys):
        code, out = run(
            capsys, "verify", "thm1", "--n", "3", "--s", "1", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["summary"]["max_residues"] == [0, 1, 13, 14]

    def test_thm2(self, capsys):
        code, out = run(capsys, "verify", "thm2", "--n", "10", "--s", "2")
        assert code == 0
        assert "max_codewords: 8" in out

    def test_conj1(self, capsys):
        code, out = run(capsys, "verify", "conj1", "--n", "3")
        assert code == 0
        assert "params: n=3 maps=" + ",".join(f"phi{i}" for i in range(1, 9)) in out
        assert "passed: yes" in out

    def test_conj2(self, capsys):
        code, out = run(capsys, "verify", "conj2", "--n", "4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["mapping"] == [[13, 33], [40, 12]]

    def test_reduction_reports_failure_with_witness(self, capsys):
        code, out = run(
            capsys, "verify", "reduction", "--n", "4", "--s", "1", "--check-s", "2",
        )
        assert code == 1
        witness = json.loads(lines(out)[-1])
        assert witness["campaign"] == "reduction"
        assert "witness" in witness

    def test_torsion(self, capsys):
        code, out = run(capsys, "verify", "torsion", "--n", "4", "--s", "1")
        assert code == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ("reduction", "--n", "3", "--q", "8", "--s", "1"),
            ("torsion", "--n", "3", "--q", "2", "--s", "1"),
        ],
    )
    def test_quaternary_campaigns_do_not_take_q(self, capsys, argv):
        assert main(["verify", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "does not take --q" in captured.err

    def test_conj2_enumerates_only_the_quaternary_words(self, capsys, monkeypatch):
        # The binary class of each image follows from its residue and the
        # census, so Z_2^(2n) is never enumerated.  Z_4^5 itself is walked as
        # its 4^2 heads and 4^3 tails, each enumerated once.
        real = words_mod.iter_words
        pulled = []

        def spy(*args):
            for word in real(*args):
                pulled.append(len(word))
                yield word

        for name, module in list(sys.modules.items()):
            if name.startswith("naisargik") and hasattr(module, "iter_words"):
                monkeypatch.setattr(module, "iter_words", spy)
        code, out = run(capsys, "verify", "conj2", "--n", "5")
        assert code == 0 and "passed: yes" in out
        assert Counter(pulled) == {2: 4**2, 3: 4**3}

    def test_vt1(self, capsys):
        code, _ = run(capsys, "verify", "vt1", "--n", "6")
        assert code == 0

    def test_helberg_self(self, capsys):
        code, _ = run(capsys, "verify", "helberg-self", "--n", "5", "--q", "4", "--s", "2")
        assert code == 0

    def test_missing_parameter_is_usage_error(self, capsys):
        code, _ = run(capsys, "verify", "thm1", "--s", "1")
        assert code == 2

    def test_lemma(self, capsys):
        code, out = run(capsys, "verify", "lemma", "--n", "10", "--s", "2")
        assert code == 0
        assert lines(out) == [
            "campaign: coefficient-lemma",
            "params: n=10 q=4 s=2",
            "coefficients: 20",
            "cells checked: 3",
            "passed: yes",
        ]

    def test_lemma_failure_names_its_family(self, capsys):
        code, out = run(capsys, "verify", "lemma", "--n", "5", "--q", "2", "--s", "2")
        assert code == 1
        failure = json.loads(lines(out)[-1])
        assert failure["cell"] == "monotone"
        assert failure["violations"][0] == "C_3 <= C_2"

    @pytest.mark.parametrize(
        "argv,expected",
        [(("--n", "13", "--s", "1"), 3), (("--n", "3", "--s", "1", "--map", "phi9"), 2)],
    )
    def test_lemma_guard_and_flags(self, capsys, argv, expected):
        assert run(capsys, "verify", "lemma", *argv) == (expected, "")

    @pytest.mark.parametrize("maps", ["phi3..phi1", ",", ""])
    def test_empty_map_list_is_usage_error(self, capsys, maps):
        code, out = run(capsys, "verify", "conj1", "--n", "3", "--maps", maps)
        assert code == 2
        assert out == ""

    def test_unknown_map_in_a_long_range_stops_before_building_it(self, capsys):
        tracemalloc.start()
        try:
            code, out = run(capsys, "verify", "conj1", "--n", "3", "--maps", "phi1..phi1000000")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert peak < 1_000_000

    @pytest.mark.parametrize(
        "argv", [("conj1", "--n", "0"), ("vt1", "--n", "0", "--q", "4")]
    )
    def test_empty_vt_words_are_usage_errors(self, capsys, argv):
        code = main(["verify", *argv])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "residues need length >= 1" in captured.err

    def test_conj1_refuses_a_bad_n_before_any_worker_starts(self, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(verify_mod, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        for n, expected, message in [
            ("20", 3, "enumeration of 4^20 words exceeds the cap"),
            ("0", 2, "residues need length >= 1"),
        ]:
            code = main(["verify", "conj1", "--n", n, "--workers", "2"])
            captured = capsys.readouterr()
            assert (code, captured.out) == (expected, "")
            assert message in captured.err
        # A good n does reach the pool, so the refusals above came first.
        with pytest.raises(AssertionError, match="worker pool"):
            main(["verify", "conj1", "--n", "2", "--workers", "2"])

    def test_conj1_witness_is_alike_for_any_worker_count(self, capsys):
        argv = ("verify", "conj1", "--n", "3", "--maps", "phi9,phi1,phi8")
        for fmt in ("text", "json", "csv"):
            code, seq = run(capsys, *argv, "--format", fmt, "--workers", "1")
            assert code == 1
            assert json.loads(lines(seq)[-1])["cell"] == "phi9"
            assert run(capsys, *argv, "--format", fmt, "--workers", "2") == (code, seq)

    def test_alphabet_beyond_digits_is_usage_error(self, capsys):
        code, out = run(capsys, "verify", "vt1", "--n", "2", "--q", "11")
        assert code == 2
        assert out == ""

    def test_workers_do_not_change_output(self, capsys):
        _, seq = run(capsys, "verify", "thm1", "--n", "4", "--s", "1", "--format", "json")
        _, par = run(
            capsys, "verify", "thm1", "--n", "4", "--s", "1", "--format", "json",
            "--workers", "3",
        )
        assert seq == par


class TestTables:
    def parse_csv(self, out):
        return list(csv.reader(io.StringIO(out)))

    def test_table5(self, capsys):
        code, out = run(capsys, "tables", "table5")
        assert code == 0
        rows = self.parse_csv(out)
        assert rows[0] == ["residue", "count"]
        data = {int(a): int(c) for a, c in rows[1:]}
        assert data[13] == 5 and data[40] == 5 and data[0] == 4

    def test_table2_matches_golden(self, capsys):
        code, out = run(capsys, "tables", "table2")
        rows = self.parse_csv(out)
        assert code == 0
        assert rows[1:] == [[w, img] for w, img in VT_1_2_IMAGES]

    def test_table15_partition(self, capsys):
        code, out = run(capsys, "tables", "table15")
        rows = self.parse_csv(out)[1:]
        assert sum(int(c) for _, _, c in rows) == 256

    def test_table7_has_note_column(self, capsys):
        code, out = run(capsys, "tables", "table7", "--n", "2..4")
        rows = self.parse_csv(out)
        assert rows[0][-1] == "note"
        assert all(row[-1] == "recomputed" for row in rows[1:])

    def test_bounds_range(self, capsys):
        code, out = run(
            capsys, "tables", "bounds", "--n", "2..6", "--q", "4", "--s", "1"
        )
        rows = self.parse_csv(out)
        assert code == 0
        assert [r[0] for r in rows[1:]] == ["2", "3", "4", "5", "6"]
        assert rows[1][3] == "65/72"

    def test_bounds_beyond_float_range_is_usage_error(self, capsys):
        assert main(["tables", "bounds", "--n", "1200"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "overflows a float at n = 1200" in captured.err

    def test_bounds_rows_within_float_range_print(self, capsys):
        # n = 517 is the last length whose upper bound fits a float.
        code, out = run(capsys, "tables", "bounds", "--n", "517", "--format", "json")
        assert code == 0
        assert json.loads(out)["rows"][0]["upper_approx"] == "1.18687e+308"
        assert run(capsys, "tables", "bounds", "--n", "517..518") == (2, "")

    def test_range_is_not_materialised_before_the_guard(self, capsys):
        tracemalloc.start()
        try:
            code, out = run(
                capsys, "tables", "table7", "--n", "1..2000000", "--max-enum", "1000"
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3 and out == ""
        assert peak < 1_000_000

    @pytest.mark.parametrize(
        "argv",
        [
            ("table2", "--a", "9"),
            ("table9", "--n", "8", "--s", "1", "--a", "99"),
            ("table10", "--a", "999"),
            ("table10", "--n", "3"),
            ("table11", "--a", "-1"),
            ("table12", "--a", "121"),
            ("table13", "--a", "999"),
            ("table14", "--a", "4"),
            # --max-enum 1 trips the guard on any scan: the residue is refused first.
            ("table10", "--a", "999", "--max-enum", "1"),
        ],
    )
    def test_residue_out_of_range_is_usage_error(self, capsys, argv):
        code, out = run(capsys, "tables", *argv)
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (("tables", "table7", "--n", "1.."), "--n"),
            (("tables", "table7", "--n", "x"), "--n"),
            (("tables", "table7", "--n", "3..1"), "--n"),
            (("tables", "table5", "--n", "x"), "--n"),
            (("verify", "conj1", "--n", "3", "--maps", "phi3..phi1"), "--maps"),
            (("verify", "conj1", "--n", "3", "--maps", "phiX..phi2"), "--maps"),
        ],
    )
    def test_malformed_range_names_its_flag(self, capsys, argv, flag):
        assert main(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag in captured.err and "int()" not in captured.err

    @pytest.mark.parametrize("cap", [[], ["--max-enum", "1"]])
    def test_table9_refuses_odd_length_before_counting(self, capsys, cap):
        assert main(["tables", "table9", "--n", "21", "--s", "2", *cap]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "binary length must be even to invert the map" in captured.err

    def test_census_guard_trips_exit_3(self, capsys):
        code, out = run(capsys, "tables", "table5", "--n", "9", "--max-enum", "1000")
        assert code == 3
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ("table5", "--n", "0"),
            ("table5", "--q", "1"),
            ("table15", "--n", "0"),
            ("table15", "--q", "1"),
        ],
    )
    def test_census_domain_is_usage_error(self, capsys, argv):
        code, out = run(capsys, "tables", *argv)
        assert code == 2
        assert out == ""

    def test_unknown_table_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tables", "table4"])
        assert exc.value.code == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tables", "table5", "--b", "3"])
        assert exc.value.code == 2

    def test_text_format_alignment(self, capsys):
        code, out = run(capsys, "tables", "table5", "--format", "text")
        assert code == 0
        assert lines(out)[0].startswith("residue")


@settings(max_examples=300)
@given(st.lists(st.integers(-3, 300) | st.integers(0, 9), max_size=12).map(tuple))
def test_format_word_writes_each_symbol_in_decimal(word):
    assert words_mod.format_word(word) == "".join(str(sym) for sym in word)
    if all(0 <= sym < 10 for sym in word):
        assert words_mod.parse_word(words_mod.format_word(word), 10) == word


def test_gen_map_round_trip(capsys, tmp_path):
    _, out = run(capsys, "gen", "helberg", "--n", "4", "--q", "4", "--s", "1", "--a", "13")
    source = tmp_path / "code.txt"
    source.write_text(out)
    _, mapped = run(capsys, "map", "phi9", "forward", "--input", str(source))
    mapped_path = tmp_path / "mapped.txt"
    mapped_path.write_text(mapped)
    _, back = run(capsys, "map", "phi9", "inverse", "--input", str(mapped_path))
    assert back == out


def test_output_is_deterministic(capsys):
    _, first = run(capsys, "verify", "conj2", "--n", "3", "--format", "json")
    _, second = run(capsys, "verify", "conj2", "--n", "3", "--format", "json")
    assert first == second


class Writes(io.StringIO):
    """A stdout that keeps the length of every write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("verify", "thm1", "--n", "3", "--s", "1"), 0),
        (("verify", "reduction", "--n", "3", "--s", "1"), 1),
        (("gen", "helberg", "--n", "4", "--q", "4", "--s", "1", "--a", "13"), 0),
        (("tables", "table10"), 0),
    ],
)
def test_json_goes_out_in_batches_as_json_dumps_prints_it(capsys, monkeypatch, argv, expected):
    code, whole = run(capsys, *argv, "--format", "json")
    document, end = json.JSONDecoder().raw_decode(whole)
    assert code == expected
    assert whole[: end + 1] == json.dumps(document, indent=2) + "\n"
    monkeypatch.setattr(cli_mod, "_JSON_BATCH", 2)
    out = Writes()
    monkeypatch.setattr(sys, "stdout", out)
    assert main([*argv, "--format", "json"]) == expected
    assert out.getvalue() == whole
    assert max(out.sizes) < end / 4


#: One small invocation per registry entry and the exit code it must give.
CAMPAIGN_CASES = {
    "thm1": (("--n", "4", "--s", "1"), 0),
    "thm2": (("--n", "8", "--s", "3", "--map", "phi8"), 0),
    "conj1": (("--n", "3", "--maps", "phi1,phi8"), 0),
    "conj2": (("--n", "3"), 0),
    "reduction": (("--n", "3", "--s", "1"), 1),
    "torsion": (("--n", "3", "--s", "1"), 0),
    "vt1": (("--n", "5"), 0),
    "helberg-self": (("--n", "6", "--q", "2", "--s", "1"), 0),
    "lemma": (("--n", "10", "--s", "2"), 0),
}
TABLE_CASES = {
    "table2": (),
    "table3": (),
    "table5": ("--n", "3"),
    "table6": ("--n", "3..4"),
    "table7": ("--n", "2..3"),
    "table8": ("--n", "3..4", "--s", "1"),
    "table9": ("--n", "8", "--s", "1"),
    "table10": (),
    "table11": (),
    "table12": (),
    "table13": (),
    "table14": (),
    "table15": ("--n", "3", "--q", "3"),
    "bounds": ("--n", "2..3"),
}


def test_registry_cases_cover_every_key():
    assert list(CAMPAIGN_CASES) == list(CAMPAIGNS)
    assert list(TABLE_CASES) == list(TABLES)


@pytest.mark.parametrize(
    "argv, expected",
    [(("verify", key, *args), code) for key, (args, code) in CAMPAIGN_CASES.items()]
    + [(("tables", key, *args), 0) for key, args in TABLE_CASES.items()],
    ids=[f"verify-{key}" for key in CAMPAIGN_CASES] + [f"tables-{key}" for key in TABLE_CASES],
)
def test_registry_entry_runs_alike_for_any_worker_count(capsys, argv, expected):
    for fmt in ("text", "json", "csv"):
        code, seq = run(capsys, *argv, "--format", fmt, "--workers", "1")
        assert code == expected
        assert seq
        code, par = run(capsys, *argv, "--format", fmt, "--workers", "2")
        assert code == expected
        assert par == seq


@pytest.mark.parametrize(
    "argv,expected,message",
    [
        (("verify", "thm1", "--n", "8000", "--s", "1"), 3, "enumeration of 4^8000 words"),
        (("tables", "table7", "--n", "20000"), 3, "enumeration of 2^40000 words"),
        (("tables", "table10", "--n", "100000", "--a", "0"), 3, "enumeration of 4^100000"),
        (("tables", "bounds", "--n", "3000000"), 2, "overflows a float at n = 3000000"),
        (
            ("tables", "table13", "--n", "21", "--s", "2", "--a", "0", "--max-enum", "100"),
            2,
            "binary length must be even to invert the map",
        ),
    ],
)
def test_oversized_request_stops_before_big_integer_work(capsys, argv, expected, message):
    # Each guard fires before any weight, bound or power of q is built, so
    # the run stays small and the message prints no huge number.
    tracemalloc.start()
    try:
        code = main(list(argv))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert (code, captured.out) == (expected, "")
    assert message in captured.err
    assert peak < 5_000_000


@pytest.mark.parametrize(
    "argv",
    [
        ("tables", "table3", "--n", "5"),
        ("tables", "table5", "--n", "4..6"),
        ("tables", "table8", "--s", "2"),
        ("verify", "thm1", "--n", "3", "--s", "1", "--q", "2"),
        ("verify", "conj2", "--n", "3", "--map", "phi1"),
        ("gen", "vt-binary", "--n", "3", "--a", "0", "--s", "2"),
    ],
)
def test_flag_an_entry_does_not_take_is_usage_error(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 2
    assert out == ""


def test_registries_look_builders_up_at_call_time(capsys, monkeypatch):
    # A wrapper installed on the module after import must be the one that runs.
    calls = []
    _, table7 = run(capsys, "tables", "table7", "--n", "2..3")

    def fake_campaign(*args):
        calls.append("campaign")
        return CampaignResult("fake", {}, (), {})

    def fake_table(*args, **kwargs):
        calls.append("table")
        return Table("fake", ("h",), ())

    monkeypatch.setattr("naisargik.cli.verify_vt_correction", fake_campaign)
    monkeypatch.setattr("naisargik.tables.table3", fake_table)
    code, out = run(capsys, "verify", "vt1", "--n", "3")
    assert code == 0 and lines(out)[0] == "campaign: fake"
    assert run(capsys, "tables", "table3") == (0, "h\n")
    assert calls == ["campaign", "table"]

    # A wrapper that hides the builder's signature, as a tracer's does.
    original = tables_mod.table7

    def opaque(*args, **kwargs):
        calls.append("table7")
        return original(*args, **kwargs)

    monkeypatch.setattr("naisargik.tables.table7", opaque)
    assert run(capsys, "tables", "table7", "--n", "2..3") == (0, table7)
    assert calls[-1] == "table7"


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(SCRIPTS.parent / "src")}
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        check=True,
        capture_output=True,
        text=True,
        env=env,
    )


def test_make_tables_writes_every_registry_table(tmp_path):
    run_script("make_tables.py", "--out", str(tmp_path))
    names = sorted(path.name for path in tmp_path.iterdir())
    expected = ["bounds.csv"] + [f"table{i}.csv" for i in (2, 3, *range(5, 16))]
    assert names == sorted(expected)


def test_run_campaigns_fast_prints_each_grid_entry_then_the_table(capsys):
    spec = importlib.util.spec_from_file_location("run_campaigns", SCRIPTS / "run_campaigns.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    entries = script.grid(fast=True)
    out = run_script("run_campaigns.py", "--fast").stdout.splitlines()
    for line, (key, params) in zip(out, entries):
        fields = line.split()
        assert fields[: 1 + len(params)] == [key, *(f"{k}={v}" for k, v in params.items())]
        assert fields[1 + len(params)] == "pass"
    _, table = run(capsys, "tables", "table7", "--format", "text")
    assert out[len(entries) :] == [
        "",
        "cardinality comparison (recomputed):",
        *lines(table),
        "",
        "overall: all campaigns passed",
    ]
