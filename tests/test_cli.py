import csv
import io
import json

import pytest

from naisargik.cli import main
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

    def test_guard_trips_exit_3(self, capsys):
        code, _ = run(capsys, "gen", "vt-binary", "--n", "20", "--a", "0", "--max-enum", "1000")
        assert code == 3

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
        assert "passed: yes" in out

    def test_conj2(self, capsys):
        code, out = run(capsys, "verify", "conj2", "--n", "4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["mapping"] == [[13, 33], [40, 12]]

    def test_reduction_reports_failure_with_witness(self, capsys):
        code, out = run(
            capsys, "verify", "reduction", "--n", "4", "--q", "4", "--s", "1",
            "--check-s", "2",
        )
        assert code == 1
        witness = json.loads(lines(out)[-1])
        assert witness["campaign"] == "reduction"
        assert "witness" in witness

    def test_torsion(self, capsys):
        code, out = run(capsys, "verify", "torsion", "--n", "4", "--q", "4", "--s", "1")
        assert code == 0

    def test_vt1(self, capsys):
        code, _ = run(capsys, "verify", "vt1", "--n", "6")
        assert code == 0

    def test_helberg_self(self, capsys):
        code, _ = run(capsys, "verify", "helberg-self", "--n", "5", "--q", "4", "--s", "2")
        assert code == 0

    def test_missing_parameter_is_usage_error(self, capsys):
        code, _ = run(capsys, "verify", "thm1", "--s", "1")
        assert code == 2

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

    def test_text_format_alignment(self, capsys):
        code, out = run(capsys, "tables", "table5", "--format", "text")
        assert code == 0
        assert lines(out)[0].startswith("residue")


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
