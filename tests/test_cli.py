import hashlib
import random
import re
import subprocess
import sys
from dataclasses import replace

import pytest

from ellchain import (
    canonical_key,
    canonical_limit_series,
    construct,
    parse_series,
    serialize_series,
    theorem_threshold,
)
from ellchain import cli
from ellchain.cli import build_parser, main
from ellchain.stability import DestabilizingChain
from helpers import mutate_entry


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstruct:
    def test_writes_file_and_reports(self, capsys, tmp_path):
        out = tmp_path / "s.txt"
        code, stdout, _ = run_cli(capsys, "construct", "--g", "9", "--k", "4", "--out", str(out))
        assert code == 0
        assert "all checks passed" in stdout
        series = parse_series(out.read_text())
        assert series == construct(9, 4)

    def test_below_threshold_exit_3(self, capsys, tmp_path):
        code, _, stderr = run_cli(
            capsys, "construct", "--g", "4", "--k", "4", "--out", str(tmp_path / "x.txt")
        )
        assert code == 3
        assert "requires g >= 5" in stderr

    def test_genus3_k3_succeeds_with_note(self, capsys, tmp_path):
        out = tmp_path / "s33.txt"
        code, stdout, _ = run_cli(capsys, "construct", "--g", "3", "--k", "3", "--out", str(out))
        assert code == 0
        assert "external-construction" in stdout
        assert "all checks passed" in stdout

    def test_force_generates_below_threshold(self, capsys, tmp_path):
        out = tmp_path / "forced.txt"
        code, stdout, _ = run_cli(
            capsys, "construct", "--g", "4", "--k", "4", "--force", "--out", str(out)
        )
        assert code == 0
        assert "all checks passed" in stdout

    def test_force_at_genus_one_reports_the_twist(self, capsys):
        code, stdout, _ = run_cli(capsys, "construct", "--g", "1", "--k", "2", "--force")
        assert code == 2
        assert "FAIL  structure\n      twist 0 must be a positive integer\n" in stdout

    def test_text_format_names_the_indecomposable_component(self, capsys):
        code, stdout, _ = run_cli(capsys, "construct", "--g", "7", "--k", "3", "--format", "text")
        assert code == 0
        assert "component 3: indecomposable deg 12, marked (2,4)\n" in stdout

    def test_text_format(self, capsys, tmp_path):
        out = tmp_path / "t.txt"
        code, _, _ = run_cli(
            capsys, "construct", "--g", "5", "--k", "4", "--out", str(out), "--format", "text"
        )
        assert code == 0
        text = out.read_text()
        assert "component 1" in text and "free parameters" in text


class TestVerifyAndDim:
    @pytest.fixture
    def series_file(self, tmp_path):
        path = tmp_path / "s54.txt"
        path.write_text(serialize_series(construct(5, 4)))
        return path

    def test_verify_passes(self, capsys, series_file):
        code, stdout, _ = run_cli(capsys, "verify", str(series_file))
        assert code == 0
        assert "PASS  node-condition" in stdout

    def test_verify_corrupted_exit_2_names_condition(self, capsys, series_file):
        text = series_file.read_text().replace("  row 0 4\n  row 0 3", "  row 0 4\n  row 0 2", 1)
        series_file.write_text(text)
        code, stdout, _ = run_cli(capsys, "verify", str(series_file))
        assert code == 2
        assert "FAIL" in stdout

    def test_verify_names_the_component_of_an_edited_split(self, capsys, series_file):
        text = series_file.read_text()
        edited = text.replace("component 3 split 1 3 3 1", "component 3 split 1 4 3 1", 1)
        assert edited != text
        series_file.write_text(edited)
        code, stdout, _ = run_cli(capsys, "verify", str(series_file))
        assert code == 2
        assert stdout == (
            "PASS  structure\n"
            "PASS  monotonicity\n"
            "PASS  multiplicity\n"
            "PASS  admissibility\n"
            "FAIL  degree-condition\n"
            "      sum(d_i) - r*(M-1)*a = 41 - 2*4*4 != 8\n"
            "PASS  node-condition\n"
            "FAIL  determinacy\n"
            "      component 3: summand degree 5 > twist 4\n"
            "FAIL  canonical-determinant\n"
            "      component 3: determinant (4,5) != canonical (4,4)\n"
        )

    def test_verify_malformed_exit_4_with_line(self, capsys, series_file):
        series_file.write_text(series_file.read_text().replace("split", "splot", 1))
        code, _, stderr = run_cli(capsys, "verify", str(series_file))
        assert code == 4
        assert "line 3" in stderr

    @pytest.mark.parametrize("command", ["verify", "dim"])
    def test_empty_forced_field_exit_4_with_line(self, capsys, series_file, command):
        node = "node 1 matching 1 2 3 4 forced"
        series_file.write_text(series_file.read_text().replace(f"{node} -", node))
        code, stdout, stderr = run_cli(capsys, command, str(series_file))
        assert (code, stdout) == (4, "")
        assert "line 28: empty 'forced' field" in stderr

    @pytest.mark.parametrize("command", ["verify", "dim"])
    @pytest.mark.parametrize(
        "record", ["component 1 split -1 5 0 4 moduli 0", "component 1 indec 2 5 5 moduli 0"]
    )
    def test_bad_bundle_record_exit_4_with_line(self, capsys, series_file, command, record):
        text = series_file.read_text().replace("component 1 split 0 4 0 4 moduli 0", record, 1)
        series_file.write_text(text)
        code, stdout, stderr = run_cli(capsys, command, str(series_file))
        assert code == 4
        assert stdout == ""
        assert stderr.startswith("parse error: line 3: bad bundle record")

    @pytest.mark.parametrize("command", ["verify", "dim"])
    def test_wide_bundle_record_exit_4_with_one_short_line(self, capsys, series_file, command):
        # no bundle takes 3,000 coefficients; the message cuts their list
        # past its first 40 characters, so it stays one short line
        record = "component 1 split " + "1 " * 3000 + "moduli 0"
        text = series_file.read_text().replace("component 1 split 0 4 0 4 moduli 0", record, 1)
        series_file.write_text(text)
        code, stdout, stderr = run_cli(capsys, command, str(series_file))
        assert (code, stdout) == (4, "")
        assert stderr.startswith("parse error: line 3: bad bundle record 'split' [1, 1, 1")
        assert stderr.endswith("... (9000 characters)\n") and len(stderr) < 200
        assert stderr.count("\n") == 1

    @pytest.mark.skipif(
        not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
        reason="no int-string digit limit below 5,000 digits",
    )
    @pytest.mark.parametrize("command", ["verify", "dim"])
    def test_entry_past_the_digit_limit_exit_4_with_line(self, capsys, series_file, command):
        # int() refuses a string of more digits than the limit
        text = series_file.read_text().replace("  row 0 4", "  row " + "1" * 5000 + " 4", 1)
        series_file.write_text(text)
        code, stdout, stderr = run_cli(capsys, command, str(series_file))
        assert (code, stdout) == (4, "")
        assert stderr.startswith("parse error: line 4: expected integer u, got '111")
        # the message quotes the token's first 40 digits, so it stays one
        # short line
        assert stderr.endswith("'... (5000 characters)\n") and len(stderr) < 200

    @pytest.mark.parametrize(
        "row, char", [("row 0_0 4", "_"), ("row +0 4", "+"), ("row \u0660 4", "\u0660")],
        ids=["underscore", "plus-sign", "arabic-indic-zero"],
    )
    def test_non_ascii_integer_exit_4_with_line(self, capsys, series_file, row, char):
        # int() reads each of these as 0; the format writes none of them
        text = series_file.read_text(encoding="utf-8")
        series_file.write_text(text.replace("  row 0 4", "  " + row, 1), encoding="utf-8")
        code, stdout, stderr = run_cli(capsys, "verify", str(series_file))
        assert code == 4
        assert stdout == ""
        assert stderr.startswith(f"parse error: line 4: unexpected character {char!r}")

    @pytest.fixture
    def unforced_file(self, capsys, tmp_path):
        path = tmp_path / "s54.txt"
        code, _, _ = run_cli(capsys, "construct", "--g", "5", "--k", "4", "--out", str(path))
        assert code == 0
        path.write_text(re.sub(r"forced .*", "forced -", path.read_text()))
        return path

    def test_dim_catches_dropped_forced_pairs(self, capsys, unforced_file):
        code, stdout, _ = run_cli(capsys, "dim", str(unforced_file))
        assert code == 2
        assert "total 4 != rho 2" in stdout

    @pytest.mark.xfail(
        strict=True, reason="validate_all trusts forced pairs read from a file"
    )
    def test_verify_catches_dropped_forced_pairs(self, capsys, unforced_file):
        code, _, _ = run_cli(capsys, "verify", str(unforced_file))
        assert code == 2

    @pytest.mark.parametrize("command", ["verify", "dim"])
    @pytest.mark.parametrize(
        "forced, why",
        [
            ("1:2 1:1", "inconsistent forced directions: 1->1 conflicts with 1->2"),
            ("1:1 2:1", "inconsistent forced directions: 2->1 conflicts with 1->1"),
            ("1:2 1:2", "forced pair 1->2 listed twice"),
        ],
        ids=["one-direction-two-images", "two-directions-one-image", "pair-twice"],
    )
    def test_malformed_forced_pairs_exit_2(self, capsys, tmp_path, command, forced, why):
        # each edit parses, and every check but structure passes on it
        lines = serialize_series(construct(9, 4)).splitlines(keepends=True)
        assert lines[48] == "node 2 matching 1 2 3 4 forced 1:2 2:1\n"
        lines[48] = f"node 2 matching 1 2 3 4 forced {forced}\n"
        path = tmp_path / "s94.txt"
        path.write_text("".join(lines))
        code, stdout, stderr = run_cli(capsys, command, str(path))
        assert code == 2
        if command == "verify":
            assert stdout.startswith(f"FAIL  structure\n      node 2: {why}\n")
            assert stdout.count("FAIL") == 1
        else:
            assert stdout == ""
            assert stderr == "error: refusing unvalidated series (failing: structure)\n"

    def test_no_sections_is_refused(self, capsys, tmp_path):
        # with no rows and empty matchings every other check holds vacuously
        path = tmp_path / "s0.txt"
        path.write_text(
            "ellchain-series v1\n"
            "genus 2 rank 2 sections 0 degree 2 twist 1\n"
            "component 1 split 0 1 0 1 moduli 0\n"
            "component 2 split 1 0 1 0 moduli 0\n"
            "node 1 matching forced -\n"
        )
        code, stdout, _ = run_cli(capsys, "verify", str(path))
        assert code == 2
        assert "FAIL  structure\n      sections 0 must be a positive integer\n" in stdout
        assert stdout.count("FAIL") == 1
        code, stdout, stderr = run_cli(capsys, "dim", str(path))
        assert code == 2
        assert stdout == ""
        assert "refusing unvalidated series (failing: structure)" in stderr

    def test_dim_refuses_a_rank_one_series(self, capsys, tmp_path):
        path = tmp_path / "r1.txt"
        path.write_text(serialize_series(canonical_limit_series(5)))
        assert run_cli(capsys, "verify", str(path))[0] == 0
        assert run_cli(capsys, "dim", str(path)) == (
            2, "", "error: dimension ledger is defined for rank-two series\n"
        )

    def test_dim_matches_rho(self, capsys, series_file):
        code, stdout, _ = run_cli(capsys, "dim", str(series_file))
        assert code == 0
        assert "total 2 = rho 2" in stdout
        assert "gluing" in stdout and "stability" in stdout

    def test_round_trip_grid(self, capsys, tmp_path):
        for k in range(2, 9):
            g = theorem_threshold(k) + 1
            path = tmp_path / f"rt{g}_{k}.txt"
            code, _, _ = run_cli(
                capsys, "construct", "--g", str(g), "--k", str(k), "--out", str(path)
            )
            assert code == 0
            code, _, _ = run_cli(capsys, "verify", str(path))
            assert code == 0


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["verify", "{missing}"], 1, "error: "),
        (["dim", "{missing}"], 1, "error: "),
        (["verify", "{latin1}"], 4, "parse error: line 1: not UTF-8"),
        (["dim", "{latin1}"], 4, "parse error: line 1: not UTF-8"),
        (["verify", "{genus0}"], 4, "parse error: line 2: genus must be >= 1, got 0"),
        (["dim", "{genus0}"], 4, "parse error: line 2: genus must be >= 1, got 0"),
        (["construct", "--g", "9", "--k", "4", "--out", "{missing}/s.txt"], 1, "error: "),
        (
            ["sweep", "--g-min", "3", "--g-max", "4", "--k-min", "2", "--k-max", "3",
             "--out", "{missing}/s.csv"],
            1,
            "error: ",
        ),
        (["construct", "--g", "4", "--k", "4"], 3, "not constructed: "),
        (["construct", "--g", "3", "--k", "1"], 1, "error: "),
        (["search", "--g", "9", "--k", "2"], 1, "error: "),
        (["sweep", "--g-min", "5", "--g-max", "4", "--k-min", "2", "--k-max", "3"], 1,
         "error: empty sweep range"),
        (["sweep", "--g-min", "3", "--g-max", "4", "--k-min", "1", "--k-max", "3"], 1,
         "error: sweep needs k >= 2"),
    ],
    ids=["verify-missing", "dim-missing", "verify-latin1", "dim-latin1",
         "verify-genus0", "dim-genus0",
         "construct-out-missing-dir", "sweep-out-missing-dir",
         "construct-below-threshold", "construct-k1", "search-over-cap",
         "sweep-empty-range", "sweep-k1"],
)
def test_file_errors_end_in_exit_code(capsys, tmp_path, argv, code, message):
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes("ellchain-series v1 \u00e9\n".encode("latin-1"))
    genus0 = tmp_path / "genus0.txt"
    genus0.write_text("ellchain-series v1\ngenus 0 rank 2 sections 4 degree 8 twist 4\n")
    paths = {"missing": tmp_path / "missing", "latin1": latin1, "genus0": genus0}
    got, stdout, stderr = run_cli(capsys, *(a.format(**paths) for a in argv))
    assert got == code
    assert stdout == ""
    assert stderr.startswith(message)


def test_uncaught_value_error_is_one_error_line(capsys, tmp_path, monkeypatch):
    # main maps any ValueError a command raises to exit 1, not a traceback
    path = tmp_path / "s54.txt"
    path.write_text(serialize_series(construct(5, 4)))

    def boom(s):
        raise ValueError("boom")

    monkeypatch.setattr("ellchain.cli.validate_all", boom)
    assert run_cli(capsys, "verify", str(path)) == (1, "", "error: boom\n")


class TestSearch:
    def test_search_report(self, capsys):
        code, stdout, _ = run_cli(capsys, "search", "--g", "5", "--k", "4")
        assert code == 0
        assert "combinatorial solutions: 65" in stdout

    def test_search_cap_refused(self, capsys):
        code, _, stderr = run_cli(capsys, "search", "--g", "9", "--k", "2")
        assert code == 1
        assert "--cap" in stderr

    @pytest.mark.parametrize("g,k", [(4, 3), (8, 3)])
    def test_search_rank_one_below_k_equals_g_is_usage_error(self, capsys, g, k):
        code, stdout, stderr = run_cli(
            capsys, "search", "--r", "1", "--g", str(g), "--k", str(k)
        )
        assert code == 1
        assert stdout == ""
        assert stderr.startswith("error: ") and "k >= g" in stderr

    def test_search_rank_one_prefix_is_usage_error(self, capsys):
        code, stdout, stderr = run_cli(
            capsys, "search", "--r", "1", "--g", "2", "--k", "2", "--prefix", "1"
        )
        assert code == 1
        assert stdout == ""
        assert stderr.startswith("error: ") and "prefix" in stderr

    def test_search_negative_max_is_usage_error(self, capsys):
        code, stdout, stderr = run_cli(capsys, "search", "--g", "4", "--k", "2", "--max", "-1")
        assert code == 1
        assert stdout == ""
        assert stderr.startswith("error: ") and "-1" in stderr

    def test_search_too_deep_is_an_error_not_a_traceback(self, capsys):
        # a rank-1 search at g = 331 passes the default recursion limit and
        # fails within a few seconds: on CPython 3.11 the least such genus
        # is 330 from the command line, and lower under pytest, whose own
        # frames sit below the search
        code, stdout, stderr = run_cli(
            capsys, "search", "--r", "1", "--g", "331", "--k", "331", "--cap", "331"
        )
        assert code == 1
        assert stdout == ""
        assert stderr.startswith("error: ") and "too deep" in stderr
        assert "g=331" in stderr and "k=331" in stderr
        assert "Traceback" not in stderr

    def test_search_prefix(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "search", "--g", "7", "--k", "3", "--prefix", "2"
        )
        assert code == 0
        assert "prefix" in stdout

    def test_search_max_keeps_the_count_and_the_first_solutions(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "search", "--g", "5", "--k", "4", "--max", "3", "--show-solutions"
        )
        assert code == 0
        report, *blocks = stdout.split("---\n")
        assert report.splitlines()[0] == "combinatorial solutions: 65 (solution list truncated)"
        assert stdout.splitlines().count("---") == len(blocks) == 3
        _, stdout, _ = run_cli(capsys, "search", "--g", "5", "--k", "4", "--show-solutions")
        assert blocks == stdout.split("---\n")[1:4]

    def test_search_show_solutions(self, capsys):
        code, stdout, _ = run_cli(capsys, "search", "--g", "5", "--k", "4", "--show-solutions")
        assert code == 0
        report, *blocks = stdout.split("---\n")
        count = int(re.match(r"combinatorial solutions: (\d+)\n", report).group(1))
        assert stdout.splitlines().count("---") == len(blocks) == count == 65
        for block in blocks:
            assert canonical_key(parse_series(block)) == block


class TestSweep:
    def test_grid_row_count_and_invariant(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys,
            "sweep",
            "--g-min", "3", "--g-max", "12", "--k-min", "2", "--k-max", "6",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("g,k,rho_K")
        rows = lines[1:]
        assert len(rows) == 40
        for row in rows:
            fields = row.split(",")
            if fields[6] == "true":  # validated
                assert fields[8] == "true"  # ledger matches rho

    def test_byte_stability(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run_cli(
                capsys,
                "sweep",
                "--g-min", "3", "--g-max", "8", "--k-min", "2", "--k-max", "5",
                "--out", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_grid_csv_is_pinned(self, capsys):
        # the g 3..60 x k 2..12 CSV has stayed byte-identical since it was
        # first written; a change that moves it must say why
        code, stdout, _ = run_cli(
            capsys, "sweep", "--g-min", "3", "--g-max", "60", "--k-min", "2", "--k-max", "12"
        )
        assert code == 0
        assert hashlib.sha256(stdout.encode()).hexdigest() == (
            "ad40ad5f13d789f75ae0e66461caa83d06c0fbe285c8c0bb0c1b66b634b86264"
        )

    def test_unvalidated_cell_has_no_ledger(self, capsys, monkeypatch):
        # a series count_dimension refuses must read validated=false with
        # empty ledger columns; the certificate of k = 4 is refused too, so
        # the cell is priced directly
        monkeypatch.setattr(
            "ellchain.cli.construct", lambda g, k: mutate_entry(construct(g, k), 4, 0, "v", -1)
        )
        code, stdout, _ = run_cli(
            capsys, "sweep", "--g-min", "9", "--g-max", "9", "--k-min", "4", "--k-max", "4"
        )
        assert code == 0
        assert stdout.splitlines()[1].split(",")[6:] == ["false", "", "", ""]

    def test_fault_in_a_cell_is_an_error_not_an_unvalidated_row(self, capsys, monkeypatch):
        # only a ledger refusal reads validated=false; any other error is a
        # defect of the program and ends the sweep
        def faulty(series):
            raise ValueError("fault in the validator")

        monkeypatch.setattr("ellchain.cli.count_dimension", faulty)
        code, stdout, stderr = run_cli(
            capsys, "sweep", "--g-min", "9", "--g-max", "9", "--k-min", "4", "--k-max", "4"
        )
        assert (code, stdout, stderr) == (1, "", "error: fault in the validator\n")

    @staticmethod
    def _rows(capsys, g_min, g_max, k_max, k_min=2):
        code, stdout, _ = run_cli(
            capsys,
            "sweep", "--g-min", str(g_min), "--g-max", str(g_max), "--k-min", str(k_min),
            "--k-max", str(k_max),
        )
        assert code == 0
        return stdout.splitlines()[1:]

    def test_call_order_does_not_move_rows(self, capsys):
        # single-genus calls in any order, and overlapping bands, print the
        # rows of one full-grid call
        genera = range(3, 41)
        full = self._rows(capsys, 3, 40, 12)
        shuffled = random.Random(21).sample(genera, len(genera))
        for order in (genera, genera[::-1], shuffled):
            cli._certify.cache_clear()
            by_genus = {g: self._rows(capsys, g, g, 12) for g in order}
            assert [row for g in genera for row in by_genus[g]] == full
        cli._certify.cache_clear()
        rows = set()
        for g_min, g_max in ((3, 9), (10, 20), (3, 15), (21, 40)):
            rows.update(self._rows(capsys, g_min, g_max, 12))
        assert rows == set(full)

    @staticmethod
    def _count_direct(monkeypatch):
        """The (g, k) of every ``_direct`` call from now on, in call order."""
        calls = []
        original = cli._direct

        def counted(g, k):
            calls.append((g, k))
            return original(g, k)

        monkeypatch.setattr(cli, "_direct", counted)
        return calls

    def test_benchmark_grid_matches_the_direct_path(self, capsys, monkeypatch):
        # every row of the benchmark grid, read off the certificates, equals
        # the row of its cell priced from its own series
        argv = ("sweep", "--g-min", "3", "--g-max", "105", "--k-min", "2", "--k-max", "16")
        _, certified, _ = run_cli(capsys, *argv)
        # a refused base at the threshold sends every cell to the direct path
        direct = self._count_direct(monkeypatch)
        monkeypatch.setattr(cli, "_certify", lambda k: (None,))
        _, priced, _ = run_cli(capsys, *argv)
        validated = [row.split(",")[6] for row in certified.splitlines()[1:]].count("true")
        assert len(direct) == validated == 1208
        assert certified == priced
        assert hashlib.sha256(priced.encode()).hexdigest() == (
            "0c66854b1d8ef005e1f002bc0cdbbea3c2a2af4f6f94ad45be7d6007ac67735e"
        )

    def test_one_certificate_per_k(self, capsys, monkeypatch):
        # the benchmark grid in one call prices the threshold and the base
        # of each k directly, inside its certificate, and no other cell; a
        # second call makes no library call at all
        calls = dict.fromkeys(("construct", "count_dimension", "check_stable"), 0)
        for name in calls:
            original = getattr(cli, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(cli, name, counted)
        direct = self._count_direct(monkeypatch)
        argv = ("sweep", "--g-min", "3", "--g-max", "105", "--k-min", "2", "--k-max", "16")
        assert run_cli(capsys, *argv)[0] == 0
        bases = {k: theorem_threshold(k) + (k not in (2, 4)) for k in range(2, 17)}
        assert direct == [
            (g, k) for k, b in bases.items() for g in range(theorem_threshold(k), b + 1)
        ]
        # 28 cells priced directly, plus the threshold series of each of the
        # 15 k once more, to read its last component; the external cell (3, 3)
        # has no stability check
        expected = {"construct": 43, "count_dimension": 28, "check_stable": 27}
        assert len(direct) == 28 and calls == expected
        run_cli(capsys, *argv)
        assert len(direct) == 28 and calls == expected

    def test_certificate_reads_only_what_it_shows(self, capsys, monkeypatch):
        # the certificate of k is its cells from the threshold to the base
        assert cli._certify(2) == (cli._direct(3, 2),) == ((3, "stable"),)
        assert cli._certify(7) == (cli._direct(13, 7), cli._direct(14, 7))
        assert [len(cli._certify(k)) for k in range(2, 10)] == [1, 2, 1, 2, 2, 2, 2, 2]
        # the external cell is the threshold cell of k = 3, below its base
        assert cli._certify(3)[0] == cli._direct(3, 3) == (0, "external")
        assert self._rows(capsys, 3, 3, 3, 3) == ["3,3,0,0,true,false,true,0,true,external"]
        expected = self._rows(capsys, 13, 24, 7, 7)
        count_dimension, check_stable = cli.count_dimension, cli.check_stable

        def refuse_base(s):
            if s.genus == 14:
                raise cli.LedgerRefusal("refused")
            return count_dimension(s)

        def base_survivor(s):
            report = check_stable(s)
            if s.genus != 14:
                return report
            survivor = DestabilizingChain((), (), None)
            return replace(report, verdict="strictly-semistable", survivors=(survivor,))

        # a refused base, or one with a surviving chain, sends every cell
        # past it to the direct path; only the base is patched here, so the
        # cells past it price as before
        total = int(expected[1].split(",")[7])
        for name, patched, base in (
            ("count_dimension", refuse_base, None),
            ("check_stable", base_survivor, (total, "strictly-semistable")),
        ):
            with monkeypatch.context() as m:
                m.setattr(cli, name, patched)
                cli._certify.cache_clear()
                direct = self._count_direct(m)
                rows = self._rows(capsys, 13, 24, 7, 7)
                assert cli._certify(7)[1] == base
                assert rows[0] == expected[0] and rows[2:] == expected[2:]
                assert [g for g, _ in direct if g > 14] == list(range(15, 25))

    def test_sweep_far_past_the_base_constructs_only_up_to_it(self, capsys, monkeypatch):
        # a sweep at genus 2000 builds no series past the base of any k
        built = []
        original = cli.construct

        def counted(g, k):
            built.append((g, k))
            return original(g, k)

        monkeypatch.setattr(cli, "construct", counted)
        code, stdout, _ = run_cli(
            capsys, "sweep", "--g-min", "2000", "--g-max", "2000", "--k-min", "2", "--k-max", "31"
        )
        assert code == 0 and len(stdout.splitlines()) == 31
        assert {k for _, k in built} == set(range(2, 32))
        assert all(g <= theorem_threshold(k) + (k not in (2, 4)) for g, k in built)

    @pytest.mark.parametrize("g", [500, 1000])
    def test_far_genus_rows_match_the_direct_path(self, capsys, monkeypatch, g):
        ks = (2, 3, 4, 9, 16)
        ruled = [self._rows(capsys, g, g, k, k) for k in ks]
        monkeypatch.setattr(cli, "_certify", lambda k: (None,))
        assert ruled == [self._rows(capsys, g, g, k, k) for k in ks]

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_is_refused(self, capsys, workers):
        code, stdout, stderr = run_cli(
            capsys,
            "sweep", "--g-min", "5", "--g-max", "6", "--k-min", "2", "--k-max", "3",
            "--workers", workers,
        )
        assert (code, stdout, stderr) == (1, "", "error: --workers must be >= 1\n")

    def test_usage_error_exit_1(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys,
            "sweep",
            "--g-min", "5", "--g-max", "3", "--k-min", "2", "--k-max", "4",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1


class TestEntryPoint:
    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ellchain.cli", "bogus"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1

    def test_console_script_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ellchain.cli", "construct", "--g", "3", "--k", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "ellchain-series v1" in proc.stdout

    def test_one_parser_serves_many_calls(self, capsys):
        # main builds its parser once per process: every call in this
        # process prints and exits as the same call made first in a fresh
        # one, the search's wall time aside
        def masked(out):
            return re.sub(r"wall time: .*", "wall time: -", out)

        sweep = ("sweep", "--g-min", "3", "--g-max", "8", "--k-min", "2", "--k-max", "5")
        calls = [
            (*sweep, "--workers", "2"),
            ("search", "--g", "5", "--k", "four"),
            ("search", "--g", "5", "--k", "4"),
            sweep,
        ]
        codes = []
        for argv in calls:
            fresh = subprocess.run(
                [sys.executable, "-m", "ellchain.cli", *argv], capture_output=True, text=True
            )
            try:
                code = main(list(argv))
            except SystemExit as e:  # argparse ends a usage error here
                code = e.code
            out = masked(capsys.readouterr().out)
            assert (code, out) == (fresh.returncode, masked(fresh.stdout)), argv
            codes.append(code)
        assert codes == [0, 1, 0, 0]
        # each call gets a fresh namespace with its own command's defaults
        parser = build_parser()
        assert build_parser() is parser
        first, second = parser.parse_args(calls[0]), parser.parse_args(calls[2])
        assert (first.workers, second.workers) == (2, 1)
        assert not hasattr(second, "g_min")
        assert parser.parse_args(sweep).workers == 1
