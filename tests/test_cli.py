"""CLI: grammar parsing with positions, subcommand payloads, exit codes,
canonical JSON, and batch ordering."""

import hashlib
import json
import math
import random
import re
import string
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest

import superchab.bounds
import superchab.curve
import superchab.ratpoly
from superchab.cli import (
    CurveParseError,
    main,
    parse_curve_input,
    run,
)
from superchab.curve import MAX_DEGREE, HypothesisViolation
from superchab.geometry import MAX_PRIME
from superchab.padic import MAX_M, chabauty_prime


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    lines = [ln for ln in captured.out.splitlines() if ln]
    payloads = [json.loads(ln) for ln in lines]
    return code, payloads, captured


def _no_floats(value):
    if isinstance(value, float):
        return False
    if isinstance(value, dict):
        return all(_no_floats(v) for v in value.values())
    if isinstance(value, list):
        return all(_no_floats(v) for v in value)
    return True


class TestParser:
    def test_coefficient_form(self):
        cin = parse_curve_input("m=3; f=[1,0,0,0,1]")
        assert cin.m == 3
        assert cin.coefficients == [1, 0, 0, 0, 1]
        curve = cin.build_curve()
        assert curve.degree == 4

    def test_factored_form(self):
        cin = parse_curve_input("m=3; f=prod[(1,1),(-1,1),(7,1),(-7,1)]; c=1")
        curve = cin.build_curve()
        assert curve.degree == 4
        # (x-1)(x+1)(x-7)(x+7) = x^4 - 50x^2 + 49
        assert curve.f == [49, 0, -50, 0, 1]

    def test_rational_entries(self):
        cin = parse_curve_input("m=3; f=prod[(1/2,2)]; c=-3/5")
        curve = cin.build_curve()
        assert curve.leading_coefficient == Fraction(-3, 5)
        assert curve.evaluate_f(Fraction(1, 2)) == 0

    def test_multiplicity_hypothesis_named(self):
        with pytest.raises(CurveParseError, match="not < m"):
            parse_curve_input("m=3; f=prod[(1,3)]")

    def test_position_reported(self):
        with pytest.raises(CurveParseError) as err:
            parse_curve_input("m=3; f=[1,0,,1]")
        assert err.value.line == 1
        assert err.value.column == 13

    def test_multiline_position(self):
        with pytest.raises(CurveParseError) as err:
            parse_curve_input("m=3;\nf=[1,0,oops]")
        assert err.value.line == 2
        assert err.value.column == 8

    def test_trailing_garbage(self):
        with pytest.raises(CurveParseError, match="trailing"):
            parse_curve_input("m=3; f=[1,0,1] extra")

    def test_repeated_root(self):
        with pytest.raises(CurveParseError, match="repeated"):
            parse_curve_input("m=4; f=prod[(2,1),(2,1)]")

    def test_zero_denominator(self):
        with pytest.raises(CurveParseError, match="denominator"):
            parse_curve_input("m=3; f=[1/0]")

    @pytest.mark.parametrize("f", ["[1,2\u00b2]", "[1,\u0663]", "[\u0661,2]"])
    def test_only_ascii_digits(self, f, capsys):
        # a superscript two or an Arabic-Indic digit is not a digit of the
        # grammar: a parse error at its position, not int()'s ValueError
        # (exit 2) nor a silent read as 2 or 3
        with pytest.raises(CurveParseError):
            parse_curve_input(f"m=3; f={f}")
        code, payloads, _ = _run(capsys, ["genus", "--m", "3", "--f", f, "--json"])
        assert code == 3
        assert payloads[0]["error"].startswith("line 1, column ")

    def test_over_long_literal(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, payloads, _ = _run(
            capsys, ["genus", "--m", "3", "--f", f"[1,-{'7' * (limit + 1)}]", "--json"]
        )
        assert code == 3
        assert payloads[0]["error"] == (
            f"line 1, column 11: integer literal of {limit + 1} digits exceeds "
            f"the limit of {limit} digits"
        )
        # a literal at the limit is still read
        code, payloads, _ = _run(
            capsys, ["genus", "--m", "3", "--f", f"[1,{'7' * limit}]", "--json"]
        )
        assert code == 0
        assert payloads[0]["degree"] == 1


class TestSubcommands:
    def test_genus(self, capsys):
        code, payloads, _ = _run(capsys, ["genus", "--m", "3", "--f", "[1,0,0,0,1]"])
        assert code == 0
        assert payloads[0]["genus"] == 3
        assert payloads[0]["schema"] == 1

    def test_prime(self, capsys):
        code, payloads, _ = _run(capsys, ["prime", "--m", "5", "--json"])
        assert code == 0
        assert payloads[0]["prime"] == 11
        assert payloads[0]["cap"] == 15

    def test_bound_deg12(self, capsys):
        f = "[1" + ",0" * 11 + ",1]"
        code, payloads, _ = _run(
            capsys, ["bound", "--m", "3", "--f", f, "--rank", "0"]
        )
        assert code == 0
        payload = payloads[0]
        assert payload["theorem3_total"] == 378
        assert payload["prime"] == 7
        assert payload["sharp_total"] == 284
        assert payload["rank_source"] == "user-asserted"

    def test_bound_requires_rank(self, capsys):
        code, payloads, captured = _run(
            capsys, ["bound", "--m", "3", "--f", "[1,0,0,0,1]"]
        )
        assert code == 2
        assert "error" in payloads[0]
        assert "rank" in captured.err

    def test_bound_m2_reference(self, capsys):
        f = "[1" + ",0" * 7 + ",1]"
        code, payloads, _ = _run(capsys, ["bound", "--m", "2", "--f", f, "--rank", "0"])
        assert code == 0
        assert payloads[0]["reference_bound"] == 67
        assert payloads[0]["g"] == 3

    def test_search(self, capsys):
        code, payloads, _ = _run(
            capsys,
            ["search", "--m", "3", "--f", "[1,0,0,0,1]", "--height", "10", "--json"],
        )
        assert code == 0
        payload = payloads[0]
        assert payload["count"] == 1
        assert payload["points"] == [{"x": "0/1", "y": "1/1"}]
        assert payload["infinity_count"] == 1

    def test_verify(self, capsys):
        f = "[1" + ",0" * 11 + ",1]"
        code, payloads, _ = _run(
            capsys,
            ["verify", "--m", "3", "--f", f, "--rank", "0", "--height", "12"],
        )
        assert code == 0
        assert payloads[0]["satisfied"] is True
        assert payloads[0]["bound"] == 378

    def test_analyze_worked_curve(self, capsys):
        code, payloads, _ = _run(
            capsys,
            ["analyze", "--m", "3", "--f", "prod[(1,1),(-1,1),(7,1),(-7,1)]"],
        )
        assert code == 0
        payload = payloads[0]
        assert payload["prime"] == 7
        assert payload["annulus_count"] == 1
        annulus = payload["annuli"][0]
        assert annulus["status"] == "charts"
        assert annulus["verification_precision"] >= 10
        assert annulus["case"] == "rotation"

    def test_analyze_rejects_bad_prime(self, capsys):
        code, payloads, _ = _run(
            capsys,
            ["analyze", "--m", "3", "--f", "[1,0,0,0,1]", "--prime", "5"],
        )
        assert code == 2
        assert "1 mod 3" in payloads[0]["error"]

    def test_analyze_inert_branch_locus(self, capsys):
        # x^12 + 1 does not split over Q_7
        f = "[1" + ",0" * 11 + ",1]"
        code, payloads, _ = _run(capsys, ["analyze", "--m", "3", "--f", f])
        assert code == 2
        assert "split" in payloads[0]["error"]

    def test_analyze_precision_one_rejected(self, capsys):
        code, payloads, _ = _run(
            capsys,
            ["analyze", "--m", "3", "--f", "prod[(1,1),(-1,1),(7,1),(-7,1)]",
             "--precision", "1"],
        )
        assert code == 2
        assert "precision 2 or more" in payloads[0]["error"]

    def test_analyze_precision_limit(self, capsys):
        code, payloads, _ = _run(
            capsys,
            ["analyze", "--m", "3", "--f", "prod[(1,1),(-1,1),(7,1),(-7,1)]",
             "--precision", "1001", "--json"],
        )
        assert code == 2
        assert "exceeds the limit 1000" in payloads[0]["error"]

    def test_analyze_precision_two_certifies_one_digit(self, capsys):
        code, payloads, _ = _run(
            capsys,
            ["analyze", "--m", "3", "--f", "prod[(1,1),(-1,1),(7,1),(-7,1)]",
             "--precision", "2"],
        )
        assert code == 0
        assert payloads[0]["annuli"][0]["verification_precision"] == 1

    def test_failed_certificate_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(superchab.bounds, "annulus_point_bound", lambda *a: 10**9)
        code, payloads, _ = _run(
            capsys, ["bound", "--m", "3", "--f", F12, "--rank", "0", "--json"]
        )
        assert code == 4
        assert "exceeds the relaxed total" in payloads[0]["error"]

    def test_search_height_limit(self, capsys):
        code, payloads, _ = _run(
            capsys,
            ["search", "--m", "3", "--f", "[1,0,0,0,1]", "--height", "10001", "--json"],
        )
        assert code == 2
        assert "10000" in payloads[0]["error"]

    @pytest.mark.parametrize(
        "argv",
        [
            # the cap 2^phi(m) - 1 has more than 4300 digits
            ["prime", "--m", "14293"],
            # 2^phi(m) would have about 10^12 bits
            ["bound", "--rank", "0", "--m", "1000000000039", "--f", "[1,0,0,0,0,1]"],
            ["verify", "--rank", "0", "--m", "1000000000039", "--f", "[1,0,0,0,0,1]"],
            ["analyze", "--m", "14293", "--prime", "28587", "--f", "[1,0,0,0,0,1]"],
        ],
    )
    def test_m_limit(self, capsys, argv):
        start = time.process_time()
        code, payloads, captured = _run(capsys, argv)
        assert time.process_time() - start < 1.0
        assert code == 2
        assert f"MAX_M = {MAX_M}" in payloads[0]["error"]
        assert "Traceback" not in captured.err

    def test_m_at_the_limit(self, capsys):
        code, payloads, _ = _run(capsys, ["prime", "--m", str(MAX_M), "--json"])
        assert code == 0
        assert payloads[0]["prime"] == 70001
        assert payloads[0]["cap"] == 2 ** 4000 - 1

    def test_analyze_prime_limit(self, capsys):
        # 1000000000039 is prime and 1 mod 3: scanning its residues would take days
        start = time.process_time()
        code, payloads, captured = _run(
            capsys,
            ["analyze", "--m", "3", "--f", "prod[(1,1),(-1,1),(7,1),(-7,1)]",
             "--prime", "1000000000039", "--json"],
        )
        assert time.process_time() - start < 1.0
        assert code == 2
        assert f"MAX_PRIME = {MAX_PRIME}" in payloads[0]["error"]
        assert "Traceback" not in captured.err

    def test_prime_limit_admits_every_default_prime(self):
        assert max(chabauty_prime(m)[0] for m in range(2, MAX_M + 1)) <= MAX_PRIME

    def test_genus_and_search_take_any_m(self, capsys):
        m = "1000000000039"
        code, payloads, _ = _run(capsys, ["genus", "--m", m, "--f", "[1,0,0,0,0,1]", "--json"])
        assert code == 0
        code, payloads, _ = _run(
            capsys, ["search", "--m", m, "--f", "[1,0,1]", "--height", "3", "--json"]
        )
        assert code == 0
        assert payloads[0]["count"] == 1

    @pytest.mark.parametrize(
        "argv",
        [
            # 14 characters that expand to a degree-2000 product
            ["genus", "--m", "2001", "--f", "prod[(1,2000)]"],
            ["search", "--m", "3", "--f",
             "prod[" + ",".join(f"({k},1)" for k in range(MAX_DEGREE + 1)) + "]"],
            ["genus", "--m", "3", "--f", "[1" + ",0" * MAX_DEGREE + ",1]"],
            ["bound", "--rank", "0", "--m", "3", "--f", "[1" + ",0" * MAX_DEGREE + ",1]"],
        ],
    )
    def test_degree_limit(self, capsys, argv):
        start = time.process_time()
        code, payloads, captured = _run(capsys, argv)
        assert time.process_time() - start < 1.0
        assert code == 2
        assert f"MAX_DEGREE = {MAX_DEGREE}" in payloads[0]["error"]
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "f",
        [
            "[1" + ",0" * (MAX_DEGREE - 1) + ",1]",
            "prod[" + ",".join(f"({k},1)" for k in range(MAX_DEGREE)) + "]",
        ],
    )
    def test_degree_at_the_limit(self, capsys, f):
        code, payloads, _ = _run(capsys, ["genus", "--m", "3", "--f", f, "--json"])
        assert code == 0
        assert payloads[0]["degree"] == MAX_DEGREE

    @pytest.mark.parametrize(
        "argv",
        [
            ["genus", "--m", "4", "--f", "prod[(1,2),(2,2),(3,2)]"],
            ["bound", "--m", "4", "--rank", "0", "--f",
             "prod[(1,2),(2,2),(3,2),(4,2),(5,2),(6,2),(7,2),(8,2)]"],
            # (x^2 + 1)^2 as coefficients
            ["genus", "--m", "4", "--f", "[1,0,2,0,1]"],
            ["verify", "--m", "6", "--rank", "0", "--f", "prod[(1,2),(2,4),(3,2),(4,2)]"],
            ["analyze", "--m", "4", "--f", "prod[(1,2),(6,2),(31,2),(2,2)]"],
        ],
    )
    def test_reducible_cover_rejected(self, capsys, argv):
        # y^m = f(x) splits into gcd(m, n_1, ..., n_s) = 2 components
        code, payloads, captured = _run(capsys, argv)
        assert code == 2
        assert "not irreducible: gcd(m, branch multiplicities) = 2" in payloads[0]["error"]
        assert "genus" not in payloads[0]
        assert "Traceback" not in captured.err

    def test_reducible_cover_listed_with_other_violations(self):
        cin = parse_curve_input("m=4; f=prod[(1,2)]")
        cin.rank_claim = 0
        with pytest.raises(HypothesisViolation) as info:
            run("bound", cin)
        assert len(info.value.violations) == 2
        assert "not irreducible" in info.value.violations[0]
        assert "deg(f) = 2 is below 4" in info.value.violations[1]

    @pytest.mark.parametrize("command", ["bound", "genus", "verify"])
    def test_coefficient_input_decomposed_once(self, monkeypatch, command):
        calls = []
        original = superchab.ratpoly.squarefree_decomposition

        def counted(f):
            calls.append(f)
            return original(f)

        monkeypatch.setattr(superchab.ratpoly, "squarefree_decomposition", counted)
        cin = parse_curve_input(f"m=3; f={F12}")
        cin.rank_claim = 0
        run(command, cin)
        assert len(calls) == 1

    @pytest.mark.parametrize("command", ["bound", "verify"])
    def test_genus_evaluated_once(self, monkeypatch, command):
        calls = []
        original = superchab.curve.genus

        def counted(curve):
            calls.append(curve)
            return original(curve)

        for name, module in list(sys.modules.items()):
            if name.startswith("superchab") and getattr(module, "genus", None) is original:
                monkeypatch.setattr(module, "genus", counted)
        cin = parse_curve_input(f"m=3; f={F12}")
        cin.rank_claim = 0
        cin.height = 5
        run(command, cin)
        assert len(calls) == 1

    def test_irreducibility_tested_once(self, monkeypatch):
        """validate takes the irreducibility verdict from the genus it
        computes instead of testing it a second time."""
        calls = []
        original = superchab.curve._reducibility

        def counted(curve):
            calls.append(curve)
            return original(curve)

        monkeypatch.setattr(superchab.curve, "_reducibility", counted)
        cin = parse_curve_input(f"m=3; f={F12}")
        cin.rank_claim = 0
        run("bound", cin)
        assert len(calls) == 1

    def test_parse_error_exit_code(self, capsys):
        code, payloads, _ = _run(capsys, ["genus", "--m", "3", "--f", "[1,0,oops]"])
        assert code == 3
        assert "column" in payloads[0]["error"]

    def test_missing_flags(self, capsys):
        code = main(["genus"])
        captured = capsys.readouterr()
        assert code == 3
        assert "requires" in captured.err


class TestJsonDiscipline:
    def test_round_trip_byte_identical(self, capsys):
        for argv in (
            ["genus", "--m", "3", "--f", "[1,0,0,0,1]", "--json"],
            ["prime", "--m", "7", "--json"],
            [
                "bound",
                "--m",
                "3",
                "--f",
                "[1" + ",0" * 11 + ",1]",
                "--rank",
                "0",
                "--json",
            ],
            [
                "search",
                "--m",
                "2",
                "--f",
                "[1,0,0,0,0,0,1]",
                "--height",
                "6",
                "--json",
            ],
        ):
            code = main(argv)
            line = capsys.readouterr().out.strip()
            assert code == 0
            reparsed = json.dumps(
                json.loads(line), sort_keys=True, separators=(",", ":")
            )
            assert reparsed == line

    def test_no_floats_anywhere(self, capsys):
        code = main(
            [
                "verify",
                "--m",
                "3",
                "--f",
                "[1" + ",0" * 11 + ",1]",
                "--rank",
                "0",
                "--height",
                "8",
                "--json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert _no_floats(payload)


class TestBatch:
    def test_order_and_per_line_errors(self, tmp_path, capsys):
        batch = tmp_path / "curves.txt"
        batch.write_text(
            "m=3; f=[1,0,0,0,1]\n"
            "m=2; f=[1,0,0,0,0,0,1]\n"
            "m=3; f=prod[(1,3)]\n"
        )
        code, payloads, _ = _run(capsys, ["genus", "--batch", str(batch), "--json"])
        assert code == 3
        assert len(payloads) == 3
        assert payloads[0]["genus"] == 3
        assert payloads[1]["genus"] == 2
        assert "not < m" in payloads[2]["error"]

    def test_json_keeps_error_summaries(self, tmp_path, capsys):
        # as in single mode, --json drops the summaries of good lines only
        batch = tmp_path / "curves.txt"
        batch.write_text("m=3; f=[1,0,0,0,1]\nm=3; f=prod[(1,3)]\n")
        code, payloads, captured = _run(capsys, ["genus", "--batch", str(batch), "--json"])
        assert code == 3
        assert "genus" in payloads[0]
        assert captured.err == f"error: {payloads[1]['error']}\n"

    def test_errors_name_the_line_and_column_in_the_file(self, tmp_path, capsys):
        # a blank line still counts, and indentation shifts the column
        batch = tmp_path / "curves.txt"
        batch.write_text("m=3; f=[1,0,0,0,1]\n\n  m=3; f=[1,0,x]\n")
        code, payloads, _ = _run(capsys, ["genus", "--batch", str(batch), "--json"])
        assert code == 3
        assert payloads[0]["genus"] == 3
        assert payloads[1]["error"] == "line 3, column 15: expected an integer"

    def test_non_utf8_file(self, tmp_path, capsys):
        batch = tmp_path / "curves.txt"
        batch.write_bytes(b"\xff\xfe m=3; f=[1,2]\n")
        code, payloads, captured = _run(capsys, ["genus", "--batch", str(batch)])
        assert code == 3
        assert payloads == []
        assert captured.err.startswith("error: 'utf-8' codec can't decode byte 0xff")

    def test_lines_trimmed_of_grammar_whitespace_only(self, tmp_path, capsys):
        # an ideographic space or a next-line character at the end of a line
        # is input outside ASCII, as it is in single mode, not whitespace
        batch = tmp_path / "curves.txt"
        batch.write_text("m=3; f=[1,0,0,0,1] \t\r\n", encoding="utf-8")
        assert _run(capsys, ["genus", "--batch", str(batch), "--json"])[0] == 0
        for tail in ("\u3000", "\x85"):
            batch.write_text(f"m=3; f=[1,0,0,0,1]{tail}\n", encoding="utf-8")
            code, payloads, _ = _run(capsys, ["genus", "--batch", str(batch), "--json"])
            assert code == 3
            assert payloads[0]["error"] == "line 1, column 19: unexpected trailing input"

    def test_batch_search(self, tmp_path, capsys):
        batch = tmp_path / "curves.txt"
        batch.write_text("m=3; f=[1,0,0,0,1]\nm=2; f=[1,0,0,0,0,0,1]\n")
        code, payloads, _ = _run(
            capsys, ["search", "--batch", str(batch), "--height", "10", "--json"]
        )
        assert code == 0
        assert payloads[0]["count"] == 1
        assert payloads[1]["count"] == 2


# The curve texts of the README and of the parser tests, as --m and --f.
FUZZ_SEEDS = [
    (3, "[1,0,0,0,0,0,0,0,0,0,0,0,1]"),
    (3, "prod[(1,1),(-1,1),(7,1),(-7,1)]"),
    (3, "[1,0,0,0,1]"),
    (4, "[1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1]"),
    (3, "prod[(1/2,2)]; c=-3/5"),
]
FUZZ_ALPHABET = string.punctuation + string.digits + " \t" + "\u00b2\u0663\u00e9\x00"


class TestFuzz:
    """Seeded edits of valid curve texts through main, in single and batch
    mode: every run ends in exit 0, 2 or 3 with one JSON line per text, and
    a text the grammar cannot hold (a character outside ASCII, or an
    integer literal past Python's int-to-str limit) is a parse error."""

    @staticmethod
    def _edit(rng, text, alphabet):
        # half the new characters are digits, so that many edited texts
        # still parse and reach the commands
        for _ in range(rng.randint(1, 3)):
            at = rng.randint(0, len(text))
            new = rng.choice(string.digits if rng.random() < 0.5 else alphabet)
            kind = rng.randrange(3)
            if kind == 0:
                text = text[:at] + new + text[at:]
            elif kind == 1:
                text = text[:at] + text[at + 1:]
            else:
                text = text[:at] + new + text[at + 1:]
        return text

    @staticmethod
    def _splice_digits(rng, text, limit):
        at = rng.randint(0, len(text))
        run_ = "".join(rng.choice(string.digits) for _ in range(limit + rng.randint(1, 50)))
        return text[:at] + run_ + text[at:]

    @staticmethod
    def _unholdable(text, limit):
        return not text.isascii() or re.search(f"[0-9]{{{limit + 1}}}", text)

    def test_seeded_cli_fuzz(self, tmp_path, capsys):
        rng = random.Random(2026)
        limit = sys.get_int_max_str_digits()
        start = time.process_time()
        exits = Counter()
        unholdable = 0
        for i in range(400):
            command = rng.choice(("genus", "prime"))
            m, f = rng.choice(FUZZ_SEEDS)
            kind = i % 8
            if kind < 3:
                # single mode: --m stays valid, --f is edited
                f = self._edit(rng, f, FUZZ_ALPHABET + "\n")
                if kind == 2:
                    f = self._splice_digits(rng, f, limit)
                argv, text = [command, "--m", str(m), f"--f={f}"], f
            elif kind < 7:
                # batch mode: the whole text on one line is edited
                text = self._edit(rng, f"m={m}; f={f}", FUZZ_ALPHABET)
                if kind == 6:
                    text = self._splice_digits(rng, text, limit)
                batch = tmp_path / f"edit{i}.txt"
                batch.write_text(text + "\n", encoding="utf-8")
                argv = [command, "--batch", str(batch)]
            else:
                batch = tmp_path / f"bytes{i}.txt"
                if rng.random() < 0.5:
                    data = rng.randbytes(rng.randint(0, 120))
                else:
                    pieces = [c.encode() for c in string.printable + "\u00b2\u0663\u00e9"]
                    data = b"".join(rng.choice(pieces + [b"\xff", b"m=3; f=[1,0,1]\n"])
                                    for _ in range(rng.randint(0, 40)))
                batch.write_bytes(data)
                argv, text = [command, "--batch", str(batch)], None
            if rng.random() < 0.5:
                argv.append("--json")
            code = main(argv)
            out = capsys.readouterr().out
            exits[code] += 1
            assert code in (0, 2, 3), argv
            for line in out.splitlines():
                assert json.loads(line)["schema"] == 1, argv
            if text is not None and self._unholdable(text, limit):
                unholdable += 1
                assert code == 3, argv
        assert unholdable >= 100 and exits[0] >= 20
        assert time.process_time() - start < 5.0

    def test_seeded_fuzz_of_the_counting_commands(self, tmp_path, capsys):
        """bound, search and verify on edited curve texts, with --rank 0 to
        3 and --height 5, 10 or 20, in single and batch mode; a third of
        the texts take digit edits only, so that many reach the commands.
        analyze is left out: on valid curves with a root of negative
        valuation it exits 4 (ROADMAP item 11), which this test would have
        to forgive."""
        rng = random.Random(2222)
        start = time.process_time()
        exits = Counter()
        for i in range(600):
            command = rng.choice(("bound", "search", "verify"))
            m, f = rng.choice(FUZZ_SEEDS)
            alphabet = string.digits if i % 3 == 0 else FUZZ_ALPHABET
            options = ["--rank", str(rng.randint(0, 3)), "--height", str(rng.choice((5, 10, 20)))]
            if i % 2:
                f = self._edit(rng, f, alphabet)
                argv = [command, "--m", str(m), f"--f={f}", *options]
            else:
                batch = tmp_path / f"edit{i}.txt"
                batch.write_text(self._edit(rng, f"m={m}; f={f}", alphabet) + "\n",
                                 encoding="utf-8")
                argv = [command, "--batch", str(batch), *options]
            if rng.random() < 0.5:
                argv.append("--json")
            code = main(argv)
            out = capsys.readouterr().out
            exits[code] += 1
            assert code in (0, 2, 3), argv
            for line in out.splitlines():
                assert json.loads(line)["schema"] == 1, argv
        assert min(exits[0], exits[2], exits[3]) >= 30, exits
        assert time.process_time() - start < 5.0


F12 = "[1" + ",0" * 11 + ",1]"
F16 = "[1" + ",0" * 15 + ",1]"
INERT_ERROR = (
    "branch locus does not split over Q_7; chart analysis is unavailable there "
    "(the bounds themselves remain valid)"
)


class TestGolden:
    """Exact stdout, stderr and exit code of the README examples and of a
    mixed analyze batch, so that refactors keep every byte."""

    @pytest.mark.parametrize(
        "argv, code, out, err",
        [
            (
                ["bound", "--m", "3", "--f", F12, "--rank", "0", "--json"],
                0,
                '{"annulus_bound":140,"command":"bound","degree":12,"disc_bound":144,'
                '"e":1,"g":10,"m":3,"mu":"6/5","prime":7,"r":0,"rank_ok":true,'
                '"rank_source":"user-asserted","schema":1,"sharp_total":284,'
                '"small_prime_warning":true,"theorem3_total":378}\n',
                "",
            ),
            (
                ["analyze", "--m", "3", "--f", "prod[(1,1),(-1,1),(7,1),(-7,1)]"],
                0,
                '{"annuli":[{"case":"rotation","center":"0","charts":1,"d":1,'
                '"detail":"","interval":[0,1],"power_tests":{"d_th_power(Q0)":"trivial",'
                '"m_th_power(Q0*U^k0)":"True"},"status":"charts","theta_0_count":2,'
                '"verification_precision":10}],"annulus_count":1,'
                '"command":"analyze","m":3,"precision":20,"prime":7,"schema":1}\n',
                "1 annulus orbit(s) analyzed at prime 7\n",
            ),
            (
                ["search", "--m", "3", "--f", "[1,0,0,0,1]", "--height", "10"],
                0,
                '{"command":"search","count":1,"f":["1/1","0/1","0/1","0/1","1/1"],'
                '"height":10,"infinity_count":1,"m":3,'
                '"points":[{"x":"0/1","y":"1/1"}],"schema":1}\n',
                "1 affine point(s) up to height 10 (+1 at infinity)\n",
            ),
            (
                ["verify", "--m", "4", "--f", F16, "--rank", "0"],
                0,
                '{"bound":744,"command":"verify","count":2,"height":50,'
                '"infinity_count":2,"m":4,'
                '"points":[{"x":"0/1","y":"-1/1"},{"x":"0/1","y":"1/1"}],"r":0,'
                '"rank_source":"user-asserted","satisfied":true,"schema":1}\n',
                "bound 744 vs observed 4: satisfied\n",
            ),
        ],
        ids=["bound", "analyze", "search", "verify"],
    )
    def test_readme_examples(self, capsys, argv, code, out, err):
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == out
        assert captured.err == err

    @pytest.mark.parametrize(
        "precision, digest",
        [
            ("20", "b68559fa291843fb6e94805a4ebdc1bd97a342b50fbb5d764c07be7a4ab1f28f"),
            ("40", "4ef1490d9341a21907bb2361e62cc3bd7887c3046b631f370e22035d3eed2caf"),
            ("80", "8b50efce7715b9146d7799e10fc25723c87256346a79c1ab8bb232f39e8c3c17"),
        ],
        ids=["precision20", "precision40", "precision80"],
    )
    def test_nested_cubic_analyze(self, capsys, precision, digest):
        # the nested 12-root cubic of the README timings: nine annulus
        # orbits, every chart through the series kernel and branch factors
        f = "prod[" + ",".join(f"({a},1)" for a in (1, 8, 50, 344, 2, 9, 51, 345, 3, 10, 52, 346)) + "]"
        assert main(["analyze", "--m", "3", "--f", f, "--precision", precision]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_seeded_analyze_corpus(self, capsys):
        # twenty curves, m = 2 to 6 at the default primes: two or three
        # residue classes of roots, each nested down to p^3, some roots of
        # multiplicity above 1; their annuli are rotations and splits, with
        # charts or with no points
        rng = random.Random(2025)
        start = time.process_time()
        out, seen = [], Counter()
        for i in range(20):
            m = 2 + i % 5
            p = chabauty_prime(m)[0]
            roots = []
            for b in rng.sample(range(p), rng.randint(2, 3)):
                c1, c2, k = rng.randint(1, p - 1), rng.randint(1, p - 1), rng.randint(1, 2)
                members = [b, b + p**k * c1, b + p**k * c1 + p ** (k + 1) * c2][: rng.randint(1, 3)]
                roots += [(r, rng.randint(1, m - 1) if rng.random() < 0.3 else 1) for r in members]
            if math.gcd(m, *(n for _, n in roots)) > 1:
                roots[0] = (roots[0][0], 1)
            f = "prod[" + ",".join(f"({r},{n})" for r, n in roots) + "]"
            assert main(["analyze", "--m", str(m), "--f", f]) == 0
            text = capsys.readouterr().out
            out.append(text)
            seen["repeated root"] += any(n > 1 for _, n in roots)
            for a in json.loads(text)["annuli"]:
                seen[a["case"], a["status"]] += 1
                seen["nested"] += a["interval"][0] > 0
        assert time.process_time() - start < 3.0
        assert min(seen.values()) >= 5, seen
        digest = hashlib.sha256("".join(out).encode()).hexdigest()
        assert digest == "e40ebe260ff9be4ca726b002bb1e97c5401801619a46fdfc59f6b7e939adcdbd"

    def test_analyze_batch(self, tmp_path, capsys):
        batch = tmp_path / "curves.txt"
        batch.write_text(
            "m=3; f=prod[(1,1),(8,1),(50,1),(2,1),(3,1)]\n"
            "m=3; f=" + F12 + "\n"
            "m=3; f=[1,0,oops]\n"
        )
        assert main(["analyze", "--batch", str(batch)]) == 2
        captured = capsys.readouterr()
        assert captured.out == (
            '{"annuli":[{"case":"split","center":"1","charts":0,"d":3,'
            '"detail":"scale constant is not a d-th power: no rational points over '
            'this annulus","interval":[0,1],"power_tests":{"d_th_power(Q0)":"False"},'
            '"status":"no_points","theta_0_count":3,"verification_precision":null},'
            '{"case":"rotation","center":"1","charts":1,"d":1,"detail":"",'
            '"interval":[1,2],"power_tests":{"d_th_power(Q0)":"trivial",'
            '"m_th_power(Q0*U^k0)":"True"},"status":"charts","theta_0_count":2,'
            '"verification_precision":10}],"annulus_count":2,"command":"analyze",'
            '"m":3,"precision":20,"prime":7,"schema":1}\n'
            '{"command":"analyze","error":"' + INERT_ERROR + '","schema":1}\n'
            '{"command":"analyze","error":"line 3, column 13: expected an integer",'
            '"schema":1}\n'
        )
        assert captured.err == (
            "2 annulus orbit(s) analyzed at prime 7\n"
            "error: " + INERT_ERROR + "\n"
            "error: line 3, column 13: expected an integer\n"
        )
