"""Command-line front end for the pipeline.

Subcommands: genus, prime, bound, analyze, search, verify.  Input is a
curve in the text grammar `m=<int>; f=[a0,...,ad]` or
`m=<int>; f=prod[(root,mult),...]; c=<num/den>`, assembled from --m/--f
in single mode or read one per line in --batch mode; single mode is a
batch of one text.

For each text, JSON goes to stdout (canonical: sorted keys, compact
separators, exact integers and num/den strings only) and a one-line human
summary goes to stderr; --json drops the summary unless the text failed.
Exit codes: 0 success, 2 hypothesis failure, 3 parse error, 4 internal
verification failure; a batch exits with the code of its first failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from .bounds import bound_report, stoll_reference_bound
from .curve import SuperellipticCurve, genus, validate
from .geometry import (
    MAX_PRIME,
    build_cluster_tree,
    curve_branch_points,
    enumerate_maximal_annuli,
    parameterize_annulus,
)
from .padic import ChartVerificationError, PadicContext, chabauty_prime, check_m, is_prime
from .search import _frac_str, enumerate_points, verify_bound

__all__ = ["CurveInput", "CurveParseError", "main", "parse_curve_input", "run"]

EXIT_OK = 0
EXIT_HYPOTHESIS = 2
EXIT_PARSE = 3
EXIT_VERIFICATION = 4


class CurveParseError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass
class CurveInput:
    m: int
    coefficients: list[Fraction] | None = None
    factors: list[tuple[Fraction, int]] | None = None
    lead: Fraction = Fraction(1)
    rank_claim: int | None = None
    prime_override: int | None = None
    precision: int = 20
    height: int = 50

    def build_curve(self) -> SuperellipticCurve:
        if self.factors is not None:
            return SuperellipticCurve.from_branch_points(self.m, self.lead, self.factors)
        if self.coefficients is None:
            raise ValueError("no polynomial given")
        return SuperellipticCurve(self.m, self.coefficients)


# The only whitespace the grammar knows, also what a batch line is trimmed
# of, so no character outside ASCII is ever skipped.
_WHITESPACE = " \t\r\n"


class _Scanner:
    def __init__(self, text: str, first_line: int):
        self.text = text
        self.first_line = first_line
        self.i = 0

    def _linecol(self, at: int) -> tuple[int, int]:
        line = self.text.count("\n", 0, at) + self.first_line
        column = at - (self.text.rfind("\n", 0, at) + 1) + 1
        return line, column

    def fail(self, message: str, at: int | None = None) -> None:
        line, column = self._linecol(self.i if at is None else at)
        raise CurveParseError(message, line, column)

    def skip_ws(self) -> None:
        while self.i < len(self.text) and self.text[self.i] in _WHITESPACE:
            self.i += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.i >= len(self.text)

    def accept(self, literal: str) -> bool:
        self.skip_ws()
        if self.text.startswith(literal, self.i):
            self.i += len(literal)
            return True
        return False

    def expect(self, literal: str) -> None:
        if not self.accept(literal):
            self.fail(f"expected {literal!r}")

    def integer(self) -> int:
        self.skip_ws()
        start = self.i
        if self.i < len(self.text) and self.text[self.i] in "+-":
            self.i += 1
        digits = self.i
        while self.i < len(self.text) and "0" <= self.text[self.i] <= "9":
            self.i += 1
        if self.i == digits:
            self.fail("expected an integer", start)
        limit = sys.get_int_max_str_digits()
        if limit and self.i - digits > limit:
            self.fail(
                f"integer literal of {self.i - digits} digits exceeds the "
                f"limit of {limit} digits",
                start,
            )
        return int(self.text[start : self.i])

    def rational(self) -> Fraction:
        num = self.integer()
        if self.accept("/"):
            den_at = self.i
            den = self.integer()
            if den == 0:
                self.fail("zero denominator", den_at)
            return Fraction(num, den)
        return Fraction(num)


def parse_curve_input(text: str, first_line: int = 1) -> CurveInput:
    """Parse one curve text.  Errors count lines from first_line, the
    text's line in its batch file."""
    sc = _Scanner(text, first_line)
    sc.expect("m")
    sc.expect("=")
    m_at = sc.i
    m = sc.integer()
    if m < 2:
        sc.fail("m must be at least 2", m_at)
    sc.expect(";")
    sc.expect("f")
    sc.expect("=")
    sc.skip_ws()
    if sc.accept("prod"):
        sc.expect("[")
        factors: list[tuple[Fraction, int]] = []
        seen: set[Fraction] = set()
        while True:
            sc.expect("(")
            root_at = sc.i
            root = sc.rational()
            if root in seen:
                sc.fail(f"repeated branch point {root}; merge multiplicities", root_at)
            seen.add(root)
            sc.expect(",")
            mult_at = sc.i
            mult = sc.integer()
            if mult < 1:
                sc.fail("multiplicity must be positive", mult_at)
            if mult >= m:
                sc.fail(
                    f"multiplicity {mult} not < m = {m}; the uniform bound "
                    "hypothesis needs every branch multiplicity below m",
                    mult_at,
                )
            sc.expect(")")
            factors.append((root, mult))
            if sc.accept(","):
                continue
            sc.expect("]")
            break
        lead = Fraction(1)
        if sc.accept(";"):
            sc.expect("c")
            sc.expect("=")
            lead_at = sc.i
            lead = sc.rational()
            if lead == 0:
                sc.fail("leading coefficient c must be nonzero", lead_at)
        if not sc.at_end():
            sc.fail("unexpected trailing input")
        return CurveInput(m=m, factors=factors, lead=lead)
    sc.expect("[")
    coeffs = [sc.rational()]
    while sc.accept(","):
        coeffs.append(sc.rational())
    sc.expect("]")
    if not sc.at_end():
        sc.fail("unexpected trailing input")
    return CurveInput(m=m, coefficients=coeffs)


def _run_genus(curve: SuperellipticCurve, cin: CurveInput) -> dict:
    return {"m": curve.m, "degree": curve.degree, "genus": genus(curve)}


def _run_prime(cin: CurveInput) -> dict:
    q, cap = chabauty_prime(cin.m)
    return {"m": cin.m, "prime": q, "cap": cap}


def _run_bound(curve: SuperellipticCurve, cin: CurveInput) -> dict:
    if cin.rank_claim is None:
        raise ValueError("bound requires --rank (the user-asserted Mordell-Weil rank)")
    if curve.m == 2:
        g = validate(curve)
        value = stoll_reference_bound(g, cin.rank_claim)
        return {
            "m": 2,
            "g": g,
            "r": cin.rank_claim,
            "rank_source": "user-asserted",
            "reference_bound": value,
        }
    report = bound_report(curve, cin.rank_claim)
    if cin.prime_override is not None and cin.prime_override != report.p:
        raise ValueError(
            "the uniform total is stated at the least prime congruent to 1 mod m; "
            f"override {cin.prime_override} is not that prime"
        )
    return {"rank_source": "user-asserted", **report.to_json_dict()}


def _run_analyze(curve: SuperellipticCurve, cin: CurveInput) -> dict:
    genus(curve)  # rejects a reducible cover before any prime is chosen
    m = curve.m
    p = cin.prime_override if cin.prime_override is not None else chabauty_prime(m)[0]
    if p > MAX_PRIME:
        raise ValueError(f"prime {p} exceeds the limit MAX_PRIME = {MAX_PRIME} for analyze")
    if not is_prime(p) or p % m != 1:
        raise ValueError(f"analyze needs a prime congruent to 1 mod {m}; got {p}")
    ctx = PadicContext(p, cin.precision)
    points, complete = curve_branch_points(curve, ctx)
    if not complete:
        raise ValueError(
            f"branch locus does not split over Q_{p}; chart analysis is "
            "unavailable there (the bounds themselves remain valid)"
        )
    tree = build_cluster_tree([t for t, _ in points], [n for _, n in points])
    annuli = enumerate_maximal_annuli(
        tree, m=m, infinity_is_branch=curve.degree % m != 0
    )
    reports = [parameterize_annulus(a, curve, ctx).report() for a in annuli]
    return {
        "m": m,
        "prime": p,
        "precision": cin.precision,
        "annulus_count": len(reports),
        "annuli": reports,
    }


def _run_search(curve: SuperellipticCurve, cin: CurveInput) -> dict:
    report = enumerate_points(curve, cin.height)
    return {
        "m": curve.m,
        "f": [_frac_str(c) for c in curve.f],
        **report.to_json_dict(),
    }


def _run_verify(curve: SuperellipticCurve, cin: CurveInput) -> dict:
    if cin.rank_claim is None:
        raise ValueError("verify requires --rank (the user-asserted Mordell-Weil rank)")
    report = verify_bound(curve, cin.rank_claim, cin.height)
    return {
        "m": curve.m,
        "r": cin.rank_claim,
        "rank_source": "user-asserted",
        **report.to_json_dict(),
    }


# the commands that need the least prime = 1 mod m, so m <= padic.MAX_M
_LEAST_PRIME_COMMANDS = ("prime", "bound", "analyze", "verify")

# the commands on a curve; prime needs only m
_CURVE_COMMANDS = {
    "genus": _run_genus,
    "bound": _run_bound,
    "analyze": _run_analyze,
    "search": _run_search,
    "verify": _run_verify,
}


def run(command: str, cin: CurveInput) -> dict:
    """The payload of one command: its own fields, with `schema` and
    `command` added."""
    if command in _LEAST_PRIME_COMMANDS:
        check_m(cin.m)
    if command == "prime":
        fields = _run_prime(cin)
    elif command in _CURVE_COMMANDS:
        fields = _CURVE_COMMANDS[command](cin.build_curve(), cin)
    else:
        raise ValueError(f"unknown command {command!r}")
    return {"schema": 1, "command": command, **fields}


def _dump(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _summary(command: str, payload: dict) -> str:
    if "error" in payload:
        return f"error: {payload['error']}"
    if command == "genus":
        return (
            f"genus {payload['genus']} "
            f"(m = {payload['m']}, degree {payload['degree']})"
        )
    if command == "prime":
        return (
            f"least prime 1 mod {payload['m']}: {payload['prime']} "
            f"(reporting cap {payload['cap']})"
        )
    if command == "bound":
        if "reference_bound" in payload:
            return (
                f"reference bound {payload['reference_bound']} "
                f"(g = {payload['g']}, user-asserted r = {payload['r']})"
            )
        return (
            f"total bound {payload['theorem3_total']} at prime "
            f"{payload['prime']} (sharp {payload['sharp_total']}, "
            f"user-asserted r = {payload['r']})"
        )
    if command == "analyze":
        return (
            f"{payload['annulus_count']} annulus orbit(s) analyzed at prime "
            f"{payload['prime']}"
        )
    if command == "search":
        return (
            f"{payload['count']} affine point(s) up to height {payload['height']} "
            f"(+{payload['infinity_count']} at infinity)"
        )
    if command == "verify":
        verdict = "satisfied" if payload["satisfied"] else "VIOLATED"
        observed = payload["count"] + payload["infinity_count"]
        return f"bound {payload['bound']} vs observed {observed}: {verdict}"
    return command


def _apply_flags(cin: CurveInput, args: argparse.Namespace) -> None:
    cin.rank_claim = args.rank
    cin.prime_override = args.prime
    cin.precision = args.precision
    cin.height = args.height


def _process(
    command: str, line: int, text: str | None, args: argparse.Namespace
) -> tuple[dict, int]:
    try:
        if text is None:
            if args.m is None:
                raise CurveParseError("--m is required", 1, 1)
            cin = CurveInput(m=args.m)
        else:
            cin = parse_curve_input(text, line)
        _apply_flags(cin, args)
        return run(command, cin), EXIT_OK
    except CurveParseError as exc:
        error, code = exc, EXIT_PARSE
    except ChartVerificationError as exc:
        error, code = exc, EXIT_VERIFICATION
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        error, code = exc, EXIT_HYPOTHESIS
    return {"schema": 1, "command": command, "error": str(error)}, code


def _single_text(args: argparse.Namespace) -> str | None:
    if args.command == "prime" and args.f is None:
        return None
    if args.m is None or args.f is None:
        raise CurveParseError(f"{args.command} requires --m and --f", 1, 1)
    return f"m={args.m}; f={args.f}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="superchab",
        description="Effective point-count bounds for superelliptic curves y^m = f(x).",
    )
    parser.add_argument(
        "command",
        choices=["genus", "prime", "bound", "analyze", "search", "verify"],
    )
    parser.add_argument("--m", type=int, help="cover degree m")
    parser.add_argument(
        "--f",
        help="polynomial: [a0,...,ad] or prod[(root,mult),...] in the curve grammar",
    )
    parser.add_argument("--rank", type=int, help="user-asserted Mordell-Weil rank")
    parser.add_argument("--prime", type=int, help="prime override (analyze)")
    parser.add_argument("--precision", type=int, default=CurveInput.precision)
    parser.add_argument("--height", type=int, default=CurveInput.height)
    parser.add_argument(
        "--json", action="store_true", help="suppress the human summary on stderr"
    )
    parser.add_argument("--batch", metavar="FILE", help="one curve text per line")
    args = parser.parse_args(argv)

    try:
        if args.batch:
            # each text keeps its line number and indentation, so an error
            # names the line and column in the file
            with open(args.batch, encoding="utf-8") as fh:
                texts = [
                    (n, line.rstrip(_WHITESPACE))
                    for n, line in enumerate(fh, 1)
                    if line.strip(_WHITESPACE)
                ]
        else:
            texts = [(1, _single_text(args))]
    except (OSError, UnicodeDecodeError, CurveParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    code = EXIT_OK
    for line, text in texts:
        payload, text_code = _process(args.command, line, text, args)
        print(_dump(payload))
        if "error" in payload or not args.json:
            print(_summary(args.command, payload), file=sys.stderr)
        if code == EXIT_OK:
            code = text_code
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
