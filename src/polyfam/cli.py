"""Command-line front end: family values, coefficient tables, polynomial
coefficients, and identity verification sweeps.

Output is one JSON record per line by default (keys sorted, so identical
invocations produce identical bytes) or CSV with a header row. Rationals are
always rendered exactly as "p/q" (the denominator omitted when 1); the
--decimals option adds a clearly separate "approx" field, never replacing the
exact value.

Exit codes: 0 success; 1 verification found a failing identity in the
selected mode; 2 flag/parse errors; 3 precondition violations.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from itertools import accumulate

from .algebra import Polynomial, PreconditionError, _all_digits
from .bernoulli import CONVENTIONS, mp_bernoulli, mp_bernoulli_poly
from .cauchy import (
    FamilyPoint,
    mp_first_def,
    mp_poly_first,
    mp_poly_second,
    mp_second_def,
)
from .stirling import (
    comtet_first,
    comtet_second,
    lah_signed,
    noncentral_second,
    signless_comtet_first,
    stirling_first,
    stirling_second,
)

# family -> (number route, polynomial route, whether it reads the --mode
# summation convention); only the Bernoulli type has one.
FAMILY_ROUTES = {
    "mp-cauchy-1": (mp_first_def, mp_poly_first, False),
    "mp-cauchy-2": (mp_second_def, mp_poly_second, False),
    "mp-bernoulli": (mp_bernoulli, mp_bernoulli_poly, True),
}
NUMBER_FAMILIES = tuple(FAMILY_ROUTES)

TABLE_FAMILIES = {
    "comtet-1": (comtet_first, True),
    "comtet-2": (comtet_second, True),
    "signless-comtet-1": (signless_comtet_first, True),
    "stirling-1": (stirling_first, False),
    "stirling-2": (stirling_second, False),
    "lah": (lah_signed, False),
    "noncentral-2": (noncentral_second, True),
}


# Fraction builds 10^|e| for an exponent e, and _approx 10^D for --decimals D,
# so an unbounded one never ends. Integer flags and a literal's digit count
# share the bound: --k 10^9 alone would build a 10^9-entry box before any check.
_MAX_EXPONENT = 10_000


def _literal(parse, text: str):
    if (digits := sum(map(str.isdecimal, text))) > _MAX_EXPONENT:
        raise argparse.ArgumentTypeError(f"{digits} digits (at most {_MAX_EXPONENT})")
    return _all_digits(parse, text)


def _rational(text: str) -> Fraction:
    _, e, exponent = text.lower().rpartition("e")
    digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    # With no leading zero, one digit more than the bound has is past it.
    head = digits[: len(str(_MAX_EXPONENT)) + 1]
    if e and head.isdecimal() and int(head) > _MAX_EXPONENT:
        raise argparse.ArgumentTypeError(
            f"exponent out of range: {text!r} (at most {_MAX_EXPONENT} in magnitude)"
        )
    try:
        return _literal(Fraction, text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"not a rational number: {text!r} (use 'p/q' or an integer)"
        )


def _rational_list(text: str) -> tuple[Fraction, ...]:
    if not text:
        return ()
    return tuple(_rational(part) for part in text.split(","))


def _bounded_int(low: int) -> Callable[[str], int]:
    """An integer flag's parser: low.._MAX_EXPONENT, else a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if not low <= value <= _MAX_EXPONENT:
            bound = f"at least {low}" if value < low else f"at most {_MAX_EXPONENT}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    return lambda text: _literal(parse, text)


def _ids_list(text: str) -> tuple[str, ...] | None:
    """The ids of --ids, checked; None (every id) for 'all'."""
    if text == "all":
        return None
    from .harness import _checked_ids

    try:
        return _checked_ids(part for part in text.split(",") if part)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _approx(value: Fraction, places: int) -> str:
    """Round-half-even decimal rendering with exactly `places` digits."""
    scaled = round(value * Fraction(10) ** places)
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), 10**places)
    if places == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{str(frac).zfill(places)}"


def _emit(fmt: str, columns: Sequence[str], records: Iterable[dict]) -> None:
    """Streams records as JSON lines, or as CSV rows with a fixed column
    order (a dict or list cell JSON-encoded). The CSV header is written
    before the first record is drawn, so no records give the header alone;
    compute what can fail before the call. A reader that closes the pipe
    early (`| head`) ends the output: stdout is pointed at os.devnull, so the
    flush at exit stays silent and the command returns its own status."""
    try:
        if fmt == "json":
            for record in records:
                print(json.dumps(record, sort_keys=True))
        else:
            import csv  # here, so that `verify` and JSON output never load it

            writer = csv.writer(sys.stdout, lineterminator="\n")
            writer.writerow(columns)
            for record in records:
                cells = (record.get(column, "") for column in columns)
                writer.writerow(
                    json.dumps(v, sort_keys=True, separators=(",", ":"))
                    if isinstance(v, (dict, list))
                    else v
                    for v in cells
                )
        sys.stdout.flush()
    except BrokenPipeError:
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())


def _render(value, scalar: Callable[[Fraction], str] = str) -> object:
    """A value, a sequence or a Polynomial's coefficients, each rational
    rendered by `scalar`."""
    if isinstance(value, Polynomial):
        value = value.coeffs
    if isinstance(value, (list, tuple)):
        return [scalar(v) for v in value]
    return scalar(value)


def _params(args, count: int, default):
    """--alpha, else 0, q, ..., (count-1)q for --q, else `default`."""
    if args.alpha is not None:
        return args.alpha
    if args.q is not None:
        return tuple(Fraction(i) * args.q for i in range(count))
    return default


def _write(args, rows) -> None:
    """One record per (params, value, mode) row, plus "approx" under
    --decimals. The CSV header goes out first, so compute the rows' inputs
    before the call."""
    columns = ["family", "params", "value", "mode"]
    if args.decimals is not None:
        columns.append("approx")

    def record(params, value, mode) -> dict:
        out = dict(family=args.family, params=params, value=_render(value), mode=mode)
        if args.decimals is not None:
            out["approx"] = _render(value, lambda v: _approx(v, args.decimals))
        return out

    _emit(args.format, columns, (record(*row) for row in rows))


def _cmd_value(args) -> int:
    """`number` and `poly`: one family value, or one polynomial's coefficients
    (its value with --z)."""
    number_route, poly_route, has_convention = FAMILY_ROUTES[args.family]
    if args.mode == "verbatim" and not has_convention:
        raise PreconditionError(f"family {args.family!r} takes no --mode verbatim")
    lengths = args.lengths if args.lengths is not None else (1,) * args.k
    point = FamilyPoint(args.n, args.k, _params(args, args.n, range(args.n)), lengths)
    params = {
        "n": str(point.n),
        "k": str(point.k),
        "alpha": ",".join(map(str, point.alpha)),
        "lengths": ",".join(map(str, point.lengths)),
    }
    if args.q is not None:
        params["q"] = str(args.q)
    route = number_route if args.command == "number" else poly_route
    value = route(point, convention=args.mode) if has_convention else route(point)
    if getattr(args, "z", None) is not None:
        value = value(args.z)
        params["z"] = str(args.z)
    _write(args, [(params, value, args.mode)])
    return 0


def _cmd_table(args) -> int:
    build, needs_alpha = TABLE_FAMILIES[args.family]
    alpha = _params(args, args.n_max, None)
    if needs_alpha != (alpha is not None):
        needs = "needs" if needs_alpha else "takes no"
        raise PreconditionError(f"table family {args.family!r} {needs} --alpha or --q")
    table = build(alpha, args.n_max) if needs_alpha else build(args.n_max)
    base = {"alpha": ",".join(map(str, alpha))} if needs_alpha else {}
    ns = range(args.n_max + 1)
    _write(args, (({**base, "n": str(n)}, table.row(n), "corrected") for n in ns))
    return 0


def _cmd_verify(args) -> int:
    # Here, so that `number`, `poly` and `table` never load the sweep layer.
    from .harness import FAIL, GridSpec, errata_ledger, point_to_json, sweep

    grid = GridSpec(
        n_max=args.n_max,
        k_max=args.k_max,
        points=args.points,
        series_order=args.order,
    )
    reports = sweep(ids=args.ids, grid=grid, seed=args.seed)
    if args.errata:
        # In JSON the ledger is one document; in CSV, one row per entry.
        ledger = errata_ledger(reports)
        columns = [
            "identity",
            "statement",
            "corrected_reading",
            "verbatim_failures",
            "points_checked",
            "counterexample",
        ]
        records = [ledger] if args.format == "json" else ledger["entries"]
    else:
        columns = ["identity", "point", "verbatim", "corrected", "note"]
        records = (
            {
                "identity": report.identity,
                "point": point_to_json(report.point),
                "verbatim": report.verbatim,
                "corrected": report.corrected,
                "note": report.note,
            }
            for report in reports
        )
    _emit(args.format, columns, records)
    # --mode names the report field whose verdicts drive the exit status.
    return int(any(getattr(report, args.mode) == FAIL for report in reports))


class _Parser(argparse.ArgumentParser):
    """Reads a token that starts like a negative number (-2/3, -1/2,1) as a
    value, not as an option, so --alpha -1/2,1 works as --alpha=-1/2,1.
    A usage error, argparse's own too, names an argument of over 40 characters
    by its first 40, "…" and its length, whatever it holds; a message still
    over 240 bytes as stderr writes it (many arguments, wide characters) keeps
    the characters of its first 160 bytes, "…" and its length in characters."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")
        self._given: list[str] = []

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        # What a message can echo: each argument, and the value of --flag=value.
        self._given = args + [arg.partition("=")[2] for arg in args if arg[:1] == "-"]
        return super().parse_known_args(args, namespace)

    def error(self, message: str):
        for arg in sorted(self._given, key=len, reverse=True):
            if len(arg) > 40:
                end = f"… ({len(arg)} characters)"
                for shown in arg, repr(arg)[1:-1]:  # as given, and as repr() shows it
                    message = message.replace(shown, shown[:40] + end)
        encoding = getattr(sys.stderr, "encoding", None) or "utf-8"
        sizes = [len(char.encode(encoding, "backslashreplace")) for char in message]
        keep = sum(end <= 160 for end in accumulate(sizes))
        cut = f"{message[:keep]}… ({len(message)} characters)"
        super().error(cut if sum(sizes) > 240 else message)


def _add_family_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=_bounded_int(0), required=True, help="index n >= 0")
    sub.add_argument("--k", type=_bounded_int(1), default=1, help="depth k >= 1")
    group = sub.add_mutually_exclusive_group()
    group.add_argument(
        "--alpha",
        type=_rational_list,
        default=None,
        help="comma list of rational parameters (default: 0,1,...,n-1)",
    )
    group.add_argument(
        "--q",
        type=_rational,
        default=None,
        help="q-parameter sugar: sets alpha to 0,q,...,(n-1)q",
    )
    sub.add_argument(
        "--lengths",
        type=_rational_list,
        default=None,
        help="comma list of k nonzero box lengths (default: all 1)",
    )
    sub.add_argument(
        "--mode",
        choices=CONVENTIONS,
        default="corrected",
        help="summation convention for Bernoulli-type families",
    )


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output format"
    )
    sub.add_argument(
        "--decimals",
        type=_bounded_int(0),
        default=None,
        metavar="D",
        help="also print a rounded decimal approximation with D places",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="polyfam",
        description=(
            "Exact computation of multiparameter Cauchy- and Bernoulli-type "
            "families and mechanical verification of their identity catalog."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    number = commands.add_parser(
        "number", help="compute one family value exactly"
    )
    number.add_argument("family", choices=NUMBER_FAMILIES)
    _add_family_flags(number)
    _add_output_flags(number)
    number.set_defaults(handler=_cmd_value)

    poly = commands.add_parser(
        "poly", help="compute one polynomial family member (coefficients)"
    )
    poly.add_argument("family", choices=NUMBER_FAMILIES)
    _add_family_flags(poly)
    poly.add_argument(
        "--z", type=_rational, default=None, help="evaluate at z instead"
    )
    _add_output_flags(poly)
    poly.set_defaults(handler=_cmd_value)

    table = commands.add_parser(
        "table", help="emit the rows of a connection-coefficient triangle"
    )
    table.add_argument("family", choices=sorted(TABLE_FAMILIES))
    table.add_argument("--n-max", type=_bounded_int(0), default=5, help="last row")
    group = table.add_mutually_exclusive_group()
    group.add_argument("--alpha", type=_rational_list, default=None)
    group.add_argument("--q", type=_rational, default=None)
    _add_output_flags(table)
    table.set_defaults(handler=_cmd_table)

    verify = commands.add_parser(
        "verify", help="verify the identity catalog over a parameter sweep"
    )
    verify.add_argument(
        "--ids",
        type=_ids_list,
        default=None,
        help="comma list of identity ids, or 'all'",
    )
    verify.add_argument("--n-max", type=_bounded_int(0), default=5)
    verify.add_argument("--k-max", type=_bounded_int(1), default=2)
    verify.add_argument(
        "--points",
        type=_bounded_int(0),
        default=10,
        help="random points per identity",
    )
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument(
        "--order",
        type=_bounded_int(0),
        default=6,
        help="series truncation order",
    )
    verify.add_argument(
        "--mode",
        choices=("corrected", "verbatim"),
        default="corrected",
        help="which verdict column drives the exit status",
    )
    verify.add_argument(
        "--errata",
        action="store_true",
        help="emit the errata ledger instead of the report stream",
    )
    verify.add_argument("--format", choices=("json", "csv"), default="json")
    verify.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _all_digits(args.handler, args)
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 3
