"""Command-line front end.

One subcommand per pipeline stage, JSON in and out:

    expand   series -> continued fraction
    eval     continued fraction -> series
    hankel   series -> determinant transform (the oracle)
    closed   continued fraction -> closed-form dense transform
    compare  oracle vs closed form, exit 0 iff they agree everywhere
    catalog  named example fraction
    verify   recompute all recorded reference values, report verdicts

``-`` means standard input for any file argument.  All numeric input and
output uses exact "p/q" strings; output is byte-stable for identical
inputs.  ``--order``, ``--max-n`` and ``--terms`` must lie between 0 and
SIZE_CEILING.  Exit codes: 0 success or agreement, 1 disagreement found by
compare/verify, 2 usage error, 3 computation error (an unexpected
exception included, reported as one ``internal error:`` line).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .cfrac import cfraction_from_json, cfraction_to_json, correspond, evaluate
from .exact import DomainError, scalar_from_json, scalar_to_json, series_from_json, series_to_json

# closedform, hankel_oracle and catalog are imported by the runners that use
# them, so that a process pays at start-up only for the modules its
# subcommand runs

USAGE_ERROR = 2
COMPUTATION_ERROR = 3
# largest --order, --max-n or --terms; the work grows at least quadratically
SIZE_CEILING = 1000


def _read_json(path: str):
    try:
        if path == "-":
            return json.loads(sys.stdin.read())
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except RecursionError:  # nesting past the decoder's limit is bad input
        raise ValueError("JSON input is nested too deeply") from None


def _emit(payload) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def size(text: str) -> int:
    """A size option, refused before any work when outside 0..SIZE_CEILING."""
    value = int(text)
    if not 0 <= value <= SIZE_CEILING:
        raise argparse.ArgumentTypeError(f"{value} is not in 0..{SIZE_CEILING}")
    return value


def convention(text: str):
    """A --convention value, refused before any work when unknown; only a
    given value loads closedform."""
    from .closedform import Convention

    try:
        return Convention(text)
    except ValueError:
        choices = ", ".join(repr(c.value) for c in Convention)
        raise argparse.ArgumentTypeError(
            f"invalid choice: {text!r} (choose from {choices})"
        ) from None


def _convention_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--convention",
        type=convention,
        help="sign convention for the closed form (default: the arbitrated one)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfhankel",
        description="exact continued-fraction and Hankel-transform toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="extract the continued fraction of a series")
    p.add_argument("--series", required=True, help="series JSON file, or - for stdin")
    p.add_argument(
        "--exact",
        action="store_true",
        help="certify the coefficients as complete, allowing terminated status",
    )

    p = sub.add_parser("eval", help="expand a continued fraction into a series")
    p.add_argument("--cfraction", required=True, help="fraction JSON file, or -")
    p.add_argument("--order", type=size, required=True)

    p = sub.add_parser("hankel", help="determinant transform of a series")
    p.add_argument("--series", required=True, help="series JSON file, or -")
    p.add_argument("--max-n", type=size, required=True)

    p = sub.add_parser("closed", help="closed-form dense transform of a fraction")
    p.add_argument("--cfraction", required=True, help="fraction JSON file, or -")
    p.add_argument("--max-n", type=size, required=True)
    _convention_flag(p)

    p = sub.add_parser("compare", help="oracle vs closed form; exit 0 iff equal")
    p.add_argument("--cfraction", required=True, help="fraction JSON file, or -")
    p.add_argument("--max-n", type=size, required=True)
    _convention_flag(p)

    p = sub.add_parser("catalog", help="emit a named example fraction")
    p.add_argument("name")
    p.add_argument("--gamma", help="rational parameter p/q (rogers-ramanujan only)")
    p.add_argument("--terms", type=size, default=8)

    p = sub.add_parser("verify", help="check all recorded reference values")
    p.add_argument("--max-n", type=size, default=12)

    return parser


def _run_expand(args) -> int:
    f = series_from_json(_read_json(args.series))
    _emit(cfraction_to_json(correspond(f, exact=args.exact)))
    return 0


def _run_eval(args) -> int:
    cf = cfraction_from_json(_read_json(args.cfraction))
    _emit(series_to_json(evaluate(cf, args.order)))
    return 0


def _run_hankel(args) -> int:
    from .hankel_oracle import hankel_transform

    f = series_from_json(_read_json(args.series))
    transform = hankel_transform(f.coeffs, args.max_n)
    _emit({"max_n": args.max_n, "transform": [scalar_to_json(v) for v in transform]})
    return 0


def _run_closed(args) -> int:
    from .closedform import DEFAULT_CONVENTION, dense_to_json, dense_transform

    cf = cfraction_from_json(_read_json(args.cfraction))
    result = dense_transform(cf, args.max_n, args.convention or DEFAULT_CONVENTION)
    _emit(dense_to_json(result))
    return 0


def _run_compare(args) -> int:
    from .closedform import DEFAULT_CONVENTION, dense_to_json, dense_transform
    from .hankel_oracle import hankel_transform

    cf = cfraction_from_json(_read_json(args.cfraction))
    convention = args.convention or DEFAULT_CONVENTION
    # first, so that a max_n past a truncated fraction's window is refused
    # before the expansion and the oracle run
    closed = dense_transform(cf, args.max_n, convention)
    expansion = evaluate(cf, 2 * args.max_n)
    oracle = hankel_transform(expansion.coeffs, args.max_n)
    equal = list(closed.dense) == oracle
    _emit(
        {
            "max_n": args.max_n,
            "convention": convention.value,
            "oracle": [scalar_to_json(v) for v in oracle],
            "closed": dense_to_json(closed),
            "equal": equal,
        }
    )
    return 0 if equal else 1


def _run_catalog(args) -> int:
    from .catalog import catalog_cfraction

    gamma = scalar_from_json(args.gamma) if args.gamma is not None else None
    cf = catalog_cfraction(args.name, gamma=gamma, terms=args.terms)
    _emit(cfraction_to_json(cf))
    return 0


def _run_verify(args) -> int:
    from .catalog import report_to_json, verify_claims

    report = verify_claims(args.max_n)
    _emit(report_to_json(report))
    refuted = any(c.verdict == "refuted" for c in report.claims)
    return 1 if refuted or not report.convention_consistent else 0


_RUNNERS = {
    "expand": _run_expand,
    "eval": _run_eval,
    "hankel": _run_hankel,
    "closed": _run_closed,
    "compare": _run_compare,
    "catalog": _run_catalog,
    "verify": _run_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse reports usage problems itself and exits 2
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    # exact values outgrow the int<->str digit limit of CPython 3.10.7 on;
    # the "p/q" shape check in exact keeps a short input from naming a huge
    # number, so the limit is lifted for the run and restored after it
    digits = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if digits:
        sys.set_int_max_str_digits(0)
    try:
        return _RUNNERS[args.command](args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return COMPUTATION_ERROR
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:  # exit 1 would read as a disagreement
        import traceback  # only here: importing it slows every start-up
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{os.path.basename(frame.filename)}:{frame.lineno}"
        print(f"internal error: {exc!r} at {where}", file=sys.stderr)
        return COMPUTATION_ERROR
    finally:
        if digits:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
