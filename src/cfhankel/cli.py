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
exception included, reported as one ``internal error:`` line) or output,
help too, that stdout refuses or takes only in part, buffered or not (one
``error: cannot write output:`` line).  ``-`` with no fd 0 is input that
cannot be read, a usage error.  A stderr that refuses its line or is
closed changes no exit code: every message goes through ``_tell``.

A command-line run, ``main()`` with no argument list as the console script
calls it, ends the process as soon as its output is flushed: the atexit
handlers still run, but the interpreter's teardown is skipped.  A plain
command line is read without argparse, which loads only to print help or
a usage error.  So ``python -m cProfile`` prints no report of a
command-line run; profile ``main([...])`` given a list, which returns its
exit code and leaves the process running.
"""

from __future__ import annotations

import atexit
import json
import os
import sys
from collections.abc import Callable
from types import SimpleNamespace

from .cfrac import cfraction_from_json, cfraction_to_json, correspond, evaluate
from .exact import (DomainError, Value, scalar_from_json, scalar_to_json, series_from_json,
                    series_to_json)

# closedform, hankel_oracle and catalog are imported by the runners that use
# them, and argparse by build_parser, so that a process pays at start-up
# only for the modules its command line needs

USAGE_ERROR = 2
COMPUTATION_ERROR = 3
# largest --order, --max-n or --terms; the work grows at least quadratically
SIZE_CEILING = 1000


class _WriteError(Exception):
    """stdout refused the output: exit 3, since the input was fine."""


def _read_json(path: str):
    try:
        if path == "-":
            if sys.stdin is None:  # the process started without fd 0
                raise OSError("stdin is closed")
            return json.loads(sys.stdin.read())
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except RecursionError:  # nesting past the decoder's limit is bad input
        raise ValueError("JSON input is nested too deeply") from None


def _emit(payload) -> None:  # one JSON document
    _write(json.dumps(payload, indent=2) + "\n")


def _write(text: str) -> None:
    """Write ``text`` to stdout, every byte of it or _WriteError.

    The bytes go to ``sys.stdout.buffer`` in a loop that honours each
    write's count: unbuffered, the text layer drops the rest of a short
    write to a pipe whose reader has gone, and the run would exit 0.
    """
    if sys.stdout is None:  # the process started without fd 1
        raise _WriteError("stdout is closed")
    raw = getattr(sys.stdout, "buffer", None)
    try:
        if raw is None:  # a text stream, such as redirect_stdout's StringIO
            sys.stdout.write(text)
            return
        sys.stdout.flush()  # what the text layer holds goes first
        data = memoryview(text.encode())
        while data:
            written = raw.write(data)
            if not written:  # None: a non-blocking stdout is full
                raise BlockingIOError("stdout would block")
            data = data[written:]
    except OSError as exc:
        raise _WriteError(exc) from None


def _tell(code: int, line: str | None = None) -> int:
    """Write ``line`` to stderr, flush it and return ``code``.  A stderr that
    is closed or refuses the bytes is passed over, since the exit code still
    says what happened: an error raised here would replace that code."""
    try:
        if sys.stderr is not None:  # None when the process started without fd 2
            if line is not None:
                print(line, file=sys.stderr)
            sys.stderr.flush()
    except OSError:
        pass
    return code


def _cannot_write(exc: Exception) -> int:
    return _tell(COMPUTATION_ERROR, f"error: cannot write output: {exc}")


def size(text: str) -> int:
    """A size option, refused before any work when outside 0..SIZE_CEILING."""
    value = int(text)
    if not 0 <= value <= SIZE_CEILING:
        from argparse import ArgumentTypeError

        raise ArgumentTypeError(f"{value} is not in 0..{SIZE_CEILING}")
    return value


def convention(text: str):
    """A --convention value, refused before any work when unknown; only a
    given value loads closedform."""
    from .closedform import Convention

    try:
        return Convention(text)
    except ValueError:
        from argparse import ArgumentTypeError

        choices = ", ".join(repr(c.value) for c in Convention)
        raise ArgumentTypeError(f"invalid choice: {text!r} (choose from {choices})") from None


class Option(Value):
    """One argument of a subcommand, as argparse and the direct reader take it:
    a name without dashes is positional, and convert None is a flag."""

    __slots__ = ("name", "convert", "required", "default", "help")

    def __init__(self, name, convert=str, required=False, default=None, help=None):
        super().__init__(name, convert, required, default, help)

    @property
    def dest(self) -> str:
        return self.name.lstrip("-").replace("-", "_")


def build_parser():
    """The argparse parser of every command line, built from COMMANDS."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="cfhankel",
        description="exact continued-fraction and Hankel-transform toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, options, _) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for o in options:
            kind = {"action": "store_true"} if o.convert is None else {"type": o.convert}
            if o.name.startswith("-"):  # a positional takes neither
                kind.update(required=o.required, default=o.default)
            p.add_argument(o.name, help=o.help, **kind)
    return parser


def _is_value(token: str) -> bool:
    return token == "-" or not token.startswith("-")


def _read_plain(argv: list[str]) -> SimpleNamespace | None:
    """``build_parser().parse_args(argv)`` of a plain command line, without
    argparse: a subcommand, each option at most once by its exact name with
    its own value (``--exact`` takes none), and catalog's name.  A value
    starts with no ``-`` but ``-`` itself, and its converter accepts it.
    None leaves any other line, help and every usage error, to argparse.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    options = COMMANDS[argv[0]][1]
    named = {o.name: o for o in options}
    positional = [o for o in options if _is_value(o.name)]
    values: dict[str, object] = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if _is_value(token):
            if not positional:
                return None
            option, text = positional.pop(), token
        else:
            option = named.get(token)
            if option is None or option.dest in values:
                return None
            if option.convert is None:
                values[option.dest] = True
                continue
            text = next(tokens, None)
            if text is None or not _is_value(text):
                return None
        try:
            values[option.dest] = option.convert(text)
        except Exception:  # argparse converts it again and reports the refusal
            return None
    for option in options:
        if option.dest not in values:
            if option.required:
                return None
            values[option.dest] = option.default
    return SimpleNamespace(command=argv[0], **values)


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


_CFRACTION = Option("--cfraction", required=True, help="fraction JSON file, or -")
_MAX_N = Option("--max-n", size, required=True)
_CLOSED_FORM = (_CFRACTION, _MAX_N, Option(
    "--convention", convention,
    help="sign convention for the closed form (default: the arbitrated one)"))

# subcommand: (its help line, its arguments in the order help lists them, its runner)
COMMANDS: dict[str, tuple[str, tuple[Option, ...], Callable[..., int]]] = {
    "expand": ("extract the continued fraction of a series", (
        Option("--series", required=True, help="series JSON file, or - for stdin"),
        Option("--exact", None, default=False,
               help="certify the coefficients as complete, allowing terminated status"),
    ), _run_expand),
    "eval": ("expand a continued fraction into a series", (
        _CFRACTION, Option("--order", size, required=True),
    ), _run_eval),
    "hankel": ("determinant transform of a series", (
        Option("--series", required=True, help="series JSON file, or -"), _MAX_N,
    ), _run_hankel),
    "closed": ("closed-form dense transform of a fraction", _CLOSED_FORM, _run_closed),
    "compare": ("oracle vs closed form; exit 0 iff equal", _CLOSED_FORM, _run_compare),
    "catalog": ("emit a named example fraction", (
        Option("name", required=True),
        Option("--gamma", help="rational parameter p/q (rogers-ramanujan only)"),
        Option("--terms", size, default=8),
    ), _run_catalog),
    "verify": ("check all recorded reference values", (Option("--max-n", size, default=12),),
               _run_verify),
}


def _run(argv: list[str]) -> int:
    args = _read_plain(argv)
    if args is None:
        from contextlib import redirect_stdout
        from io import StringIO

        try:  # argparse would pass over an error writing help, so _write writes it
            with redirect_stdout(StringIO()) as shown:
                args = build_parser().parse_args(argv)
        except SystemExit as exc:
            # argparse reports usage problems itself and exits 2
            try:
                if shown.getvalue():
                    _write(shown.getvalue())
            except _WriteError as error:
                return _cannot_write(error)
            return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    # exact values outgrow the int<->str digit limit of CPython 3.10.7 on;
    # the "p/q" shape check in exact keeps a short input from naming a huge
    # number, so the limit is lifted for the run and restored after it
    digits = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if digits:
        sys.set_int_max_str_digits(0)
    try:
        return COMMANDS[args.command][2](args)
    except _WriteError as exc:
        return _cannot_write(exc)
    except DomainError as exc:
        return _tell(COMPUTATION_ERROR, f"error: {exc}")
    except (OSError, ValueError) as exc:
        return _tell(USAGE_ERROR, f"usage error: {exc}")
    except Exception as exc:  # exit 1 would read as a disagreement
        import traceback  # only here: importing it slows every start-up
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{os.path.basename(frame.filename)}:{frame.lineno}"
        return _tell(COMPUTATION_ERROR, f"internal error: {exc!r} at {where}")
    finally:
        if digits:
            sys.set_int_max_str_digits(digits)


def main(argv: list[str] | None = None) -> int:
    """Run one command line and return its exit code.

    Without ``argv``, as the console script calls it, run ``sys.argv`` and
    end the process once the output is out: the atexit handlers run, stdout
    and stderr are flushed, and the interpreter's teardown is skipped.
    """
    if argv is not None:
        return _run(argv)
    code = _run(sys.argv[1:])
    atexit._run_exitfuncs()
    try:
        if sys.stdout is not None:  # None when the process started without fd 1
            sys.stdout.flush()
    except OSError as exc:
        if code != COMPUTATION_ERROR:  # an exit 3 has said why already
            code = _cannot_write(exc)
    os._exit(_tell(code))


if __name__ == "__main__":
    sys.exit(main())
