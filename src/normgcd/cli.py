"""Command-line front end: solve, inspect normalizers, verify, benchmark.

``run(argv)`` returns the exit code for every argv, ``--help`` and usage
errors included: 0 success, 1 verification or agreement failure, 2 domain
errors (unsolvable instances, bad values, unwritable output such as a
stdout on a closed pipe or a full device), 64 usage errors.  Integer
arguments accept ASCII decimal or 0x-prefixed hex of any length, with an
optional leading sign; option values (counts, seed, bit sizes) take the
same grammar without the hex form.

A one-shot ``extgcd A B [--canonical] [--conormalizer]`` with both operands
in the grammar is read here and loads only ``core`` and this module.  Any
other argv goes unchanged to the argparse parser of ``normgcd._commands``,
which loads ``baselines``; ``verify`` and ``bench`` import the oracle and
the benchmark harness when they run.
"""

import gc
import sys
from types import SimpleNamespace

from .core import NotRepresentableError, canonical_min_v, ext_gcd

EX_OK = 0
EX_FAILURE = 1
EX_DOMAIN = 2
EX_USAGE = 64

# ASCII only: int() alone would also take "1_000", "0x_1f" and non-ASCII digits
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")
_EXTGCD_FLAGS = {"--canonical", "--conormalizer"}


def _integer(text: str) -> int | None:
    """``text`` as an integer of the one grammar, or None if it is not one:
    an optional sign, then 0x or 0X and hex digits, or decimal digits."""
    s = text.strip()
    body = s[1:] if s[:1] in ("+", "-") else s
    if body[:2] in ("0x", "0X"):
        return int(s, 16) if body[2:] and _HEX_DIGITS.issuperset(body[2:]) else None
    return int(s) if body.isascii() and body.isdigit() else None


def _extgcd_args(argv: list[str]) -> SimpleNamespace | None:
    """The arguments of ``extgcd A B`` followed only by its flags, or None:
    the parser reads every other argv, so each message stays argparse's."""
    flags = argv[3:]
    if len(argv) < 3 or argv[0] != "extgcd" or not _EXTGCD_FLAGS.issuperset(flags):
        return None
    a, b = _integer(argv[1]), _integer(argv[2])
    if a is None or b is None:
        return None
    return SimpleNamespace(a=a, b=b, canonical="--canonical" in flags,
                           conormalizer="--conormalizer" in flags, func=_cmd_extgcd)


def build_parser():
    """The argparse parser of every command; it loads ``normgcd._commands``."""
    from ._commands import build_parser

    return build_parser()


def _cmd_extgcd(args) -> int:
    t = ext_gcd(args.a, args.b)
    if args.canonical:
        if t.g == 0:
            raise ValueError("no canonical solution for (0, 0)")
        # with one operand zero, one coordinate is forced and the other free:
        # t is already canonical
        if args.a and args.b:
            t = canonical_min_v(args.a, args.b, t)
    line = f"{t.u} {t.v} {t.g}"
    if args.conormalizer:
        if args.a == 0:
            raise ValueError("co-normalizer undefined for a = 0")
        line += f" {-t.v % abs(args.a)}"
    print(line)
    return EX_OK


def run(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # Integers of any length must parse and print, so the int/str digit limit
    # (CPython 3.11, and 3.10 from 3.10.7) is lifted for this run only.
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    limit = get_limit() if get_limit else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        try:
            args = _extgcd_args(argv) or build_parser().parse_args(argv)
            code = args.func(args)
        except SystemExit as exc:
            # argparse exits 0 after --help, and 2 (a domain error here) on misuse
            code = EX_USAGE if exc.code else EX_OK
        sys.stdout.flush()  # an unwritable stdout raises here, not at exit
        return code
    except OSError as exc:
        import os

        # stdout is flushed again at exit: point it at the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        message = f"error: cannot write output: {exc}"
    except NotRepresentableError as exc:
        message = f"not representable: {exc}"
    except ValueError as exc:
        message = f"error: {exc}"
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    print(message, file=sys.stderr)
    return EX_DOMAIN


def main() -> int:
    """``run()`` for a process that exits next (``python -m normgcd`` and the
    ``normgcd`` script): the heap is frozen after it, so the interpreter's
    shutdown collections skip it.  In-process callers keep ``run``."""
    code = run()
    gc.freeze()
    return code
