"""Command-line front end: solve, inspect normalizers, verify, benchmark.

``run(argv)`` returns the exit code for every argv, ``--help`` and usage
errors included: 0 success, 1 verification or agreement failure, 2 domain
errors (unsolvable instances, bad values, unwritable output such as a
stdout on a closed pipe or a full device), 64 usage errors.  Integer
arguments accept ASCII decimal or 0x-prefixed hex of any length, with an
optional leading sign; option values (counts, seed, bit sizes) take the
same grammar without the hex form.

Only ``core`` and ``baselines`` load with this module.  ``verify`` imports
the oracle and ``bench`` the benchmark harness when they run, so a one-shot
``extgcd`` does not pay for either.
"""

import argparse
import re
import sys

from .baselines import ALGORITHMS
from .core import NotRepresentableError, canonical_min_v, ext_gcd, normalizer_of

EX_OK = 0
EX_FAILURE = 1
EX_DOMAIN = 2
EX_USAGE = 64

DEFAULT_BITS = (16, 32, 64, 256, 1024)
DEFAULT_PAIRS = 10_000
DEFAULT_PAIRS_LARGE = 500
LARGE_BITS_THRESHOLD = 512

# ASCII only: int() alone would also take "1_000", "0x_1f" and non-ASCII digits
_INTEGER = re.compile(r"[+-]?(?:0[xX][0-9a-fA-F]+|[0-9]+)")


class _Parser(argparse.ArgumentParser):
    """argparse that reads "-" + any Unicode digit as an operand, so -0x1f is
    a number and -1_0 reaches _bigint, which names what is wrong with it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\d")


def _bigint(text: str) -> int:
    s = text.strip()
    if not _INTEGER.fullmatch(s):
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(s, 16 if "x" in s.lower() else 10)


def _decimal(text: str) -> int:
    if "x" in text.lower():
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return _bigint(text)


def _positive_int(text: str) -> int:
    value = _decimal(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _seed(text: str) -> int:
    value = _decimal(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed must fit in 64 unsigned bits: {text}")
    return value


def _bits_list(text: str) -> tuple[int, ...]:
    bits = tuple(_decimal(part) for part in text.split(","))
    if any(k < 2 for k in bits) or len(set(bits)) != len(bits):
        raise argparse.ArgumentTypeError(
            f"bit sizes must be unique integers >= 2: {text!r}"
        )
    return bits


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="normgcd",
        description="Extended gcd with a normalized Bezout coordinate: "
        "solvers, verification, and benchmarking.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("extgcd", help="print u v g with u*a + v*b = g = gcd(a, b)")
    p.add_argument("a", type=_bigint)
    p.add_argument("b", type=_bigint)
    p.add_argument(
        "--canonical",
        action="store_true",
        help="report the solution with the smallest nonnegative v",
    )
    p.add_argument(
        "--conormalizer",
        action="store_true",
        help="append the t in [0, |a|-1] with |a| dividing g + t*b",
    )
    p.set_defaults(func=_cmd_extgcd)

    p = sub.add_parser("gcd", help="print gcd(a, b) computed by one algorithm")
    p.add_argument("a", type=_bigint)
    p.add_argument("b", type=_bigint)
    p.add_argument(
        "--algo",
        choices=list(ALGORITHMS),
        default="wwl2",
        help="algorithm to run (default: %(default)s)",
    )
    p.set_defaults(func=_cmd_gcd)

    p = sub.add_parser(
        "normalizer",
        help="print the v in [0, a-1] with a dividing c - v*b",
    )
    p.add_argument("a", type=_bigint)
    p.add_argument("b", type=_bigint)
    p.add_argument("c", type=_bigint)
    p.set_defaults(func=_cmd_normalizer)

    p = sub.add_parser(
        "verify",
        help="exhaustively check all pairs up to a bound against brute force",
    )
    p.add_argument(
        "--max",
        type=_positive_int,
        default=300,
        help="largest operand value to sweep (default: %(default)s)",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="time the four algorithms on seeded corpora")
    p.add_argument(
        "--bits",
        type=_bits_list,
        default=DEFAULT_BITS,
        help="comma-separated operand bit sizes "
        f"(default: {','.join(map(str, DEFAULT_BITS))})",
    )
    p.add_argument(
        "--count",
        type=_positive_int,
        default=None,
        help=f"pairs per bit size (default: {DEFAULT_PAIRS}, "
        f"{DEFAULT_PAIRS_LARGE} above {LARGE_BITS_THRESHOLD} bits)",
    )
    p.add_argument(
        "--seed", type=_seed, default=1, help="corpus seed (default: %(default)s)"
    )
    p.add_argument(
        "--format",
        choices=("csv", "json"),
        default="csv",
        help="report format (default: %(default)s)",
    )
    p.add_argument("--out", required=True, help="report output path")
    p.set_defaults(func=_cmd_bench)

    return parser


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


def _cmd_gcd(args) -> int:
    if args.algo == "wwl2":
        # wwl2 itself takes positive odd-first pairs only; ext_gcd takes any
        g = ext_gcd(args.a, args.b).g
    else:
        g = ALGORITHMS[args.algo].timed(abs(args.a), abs(args.b))
    print(g)
    return EX_OK


def _cmd_normalizer(args) -> int:
    print(normalizer_of(args.a, args.b, args.c).value)
    return EX_OK


def _cmd_verify(args) -> int:
    from .oracle import exhaustive_verify

    report = exhaustive_verify(args.max)
    print(report.summary())
    if not report.passed:
        shown = report.failures[:20]
        for f in shown:
            print(
                f"  a={f.a} b={f.b} c={f.c}: expected {f.expected}, got {f.actual}",
                file=sys.stderr,
            )
        if len(report.failures) > len(shown):
            print(f"  ... and {len(report.failures) - len(shown)} more", file=sys.stderr)
        return EX_FAILURE
    return EX_OK


def _cmd_bench(args) -> int:
    from . import bench

    pairs = {}
    for k in args.bits:
        default = DEFAULT_PAIRS if k <= LARGE_BITS_THRESHOLD else DEFAULT_PAIRS_LARGE
        spec = bench.CorpusSpec((k,), args.count or default, args.seed)
        pairs[k] = bench.generate_corpus(spec).pairs_by_size[k]
    try:
        report = bench.run_benchmark(bench.Corpus(args.seed, pairs))
    except bench.GcdDisagreement as exc:
        print(f"agreement failure: {exc}", file=sys.stderr)
        return EX_FAILURE
    data = bench.emit_report(report, args.format)
    try:
        with open(args.out, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise ValueError(f"cannot write {args.out}: {exc}")

    ratios = []
    for k in args.bits:
        w = report.cell("wwl2", k).mean_ns
        x = report.cell("mixed", k).mean_ns
        ratios.append(w / x)
        print(f"wwl2/mixed mean-time ratio at {k} bits: {w / x:.3f}")
    print(f"wwl2/mixed mean-time ratio, average over sizes: {sum(ratios) / len(ratios):.3f}")
    print(args.out)
    return EX_OK


def run(argv: list[str] | None = None) -> int:
    # Integers of any length must parse and print, so the int/str digit limit
    # (CPython 3.11, and 3.10 from 3.10.7) is lifted for this run only.
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    limit = get_limit() if get_limit else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # an unwritable stdout raises here, not at exit
        return code
    except SystemExit as exc:
        # argparse exits 0 after --help, and 2 (a domain error here) on misuse
        return EX_USAGE if exc.code else EX_OK
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
