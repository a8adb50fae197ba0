import gc
import json
import math
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import normgcd.bench
import normgcd.oracle
from normgcd import cli
from normgcd.baselines import ALGORITHMS
from normgcd.bench import CorpusSpec, generate_corpus
from normgcd.core import ext_gcd
from normgcd.oracle import Failure, VerificationReport

import procs


def run_cli(*args: str):
    return procs.python("-m", "normgcd", *args)


# --- extgcd -----------------------------------------------------------------


def test_extgcd_prints_triple():
    out = run_cli("extgcd", "5", "7")
    assert out.returncode == 0
    assert out.stdout == "-4 3 1\n"


def test_extgcd_negative_input():
    out = run_cli("extgcd", "-5", "7")
    assert out.returncode == 0
    assert out.stdout == "4 3 1\n"


@pytest.mark.parametrize(
    "a,b",
    [("12", "18"), ("0", "0"), ("0x10", "0x6"), ("-48", "-18"), ("1", "999999999999999999")],
)
def test_extgcd_output_reparses_to_identity(a, b):
    out = run_cli("extgcd", a, b)
    assert out.returncode == 0
    u, v, g = (int(x) for x in out.stdout.split())
    ia, ib = int(a, 0), int(b, 0)
    assert u * ia + v * ib == g == math.gcd(ia, ib)


def test_extgcd_canonical():
    out = run_cli("extgcd", "9", "6", "--canonical")
    assert out.returncode == 0
    assert out.stdout == "-1 2 3\n"


@pytest.mark.parametrize(
    "a,b,expected",
    [("-12", "18", "1 1 6\n"), ("9", "-6", "1 1 3\n"), ("-9", "-6", "-1 1 3\n")],
)
def test_extgcd_canonical_signed(a, b, expected):
    out = run_cli("extgcd", a, b, "--canonical")
    assert out.returncode == 0
    assert out.stdout == expected


def test_extgcd_conormalizer():
    out = run_cli("extgcd", "5", "7", "--conormalizer")
    assert out.returncode == 0
    assert out.stdout == "-4 3 1 2\n"  # (5 | 1 + 2*7)


def _spell(n: int, as_hex: bool) -> str:
    return (("-" if n < 0 else "") + hex(abs(n))) if as_hex else str(n)


# (value, its decimal or 0x-hex spelling)
operands = st.builds(
    lambda n, as_hex: (n, _spell(n, as_hex)),
    st.integers(-(2**300), 2**300),
    st.booleans(),
)


@given(x=operands, y=operands)
def test_extgcd_prints_the_library_triple(x, y):
    (a, text_a), (b, text_b) = x, y
    t = ext_gcd(a, b)
    # procs.run, not capsys: Hypothesis rejects function-scoped fixtures
    assert procs.run(["extgcd", text_a, text_b]) == (0, f"{t.u} {t.v} {t.g}\n", "")


@given(x=operands, y=operands)
def test_extgcd_canonical_is_a_normalized_solution(x, y):
    (a, text_a), (b, text_b) = x, y
    code, out, _ = procs.run(["extgcd", text_a, text_b, "--canonical"])
    if a == b == 0:
        assert code == 2
        return
    assert code == 0
    u, v, g = map(int, out.split())
    assert u * a + v * b == g == math.gcd(a, b)
    if a and b:
        assert 0 <= v < abs(a) // g


# --- integer arguments ----------------------------------------------------------


@pytest.fixture
def unlimited_digits():
    """Let this process convert the long integers the CLI reads and prints."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        yield
        return
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "text", ["--5", "+-5", "-+5", "++5", "- -5", "1_000", "\u0663", "0x_1f", "-1_0"]
)
def test_doubled_sign_is_a_usage_error(text):
    out = run_cli("extgcd", "--", text, "3")
    assert out.returncode == 64
    assert "not an integer" in out.stderr


@pytest.mark.parametrize("text", ["-1_0", "-0x_1f", "-\u0663"])
def test_dash_led_bad_operand_is_named(text):
    # no "--": a "-" + digit token must reach the operand parser, not argparse's
    # option matching, whose message would be "arguments are required: b"
    out = run_cli("extgcd", text, "3")
    assert out.returncode == 64
    assert "not an integer" in out.stderr


def _int_without_extras(text):
    s = text.strip()
    if not s.isascii() or "_" in s:
        return None
    try:
        return int(s, 16 if "x" in s.lower() else 10)
    except ValueError:
        return None


OPERAND_ALPHABET = "0123456789abcdefABCDEFxX+-_ \t\u0663\u00b2"
# near-misses of the grammar: padding, signs and an optional 0x around a body
# of mostly hex digits, with any character of the alphabet mixed in
near_operands = st.tuples(
    st.text(" \t", max_size=1),
    st.text("+-", max_size=2),
    st.sampled_from(["", "0x", "0X"]),
    st.text(st.sampled_from("0123456789abcdefABCDEF") | st.sampled_from(OPERAND_ALPHABET)),
    st.text(" \t", max_size=1),
).map("".join)


@given(st.text(OPERAND_ALPHABET) | near_operands)
@example("1_000")
@example("0x_1f")
@example("0x1_f")
@example("\u0663")
@example("-\u00b2")
def test_operand_grammar_is_int_without_its_extras(text):
    # the grammar's regex only refuses underscores and non-ASCII digits
    assert cli._integer(text) == _int_without_extras(text)


def test_decimal_operand_longer_than_4300_digits(unlimited_digits):
    a = "1" + "0" * 4999 + "1"
    out = run_cli("extgcd", a, "7")
    assert out.returncode == 0
    u, v, g = (int(x) for x in out.stdout.split())
    assert u * int(a) + v * 7 == g == math.gcd(int(a), 7)


def test_result_longer_than_4300_digits(unlimited_digits):
    b = 3**10000  # 4772 decimal digits
    out = run_cli("extgcd", "0", hex(b))
    assert out.returncode == 0
    assert out.stdout == f"0 1 {b}\n"


def test_run_restores_the_digit_limit(capsys):
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        pytest.skip("this interpreter has no int/str digit limit")
    limit = get_limit()
    assert cli.run(["gcd", "0", hex(3**10000)]) == 0
    assert len(capsys.readouterr().out.strip()) == 4772
    assert get_limit() == limit


# --- gcd ----------------------------------------------------------------------


@pytest.mark.parametrize("algo", ["euclid", "binary", "mixed", "wwl2"])
def test_gcd_all_algorithms(algo):
    out = run_cli("gcd", "48", "18", "--algo", algo)
    assert out.returncode == 0
    assert out.stdout == "6\n"


def test_gcd_default_algorithm():
    out = run_cli("gcd", "48", "18")
    assert out.returncode == 0
    assert out.stdout == "6\n"


def test_gcd_hex_and_negative():
    out = run_cli("gcd", "-0x30", "18", "--algo", "binary")
    assert out.returncode == 0
    assert out.stdout == "6\n"


def test_uppercase_hex_accepted():
    out = run_cli("gcd", "0X30", "18")
    assert out.returncode == 0
    assert out.stdout == "6\n"


def test_gcd_help_lists_the_table_names():
    code, out, _ = procs.run(["gcd", "--help"])
    assert code == 0
    assert "{euclid,binary,mixed,wwl2}" in out


# --- normalizer ----------------------------------------------------------------


def test_normalizer_prints_value():
    out = run_cli("normalizer", "5", "7", "4")
    assert out.returncode == 0
    assert out.stdout == "2\n"


# --- verify ---------------------------------------------------------------------


def test_verify_small_sweep():
    out = run_cli("verify", "--max", "5")
    assert out.returncode == 0
    assert "PASS" in out.stdout
    assert "25 cases" in out.stdout


def test_verify_failure_exits_1(monkeypatch, capsys):
    def fake_verify(limit):
        return VerificationReport(4, [Failure(2, 2, 2, 2, 3)], 0.01)

    monkeypatch.setattr(normgcd.oracle, "exhaustive_verify", fake_verify)
    code = cli.run(["verify", "--max", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL" in captured.out
    assert "expected 2, got 3" in captured.err


# --- bench ----------------------------------------------------------------------


def test_bench_writes_report_and_prints_ratio(tmp_path):
    out_path = tmp_path / "report.json"
    out = run_cli(
        "bench",
        "--bits", "8,10",
        "--count", "3",
        "--seed", "7",
        "--format", "json",
        "--out", str(out_path),
    )
    assert out.returncode == 0
    doc = json.loads(out_path.read_bytes())
    assert doc["seed"] == 7
    assert len(doc["cells"]) == 8
    assert "wwl2/mixed mean-time ratio at 8 bits" in out.stdout
    assert "average over sizes" in out.stdout
    assert out.stdout.rstrip().splitlines()[-1] == str(out_path)


def test_bench_csv_format(tmp_path):
    out_path = tmp_path / "report.csv"
    out = run_cli("bench", "--bits", "8", "--count", "2", "--out", str(out_path))
    assert out.returncode == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "algorithm,bit_size,pairs,repetitions,total_ns,mean_ns,median_ns,mean_iterations"
    assert len(lines) == 5


class _Captured(Exception):
    pass


def _bench_corpus(monkeypatch, tmp_path, *args):
    """The corpus `bench` hands to run_benchmark, without timing anything."""

    def capture(corpus, *rest):
        raise _Captured(corpus)

    monkeypatch.setattr(normgcd.bench, "run_benchmark", capture)
    with pytest.raises(_Captured) as exc:
        cli.run(["bench", *args, "--out", str(tmp_path / "r")])
    return exc.value.args[0]


def test_bench_default_counts_draw_each_size_alone(monkeypatch, tmp_path):
    corpus = _bench_corpus(monkeypatch, tmp_path, "--bits", "16,1024", "--seed", "1")
    small = generate_corpus(CorpusSpec((16,), 10000, 1)).pairs_by_size
    large = generate_corpus(CorpusSpec((1024,), 500, 1)).pairs_by_size
    assert corpus.seed == 1
    assert list(corpus.pairs_by_size.items()) == [(16, small[16]), (1024, large[1024])]


def test_bench_cells_follow_bits_order(monkeypatch, tmp_path):
    corpus = _bench_corpus(monkeypatch, tmp_path, "--bits", "1024,16,2048,32", "--seed", "1")
    # a size's pairs depend only on its bit size, its count and the seed
    small = generate_corpus(CorpusSpec((16, 32), 10000, 1)).pairs_by_size
    large = generate_corpus(CorpusSpec((1024, 2048), 500, 1)).pairs_by_size
    assert list(corpus.pairs_by_size.items()) == [
        (1024, large[1024]),
        (16, small[16]),
        (2048, large[2048]),
        (32, small[32]),
    ]


def test_bench_size_pairs_do_not_depend_on_other_sizes(monkeypatch, tmp_path):
    alone = _bench_corpus(monkeypatch, tmp_path, "--bits", "32")
    for bits in ("16,32", "32,16"):
        corpus = _bench_corpus(monkeypatch, tmp_path, "--bits", bits)
        assert corpus.pairs_by_size[32] == alone.pairs_by_size[32]


def test_bench_disagreement_exits_1(monkeypatch, capsys, tmp_path):
    algo = "binary"
    broken = ALGORITHMS[algo]._replace(steps=lambda a, b: (math.gcd(a, b) + 1, 0))
    monkeypatch.setitem(ALGORITHMS, algo, broken)
    out_path = tmp_path / "r.csv"
    code = cli.run(["bench", "--bits", "8", "--count", "2", "--out", str(out_path)])
    assert code == 1
    assert "agreement failure" in capsys.readouterr().err
    assert not out_path.exists()


def test_bench_unwritable_output_exits_2(tmp_path):
    out = run_cli(
        "bench",
        "--bits", "8",
        "--count", "1",
        "--out", str(tmp_path / "missing_dir" / "report.csv"),
    )
    assert out.returncode == 2
    assert "cannot write" in out.stderr


# --- usage errors ------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("extgcd", "5"),
        ("extgcd", "5", "xyz"),
        ("gcd", "5", "7", "--algo", "quantum"),
        ("bench", "--bits", "8"),  # missing --out
        ("bench", "--out", "r.csv", "--reps", "0"),
        ("bench", "--out", "r.csv", "--bits", "1"),
        ("bench", "--out", "r.csv", "--seed", "-1"),
        ("frobnicate",),
    ],
)
def test_usage_errors_exit_64(argv):
    out = run_cli(*argv)
    assert out.returncode == 64


# --- process entry point ---------------------------------------------------------
# main() freezes the heap it runs in, so it runs only in child processes here:
# pytest's own heap must stay collectable.

ENTRY_ARGVS = [
    (("extgcd", "240", "-46"), 0),
    (("extgcd", "0", "0", "--canonical"), 2),
    (("extgcd", "5"), 64),
    (("gcd", "--help"), 0),
]


@pytest.mark.parametrize("argv,code", ENTRY_ARGVS)
def test_run_leaves_the_heap_unfrozen(argv, code, capsys):
    before = gc.get_freeze_count()
    assert cli.run(list(argv)) == code
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("argv,code", ENTRY_ARGVS)
def test_main_returns_the_code_of_run_and_freezes_the_heap(argv, code):
    out = procs.python(
        "-c",
        "import gc, sys\n"
        "from normgcd import cli\n"
        f"sys.argv = ['normgcd', *{list(argv)!r}]\n"
        "before = gc.get_freeze_count()\n"
        "code = cli.main()\n"
        "print('main', code, before, gc.get_freeze_count() > 0)\n"
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == f"main {code} 0 True"


def test_atexit_handlers_run_after_main():
    # main must return, not end the process with os._exit: profilers and
    # coverage write their output from atexit handlers
    out = procs.python(
        "-c",
        "import atexit, sys\n"
        "from normgcd import cli\n"
        "atexit.register(print, 'atexit ran')\n"
        "sys.argv = ['normgcd', 'extgcd', '240', '-46']\n"
        "sys.exit(cli.main())\n"
    )
    assert (out.returncode, out.stdout, out.stderr) == (0, "14 73 2\natexit ran\n", "")


def test_python_m_normgcd_runs_main():
    out = run_cli("extgcd", "240", "-46")
    assert (out.returncode, out.stdout, out.stderr) == (0, "14 73 2\n", "")
    # the heap is frozen by the time the interpreter exits, so __main__ ran main
    out = procs.python(
        "-c",
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
        "sys.argv = ['normgcd', 'extgcd', '240', '-46']\n"
        "runpy.run_module('normgcd', run_name='__main__', alter_sys=True)\n"
    )
    assert (out.returncode, out.stdout) == (0, "14 73 2\nfrozen True\n"), out.stderr


def test_console_script_is_main():
    # read as text: Python 3.10 has no tomllib
    text = (procs.SRC.parent / "pyproject.toml").read_text()
    scripts = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert scripts.split() == ["normgcd", "=", '"normgcd.cli:main"']
