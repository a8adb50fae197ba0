import json
import math
from pathlib import Path

import pytest

from normgcd import cli
from normgcd.baselines import ALGORITHMS
from normgcd.bench import (
    BenchCell,
    BenchReport,
    Corpus,
    CorpusPair,
    CorpusSpec,
    GcdDisagreement,
    emit_report,
    generate_corpus,
    run_benchmark,
)
from normgcd.core import wwl2
import normgcd.bench as bench_module

DATA_DIR = Path(__file__).parent / "data"


# --- corpus generation ------------------------------------------------------


def test_corpus_is_deterministic():
    spec = CorpusSpec((8, 12), 5, seed=1)
    assert generate_corpus(spec) == generate_corpus(spec)


def test_different_seeds_differ():
    a = generate_corpus(CorpusSpec((32,), 10, seed=1))
    b = generate_corpus(CorpusSpec((32,), 10, seed=2))
    assert a != b


def test_size_draw_does_not_depend_on_other_sizes():
    alone = generate_corpus(CorpusSpec((32,), 20, seed=4)).pairs_by_size[32]
    for sizes in ((16, 32), (32, 16), (8, 1024, 32)):
        together = generate_corpus(CorpusSpec(sizes, 20, seed=4)).pairs_by_size
        assert together[32] == alone


def test_first_operand_is_always_odd():
    corpus = generate_corpus(CorpusSpec((8, 16), 50, seed=3))
    for pairs in corpus.pairs_by_size.values():
        for p in pairs:
            assert p.a % 2 == 1


def test_operands_land_in_bit_range():
    # at 2, 4 and 8 bits some first draws are exactly 2^(k-1), the value
    # that must not fall out of range when it is made odd
    for k in (2, 4, 8, 64):
        corpus = generate_corpus(CorpusSpec((k,), 1000, seed=5))
        lo, hi = 1 << (k - 1), 1 << k
        for p in corpus.pairs_by_size[k]:
            assert lo <= p.a < hi and p.a % 2 == 1
            assert lo <= p.b < hi


@pytest.mark.parametrize(
    "spec",
    [
        CorpusSpec((), 3, 1),
        CorpusSpec((1,), 3, 1),
        CorpusSpec((8, 8), 3, 1),
        CorpusSpec((8,), 0, 1),
        CorpusSpec((8,), 3, -1),
        CorpusSpec((8,), 3, 2**64),
    ],
)
def test_generate_rejects_bad_specs(spec):
    with pytest.raises(ValueError):
        generate_corpus(spec)


# --- benchmark runs ---------------------------------------------------------


def test_run_benchmark_produces_complete_cells():
    corpus = generate_corpus(CorpusSpec((8, 16), 4, seed=6))
    report = run_benchmark(corpus)
    assert len(report.cells) == 8  # 4 algorithms x 2 sizes
    seen = {(c.algorithm, c.bit_size) for c in report.cells}
    assert seen == {(algo, k) for algo in ALGORITHMS for k in (8, 16)}
    for cell in report.cells:
        assert cell.pairs == 4
        assert cell.repetitions == 1
        assert cell.total_ns >= 0
        assert cell.mean_ns >= 0
        assert cell.median_ns >= 0
        assert cell.mean_iterations >= 0
    assert report.seed == 6
    assert report.environment


def test_run_benchmark_single_pair_agreement():
    corpus = generate_corpus(CorpusSpec((8,), 1, seed=8))
    report = run_benchmark(corpus)
    assert len(report.cells) == 4


def test_run_benchmark_rejects_empty_corpus():
    with pytest.raises(ValueError):
        run_benchmark(Corpus(1, {}))
    # one empty size among nonempty ones
    with pytest.raises(ValueError, match="16: 0"):
        run_benchmark(Corpus(1, {8: [CorpusPair(3, 5)], 16: []}))


def test_disagreement_aborts_with_diagnostics(monkeypatch):
    corpus = generate_corpus(CorpusSpec((8,), 3, seed=10))
    algo = "binary"
    broken = ALGORITHMS[algo]._replace(steps=lambda a, b: (math.gcd(a, b) + 1, 0))
    monkeypatch.setitem(ALGORITHMS, algo, broken)
    with pytest.raises(GcdDisagreement) as exc:
        run_benchmark(corpus)
    assert exc.value.bit_size == 8
    assert "binary" in exc.value.results


def test_common_wrong_gcd_aborts(monkeypatch):
    # a table whose rows all return the same wrong gcd agrees with itself;
    # math.gcd is the reference that catches it
    corpus = generate_corpus(CorpusSpec((8,), 3, seed=10))
    plus_one = ALGORITHMS["binary"]._replace(
        timed=lambda a, b: math.gcd(a, b) + 1,
        steps=lambda a, b: (math.gcd(a, b) + 1, 0),
    )
    monkeypatch.setattr(bench_module, "ALGORITHMS", {"plus_one": plus_one})
    with pytest.raises(GcdDisagreement) as exc:
        run_benchmark(corpus)
    assert exc.value.bit_size == 8
    assert "plus_one" in exc.value.results


def _wwl2_v_off_by_a(a, b):
    u, v, g = wwl2(a, b)
    return u - b, v + a, g  # still solves the pair, but v is out of range


@pytest.mark.parametrize(
    "algo,timed",
    [
        ("binary", lambda a, b: math.gcd(a, b) + 1),
        ("wwl2", _wwl2_v_off_by_a),
    ],
    ids=["wrong_gcd", "v_out_of_range"],
)
def test_wrong_timed_output_aborts(monkeypatch, algo, timed):
    corpus = generate_corpus(CorpusSpec((8,), 3, seed=10))
    monkeypatch.setitem(ALGORITHMS, algo, ALGORITHMS[algo]._replace(timed=timed))
    with pytest.raises(GcdDisagreement) as exc:
        run_benchmark(corpus)
    assert algo in exc.value.results


@pytest.mark.parametrize(
    "timed",
    [
        math.gcd,
        lambda a, b: tuple(wwl2(a, b))[1:],
        lambda a, b: list(wwl2(a, b)),
        lambda a, b: (*wwl2(a, b), 0),
    ],
    ids=["int", "pair", "list", "four_tuple"],
)
def test_non_triple_wwl2_output_aborts(monkeypatch, capsys, tmp_path, timed):
    # the check fails, so the run reports a disagreement instead of crashing
    # on the unpacking; the CLI then exits 1 and writes no report
    corpus = generate_corpus(CorpusSpec((8,), 3, seed=10))
    monkeypatch.setitem(ALGORITHMS, "wwl2", ALGORITHMS["wwl2"]._replace(timed=timed))
    with pytest.raises(GcdDisagreement) as exc:
        run_benchmark(corpus)
    assert "wwl2" in exc.value.results
    out_path = tmp_path / "r.csv"
    code = cli.run(["bench", "--bits", "8", "--count", "2", "--out", str(out_path)])
    assert code == 1
    assert "agreement failure" in capsys.readouterr().err
    assert not out_path.exists()


def test_mean_iterations_match_direct_counts():
    corpus = generate_corpus(CorpusSpec((12,), 6, seed=11))
    report = run_benchmark(corpus)
    pairs = corpus.pairs_by_size[12]
    for algo, row in ALGORITHMS.items():
        expected = sum(row.steps(p.a, p.b)[1] for p in pairs) / len(pairs)
        assert report.cell(algo, 12).mean_iterations == expected


# --- report serialization ---------------------------------------------------


def _fixed_report() -> BenchReport:
    cells = [
        BenchCell("euclid", 16, 10, 2, 12345, 617, 600, 7.5),
        BenchCell("binary", 16, 10, 2, 23456, 1172, 1150, 11.2),
        BenchCell("mixed", 16, 10, 2, 22222, 1111, 1099, 9.0),
        BenchCell("wwl2", 16, 10, 2, 34567, 1728, 1700, 8.1),
    ]
    return BenchReport(seed=42, environment="CPython 3.10 on testhost", cells=cells)


def _real_report() -> BenchReport:
    return run_benchmark(generate_corpus(CorpusSpec((8, 64), 3, seed=12)))


def test_csv_round_trip():
    report = _real_report()
    header, *rows = emit_report(report, "csv").decode().splitlines()
    assert header == ",".join(BenchCell._fields)
    assert [row.split(",") for row in rows] == [
        [str(x) for x in tuple(c)] for c in report.cells
    ]


def test_json_round_trip():
    report = _real_report()
    doc = json.loads(emit_report(report, "json"))
    assert list(doc) == ["seed", "environment", "cells"]
    assert doc["seed"] == report.seed
    assert doc["environment"] == report.environment
    assert doc["cells"] == [c._asdict() for c in report.cells]


def test_emit_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit_report(_fixed_report(), "xml")


def test_header_only_csv_for_empty_report():
    data = emit_report(BenchReport(1, "env", []), "csv")
    assert data.decode().strip() == ",".join(BenchCell._fields)


def test_golden_csv_schema():
    assert emit_report(_fixed_report(), "csv") == (DATA_DIR / "golden_report.csv").read_bytes()


def test_golden_json_schema():
    assert emit_report(_fixed_report(), "json") == (DATA_DIR / "golden_report.json").read_bytes()
