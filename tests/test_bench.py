import math
from pathlib import Path

import pytest

from normgcd.baselines import ALGORITHMS, GcdAlgorithmId
from normgcd.bench import (
    BenchCell,
    BenchReport,
    Corpus,
    CorpusPair,
    CorpusSpec,
    GcdDisagreement,
    cells_from_csv,
    emit_report,
    generate_corpus,
    report_from_json,
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


def test_first_operand_is_always_odd():
    corpus = generate_corpus(CorpusSpec((8, 16), 50, seed=3))
    saw_forced = False
    for pairs in corpus.pairs_by_size.values():
        for p in pairs:
            assert p.a % 2 == 1
            saw_forced = saw_forced or p.forced_odd
    assert saw_forced  # with 100 draws at "any" parity some a started even


def test_parity_mixes():
    odd_odd = generate_corpus(CorpusSpec((10,), 40, seed=4, parity_mix="odd-odd"))
    for p in odd_odd.pairs_by_size[10]:
        assert p.a % 2 == 1 and p.b % 2 == 1
        assert not p.forced_odd

    odd_even = generate_corpus(CorpusSpec((10,), 40, seed=4, parity_mix="odd-even"))
    for p in odd_even.pairs_by_size[10]:
        assert p.a % 2 == 1 and p.b % 2 == 0
        assert not p.forced_odd


def test_operands_land_in_bit_range():
    corpus = generate_corpus(CorpusSpec((64,), 1000, seed=5))
    lo, hi = 1 << 63, 1 << 64
    for p in corpus.pairs_by_size[64]:
        assert lo <= p.a < hi
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
        CorpusSpec((8,), 3, 1, parity_mix="even-even"),
    ],
)
def test_generate_rejects_bad_specs(spec):
    with pytest.raises(ValueError):
        generate_corpus(spec)


# --- benchmark runs ---------------------------------------------------------


def test_run_benchmark_produces_complete_cells():
    corpus = generate_corpus(CorpusSpec((8, 16), 4, seed=6))
    report = run_benchmark(corpus, repetitions=2)
    assert len(report.cells) == 8  # 4 algorithms x 2 sizes
    seen = {(c.algorithm, c.bit_size) for c in report.cells}
    assert seen == {
        (algo.value, k) for algo in GcdAlgorithmId for k in (8, 16)
    }
    for cell in report.cells:
        assert cell.pairs == 4
        assert cell.repetitions == 2
        assert cell.total_ns >= 0
        assert cell.mean_ns >= 0
        assert cell.median_ns >= 0
        assert cell.mean_iterations >= 0
    assert report.seed == 6
    assert report.environment


def test_run_benchmark_accepts_algorithm_names():
    corpus = generate_corpus(CorpusSpec((8,), 2, seed=7))
    report = run_benchmark(corpus, algorithms=("euclid", "wwl2"))
    assert [c.algorithm for c in report.cells] == ["euclid", "wwl2"]


def test_run_benchmark_single_pair_agreement():
    corpus = generate_corpus(CorpusSpec((8,), 1, seed=8))
    report = run_benchmark(corpus)
    assert len(report.cells) == 4


@pytest.mark.parametrize(
    "kwargs",
    [
        {"repetitions": 0},
        {"algorithms": ()},
        {"algorithms": ("euclid", "euclid")},
        {"algorithms": ("quantum",)},
    ],
)
def test_run_benchmark_rejects_bad_arguments(kwargs):
    corpus = generate_corpus(CorpusSpec((8,), 2, seed=1))
    with pytest.raises(ValueError):
        run_benchmark(corpus, **kwargs)


def test_run_benchmark_rejects_empty_corpus():
    with pytest.raises(ValueError):
        run_benchmark(Corpus(1, "any", {}))


def test_disagreement_aborts_with_diagnostics(monkeypatch):
    corpus = generate_corpus(CorpusSpec((8,), 3, seed=10))
    algo = GcdAlgorithmId.BINARY
    broken = ALGORITHMS[algo]._replace(steps=lambda a, b: (math.gcd(a, b) + 1, 0))
    monkeypatch.setitem(ALGORITHMS, algo, broken)
    with pytest.raises(GcdDisagreement) as exc:
        run_benchmark(corpus)
    assert exc.value.bit_size == 8
    assert "binary" in exc.value.results


def _wwl2_v_off_by_a(a, b):
    u, v, g = wwl2(a, b)
    return u - b, v + a, g  # still solves the pair, but v is out of range


@pytest.mark.parametrize(
    "algo,timed",
    [
        (GcdAlgorithmId.BINARY, lambda a, b: math.gcd(a, b) + 1),
        (GcdAlgorithmId.WWL2, _wwl2_v_off_by_a),
    ],
    ids=["wrong_gcd", "v_out_of_range"],
)
def test_wrong_timed_output_aborts(monkeypatch, algo, timed):
    corpus = generate_corpus(CorpusSpec((8,), 3, seed=10))
    monkeypatch.setitem(ALGORITHMS, algo, ALGORITHMS[algo]._replace(timed=timed))
    with pytest.raises(GcdDisagreement) as exc:
        run_benchmark(corpus)
    assert algo.value in exc.value.results


def test_mean_iterations_match_direct_counts():
    corpus = generate_corpus(CorpusSpec((12,), 6, seed=11))
    report = run_benchmark(corpus, algorithms=("euclid",))
    pairs = corpus.pairs_by_size[12]
    expected = sum(
        ALGORITHMS[GcdAlgorithmId.EUCLID].steps(p.a, p.b)[1] for p in pairs
    ) / len(pairs)
    assert report.cells[0].mean_iterations == expected


# --- report serialization ---------------------------------------------------


def _fixed_report() -> BenchReport:
    cells = [
        BenchCell("euclid", 16, 10, 2, 12345, 617, 600, 7.5),
        BenchCell("binary", 16, 10, 2, 23456, 1172, 1150, 11.2),
        BenchCell("mixed", 16, 10, 2, 22222, 1111, 1099, 9.0),
        BenchCell("wwl2", 16, 10, 2, 34567, 1728, 1700, 8.1),
    ]
    return BenchReport(seed=42, environment="CPython 3.10 on testhost", cells=cells)


def test_csv_round_trip():
    report = _fixed_report()
    assert cells_from_csv(emit_report(report, "csv")) == report.cells


def test_json_round_trip():
    report = _fixed_report()
    assert report_from_json(emit_report(report, "json")) == report


def test_round_trip_on_real_run():
    corpus = generate_corpus(CorpusSpec((8,), 3, seed=12))
    report = run_benchmark(corpus)
    assert report_from_json(emit_report(report, "json")) == report
    assert cells_from_csv(emit_report(report, "csv")) == report.cells


def test_emit_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit_report(_fixed_report(), "xml")


def test_header_only_csv_for_empty_report():
    data = emit_report(BenchReport(1, "env", []), "csv")
    assert data.decode().strip() == ",".join(bench_module.CSV_COLUMNS)
    assert cells_from_csv(data) == []


def test_golden_csv_schema():
    assert emit_report(_fixed_report(), "csv") == (DATA_DIR / "golden_report.csv").read_bytes()


def test_golden_json_schema():
    assert emit_report(_fixed_report(), "json") == (DATA_DIR / "golden_report.json").read_bytes()
