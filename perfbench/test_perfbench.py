"""The benchmark's own tests: its inputs, its output checks and its counts."""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import shutil
import subprocess
import sys

import pytest

import checks
import measure
import program
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


@pytest.fixture(scope="module")
def prog():
    return program.load_program()


@pytest.fixture(scope="module")
def small():
    return workloads.make_inputs("lib-small", 3)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_a_pure_function_of_workload_and_seed(workload):
    first = workloads.make_inputs(workload, 7)
    assert first == workloads.make_inputs(workload, 7)
    assert first.pairs != workloads.make_inputs(workload, 8).pairs
    assert len(first.pairs) == len(first.argvs) == len(first.canonical)


def test_lib_small_covers_every_ext_gcd_path(small):
    pairs = small.pairs
    assert any(a == 0 or b == 0 for a, b in pairs)
    assert any(a < 0 for a, _ in pairs) and any(b < 0 for _, b in pairs)
    nonzero = [(a, b) for a, b in pairs if a and b]
    assert any(a % 2 == 0 and b % 2 == 0 for a, b in nonzero)  # shared twos
    assert any(a % 2 == 0 and b % 2 == 1 for a, b in nonzero)  # swap
    assert any(a % 2 == 1 and math.gcd(a, b) > 1 for a, b in nonzero)
    assert all(16 <= max(abs(a), abs(b)).bit_length() <= 64 for a, b in pairs)


def test_wwl2_operands_mirror_ext_gcd(prog, small):
    for a, b in small.pairs[:500]:
        r = workloads.wwl2_operands(a, b)
        if r is None:
            assert a == 0 or b == 0
            continue
        x, y = r
        twos = (abs(a) | abs(b)) & -(abs(a) | abs(b))
        assert x % 2 == 1 and prog.ext_gcd(a, b).g == prog.wwl2(x, y).g * twos


def _off_by_a(ext_gcd):
    def solver(a, b):
        u, v, g = ext_gcd(a, b)
        return u - b, v + a, g  # still a Bezout solution, but v leaves [0, a-1]
    return solver


def _no_twos(ext_gcd):
    def solver(a, b):
        u, v, g = ext_gcd(a, b)
        return u, v, g >> ((g & -g).bit_length() - 1) if g else g
    return solver


def _wrong_inverse(ext_gcd):
    def solver(a, b):
        u, v, g = ext_gcd(a, b)
        return (u, v, g) if g != 1 or a % 2 == 0 else (u, (v + 1) % abs(a), g)
    return solver


@pytest.mark.parametrize("wrong", [_off_by_a, _no_twos, _wrong_inverse])
def test_checks_catch_a_wrong_solver(prog, small, wrong):
    solver = wrong(prog.ext_gcd)
    assert any(checks.check_ext_gcd(a, b, solver(a, b)) for a, b in small.pairs)


def test_checks_pass_the_real_solver_and_floors(prog, small):
    for a, b in small.pairs:
        assert checks.check_ext_gcd(a, b, prog.ext_gcd(a, b)) is None
        assert checks.check_bezout(a, b, prog.reference_ext_gcd(a, b)) is None
        assert checks.check_pow_inverse(a, b, measure._pow_inverse(a, b)) is None


def test_harness_counts_a_wrong_solver_as_failed(prog, small):
    fake = program.load_program()
    fake.ext_gcd = _off_by_a(prog.ext_gcd)
    _, _, (tally,) = measure.run_lib(fake, small, 0.001, 0.0)
    assert tally.failed > 0 and tally.attempted >= tally.failed
    _, _, (tally,) = measure.run_lib(prog, small, 0.001, 0.0)
    assert tally.failed == 0


def test_cli_checks(prog):
    inputs = workloads.make_inputs("cli-oneshot", 5)
    for k in range(40):
        (a, b), argv, canonical = inputs.pairs[k], inputs.argvs[k], inputs.canonical[k]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = prog.run(argv)
        assert checks.check_cli(a, b, canonical, rc, buf.getvalue()) is None, argv
        u, v, g = map(int, buf.getvalue().split())
        assert checks.check_cli(a, b, canonical, 2, buf.getvalue())
        assert checks.check_cli(a, b, canonical, 0, f"{u} {v}")
        assert checks.check_cli(a, b, canonical, 0, f"{u + b} {v - a} {g}") or not canonical
    assert any(inputs.canonical) and any("0x" in " ".join(v) for v in inputs.argvs)


def _counted_descent(a: int, b: int) -> tuple[int, int]:
    """Iterations and loop halvings of wwl2's descent, counted directly on c."""
    r = b % a
    c1, c2 = r, a - r
    while c1 and c1 % 2 == 0:
        c1 //= 2
    while c2 % 2 == 0:
        c2 //= 2
    c1, c2 = min(c1, c2), max(c1, c2)
    iterations = halvings = 0
    while c1 > 0:
        c2 -= c1
        while c2 and c2 % 2 == 0:
            c2 //= 2
            halvings += 1
        c1, c2 = min(c1, c2), max(c1, c2)
        iterations += 1
    return iterations, halvings


def test_descent_counts_match_a_direct_count(prog):
    rng = random.Random(0)
    for _ in range(200):
        a = rng.getrandbits(rng.randint(2, 200)) | 1
        b = rng.randint(1, 4 * a)
        _, trace = prog.wwl2_trace(a, b)
        assert checks.descent_counts(trace) == _counted_descent(a, b)
    with pytest.raises(ValueError):
        checks.descent_counts([(3, 9), (3, 5)])


def test_exact_counts_repeat(prog, small):
    items = [(k, a, b) for k, (a, b) in enumerate(small.pairs[:300])]
    reduced = [(k, *r) for k, a, b in items if (r := workloads.wwl2_operands(a, b))]
    absolute = [(k, abs(a), abs(b)) for k, a, b in items]
    first, tallies = measure.exact_counts(prog, reduced, absolute)
    again, _ = measure.exact_counts(prog, reduced, absolute)
    assert first == again and all(t.failed == 0 for t in tallies)
    assert sum(first["iterations"].values()) > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lib-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert r.returncode != 0 and "correct" not in r.stdout
