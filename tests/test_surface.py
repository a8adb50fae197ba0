"""Every observable answer on a small signed grid, pinned by one golden.

Library calls record their repr or their exception; CLI runs record
(exit code, stdout, stderr).  Only the package's own wording is dumped:
``--help`` layout and argparse's messages differ between interpreters.

Runs without pytest, so any interpreter can be checked against the golden:

    PYTHONPATH=src python tests/test_surface.py | cmp - tests/data/surface.jsonl

and a deliberate change of the surface regenerates it the same way, with
``> tests/data/surface.jsonl``.  Run from outside the checkout with no
``PYTHONPATH``, it imports and checks the installed package instead, as
the CI workflow does:

    python "$CHECKOUT/tests/test_surface.py" | cmp - "$CHECKOUT/tests/data/surface.jsonl"
"""

import contextlib
import io
import json
from pathlib import Path

from normgcd import baselines, cli, core

GOLDEN = Path(__file__).resolve().parent / "data" / "surface.jsonl"
GRID = range(-3, 5)
PAIRS = [(a, b) for a in GRID for b in GRID]

# one argv per exit-2 path of the CLI
DOMAIN_ERRORS = [
    ["extgcd", "0", "0", "--canonical"],
    ["extgcd", "0", "5", "--conormalizer"],
    ["normalizer", "0", "5", "1"],
    ["normalizer", "5", "0", "1"],
    ["normalizer", "4", "6", "3"],
    ["bench", "--bits", "8", "--count", "1", "--out", "."],
]


def _call(fn, *args):
    call = f"{fn.__name__}{args!r}"
    try:
        return {"call": call, "value": repr(fn(*args))}
    except ValueError as exc:  # every checked operand rule raises one
        return {"call": call, "raises": type(exc).__name__, "message": str(exc)}


def _run(*argv):
    argv = [str(x) for x in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def surface():
    """The dump, one JSON line per library call or CLI run."""
    pairwise = [core.ext_gcd, core.wwl1, core.wwl1_trace, core.wwl2, core.wwl2_trace]
    pairwise += [baselines.euclid_gcd, baselines.binary_gcd, baselines.mixed_euclid_gcd]
    rows = [_call(fn, a, b) for fn in pairwise for a, b in PAIRS]
    for a, b in PAIRS:
        rows.append(_call(core.canonical_min_v, a, b, core.ext_gcd(a, b)))
        rows.append(_call(core.div1, a, b, 1))
        rows.append(_call(core.div2, a, b, core.NormalState(1, 1, a + b)))
        rows.append(_call(core.normalize_solution, a, b, 2, -3))
        rows += [_call(core.normalizer_of, a, b, c) for c in (-3, 0, 2)]
    for a, b in PAIRS:
        rows.append(_run("extgcd", a, b))
        rows.append(_run("extgcd", a, b, "--canonical"))
        rows.append(_run("extgcd", a, b, "--conormalizer"))
        rows += [_run("gcd", a, b, "--algo", algo) for algo in baselines.ALGORITHMS]
        rows += [_run("normalizer", a, b, c) for c in (-3, 0, 2)]
    rows += [_run(*argv) for argv in DOMAIN_ERRORS]
    return [json.dumps(row) for row in rows]


def test_surface_matches_golden():
    assert surface() == GOLDEN.read_text().splitlines()


if __name__ == "__main__":
    print("\n".join(surface()))
