import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import normgcd
from normgcd import baselines, bench, core, oracle

MODULES = (core, baselines, bench, oracle)
SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return out.stdout


def run_no_site(code: str) -> str:
    # -S: no site, so nothing but the package itself can load typing
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        check=True,
    )
    return out.stdout


@pytest.mark.parametrize(
    "code, printed",
    [
        ("import normgcd", []),
        ("import normgcd.cli; normgcd.cli.run(['extgcd', '240', '-46'])", ["14 73 2"]),
        ("import normgcd.bench, normgcd.oracle", []),
    ],
    ids=["import", "cli-extgcd", "bench-oracle"],
)
def test_clean_start_loads_no_typing(code, printed):
    probe = (
        "; import sys; "
        "print(sorted({'typing', '__future__', 'dataclasses', 'importlib'} & set(sys.modules)))"
    )
    out = run_no_site(code + probe)
    assert out.splitlines() == printed + ["[]"]


@pytest.mark.parametrize(
    "argv, printed",
    [(["extgcd", "240", "-46"], r"14 73 2\n"), (["verify", "--max", "40"], r"PASS.*\n")],
    ids=["extgcd", "verify"],
)
def test_no_site_one_shot_loads_no_typing(argv, printed):
    # the console path end to end: -m runs __main__, and -X importtime logs
    # every module the one-shot loads; verify loads the oracle as well
    out = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "normgcd", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        check=True,
    )
    assert re.fullmatch(printed, out.stdout)
    loaded = {line.rpartition("|")[2].strip() for line in out.stderr.splitlines()}
    assert "normgcd.core" in loaded
    assert not {"typing", "dataclasses"} & loaded


def test_cli_import_loads_only_the_solver():
    out = run_fresh(
        "import sys, normgcd.cli; "
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('normgcd'))))"
    )
    assert out.split() == ["normgcd", "normgcd.baselines", "normgcd.cli", "normgcd.core"]


def test_bare_import_loads_only_core():
    out = run_fresh(
        "import sys, normgcd; "
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('normgcd'))))"
    )
    assert out.split() == ["normgcd", "normgcd.core"]


@pytest.mark.parametrize("name", [n for m in MODULES for n in m.__all__])
def test_every_public_name_resolves(name):
    (home,) = [m for m in MODULES if name in m.__all__]
    assert getattr(home, name) is not None


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        normgcd.no_such_name


def test_package_surface_is_the_solver():
    assert normgcd.__all__ == core.__all__
    for name in normgcd.__all__:
        assert getattr(normgcd, name) is getattr(core, name), name


# harness names that `import normgcd` must not serve: each has one import
# path, its own module
HARNESS_NAMES = {
    baselines: "binary_gcd binary_gcd_steps euclid_gcd euclid_gcd_steps"
    " mixed_euclid_gcd mixed_euclid_gcd_steps",
    bench: "BenchCell BenchReport Corpus CorpusPair CorpusSpec GcdDisagreement"
    " emit_report generate_corpus run_benchmark",
    oracle: "Failure VerificationReport brute_normalizer exhaustive_verify"
    " reference_ext_gcd",
}


@pytest.mark.parametrize(
    "module, name",
    [(m, n) for m, names in HARNESS_NAMES.items() for n in names.split()],
    ids=lambda x: getattr(x, "__name__", x).rpartition(".")[2],
)
def test_harness_names_live_in_their_module(module, name):
    assert name in module.__all__
    assert getattr(module, name) is not None
    assert not hasattr(normgcd, name)
