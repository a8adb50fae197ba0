import re

import pytest

import normgcd
from normgcd import baselines, bench, core, oracle

import procs

MODULES = (core, baselines, bench, oracle)


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
    # -S: no site, so nothing but the package itself can load typing
    out = procs.python("-S", "-c", code + probe, check=True)
    assert out.stdout.splitlines() == printed + ["[]"]


def _one_shot_loads(site_flags: list[str], argv: list[str], **kwargs) -> tuple[str, set[str]]:
    out = procs.python(*site_flags, "-X", "importtime", "-m", "normgcd", *argv, **kwargs)
    return out.stdout, {line.rpartition("|")[2].strip() for line in out.stderr.splitlines()}


@pytest.mark.parametrize(
    "argv, printed",
    [(["extgcd", "240", "-46"], r"14 73 2\n"), (["verify", "--max", "40"], r"PASS.*\n")],
    ids=["extgcd", "verify"],
)
def test_no_site_one_shot_loads_no_typing(argv, printed):
    # the console path end to end: -m runs __main__, and -X importtime logs
    # every module the one-shot loads; verify loads the oracle as well
    out, loaded = _one_shot_loads(["-S"], argv, check=True)
    assert re.fullmatch(printed, out)
    assert "normgcd.core" in loaded
    assert not {"typing", "dataclasses"} & loaded


def _normgcd_modules(code: str) -> list[str]:
    """The normgcd modules a fresh interpreter has loaded after running code."""
    probe = "; import sys; print(*sorted(m for m in sys.modules if m.startswith('normgcd')))"
    return procs.python("-c", code + probe, check=True).stdout.split()


def test_cli_import_loads_only_the_solver():
    assert _normgcd_modules("import normgcd.cli") == ["normgcd", "normgcd.cli", "normgcd.core"]


# what a one-shot must not load: the parser half of the CLI and what it pulls in
PARSER_MODULES = {"argparse", "gettext", "locale", "normgcd.baselines", "normgcd._commands"}


@pytest.mark.parametrize("site_flags", [[], ["-S"]], ids=["site", "no-site"])
def test_one_shot_extgcd_loads_no_parser(site_flags):
    printed, loaded = _one_shot_loads(site_flags, ["extgcd", "240", "-46"])
    assert printed == "14 73 2\n"
    assert {"normgcd.core", "normgcd.cli"} <= loaded
    assert not PARSER_MODULES & loaded


def test_no_site_one_shot_extgcd_loads_no_re():
    # the front reads operands with str methods, so neither re nor its enum
    # loads; without -S a .pth file of site-packages may load both first
    printed, loaded = _one_shot_loads(["-S"], ["extgcd", "240", "-46"])
    assert printed == "14 73 2\n"
    assert "normgcd.cli" in loaded
    assert not {"re", "enum"} & loaded


@pytest.mark.parametrize(
    "argv",
    [["gcd", "4", "6"], ["extgcd", "--help"], ["extgcd", "1_0", "3"]],
    ids=["gcd", "extgcd-help", "extgcd-bad-operand"],
)
def test_any_other_argv_loads_the_parser(argv):
    # the fallback: argparse reads, so its messages are the ones printed
    _, loaded = _one_shot_loads([], argv)
    assert {"argparse", "normgcd._commands"} <= loaded


def test_bare_import_loads_only_core():
    assert _normgcd_modules("import normgcd") == ["normgcd", "normgcd.core"]


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
