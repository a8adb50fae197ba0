import os
import subprocess
import sys
from pathlib import Path

import pytest

import normgcd

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
    ],
    ids=["import", "cli-extgcd"],
)
def test_clean_start_loads_no_typing(code, printed):
    probe = "; import sys; print(sorted({'typing', '__future__'} & set(sys.modules)))"
    out = run_no_site(code + probe)
    assert out.splitlines() == printed + ["[]"]


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


def test_submodules_load_on_attribute_access():
    out = run_fresh(
        "import normgcd; print(normgcd.bench.__name__, normgcd.oracle.__name__)"
    )
    assert out.split() == ["normgcd.bench", "normgcd.oracle"]


@pytest.mark.parametrize("name", normgcd.__all__)
def test_every_public_name_resolves(name):
    assert getattr(normgcd, name) is not None


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        normgcd.no_such_name


def test_lazy_names_are_the_submodules_objects():
    from normgcd import baselines, bench, core, oracle

    served = normgcd.__all__
    assert len(set(served)) == len(served)
    for module in (core, bench, oracle):
        assert set(module.__all__) <= set(served), module.__name__
    for name in served:
        (home,) = [m for m in (core, baselines, bench, oracle) if name in m.__all__]
        assert getattr(normgcd, name) is getattr(home, name), name
    assert set(served) | {"baselines", "bench", "oracle"} <= set(dir(normgcd))
