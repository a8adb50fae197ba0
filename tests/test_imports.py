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


def test_cli_import_loads_only_the_solver():
    out = run_fresh(
        "import sys, normgcd.cli; "
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('normgcd'))))"
    )
    assert out.split() == ["normgcd", "normgcd.baselines", "normgcd.cli", "normgcd.core"]


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
    from normgcd import bench, oracle

    assert normgcd.run_benchmark is bench.run_benchmark
    assert normgcd.exhaustive_verify is oracle.exhaustive_verify
    assert {"run_benchmark", "exhaustive_verify"} <= set(dir(normgcd))
