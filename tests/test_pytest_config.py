"""The repository's pytest settings, run on a throwaway test file."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FALSIFIED_THEN_PASSING = '''
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_falsified(n):
    assert n != 0


def test_after():
    pass
'''


def test_a_falsified_property_fails_one_test_and_the_run_goes_on(tmp_path):
    # filterwarnings = ["error"] must not turn the warning the hypothesis
    # plugin raises while reporting a falsified example into an INTERNALERROR
    (tmp_path / "test_probe.py").write_text(FALSIFIED_THEN_PASSING)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "-q", "test_probe.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout
    assert out.returncode == 1
