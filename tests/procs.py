"""The one place the tests start normgcd: in process, or in a child interpreter.

Importing this module imports no normgcd, so a test that only starts
children keeps its own process free of the package.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``cli.run(argv)`` in this process."""
    from normgcd import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    return code, out.getvalue(), err.getvalue()


def python(*args: str, **kwargs) -> subprocess.CompletedProcess:
    """``subprocess.run`` of this interpreter with ``args``.

    The child's ``PYTHONPATH`` is the checkout's ``src``, then the one of
    ``env`` (default ``os.environ``) if set.  Output is captured as text
    unless ``stdout``, ``stderr`` or ``text`` say otherwise.
    """
    env = dict(kwargs.pop("env", os.environ))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    kwargs = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, "text": True, **kwargs}
    return subprocess.run([sys.executable, *args], env=env, **kwargs)
