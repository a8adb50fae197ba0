import re
from pathlib import Path

import normgcd

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_pyproject_version_is_the_package_version():
    # a regex, not tomllib, so that this also runs on 3.10
    text = PYPROJECT.read_text()
    project = re.search(r"^\[project\]\n(.*?)(?:^\[|\Z)", text, re.M | re.S).group(1)
    version = re.search(r'^version\s*=\s*"([^"]+)"\s*$', project, re.M).group(1)
    assert version == normgcd.__version__
