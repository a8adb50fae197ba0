"""The ``>>>`` examples of README.md run as doctests."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

# the body of each fenced code block, without its fences: a closing fence
# right after an example would otherwise be read as expected output
FENCED_BODY = re.compile(r"^```[^\n]*\n(.*?)^```", re.M | re.S)


def test_readme_examples():
    text = "\n".join(FENCED_BODY.findall(README.read_text(encoding="utf-8")))
    test = doctest.DocTestParser().get_doctest(text, {}, "README.md", str(README), 0)
    assert test.examples
    report = []
    runner = doctest.DocTestRunner()
    result = runner.run(test, out=report.append)
    assert result.failed == 0, "".join(report)
