"""The README quick example runs and prints what its comments say."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_example_prints_its_comments():
    text = README.read_text()
    block = re.search(r"## Quick example\n\n```python\n(.*?)```", text, re.S).group(1)
    expected = re.findall(r"# -> (.*)", block)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README quick example", "exec"), {})
    assert out.getvalue().splitlines() == expected
