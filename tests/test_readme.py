"""The README's Python example and the package's public names."""

import contextlib
import io
import re
from pathlib import Path

import heckeb

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example_prints_its_stated_output():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    assert out.getvalue() == "(1 + p^2)*T[1]\n"
    assert blocks[0].rstrip().endswith("# (1 + p^2)*T[1]")


def test_every_public_name_resolves():
    assert len(set(heckeb.__all__)) == len(heckeb.__all__)
    for name in heckeb.__all__:
        assert getattr(heckeb, name) is not None, name
