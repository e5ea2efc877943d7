"""The README's Python example, the package's public names and the
examples in its docstrings."""

import contextlib
import doctest
import importlib
import io
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import heckeb
from heckeb import cli, words

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


def test_every_public_name_is_in_the_readme():
    text = README.read_text()
    missing = [name for name in heckeb.__all__ if not re.search(rf"\b{name}\b", text)]
    assert not missing


def test_every_module_is_reachable_after_importing_the_cli():
    # a fresh interpreter: here every module has long been imported
    names = [m.name for m in pkgutil.iter_modules(heckeb.__path__)]
    code = "import heckeb.cli, sys; print(*[m for m in sys.argv[1:] if not hasattr(heckeb, m)])"
    src = str(Path(heckeb.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", code, *names], capture_output=True, text=True, env=env, check=True
    )
    assert names and done.stdout == "\n"


MODULES = [
    importlib.import_module(f"heckeb.{m.name}") for m in pkgutil.iter_modules(heckeb.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_module_export_resolves(module):
    names = getattr(module, "__all__", [])
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(module, name), f"{module.__name__}.{name}"


def test_package_exports_are_module_exports():
    for name in heckeb.__all__:
        home = sys.modules[getattr(heckeb, name).__module__]
        assert name in getattr(home, "__all__", ()), f"{name} is not in {home.__name__}.__all__"


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests_pass(module):
    assert doctest.testmod(module).failed == 0


def test_cap_table_states_every_current_cap():
    text = README.read_text()
    rows = text[text.index("| input | cap |") :].split("\n\n", 1)[0].splitlines()[2:]
    cells = [row.strip("| ").split(" | ") for row in rows]
    stated = {input_: int(re.search(r"\d+", cap).group()) for input_, cap, _ in cells}
    caps = {
        "`square-w0k --k`": cli.SQUARE_MAX_K,
        **{f"`fk --k --method {m}`": cap for m, cap in cli.FK_MAX_K.items()},
        "`good --k`": cli.GOOD_MAX_K,
        "`sep --k`": cli.SEP_MAX_K,
        "`mult --rank`": cli.MULT_MAX_RANK,
        "`mult` exponents": words.MAX_EXPONENT,
        "`mult` nested exponents": words.MAX_EXPONENT,
        "`mult` group nesting": words.MAX_DEPTH,
        **{f"`verify --suite {s} --max-rank`": cap for s, cap in cli.VERIFY_MAX_RANK.items()},
        "`verify --suite all --max-rank`": min(cli.VERIFY_MAX_RANK.values()),
    }
    assert stated == caps
