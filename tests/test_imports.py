"""Start-up cost: importing the package and its CLI loads no heavy modules."""

import json
import subprocess
import sys
from pathlib import Path

import heckeb

# dataclasses pulls in inspect, and through it ast, dis and tokenize: about
# 20 ms of start-up that every CLI run would pay.
HEAVY = {"dataclasses", "inspect", "ast", "dis", "tokenize"}

PROBE = """
import json, sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import heckeb, heckeb.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_import_loads_no_heavy_modules():
    src = str(Path(heckeb.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", PROBE, src], capture_output=True, text=True, check=True
    ).stdout
    loaded = set(json.loads(out))
    assert "heckeb.cli" in loaded
    assert not loaded & HEAVY
