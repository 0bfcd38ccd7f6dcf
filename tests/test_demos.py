"""Each demo prints byte for byte what its golden file under ``data/`` holds.

A demo runs as a script in its own interpreter with ``src`` on the
path, as the README tells readers to run it.  A change that means to
alter a demo's output rewrites its file with

    PYTHONPATH=src python demos/<demo>.py > tests/data/demo_<demo>.txt

and says in its change notes what changed and why.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, timeout=120
    )
    assert run.returncode == 0, run.stderr.decode()
    golden = ROOT / "tests" / "data" / f"demo_{demo.stem}.txt"
    assert run.stdout == golden.read_bytes()
