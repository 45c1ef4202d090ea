"""Every script in ``examples/`` runs to completion.

The examples assert their own results (the quickstart checks the tiling
rewrite against the interpreter, for instance), so a clean exit means they
still work against the current library.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(repro.__file__).parents[2]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_every_example_is_collected():
    assert [path.name for path in EXAMPLES] == [
        "acoustic_room_simulation.py", "custom_stencil_dsl.py",
        "quickstart.py", "tiling_exploration.py",
    ]


@pytest.mark.parametrize("script", EXAMPLES, ids=[path.stem for path in EXAMPLES])
def test_example_runs(script, tmp_path):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [path for path in [os.environ.get("PYTHONPATH")] if path]))
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
