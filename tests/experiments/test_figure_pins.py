"""Golden pins of the paper's tables as the CLI prints them.

``repro table1``, ``repro figure7 --scale 0.05 --budget 50`` and ``repro
figure8 --scale 0.05 --budget 50`` (CI's figure command lines) run in-process
here; the sha256 of each printed output is pinned, so a change to the
rewriting, the tuner or the device model that moves any figure row fails
here.  The outputs are kept in ``golden/`` so a mismatch names its first
differing row, and CI compares its own CLI runs against the same files.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).parent / "golden"
FIGURE_ARGS = ["--scale", "0.05", "--budget", "50"]
PINS = [
    ("table1.txt", ["table1"],
     "355dc15e13c44390908ad46d7a3f3145f252438b901c8b4945677b16421a1271"),
    ("figure7.txt", ["figure7", *FIGURE_ARGS],
     "feff1d3e25ad2281290def943a1a3d94f0585eccf420f4566a9080bc8768ef81"),
    ("figure8.txt", ["figure8", *FIGURE_ARGS],
     "1a6a15932b50ac6ac1b24d8fdd4821fc411371acf84e96e22cc1fcb9383f92a5"),
]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _printed(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize("name, argv, pinned", PINS, ids=[name for name, _, _ in PINS])
def test_printed_figure_matches_its_pin(name, argv, pinned):
    golden = (GOLDEN / name).read_text()
    assert _sha256(golden) == pinned, f"golden/{name} is not the pinned output"
    actual = _printed(argv)
    if _sha256(actual) == pinned:
        return
    want_rows, got_rows = golden.splitlines(), actual.splitlines()
    index = next((i for i, (want, got) in enumerate(zip(want_rows, got_rows))
                  if want != got), min(len(want_rows), len(got_rows)))
    want = want_rows[index] if index < len(want_rows) else "<no row>"
    got = got_rows[index] if index < len(got_rows) else "<no row>"
    pytest.fail(f"{name}: row {index} differs: pinned {want!r}, now {got!r}")
