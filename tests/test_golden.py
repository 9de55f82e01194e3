"""Report bytes pinned against checked-in renders.

Each case renders one report in-process through ``nlgame.cli.main`` and
compares it byte for byte with its file under ``tests/golden/``; every
case exits 0.  A change that alters report bytes on purpose
re-renders the files with ``PYTHONPATH=src python tests/test_golden.py``
and names the reports that changed.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from nlgame.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    **{
        f"verify-n{n}.json": ["verify", "--n", str(n), "--format", "json"]
        # n = 8 is the largest exhaustive replay, n = 9 the first report
        # built from seeded runs
        for n in range(2, 10)
    },
    "table.json": ["table", "--format", "json"],
    **{
        f"lemma-n{n}.json": ["lemma", "--n", str(n), "--format", "json"]
        for n in range(2, 11)
    },
    "play-general-n16-sampled.json": [
        "play", "--game", "general", "--n", "16", "--trials", "50", "--seed", "7",
        "--format", "json",
    ],
    "play-simple-n5-atoms-exhaustive.json": [
        "play", "--game", "simple", "--n", "5",
        "--strategy", "classical-atoms:0,1,b,nb,0", "--exhaustive", "--format", "json",
    ],
}


def render(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, argv
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_golden(name, monkeypatch):
    monkeypatch.delenv("NLGAME_WORKERS", raising=False)
    assert render(CASES[name]) == (GOLDEN / name).read_text()


if __name__ == "__main__":
    os.environ.pop("NLGAME_WORKERS", None)
    for name, argv in CASES.items():
        (GOLDEN / name).write_text(render(argv))
        print(f"wrote {name}", file=sys.stderr)
