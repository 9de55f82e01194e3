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
        # built from seeded runs, n = 10 the first with three chosen-set
        # sizes (|C| = n leaves the remaining group empty); n = 11 and 12
        # pin the seeded-run reports whose certainty sweeps are the largest
        for n in range(2, 13)
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
    # one text or csv render per subcommand, so each config echo is pinned
    # in a format other than json too
    "verify-n5.txt": ["verify", "--n", "5"],
    # the echo keeps the range as given, before it is clamped to [5, 64]
    "table-n3-7.csv": ["table", "--n", "3:7", "--format", "csv"],
    "lemma-n6-max-l3.txt": ["lemma", "--n", "6", "--max-l", "3"],
    # an exhaustive play echoes mode "exhaustive" and no trial count
    "play-simple-n5-exhaustive.csv": ["play", "--n", "5", "--exhaustive", "--format", "csv"],
    # the echo names the default strategy that was filled in
    "play-general-n6-sampled.txt": [
        "play", "--game", "general", "--n", "6", "--trials", "20", "--seed", "3",
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
