"""Byte-identity check: a fixed list of commands must print the same bytes
under this checkout and under a second one.

Each command runs twice as its own ``python -m nlgame.cli`` subprocess,
once with this checkout's ``src`` on ``PYTHONPATH`` and once with
``TREE/src``, both from one shared working directory, and the two runs'
stdout, stderr and exit code are compared byte for byte.  It prints
``same`` or ``DIFFERS`` (with the parts that differ) per command.

The list is every command in ``tests/test_golden.py``'s ``CASES``, text
and csv renders, the domain errors (``verify`` outside every check's n,
an unwritable ``--out``, a bad ``table`` range, ``lemma --n 11``, a
missing family file, one past the kernel cap and a family file given
with ``--n``, ``play`` below the game domain, above the register cap,
with an unknown or pair-only strategy or zero trials), exhaustive
parity-game plays of the GHZ and labeling strategies, and two sampled
plays under ``NLGAME_WORKERS=2``.

    python3 tests/compare_trees.py TREE

TREE is the root of a second checkout, for example the parent commit
unpacked with ``git archive HEAD~1 | tar -x -C ../parent``.  It exits 0
when every command reads ``same`` and 1 otherwise.  Standard library only;
pytest does not collect this file.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FILES = {
    "family.txt": "0001\n0010\n0100\n1000\n",
    # 26 copies of one row have a kernel of dimension 25, past the cap
    "copies.txt": "1\n" * 26,
}

COMMANDS = [
    ["verify", "--n", "1"],
    ["verify", "--n", "17"],
    ["verify", "--n", "9", "--format", "csv"],
    ["verify", "--n", "4", "--out", "missing/report.txt"],
    ["table"],
    ["table", "--n", "5:x"],
    ["table", "--n", "100"],
    ["table", "--n", "70:80"],
    ["lemma", "--n", "4"],
    ["lemma", "--n", "11"],
    ["lemma", "--max-l", "1"],
    ["lemma", "--family", "family.txt", "--format", "csv"],
    ["lemma", "--family", "missing.txt"],
    ["lemma", "--family", "copies.txt"],
    ["lemma", "--family", "family.txt", "--n", "4"],
    ["play", "--n", "5", "--exhaustive", "--trials", "7", "--format", "json"],
    ["play", "--game", "general", "--n", "6", "--exhaustive", "--format", "json"],
    ["play", "--game", "general", "--n", "5", "--strategy", "classical-label", "--exhaustive",
     "--format", "json"],
    ["play", "--n", "6", "--trials", "40", "--seed", "9"],
    ["play", "--game", "general", "--n", "6", "--strategy", "classical-atoms:0,1,b,nb,0,1"],
    ["play", "--n", "2"],
    ["play", "--strategy", "nope"],
    ["play", "--game", "general", "--n", "21"],
    ["play", "--trials", "0"],
]

WORKER_COMMANDS = [
    ["play", "--game", "general", "--n", "10", "--trials", "60", "--seed", "5"],
    ["play", "--n", "7", "--trials", "50", "--format", "json"],
]


def golden_commands() -> list[list[str]]:
    """The argument lists of ``tests/test_golden.py``'s ``CASES``."""
    code = "import json, test_golden; print(json.dumps(list(test_golden.CASES.values())))"
    env = dict(os.environ, PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{ROOT / 'tests'}")
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout)


def run(tree: Path, argv: list[str], workers: str | None, cwd: Path):
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    env.pop("NLGAME_WORKERS", None)
    if workers is not None:
        env["NLGAME_WORKERS"] = workers
    done = subprocess.run(
        [sys.executable, "-m", "nlgame.cli", *argv], cwd=cwd, env=env, capture_output=True
    )
    return {"stdout": done.stdout, "stderr": done.stderr, "exit": done.returncode}


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "src" / "nlgame").is_dir():
        print("usage: python3 tests/compare_trees.py TREE  (TREE/src/nlgame must exist)",
              file=sys.stderr)
        return 2
    other = Path(argv[0]).resolve()
    cases = [(args, None) for args in golden_commands() + COMMANDS]
    cases += [(args, "2") for args in WORKER_COMMANDS]
    differing = 0
    with tempfile.TemporaryDirectory(prefix="nlgame-compare-") as scratch:
        cwd = Path(scratch)
        for name, text in FILES.items():
            (cwd / name).write_text(text)
        for args, workers in cases:
            here, there = run(ROOT, args, workers, cwd), run(other, args, workers, cwd)
            parts = [part for part in here if here[part] != there[part]]
            differing += bool(parts)
            verdict = f"DIFFERS ({', '.join(parts)})" if parts else "same"
            prefix = f"NLGAME_WORKERS={workers} " if workers else ""
            print(f"{verdict:<24} {prefix}nlgame {' '.join(args)}", flush=True)
    print(f"{len(cases) - differing} of {len(cases)} commands same")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
