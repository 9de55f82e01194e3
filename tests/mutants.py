"""Mutation check: every seeded mutant must make a test fail.

Each mutant is one exact text edit to a source file, meant to break a
behaviour the tests claim to check.  For each one this script copies
``src``, ``tests`` and ``README.md`` to a temporary directory, applies the
edit there (stopping with an error unless the target text occurs exactly
once), and runs the mutant's test files or node ids with ``PYTHONPATH``
set to the copy, one pytest at a time, stopping at the first failure.  A mutant whose
tests fail is killed; one whose tests pass survived.  Each run is bounded
by ``TIMEOUT_S`` and, through ``RLIMIT_AS`` set in that run's process
only, by ``ADDRESS_SPACE_MB``; a run that hits a bound is reported as
LIMIT, neither killed nor survived, since a mutant that loops or grows
without end has not been shown to break a test.  The unmutated copy runs
every named test file first, so a kill means the edit broke a test.

Run it from anywhere, with the standard library and pytest:

    python3 tests/mutants.py

It exits 0 when every mutant is killed, 1 when one survived, one hit a
bound or the unmutated tests fail, and 2 when a target text is not found
exactly once.  POSIX only (``resource``, process groups).
pytest does not collect this file.
"""

from __future__ import annotations

import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

GAMES = "src/nlgame/games.py"
CLI = "src/nlgame/cli.py"
QSIM = "src/nlgame/qsim.py"
BOUNDS = "src/nlgame/bounds.py"
STRATEGIES = "src/nlgame/strategies.py"
ORACLES = "tests/oracles.py"
TEST_GAMES = "tests/test_games.py"
TEST_CLI = "tests/test_cli.py"
TEST_GOLDEN = "tests/test_golden.py"
TEST_QSIM = "tests/test_qsim.py"
TEST_STRATEGIES = "tests/test_strategies.py"
TEST_BOUNDS = "tests/test_bounds.py"

# each pytest run's bounds: the unmutated run needs about 350 MB of address
# space (importing scipy fails at 320 MB and hangs at 256 MB) and about 25 s
TIMEOUT_S = 60
ADDRESS_SPACE_MB = 1024


class Mutant(NamedTuple):
    name: str
    path: str  # the edited file, relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "walk: a certain draw uses tape",
        GAMES,
        "        if num >= den:\n            return 0\n"
        "        if num <= 0:\n            return 1\n        pos = self.pos\n",
        "        pos = self.pos\n",
        (TEST_GAMES,),
    ),
    Mutant(
        "walk: a fork restarts its probability at 1",
        GAMES,
        "(pos, self.num, self.den)",
        "(pos, 1, 1)",
        (TEST_GAMES,),
    ),
    Mutant(
        "walk: the stacked branch takes 1",
        GAMES,
        "tape = self.tape + (0,)",
        "tape = self.tape + (1,)",
        (TEST_GAMES,),
    ),
    Mutant(
        "walk: always copy",
        GAMES,
        "            if fresh:",
        "            if True:",
        (TEST_GAMES,),
    ),
    Mutant(
        "walk: always replay from the root",
        GAMES,
        "            if fresh:",
        "            if False:",
        (TEST_GAMES,),
    ),
    Mutant(
        "SplitMix64: a certain draw takes a word",
        GAMES,
        '        """0 with probability p_zero; certain outcomes consume no randomness."""\n',
        '        """0 with probability p_zero; certain outcomes consume no randomness."""\n'
        "        self.next64()\n",
        (TEST_GAMES,),
    ),
    Mutant(
        "SplitMix64: a draw at u / 2**64 == p_zero gives 0",
        GAMES,
        "self.next64() * den < num << 64",
        "self.next64() * den <= num << 64",
        (TEST_GAMES,),
    ),
    Mutant(
        "SplitMix64: stream adds its index",
        GAMES,
        "rng.next64() ^ index",
        "rng.next64() + index",
        (TEST_GAMES,),
    ),
    Mutant(
        "fork: every player is shared",
        GAMES,
        "p if h else p.fork(twins)",
        "p",
        (TEST_GAMES,),
    ),
    Mutant(
        "play: a pooled inbox keeps the player's own message",
        GAMES,
        "tuple(pool) if j is None else (*pool[:j], *pool[j + 1 :])",
        "tuple(pool)",
        (TEST_GAMES,),
    ),
    Mutant(
        "walk: the leaf weight cache is keyed on den only",
        GAMES,
        "@lru_cache(maxsize=64)\ndef _leaf_weight(num: int, den: int) -> Fraction:\n",
        "_WEIGHTS: dict = {}\n\n\ndef _leaf_weight(num: int, den: int) -> Fraction:\n"
        "    return _WEIGHTS.setdefault(den, Fraction(num, den))\n",
        (TEST_GAMES,),
    ),
    Mutant(
        "parity rule: a non-bit output counts",
        GAMES,
        '{*chosen} <= {"0", "1"} and ',
        "",
        (TEST_GAMES,),
    ),
    Mutant(
        "sampled runs: trial t plays the stream of t mod 11",
        GAMES,
        "rng = SplitMix64.stream(seed, trial)",
        "rng = SplitMix64.stream(seed, trial % 11)",
        (TEST_GAMES,),
    ),
    Mutant(
        "exact sum: reduced over the first term's denominator",
        GAMES,
        "den = lcm(*(d for _, d in terms))",
        "den = terms[0][1] if terms else 1",
        (TEST_GAMES,),
    ),
    Mutant(
        "verify: the pair is swept for every size",
        CLI,
        "[first.chosen for first in firsts if mass(n, first.chosen) != 0]",
        "[spec.instances[0].chosen for _ in firsts if mass(n, spec.instances[0].chosen) != 0]",
        (TEST_CLI,),
    ),
    Mutant(
        "verify: a size is skipped",
        CLI,
        "index += comb(n, len(firsts[-1].chosen))",
        "index += comb(n, len(firsts[-1].chosen)) + comb(n, len(firsts[-1].chosen) + 4)",
        (TEST_CLI,),
    ),
    Mutant(
        "verify: every size walks the first size's instance",
        CLI,
        "enumerate_branches(first, strategy)",
        "enumerate_branches(spec.instances[0], strategy)",
        (TEST_CLI,),
    ),
    Mutant(
        "verify: the last size's walk is skipped",
        CLI,
        "for first in firsts)",
        "for first in firsts[:-1])",
        (TEST_CLI,),
    ),
    Mutant(
        "verify: no lower bound on a certainty check's bits",
        CLI,
        "min_bits <= min(fold.bits) and ",
        "",
        (TEST_CLI,),
    ),
    Mutant(
        "verify: no upper bound on a certainty check's bits",
        CLI,
        " and max(fold.bits) <= 1",
        "",
        (TEST_CLI,),
    ),
    Mutant(
        "verify: the labeling check ignores its bits",
        CLI,
        "all_won and max_bits == width",
        "all_won",
        (TEST_CLI,),
    ),
    Mutant(
        "step limit: one step short",
        GAMES,
        "if t > STEP_LIMIT:",
        "if t >= STEP_LIMIT:",
        (f"{TEST_GAMES}::test_step_limit_edge",),
    ),
    Mutant(
        "fold: a lost leaf counts toward its walk's mass",
        GAMES,
        "            if result.won:\n",
        "            if True:\n",
        (TEST_GAMES,),
    ),
    Mutant(
        "broadcast_complexity's flag ignores the masses",
        GAMES,
        "return max(bits), all(mass == 1 for mass in masses)",
        "return max(bits), True",
        (f"{TEST_CLI}::test_verify_labeling_check_fails_on_a_missing_branch",),
    ),
    Mutant(
        "play: all_branches_won ignores the masses",
        CLI,
        '"all_branches_won": all(mass == 1 for mass in masses),',
        '"all_branches_won": True,',
        (f"{TEST_CLI}::test_play_exhaustive_verdict_reads_the_masses",),
    ),
    Mutant(
        "verify: the min-loss check passes whatever the search gives",
        CLI,
        "    if search.min_loss != formula:\n",
        "    if False:\n",
        (f"{TEST_CLI}::test_verify_reports_a_min_loss_that_misses_the_formula",),
    ),
    Mutant(
        "play: an exhaustive run echoes mode play",
        CLI,
        '"mode": "exhaustive" if args.exhaustive else "play"',
        '"mode": "play"',
        (TEST_CLI,),
    ),
    Mutant(
        "table: the echo shows the clamped range",
        CLI,
        '"n_range": [lo, hi]}',
        '"n_range": [max(lo, 5), min(hi, 64)]}',
        (TEST_GOLDEN,),
    ),
    Mutant(
        "main: ExactnessError leaves the exit-3 tuple",
        CLI,
        "except (ExactnessError, ProtocolViolation, StepLimitExceeded)",
        "except (ProtocolViolation, StepLimitExceeded)",
        (TEST_CLI,),
    ),
    Mutant(
        "measure_qubit: no sum-to-one check",
        QSIM,
        "        if (num0 << (top - top0)) + (num1 << (top - top1)) != 1 << top:\n"
        '            raise ExactnessError("measurement branches do not sum to 1")\n',
        "",
        (TEST_QSIM,),
    ),
    Mutant(
        "measure_qubit: a child core is not interned",
        QSIM,
        "splits.setdefault(frozenset(child.items()), child)",
        "child",
        (TEST_QSIM,),
    ),
    Mutant(
        "support: a factor's zero component is kept",
        QSIM,
        "for v, (re, im) in enumerate(vector) if re or im]",
        "for v, (re, im) in enumerate(vector)]",
        (TEST_QSIM,),
    ),
    Mutant(
        "StateVector: the constructor skips its norm check",
        QSIM,
        "        if self.norm_squared() != 1:\n"
        '            raise ValueError("state vector must have squared norm exactly 1")\n',
        "",
        (TEST_QSIM,),
    ),
    Mutant(
        "oracles.dense: the first measured factor is dropped",
        ORACLES,
        "in state.measured.items():",
        "in list(state.measured.items())[1:]:",
        (TEST_QSIM,),
    ),
    Mutant(
        "oracles.project: the 1-component takes the 0 basis vector",
        ORACLES,
        "        out[hi] = e1 * inner\n",
        "        out[hi] = e0 * inner\n",
        (f"{TEST_QSIM}::test_collapse_matches_reference_oracle",),
    ),
    Mutant(
        "oracles.eager_instances: a size's sets come in reverse order",
        ORACLES,
        "for chosen in itertools.combinations(range(1, n + 1), k):",
        "for chosen in reversed(list(itertools.combinations(range(1, n + 1), k))):",
        (f"{TEST_GAMES}::test_lazy_instances_match_the_eager_builder",),
    ),
    Mutant(
        # verify at n <= 8 walks only each size's first chosen set, 1..k,
        # which never holds player n beside a leader
        "GHZ: player n flips its basis when a leader hints",
        STRATEGIES,
        '        basis = MeasBasis.DIAGONAL if inbox.broadcasts[0][1] == "1" else MeasBasis.CIRCULAR\n',
        "        sender, hint = inbox.broadcasts[0]\n"
        "        flip = sender != 0 and self._index == self._shared.state.num_qubits\n"
        '        basis = MeasBasis.DIAGONAL if (hint == "1") != flip else MeasBasis.CIRCULAR\n',
        (f"{TEST_STRATEGIES}::test_every_instance_walks_as_the_first_instance_of_its_size",),
    ),
    Mutant(
        "sweep: the hint parity is flipped",
        STRATEGIES,
        "MeasBasis.DIAGONAL if w % 2 else",
        "MeasBasis.DIAGONAL if w % 2 == 0 else",
        (TEST_STRATEGIES,),
    ),
    Mutant(
        "sweep: C(n - k, w) dropped",
        STRATEGIES,
        "ways = comb(len(rest), w)",
        "ways = 1",
        (TEST_STRATEGIES,),
    ),
    Mutant(
        "sweep: C(k, t) dropped",
        STRATEGIES,
        "comb(k, t) * m for t, m in mass.items()",
        "m for t, m in mass.items()",
        (TEST_STRATEGIES,),
    ),
    Mutant(
        "sweep: only w = 0 weighed",
        STRATEGIES,
        "for w in range(len(rest) + 1):",
        "for w in range(1):",
        (TEST_STRATEGIES,),
    ),
    Mutant(
        "kernel walk: every even subset fails",
        BOUNDS,
        "subset.bit_count() % 4 == 2",
        "subset.bit_count() % 2 == 0",
        (TEST_BOUNDS,),
    ),
    Mutant(
        "elimination: a reduced row keeps its own mask",
        BOUNDS,
        "            mask ^= pivot_mask\n",
        "",
        (TEST_BOUNDS,),
    ),
    Mutant(
        "pigeonhole: a full row space is refused",
        BOUNDS,
        "if n > 1 << length:",
        "if n >= 1 << length:",
        (f"{TEST_BOUNDS}::test_response_table_matches_the_row_tuple_scan",),
    ),
)


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "README.md", dest / "README.md")


def mutated(mutant: Mutant) -> str:
    """The text of ``mutant.path`` with the mutant's edit applied."""
    text = (ROOT / mutant.path).read_text()
    count = text.count(mutant.old)
    if count != 1:
        print(f"mutants: {mutant.name}: target occurs {count} times in {mutant.path}",
              file=sys.stderr)
        sys.exit(2)
    return text.replace(mutant.old, mutant.new)


def _limit_address_space() -> None:
    # runs in the child between fork and exec, so it bounds that run alone
    limit = ADDRESS_SPACE_MB << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def run_tests(tree: Path, tests) -> str:
    """How the pytest run of ``tests`` on ``tree`` ended: "pass", "fail", or
    "limit" when it ran out of time or memory."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    with subprocess.Popen(
        command, cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        preexec_fn=_limit_address_space, start_new_session=True,
    ) as run:
        try:
            output, _ = run.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(run.pid, signal.SIGKILL)  # the run and any worker it started
            run.communicate()
            return "limit"
    # a failed allocation raises MemoryError, or kills the run by a signal
    if run.returncode < 0 or b"MemoryError" in output:
        return "limit"
    return "pass" if run.returncode == 0 else "fail"


def main() -> int:
    texts = [mutated(mutant) for mutant in MUTANTS]  # every target before any run
    with tempfile.TemporaryDirectory(prefix="nlgame-mutants-") as scratch:
        base = Path(scratch) / "base"
        copy_tree(base)
        files = sorted({f.partition("::")[0] for mutant in MUTANTS for f in mutant.tests})
        start = time.perf_counter()
        outcome = run_tests(base, files)
        if outcome != "pass":
            print(f"mutants: the unmutated tests {'fail' if outcome == 'fail' else 'hit a limit'}:"
                  f" {' '.join(files)}", file=sys.stderr)
            return 1
        print(f"unmutated  {time.perf_counter() - start:5.1f} s  {' '.join(files)} pass")
        verdicts = {"fail": "killed  ", "pass": "SURVIVED", "limit": "LIMIT   "}
        counts = dict.fromkeys(verdicts, 0)
        for mutant, text in zip(MUTANTS, texts):
            tree = Path(scratch) / "mutant"
            copy_tree(tree)
            (tree / mutant.path).write_text(text)
            start = time.perf_counter()
            outcome = run_tests(tree, mutant.tests)
            counts[outcome] += 1
            print(f"{verdicts[outcome]}   {time.perf_counter() - start:5.1f} s  {mutant.name}",
                  flush=True)
            shutil.rmtree(tree)
    print(f"{counts['fail']} of {len(MUTANTS)} mutants killed, {counts['pass']} survived, "
          f"{counts['limit']} hit a limit")
    return 1 if counts["pass"] or counts["limit"] else 0


if __name__ == "__main__":
    sys.exit(main())
