"""The benchmark's workloads: inputs from a seed, timed rounds, output checks.

A workload is repeated in *rounds*.  A round is a fixed unit of work whose
inputs come from ``(seed, round index)``; it is timed as a whole and then
checked.  Every operation (a verify check, a sweep call, a sampled trial,
a family check) is counted as attempted, and as failed when its check
fails or when an exception or nonzero exit cuts it short.

This module does not import nlgame at load time, so a fresh process can
time the import itself as part of set-up.  Calls go through module
attributes looked up at call time, so wrappers installed by ``spans``
are honoured.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"


@dataclass
class RoundResult:
    wall_s: float
    attempted: int
    failed: int = 0
    output: str = ""  # what the program produced, for traced/untraced comparison
    problems: list[str] = field(default_factory=list)

    def fail_all(self, why: str) -> None:
        self.failed = self.attempted
        self.problems.append(why)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """``nlgame.cli.main(argv)`` in this process, capturing both streams."""
    import nlgame.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = nlgame.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _parse_report(code: int, stdout: str, stderr: str) -> tuple[dict | None, str]:
    """(report, "") for a clean exit with a JSON report, else (None, problem)."""
    if code != 0:
        return None, f"exit code {code}: {stderr.strip()[:200]}"
    try:
        return json.loads(stdout), ""
    except json.JSONDecodeError as exc:
        return None, f"report is not JSON: {exc}"


class Workload:
    """One set of inputs; subclasses define set-up, rounds and checks."""

    name = ""
    # mapped functions this workload must reach; zero calls fails a traced run
    uses: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tracing = None  # a spans.Installed while the run is traced

    def timed(self, fn, *args):
        """(wall seconds, value, error) of the round's timed region."""
        start = perf_counter()
        try:
            if self.tracing is None:
                value = fn(*args)
            else:
                value = self.tracing.run_root(fn, *args)
            error = ""
        except Exception as exc:  # an exception fails the ops it cuts short
            value, error = None, f"{type(exc).__name__}: {exc}"
        return perf_counter() - start, value, error

    def setup(self) -> None:
        """Import nlgame and build the specs and strategies, as a user would."""
        import nlgame  # noqa: F401
        import nlgame.cli  # noqa: F401

    def run_round(self, index: int) -> RoundResult:
        raise NotImplementedError


class VerifyReplay(Workload):
    """``nlgame verify --n 7``: exhaustive branch replay, report checked byte for byte."""

    name = "verify-replay"
    uses = (
        "measure_qubit", "outcome_probability", "run_game", "enumerate_branches",
        "make_simple_game", "make_general_game", "simple_strategy_losing_mass",
        "general_strategy_forbidden_mass", "check_gf2_condition", "find_gf2_family",
        "min_dimension_general", "min_transcripts_simple", "exhaustive_min_loss",
        "verify_lemma_chain", "main", "Report.render",
    )
    n = 7

    def setup(self) -> None:
        super().setup()
        from nlgame import games, strategies

        games.make_simple_game(self.n)
        games.make_general_game(self.n)
        strategies.quantum_simple_strategy(self.n)
        strategies.quantum_general_strategy(self.n)
        strategies.classical_label_strategy(self.n)

    def expected_report(self) -> str:
        # the reference was rendered by the seed commit with --seed 0; at
        # n <= 8 the seed reaches the report only through the config echo
        ref = json.loads((REFERENCE_DIR / f"verify-n{self.n}.json").read_text())
        ref["config"]["seed"] = self.seed
        return json.dumps(ref, indent=2, sort_keys=True) + "\n"

    def run_round(self, index: int) -> RoundResult:
        argv = ["verify", "--n", str(self.n), "--format", "json", "--seed", str(self.seed)]
        expected = self.expected_report()
        checks = len(json.loads(expected)["checks"])
        wall, value, error = self.timed(run_cli, argv)
        result = RoundResult(wall, attempted=checks)
        if error:
            result.fail_all(error)
            return result
        code, stdout, stderr = value
        result.output = stdout
        report, problem = _parse_report(code, stdout, stderr)
        if problem:
            result.fail_all(problem)
            return result
        result.failed = report["results"]["failed"]
        if stdout != expected:
            result.fail_all("verify report differs from the seed-commit reference")
        return result


class CertifySweep(Workload):
    """The exact certainty sweeps at n = 11, called as a library."""

    name = "certify-sweep"
    uses = ("outcome_probability", "simple_strategy_losing_mass", "general_strategy_forbidden_mass")
    n = 11
    rounds = 11  # a pass over all 583 inputs

    def batch(self, index: int) -> list[tuple[str, tuple[int, ...]]]:
        """Round ``index``'s inputs: the same share of every kind in every round.

        At n = 11 that is 5 pairs and 5, 42 and 1 chosen sets of sizes 2, 6
        and 10, so rounds cost alike; the seed only orders the inputs.
        """
        rng = random.Random(self.seed)
        players = range(1, self.n + 1)
        kinds = [[("pair", p) for p in itertools.combinations(players, 2)]]
        for k in range(2, self.n + 1, 4):
            kinds.append([("set", c) for c in itertools.combinations(players, k)])
        batch = []
        for items in kinds:
            rng.shuffle(items)
            batch += items[index % self.rounds :: self.rounds]
        return batch

    def run_round(self, index: int) -> RoundResult:
        import nlgame

        batch = self.batch(index)

        def sweep():
            values = []
            for kind, arg in batch:
                if kind == "pair":
                    values.append(nlgame.simple_strategy_losing_mass(self.n, arg))
                else:
                    values.append(nlgame.general_strategy_forbidden_mass(self.n, arg))
            return values

        wall, values, error = self.timed(sweep)
        result = RoundResult(wall, attempted=len(batch))
        if error:
            result.fail_all(error)
            return result
        result.output = repr(values)
        for (kind, arg), value in zip(batch, values):
            # exactness: a float zero is a failure, not a pass
            if type(value) is not Fraction or value != 0:
                result.failed += 1
                result.problems.append(f"{kind} {arg}: {value!r}")
        return result


class PlaySampled(Workload):
    """``nlgame play --game general --n 16``: seeded trials on a 2^16 register."""

    name = "play-sampled"
    uses = ("measure_qubit", "run_game", "make_general_game", "main", "Report.render")
    n = 16
    trials = 3

    def setup(self) -> None:
        super().setup()
        from nlgame import games, strategies

        games.make_general_game(self.n)
        strategies.quantum_general_strategy(self.n)

    def run_round(self, index: int) -> RoundResult:
        # play streams are SplitMix64(seed + trial): seeds S and S+1 share
        # all but one trial, so rounds and benchmark seeds are spaced apart
        play_seed = self.seed * 1_000_000 + index * self.trials
        argv = [
            "play", "--game", "general", "--n", str(self.n), "--trials",
            str(self.trials), "--seed", str(play_seed), "--format", "json",
        ]
        wall, value, error = self.timed(run_cli, argv)
        result = RoundResult(wall, attempted=self.trials)
        if error:
            result.fail_all(error)
            return result
        code, stdout, stderr = value
        result.output = stdout
        report, problem = _parse_report(code, stdout, stderr)
        if problem:
            result.fail_all(problem)
            return result
        res = report["results"]
        if res["trials"] != self.trials or res["broadcast_bits_max"] != 1:
            result.fail_all(f"unexpected play results {res}")
        else:
            result.failed = self.trials - res["wins"]
        return result


def independent_rows(rng: random.Random, count: int, dimension: int) -> list[int]:
    """``count`` linearly independent GF(2) vectors of ``dimension`` bits."""
    rows: list[int] = []
    basis: dict[int, int] = {}  # leading bit -> reduced vector
    while len(rows) < count:
        v = rng.getrandbits(dimension)
        w = v
        while w:
            top = w.bit_length() - 1
            if top not in basis:
                basis[top] = w
                rows.append(v)
                break
            w ^= basis[top]
    return rows


class Gf2Check(Workload):
    """``nlgame lemma --family`` on a passing and a failing 24-vector family."""

    name = "gf2-check"
    uses = ("check_gf2_condition", "main", "Report.render")
    rows = 24  # the cap of check_gf2_condition
    dimension = 32
    planted = range(18, 24)  # the last 6-subset in enumeration order

    def families(self, index: int) -> list[tuple[list[int], bool]]:
        rng = random.Random(f"gf2-check:{self.seed}:{index}")
        passing = independent_rows(rng, self.rows, self.dimension)
        # the only dependency among these rows is the planted 6-subset
        failing = independent_rows(rng, self.rows - 1, self.dimension)
        last = 0
        for i in self.planted[:-1]:
            last ^= failing[i]
        failing.append(last)
        return [(passing, True), (failing, False)]

    def run_round(self, index: int) -> RoundResult:
        cases = []
        for k, (rows, holds) in enumerate(self.families(index)):
            path = self.workdir / f"family-{index}-{k}.txt"
            path.write_text("".join(format(v, f"0{self.dimension}b") + "\n" for v in rows))
            cases.append((path, holds))

        def check_all():
            return [
                run_cli(["lemma", "--family", str(path), "--format", "json"])
                for path, _ in cases
            ]

        wall, values, error = self.timed(check_all)
        result = RoundResult(wall, attempted=len(cases))
        for path, _ in cases:
            path.unlink()
        if error:
            result.fail_all(error)
            return result
        result.output = "".join(stdout for _, stdout, _ in values)
        for (path, holds), (code, stdout, stderr) in zip(cases, values):
            report, problem = _parse_report(code, stdout, stderr)
            res = report["results"] if report else {}
            if problem or res["condition_holds"] is not holds or res["n"] != self.rows:
                result.failed += 1
                result.problems.append(
                    f"{path.name}: expected condition_holds={holds}; {problem or res}"
                )
        return result


WORKLOADS = {w.name: w for w in (VerifyReplay, CertifySweep, PlaySampled, Gf2Check)}
