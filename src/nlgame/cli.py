"""Command-line front end: seeded experiments, verification, tables.

Each subcommand's parser sets ``run`` to its ``cmd_*`` function, which
takes the parsed arguments and echoes exactly its own options (never the
format or output path) as the report's config.  Reports are deterministic
given their config: no timestamps, fixed key order, exact rationals
rendered as p/q plus a 12-significant-digit decimal.  The json and csv
renderings carry identical numeric content; text is a human-oriented view
of the same data.  Trials parallelize across processes when
NLGAME_WORKERS is set, with results merged in trial order so the report
does not depend on scheduling.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from csv import writer as csv_writer
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import partial
from io import StringIO
from json import dumps
from math import comb, log2, sqrt
from pathlib import Path
from types import SimpleNamespace

from . import __version__
from .bounds import (
    GF2Family,
    check_gf2_condition,
    exhaustive_min_loss,
    find_gf2_family,
    min_dimension_general,
    min_transcripts_simple,
    verify_lemma_chain,
)
from .games import (
    GameSpec,
    ProtocolViolation,
    SplitMix64,
    StepLimitExceeded,
    broadcast_complexity,
    check_strategy_fits,
    enumerate_branches,
    fold_runs,
    make_general_game,
    make_simple_game,
    run_game,
    sampled_runs,
)
from .qsim import ExactnessError
from .strategies import (
    classical_label_strategy,
    general_strategy_forbidden_mass,
    losing_probability_formula,
    simple_strategy_losing_mass,
    strategy_from_name,
)

__all__ = [
    "Report",
    "cmd_play",
    "cmd_verify",
    "cmd_table",
    "cmd_lemma",
    "build_parser",
    "main",
]

DEFAULT_SEED = 42
DEFAULT_N = 5

# verify walks all branches up to this n, and above it plays seeded runs on
# every instance only because the n = 9..12 reports' texts name those runs
_EXHAUSTIVE_RUNS = 8
_SAMPLED_RUNS_PER_INSTANCE = 8


class UsageError(ValueError):
    pass


def decimal_string(value: Fraction) -> str:
    """12-significant-digit decimal rendering of an exact rational."""
    with localcontext() as ctx:
        ctx.prec = 12
        return str(Decimal(value.numerator) / Decimal(value.denominator))


def fraction_fields(value: Fraction) -> dict:
    return {
        "ratio": f"{value.numerator}/{value.denominator}",
        "decimal": decimal_string(value),
    }


@dataclass
class Report:
    config: dict
    results: dict
    checks: list = field(default_factory=list)

    def payload(self) -> dict:
        return {
            "config": self.config,
            "results": self.results,
            "checks": self.checks,
            "version": __version__,
        }

    def failed_checks(self) -> list[str]:
        return [c["name"] for c in self.checks if c["status"] == "fail"]

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return dumps(self.payload(), indent=2, sort_keys=True) + "\n"
        if fmt == "csv":
            return self._render_csv()
        if fmt == "text":
            return self._render_text()
        raise UsageError(f"unknown format {fmt!r}")

    def _render_csv(self) -> str:
        buf = StringIO()
        out = csv_writer(buf, lineterminator="\n")
        out.writerow(["key", "value"])
        for key, value in _flatten(self.payload()):
            out.writerow([key, value])
        return buf.getvalue()

    def _render_text(self) -> str:
        lines = [f"nlgame report (version {__version__})", "[config]"]
        for key, value in _flatten(self.config):
            lines.append(f"  {key} = {value}")
        lines.append("[results]")
        rows = self.results.get("rows")
        if isinstance(rows, list) and rows and isinstance(rows[0], dict):
            lines += _text_table(rows)
            extra = {k: v for k, v in self.results.items() if k != "rows"}
            for key, value in _flatten(extra):
                lines.append(f"  {key} = {value}")
        else:
            for key, value in _flatten(self.results):
                lines.append(f"  {key} = {value}")
        if self.checks:
            lines.append("[checks]")
            for c in self.checks:
                lines.append(f"  {c['status'].upper():4s} {c['name']}: {c['detail']}")
        return "\n".join(lines) + "\n"


def _scalar(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool) or isinstance(value, (int, float)):
        return dumps(value)
    return str(value)


def _flatten(value, prefix: str = ""):
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _flatten(value[key], f"{prefix}.{key}" if prefix else key)
    elif isinstance(value, (list, tuple)):
        for idx, item in enumerate(value):
            yield from _flatten(item, f"{prefix}.{idx}")
    else:
        yield prefix, _scalar(value)


def _text_table(rows: list[dict]) -> list[str]:
    columns = list(rows[0])
    cells = [[_scalar(r.get(c)) or "-" for c in columns] for r in rows]
    widths = [
        max(len(c), max(len(row[k]) for row in cells)) for k, c in enumerate(columns)
    ]
    header = "  " + "  ".join(c.ljust(widths[k]) for k, c in enumerate(columns))
    rule = "  " + "  ".join("-" * w for w in widths)
    body = ["  " + "  ".join(row[k].rjust(widths[k]) for k in range(len(columns)))
            for row in cells]
    return [header, rule] + body


# ---------------------------------------------------------------------------
# play

def _build_spec(game: str, n: int) -> GameSpec:
    return make_simple_game(n) if game == "simple" else make_general_game(n)


def _default_strategy(game: str) -> str:
    return "quantum-simple" if game == "simple" else "quantum-general"


def _run_trial_block(
    game: str, n: int, strategy_name: str, seed: int, start: int, count: int
) -> tuple[int, Counter]:
    # rebuilt per process: specs and strategies hold closures and do not pickle
    spec = _build_spec(game, n)
    strategy = strategy_from_name(strategy_name, n)
    wins = 0
    histogram: Counter = Counter()
    for result in sampled_runs(spec, strategy, seed, count, start):
        wins += result.won
        histogram[result.broadcast_bits] += 1
    return wins, histogram


def _worker_count() -> int:
    """NLGAME_WORKERS as a process count: unset is 1, and at most the CPU count."""
    raw = os.environ.get("NLGAME_WORKERS", "").strip()
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise UsageError(f"NLGAME_WORKERS must be an integer >= 1, got {raw!r}")
    return min(value, os.cpu_count() or 1)


def ProcessPoolExecutor(max_workers: int):
    # imported on first use: multiprocessing adds about 2 MB to a one-process run
    from concurrent.futures import ProcessPoolExecutor as pool
    return pool(max_workers=max_workers)


def _play_sampled(game: str, n: int, strategy_name: str, seed: int, trials: int) -> dict:
    args = (game, n, strategy_name, seed)
    workers = min(_worker_count(), trials)
    if workers > 1:
        chunk = -(-trials // workers)
        blocks = [
            (*args, start, min(chunk, trials - start))
            for start in range(0, trials, chunk)
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_trial_block_star, blocks))
    else:
        parts = [_run_trial_block(*args, 0, trials)]
    wins = sum(p[0] for p in parts)
    histogram = sum((p[1] for p in parts), Counter())
    rate = Fraction(wins, trials)
    return {
        "trials": trials,
        "wins": wins,
        "losses": trials - wins,
        "win_rate_decimal": decimal_string(rate),
        "loss_rate_decimal": decimal_string(1 - rate),
        "broadcast_bits_max": max(histogram),
        "broadcast_bits_histogram": [
            [bits, histogram[bits]] for bits in sorted(histogram)
        ],
    }


def _run_trial_block_star(block) -> tuple[int, Counter]:
    return _run_trial_block(*block)


def _play_exhaustive(spec: GameSpec, strategy) -> dict:
    masses, bits = fold_runs(spec, strategy)
    return {
        "instances": len(masses),
        "win_rate": fraction_fields(sum(masses, Fraction(0)) / len(masses)),
        "min_instance_win_rate": fraction_fields(min(masses)),
        "broadcast_bits_max": max(bits),
        "all_branches_won": all(mass == 1 for mass in masses),
    }


def cmd_play(args: argparse.Namespace) -> Report:
    name = args.strategy or _default_strategy(args.game)
    try:
        # validates game, n and strategy before any run starts
        spec = _build_spec(args.game, args.n)
        strategy = strategy_from_name(name, args.n)
        check_strategy_fits(spec, strategy)
    except ValueError as err:
        raise UsageError(str(err)) from None
    trials = None if args.exhaustive else args.trials
    config = {
        "command": "play", "seed": args.seed, "game": args.game, "n": args.n,
        "strategy": name, "mode": "exhaustive" if args.exhaustive else "play",
        "trials": trials,
    }
    if args.exhaustive:
        results = _play_exhaustive(spec, strategy)
    else:
        results = _play_sampled(args.game, args.n, name, args.seed, trials)
    return Report(config=config, results=results)


# ---------------------------------------------------------------------------
# verify

# per game: the texts for a nonzero mass, a pass and a failed run, and the
# fewest broadcast bits a run may use (the most is 1)
_CERTAINTY = {
    "simple": (
        "nonzero losing mass at pairs {}",
        "losing mass exactly 0 on all {} pairs; broadcast bits = 1 ({})",
        "expected 1 broadcast bit and wins, got max {} bits",
        1,
    ),
    "general": (
        "nonzero even-parity mass at C = {}",
        "even-parity mass exactly 0 on all {} chosen sets; broadcast bits <= 1 ({})",
        "expected <= 1 broadcast bit and wins, got max {}",
        0,
    ),
}


def _check_quantum(game: str, n: int, seed: int, fold: SimpleNamespace) -> tuple[bool, str, dict]:
    bad_text, pass_text, runs_text, min_bits = _CERTAINTY[game]
    # looked up per call, so a wrapper bound over either name sees the calls
    mass = simple_strategy_losing_mass if game == "simple" else general_strategy_forbidden_mass
    spec = _build_spec(game, n)
    strategy = strategy_from_name(_default_strategy(game), n)
    start, fold.size = fold.size, spec.instances.size
    assert start <= fold.size, "the pair check must run before the parity check"
    # a permutation of the players that maps one chosen set onto another in
    # order, and the rest onto the rest, fixes the GHZ state and maps each
    # player's role, basis and messages onto its image's, so both instances have
    # the same mass and leaves (won, bits, weight): sweep and walk each size's first
    firsts, index = [], start  # ``start`` is where a size begins
    while index < fold.size:
        firsts.append(spec.instances[index])
        index += comb(n, len(firsts[-1].chosen))
    fold.bad += [first.chosen for first in firsts if mass(n, first.chosen) != 0]
    if fold.bad:
        return False, bad_text.format(fold.bad), {}
    reps = _SAMPLED_RUNS_PER_INSTANCE

    def seeded(index):
        instance = spec.instances[index]
        for rng in map(partial(SplitMix64.stream, seed, index), range(reps)):
            yield run_game(instance, strategy, rng), Fraction(1, reps)

    if n <= _EXHAUSTIVE_RUNS:
        how, walks = "all branches", (enumerate_branches(first, strategy) for first in firsts)
    else:
        how, walks = f"{reps} seeded runs per instance", map(seeded, range(start, fold.size))
    masses, bits = fold_runs(spec, strategy, walks)
    fold.bits |= bits
    # a yielded run that lost, or a branch the runs missed, leaves a mass below 1
    fold.all_won &= all(mass == 1 for mass in masses)
    if not (fold.all_won and min_bits <= min(fold.bits) and max(fold.bits) <= 1):
        return False, runs_text.format(max(fold.bits)), {}
    return True, pass_text.format(spec.instances.size, how), {}


def _check_min_loss(n: int) -> tuple[bool, str, dict]:
    search = exhaustive_min_loss(n)
    formula = losing_probability_formula(n)
    data = {"min_loss": fraction_fields(search.min_loss)}
    if search.min_loss != formula:
        return False, (
            f"search gives {search.min_loss}, formula gives {formula}"
        ), data
    p = search.min_loss
    return True, f"p({n}) = {p.numerator}/{p.denominator} matches the formula", data


def _check_transcripts(n: int) -> tuple[bool, str, dict]:
    found = min_transcripts_simple(n)
    expected = (n - 1).bit_length()
    data = {"min_transcripts": found}
    if found != expected:
        return False, f"search gives {found}, ceil(log2 {n}) = {expected}", data
    return True, (
        f"l_min = {found} = ceil(log2 {n}); implies broadcast bits >= log2 log2 {n}"
    ), data


def _check_labeling(n: int) -> tuple[bool, str, dict]:
    width = max(1, (n - 1).bit_length())
    max_bits, all_won = broadcast_complexity(make_general_game(n), classical_label_strategy(n))
    if not (all_won and max_bits == width):
        return False, f"expected wins at {width} bits, got max {max_bits}", {}
    return True, f"wins every instance at exactly {width} broadcast bits", {}


def _check_lemma_chain(n: int) -> tuple[bool, str, dict]:
    report = verify_lemma_chain(n)
    data = {"lemma_chain": report.as_dict()}
    if not report.all_hold():
        return False, "bound chain violated", data
    return True, (
        f"l_min = {report.min_dimension} >= sqrt({n}) - 2 = {report.sqrt_bound:g}; "
        f"upper bound {report.transcript_upper_bound} holds"
    ), data


# (name, lo, hi, runner(n, seed, fold)), run for lo <= n <= hi; the pair check goes first
_VERIFY_CHECKS = (
    ("simple-quantum-certainty", 3, 12, partial(_check_quantum, "simple")),
    ("general-quantum-certainty", 2, 12, partial(_check_quantum, "general")),
    ("classical-min-loss-formula", 5, 12, lambda n, *_: _check_min_loss(n)),
    ("simple-transcript-lower-bound", 2, 16, lambda n, *_: _check_transcripts(n)),
    ("labeling-universality", 2, 10, lambda n, *_: _check_labeling(n)),
    ("gf2-lemma-chain", 2, 10, lambda n, *_: _check_lemma_chain(n)),
)


def cmd_verify(args: argparse.Namespace) -> Report:
    n = args.n
    if not any(lo <= n <= hi for _, lo, hi, _ in _VERIFY_CHECKS):
        # the check domains overlap, so together they cover one interval
        lo = min(c[1] for c in _VERIFY_CHECKS)
        hi = max(c[2] for c in _VERIFY_CHECKS)
        raise UsageError(f"verify defines no check at n = {n}; use {lo} <= n <= {hi}")
    checks: list[dict] = []
    results: dict = {"n": n}
    # the certainty checks' findings (the nonzero-mass sizes' first chosen
    # sets, broadcast bit counts, whether every instance was won with
    # probability exactly 1) on the parity game's first ``size`` instances;
    # the pair game is its leading |C| = 2 slice, so the parity check goes on
    # where the pair check stopped
    fold = SimpleNamespace(size=0, bad=[], bits=set(), all_won=True)
    for name, lo, hi, runner in _VERIFY_CHECKS:
        if not lo <= n <= hi:
            checks.append(
                {"name": name, "status": "skipped", "detail": f"defined for {lo} <= n <= {hi}"}
            )
            continue
        passed, detail, data = runner(n, args.seed, fold)
        results.update(data)
        checks.append(
            {"name": name, "status": "pass" if passed else "fail", "detail": detail}
        )

    for status, key in (("pass", "passed"), ("fail", "failed"), ("skipped", "skipped")):
        results[key] = sum(c["status"] == status for c in checks)
    config = {"command": "verify", "seed": args.seed, "n": n}
    return Report(config=config, results=results, checks=checks)


# ---------------------------------------------------------------------------
# table

def _parse_range(text: str) -> tuple[int, int]:
    parts = text.split(":")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise UsageError(f"expected N or LO:HI, got {text!r}") from None
    if lo > hi:
        raise UsageError(f"empty range {text!r}")
    return lo, hi


def cmd_table(args: argparse.Namespace) -> Report:
    lo, hi = _parse_range(args.n)
    # the echo keeps the range as given
    config = {"command": "table", "seed": args.seed, "n_range": [lo, hi]}
    lo, hi = max(lo, 5), min(hi, 64)  # formula domain
    if lo > hi:
        raise UsageError("range does not intersect the formula domain [5, 64]")
    rows = []
    for n in range(lo, hi + 1):
        p = losing_probability_formula(n)
        rows.append(
            {
                "n": n,
                "p_ratio": f"{p.numerator}/{p.denominator}",
                "p_decimal": decimal_string(p),
                "ceil_log2_n": (n - 1).bit_length(),
                "log2_log2_n": log2(log2(n)),
                "half_log2_n_minus_2": log2(n) / 2 - 2.0,
                "sqrt_n_minus_2": sqrt(n) - 2.0,
                "l_min_simple": min_transcripts_simple(n) if n <= 16 else None,
                "l_min_general": min_dimension_general(n) if n <= 10 else None,
            }
        )
    results = {"rows": rows, "range": [lo, hi]}
    return Report(config=config, results=results)


# ---------------------------------------------------------------------------
# lemma

def cmd_lemma(args: argparse.Namespace) -> Report:
    if args.family is not None and args.n is not None:
        raise UsageError("lemma --family checks the file's own n; drop --n")
    n = DEFAULT_N if args.family is None and args.n is None else args.n
    max_l = args.max_l
    config = {
        "command": "lemma", "seed": args.seed, "n": n, "max_l": max_l, "family": args.family,
    }
    if args.family is not None:
        try:
            lines = Path(args.family).read_text().splitlines()
        except OSError as err:
            raise UsageError(f"cannot read family file: {err}") from None
        try:
            family = GF2Family.from_lines(lines)
            holds = check_gf2_condition(family)
        except ValueError as err:
            raise UsageError(f"bad family file: {err}") from None
        results = {
            "n": family.n,
            "dimension": family.dimension,
            "condition_holds": holds,
        }
        return Report(config=config, results=results)

    if not 2 <= n <= 10:
        raise UsageError(f"lemma search supports 2 <= n <= 10, got {n}")
    if max_l is not None:
        searches = (find_gf2_family(n, d) for d in range(1, max_l + 1))
        found = next((family for family in searches if family is not None), None)
        results = {
            "n": n,
            "max_l": max_l,
            "found_dimension": found.dimension if found else None,
            "witness": found.to_lines() if found else None,
        }
        return Report(config=config, results=results)

    report = verify_lemma_chain(n)
    witness = find_gf2_family(n, report.min_dimension)
    assert witness is not None
    results = dict(report.as_dict())
    results["witness"] = witness.to_lines()
    checks = [
        {
            "name": "lemma-chain",
            "status": "pass" if report.all_hold() else "fail",
            "detail": (
                f"sqrt({n}) - 2 <= l_min = {report.min_dimension} "
                f"<= {report.transcript_upper_bound}"
            ),
        }
    ]
    return Report(config=config, results=results, checks=checks)


# ---------------------------------------------------------------------------
# argument parsing and dispatch

def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlgame",
        description="Simulator and verifier for the n-player pair and parity games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument(
            "--format", choices=("json", "csv", "text"), default="text"
        )
        p.add_argument("--out", metavar="PATH")

    play = sub.add_parser("play", help="run seeded or exhaustive games")
    play.add_argument("--game", choices=("simple", "general"), default="simple")
    play.add_argument("--n", type=int, default=DEFAULT_N)
    play.add_argument("--strategy", metavar="NAME")
    play.add_argument("--trials", type=_positive_int, default=1000)
    play.add_argument(
        "--exhaustive",
        action="store_true",
        help="fold over every instance and randomness branch instead of sampling",
    )
    add_common(play)
    play.set_defaults(run=cmd_play)

    verify = sub.add_parser("verify", help="run the invariant suite for one n")
    verify.add_argument("--n", type=int, default=DEFAULT_N)
    add_common(verify)
    verify.set_defaults(run=cmd_verify)

    table = sub.add_parser("table", help="emit the bound table over a range of n")
    table.add_argument("--n", metavar="N|LO:HI", default="5:16")
    add_common(table)
    table.set_defaults(run=cmd_table)

    lemma = sub.add_parser("lemma", help="subset-parity condition checks and searches")
    lemma.add_argument("--n", type=int)  # DEFAULT_N for a search; a family has its own
    # a family file is checked, not searched, so a search cap has no use there
    source = lemma.add_mutually_exclusive_group()
    source.add_argument("--family", metavar="PATH")
    source.add_argument("--max-l", dest="max_l", type=_positive_int)
    add_common(lemma)
    lemma.set_defaults(run=cmd_lemma)
    return parser


def _error(code: int, message: str) -> int:
    print(f"nlgame: error: {message}", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    """Exit 0 when every check passes, 1 when one fails, 2 for input outside
    a supported domain, 3 when the engine breaks one of its own invariants."""
    args = build_parser().parse_args(argv)
    try:
        report = args.run(args)
        rendered = report.render(args.format)
    except UsageError as err:
        return _error(2, str(err))
    except (ExactnessError, ProtocolViolation, StepLimitExceeded) as err:
        return _error(3, f"{type(err).__name__}: {err}")
    if args.out:
        try:
            Path(args.out).write_text(rendered)
        except OSError as err:
            return _error(2, f"cannot write report: {err}")
    else:
        sys.stdout.write(rendered)
    failed = report.failed_checks()
    if failed:
        print("failed checks: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
