"""Benchmark of nlgame's exact-evidence pipeline.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each workload runs in fresh single-threaded processes, one after another,
with ``NLGAME_WORKERS`` removed from the environment.  Untraced
(``--trace 0``) it reports the end-to-end metrics; traced (``--trace 1``)
it wraps every binding of the mapped nlgame functions and reports the
per-layer metrics.  Every run checks the program's outputs.  Human-readable
lines come first; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every output checked out; 2 when the checkout has no nlgame
sources to measure.

See perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 7  # fresh processes timing set-up; setup_s is their median
DEADLINE_S = 170  # a workload's processes must all end within this

END_TO_END = {
    "wall_s": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "qsim.measure_qubit.calls": "count",
    "qsim.measure_qubit.self_s": "s",
    "qsim.measure_qubit.support_in": "count",
    "qsim.measure_qubit.amps_out": "count",
    "qsim.measure_qubit.dense_slots": "count",
    "qsim.measure_qubit.wall_share": "ratio",
    "qsim.measure_qubit.run_game_share": "ratio",
    "qsim.support_peak": "count",
    "qsim.outcome_probability.calls": "count",
    "qsim.outcome_probability.self_s": "s",
    "qsim.outcome_probability.support_in": "count",
    "qsim.outcome_probability.wall_share": "ratio",
    "strategies.sweep.calls": "count",
    "strategies.sweep.self_s": "s",
    "strategies.sweep.oracle_calls_per_call": "count",
    "games.run_game.calls": "count",
    "games.run_game.self_s": "s",
    "games.run_game.s": "s",
    "games.run_game.aborted": "count",
    "games.enumerate_branches.branches": "count",
    "games.enumerate_branches.self_s": "s",
    "games.replay_yield": "ratio",
    "games.make_game.calls": "count",
    "games.make_game.s": "s",
    "games.instances_built": "count",
    "bounds.check_gf2_condition.calls": "count",
    "bounds.check_gf2_condition.self_s": "s",
    "bounds.search.calls": "count",
    "bounds.search.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.render.s": "s",
    "cli.report_bytes": "count",
    "bench.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.rounds": "count",
}

# self times that partition the traced round; their sum is trace.wall_s
SELF_TIMES = (
    "qsim.measure_qubit.self_s",
    "qsim.outcome_probability.self_s",
    "strategies.sweep.self_s",
    "games.run_game.self_s",
    "games.enumerate_branches.self_s",
    "games.make_game.s",
    "bounds.check_gf2_condition.self_s",
    "bounds.search.self_s",
    "cli.main.self_s",
    "cli.render.s",
    "bench.self_s",
)


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("NLGAME_WORKERS", None)  # unvalidated; could start worker processes
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], deadline: float) -> dict:
    """Run child.py in a fresh process and parse its last stdout line."""
    timeout = deadline - time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"child {args[:2]} timed out after {timeout:.0f} s") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise ChildFailed(f"child {args[:2]} exited {proc.returncode}: {' | '.join(tail)}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise ChildFailed(f"child {args[:2]} printed no result") from None


def measure(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload: its result object plus human-readable lines."""
    deadline = time.monotonic() + DEADLINE_S
    workdir = ROOT / ".perfbench" / f"work-{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    common = ["--workload", name, "--seed", str(seed), "--workdir", str(workdir)]
    lines: list[str] = []
    try:
        setups = []
        if not trace:
            for _ in range(SETUP_SAMPLES):
                setups.append(run_child([*common, "--setup-only"], deadline)["setup_s"])
        run = run_child([*common, "--seconds", str(seconds), "--trace", str(trace)], deadline)
    except ChildFailed as err:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                "lines": [f"{name}: FAILED: {err}"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = run["rounds"]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    for r in rounds:
        lines += [f"{name}: check failed: {p}" for p in r["problems"]]
    lines.append(
        f"{name}: {len(rounds)} rounds, {attempted} operations, {failed} failed, "
        f"error_rate {failed / attempted:g}"
    )
    if trace:
        layers = run.get("layers", {})
        metrics = {k: layers[k] for k in PER_LAYER if k in layers}
        units = PER_LAYER
        if layers:
            total = sum(layers[k] for k in SELF_TIMES)
            lines.append(
                f"{name}: self times sum to {total:.6f} s of traced wall "
                f"{layers['trace.wall_s']:.6f} s:"
            )
            lines += [
                f"{name}:   {k:36s} {layers[k]:10.6f} s  {layers[k] / total:6.1%}"
                for k in SELF_TIMES
            ]
    else:
        walls = [r["wall_s"] for r in rounds]
        metrics = {
            "wall_s": statistics.median(walls),
            "ops_per_s": statistics.median(r["attempted"] / r["wall_s"] for r in rounds),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": run["peak_rss_mb"],
        }
        units = END_TO_END
    correct = failed == 0 and set(metrics) == set(units)
    lines += [f"{name}: {k} = {v:.6g} {units[k]}" for k, v in metrics.items()]
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "lines": lines,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nlgame" / "__init__.py").is_file():
        print(f"perfbench: no nlgame sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = result = measure(name, args.seed, args.seconds, args.trace)
        for line in result.pop("lines"):
            print(line, flush=True)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{k}": v
                for name, r in results.items()
                for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
