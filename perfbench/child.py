"""One fresh process of the benchmark: set up, run rounds, report JSON.

    python3 perfbench/child.py --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
    python3 perfbench/child.py --workload NAME --seed N --setup-only

``run.py`` starts this with ``PYTHONPATH`` pointing at the checkout's
``src`` and ``NLGAME_WORKERS`` removed.  The last line of stdout is one
JSON object.  Untraced, rounds repeat until the next one would end past
``--seconds``.  Traced, round 0 runs alternately untraced and traced until
the time is spent (at least twice each), so traced counts and outputs can
be compared exactly with each other and with the untraced output.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import spans
from workloads import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"


def _setup(workload) -> float:
    start = perf_counter()
    workload.setup()
    elapsed = perf_counter() - start
    import nlgame

    if Path(nlgame.__file__).resolve().parent != SRC / "nlgame":
        raise SystemExit(f"nlgame imported from {nlgame.__file__}, not {SRC}")
    return elapsed


def _round_record(r) -> dict:
    return {
        "wall_s": r.wall_s,
        "attempted": r.attempted,
        "failed": r.failed,
        "problems": r.problems[:5],
    }


def run_untraced(workload, seconds: float) -> dict:
    rounds = []
    start = perf_counter()
    while True:
        r = workload.run_round(len(rounds))
        rounds.append(_round_record(r))
        if r.failed or perf_counter() - start + r.wall_s > seconds:
            break
    return {"rounds": rounds}


def run_traced(workload, seconds: float, spans_path: Path) -> dict:
    # untraced and traced executions of round 0 alternate, so the overhead
    # is a difference of medians taken over the same stretch of time
    start = perf_counter()
    rounds, untraced_walls, summaries = [], [], []
    while True:
        base = workload.run_round(0)
        installed = workload.tracing = spans.Installed()
        try:
            r = workload.run_round(0)
        finally:
            workload.tracing = None
            installed.restore()
        rounds += [_round_record(base), _round_record(r)]
        if base.failed or r.failed:
            return {"rounds": rounds}
        if r.output != base.output:
            raise spans.TraceError("traced output differs from the untraced output")
        installed.check_used(workload.uses)
        tracer = installed.finished[-1]
        summaries.append(spans.round_metrics(tracer))
        untraced_walls.append(base.wall_s)
        if len(summaries) == 1:
            spans.write_spans(spans_path, tracer.spans)
        if len(summaries) >= 2 and perf_counter() - start + base.wall_s + r.wall_s > seconds:
            break
    return {"rounds": rounds, "layers": spans.summarize(summaries, untraced_walls)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, default=Path("."))
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    out = {"setup_s": _setup(workload)}
    if not args.setup_only:
        if args.trace:
            spans_path = args.workdir.parent / f"spans-{args.workload}-seed{args.seed}.tsv"
            out.update(run_traced(workload, args.seconds, spans_path))
        else:
            out.update(run_untraced(workload, args.seconds))
        # ru_maxrss is in KiB on Linux
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
