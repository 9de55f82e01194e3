"""Spans around calls into nlgame's layers, recorded from outside the package.

The package is not edited.  Instead every module attribute (and class
attribute) of ``nlgame`` that *is* one of the mapped functions is replaced
by one shared wrapper, so a name copied by ``from .qsim import
measure_qubit`` is covered as well as the original.  Each call becomes a
span ``[name, start, end, parent, op]`` kept in memory; ``op`` is the index
of the top-level span (one call made by the benchmark itself) that the span
belongs to.  Counts that need the call's arguments or result are added by
small observers after the span closes.
"""

from __future__ import annotations

import statistics
import sys
from collections import defaultdict
from time import perf_counter

# (home module, attribute path, span name).  Several functions may share a
# span name; their spans are summed into one layer metric.
LAYER_MAP = (
    ("nlgame.qsim", "measure_qubit", "qsim.measure_qubit"),
    ("nlgame.qsim", "outcome_probability", "qsim.outcome_probability"),
    ("nlgame.games", "run_game", "games.run_game"),
    ("nlgame.games", "enumerate_branches", "games.enumerate_branches"),
    ("nlgame.games", "make_simple_game", "games.make_game"),
    ("nlgame.games", "make_general_game", "games.make_game"),
    ("nlgame.strategies", "simple_strategy_losing_mass", "strategies.sweep"),
    ("nlgame.strategies", "general_strategy_forbidden_mass", "strategies.sweep"),
    ("nlgame.strategies", "general_strategy_output_distribution", "strategies.sweep"),
    ("nlgame.bounds", "check_gf2_condition", "bounds.check_gf2_condition"),
    ("nlgame.bounds", "find_gf2_family", "bounds.search"),
    ("nlgame.bounds", "min_dimension_general", "bounds.search"),
    ("nlgame.bounds", "min_transcripts_simple", "bounds.search"),
    ("nlgame.bounds", "exhaustive_min_loss", "bounds.search"),
    ("nlgame.bounds", "verify_lemma_chain", "bounds.search"),
    ("nlgame.cli", "main", "cli.main"),
    ("nlgame.cli", "Report.render", "cli.render"),
)

ROOT_SPAN = "bench.round"


class TraceError(RuntimeError):
    """The wrappers do not cover the package, or a traced run is inconsistent."""


class Tracer:
    """Span store for one traced round; the root span is the round itself."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.peaks: defaultdict[str, int] = defaultdict(int)
        self.errors: defaultdict[tuple[str, str], int] = defaultdict(int)
        self._stack = [-1]

    def call(self, name, fn, args, kwargs, observe=None):
        spans = self.spans
        parent = self._stack[-1]
        idx = len(spans)
        rec = [name, 0.0, 0.0, parent, idx if parent <= 0 else spans[parent][4]]
        spans.append(rec)
        self._stack.append(idx)
        rec[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self.errors[name, type(exc).__name__] += 1
            raise
        finally:
            rec[2] = perf_counter()
            self._stack.pop()
        if observe is not None:
            observe(self, args, kwargs, result)
        return result


# --- observers: counts taken at the layer boundary -------------------------

def _observe_measure(tracer, args, kwargs, result):
    state = args[0] if args else kwargs["state"]
    support_in = len(state.support)
    support_out = len(result[1].support)
    counts = tracer.counts
    counts["qsim.measure_qubit.support_in"] += support_in
    counts["qsim.measure_qubit.amps_out"] += support_out
    counts["qsim.measure_qubit.dense_slots"] += 1 << state.num_qubits
    peak = max(support_in, support_out)
    if peak > tracer.peaks["qsim.support_peak"]:
        tracer.peaks["qsim.support_peak"] = peak


def _observe_outcome(tracer, args, kwargs, result):
    state = args[0] if args else kwargs["state"]
    tracer.counts["qsim.outcome_probability.support_in"] += len(state.support)


def _observe_make_game(tracer, args, kwargs, result):
    tracer.counts["games.instances_built"] += len(result.instances)


def _observe_render(tracer, args, kwargs, result):
    tracer.counts["cli.report_bytes"] += len(result.encode())


_OBSERVERS = {
    "qsim.measure_qubit": _observe_measure,
    "qsim.outcome_probability": _observe_outcome,
    "games.make_game": _observe_make_game,
    "cli.render": _observe_render,
}


def _make_wrapper(holder, path, name, fn):
    observe = _OBSERVERS.get(name)
    calls = holder.calls
    if name == "games.enumerate_branches":
        # a generator: time it only while it runs inside next()
        def traced_generator(*args, **kwargs):
            calls[path] += 1
            inner = fn(*args, **kwargs)

            def resume():
                while True:
                    try:
                        item = holder.tracer.call(name, next, (inner,), {})
                    except StopIteration:
                        return
                    holder.tracer.counts["games.enumerate_branches.branches"] += 1
                    yield item

            return resume()

        wrapper = traced_generator
    else:
        def traced(*args, **kwargs):
            calls[path] += 1
            return holder.tracer.call(name, fn, args, kwargs, observe)

        wrapper = traced
    wrapper.__name__ = fn.__name__
    wrapper.__qualname__ = fn.__qualname__
    wrapper.__doc__ = fn.__doc__
    wrapper.__wrapped__ = fn
    return wrapper


def _namespaces():
    # every loaded nlgame module, plus the classes it defines
    for mod_name, module in sorted(sys.modules.items()):
        if module is None or not (mod_name == "nlgame" or mod_name.startswith("nlgame.")):
            continue
        yield module
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__ == mod_name:
                yield value


def _resolve(module_name: str, path: str):
    obj = sys.modules.get(module_name)
    if obj is None:
        raise TraceError(f"{module_name} is not imported; {path} is bound nowhere")
    for part in path.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            raise TraceError(f"{module_name}.{path} is bound nowhere")
    return obj


class Installed:
    """Wrappers in place at every binding site; ``restore`` undoes them.

    ``calls`` counts calls per mapped attribute path over the whole
    installation; ``finished`` holds one tracer per ``run_root`` call.
    """

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.finished: list[Tracer] = []
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.originals: dict[int, tuple] = {}
        self.bindings: list[tuple] = []
        for module_name, path, span in LAYER_MAP:
            fn = _resolve(module_name, path)
            if id(fn) not in self.originals:
                self.originals[id(fn)] = (fn, span, _make_wrapper(self, path, span, fn))
        try:
            for ns in _namespaces():
                for attr, value in list(vars(ns).items()):
                    hit = self.originals.get(id(value))
                    if hit is not None and hit[0] is value:
                        setattr(ns, attr, hit[2])
                        self.bindings.append((ns, attr, value))
            self.check_complete()
        except BaseException:
            self.restore()
            raise

    def check_complete(self) -> None:
        """Raise if any nlgame namespace still binds an unwrapped original."""
        for ns in _namespaces():
            for attr, value in vars(ns).items():
                hit = self.originals.get(id(value))
                if hit is not None and hit[0] is value:
                    raise TraceError(
                        f"unwrapped binding {getattr(ns, '__name__', ns)}.{attr}"
                    )

    def restore(self) -> None:
        for ns, attr, value in reversed(self.bindings):
            setattr(ns, attr, value)
        self.bindings.clear()

    def run_root(self, fn, *args):
        """Call ``fn`` as the root span of a fresh tracer, kept in ``finished``."""
        self.tracer = tracer = Tracer()
        self.finished.append(tracer)
        return tracer.call(ROOT_SPAN, fn, args, {})

    def check_used(self, paths) -> None:
        """Raise if a mapped function the workload must reach was never called."""
        unused = [p for p in paths if not self.calls[p]]
        if unused:
            raise TraceError(f"mapped functions recorded zero calls: {unused}")


# --- aggregation -----------------------------------------------------------

def _self_times(spans):
    covered = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(sp[2] - sp[1]) - covered[i] for i, sp in enumerate(spans)]


def round_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """(exact counts, timings in seconds) of one traced round."""
    spans = tracer.spans
    self_s: defaultdict[str, float] = defaultdict(float)
    total_s: defaultdict[str, float] = defaultdict(float)
    calls: defaultdict[str, int] = defaultdict(int)
    for sp, own in zip(spans, _self_times(spans)):
        self_s[sp[0]] += own
        total_s[sp[0]] += sp[2] - sp[1]
        calls[sp[0]] += 1

    def parent_name(sp):
        return spans[sp[3]][0] if sp[3] >= 0 else None

    replays = sum(
        1
        for sp in spans
        if sp[0] == "games.run_game" and parent_name(sp) == "games.enumerate_branches"
    )
    oracle_in_sweeps = _calls_under(spans, "qsim.outcome_probability", "strategies.sweep")
    counts = {
        "qsim.measure_qubit.calls": calls["qsim.measure_qubit"],
        "qsim.measure_qubit.support_in": tracer.counts["qsim.measure_qubit.support_in"],
        "qsim.measure_qubit.amps_out": tracer.counts["qsim.measure_qubit.amps_out"],
        "qsim.measure_qubit.dense_slots": tracer.counts["qsim.measure_qubit.dense_slots"],
        "qsim.support_peak": tracer.peaks["qsim.support_peak"],
        "qsim.outcome_probability.calls": calls["qsim.outcome_probability"],
        "qsim.outcome_probability.support_in": tracer.counts[
            "qsim.outcome_probability.support_in"
        ],
        "strategies.sweep.calls": calls["strategies.sweep"],
        "strategies.sweep.oracle_calls": oracle_in_sweeps,
        "games.run_game.calls": calls["games.run_game"],
        "games.run_game.aborted": tracer.errors["games.run_game", "TapeExhausted"],
        "games.run_game.replays": replays,
        "games.enumerate_branches.branches": tracer.counts[
            "games.enumerate_branches.branches"
        ],
        "games.make_game.calls": calls["games.make_game"],
        "games.instances_built": tracer.counts["games.instances_built"],
        "bounds.check_gf2_condition.calls": calls["bounds.check_gf2_condition"],
        "bounds.search.calls": calls["bounds.search"],
        "cli.main.calls": calls["cli.main"],
        "cli.report_bytes": tracer.counts["cli.report_bytes"],
    }
    root = spans[0]
    timings = {
        "trace.wall_s": root[2] - root[1],
        "bench.self_s": self_s[ROOT_SPAN],
        "qsim.measure_qubit.self_s": self_s["qsim.measure_qubit"],
        "qsim.outcome_probability.self_s": self_s["qsim.outcome_probability"],
        "strategies.sweep.self_s": self_s["strategies.sweep"],
        "games.run_game.self_s": self_s["games.run_game"],
        "games.run_game.s": total_s["games.run_game"],
        "games.enumerate_branches.self_s": self_s["games.enumerate_branches"],
        "games.make_game.s": total_s["games.make_game"],
        "bounds.check_gf2_condition.self_s": self_s["bounds.check_gf2_condition"],
        "bounds.search.self_s": self_s["bounds.search"],
        "cli.main.self_s": self_s["cli.main"],
        "cli.render.s": total_s["cli.render"],
    }
    return counts, timings


def _calls_under(spans, name: str, ancestor: str) -> int:
    # spans named `name` with an `ancestor` span somewhere above them
    inside = [False] * len(spans)
    total = 0
    for i, sp in enumerate(spans):
        parent = sp[3]
        inside[i] = parent >= 0 and (inside[parent] or spans[parent][0] == ancestor)
        if sp[0] == name and inside[i]:
            total += 1
    return total


def summarize(rounds: list[tuple[dict, dict]], untraced_walls: list[float]) -> dict:
    """Per-layer metrics of repeated traced rounds of identical input.

    Counts must repeat exactly from round to round; timings are medians.
    """
    counts = rounds[0][0]
    for other, _ in rounds[1:]:
        if other != counts:
            diff = sorted(k for k in counts if counts[k] != other.get(k))
            raise TraceError(f"counts differ between identical traced rounds: {diff}")
    timings = {
        key: statistics.median(t[key] for _, t in rounds) for key in rounds[0][1]
    }
    wall = timings["trace.wall_s"]

    def ratio(num, den):
        return num / den if den else 0.0

    derived = {
        "games.replay_yield": ratio(
            counts["games.enumerate_branches.branches"], counts["games.run_game.replays"]
        ),
        "strategies.sweep.oracle_calls_per_call": ratio(
            counts["strategies.sweep.oracle_calls"], counts["strategies.sweep.calls"]
        ),
        "qsim.measure_qubit.wall_share": ratio(timings["qsim.measure_qubit.self_s"], wall),
        "qsim.measure_qubit.run_game_share": ratio(
            timings["qsim.measure_qubit.self_s"], timings["games.run_game.s"]
        ),
        "qsim.outcome_probability.wall_share": ratio(
            timings["qsim.outcome_probability.self_s"], wall
        ),
        "trace.overhead_s": wall - statistics.median(untraced_walls),
        "trace.rounds": len(rounds),
    }
    return {**counts, **timings, **derived}


def write_spans(path, spans) -> None:
    """One tab-separated line per span: id, name, start, end, parent, op."""
    t0 = spans[0][1] if spans else 0.0
    with open(path, "w") as out:
        out.write("id\tname\tstart_s\tend_s\tparent\top\n")
        for i, (name, start, end, parent, op) in enumerate(spans):
            out.write(f"{i}\t{name}\t{start - t0:.9f}\t{end - t0:.9f}\t{parent}\t{op}\n")
