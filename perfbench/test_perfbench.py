"""Self-tests of the benchmark: gates trip, tracing is complete and repeatable.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import nlgame  # noqa: E402
import nlgame.cli  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

COUNT_KEYS = (
    "qsim.measure_qubit.calls",
    "qsim.measure_qubit.support_in",
    "qsim.measure_qubit.amps_out",
    "qsim.outcome_probability.calls",
    "games.run_game.calls",
    "games.run_game.aborted",
    "games.enumerate_branches.branches",
    "games.instances_built",
)


def _traced(argv):
    installed = spans.Installed()
    try:
        result = installed.run_root(workloads.run_cli, argv)
    finally:
        installed.restore()
    return installed, result


def test_counts_repeat_across_traced_runs_and_output_is_unchanged():
    argv = ["verify", "--n", "5", "--format", "json"]
    untraced = workloads.run_cli(argv)
    first, out1 = _traced(argv)
    second, out2 = _traced(argv)
    assert out1 == out2 == untraced
    counts1, _ = spans.round_metrics(first.finished[0])
    counts2, _ = spans.round_metrics(second.finished[0])
    assert counts1 == counts2
    assert all(counts1[k] > 0 for k in COUNT_KEYS)


def test_self_times_partition_the_round():
    installed, _ = _traced(["verify", "--n", "4", "--format", "json"])
    tracer = installed.finished[0]
    _, timings = spans.round_metrics(tracer)
    parts = sum(timings[k] for k in run.SELF_TIMES)
    assert parts == pytest.approx(timings["trace.wall_s"], rel=1e-9)


def test_wrappers_cover_every_binding_and_restore():
    original = nlgame.qsim.measure_qubit
    installed = spans.Installed()
    try:
        wrapped = nlgame.qsim.measure_qubit
        assert wrapped is not original
        # the copies made by `from .qsim import measure_qubit` share the wrapper
        assert nlgame.strategies.measure_qubit is wrapped
        assert nlgame.measure_qubit is wrapped
        assert nlgame.cli.run_game is nlgame.games.run_game is nlgame.run_game
        assert nlgame.cli.Report.render.__wrapped__ is not None
        assert sum(value is original for _, _, value in installed.bindings) >= 3
    finally:
        installed.restore()
    assert nlgame.qsim.measure_qubit is original
    assert nlgame.strategies.measure_qubit is original


def test_unwrapped_binding_trips_completeness_check():
    installed = spans.Installed()
    probe = types.ModuleType("nlgame._unwrapped_probe")
    probe.measure_qubit = installed.bindings[0][2]  # an original function
    sys.modules[probe.__name__] = probe
    try:
        with pytest.raises(spans.TraceError, match="unwrapped binding"):
            installed.check_complete()
    finally:
        del sys.modules[probe.__name__]
        installed.restore()


def test_mapped_function_bound_nowhere_is_refused(monkeypatch):
    monkeypatch.setattr(
        spans, "LAYER_MAP", spans.LAYER_MAP + (("nlgame.qsim", "no_such_fn", "qsim.x"),)
    )
    with pytest.raises(spans.TraceError, match="bound nowhere"):
        spans.Installed()
    assert not hasattr(nlgame.qsim.measure_qubit, "__wrapped__")


def test_zero_calls_on_a_used_function_is_refused():
    installed, _ = _traced(["lemma", "--n", "4", "--format", "json"])
    installed.check_used(["main", "verify_lemma_chain"])
    with pytest.raises(spans.TraceError, match="zero calls"):
        installed.check_used(["measure_qubit"])


def test_reference_report_rerenders_byte_for_byte():
    text = (workloads.REFERENCE_DIR / "verify-n7.json").read_text()
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text


def test_mutated_reference_trips_the_verify_gate(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "REFERENCE_DIR", tmp_path)
    workload = workloads.VerifyReplay(3, tmp_path)
    workload.n = 5
    _, report, _ = workloads.run_cli(["verify", "--n", "5", "--format", "json", "--seed", "0"])
    (tmp_path / "verify-n5.json").write_text(report)
    good = workload.run_round(0)
    assert good.attempted == 6 and good.failed == 0, good.problems

    (tmp_path / "verify-n5.json").write_text(report.replace('"pass"', '"PASS"', 1))
    bad = workload.run_round(0)
    assert bad.failed == bad.attempted == 6
    assert "reference" in bad.problems[-1]


def test_certify_gate_rejects_a_float_zero(tmp_path, monkeypatch):
    workload = workloads.CertifySweep(1, tmp_path)
    workload.n, workload.rounds = 6, 4
    assert workload.run_round(0).failed == 0
    monkeypatch.setattr(nlgame, "simple_strategy_losing_mass", lambda n, pair: 0.0)
    monkeypatch.setattr(nlgame, "general_strategy_forbidden_mass", lambda n, c: 0.0)
    bad = workload.run_round(0)
    assert bad.failed == bad.attempted == 9


def test_certify_rounds_split_every_kind_evenly(tmp_path):
    workload = workloads.CertifySweep(7, tmp_path)
    batches = [workload.batch(r) for r in range(workload.rounds)]
    assert all(len(b) == 53 for b in batches)
    assert len({item for b in batches for item in b}) == 583
    assert workload.batch(workload.rounds) == batches[0]
    assert workloads.CertifySweep(8, tmp_path).batch(0) != batches[0]


def test_gf2_families_hold_by_construction(tmp_path):
    workload = workloads.Gf2Check(5, tmp_path)
    (passing, holds), (failing, fails) = workload.families(0)
    assert holds and not fails
    assert len(passing) == len(failing) == 24
    assert len(set(passing)) == 24
    planted = 0
    for i in workload.planted:
        planted ^= failing[i]
    assert planted == 0
    assert workload.families(0) == workload.families(0)
    assert workload.families(1) != workload.families(0)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gf2-check", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
