"""CLI behavior: exit codes, report formats, reproducibility, workers."""

import dataclasses
import json
from fractions import Fraction

import pytest

import nlgame.games
from nlgame import AssignmentSearchResult, cli
from nlgame.cli import (
    Report,
    decimal_string,
    fraction_fields,
    main,
)
from nlgame.games import Action


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# rendering primitives


def test_decimal_string_is_twelve_significant_digits():
    assert decimal_string(Fraction(1, 10)) == "0.1"
    assert decimal_string(Fraction(1, 7)) == "0.142857142857"
    assert decimal_string(Fraction(2, 15)) == "0.133333333333"
    assert decimal_string(Fraction(1)) == "1"
    assert decimal_string(Fraction(1, 3)) == "0.333333333333"


def test_fraction_fields_shape():
    assert fraction_fields(Fraction(1, 10)) == {
        "ratio": "1/10",
        "decimal": "0.1",
    }


def test_config_echo_never_carries_the_format(capsys):
    # the same experiment rendered as json and csv must carry identical
    # content, so the format key must stay out of the config echo
    for argv in (
        ["play", "--strategy", "quantum-simple", "--trials", "5"],
        ["verify"],
        ["table", "--n", "5:7"],
        ["lemma"],
    ):
        code, out, _ = run_cli(argv + ["--format", "json"], capsys)
        assert code == 0
        config = json.loads(out)["config"]
        assert "format" not in config
        assert "output_format" not in config


def test_report_render_rejects_unknown_format():
    report = Report(config={}, results={})
    with pytest.raises(cli.UsageError):
        report.render("yaml")


def test_failed_checks_listing():
    report = Report(
        config={},
        results={},
        checks=[
            {"name": "a", "status": "pass", "detail": ""},
            {"name": "b", "status": "fail", "detail": ""},
            {"name": "c", "status": "skipped", "detail": ""},
        ],
    )
    assert report.failed_checks() == ["b"]


# ---------------------------------------------------------------------------
# play


def test_play_sampled_json(capsys):
    code, out, err = run_cli(
        [
            "play",
            "--game",
            "simple",
            "--n",
            "5",
            "--trials",
            "50",
            "--seed",
            "7",
            "--format",
            "json",
        ],
        capsys,
    )
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["config"]["strategy"] == "quantum-simple"  # default filled in
    assert payload["config"]["trials"] == 50
    results = payload["results"]
    assert results["wins"] == 50 and results["losses"] == 0
    assert results["broadcast_bits_histogram"] == [[1, 50]]
    assert results["win_rate_decimal"] == "1"
    assert payload["version"]


def test_play_exhaustive_json(capsys):
    code, out, _ = run_cli(
        ["play", "--n", "4", "--exhaustive", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["mode"] == "exhaustive"
    assert payload["config"]["trials"] is None
    results = payload["results"]
    assert results["instances"] == 6
    assert results["all_branches_won"] is True
    assert results["win_rate"] == {"ratio": "1/1", "decimal": "1"}
    assert results["min_instance_win_rate"]["ratio"] == "1/1"
    assert results["broadcast_bits_max"] == 1


def test_play_general_game_with_atoms_strategy(capsys):
    code, out, _ = run_cli(
        [
            "play",
            "--game",
            "simple",
            "--n",
            "5",
            "--strategy",
            "classical-atoms:0,1,b,nb,0",
            "--exhaustive",
            "--format",
            "json",
        ],
        capsys,
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["all_branches_won"] is False
    assert results["win_rate"]["ratio"] == "9/10"  # loses exactly pair (1, 5)


def test_play_usage_errors(capsys):
    code, _, err = run_cli(["play", "--strategy", "telepathy"], capsys)
    assert code == 2
    assert "telepathy" in err
    code, _, err = run_cli(
        ["play", "--game", "general", "--strategy", "classical-atoms:0,1"], capsys
    )
    assert code == 2


def test_argparse_rejects_bad_values(capsys):
    with pytest.raises(SystemExit) as info:
        main(["play", "--trials", "0"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["play", "--format", "yaml"])
    assert info.value.code == 2
    with pytest.raises(SystemExit):
        main(["conquer"])
    capsys.readouterr()


# ---------------------------------------------------------------------------
# verify


def test_verify_passes_and_reports_all_checks(capsys):
    code, out, err = run_cli(["verify", "--n", "5", "--format", "json"], capsys)
    assert code == 0 and err == ""
    payload = json.loads(out)
    names = [c["name"] for c in payload["checks"]]
    assert names == [
        "simple-quantum-certainty",
        "general-quantum-certainty",
        "classical-min-loss-formula",
        "simple-transcript-lower-bound",
        "labeling-universality",
        "gf2-lemma-chain",
    ]
    assert all(c["status"] == "pass" for c in payload["checks"])
    assert payload["results"]["passed"] == 6
    assert payload["results"]["failed"] == 0
    assert payload["results"]["min_loss"]["ratio"] == "1/10"
    assert payload["results"]["min_transcripts"] == 3
    assert payload["results"]["lemma_chain"]["min_dimension"] == 3


def test_verify_out_of_range_checks_are_skipped(capsys):
    code, out, _ = run_cli(["verify", "--n", "14", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    status = {c["name"]: c["status"] for c in payload["checks"]}
    assert status["classical-min-loss-formula"] == "skipped"
    assert status["labeling-universality"] == "skipped"
    assert status["gf2-lemma-chain"] == "skipped"
    assert status["simple-transcript-lower-bound"] == "pass"
    assert payload["results"]["skipped"] == 5
    assert payload["results"]["passed"] == 1


@pytest.mark.parametrize("n", [1, 17])
def test_verify_outside_every_check_domain_exits_2(n, capsys):
    code, out, err = run_cli(["verify", "--n", str(n)], capsys)
    assert code == 2 and out == ""
    assert err == f"nlgame: error: verify defines no check at n = {n}; use 2 <= n <= 16\n"


def test_verify_exit_code_one_on_failed_check(capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "_check_labeling", lambda n: (False, "forced failure for the test", {})
    )
    code, out, err = run_cli(["verify", "--n", "4"], capsys)
    assert code == 1
    assert "failed checks: labeling-universality" in err
    assert "FAIL" in out


def _failing_verify(capsys, name):
    # verify --n 5 with one check failing; returns its detail and the results
    code, out, err = run_cli(["verify", "--n", "5", "--format", "json"], capsys)
    payload = json.loads(out)
    status = {c["name"]: c["status"] for c in payload["checks"]}
    assert code == 1
    assert err == f"failed checks: {name}\n"
    assert [c for c, s in status.items() if s == "fail"] == [name]
    return next(c["detail"] for c in payload["checks"] if c["name"] == name), payload["results"]


def test_verify_reports_a_min_loss_that_misses_the_formula(capsys, monkeypatch):
    wrong = AssignmentSearchResult(min_loss=Fraction(1, 5), argmin_profiles=((2, 1, 1, 1),))
    monkeypatch.setattr(cli, "exhaustive_min_loss", lambda n: wrong)
    detail, results = _failing_verify(capsys, "classical-min-loss-formula")
    assert detail == "search gives 1/5, formula gives 1/10"
    assert results["min_loss"] == {"ratio": "1/5", "decimal": "0.2"}


def test_verify_reports_a_transcript_count_that_misses_the_log(capsys, monkeypatch):
    monkeypatch.setattr(cli, "min_transcripts_simple", lambda n: 4)
    detail, results = _failing_verify(capsys, "simple-transcript-lower-bound")
    assert detail == "search gives 4, ceil(log2 5) = 3"
    assert results["min_transcripts"] == 4


def test_verify_reports_a_violated_bound_chain(capsys, monkeypatch):
    real = cli.verify_lemma_chain
    monkeypatch.setattr(
        cli,
        "verify_lemma_chain",
        lambda n: dataclasses.replace(real(n), lower_bound_holds=False),
    )
    detail, results = _failing_verify(capsys, "gf2-lemma-chain")
    assert detail == "bound chain violated"
    assert results["lemma_chain"]["lower_bound_holds"] is False
    assert results["lemma_chain"]["min_dimension"] == 3


def _drop_last_leaf_of_first_walk(monkeypatch):
    # ``fold_runs`` walks through the games module's binding; the certainty
    # checks walk through cli's own, so they see every leaf
    real, walks = nlgame.games.enumerate_branches, []

    def walk(instance, strategy):
        leaves = list(real(instance, strategy))
        walks.append(instance)
        return iter(leaves[:-1] if len(walks) == 1 else leaves)

    monkeypatch.setattr(nlgame.games, "enumerate_branches", walk)


def test_play_exhaustive_verdict_reads_the_masses(capsys, monkeypatch):
    # every yielded run still wins, but the first instance misses a branch
    _drop_last_leaf_of_first_walk(monkeypatch)
    code, out, _ = run_cli(
        ["play", "--game", "general", "--n", "6", "--exhaustive", "--format", "json"], capsys
    )
    results = json.loads(out)["results"]
    assert code == 0
    assert results["min_instance_win_rate"]["ratio"] == "31/32"
    assert results["all_branches_won"] is False


def test_verify_labeling_check_fails_on_a_missing_branch(capsys, monkeypatch):
    _drop_last_leaf_of_first_walk(monkeypatch)
    code, out, err = run_cli(["verify", "--n", "5", "--format", "json"], capsys)
    status = {c["name"]: c["status"] for c in json.loads(out)["checks"]}
    assert code == 1
    assert "failed checks: labeling-universality\n" in err
    assert status["simple-quantum-certainty"] == status["general-quantum-certainty"] == "pass"


def _certainty_details(out):
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    return [
        (checks[name]["status"], checks[name]["detail"])
        for name in ("simple-quantum-certainty", "general-quantum-certainty")
    ]


def _nonzero_mass_at(monkeypatch, *bad_sets):
    # both mass functions weigh through this kernel; verify weighs only the
    # first set of each size, so a plant shows there
    monkeypatch.setattr(
        "nlgame.strategies._even_parity_mass",
        lambda n, chosen: Fraction(1, 4) if chosen in bad_sets else Fraction(0),
    )


def test_verify_fails_both_certainty_checks_on_a_pair_with_mass(capsys, monkeypatch):
    _nonzero_mass_at(monkeypatch, (1, 2))
    code, out, err = run_cli(["verify", "--n", "7", "--format", "json"], capsys)
    assert code == 1
    assert err == "failed checks: simple-quantum-certainty, general-quantum-certainty\n"
    assert _certainty_details(out) == [
        ("fail", "nonzero losing mass at pairs [(1, 2)]"),
        ("fail", "nonzero even-parity mass at C = [(1, 2)]"),
    ]


def test_verify_fails_only_the_parity_check_on_a_size_six_set_with_mass(
    capsys, monkeypatch
):
    _nonzero_mass_at(monkeypatch, (1, 2, 3, 4, 5, 6))
    code, out, err = run_cli(["verify", "--n", "7", "--format", "json"], capsys)
    assert code == 1
    assert err == "failed checks: general-quantum-certainty\n"
    assert _certainty_details(out) == [
        ("pass", "losing mass exactly 0 on all 21 pairs; broadcast bits = 1 (all branches)"),
        ("fail", "nonzero even-parity mass at C = [(1, 2, 3, 4, 5, 6)]"),
    ]


def test_verify_lists_bad_pairs_before_bad_larger_sets(capsys, monkeypatch):
    # n = 10 has three sizes; the failure text lists one set per size, by size
    _nonzero_mass_at(monkeypatch, (1, 2), (1, 2, 3, 4, 5, 6), tuple(range(1, 11)))
    code, out, _ = run_cli(["verify", "--n", "10", "--format", "json"], capsys)
    assert code == 1
    assert _certainty_details(out) == [
        ("fail", "nonzero losing mass at pairs [(1, 2)]"),
        ("fail", "nonzero even-parity mass at C = "
                 "[(1, 2), (1, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)]"),
    ]


@pytest.mark.parametrize("n", [5, 9])
def test_verify_fails_both_certainty_checks_on_a_losing_run(n, capsys, monkeypatch):
    # every chosen player outputs 0: a pair outputs equal bits, and so does
    # any larger chosen set, since its size is even
    monkeypatch.setattr(
        "nlgame.strategies._Measurer.act",
        lambda self, inbox: Action(output="0", halt=True)
        if inbox.broadcasts else Action(),
    )
    code, out, err = run_cli(["verify", "--n", str(n), "--format", "json"], capsys)
    assert code == 1
    assert err == "failed checks: simple-quantum-certainty, general-quantum-certainty\n"
    assert _certainty_details(out) == [
        ("fail", "expected 1 broadcast bit and wins, got max 1 bits"),
        ("fail", "expected <= 1 broadcast bit and wins, got max 1"),
    ]


def test_verify_fails_both_certainty_checks_when_the_walk_drops_a_branch(
    capsys, monkeypatch
):
    # every run the walk yields still wins, but each instance's runs now
    # carry less than probability 1, so certainty is not shown
    walk = cli.enumerate_branches
    monkeypatch.setattr(
        cli, "enumerate_branches", lambda instance, strategy: list(walk(instance, strategy))[:-1]
    )
    code, out, err = run_cli(["verify", "--n", "5", "--format", "json"], capsys)
    assert code == 1
    assert err == "failed checks: simple-quantum-certainty, general-quantum-certainty\n"
    assert _certainty_details(out) == [
        ("fail", "expected 1 broadcast bit and wins, got max 1 bits"),
        ("fail", "expected <= 1 broadcast bit and wins, got max 1"),
    ]


@pytest.mark.parametrize("n", [6, 10])
def test_verify_fails_only_the_parity_check_when_the_full_set_loses(
    n, capsys, monkeypatch
):
    # with every player chosen, the injected hint 1 makes all of them measure
    # diagonally, and the GHZ state then gives even parity on every branch
    monkeypatch.setattr(
        "nlgame.strategies._QuantumParityStrategy.empty_group_action",
        lambda self, instance, group_index: Action(broadcast="1"),
    )
    code, out, err = run_cli(["verify", "--n", str(n), "--format", "json"], capsys)
    assert code == 1
    assert err == "failed checks: general-quantum-certainty\n"
    assert [status for status, _ in _certainty_details(out)] == ["pass", "fail"]
    assert _certainty_details(out)[1][1] == "expected <= 1 broadcast bit and wins, got max 1"


@pytest.mark.parametrize("bits", [0, 2])
@pytest.mark.parametrize("n", [5, 9])
def test_verify_bounds_the_broadcast_bits_of_every_run(n, bits, capsys, monkeypatch):
    # the pair check allows exactly 1 bit, the parity check at most 1 and
    # the labeling check exactly ceil(log2 n)
    monkeypatch.setattr("nlgame.games.RunResult.broadcast_bits", property(lambda r: bits))
    code, out, err = run_cli(["verify", "--n", str(n), "--format", "json"], capsys)
    checks = {c["name"]: (c["status"], c["detail"]) for c in json.loads(out)["checks"]}
    assert code == 1
    parity = "general-quantum-certainty, " if bits else ""
    assert err == f"failed checks: simple-quantum-certainty, {parity}labeling-universality\n"
    assert checks["simple-quantum-certainty"] == (
        "fail", f"expected 1 broadcast bit and wins, got max {bits} bits"
    )
    assert (checks["general-quantum-certainty"][0] == "fail") == (bits > 1)
    if bits:
        assert checks["general-quantum-certainty"][1] == (
            f"expected <= 1 broadcast bit and wins, got max {bits}"
        )
    assert checks["labeling-universality"] == (
        "fail", f"expected wins at {(n - 1).bit_length()} bits, got max {bits}"
    )


def test_verify_runs_are_byte_identical(capsys):
    results = [
        run_cli(["verify", "--n", "4", "--seed", "42", "--format", fmt], capsys)
        for fmt in ("json", "json", "text", "text")
    ]
    assert results[0] == results[1]
    assert results[2] == results[3]


def test_json_and_csv_carry_identical_content(capsys):
    _, json_out, _ = run_cli(["verify", "--n", "4", "--format", "json"], capsys)
    _, csv_out, _ = run_cli(["verify", "--n", "4", "--format", "csv"], capsys)
    flattened = dict(cli._flatten(json.loads(json_out)))
    lines = csv_out.splitlines()
    assert lines[0] == "key,value"
    parsed = {}
    for line in lines[1:]:
        key, _, value = line.partition(",")
        parsed[key] = value.strip('"').replace('""', '"')
    assert parsed == {k: v for k, v in flattened.items()}


def test_out_writes_file_instead_of_stdout(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, err = run_cli(
        ["verify", "--n", "4", "--format", "json", "--out", str(target)], capsys
    )
    assert code == 0 and out == "" and err == ""
    payload = json.loads(target.read_text())
    assert payload["config"]["command"] == "verify"


def test_workers_do_not_change_the_report(capsys, monkeypatch):
    argv = [
        "play",
        "--n",
        "5",
        "--trials",
        "30",
        "--seed",
        "13",
        "--format",
        "json",
    ]
    monkeypatch.delenv("NLGAME_WORKERS", raising=False)
    _, sequential, _ = run_cli(argv, capsys)
    monkeypatch.setenv("NLGAME_WORKERS", "3")
    _, parallel, _ = run_cli(argv, capsys)
    assert sequential == parallel


# ---------------------------------------------------------------------------
# table


def test_table_text_output(capsys):
    code, out, _ = run_cli(["table", "--n", "5:8"], capsys)
    assert code == 0
    assert "[results]" in out
    header = next(l for l in out.splitlines() if "p_ratio" in l)
    assert "l_min_simple" in header and "sqrt_n_minus_2" in header
    assert "1/10" in out and "1/7" in out and "2/15" in out


def test_table_rows_json(capsys):
    code, out, _ = run_cli(["table", "--n", "5:6", "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)["results"]["rows"]
    assert [r["n"] for r in rows] == [5, 6]
    assert rows[0]["p_ratio"] == "1/10"
    assert rows[0]["ceil_log2_n"] == 3
    assert rows[0]["l_min_simple"] == 3
    assert rows[0]["l_min_general"] == 3
    assert rows[1]["p_decimal"] == "0.133333333333"


def test_table_clamps_to_formula_domain(capsys):
    code, out, _ = run_cli(["table", "--n", "3:70", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["range"] == [5, 64]
    rows = payload["results"]["rows"]
    assert rows[0]["n"] == 5 and rows[-1]["n"] == 64
    # the searches stop where their domains end; the formula keeps going
    assert rows[-1]["l_min_simple"] is None
    assert rows[-1]["l_min_general"] is None


def test_table_range_errors(capsys):
    assert run_cli(["table", "--n", "9:6"], capsys)[0] == 2
    assert run_cli(["table", "--n", "65:70"], capsys)[0] == 2
    assert run_cli(["table", "--n", "5:6:7"], capsys)[0] == 2
    assert run_cli(["table", "--n", "five"], capsys)[0] == 2


def test_table_single_value_range(capsys):
    code, out, _ = run_cli(["table", "--n", "7", "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)["results"]["rows"]
    assert len(rows) == 1 and rows[0]["p_ratio"] == "1/7"


# ---------------------------------------------------------------------------
# lemma


def test_lemma_chain_report(capsys):
    code, out, _ = run_cli(["lemma", "--n", "9", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["min_dimension"] == 4
    assert payload["results"]["witness"]
    assert payload["checks"][0]["name"] == "lemma-chain"
    assert payload["checks"][0]["status"] == "pass"


def test_lemma_bounded_search(capsys):
    code, out, _ = run_cli(
        ["lemma", "--n", "9", "--max-l", "3", "--format", "json"], capsys
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["found_dimension"] is None
    assert results["witness"] is None
    code, out, _ = run_cli(
        ["lemma", "--n", "5", "--max-l", "3", "--format", "json"], capsys
    )
    results = json.loads(out)["results"]
    assert results["found_dimension"] == 3
    assert len(results["witness"]) == 5


def test_lemma_family_file(tmp_path, capsys):
    good = tmp_path / "good.txt"
    good.write_text("0001\n0010\n0100\n1000\n")
    code, out, _ = run_cli(["lemma", "--family", str(good), "--format", "json"], capsys)
    assert code == 0
    results = json.loads(out)["results"]
    assert results == {"n": 4, "dimension": 4, "condition_holds": True}

    bad = tmp_path / "bad.txt"
    bad.write_text("01\n01\n")
    code, out, _ = run_cli(["lemma", "--family", str(bad), "--format", "json"], capsys)
    # a failing family is a result, not a tool failure
    assert code == 0
    assert json.loads(out)["results"]["condition_holds"] is False


def test_lemma_family_above_24_rows_of_full_rank(tmp_path, capsys):
    # the cap bounds the kernel walked, not the row count
    family = tmp_path / "full.txt"
    family.write_text("".join(format(1 << i, "025b") + "\n" for i in range(25)))
    code, out, _ = run_cli(["lemma", "--family", str(family), "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["results"] == {"n": 25, "dimension": 25, "condition_holds": True}


def test_lemma_family_past_the_kernel_cap_exits_2(tmp_path, capsys):
    # 26 copies of one row have a kernel of dimension 25
    family = tmp_path / "copies.txt"
    family.write_text("1\n" * 26)
    code, out, err = run_cli(["lemma", "--family", str(family)], capsys)
    assert code == 2 and out == ""
    assert "kernel dimension" in _one_error_line(err)


def test_lemma_family_and_max_l_exclude_each_other(tmp_path, capsys):
    family = tmp_path / "family.txt"
    family.write_text("01\n10\n")
    with pytest.raises(SystemExit) as info:
        main(["lemma", "--family", str(family), "--max-l", "2"])
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: nlgame lemma")
    assert "--max-l: not allowed with argument --family" in err


def test_lemma_family_refuses_n(tmp_path, capsys):
    # a family file fixes its own n, so an --n beside it was silently ignored
    family = tmp_path / "family.txt"
    family.write_text("01\n10\n")
    code, out, err = run_cli(["lemma", "--family", str(family), "--n", "9"], capsys)
    assert (code, out) == (2, "")
    assert "--n" in _one_error_line(err)
    code, out, _ = run_cli(["lemma", "--family", str(family), "--format", "json"], capsys)
    assert code == 0 and json.loads(out)["config"]["n"] is None


def test_lemma_usage_errors(tmp_path, capsys):
    assert run_cli(["lemma", "--n", "12"], capsys)[0] == 2
    assert run_cli(["lemma", "--family", str(tmp_path / "missing.txt")], capsys)[0] == 2
    ragged = tmp_path / "ragged.txt"
    ragged.write_text("01\n011\n")
    assert run_cli(["lemma", "--family", str(ragged)], capsys)[0] == 2


# ---------------------------------------------------------------------------
# error exits and resource bounds


def _one_error_line(err: str) -> str:
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("nlgame: error: "), err
    return lines[0]


def test_play_below_game_domain_exits_2(capsys):
    code, out, err = run_cli(["play", "--n", "2"], capsys)
    assert code == 2 and out == ""
    assert "n >= 3" in _one_error_line(err)


def test_play_above_register_cap_exits_2(capsys):
    code, out, err = run_cli(["play", "--game", "general", "--n", "21"], capsys)
    assert code == 2 and out == ""
    assert "21" in _one_error_line(err)


def test_unwritable_out_path_exits_2(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "report.json"
    code, out, err = run_cli(["verify", "--n", "3", "--out", str(target)], capsys)
    assert code == 2 and out == ""
    assert "cannot write report" in _one_error_line(err)
    assert not target.exists()


@pytest.mark.parametrize(
    "error", [cli.ExactnessError, cli.ProtocolViolation, cli.StepLimitExceeded]
)
def test_engine_invariant_errors_exit_3(error, capsys, monkeypatch):
    def broken_run(*args, **kwargs):
        raise error("broken on purpose")

    monkeypatch.delenv("NLGAME_WORKERS", raising=False)
    monkeypatch.setattr("nlgame.games.run_game", broken_run)
    code, out, err = run_cli(["play", "--n", "5", "--trials", "2"], capsys)
    assert code == 3 and out == ""
    line = _one_error_line(err)
    assert error.__name__ in line and "broken on purpose" in line


@pytest.mark.parametrize("value", ["abc", "2.5", "0", "-3"])
def test_invalid_worker_count_exits_2(value, capsys, monkeypatch):
    monkeypatch.setenv("NLGAME_WORKERS", value)
    code, out, err = run_cli(["play", "--n", "5", "--trials", "4"], capsys)
    assert code == 2 and out == ""
    assert "NLGAME_WORKERS" in _one_error_line(err)


def test_large_worker_count_is_clamped_to_cpu_count(capsys, monkeypatch):
    argv = ["play", "--n", "5", "--trials", "30", "--seed", "13", "--format", "json"]
    monkeypatch.delenv("NLGAME_WORKERS", raising=False)
    _, sequential, _ = run_cli(argv, capsys)

    pools = []

    class RecordingPool:
        # stands in for ProcessPoolExecutor and runs blocks in this process
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    # patched before the large value is set, so no process is ever started
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    monkeypatch.setenv("NLGAME_WORKERS", "1000000")
    code, clamped, _ = run_cli(argv, capsys)
    assert code == 0
    assert pools == [3]
    assert clamped == sequential


def test_sampled_play_cost_does_not_grow_with_the_register(capsys, monkeypatch):
    # a dense 2**20 register made one n = 20 trial take about a minute;
    # the factored register and lazy instances keep a trial well under 0.1 s
    import time

    monkeypatch.delenv("NLGAME_WORKERS", raising=False)
    start = time.perf_counter()
    code, out, _ = run_cli(
        ["play", "--game", "general", "--n", "20", "--trials", "200", "--format", "json"],
        capsys,
    )
    elapsed = time.perf_counter() - start
    assert code == 0
    results = json.loads(out)["results"]
    assert results["wins"] == 200 and results["broadcast_bits_max"] == 1
    assert elapsed < 20.0


@pytest.mark.parametrize(
    "mode", [["--trials", "20"], ["--exhaustive"]], ids=["sampled", "exhaustive"]
)
@pytest.mark.parametrize("n", [6, 7])
def test_pair_only_strategy_on_the_parity_game_exits_2(n, mode, capsys, monkeypatch):
    # at n = 6 the set of all players left no one to send the hint; at n = 7
    # the hint rule was handed a chosen set of size 6
    monkeypatch.delenv("NLGAME_WORKERS", raising=False)
    atoms = ",".join("01b"[i % 3] for i in range(n))
    argv = ["play", "--game", "general", "--n", str(n), "--strategy", f"classical-atoms:{atoms}"]
    code, out, err = run_cli(argv + mode, capsys)
    assert code == 2 and out == ""
    assert "chosen pairs only" in _one_error_line(err)


def test_pair_only_strategy_still_plays_the_parity_game_below_n_6(capsys):
    # below n = 6 every chosen set of the parity game is a pair
    argv = ["play", "--game", "general", "--n", "5", "--strategy",
            "classical-atoms:0,1,b,nb,0", "--exhaustive", "--format", "json"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert json.loads(out)["results"]["win_rate"]["ratio"] == "9/10"


def test_pair_game_strategy_wins_the_parity_game(capsys, monkeypatch):
    # quantum-simple is the same GHZ strategy; it used to send no hint when
    # every player was chosen and ran into the step limit (exit 3)
    monkeypatch.delenv("NLGAME_WORKERS", raising=False)
    argv = ["play", "--game", "general", "--n", "6", "--strategy", "quantum-simple",
            "--trials", "5", "--format", "json"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    results = json.loads(out)["results"]
    assert results["wins"] == results["trials"] == 5
    assert results["broadcast_bits_max"] == 1
