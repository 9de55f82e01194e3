"""Acceptance suite: the headline guarantees, one test per criterion.

Every claim is checked at its stated tolerance, which for the probability
statements is zero: the sweeps assert exact rational equality, not
closeness.  Timed criteria assert their wall-clock budgets.  Each test
prints one summary line; run with -s (or read the -v listing) to see them.

Budget layout for the two big sweeps: the exact losing-mass computation
covers every instance at every n directly.  Per-run broadcast accounting
is folded over every randomness branch up to n = 8 and over a block of
seeded runs per instance above that, where branch counts grow too fast
for exhaustive enumeration inside the time budget.
"""

import itertools
import time
from fractions import Fraction

import oracles
from nlgame import (
    GF2Family,
    SplitMix64,
    check_gf2_condition,
    classical_label_strategy,
    enumerate_branches,
    exhaustive_min_loss,
    find_response_table,
    general_strategy_forbidden_mass,
    losing_probability_formula,
    make_general_game,
    make_simple_game,
    min_dimension_general,
    min_transcripts_simple,
    quantum_general_strategy,
    quantum_simple_strategy,
    run_game,
    simple_strategy_losing_mass,
)
from nlgame.cli import main

SEED = 42
_EXHAUSTIVE_MAX_N = 8
_RUNS_PER_INSTANCE = {"simple": 4, "general": 2}


def report(index: int, detail: str) -> None:
    print(f"[{index}/9] PASS {detail}")


def _seeded_instance_runs(spec, strategy, reps):
    for index, instance in enumerate(spec.instances):
        for rep in range(reps):
            rng = SplitMix64(SEED + 1_000_003 * index + rep)
            yield run_game(instance, strategy, rng)


def test_01_classical_min_loss_exact_values():
    start = time.perf_counter()
    values = {n: exhaustive_min_loss(n).min_loss for n in range(5, 10)}
    elapsed = time.perf_counter() - start
    assert values[5] == Fraction(1, 10)
    assert values[8] == Fraction(1, 7)
    assert elapsed < 10.0
    report(1, f"min loss p(5) = 1/10 and p(8) = 1/7 exactly ({elapsed:.2f} s for n <= 9)")


def test_02_formula_matches_search():
    for n in range(5, 10):
        assert losing_probability_formula(n) == exhaustive_min_loss(n).min_loss
    report(2, "closed-form loss equals the exhaustive search for n in [5, 9]")


def test_03_loss_approaches_one_quarter_from_below():
    quarter = Fraction(1, 4)
    for n in range(5, 201):
        assert losing_probability_formula(n) < quarter
    assert losing_probability_formula(200) > Fraction(6, 25)
    report(3, "formula stays under 1/4 and exceeds 0.24 by n = 200")


def test_04_simple_game_pseudo_telepathy():
    start = time.perf_counter()
    for n in range(3, 13):
        for pair in itertools.combinations(range(1, n + 1), 2):
            assert simple_strategy_losing_mass(n, pair) == 0
        spec = make_simple_game(n)
        strategy = quantum_simple_strategy(n)
        if n <= _EXHAUSTIVE_MAX_N:
            runs = (
                result
                for instance in spec.instances
                for result, _prob in enumerate_branches(instance, strategy)
            )
        else:
            runs = _seeded_instance_runs(spec, strategy, _RUNS_PER_INSTANCE["simple"])
        for result in runs:
            assert result.won
            assert result.broadcast_bits == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(4, f"simple game: zero losing mass, 1 broadcast bit, n in [3, 12] ({elapsed:.1f} s)")


def test_05_general_game_pseudo_telepathy():
    start = time.perf_counter()
    for n in range(2, 13):
        for k in range(2, n + 1, 4):
            for chosen in itertools.combinations(range(1, n + 1), k):
                assert general_strategy_forbidden_mass(n, chosen) == 0
        spec = make_general_game(n)
        strategy = quantum_general_strategy(n)
        if n <= _EXHAUSTIVE_MAX_N:
            runs = (
                result
                for instance in spec.instances
                for result, _prob in enumerate_branches(instance, strategy)
            )
        else:
            runs = _seeded_instance_runs(spec, strategy, _RUNS_PER_INSTANCE["general"])
        for result in runs:
            assert result.won
            assert result.broadcast_bits <= 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(5, f"general game: zero even-parity mass, <= 1 broadcast bit, n in [2, 12] ({elapsed:.1f} s)")


def test_06_labeling_strategy_universality():
    for n in range(2, 11):
        width = max(1, (n - 1).bit_length())
        spec = make_general_game(n)
        strategy = classical_label_strategy(n)
        for instance in spec.instances:
            branches = list(enumerate_branches(instance, strategy))
            assert len(branches) == 1  # deterministic
            result, prob = branches[0]
            assert prob == 1
            assert result.won
            assert result.broadcast_bits == width
    report(6, "labeling strategy wins every instance at exactly ceil(log2 n) bits, n in [2, 10]")


def test_07_transcript_lower_bound_mechanism():
    from math import log2

    for n in range(2, 17):
        l_min = min_transcripts_simple(n)
        assert l_min == (n - 1).bit_length()
        assert log2(l_min) >= log2(log2(n)) - 1e-12
    # the n = 5 impossibility behind the 1-hint-bit trade-off: no table
    # with only 2 transcripts separates 5 players
    assert find_response_table(5, 2) is None
    report(7, "min transcripts equals ceil(log2 n) for n in [2, 16]; l = 2 fails at n = 5")


def test_08_subset_parity_dimension_bound():
    for n in range(2, 11):
        l_min = min_dimension_general(n)
        assert (l_min + 2) ** 2 >= n  # l_min >= sqrt(n) - 2, exactly
    agreements = 0
    for dim, vectors in oracles.random_families(1000, seed=SEED):
        family = GF2Family(dim, vectors)
        assert check_gf2_condition(family) == oracles.gray_subset_condition(vectors)
        agreements += 1
    assert agreements == 1000
    report(8, "dimension search clears sqrt(n) - 2; 1000 random families agree with the Gray-code oracle")


def test_09_reproducible_reports(capsys):
    outputs = []
    for _ in range(2):
        code = main(["verify", "--seed", "42", "--format", "json"])
        captured = capsys.readouterr()
        assert code == 0
        outputs.append(captured.out.encode())
    assert outputs[0] == outputs[1]
    report(9, "verify with seed 42 renders byte-identical reports")
