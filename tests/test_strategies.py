"""Strategy behavior: exact certainty sweeps, classical trade-offs, wiring.

The "never loses" claims are checked through the exact mass sweeps (zero
probability, not small probability) and cross-checked against the symbolic
oracle at sizes where re-deriving the joint distribution is cheap.
"""

import itertools
from fractions import Fraction

import pytest

import oracles
from nlgame import (
    ClassicalAtomStrategy,
    ProtocolViolation,
    QuantumSharedState,
    SplitMix64,
    TapeDraws,
    broadcast_complexity,
    classical_label_strategy,
    enumerate_branches,
    general_strategy_forbidden_mass,
    general_strategy_output_distribution,
    losing_probability_formula,
    make_general_game,
    make_simple_game,
    quantum_general_strategy,
    quantum_simple_strategy,
    run_game,
    simple_strategy_losing_mass,
    strategy_from_name,
)
from nlgame.qsim import MeasBasis

A0 = ClassicalAtomStrategy.CONST0
A1 = ClassicalAtomStrategy.CONST1
AB = ClassicalAtomStrategy.COPY_HINT
AN = ClassicalAtomStrategy.FLIP_HINT


# ---------------------------------------------------------------------------
# classical loss formula


def test_formula_frozen_values():
    expected = {
        5: Fraction(1, 10),
        6: Fraction(2, 15),
        7: Fraction(1, 7),
        8: Fraction(1, 7),
        9: Fraction(1, 6),
        10: Fraction(8, 45),
    }
    for n, value in expected.items():
        assert losing_probability_formula(n) == value


def test_formula_domain():
    with pytest.raises(ValueError):
        losing_probability_formula(4)


def test_formula_stays_below_one_quarter():
    for n in range(5, 101):
        assert losing_probability_formula(n) < Fraction(1, 4)


# ---------------------------------------------------------------------------
# atoms and hint rules


def test_atom_response_table():
    assert [A0.respond(h) for h in (0, 1)] == [0, 0]
    assert [A1.respond(h) for h in (0, 1)] == [1, 1]
    assert [AB.respond(h) for h in (0, 1)] == [0, 1]
    assert [AN.respond(h) for h in (0, 1)] == [1, 0]


def test_best_response_rule_finds_the_separating_hint():
    strategy = strategy_from_name("classical-atoms:0,1,b,nb,0", 5)
    hints = {}
    for instance in make_simple_game(5).instances:
        result = run_game(instance, strategy, TapeDraws(()))
        (hint,) = [r.payload for s in result.transcript.steps for r in s.broadcasts]
        hints[instance.chosen] = hint
    # copy vs negate: any hint separates them
    assert AB.respond(int(hints[3, 4])) != AN.respond(int(hints[3, 4]))
    # const 0 vs copy: only hint 1 separates
    assert hints[1, 3] == "1"
    # identical atoms cannot be separated; the hint falls back to 0
    assert hints[1, 5] == "0"


def test_atom_assignment_runs_and_loses_only_on_equal_atoms():
    strategy = strategy_from_name("classical-atoms:0,1,b,nb,0", 5)
    spec = make_simple_game(5)
    lost = []
    for instance in spec.instances:
        result = run_game(instance, strategy, TapeDraws(()))
        assert result.broadcast_bits == 1
        if not result.won:
            lost.append(instance.chosen)
    assert lost == [(1, 5)]  # the one pair holding the same atom
    # matches the formula exactly: this assignment is optimal for n = 5
    assert Fraction(len(lost), len(spec.instances)) == losing_probability_formula(5)


def test_all_same_atoms_lose_everywhere():
    strategy = strategy_from_name("classical-atoms:1,1,1,1,1", 5)
    bits, won = broadcast_complexity(make_simple_game(5), strategy, "exhaustive")
    assert (bits, won) == (1, False)


def test_atom_assignment_validation():
    with pytest.raises(ValueError, match="n >= 3"):
        strategy_from_name("classical-atoms:0,1", 2)


# ---------------------------------------------------------------------------
# label table


def test_label_table_basics():
    assert classical_label_strategy(5).labels == ("000", "001", "010", "011", "100")
    assert classical_label_strategy(2).labels == ("0", "1")
    # the leader broadcasts the lowest chosen player's label
    instance = make_general_game(5).instances[-1]  # C = {4, 5}
    result = run_game(instance, classical_label_strategy(5), TapeDraws(()))
    assert [r.payload for s in result.transcript.steps for r in s.broadcasts] == ["011"]


def test_labeling_strategy_wins_general_game_at_log_n_bits():
    for n in (2, 3, 4, 7, 8):
        width = max(1, (n - 1).bit_length())
        spec = make_general_game(n)
        assert broadcast_complexity(
            spec, classical_label_strategy(n), "exhaustive"
        ) == (width, True)


# ---------------------------------------------------------------------------
# quantum strategies, exact sweeps


def test_simple_quantum_losing_mass_is_exactly_zero():
    for n in range(3, 8):
        for pair in itertools.combinations(range(1, n + 1), 2):
            assert simple_strategy_losing_mass(n, pair) == 0


def test_simple_mass_validation():
    with pytest.raises(ValueError):
        simple_strategy_losing_mass(5, (2, 2))
    with pytest.raises(ValueError):
        simple_strategy_losing_mass(5, (0, 3))


def test_general_quantum_forbidden_mass_is_exactly_zero():
    for n in range(2, 8):
        for k in range(2, n + 1, 4):
            for chosen in itertools.combinations(range(1, n + 1), k):
                assert general_strategy_forbidden_mass(n, chosen) == 0


def test_forbidden_mass_rejects_bad_set_size():
    with pytest.raises(ValueError):
        general_strategy_forbidden_mass(6, (1, 2, 3))


def test_pair_output_distribution_is_uniform_on_differing_bits():
    dist = general_strategy_output_distribution(5, (2, 4))
    assert dist[(0, 1)] == dist[(1, 0)] == Fraction(1, 2)
    assert dist[(0, 0)] == dist[(1, 1)] == 0


def test_full_set_distribution_is_uniform_on_odd_parity():
    dist = general_strategy_output_distribution(6, (1, 2, 3, 4, 5, 6))
    for outs, mass in dist.items():
        if sum(outs) % 2 == 1:
            assert mass == Fraction(1, 32)
        else:
            assert mass == 0


def test_the_three_sweeps_agree():
    # the pair mass, the parity mass and the distribution weigh one sweep
    for n in range(2, 7):
        sets = [c for k in range(2, n + 1, 4) for c in itertools.combinations(range(1, n + 1), k)]
        for chosen in sets:
            dist = general_strategy_output_distribution(n, chosen)
            assert sum(dist.values(), Fraction(0)) == Fraction(1)
            even = sum((m for outs, m in dist.items() if sum(outs) % 2 == 0), Fraction(0))
            assert general_strategy_forbidden_mass(n, chosen) == even
            if len(chosen) == 2:
                assert simple_strategy_losing_mass(n, chosen) == even


def test_output_distribution_matches_symbolic_oracle():
    # re-derive the joint protocol distribution with the independent engine
    for n, chosen in [(4, (1, 3)), (5, (2, 5)), (6, (1, 2, 3, 4, 5, 6))]:
        rest = [q for q in range(1, n + 1) if q not in chosen]
        dist = general_strategy_output_distribution(n, chosen)
        for outs, mass in dist.items():
            expected = Fraction(0)
            for rest_outs in itertools.product((0, 1), repeat=len(rest)):
                basis = "diagonal" if sum(rest_outs) % 2 else "circular"
                steps = [(q, "diagonal", m) for q, m in zip(rest, rest_outs)]
                steps += [(c, basis, o) for c, o in zip(chosen, outs)]
                expected += oracles.sequence_probability(n, steps)
            assert mass == expected


def test_runs_win_with_one_hint_bit():
    for n, game, strategy in [
        (5, make_simple_game(5), quantum_simple_strategy(5)),
        (6, make_general_game(6), quantum_general_strategy(6)),
    ]:
        rng = SplitMix64(31)
        for _ in range(30):
            instance = game.sample(rng)
            result = run_game(instance, strategy, rng)
            assert result.won
            assert result.broadcast_bits == 1


def test_empty_remaining_group_uses_the_declared_fallback():
    # when every player is chosen, the loop injects the strategy's hint 0
    # broadcast as sender 0 and the run still wins on one bit
    spec = make_general_game(2)
    (instance,) = spec.instances
    branches = list(enumerate_branches(instance, quantum_general_strategy(2)))
    assert len(branches) == 2
    for result, prob in branches:
        assert prob == Fraction(1, 2)
        assert result.won
        assert result.broadcast_bits == 1
        assert result.transcript.steps[0].broadcasts[0].sender == 0


def test_quantum_strategy_arity_bounds():
    with pytest.raises(ValueError):
        quantum_simple_strategy(2)
    with pytest.raises(ValueError):
        quantum_general_strategy(1)
    with pytest.raises(ValueError):
        classical_label_strategy(1)


def test_shared_state_forbids_double_measurement():
    shared = QuantumSharedState.ghz(3, SplitMix64(0))
    shared.measure(2, MeasBasis.DIAGONAL)
    with pytest.raises(ProtocolViolation):
        shared.measure(2, MeasBasis.CIRCULAR)
    assert [r.qubit_index for r in shared.records] == [2]


def test_shared_state_records_every_qubit_once_in_measurement_order(monkeypatch):
    from nlgame import strategies

    made, order = [], []
    ghz = QuantumSharedState.ghz.__func__
    measure = strategies.measure_qubit

    def recording_ghz(cls, n, draws):
        made.append(ghz(cls, n, draws))
        return made[-1]

    def logged_measure(state, qubit, basis, draws):
        order.append((qubit, basis))
        return measure(state, qubit, basis, draws)

    monkeypatch.setattr(QuantumSharedState, "ghz", classmethod(recording_ghz))
    monkeypatch.setattr(strategies, "measure_qubit", logged_measure)
    for seed, instance in enumerate(make_simple_game(5).instances):
        made.clear()
        order.clear()
        result = run_game(instance, quantum_simple_strategy(5), SplitMix64(seed))
        (shared,) = made
        rest = [q for q in range(1, 6) if q not in instance.chosen]
        records = shared.records
        # the remaining players measure in step 1, the chosen pair in step 3
        assert [r.qubit_index for r in records] == rest + list(instance.chosen)
        assert [(r.qubit_index, r.basis) for r in records] == order
        outputs = result.transcript.final_outputs[:2]
        assert tuple(str(r.outcome) for r in records[3:]) == outputs


# ---------------------------------------------------------------------------
# name resolution


def test_strategy_from_name_resolves_all_families():
    assert strategy_from_name("quantum-simple", 4).name == "quantum-simple"
    assert strategy_from_name("quantum-general", 4).name == "quantum-general"
    assert strategy_from_name("classical-label", 4).name == "classical-label"
    strategy = strategy_from_name("classical-atoms:0,1,b,nb", 4)
    assert strategy.name == "classical-atoms"
    assert strategy.atoms == (A0, A1, AB, AN)


def test_strategy_from_name_errors():
    with pytest.raises(ValueError):
        strategy_from_name("telepathy", 4)
    with pytest.raises(ValueError):
        strategy_from_name("classical-atoms:0,1", 4)
    with pytest.raises(ValueError):
        strategy_from_name("classical-atoms:0,1,x,nb", 4)
