"""Strategy behavior: exact certainty sweeps, classical trade-offs, wiring.

The "never loses" claims are checked through the exact mass sweeps (zero
probability, not small probability) and cross-checked against the symbolic
oracle at sizes where re-deriving the joint distribution is cheap.
"""

import itertools
import time
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

import oracles
from nlgame import (
    ClassicalAtomStrategy,
    ProtocolViolation,
    QuantumSharedState,
    SplitMix64,
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
from nlgame import strategies
from nlgame.games import fold_runs
from nlgame.qsim import QUBIT_CAP, MeasBasis, make_ghz, outcome_probability

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
        result = run_game(instance, strategy, oracles.ReplayTape(()))
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
        result = run_game(instance, strategy, oracles.ReplayTape(()))
        assert result.broadcast_bits == 1
        if not result.won:
            lost.append(instance.chosen)
    assert lost == [(1, 5)]  # the one pair holding the same atom
    # matches the formula exactly: this assignment is optimal for n = 5
    assert Fraction(len(lost), len(spec.instances)) == losing_probability_formula(5)


def test_all_same_atoms_lose_everywhere():
    strategy = strategy_from_name("classical-atoms:1,1,1,1,1", 5)
    bits, won = broadcast_complexity(make_simple_game(5), strategy)
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
    result = run_game(instance, classical_label_strategy(5), oracles.ReplayTape(()))
    assert [r.payload for s in result.transcript.steps for r in s.broadcasts] == ["011"]


def test_labeling_strategy_wins_general_game_at_log_n_bits():
    for n in (2, 3, 4, 7, 8):
        width = max(1, (n - 1).bit_length())
        spec = make_general_game(n)
        assert broadcast_complexity(spec, classical_label_strategy(n)) == (width, True)


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


def test_pair_mass_equals_parity_mass_on_every_pair():
    # verify sweeps each pair once, through the pair mass, for both checks
    for n in range(2, 9):
        for pair in itertools.combinations(range(1, n + 1), 2):
            assert simple_strategy_losing_mass(n, pair) == general_strategy_forbidden_mass(n, pair)


def test_every_chosen_set_weighs_as_the_first_set_of_its_size():
    # verify sweeps only the first set of each size: a permutation of the
    # players that maps one chosen set onto another fixes the GHZ state and
    # maps the strategy's measurements along.  The output distributions,
    # which are not zero, check that beyond the zero masses
    for n in range(3, 11):
        for spec, mass in (
            (make_simple_game(n), simple_strategy_losing_mass),
            (make_general_game(n), general_strategy_forbidden_mass),
        ):
            first = {}
            for instance in spec.instances:
                chosen = instance.chosen
                ref = first.setdefault(len(chosen), (mass(n, chosen), chosen))
                assert mass(n, chosen) == ref[0]
                if spec.name == "general":
                    assert general_strategy_output_distribution(
                        n, chosen
                    ) == general_strategy_output_distribution(n, ref[1])
            assert all(chosen == tuple(range(1, k + 1)) for k, (_, chosen) in first.items())


def test_every_instance_walks_as_the_first_instance_of_its_size():
    # verify walks only the first instance of each size: the permutation of
    # the players that maps one chosen set onto another in order, and the
    # rest onto the rest, maps one instance's leaves onto the other's.  This
    # is the slow derivation of that shortcut, leaf by leaf
    for n in range(2, 9):
        games = [(make_general_game(n), quantum_general_strategy(n))]
        if n >= 3:
            games.append((make_simple_game(n), quantum_simple_strategy(n)))
        for spec, strategy in games:
            first = {}
            for instance in spec.instances:
                leaves = Counter(
                    (result.won, result.broadcast_bits, weight)
                    for result, weight in enumerate_branches(instance, strategy)
                )
                assert leaves == first.setdefault(len(instance.chosen), leaves), instance.label


def test_weight_classes_match_the_closed_form():
    # _weigh's probability per output weight t, against the closed form,
    # on the last chosen set of every size
    for n in range(2, 13):
        for k in range(1, n + 1):
            chosen = tuple(range(n - k + 1, n + 1))
            weights = oracles.closed_form_weights(n, k)
            assert strategies._weigh(n, chosen, range(k + 1)) == weights
            assert sum(comb(k, t) * p for t, p in weights.items()) == 1


def _all_branches(strategy, instance, index):
    return enumerate_branches(instance, strategy)


def _seeded(strategy, instance, index, seed=42, reps=8):
    return [
        (run_game(instance, strategy, SplitMix64.stream(seed, index, rep)), Fraction(1, reps))
        for rep in range(reps)
    ]


@pytest.mark.parametrize(
    "n, play", [(n, _all_branches) for n in range(3, 9)] + [(9, _seeded), (10, _seeded)]
)
def test_pair_game_fold_is_the_parity_games_pair_slice(n, play):
    pair_game, parity_game = make_simple_game(n), make_general_game(n)
    pairs = pair_game.instances.size
    pair_strategy, parity_strategy = quantum_simple_strategy(n), quantum_general_strategy(n)
    for index in range(pairs):
        pair, member = pair_game.instances[index], parity_game.instances[index]
        assert pair.chosen == member.chosen
        # a result compares by its verdict and its whole transcript
        assert list(play(pair_strategy, pair, index)) == list(
            play(parity_strategy, member, index)
        )
    masses, bits = fold_runs(
        pair_game,
        pair_strategy,
        (play(pair_strategy, pair, index) for index, pair in enumerate(pair_game.instances)),
    )
    # the parity game lists its |C| = 2 slice first
    slice_masses, slice_bits = fold_runs(
        parity_game,
        parity_strategy,
        (play(parity_strategy, parity_game.instances[index], index) for index in range(pairs)),
    )
    assert masses == slice_masses == [1] * pairs
    assert bits == slice_bits == {1}


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


_BASES = {"diagonal": MeasBasis.DIAGONAL, "circular": MeasBasis.CIRCULAR}


def _engine_probability(n):
    ghz = make_ghz(n)
    return lambda steps: outcome_probability(ghz, [(q, _BASES[b], o) for q, b, o in steps])


def _even_mass(dist):
    return sum((m for outs, m in dist.items() if sum(outs) % 2 == 0), Fraction(0))


def _some_sets(n, k):
    combos = list(itertools.combinations(range(1, n + 1), k))
    return sorted({combos[0], combos[len(combos) // 2], combos[-1]})


def test_weight_class_sweep_matches_the_branch_sweep():
    # every output tuple, every k from 1 to n, three chosen sets per k
    for n in range(2, 9):
        probability = _engine_probability(n)
        for k in range(1, n + 1):
            for chosen in _some_sets(n, k):
                branches = oracles.branch_sweep(n, chosen, probability)
                assert general_strategy_output_distribution(n, chosen) == branches
                assert strategies._even_parity_mass(n, chosen) == _even_mass(branches)
                # the hint parity flipped: a comparison that can fail
                flipped = oracles.branch_sweep(
                    n, chosen, probability, lambda hint: "circular" if hint else "diagonal"
                )
                assert (flipped == branches) == (k % 4 == 0)
    # a nonzero control: four chosen players of eight split evenly
    control = oracles.branch_sweep(8, (1, 2, 3, 4), _engine_probability(8))
    assert strategies._even_parity_mass(8, (1, 2, 3, 4)) == _even_mass(control) == Fraction(1, 2)


@pytest.mark.parametrize("k, budget", [(2, 20), (6, 24), (10, 12)])
def test_even_parity_mass_makes_one_engine_call_per_weight_class(monkeypatch, k, budget):
    # (n - k + 1) remaining weights times floor(k / 2) + 1 even output weights
    calls = []
    weigh = strategies.outcome_probability
    monkeypatch.setattr(
        strategies, "outcome_probability", lambda *args: calls.append(1) or weigh(*args)
    )
    assert strategies._even_parity_mass(11, tuple(range(1, k + 1))) == 0
    assert len(calls) == budget
    calls.clear()
    general_strategy_output_distribution(11, tuple(range(1, k + 1)))
    assert len(calls) == (11 - k + 1) * (k + 1)


def test_every_pair_weighs_zero_at_the_register_cap():
    # 38 engine calls per pair; a 2^19-branch sweep per pair cannot meet the budget
    start = time.perf_counter()
    for pair in itertools.combinations(range(1, QUBIT_CAP + 1), 2):
        assert simple_strategy_losing_mass(QUBIT_CAP, pair) == Fraction(0)
        assert time.perf_counter() - start < 30.0


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
    assert list(shared.state.measured) == [2]


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
        measured = shared.state.measured
        # the remaining players measure in step 1, the chosen pair in step 3
        assert list(measured) == rest + list(instance.chosen)
        assert [(q, basis) for q, (basis, _) in measured.items()] == order
        outputs = result.transcript.final_outputs[:2]
        assert tuple(str(bit) for _, bit in list(measured.values())[3:]) == outputs


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
