"""Game definitions, the execution loop, and broadcast accounting."""

import itertools
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st
from scipy.stats import chisquare

import oracles

import nlgame.strategies
from nlgame import (
    Action,
    GameInstance,
    Grouping,
    ProtocolViolation,
    SplitMix64,
    StepLimitExceeded,
    Strategy,
    TapeDraws,
    TapeExhausted,
    broadcast_complexity,
    enumerate_branches,
    make_general_game,
    make_simple_game,
    quantum_simple_strategy,
    run_game,
    strategy_from_name,
)
from nlgame.games import BroadcastRecord, fold_runs, sampled_runs
from oracles import decode_step, encode_broadcast


# ---------------------------------------------------------------------------
# randomness sources


def test_splitmix64_reference_values():
    # published reference sequence for seed 0; pins the generator across
    # releases, which the report reproducibility guarantee relies on
    r = SplitMix64(0)
    assert [r.next64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]
    r = SplitMix64(1234567)
    assert [r.next64() for _ in range(2)] == [
        6457827717110365317,
        3203168211198807973,
    ]


def test_keyed_streams_do_not_overlap_across_seeds():
    # seed + index keys made (seed 42, index 1) replay (seed 43, index 0)
    first = [
        SplitMix64.stream(seed, index).next64()
        for seed in range(40, 45)
        for index in range(4)
    ]
    assert len(set(first)) == len(first) == 20
    assert SplitMix64.stream(7, 2, 3).next64() == SplitMix64.stream(7, 2, 3).next64()
    assert SplitMix64.stream(7, 2, 3).next64() != SplitMix64.stream(7, 3, 2).next64()


def test_below_range_and_errors():
    r = SplitMix64(1)
    for _ in range(200):
        assert 0 <= r.below(7) < 7
    assert all(SplitMix64(s).below(1) == 0 for s in range(5))
    with pytest.raises(ValueError):
        r.below(0)


def test_below_is_roughly_uniform():
    r = SplitMix64(2024)
    counts = [0] * 7
    for _ in range(70_000):
        counts[r.below(7)] += 1
    assert chisquare(counts).pvalue > 1e-3


def test_draw_certain_outcomes_consume_no_randomness():
    tape = TapeDraws(())
    assert tape.draw(Fraction(1)) == 0
    assert tape.draw(Fraction(0)) == 1
    assert tape.branch_probability() == 1
    rng = SplitMix64(5)
    state_before = rng.next64()
    rng2 = SplitMix64(5)
    rng2.next64()
    assert rng2.draw(Fraction(1)) == 0
    assert rng2.next64() != state_before  # stream continues where it was


def test_draw_matches_probability_statistically():
    rng = SplitMix64(77)
    zeros = sum(1 - rng.draw(Fraction(1, 4)) for _ in range(40_000))
    assert abs(zeros / 40_000 - 0.25) < 0.01


class _FixedDraw(SplitMix64):
    """A generator whose next 64-bit word is always ``u``."""

    def __init__(self, u):
        super().__init__(0)
        self.u = u

    def next64(self):
        return self.u


def _fraction_draw(u, p_zero):
    return 0 if Fraction(u, 1 << 64) < p_zero else 1


def test_draw_integer_comparison_matches_fractions():
    top = 1 << 64
    boundaries = [
        (Fraction(1, top), [0, 1, 2, top - 1]),
        (1 - Fraction(1, top), [0, top - 3, top - 2, top - 1]),
        (Fraction(1, 3), [0, top // 3 - 1, top // 3, top // 3 + 1, top - 1]),
    ]
    for u in (0, 1, top // 2, top // 3, top - 1):
        # p_zero exactly u / 2**64 draws 1 at u and 0 just below it
        boundaries.append((Fraction(u, top), [max(u - 1, 0), u, min(u + 1, top - 1)]))
    rng = random.Random(5)
    pairs = [(p, u) for p, us in boundaries for u in us]
    for _ in range(4000):
        den = rng.randrange(2, 1 << rng.choice((2, 8, 64, 70, 130)))
        pairs.append((Fraction(rng.randrange(1, den), den), rng.randrange(top)))
        u = rng.randrange(top)
        pairs.append((Fraction(u + rng.choice((-1, 0, 1)), top), u))
    for p_zero, u in pairs:
        if 0 < p_zero < 1:
            assert _FixedDraw(u).draw(p_zero) == _fraction_draw(u, p_zero), (u, p_zero)


def test_tape_replay_and_exhaustion():
    tape = TapeDraws((1, 0))
    assert tape.draw(Fraction(1, 2)) == 1
    assert tape.draw(Fraction(1, 4)) == 0
    with pytest.raises(TapeExhausted) as info:
        tape.draw(Fraction(1, 3))
    assert info.value.p_zero == Fraction(1, 3)
    assert tape.branch_probability() == Fraction(1, 2) * Fraction(1, 4)


# ---------------------------------------------------------------------------
# game construction


def test_grouping_validation():
    with pytest.raises(ValueError):
        Grouping((frozenset({1}), frozenset({1, 2})), 2)  # overlap
    with pytest.raises(ValueError):
        Grouping((frozenset({1}),), 2)  # does not cover
    g = Grouping((frozenset({2}), frozenset(), frozenset({1, 3})), 3)
    assert g.m == 3


def winning_outputs(instance):
    """The single-bit output tuples, remaining group silent, that ``allowed`` accepts."""
    k = len(instance.chosen)
    tuples = (bits + ("",) for bits in itertools.product("01", repeat=k))
    return [t for t in tuples if instance.allowed(t)]


def test_simple_game_shape():
    spec = make_simple_game(5)
    assert spec.name == "simple" and spec.n == 5
    assert len(spec.instances) == 10
    assert not spec.below_analysis_min
    assert make_simple_game(3).below_analysis_min
    first = spec.instances[0]
    assert first.chosen == (1, 2)
    assert first.query == ("0", "0", "1")
    assert first.aux_group == 2
    assert first.grouping.groups[2] == frozenset({3, 4, 5})
    assert first.allowed(("0", "1", ""))
    assert first.allowed(("1", "0", ""))
    assert not first.allowed(("1", "1", ""))
    assert not first.allowed(("0", "1", "0"))
    assert winning_outputs(first) == [("0", "1", ""), ("1", "0", "")]
    with pytest.raises(ValueError):
        make_simple_game(2)


def test_general_game_shape():
    spec = make_general_game(6)
    # |C| = 2 and |C| = 6 both qualify at n = 6
    assert len(spec.instances) == 15 + 1
    sizes = {len(inst.chosen) for inst in spec.instances}
    assert sizes == {2, 6}
    full = spec.instances[-1]
    assert full.chosen == (1, 2, 3, 4, 5, 6)
    assert full.grouping.groups[-1] == frozenset()
    assert full.allowed(("1", "0", "0", "0", "0", "0", ""))
    assert not full.allowed(("1", "1", "0", "0", "0", "0", ""))
    pair = spec.instances[0]
    assert pair.allowed(("0", "1", ""))
    assert not pair.allowed(("0", "", ""))
    assert winning_outputs(pair) == [("0", "1", ""), ("1", "0", "")]
    wins = winning_outputs(full)
    assert len(wins) == 2**5
    assert all(sum(map(int, w[:-1])) % 2 == 1 for w in wins)
    with pytest.raises(ValueError):
        make_general_game(1)


def test_sampler_is_uniform_over_instances():
    spec = make_simple_game(5)
    rng = SplitMix64(99)
    counts = [0] * len(spec.instances)
    index = {inst.label: k for k, inst in enumerate(spec.instances)}
    for _ in range(100_000):
        counts[index[spec.sample(rng).label]] += 1
    assert chisquare(counts).pvalue > 1e-3


# ---------------------------------------------------------------------------
# broadcast framing


def test_bit_cost_rules():
    assert BroadcastRecord(1, "101", True).bit_cost == 3
    assert BroadcastRecord(1, "101", False).bit_cost == 7
    assert BroadcastRecord(1, "", False).bit_cost == 1  # terminator only
    assert BroadcastRecord(1, "", True).bit_cost == 0


def test_encode_examples():
    assert encode_broadcast("10", True) == "10"
    assert encode_broadcast("10", False) == "11100"
    assert encode_broadcast("", False) == "0"


@given(
    st.lists(
        st.tuples(
            st.text(alphabet="01", max_size=6), st.booleans()
        ),
        max_size=5,
    )
)
def test_step_framing_roundtrip(messages):
    stream = "".join(encode_broadcast(p, fixed) for p, fixed in messages)
    schedule = [(fixed, len(p) if fixed else None) for p, fixed in messages]
    assert decode_step(stream, schedule) == [p for p, _ in messages]


def test_decode_rejects_malformed_streams():
    with pytest.raises(ValueError):
        decode_step("1", [(True, 2)])  # truncated fixed payload
    with pytest.raises(ValueError):
        decode_step("11", [(False, None)])  # flag without payload bit
    with pytest.raises(ValueError):
        decode_step("1010", [(False, None)])  # missing terminator? no: trailing
    with pytest.raises(ValueError):
        decode_step("00", [(False, None)])  # trailing bits
    with pytest.raises(ValueError):
        decode_step("11", [(False, None), (True, 1)])


# ---------------------------------------------------------------------------
# the execution loop


def test_quantum_run_transcript_shape():
    spec = make_simple_game(4)
    instance = spec.instances[0]  # pair (1, 2)
    result = run_game(instance, quantum_simple_strategy(4), SplitMix64(8))
    assert result.won
    assert result.broadcast_bits == 1
    assert result.transcript.final_outputs in {("0", "1", ""), ("1", "0", "")}
    steps = result.transcript.steps
    # step 1: remaining players trade outcomes in-group; step 2: the
    # leader broadcasts the parity; step 3: chosen players answer
    assert [len(s.broadcasts) for s in steps] == [0, 1, 0]
    assert steps[0].group_messages and steps[0].group_messages[0].group == 2
    assert steps[1].broadcasts[0].sender == 3
    assert steps[1].broadcasts[0].fixed_length


class _Loiterer:
    def act(self, inbox):
        return Action()


class _LoiterStrategy(Strategy):
    def __init__(self, n):
        self.n = n

    def make_players(self, instance, draws):
        return [_Loiterer() for _ in range(self.n)]


def test_step_limit_enforced():
    instance = make_simple_game(3).instances[0]
    with pytest.raises(StepLimitExceeded):
        run_game(instance, _LoiterStrategy(3), TapeDraws(()), step_limit=5)


class _DoubleOutput(Strategy):
    # both players of the remaining group claim the group's output slot
    def __init__(self, n):
        self.n = n

    def make_players(self, instance, draws):
        chosen = set(instance.chosen)

        class P:
            def __init__(self, i):
                self.i = i

            def act(self, inbox):
                if self.i in chosen:
                    return Action(output="0", halt=True)
                return Action(output="1", halt=True)

        return [P(i) for i in range(1, self.n + 1)]


def test_second_output_in_a_group_is_a_violation():
    instance = make_simple_game(4).instances[0]
    with pytest.raises(ProtocolViolation):
        run_game(instance, _DoubleOutput(4), TapeDraws(()))


class _InboxProbe(Strategy):
    """Records every inbox so tests can audit what players were told."""

    def __init__(self, n):
        self.n = n
        self.seen = {i: [] for i in range(1, n + 1)}

    def make_players(self, instance, draws):
        probe = self

        class P:
            def __init__(self, i):
                self.i = i

            def act(self, inbox):
                probe.seen[self.i].append(inbox)
                return Action(halt=True)

        return [P(i) for i in range(1, self.n + 1)]


def test_chosen_players_never_learn_the_instance():
    # auxiliary input goes only to the remaining group; the chosen players
    # see just their own query
    spec = make_simple_game(5)
    for instance in spec.instances:
        probe = _InboxProbe(5)
        run_game(instance, probe, TapeDraws(()))
        for i in range(1, 6):
            inboxes = probe.seen[i]
            assert len(inboxes) == 1
            if i in instance.chosen:
                assert inboxes[0].query == "0"
                assert inboxes[0].aux is None
            else:
                assert inboxes[0].query == "1"
                assert inboxes[0].aux == instance.chosen


class _RoutingProbe(Strategy):
    """Every player sends a group message in step 1 and players 2, 3 and 5
    broadcast; player 6 halts after sending.  The others record their step-2
    inbox and halt.  The empty group injects one variable-length broadcast."""

    n = 6

    def __init__(self):
        self.step2 = {}

    def make_players(self, instance, draws):
        probe = self

        class P:
            def __init__(self, i):
                self.i = i

            def act(self, inbox):
                if inbox.step == 1:
                    return Action(
                        group_message=format(self.i, "03b"),
                        broadcast=format(self.i, "03b") if self.i in (2, 3, 5) else None,
                        halt=self.i == 6,
                    )
                probe.step2[self.i] = inbox
                return Action(halt=True)

        return [P(i) for i in range(1, 7)]

    def empty_group_action(self, instance, group_index):
        return Action(broadcast="01", broadcast_fixed_length=False)


def _routing_instance():
    groups = (frozenset({1, 2}), frozenset({3}), frozenset(), frozenset({4, 5, 6}))
    return GameInstance(
        grouping=Grouping(groups, 6),
        query=("0", "0", "0", "1"),
        allowed=lambda outputs: True,
        chosen=(3,),
        aux_group=3,
    )


def test_messages_are_routed_from_the_step_records():
    probe = _RoutingProbe()
    result = run_game(_routing_instance(), probe, TapeDraws(()))
    broadcasts = ((0, "01"), (2, "010"), (3, "011"), (5, "101"))
    group_messages = {
        1: ((2, "010"),),
        2: ((1, "001"),),
        3: (),  # the singleton has no one to hear from
        4: ((5, "101"), (6, "110")),
        5: ((4, "100"), (6, "110")),
    }
    assert sorted(probe.step2) == [1, 2, 3, 4, 5]  # player 6 halted in step 1
    for i, inbox in probe.step2.items():
        assert inbox.step == 2 and inbox.query is None and inbox.aux is None
        assert inbox.group_messages == group_messages[i]
        assert inbox.broadcasts == broadcasts
    steps = result.transcript.steps
    assert [s.step for s in steps] == [1, 2]  # no step-0 record
    assert [(r.sender, r.payload) for r in steps[0].broadcasts] == list(broadcasts)
    assert [(m.sender, m.group) for m in steps[0].group_messages] == [
        (1, 0), (2, 0), (3, 1), (4, 3), (5, 3), (6, 3)
    ]
    assert steps[1].broadcasts == steps[1].group_messages == ()
    assert result.broadcast_bits == 5 + 3 * 3


def _transcripts():
    for instance in make_simple_game(5).instances:
        for result, _ in enumerate_branches(instance, quantum_simple_strategy(5)):
            yield result.transcript
    label = strategy_from_name("classical-label", 6)
    for instance in make_general_game(6).instances:
        for result, _ in enumerate_branches(instance, label):
            yield result.transcript
    yield run_game(_routing_instance(), _RoutingProbe(), TapeDraws(())).transcript


def test_every_recorded_step_is_prefix_decodable():
    variable = 0
    for transcript in _transcripts():
        for step in transcript.steps:
            encoded = [encode_broadcast(r.payload, r.fixed_length) for r in step.broadcasts]
            schedule = [
                (r.fixed_length, len(r.payload) if r.fixed_length else None)
                for r in step.broadcasts
            ]
            payloads = [r.payload for r in step.broadcasts]
            assert decode_step("".join(encoded), schedule) == payloads
            assert [len(e) for e in encoded] == [r.bit_cost for r in step.broadcasts]
            variable += sum(not r.fixed_length for r in step.broadcasts)
    assert variable == 1


def test_wrong_arity_strategy_rejected():
    instance = make_simple_game(4).instances[0]
    with pytest.raises(ValueError):
        run_game(instance, _LoiterStrategy(5), TapeDraws(()))


def test_run_is_deterministic_given_seed():
    spec = make_simple_game(6)
    strategy = quantum_simple_strategy(6)
    for seed in (0, 1, 4242):
        a = run_game(spec.instances[3], strategy, SplitMix64(seed))
        b = run_game(spec.instances[3], strategy, SplitMix64(seed))
        assert a == b


# ---------------------------------------------------------------------------
# branch enumeration and complexity folding


def test_enumerate_branches_partitions_probability():
    instance = make_simple_game(3).instances[0]
    branches = list(enumerate_branches(instance, quantum_simple_strategy(3)))
    # the remaining player and the first chosen player branch freely, but
    # the second chosen outcome is then forced, so 4 branches of 1/4
    assert len(branches) == 4
    assert sum(prob for _, prob in branches) == 1
    assert all(prob == Fraction(1, 4) for _, prob in branches)
    assert all(result.won and result.broadcast_bits == 1 for result, _ in branches)
    outputs = {result.transcript.final_outputs for result, _ in branches}
    assert outputs == {("0", "1", ""), ("1", "0", "")}


def test_enumerate_branches_deterministic_strategy():
    from nlgame import classical_label_strategy

    instance = make_general_game(4).instances[0]
    branches = list(enumerate_branches(instance, classical_label_strategy(4)))
    assert len(branches) == 1
    assert branches[0][1] == 1


def _replay_cases():
    games = (("simple", make_simple_game, 3), ("general", make_general_game, 2))
    for game, make, lowest in games:
        for n in range(lowest, 7):
            names = ["quantum-general", "classical-label"]
            if n >= 3:
                names.append("quantum-simple")
            if game == "simple":
                names.append("classical-atoms:" + ",".join(("0", "1", "b", "nb", "b", "0")[:n]))
            for name in names:
                yield pytest.param(make, n, name, id=f"{game}-{n}-{name}")


@pytest.mark.parametrize("make, n, name", list(_replay_cases()))
def test_enumerate_branches_matches_the_replay_oracle(make, n, name):
    strategy = strategy_from_name(name, n)
    for instance in make(n).instances:
        # a result compares by its verdict and its whole transcript
        walk = list(enumerate_branches(instance, strategy))
        assert walk == list(oracles.replay_branches(instance, strategy, run_game))
        assert walk == list(oracles.forking_tape_branches(instance, strategy, run_game))


class _CountingRuns(Strategy):
    """Plays ``inner`` and counts the runs it is asked to seat."""

    def __init__(self, inner):
        self.inner = inner
        self.n = inner.n
        self.name = inner.name
        self.runs = 0

    def make_players(self, instance, draws):
        self.runs += 1
        return self.inner.make_players(instance, draws)

    def empty_group_action(self, instance, group_index):
        return self.inner.empty_group_action(instance, group_index)


def test_enumerate_branches_runs_each_leaf_once(monkeypatch):
    # each pair has 4 genuine draws (the three remaining players and the
    # first chosen one) and 5 measurements on every path.  The first run
    # makes 5; a fork at depth d copies the run and replays only the act
    # that drew, 6 - d measurements, and there are 2^(d - 1) such forks:
    # 5 + 5 + 8 + 12 + 16 = 46.  Replaying every leaf from the root made
    # 16 seatings and 80 measurements.
    measured = []
    measure = nlgame.strategies.measure_qubit
    monkeypatch.setattr(
        nlgame.strategies, "measure_qubit", lambda *args: measured.append(1) or measure(*args)
    )
    strategy = _CountingRuns(quantum_simple_strategy(5))
    for instance in make_simple_game(5).instances:
        strategy.runs = 0
        measured.clear()
        assert len(list(enumerate_branches(instance, strategy))) == 16
        assert strategy.runs == 1
        assert len(measured) == 46 < 3 * 16
    deterministic = _CountingRuns(strategy_from_name("classical-label", 4))
    assert len(list(enumerate_branches(make_general_game(4).instances[0], deterministic))) == 1
    assert deterministic.runs == 1


class _DoubleDraw(Strategy):
    """Each chosen player draws in step 1 a certain 1 (p_zero = 0) and then
    twice genuinely, at p_zero = 1/4 and then 3/4; it keeps its draws in a
    list and outputs their parity.  The remaining players halt.  Players
    hold their draw source, so a copy draws from the source it is mapped to."""

    def __init__(self, n):
        self.n = n

    def make_players(self, instance, draws):
        chosen = set(instance.chosen)

        class P:
            def __init__(self, i):
                self.i = i
                self.draws = draws
                self.drawn = []

            def act(self, inbox):
                if self.i not in chosen:
                    return Action(halt=True)
                self.drawn.append(self.draws.draw(Fraction(0)))
                self.drawn.append(self.draws.draw(Fraction(1, 4)))
                self.drawn.append(self.draws.draw(Fraction(3, 4)))
                return Action(output=str(sum(self.drawn) % 2), halt=True)

        return [P(i) for i in range(1, self.n + 1)]


def test_enumerate_branches_forks_acts_that_draw_twice():
    # a fork at an act's second genuine draw must replay the act's first
    # outcome, a fork after the act's certain draw must not keep it twice,
    # and forks must not share the players' lists
    spec = make_simple_game(4)
    strategy = _DoubleDraw(4)
    for instance in spec.instances:
        walk = list(itertools.islice(enumerate_branches(instance, strategy), 17))
        assert len(walk) == 16
        assert walk == list(oracles.replay_branches(instance, strategy, run_game))
    # a chosen player outputs 1 when its genuine draws agree, with
    # probability 1/4 * 3/4 + 3/4 * 1/4 = 3/8, and the pair wins when
    # exactly one of them does: 2 * 3/8 * 5/8
    masses, bits, all_won = fold_runs(spec, strategy)
    assert masses == [Fraction(15, 32)] * 6
    assert bits == {0} and not all_won


def test_broadcast_complexity_exhaustive():
    assert broadcast_complexity(
        make_simple_game(6), quantum_simple_strategy(6), "exhaustive"
    ) == (1, True)


def test_broadcast_complexity_sampled_and_errors():
    spec = make_simple_game(5)
    strategy = quantum_simple_strategy(5)
    bits, won = broadcast_complexity(spec, strategy, "sampled", trials=40, seed=11)
    assert (bits, won) == (1, True)
    with pytest.raises(ValueError):
        broadcast_complexity(spec, strategy, "sampled")
    with pytest.raises(ValueError):
        broadcast_complexity(spec, strategy, "census")


class _Silent(Strategy):
    def __init__(self, n):
        self.n = n

    def make_players(self, instance, draws):
        class P:
            def act(self, inbox):
                return Action(halt=True)

        return [P() for _ in range(self.n)]


def test_silent_strategy_loses_without_broadcasting():
    assert broadcast_complexity(
        make_simple_game(4), _Silent(4), "exhaustive"
    ) == (0, False)


@pytest.mark.parametrize("atoms", ["0,1,b,nb,0,1", "0,1,b,nb,0,1,b"])
def test_pair_only_strategy_is_refused_before_any_run(atoms):
    # n = 6 used to hit the step limit (no one left to send the hint) and
    # n = 7 a TypeError (the hint rule was handed a chosen set of size 6)
    n = atoms.count(",") + 1
    spec = make_general_game(n)
    strategy = strategy_from_name(f"classical-atoms:{atoms}", n)
    with pytest.raises(ValueError, match="chosen pairs only"):
        broadcast_complexity(spec, strategy)
    with pytest.raises(ValueError, match="chosen pairs only"):
        broadcast_complexity(spec, strategy, "sampled", trials=5)
    with pytest.raises(ValueError, match="chosen pairs only"):
        fold_runs(spec, strategy)
    with pytest.raises(ValueError, match="chosen pairs only"):
        list(sampled_runs(spec, strategy, 0, 5))


def test_sampled_runs_do_not_depend_on_the_block_split():
    spec = make_general_game(6)
    strategy = strategy_from_name("quantum-general", 6)
    whole = list(sampled_runs(spec, strategy, 23, 30))
    split = list(sampled_runs(spec, strategy, 23, 11)) + list(
        sampled_runs(spec, strategy, 23, 19, start=11)
    )
    explicit = []
    for t in range(30):
        stream = SplitMix64.stream(23, t)
        explicit.append(run_game(spec.sample(stream), strategy, stream))
    assert whole == split == explicit
    assert len({r.transcript.final_outputs for r in whole}) > 1


# ---------------------------------------------------------------------------
# lazy instances against the eager oracle


def _fields(instance):
    return oracles.EagerInstance(
        instance.chosen,
        instance.label,
        instance.grouping.groups,
        instance.query,
        instance.aux_group,
    )


@pytest.mark.parametrize(
    "game, make, lowest",
    [("simple", make_simple_game, 3), ("general", make_general_game, 2)],
)
def test_lazy_instances_match_the_eager_builder(game, make, lowest):
    for n in range(lowest, 12):
        spec = make(n)
        eager = oracles.eager_instances(game, n)
        size = len(eager)
        assert len(spec.instances) == spec.instances.size == size
        for k, ref in enumerate(eager):
            assert _fields(spec.instances[k]) == ref
            assert _fields(spec.instances[k - size]) == ref
        assert [_fields(i) for i in spec.instances] == list(eager)
        for bad in (size, -size - 1):
            with pytest.raises(IndexError):
                spec.instances[bad]
        for s in range(300):
            # the same draws pick the same instance as indexing the eager tuple
            ref = eager[SplitMix64(s).below(size)]
            assert _fields(spec.sample(SplitMix64(s))) == ref


def test_instances_are_built_on_access_only():
    # about 2**198 chosen sets: only the ones asked for are ever built
    spec = make_general_game(200)
    assert spec.instances.size == sum(comb(200, k) for k in range(2, 201, 4))
    last = spec.instances[-1]
    assert last.chosen == tuple(range(3, 201))  # lexicographically last
    assert last.grouping.groups[-1] == frozenset({1, 2})
    sampled = spec.sample(SplitMix64(5))
    assert len(sampled.chosen) % 4 == 2
