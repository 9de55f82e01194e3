"""Exact-arithmetic engine tests.

The collapse and probability paths are checked two ways: against frozen
hand-derived states, and against an independent symbolic oracle
(tests/oracles.py) that represents amplitudes in Q(sqrt2, i) with plain
Fractions instead of scaled Gaussian integers.  The engine keeps no dense
view of a register, so every amplitude these tests read is the oracle's
``dense`` expansion of the register's core and measured factors.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import oracles

import nlgame.strategies
from nlgame import (
    QUBIT_CAP,
    ExactnessError,
    MeasBasis,
    SplitMix64,
    StateVector,
    enumerate_branches,
    make_ghz,
    make_simple_game,
    measure_qubit,
    outcome_probability,
    quantum_simple_strategy,
)
from nlgame.qsim import _add_term, _canonical

D = MeasBasis.DIAGONAL
C = MeasBasis.CIRCULAR
Z = MeasBasis.COMPUTATIONAL


def dump_lines(state: StateVector) -> list[str]:
    """One line per nonzero amplitude of the oracle's dense view:
    ``index_bits re im scale``, the amplitude as a canonical triple."""
    n = state.num_qubits
    return [
        f"{i:0{n}b} {re} {im} {scale}"
        for i, a in enumerate(oracles.dense(state))
        if not a.is_zero()
        for re, im, scale in [oracles.to_scaled_ints(a)]
    ]


# ---------------------------------------------------------------------------
# canonical triples, and the kernel's sums of (re, im, scale) terms


def test_canonical_form_divides_out_common_factors():
    assert _canonical(2, 0, 2) == (1, 0, 0)
    assert _canonical(4, 8, 5) == (1, 2, 1)
    # scale never goes below the point where an integer is odd
    assert _canonical(2, 0, 1) == (2, 0, 1)


def test_zero_is_stored_at_scale_zero():
    assert _canonical(0, 0, 7) == (0, 0, 0)


def test_negative_scale_rejected():
    # a zero amplitude carries no norm, so only the scale check refuses it
    with pytest.raises(ValueError, match="scale must be non-negative"):
        StateVector(1, {0: (1, 0, 0), 1: (0, 0, -1)})


def summed(*terms) -> tuple[int, int, int]:
    """The canonical triple of (re, im, scale) terms added by the kernel."""
    acc: dict = {}
    for term in terms:
        _add_term(acc, 0, *term)
    return _canonical(*acc.get(0, (0, 0, 0)))


def test_addition_requires_matching_scale_parity():
    with pytest.raises(ExactnessError, match="mixed sqrt2-scale parity"):
        summed((1, 0, 0), (1, 0, 1))
    # zero never participates in the parity check, whether it comes first
    # or is a sum that cancelled
    assert summed((0, 0, 0), (1, 0, 3)) == (1, 0, 3)
    assert summed((1, 0, 2), (-1, 0, 2), (1, 0, 3)) == (1, 0, 3)


ints = st.integers(min_value=-40, max_value=40)


@st.composite
def terms_common_parity(draw):
    parity = draw(st.integers(min_value=0, max_value=1))
    scales = st.integers(min_value=0, max_value=3).map(lambda k: parity + 2 * k)
    return tuple(draw(st.tuples(ints, ints, scales)) for _ in range(3))


@given(terms_common_parity())
def test_addition_ring_laws_on_common_parity(triple):
    a, b, c = triple
    assert summed(a, b) == summed(b, a)
    assert summed(a, b, c) == summed(c, b, a) == summed(b, c, a)
    assert summed(a, (0, 0, 0)) == _canonical(*a)
    assert summed(a, (-a[0], -a[1], a[2])) == (0, 0, 0)
    a_sym, b_sym, c_sym = (oracles.from_scaled_ints(*t) for t in triple)
    assert oracles.from_scaled_ints(*summed(a, b, c)) == a_sym + b_sym + c_sym


# ---------------------------------------------------------------------------
# StateVector construction


def test_qubit_cap_and_count_validation():
    with pytest.raises(ValueError):
        make_ghz(0)
    with pytest.raises(ValueError):
        make_ghz(QUBIT_CAP + 1)
    for n in (0, QUBIT_CAP + 1):
        with pytest.raises(ValueError, match="num_qubits must be in"):
            StateVector(n, {0: (1, 0, 0)})


def test_norm_validation():
    with pytest.raises(ValueError, match="norm exactly 1"):
        StateVector(1, {0: (1, 0, 0), 1: (1, 0, 0)})
    with pytest.raises(ValueError, match="norm exactly 1"):
        StateVector(2, {})
    sv = StateVector(1, {0: (1, 0, 0), 1: (0, 0, 0)})
    assert sv.norm_squared() == 1
    assert sv.support == (0,)


def test_sparse_constructor_stores_canonical_nonzero_entries():
    # (2 + 2i)/4 and 4i/sqrt2**5 are (1 + i)/2 and i/sqrt2, each of mass 1/2
    state = StateVector(2, {3: (0, 4, 5), 1: (0, 0, 3), 0: (2, 2, 4)})
    assert state._core == {3: (0, 1, 1), 0: (1, 1, 2)}
    assert state.support == (0, 3)
    assert dump_lines(state) == ["00 1 1 2", "11 0 1 1"]
    # an index outside [0, 2**n) is refused even where the norm is 1
    for idx in (-1, 4):
        with pytest.raises(ValueError, match="amplitude index must be in"):
            StateVector(2, {idx: (1, 0, 0)})


def test_ghz_frozen_amplitudes():
    ghz = make_ghz(3)
    assert dump_lines(ghz) == ["000 1 0 1", "111 1 0 1"]
    assert ghz.support == (0, 7)
    assert ghz.norm_squared() == 1


def basis_state(basis: MeasBasis, bit: int) -> StateVector:
    """The one-qubit register left by measuring outcome ``bit`` in ``basis``.

    Z is unbiased on |+> and the other bases on |0>, so a tape picks either
    outcome, and in both starts every overlap is 1/sqrt(2): the renormalized
    register is the basis vector itself, with no phase.
    """
    zero = StateVector(1, {0: (1, 0, 0)})
    start = make_ghz(1) if basis is Z else zero
    outcome, state, p = measure_qubit(start, 1, basis, oracles.ReplayTape((bit,)))
    assert (outcome, p) == (bit, Fraction(1, 2))
    return state


def test_basis_states_are_normalized():
    for basis in MeasBasis:
        for bit in (0, 1):
            state = basis_state(basis, bit)
            assert oracles.dense(state) == list(oracles.basis_vector(basis.value, bit))
            assert oracles.norm_squared(oracles.dense(state)) == 1


# ---------------------------------------------------------------------------
# measure_qubit


def test_frozen_collapse_diagonal():
    # measuring qubit 3 of GHZ(3) diagonally with outcome 0 leaves
    # (|00> + |11>)/sqrt2 on qubits 1,2 with qubit 3 in f0
    outcome, state, p = measure_qubit(make_ghz(3), 3, D, oracles.ReplayTape((0,)))
    assert (outcome, p) == (0, Fraction(1, 2))
    assert dump_lines(state) == [
        "000 1 0 2",
        "001 1 0 2",
        "110 1 0 2",
        "111 1 0 2",
    ]
    assert state.norm_squared() == 1


def test_frozen_collapse_circular():
    outcome, state, p = measure_qubit(make_ghz(3), 1, C, oracles.ReplayTape((1,)))
    assert (outcome, p) == (1, Fraction(1, 2))
    assert dump_lines(state) == [
        "000 1 0 2",
        "011 0 1 2",
        "100 0 -1 2",
        "111 1 0 2",
    ]
    assert state.norm_squared() == 1


def test_forced_branches_cover_both_outcomes():
    for forced in (0, 1):
        outcome, state, p = measure_qubit(make_ghz(2), 1, D, oracles.ReplayTape((forced,)))
        assert outcome == forced
        assert p == Fraction(1, 2)
        assert state.norm_squared() == 1


def test_computational_measurement_is_perfectly_correlated():
    # after measuring one GHZ qubit computationally the rest are determined
    for forced in (0, 1):
        draws = oracles.ReplayTape((forced,))
        state = make_ghz(4)
        outcome1, state, p1 = measure_qubit(state, 2, Z, draws)
        assert p1 == Fraction(1, 2)
        for qubit in (1, 3, 4):
            outcome, state, p = measure_qubit(state, qubit, Z, draws)
            assert outcome == outcome1
            assert p == 1  # certain, so no tape consumed
    assert state.norm_squared() == 1


def test_qubit_index_validation():
    with pytest.raises(ValueError):
        measure_qubit(make_ghz(3), 0, D, oracles.ReplayTape((0,)))
    with pytest.raises(ValueError):
        measure_qubit(make_ghz(3), 4, D, oracles.ReplayTape((0,)))


def test_non_power_of_two_probability_raises():
    # [1/2, (1+i)/2, 1/2, 0] has norm 1 but P(qubit1 = 0) = 3/4
    state = StateVector(2, {0: (1, 0, 2), 1: (1, 1, 2), 2: (1, 0, 2)})
    with pytest.raises(ExactnessError):
        measure_qubit(state, 1, Z, oracles.ReplayTape((0,)))


def _three_quarter_state():
    # [1/2, (1+i)/2, 1/2, 0]: P(qubit1 = 0) = 3/4 and P(qubit1 = 1) = 1/4
    return StateVector(2, {0: (1, 0, 2), 1: (1, 1, 2), 2: (1, 0, 2)})


def test_only_the_drawn_branch_must_be_a_power_of_two():
    outcome, state, p = measure_qubit(_three_quarter_state(), 1, Z, oracles.ReplayTape((1,)))
    assert (outcome, p) == (1, Fraction(1, 4))
    assert dump_lines(state) == ["10 1 0 0"]
    with pytest.raises(ExactnessError, match="power-of-two probability, got 3/4"):
        measure_qubit(_three_quarter_state(), 1, Z, oracles.ReplayTape((0,)))


def test_branches_that_do_not_sum_to_one_raise():
    # the constructor refuses these norms, so the states are built unchecked
    state = StateVector._factored(1, {0: (1, 0, 0), 1: (1, 0, 0)}, {}, {})
    with pytest.raises(ExactnessError, match="measurement branches do not sum to 1"):
        measure_qubit(state, 1, Z, oracles.ReplayTape((0,)))
    # a Z branch of mass 1/2 on its own, whichever outcome is drawn
    half = StateVector._factored(1, {0: (1, 0, 1)}, {}, {})
    with pytest.raises(ExactnessError, match="measurement branches do not sum to 1"):
        measure_qubit(half, 1, Z, oracles.ReplayTape((0,)))


def test_mixed_scale_parity_raises_from_both_kernels():
    # [1/sqrt2, 1/2, 1/2, 0] has norm 1, but projecting qubit 2 diagonally
    # sums 1/2 (from 1/sqrt2 * 1/sqrt2) with 1/(2 sqrt2): odd scale mismatch
    state = StateVector(2, {0: (1, 0, 1), 1: (1, 0, 2), 2: (1, 0, 2)})
    with pytest.raises(ExactnessError, match="mixed sqrt2-scale parity"):
        outcome_probability(state, [(2, D, 0)])
    with pytest.raises(ExactnessError, match="mixed sqrt2-scale parity"):
        measure_qubit(state, 2, D, oracles.ReplayTape((0,)))


def test_collapse_matches_reference_oracle():
    """Chained measurements agree with the symbolic oracle step by step."""
    for n, seed in [(2, 1), (3, 7), (4, 11), (5, 23), (6, 5)]:
        rng = SplitMix64(seed)
        state = make_ghz(n)
        ref = oracles.ghz_amplitudes(n)
        for qubit in range(1, n + 1):
            basis = (D, C, Z)[(seed + qubit) % 3]
            outcome, state, p = measure_qubit(state, qubit, basis, rng)
            ref_p, ref = oracles.measure(ref, n, qubit, basis.value, outcome)
            assert p == ref_p
            assert oracles.dense(state) == ref
            assert state.norm_squared() == 1


def test_support_tracks_nonzero_amplitudes_through_collapse():
    # a Z factor has a zero component, so it adds one index per core entry
    # where a D or C factor adds two
    rng = SplitMix64(9)
    state = make_ghz(5)
    for qubit, basis in ((3, D), (1, Z), (5, C), (2, Z)):
        _, state, _ = measure_qubit(state, qubit, basis, rng)
        expected = tuple(
            i for i, a in enumerate(oracles.dense(state)) if not a.is_zero()
        )
        assert state.support == expected


def test_repr_reads_the_factored_form_only(monkeypatch):
    # pytest puts a state's repr in assertion messages, so repr must not
    # list the up to 2**n indices of a large register's support
    rng = SplitMix64(3)
    state = make_ghz(QUBIT_CAP)
    for qubit in range(1, QUBIT_CAP + 1):
        _, state, _ = measure_qubit(state, qubit, D, rng)

    def support(self):
        raise AssertionError("repr listed the support")

    monkeypatch.setattr(StateVector, "support", property(support))
    assert repr(state) == f"StateVector(num_qubits={QUBIT_CAP}, core=1, measured={QUBIT_CAP})"
    assert repr(make_ghz(3)) == "StateVector(num_qubits=3, core=2, measured=0)"


# ---------------------------------------------------------------------------
# outcome_probability


def test_outcome_probability_validation():
    ghz = make_ghz(3)
    with pytest.raises(ValueError):
        outcome_probability(ghz, [(1, D, 0), (1, D, 1)])  # duplicate qubit
    with pytest.raises(ValueError):
        outcome_probability(ghz, [(4, D, 0)])
    with pytest.raises(ValueError):
        outcome_probability(ghz, [(1, D, 2)])


def test_empty_assignment_has_probability_one():
    assert outcome_probability(make_ghz(4), []) == 1


def test_single_qubit_marginals_are_uniform():
    ghz = make_ghz(4)
    for basis in (D, C, Z):
        for bit in (0, 1):
            assert outcome_probability(ghz, [(2, basis, bit)]) == Fraction(1, 2)


def test_full_assignments_sum_to_one_and_match_oracle():
    import itertools

    for n in (2, 3, 4):
        ghz = make_ghz(n)
        bases = [(D, C, Z)[q % 3] for q in range(n)]
        total = Fraction(0)
        for outs in itertools.product((0, 1), repeat=n):
            assignment = [(q + 1, bases[q], outs[q]) for q in range(n)]
            p = outcome_probability(ghz, assignment)
            steps = [(q + 1, bases[q].value, outs[q]) for q in range(n)]
            assert p == oracles.sequence_probability(n, steps)
            total += p
        assert total == 1


def test_partial_assignments_match_oracle_marginals():
    import itertools

    for n in (3, 5):
        ghz = make_ghz(n)
        for outs in itertools.product((0, 1), repeat=2):
            assignment = [(1, C, outs[0]), (n, D, outs[1])]
            steps = [(1, "circular", outs[0]), (n, "diagonal", outs[1])]
            assert outcome_probability(ghz, assignment) == (
                oracles.sequence_probability(n, steps)
            )


def test_probability_agrees_with_measurement_chain():
    # outcome_probability on a full assignment equals the product of the
    # per-step probabilities reported by measure_qubit along that branch
    n = 4
    plan = [(1, D), (2, D), (3, C), (4, C)]
    for seed in (3, 17, 29):
        rng = SplitMix64(seed)
        state = make_ghz(n)
        chained = Fraction(1)
        observed = []
        for qubit, basis in plan:
            outcome, state, p = measure_qubit(state, qubit, basis, rng)
            observed.append((qubit, basis, outcome))
            chained *= p
        assert chained > 0
        assert outcome_probability(make_ghz(n), observed) == chained


# ---------------------------------------------------------------------------
# the factored register against the dense oracle


def random_dense_state(rng, n: int) -> StateVector:
    """A dense input that is not a fresh GHZ register.

    A GHZ pair of branches on a random subset S of the qubits (with random
    bit flips and a random phase i**k on the second branch), times random
    basis vectors on the qubits outside S.  Measurements in the three bases
    keep every such state's probabilities powers of two.
    """
    qubits = range(1, n + 1)
    entangled = [q for q in qubits if rng.random() < 0.6]
    if len(entangled) < 2:
        entangled = []
    flips = {q: rng.randint(0, 1) for q in entangled}
    phase = (*[(1, 0), (0, 1), (-1, 0), (0, -1)][rng.randrange(4)], 1)
    vectors = {
        q: [
            oracles.to_scaled_ints(a)
            for a in oracles.dense(basis_state(rng.choice(list(MeasBasis)), rng.randint(0, 1)))
        ]
        for q in qubits
        if q not in entangled
    }
    core = {}
    for idx in range(1 << n):
        bits = {q: (idx >> (n - q)) & 1 for q in qubits}
        if not entangled:
            re, im, scale = 1, 0, 0
        elif all(bits[q] == flips[q] for q in entangled):
            re, im, scale = 1, 0, 1
        elif all(bits[q] != flips[q] for q in entangled):
            re, im, scale = phase
        else:
            re, im, scale = 0, 0, 0
        for q, vector in vectors.items():
            vre, vim, vscale = vector[bits[q]]
            re, im, scale = re * vre - im * vim, re * vim + im * vre, scale + vscale
        core[idx] = re, im, scale
    return StateVector(n, core)  # validates the norm


def test_factored_collapse_matches_oracle_on_random_sequences(monkeypatch):
    import random

    calls = _project_calls(monkeypatch)
    rng = random.Random(2002)
    remeasured_in_new_basis = sibling_hits = 0
    for n in range(1, 7):
        for trial in range(6 if n < 6 else 3):
            start = make_ghz(n) if trial % 2 == 0 else random_dense_state(rng, n)
            plan = []
            held = {}
            for _ in range(2 * n):
                qubit = rng.randint(1, n)
                basis = rng.choice((D, C, Z))
                if qubit in held and held[qubit] is not basis:
                    remeasured_in_new_basis += 1
                held[qubit] = basis
                plan.append((qubit, basis))
            # the sibling pass replays the plan on the same register with
            # other draws, so it reads the splits the first pass stored
            for sibling, seed in enumerate((1000 * n + trial, 1000 * n + trial + 500)):
                state, ref, draws = start, oracles.dense(start), SplitMix64(seed)
                for qubit, basis in plan:
                    calls.clear()
                    outcome, state, p = measure_qubit(state, qubit, basis, draws)
                    sibling_hits += sibling and not calls
                    ref_p, ref = oracles.measure(ref, n, qubit, basis.value, outcome)
                    assert p == ref_p
                    assert oracles.dense(state) == ref
                    assert state.norm_squared() == 1
                    assert state.support == tuple(
                        i for i, a in enumerate(ref) if not a.is_zero()
                    )
    assert remeasured_in_new_basis > 20
    assert sibling_hits > 50


def test_outcome_probability_on_measured_states_matches_oracle_marginals():
    import random

    rng = random.Random(77)
    checked_measured = 0
    for n in range(1, 7):
        for trial in range(4):
            state = make_ghz(n) if trial % 2 == 0 else random_dense_state(rng, n)
            draws = SplitMix64(n + 31 * trial)
            measured = set()
            for _ in range(rng.randint(1, n)):
                qubit = rng.randint(1, n)
                _, state, _ = measure_qubit(state, qubit, rng.choice((D, C, Z)), draws)
                measured.add(qubit)
            ref = oracles.dense(state)
            for _ in range(6):
                qubits = rng.sample(range(1, n + 1), rng.randint(0, n))
                assignment = [
                    (q, rng.choice((D, C, Z)), rng.randint(0, 1)) for q in qubits
                ]
                steps = [(q, b.value, bit) for q, b, bit in assignment]
                assert outcome_probability(state, assignment) == (
                    oracles.marginal_probability(ref, n, steps)
                )
                checked_measured += bool(measured & set(qubits))
    assert checked_measured > 20


# ---------------------------------------------------------------------------
# the split table shared by a register's measured states


def _project_calls(monkeypatch) -> list:
    """A list that grows by one per call of the projection kernel."""
    calls = []
    project = nlgame.qsim._project
    monkeypatch.setattr(nlgame.qsim, "_project", lambda *args: calls.append(1) or project(*args))
    return calls


def test_split_table_hits_across_a_branch_walk(monkeypatch):
    # sibling branches at one depth hold equal cores, so of the walk's 190
    # measurements only a few dozen splits are new: a walk that recomputed
    # every split made 380 projections at n = 7 and 764 at n = 8
    calls = _project_calls(monkeypatch)
    measured = []
    measure = nlgame.strategies.measure_qubit
    monkeypatch.setattr(
        nlgame.strategies, "measure_qubit", lambda *args: measured.append(1) or measure(*args)
    )
    counts = {}
    for n in (7, 8):
        calls.clear()
        measured.clear()
        instance = next(i for i in make_simple_game(n).instances if i.chosen == (n - 1, n))
        leaves = len(list(enumerate_branches(instance, quantum_simple_strategy(n))))
        counts[n] = leaves, len(measured), len(calls)
    (leaves_7, measured_7, projected_7), (leaves_8, measured_8, projected_8) = counts.values()
    assert (leaves_7, measured_7, leaves_8, measured_8) == (64, 190, 128, 382)
    assert projected_7 <= 60
    assert projected_7 < projected_8 <= projected_7 + 6


def test_a_walk_keeps_one_core_per_content(monkeypatch):
    # the table interns each core it builds, so states whose cores hold
    # equal content hold one core object, and splits are found by identity
    cores = []
    measure = nlgame.strategies.measure_qubit

    def record(state, *args):
        result = measure(state, *args)
        cores.extend((state._core, result[1]._core))
        return result

    monkeypatch.setattr(nlgame.strategies, "measure_qubit", record)
    instance = next(i for i in make_simple_game(7).instances if i.chosen == (3, 5))
    assert len(list(enumerate_branches(instance, quantum_simple_strategy(7)))) == 64
    contents = {frozenset(core.items()) for core in cores}
    assert len(contents) > 10
    assert len({id(core) for core in cores}) == len(contents)


def test_a_root_equal_to_a_later_child_is_split_once(monkeypatch):
    calls = _project_calls(monkeypatch)
    # |0>|+>: qubit 1 measured computationally leaves a core equal to the root's
    root = StateVector(2, {0: (1, 0, 1), 1: (1, 0, 1)})
    _, child, p = measure_qubit(root, 1, Z, oracles.ReplayTape(()))
    assert p == 1 and child._core == root._core
    calls.clear()
    for state in (root, child, child, root):
        outcome, _, p = measure_qubit(state, 2, D, oracles.ReplayTape((0,)))
        assert (outcome, p) == (0, 1)
    assert len(calls) == 2  # both projections of one split


def _check_against_oracle(state, qubit, basis, outcome, calls, hit):
    """Measures ``qubit`` with a forced ``outcome``, checks the result against
    the oracle and against a new register that holds the same amplitudes,
    and checks whether the split came from the table."""
    n = state.num_qubits
    calls.clear()
    got, after, p = measure_qubit(state, qubit, basis, oracles.ReplayTape((outcome,)))
    assert (not calls) == hit
    amps = oracles.dense(state)
    ref_p, ref = oracles.measure(amps, n, qubit, basis.value, outcome)
    assert (got, p) == (outcome, ref_p)
    assert oracles.dense(after) == ref
    # the same amplitudes in a register with its own table, so this one misses
    fresh = StateVector(n, {i: oracles.to_scaled_ints(a) for i, a in enumerate(amps)})
    fresh_got, fresh_after, fresh_p = measure_qubit(
        fresh, qubit, basis, oracles.ReplayTape((outcome,))
    )
    assert (fresh_got, dump_lines(fresh_after), fresh_p) == (got, dump_lines(after), p)


def test_split_table_hits_give_the_oracles_answer(monkeypatch):
    calls = _project_calls(monkeypatch)
    # qubits 1 and 2 measured diagonally with outcomes (0, 1) on one path
    # and (1, 0) on the other leave equal cores under different factors
    ghz = make_ghz(5)
    paths = []
    for outcomes in ((0, 1), (1, 0)):
        state = ghz
        for qubit, outcome in zip((1, 2), outcomes):
            _, state, _ = measure_qubit(state, qubit, D, oracles.ReplayTape((outcome,)))
        paths.append(state)
    first, second = paths
    assert first.measured != second.measured
    for basis in (D, C, Z):
        for outcome in (0, 1):
            # the first path stores the split at outcome 0 and the child at
            # each outcome; the second path finds both
            _check_against_oracle(first, 3, basis, outcome, calls, hit=outcome == 1)
            _check_against_oracle(second, 3, basis, outcome, calls, hit=True)
    # re-measuring qubit 1 circularly keys on its held factor, which the
    # two paths do not share
    for state, hit in ((first, False), (second, False), (first, True), (second, True)):
        _check_against_oracle(state, 1, C, 0, calls, hit)


def test_split_table_stores_no_failure():
    state = _three_quarter_state()
    for _ in range(2):
        with pytest.raises(ExactnessError, match="power-of-two probability, got 3/4"):
            measure_qubit(state, 1, Z, oracles.ReplayTape((0,)))
    outcome, after, p = measure_qubit(state, 1, Z, oracles.ReplayTape((1,)))
    assert (outcome, p) == (1, Fraction(1, 4))
    assert dump_lines(after) == ["10 1 0 0"]
    with pytest.raises(ExactnessError, match="power-of-two probability, got 3/4"):
        measure_qubit(state, 1, Z, oracles.ReplayTape((0,)))
    unnormalized = StateVector._factored(1, {0: (1, 0, 0), 1: (1, 0, 0)}, {}, {})
    for _ in range(2):
        with pytest.raises(ExactnessError, match="measurement branches do not sum to 1"):
            measure_qubit(unnormalized, 1, Z, oracles.ReplayTape((0,)))
