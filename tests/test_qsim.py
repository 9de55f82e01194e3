"""Exact-arithmetic engine tests.

The collapse and probability paths are checked two ways: against frozen
hand-derived states, and against an independent symbolic oracle
(tests/oracles.py) that represents amplitudes in Q(sqrt2, i) with plain
Fractions instead of scaled Gaussian integers.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import oracles
from nlgame import (
    QUBIT_CAP,
    ExactAmplitude,
    ExactnessError,
    MeasBasis,
    SplitMix64,
    StateVector,
    TapeDraws,
    make_ghz,
    measure_qubit,
    outcome_probability,
)

D = MeasBasis.DIAGONAL
C = MeasBasis.CIRCULAR
Z = MeasBasis.COMPUTATIONAL


def to_sym(amp: ExactAmplitude) -> oracles.Sym:
    return oracles.from_scaled_ints(amp.re_int, amp.im_int, amp.sqrt2_scale)


def state_syms(state: StateVector) -> list[oracles.Sym]:
    return [to_sym(a) for a in state.amplitudes]


# ---------------------------------------------------------------------------
# ExactAmplitude


def test_canonical_form_divides_out_common_factors():
    assert ExactAmplitude(2, 0, 2) == ExactAmplitude(1)
    assert ExactAmplitude(4, 8, 5) == ExactAmplitude(1, 2, 1)
    # scale never goes below the point where an integer is odd
    assert ExactAmplitude(2, 0, 1).sqrt2_scale == 1


def test_zero_is_stored_at_scale_zero():
    z = ExactAmplitude(0, 0, 7)
    assert z.is_zero() and z.sqrt2_scale == 0
    assert z == ExactAmplitude.zero()


def test_negative_scale_rejected():
    with pytest.raises(ValueError):
        ExactAmplitude(1, 0, -1)


def test_addition_requires_matching_scale_parity():
    with pytest.raises(ExactnessError):
        ExactAmplitude(1, 0, 0) + ExactAmplitude(1, 0, 1)
    # zero never participates in the parity check
    assert ExactAmplitude(0) + ExactAmplitude(1, 0, 3) == ExactAmplitude(1, 0, 3)


def test_arithmetic_examples():
    half = ExactAmplitude(1, 0, 2)  # 1/2
    i_half = ExactAmplitude(0, 1, 2)
    assert half + half == ExactAmplitude(1)
    assert half - half == ExactAmplitude.zero()
    assert half * i_half == ExactAmplitude(0, 1, 4)
    assert i_half * i_half == ExactAmplitude(-1, 0, 4)
    assert 2 * half == ExactAmplitude(1)
    assert half.conjugate() == half
    assert i_half.conjugate() == ExactAmplitude(0, -1, 2)


def test_scaled_by_sqrt2_overshoot():
    # multiplying 1/sqrt2 by sqrt2**3 overshoots the stored scale; the
    # result 2 comes out via shifted integers, not a fractional scale
    a = ExactAmplitude.inv_sqrt2()
    assert a.scaled_by_sqrt2(3) == ExactAmplitude(2)
    assert a.scaled_by_sqrt2(2) == ExactAmplitude(2, 0, 1)  # sqrt2 itself
    assert a.scaled_by_sqrt2(1) == ExactAmplitude(1)
    assert a.scaled_by_sqrt2(-2) == ExactAmplitude(1, 0, 3)


ints = st.integers(min_value=-40, max_value=40)
scales = st.integers(min_value=0, max_value=8)
amps_any = st.builds(ExactAmplitude, ints, ints, scales)


@st.composite
def amp_triples_common_parity(draw):
    parity = draw(st.integers(min_value=0, max_value=1))
    out = []
    for _ in range(3):
        k = draw(st.integers(min_value=0, max_value=3))
        out.append(draw(st.builds(ExactAmplitude, ints, ints, st.just(parity + 2 * k))))
    return tuple(out)


@given(amp_triples_common_parity())
def test_addition_ring_laws_on_common_parity(triple):
    a, b, c = triple
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a + ExactAmplitude.zero() == a
    assert a - a == ExactAmplitude.zero()


@given(amps_any, amps_any, amps_any)
def test_multiplication_laws(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * ExactAmplitude.one() == a
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a * b).abs_squared() == a.abs_squared() * b.abs_squared()


@given(amp_triples_common_parity(), amps_any)
def test_distributivity(triple, a):
    b, c, _ = triple
    assert a * (b + c) == a * b + a * c


@given(amps_any)
def test_sym_oracle_agrees_on_products_and_norms(a):
    assert a.abs_squared() == (to_sym(a).conj() * to_sym(a)).rational()
    assert to_sym(a * a) == to_sym(a) * to_sym(a)


@given(amps_any, st.integers(min_value=-6, max_value=6))
def test_scaled_by_sqrt2_roundtrip(a, k):
    scaled = a.scaled_by_sqrt2(k)
    if k >= 0:
        assert scaled.scaled_by_sqrt2(-k) == a
    else:
        assert a == scaled.scaled_by_sqrt2(-k)
    assert scaled.abs_squared() == a.abs_squared() * Fraction(2) ** k


# ---------------------------------------------------------------------------
# StateVector construction


def test_qubit_cap_and_count_validation():
    with pytest.raises(ValueError):
        make_ghz(0)
    with pytest.raises(ValueError):
        make_ghz(QUBIT_CAP + 1)
    with pytest.raises(ValueError):
        StateVector(2, [ExactAmplitude(1)])  # wrong amplitude count


def test_norm_validation():
    with pytest.raises(ValueError):
        StateVector(1, [ExactAmplitude(1), ExactAmplitude(1)])
    sv = StateVector(1, [ExactAmplitude(1), ExactAmplitude.zero()])
    assert sv.norm_squared() == 1
    assert sv.support == (0,)


def test_ghz_frozen_amplitudes():
    ghz = make_ghz(3)
    assert ghz.dump_lines() == ["000 1 0 1", "111 1 0 1"]
    assert ghz.support == (0, 7)
    assert ghz.norm_squared() == 1
    assert ghz.amplitudes[0] == ExactAmplitude.inv_sqrt2()


def basis_state(basis: MeasBasis, bit: int) -> StateVector:
    """The one-qubit register left by measuring outcome ``bit`` in ``basis``.

    Z is unbiased on |+> and the other bases on |0>, so a tape picks either
    outcome, and in both starts every overlap is 1/sqrt(2): the renormalized
    register is the basis vector itself, with no phase.
    """
    zero = StateVector(1, [ExactAmplitude.one(), ExactAmplitude.zero()])
    start = make_ghz(1) if basis is Z else zero
    outcome, state, p = measure_qubit(start, 1, basis, TapeDraws((bit,)))
    assert (outcome, p) == (bit, Fraction(1, 2))
    return state


def test_basis_states_are_normalized():
    for basis in MeasBasis:
        for bit in (0, 1):
            state = basis_state(basis, bit)
            assert sum(a.abs_squared() for a in state.amplitudes) == 1
            assert state_syms(state) == list(oracles.basis_vector(basis.value, bit))


# ---------------------------------------------------------------------------
# measure_qubit


def test_frozen_collapse_diagonal():
    # measuring qubit 3 of GHZ(3) diagonally with outcome 0 leaves
    # (|00> + |11>)/sqrt2 on qubits 1,2 with qubit 3 in f0
    outcome, state, p = measure_qubit(make_ghz(3), 3, D, TapeDraws((0,)))
    assert (outcome, p) == (0, Fraction(1, 2))
    assert state.dump_lines() == [
        "000 1 0 2",
        "001 1 0 2",
        "110 1 0 2",
        "111 1 0 2",
    ]
    assert state.norm_squared() == 1


def test_frozen_collapse_circular():
    outcome, state, p = measure_qubit(make_ghz(3), 1, C, TapeDraws((1,)))
    assert (outcome, p) == (1, Fraction(1, 2))
    assert state.dump_lines() == [
        "000 1 0 2",
        "011 0 1 2",
        "100 0 -1 2",
        "111 1 0 2",
    ]
    assert state.norm_squared() == 1


def test_forced_branches_cover_both_outcomes():
    for forced in (0, 1):
        outcome, state, p = measure_qubit(make_ghz(2), 1, D, TapeDraws((forced,)))
        assert outcome == forced
        assert p == Fraction(1, 2)
        assert state.norm_squared() == 1


def test_computational_measurement_is_perfectly_correlated():
    # after measuring one GHZ qubit computationally the rest are determined
    for forced in (0, 1):
        draws = TapeDraws((forced,))
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
        measure_qubit(make_ghz(3), 0, D, TapeDraws((0,)))
    with pytest.raises(ValueError):
        measure_qubit(make_ghz(3), 4, D, TapeDraws((0,)))


def test_non_power_of_two_probability_raises():
    # [1/2, (1+i)/2, 1/2, 0] has norm 1 but P(qubit1 = 0) = 3/4
    state = StateVector(
        2,
        [
            ExactAmplitude(1, 0, 2),
            ExactAmplitude(1, 1, 2),
            ExactAmplitude(1, 0, 2),
            ExactAmplitude.zero(),
        ],
    )
    with pytest.raises(ExactnessError):
        measure_qubit(state, 1, Z, TapeDraws((0,)))


def _three_quarter_state():
    # [1/2, (1+i)/2, 1/2, 0]: P(qubit1 = 0) = 3/4 and P(qubit1 = 1) = 1/4
    amps = [(1, 0), (1, 1), (1, 0), (0, 0)]
    return StateVector(2, [ExactAmplitude(re, im, 2) for re, im in amps])


def test_only_the_drawn_branch_must_be_a_power_of_two():
    outcome, state, p = measure_qubit(_three_quarter_state(), 1, Z, TapeDraws((1,)))
    assert (outcome, p) == (1, Fraction(1, 4))
    assert state.dump_lines() == ["10 1 0 0"]
    with pytest.raises(ExactnessError, match="power-of-two probability, got 3/4"):
        measure_qubit(_three_quarter_state(), 1, Z, TapeDraws((0,)))


def test_branches_that_do_not_sum_to_one_raise():
    state = StateVector(1, [ExactAmplitude(1), ExactAmplitude(1)], validate_norm=False)
    with pytest.raises(ExactnessError, match="measurement branches do not sum to 1"):
        measure_qubit(state, 1, Z, TapeDraws((0,)))
    # a Z branch of mass 1/2 on its own, whichever outcome is drawn
    half = StateVector(
        1, [ExactAmplitude.inv_sqrt2(), ExactAmplitude.zero()], validate_norm=False
    )
    with pytest.raises(ExactnessError, match="measurement branches do not sum to 1"):
        measure_qubit(half, 1, Z, TapeDraws((0,)))


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
            assert state_syms(state) == ref
            assert state.norm_squared() == 1


def test_support_tracks_nonzero_amplitudes_through_collapse():
    rng = SplitMix64(9)
    state = make_ghz(5)
    for qubit in (3, 1, 5):
        _, state, _ = measure_qubit(state, qubit, D, rng)
        expected = tuple(
            i for i, a in enumerate(state.amplitudes) if not a.is_zero()
        )
        assert state.support == expected


def test_repr_reads_the_factored_form_only(monkeypatch):
    # pytest puts a state's repr in assertion messages, so repr must not
    # build the 2**n dense view of a large register
    rng = SplitMix64(3)
    state = make_ghz(QUBIT_CAP)
    for qubit in range(1, QUBIT_CAP + 1):
        _, state, _ = measure_qubit(state, qubit, D, rng)

    def dense_view(self):
        raise AssertionError("repr built the dense view")

    monkeypatch.setattr(StateVector, "_dense_view", dense_view)
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
    phase = ExactAmplitude(*[(1, 0), (0, 1), (-1, 0), (0, -1)][rng.randrange(4)], 1)
    vectors = {
        q: basis_state(rng.choice(list(MeasBasis)), rng.randint(0, 1)).amplitudes
        for q in qubits
        if q not in entangled
    }
    amps = []
    for idx in range(1 << n):
        bits = {q: (idx >> (n - q)) & 1 for q in qubits}
        if not entangled:
            a = ExactAmplitude.one()
        elif all(bits[q] == flips[q] for q in entangled):
            a = ExactAmplitude.inv_sqrt2()
        elif all(bits[q] != flips[q] for q in entangled):
            a = phase
        else:
            a = ExactAmplitude.zero()
        for q, vector in vectors.items():
            a = a * vector[bits[q]]
        amps.append(a)
    return StateVector(n, amps)  # validates the norm


def test_factored_collapse_matches_oracle_on_random_sequences():
    import random

    rng = random.Random(2002)
    remeasured_in_new_basis = 0
    for n in range(1, 7):
        for trial in range(6 if n < 6 else 3):
            state = make_ghz(n) if trial % 2 == 0 else random_dense_state(rng, n)
            ref = state_syms(state)
            draws = SplitMix64(1000 * n + trial)
            held = {}
            for _ in range(2 * n):
                qubit = rng.randint(1, n)
                basis = rng.choice((D, C, Z))
                if qubit in held and held[qubit] is not basis:
                    remeasured_in_new_basis += 1
                held[qubit] = basis
                outcome, state, p = measure_qubit(state, qubit, basis, draws)
                ref_p, ref = oracles.measure(ref, n, qubit, basis.value, outcome)
                assert p == ref_p
                assert state_syms(state) == ref
                assert state.norm_squared() == 1
                assert state.support == tuple(
                    i for i, a in enumerate(state.amplitudes) if not a.is_zero()
                )
    assert remeasured_in_new_basis > 20


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
            ref = state_syms(state)
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
