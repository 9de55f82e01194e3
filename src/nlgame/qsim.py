"""Exact statevector engine for small qubit registers.

Amplitudes are Gaussian integers over a power-of-sqrt(2) denominator, so
every state reachable by GHZ preparation and diagonal/circular measurements
is represented without rounding, and outcome probabilities are exact
``fractions.Fraction`` values.  "This outcome never happens" is a decidable
statement here, not a tolerance judgement.

One kernel does the exact work.  ``_project`` projects the register's core
onto a joint outcome, summing terms with ``_add_term`` (the one place that
aligns sqrt(2) scales and rejects a sum outside the exact set), and
``_mass`` weighs the result.  ``outcome_probability`` weighs one projection;
``measure_qubit`` projects onto both outcomes of its qubit, draws one and
renormalizes it, computing each split of a register's core once.  The
kernels and the core work on plain ``(re, im, scale)`` integer triples.

Conventions: qubits are numbered 1..n and qubit 1 is the most significant
bit of an amplitude index, so index ``0b10`` of a 2-qubit register means
qubit 1 is |1> and qubit 2 is |0>.  No floating-point arithmetic occurs in
this module.
"""

from __future__ import annotations

import enum
import functools
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Protocol

__all__ = [
    "QUBIT_CAP",
    "ExactnessError",
    "DrawSource",
    "MeasBasis",
    "StateVector",
    "make_ghz",
    "measure_qubit",
    "outcome_probability",
]

# Registers above this size are refused: ``StateVector.support`` lists up to
# 2**n indices, and the quantum strategies and the CLI's play domain stop here.
QUBIT_CAP = 20


class ExactnessError(ArithmeticError):
    """A value left the exactly representable set."""


class DrawSource(Protocol):
    """Source of outcome bits: returns 0 with probability ``p_zero``."""

    def draw(self, p_zero: Fraction) -> int: ...


def _canonical(re: int, im: int, scale: int) -> tuple[int, int, int]:
    """The canonical ``(re, im, scale)`` of (re + im*i) / sqrt(2)**scale."""
    if re == 0 and im == 0:
        return 0, 0, 0
    while scale >= 2 and not (re | im) & 1:
        re, im, scale = re >> 1, im >> 1, scale - 2
    return re, im, scale


class MeasBasis(enum.Enum):
    COMPUTATIONAL = "computational"
    DIAGONAL = "diagonal"
    CIRCULAR = "circular"
    __hash__ = object.__hash__  # members equal only themselves; Enum's hash is Python code


# Single-qubit basis vectors as ((re0, im0), (re1, im1), shared sqrt2 scale).
_BASIS_COMPONENTS = {
    (MeasBasis.COMPUTATIONAL, 0): ((1, 0), (0, 0), 0),
    (MeasBasis.COMPUTATIONAL, 1): ((0, 0), (1, 0), 0),
    (MeasBasis.DIAGONAL, 0): ((1, 0), (1, 0), 1),
    (MeasBasis.DIAGONAL, 1): ((1, 0), (-1, 0), 1),
    (MeasBasis.CIRCULAR, 0): ((1, 0), (0, 1), 1),
    (MeasBasis.CIRCULAR, 1): ((1, 0), (0, -1), 1),
}


# Per basis and outcome b, the weights <b|0> and <b|1> as (re, im, sqrt2 scale).
_CONJUGATE_COMPONENTS = {
    basis: tuple(
        ((r0, -i0, s), (r1, -i1, s))
        for (r0, i0), (r1, i1), s in (_BASIS_COMPONENTS[basis, b] for b in (0, 1))
    )
    for basis in MeasBasis
}


class StateVector:
    """Register of exact amplitudes with squared norm exactly 1.

    The state is held as an entangled core times measured factors.  The
    core maps amplitude indices, with the bits of measured qubits cleared,
    to nonzero amplitudes as canonical ``(re, im, scale)`` triples, each
    the value (re + im*i) / sqrt(2)**scale; the factors map each measured
    qubit to the ``(basis, outcome)`` whose basis vector it was left in.
    A projective single-qubit measurement only ever moves a qubit from the
    core into a factor, so a GHZ core keeps at most two entries however
    many qubits are measured, and no list of the register's 2**n
    amplitudes is ever built.  The constructor takes a sparse
    ``{index: (re, im, scale)}`` core with no qubit measured; it drops
    zero entries and stores the rest canonically.  The states measured
    from one ``make_ghz`` or constructor call share its split table (see
    :func:`measure_qubit`) and free it with the last of them.  The table
    interns each core it holds, so equal cores are one object, never mutated.
    """

    __slots__ = ("_n", "_core", "_factors", "_splits")

    def __init__(self, num_qubits: int, core: Mapping[int, tuple[int, int, int]]) -> None:
        if num_qubits < 1 or num_qubits > QUBIT_CAP:
            raise ValueError(f"num_qubits must be in [1, {QUBIT_CAP}], got {num_qubits}")
        self._n = num_qubits
        self._core = {}
        for idx, (re, im, scale) in core.items():
            if not 0 <= idx < 1 << num_qubits:
                raise ValueError(f"amplitude index must be in [0, 2**{num_qubits}), got {idx}")
            if scale < 0:
                raise ValueError("sqrt2 scale must be non-negative")
            if re or im:
                self._core[idx] = _canonical(re, im, scale)
        self._factors: dict[int, tuple[MeasBasis, int]] = {}
        self._splits: dict = {frozenset(self._core.items()): self._core}
        if self.norm_squared() != 1:
            raise ValueError("state vector must have squared norm exactly 1")

    @classmethod
    def _factored(
        cls,
        num_qubits: int,
        core: dict[int, tuple[int, int, int]],
        factors: dict[int, tuple[MeasBasis, int]],
        splits: dict,
    ) -> "StateVector":
        state = cls.__new__(cls)
        state._n = num_qubits
        state._core = core
        state._factors = factors
        state._splits = splits
        return state

    @property
    def num_qubits(self) -> int:
        return self._n

    @property
    def measured(self) -> MappingProxyType:
        """Each measured qubit's ``(basis, outcome)``, in the order first measured."""
        return MappingProxyType(self._factors)

    @property
    def support(self) -> tuple[int, ...]:
        """Indices of nonzero amplitudes, ascending: every core index with
        each measured qubit's bit set to each nonzero component of its factor."""
        indices = list(self._core)
        for qubit, (basis, outcome) in self._factors.items():
            *vector, _ = _BASIS_COMPONENTS[basis, outcome]
            bits = [v << (self._n - qubit) for v, (re, im) in enumerate(vector) if re or im]
            indices = [idx | bit for idx in indices for bit in bits]
        return tuple(sorted(indices))

    def norm_squared(self) -> Fraction:
        # factors are unit basis vectors, so the core carries the whole norm
        return _fraction(*_mass(self._core.values()))

    def __repr__(self) -> str:
        return (
            f"StateVector(num_qubits={self._n}, core={len(self._core)}, "
            f"measured={len(self._factors)})"
        )


def make_ghz(n: int) -> StateVector:
    """(|0...0> + |1...1>) / sqrt(2) on n qubits; n = 1 gives (|0> + |1>) / sqrt(2)."""
    if n < 1 or n > QUBIT_CAP:
        raise ValueError(f"GHZ register size must be in [1, {QUBIT_CAP}], got {n}")
    return StateVector(n, {0: (1, 0, 1), (1 << n) - 1: (1, 0, 1)})


def _add_term(acc: dict, key: int, re: int, im: int, scale: int) -> None:
    """Adds (re + im*i) / sqrt(2)**scale into ``acc[key]``, aligning scales.

    Entries are mutable ``[re, im, scale]`` lists on plain ints.  Zero has
    no scale parity; two nonzero terms whose scales differ by an odd power
    have a sum outside the exact set and raise :class:`ExactnessError`.
    """
    if re == 0 and im == 0:
        return
    entry = acc.get(key)
    if entry is None:
        acc[key] = [re, im, scale]
        return
    ere, eim, esc = entry
    if ere == 0 and eim == 0:
        entry[0] = re
        entry[1] = im
        entry[2] = scale
        return
    if esc == scale:
        entry[0] = ere + re
        entry[1] = eim + im
        return
    d = esc - scale
    if d % 2:
        raise ExactnessError("mixed sqrt2-scale parity: state outside the exact set")
    if d > 0:
        f = 1 << (d // 2)
        entry[0] = ere + re * f
        entry[1] = eim + im * f
    else:
        f = 1 << (-d // 2)
        entry[0] = ere * f + re
        entry[1] = eim * f + im
        entry[2] = scale


def _mass(entries: Iterable) -> tuple[int, int]:
    """Exact squared norm of (re, im, sqrt2 scale) entries as num / 2**top."""
    num = top = 0
    for re, im, sc in entries:
        if re or im:
            if sc > top:
                num <<= sc - top
                top = sc
            num += (re * re + im * im) << (top - sc)
    return num, top


@functools.lru_cache(maxsize=64)
def _fraction(num: int, top: int) -> Fraction:
    # few masses recur (a measured branch is 0, 1/2 or 1), so build each once
    return Fraction(num, 1 << top)


def _overlap(
    basis: MeasBasis, bit: int, held_basis: MeasBasis, held_bit: int
) -> tuple[int, int, int]:
    """<basis, bit | held_basis, held_bit> as (re, im, sqrt2 scale)."""
    (a0, b0), (a1, b1), s = _BASIS_COMPONENTS[(basis, bit)]
    (c0, d0), (c1, d1), t = _BASIS_COMPONENTS[(held_basis, held_bit)]
    # conj(a + b i) * (c + d i) = (ac + bd) + (ad - bc) i, summed over both slots
    re = a0 * c0 + b0 * d0 + a1 * c1 + b1 * d1
    im = a0 * d0 - b0 * c0 + a1 * d1 - b1 * c1
    return re, im, s + t


def _project(
    state: StateVector, assignment: Iterable[tuple[int, MeasBasis, int]]
) -> dict[int, list]:
    """The core projected onto a joint outcome, as :func:`_add_term` entries.

    ``assignment`` lists ``(qubit_index, basis, outcome_bit)`` with each
    qubit listed at most once.  Each entry is keyed by its core index with
    the listed qubits' bits cleared, so unlisted qubits keep their own
    entries and the squared norm of the result is their marginal.  A listed
    qubit that was already measured contributes the overlap of the listed
    basis vector with its factor.
    """
    n = state._n
    held = state._factors
    factors = []
    listed = 0
    for qubit, basis, bit in assignment:
        if qubit < 1 or qubit > n:
            raise ValueError(f"qubit index must be in [1, {n}], got {qubit}")
        if bit not in (0, 1):
            raise ValueError("outcome bit must be 0 or 1")
        pos = n - qubit
        if listed >> pos & 1:
            raise ValueError(f"qubit {qubit} listed twice in assignment")
        listed |= 1 << pos
        if held and qubit in held:
            # the core bit of a measured qubit is 0, so only slot 0 is read
            factors.append((pos, (_overlap(basis, bit, *held[qubit]), (0, 0, 0))))
        else:
            factors.append((pos, _CONJUGATE_COMPONENTS[basis][bit]))

    acc: dict[int, list] = {}
    for idx, (re, im, sc) in state._core.items():
        for pos, weights in factors:
            wre, wim, ws = weights[idx >> pos & 1]
            if not (wre or wim):
                break
            re, im, sc = re * wre - im * wim, re * wim + im * wre, sc + ws
        else:
            _add_term(acc, idx & ~listed, re, im, sc)
    return acc


def measure_qubit(
    state: StateVector,
    qubit_index: int,
    basis: MeasBasis,
    draws: DrawSource,
) -> tuple[int, StateVector, Fraction]:
    """Projective measurement of one qubit.

    Samples the outcome with its exact Born probability using ``draws``,
    and returns ``(outcome, collapsed_state, probability_of_outcome)``.
    The measured qubit leaves the core and becomes a factor holding the
    basis vector of the observed outcome; measuring it again projects that
    factor.  Only the core is projected, and it is renormalized exactly
    (the reachable states here only ever need a sqrt(2)-power
    renormalization; anything else raises :class:`ExactnessError`).
    Branch masses stay integers over a power of two until the draw.

    A split is computed once per register.  Its table interns the root
    core and each child core, so a split is keyed by the core's identity,
    the qubit, the basis and the qubit's held factor (or ``None``).  It
    holds its core, keeping that identity unique, both masses and
    probabilities, both projections and each drawn outcome's child core.
    A failed check stores nothing, so it raises again on every call.
    """
    core, splits = state._core, state._splits
    key = (id(core), qubit_index, basis, state._factors.get(qubit_index))
    split = splits.get(key)
    if split is None:
        projected = (
            _project(state, ((qubit_index, basis, 0),)),
            _project(state, ((qubit_index, basis, 1),)),
        )
        masses = (num0, top0), (num1, top1) = (
            _mass(projected[0].values()),
            _mass(projected[1].values()),
        )
        top = max(top0, top1)
        if (num0 << (top - top0)) + (num1 << (top - top1)) != 1 << top:
            raise ExactnessError("measurement branches do not sum to 1")
        probs = _fraction(num0, top0), _fraction(num1, top1)
        split = splits[key] = (core, probs, masses, projected, [None, None])
    _, probs, masses, projected, children = split
    outcome = draws.draw(probs[0])
    num, top = masses[outcome]
    p = probs[outcome]
    child = children[outcome]
    if child is None:
        # only the drawn branch is renormalized, so only it must be 2**-t
        if not num or num & (num - 1):
            raise ExactnessError(f"renormalization needs a power-of-two probability, got {p}")
        # each entry's own mass is at most the branch's 2**-t, so t <= its scale
        t = top - num.bit_length() + 1
        child = {
            idx: _canonical(re, im, sc - t)
            for idx, (re, im, sc) in projected[outcome].items()
            if re or im
        }
        child = children[outcome] = splits.setdefault(frozenset(child.items()), child)
    factors = {**state._factors, qubit_index: (basis, outcome)}
    return outcome, StateVector._factored(state._n, child, factors, splits), p


def outcome_probability(
    state: StateVector,
    assignment: Iterable[tuple[int, MeasBasis, int]],
) -> Fraction:
    """Exact probability of a joint measurement outcome.

    ``assignment`` lists ``(qubit_index, basis, outcome_bit)`` with each
    qubit listed at most once.  Unlisted qubits are marginalized over, so a
    partial assignment yields the marginal probability of the listed
    outcomes.  A listed qubit that was already measured contributes the
    overlap of the listed basis vector with its factor.
    """
    return _fraction(*_mass(_project(state, assignment).values()))
