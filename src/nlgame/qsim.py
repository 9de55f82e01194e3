"""Exact statevector engine for small qubit registers.

Amplitudes are Gaussian integers over a power-of-sqrt(2) denominator, so
every state reachable by GHZ preparation and diagonal/circular measurements
is represented without rounding, and outcome probabilities are exact
``fractions.Fraction`` values.  "This outcome never happens" is a decidable
statement here, not a tolerance judgement.

Conventions: qubits are numbered 1..n and qubit 1 is the most significant
bit of an amplitude index, so index ``0b10`` of a 2-qubit register means
qubit 1 is |1> and qubit 2 is |0>.  No floating-point arithmetic occurs in
this module.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Protocol, Sequence

__all__ = [
    "QUBIT_CAP",
    "ExactnessError",
    "DrawSource",
    "ExactAmplitude",
    "MeasBasis",
    "MeasurementRecord",
    "StateVector",
    "make_ghz",
    "measure_qubit",
    "outcome_probability",
]

# Registers above this size are refused, so a dense view (2**n amplitudes)
# stays bounded in memory.
QUBIT_CAP = 20


class ExactnessError(ArithmeticError):
    """A value left the exactly representable set."""


class DrawSource(Protocol):
    """Source of outcome bits: returns 0 with probability ``p_zero``."""

    def draw(self, p_zero: Fraction) -> int: ...


class ExactAmplitude:
    """Complex number (re + im*i) / sqrt(2)**scale with integer re, im.

    Instances are kept in canonical form: while both integers are even and
    the scale is at least 2, everything is divided by 2; an exact zero is
    stored at scale 0.  Canonical forms are unique, so equality and hashing
    are structural.
    """

    __slots__ = ("_re", "_im", "_scale")

    def __init__(self, re: int, im: int = 0, scale: int = 0) -> None:
        if scale < 0:
            raise ValueError("sqrt2 scale must be non-negative")
        if re == 0 and im == 0:
            scale = 0
        else:
            while scale >= 2 and re % 2 == 0 and im % 2 == 0:
                re //= 2
                im //= 2
                scale -= 2
        self._re = re
        self._im = im
        self._scale = scale

    @property
    def re_int(self) -> int:
        return self._re

    @property
    def im_int(self) -> int:
        return self._im

    @property
    def sqrt2_scale(self) -> int:
        return self._scale

    @classmethod
    def zero(cls) -> "ExactAmplitude":
        return cls(0)

    @classmethod
    def one(cls) -> "ExactAmplitude":
        return cls(1)

    @classmethod
    def inv_sqrt2(cls, power: int = 1) -> "ExactAmplitude":
        """1 / sqrt(2)**power."""
        return cls(1, 0, power)

    def is_zero(self) -> bool:
        return self._re == 0 and self._im == 0

    def conjugate(self) -> "ExactAmplitude":
        return ExactAmplitude(self._re, -self._im, self._scale)

    def abs_squared(self) -> Fraction:
        return Fraction(self._re * self._re + self._im * self._im, 1 << self._scale)

    def scaled_by_sqrt2(self, power: int) -> "ExactAmplitude":
        """Multiply by sqrt(2)**power (power may be negative)."""
        if power <= 0:
            return ExactAmplitude(self._re, self._im, self._scale - power)
        if self._scale >= power:
            return ExactAmplitude(self._re, self._im, self._scale - power)
        k = power - self._scale
        return ExactAmplitude(self._re << k, self._im << k, k)

    @staticmethod
    def _coerce(value) -> "ExactAmplitude | None":
        if isinstance(value, ExactAmplitude):
            return value
        if isinstance(value, int):
            return ExactAmplitude(value)
        return None

    def __add__(self, other) -> "ExactAmplitude":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        a, b = (self, other) if self._scale >= other._scale else (other, self)
        d = a._scale - b._scale
        if d % 2:
            raise ExactnessError(
                "sum of amplitudes with odd sqrt2-scale mismatch is not representable"
            )
        f = 1 << (d // 2)
        return ExactAmplitude(a._re + b._re * f, a._im + b._im * f, a._scale)

    __radd__ = __add__

    def __neg__(self) -> "ExactAmplitude":
        return ExactAmplitude(-self._re, -self._im, self._scale)

    def __sub__(self, other) -> "ExactAmplitude":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "ExactAmplitude":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "ExactAmplitude":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return ExactAmplitude(
            self._re * other._re - self._im * other._im,
            self._re * other._im + self._im * other._re,
            self._scale + other._scale,
        )

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (
            self._re == other._re
            and self._im == other._im
            and self._scale == other._scale
        )

    def __hash__(self) -> int:
        return hash((self._re, self._im, self._scale))

    def __repr__(self) -> str:
        return f"ExactAmplitude({self._re}, {self._im}, {self._scale})"


class MeasBasis(enum.Enum):
    COMPUTATIONAL = "computational"
    DIAGONAL = "diagonal"
    CIRCULAR = "circular"


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


@dataclass(frozen=True)
class MeasurementRecord:
    qubit_index: int
    basis: MeasBasis
    outcome: int


_ZERO = ExactAmplitude(0)


def _basis_amplitudes(
    basis: MeasBasis, bit: int
) -> tuple[ExactAmplitude, ExactAmplitude]:
    (r0, i0), (r1, i1), s = _BASIS_COMPONENTS[(basis, bit)]
    return ExactAmplitude(r0, i0, s), ExactAmplitude(r1, i1, s)


class StateVector:
    """Register of exact amplitudes with squared norm exactly 1.

    The state is held as an entangled core times measured factors.  The
    core maps amplitude indices, with the bits of measured qubits cleared,
    to nonzero amplitudes; the factors map each measured qubit to the
    ``(basis, outcome)`` whose basis vector it was left in.  A projective
    single-qubit measurement only ever moves a qubit from the core into a
    factor, so a GHZ core keeps at most two entries however many qubits
    are measured.  The dense view (``amplitudes``, ``support``,
    ``dump_lines``, equality) is built on demand and cached.
    """

    __slots__ = ("_n", "_core", "_factors", "_dense")

    def __init__(
        self,
        num_qubits: int,
        amplitudes: Sequence[ExactAmplitude],
        *,
        cap: int = QUBIT_CAP,
        validate_norm: bool = True,
    ) -> None:
        if num_qubits < 1 or num_qubits > cap:
            raise ValueError(f"num_qubits must be in [1, {cap}], got {num_qubits}")
        amps = tuple(amplitudes)
        if len(amps) != 1 << num_qubits:
            raise ValueError("amplitude count must be 2**num_qubits")
        self._n = num_qubits
        self._core = {i: a for i, a in enumerate(amps) if not a.is_zero()}
        self._factors: dict[int, tuple[MeasBasis, int]] = {}
        self._dense = (amps, tuple(self._core))
        if validate_norm and self.norm_squared() != 1:
            raise ValueError("state vector must have squared norm exactly 1")

    @classmethod
    def _factored(
        cls,
        num_qubits: int,
        core: dict[int, ExactAmplitude],
        factors: dict[int, tuple[MeasBasis, int]],
    ) -> "StateVector":
        state = cls.__new__(cls)
        state._n = num_qubits
        state._core = core
        state._factors = factors
        state._dense = None
        return state

    def _dense_view(self) -> tuple[tuple[ExactAmplitude, ...], tuple[int, ...]]:
        # (amplitudes, support): every core entry times every nonzero
        # component of every factor, placed at the factor's bit
        if self._dense is None:
            entries = list(self._core.items())
            for qubit, (basis, outcome) in self._factors.items():
                shift = self._n - qubit
                vector = _basis_amplitudes(basis, outcome)
                entries = [
                    (idx | v << shift, a * c)
                    for idx, a in entries
                    for v, c in enumerate(vector)
                    if not c.is_zero()
                ]
            entries.sort()
            amps = [_ZERO] * (1 << self._n)
            for idx, a in entries:
                amps[idx] = a
            self._dense = (tuple(amps), tuple(idx for idx, _ in entries))
        return self._dense

    @property
    def num_qubits(self) -> int:
        return self._n

    @property
    def measured(self) -> MappingProxyType:
        """Each measured qubit's ``(basis, outcome)``, in the order first measured."""
        return MappingProxyType(self._factors)

    @property
    def amplitudes(self) -> tuple[ExactAmplitude, ...]:
        return self._dense_view()[0]

    @property
    def support(self) -> tuple[int, ...]:
        """Indices of nonzero amplitudes, ascending."""
        return self._dense_view()[1]

    def norm_squared(self) -> Fraction:
        # factors are unit basis vectors, so the core carries the whole norm
        return _fraction(*_mass((a._re, a._im, a._scale) for a in self._core.values()))

    def dump_lines(self) -> list[str]:
        """One line per nonzero amplitude: ``index_bits re_int im_int scale``."""
        amps, support = self._dense_view()
        return [
            f"{i:0{self._n}b} {amps[i].re_int} {amps[i].im_int} {amps[i].sqrt2_scale}"
            for i in support
        ]

    def __eq__(self, other) -> bool:
        if not isinstance(other, StateVector):
            return NotImplemented
        return self._n == other._n and self.amplitudes == other.amplitudes

    def __hash__(self) -> int:
        return hash((self._n, self.amplitudes))

    def __deepcopy__(self, memo) -> "StateVector":
        return self  # immutable

    def __repr__(self) -> str:
        # reads the factored form only: the dense view may hold 2**n slots
        return (
            f"StateVector(num_qubits={self._n}, core={len(self._core)}, "
            f"measured={len(self._factors)})"
        )


def make_ghz(n: int, *, cap: int = QUBIT_CAP) -> StateVector:
    """(|0...0> + |1...1>) / sqrt(2) on n qubits; n = 1 gives (|0> + |1>) / sqrt(2)."""
    if n < 1 or n > cap:
        raise ValueError(f"GHZ register size must be in [1, {cap}], got {n}")
    half = ExactAmplitude.inv_sqrt2()
    return StateVector._factored(n, {0: half, (1 << n) - 1: half}, {})


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
    """
    n = state.num_qubits
    if qubit_index < 1 or qubit_index > n:
        raise ValueError(f"qubit index must be in [1, {n}], got {qubit_index}")
    shift = n - qubit_index
    clear = ~(1 << shift)
    held = state._factors.get(qubit_index)

    # weights[b][v] multiplies a core entry whose bit for this qubit is v
    # into outcome b's projection: <b|v> for a core qubit, and for a
    # measured one (whose core bit is cleared) the overlap with its factor
    if held is None:
        weights = _CONJUGATE_COMPONENTS[basis]
    else:
        weights = [(_overlap(basis, b, *held),) for b in (0, 1)]
    projected: tuple[dict, dict] = ({}, {})
    for idx, a in state._core.items():
        are, aim, asc = a._re, a._im, a._scale
        v = (idx >> shift) & 1
        key = idx & clear
        for acc, w in zip(projected, weights):
            wre, wim, wsc = w[v]
            _add_term(acc, key, wre * are - wim * aim, wre * aim + wim * are, wsc + asc)

    masses = (_mass(projected[0].values()), _mass(projected[1].values()))
    (num0, top0), (num1, top1) = masses
    top = max(top0, top1)
    if (num0 << (top - top0)) + (num1 << (top - top1)) != 1 << top:
        raise ExactnessError("measurement branches do not sum to 1")
    outcome = draws.draw(_fraction(num0, top0))
    num, top = masses[outcome]
    p = _fraction(num, top)
    # only the drawn branch is renormalized, so only it must be 2**-t
    if not num or num & (num - 1):
        raise ExactnessError(f"renormalization needs a power-of-two probability, got {p}")
    t = top - num.bit_length() + 1

    core = {}
    for key, (re, im, sc) in projected[outcome].items():
        if re or im:
            sc -= t
            # multiplying by the sqrt(2) overshoot keeps integers exact
            core[key] = (
                ExactAmplitude(re, im, sc)
                if sc >= 0
                else ExactAmplitude(re << -sc, im << -sc, -sc)
            )
    factors = {**state._factors, qubit_index: (basis, outcome)}
    return outcome, StateVector._factored(n, core, factors), p


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
    n = state.num_qubits
    held = state._factors
    factors = []
    listed = 0
    for qubit, basis, bit in assignment:
        if qubit < 1 or qubit > n:
            raise ValueError(f"qubit index must be in [1, {n}], got {qubit}")
        if bit not in (0, 1):
            raise ValueError("outcome bit must be 0 or 1")
        pos = n - qubit
        if listed & (1 << pos):
            raise ValueError(f"qubit {qubit} listed twice in assignment")
        listed |= 1 << pos
        if held and qubit in held:
            # the core bit of a measured qubit is 0, so only slot 0 is read
            ore, oim, osc = _overlap(basis, bit, *held[qubit])
            factors.append((pos, ore, oim, 0, 0, osc))
            continue
        # probability uses <v|state>, so the components are conjugated
        (r0, i0, s), (r1, i1, _) = _CONJUGATE_COMPONENTS[basis][bit]
        factors.append((pos, r0, i0, r1, i1, s))

    keep = ~listed & ((1 << n) - 1)
    acc: dict[int, list] = {}
    for idx, a in state._core.items():
        fre, fim, fsc = a.re_int, a.im_int, a.sqrt2_scale
        dead = False
        for pos, r0, i0, r1, i1, s in factors:
            if (idx >> pos) & 1:
                cre, cim = r1, i1
            else:
                cre, cim = r0, i0
            if cre == 0 and cim == 0:
                dead = True
                break
            fre, fim = fre * cre - fim * cim, fre * cim + fim * cre
            fsc += s
        if dead:
            continue
        _add_term(acc, idx & keep, fre, fim, fsc)
    return _fraction(*_mass(acc.values()))
