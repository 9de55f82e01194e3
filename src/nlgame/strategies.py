"""Concrete strategies for the pair and parity games.

The quantum strategy, one class under the names ``quantum-simple`` and
``quantum-general``, shares a GHZ state, one qubit per player.  Remaining
players measure diagonally and pool their outcomes inside the group; the
lowest-indexed one broadcasts the parity of the observed count as a single
fixed-length hint bit.  Each chosen player then measures diagonally when
the hint is 1 and circularly when it is 0 and outputs the outcome bit
(0 for the first basis vector).  The classical strategies broadcast either
a label or a best-response hint bit and respond deterministically.

When the remaining group is empty (the parity game may choose everyone),
the execution loop injects the strategy's declared standard broadcast on
the group's behalf: hint bit 0 for the quantum strategy, player 1's label
for the labeling strategy.
"""

from __future__ import annotations

import enum
import itertools
from fractions import Fraction
from math import comb
from typing import Callable, Iterable

from .games import Action, GameInstance, Inbox, ProtocolViolation, Strategy, _exact_sum
from .qsim import (
    QUBIT_CAP,
    MeasBasis,
    StateVector,
    make_ghz,
    measure_qubit,
    outcome_probability,
)

__all__ = [
    "ClassicalAtomStrategy",
    "QuantumSharedState",
    "losing_probability_formula",
    "quantum_simple_strategy",
    "quantum_general_strategy",
    "classical_label_strategy",
    "strategy_from_name",
    "simple_strategy_losing_mass",
    "general_strategy_forbidden_mass",
    "general_strategy_output_distribution",
]


def losing_probability_formula(n: int) -> Fraction:
    """Best classical losing probability of the pair game under 1-bit hints.

    With n = 4k + r, the value is
    (4 - r) * (k/n) * ((k-1)/(n-1)) + r * ((k+1)/n) * (k/(n-1)),
    the chance that a uniformly chosen pair falls in one class of a
    balanced 4-way split.  Defined for n >= 5.
    """
    if n < 5:
        raise ValueError(f"formula domain starts at n = 5, got {n}")
    k, r = divmod(n, 4)
    return (4 - r) * Fraction(k, n) * Fraction(k - 1, n - 1) + r * Fraction(
        k + 1, n
    ) * Fraction(k, n - 1)


class ClassicalAtomStrategy(enum.Enum):
    """Per-player response to the 1-bit hint in the pair game."""

    CONST0 = "0"
    CONST1 = "1"
    COPY_HINT = "b"
    FLIP_HINT = "nb"

    def respond(self, hint: int) -> int:
        if self is ClassicalAtomStrategy.CONST0:
            return 0
        if self is ClassicalAtomStrategy.CONST1:
            return 1
        if self is ClassicalAtomStrategy.COPY_HINT:
            return hint
        return 1 - hint


class QuantumSharedState:
    """Joint register shared by one run's players; player i owns qubit i."""

    def __init__(self, state: StateVector, draws) -> None:
        self.state = state
        self._draws = draws

    @classmethod
    def ghz(cls, n: int, draws) -> "QuantumSharedState":
        return cls(make_ghz(n), draws)

    def measure(self, qubit: int, basis: MeasBasis) -> int:
        if qubit in self.state.measured:
            raise ProtocolViolation(f"qubit {qubit} measured twice in one run")
        outcome, self.state, _p = measure_qubit(self.state, qubit, basis, self._draws)
        return outcome

    def fork(self, twins: dict) -> "QuantumSharedState":
        # one twin per forked run (see Strategy.make_players); it shares the
        # immutable register and so its split table: a walk splits each core once
        if self not in twins:
            twins[self] = QuantumSharedState(self.state, twins[self._draws])
        return twins[self]


def _seat(n: int, instance: GameInstance, chosen_role, leader_role, other_role) -> list:
    """One player per seat, made by the seat's role: a chosen player, the
    leader (the lowest remaining player), or another remaining player."""
    chosen = set(instance.chosen)
    leader = min((i for i in range(1, n + 1) if i not in chosen), default=0)
    return [
        chosen_role(i) if i in chosen else leader_role(i) if i == leader else other_role(i)
        for i in range(1, n + 1)
    ]


_WAIT = Action()  # a waiting player's act
# the GHZ players' other acts, built once: outputs, hints, reports by [leader][bit]
_OUTPUT = (Action(output="0", halt=True), Action(output="1", halt=True))
_HINT = (Action(broadcast="0", halt=True), Action(broadcast="1", halt=True))
_REPORT = ((Action(group_message="0", halt=True), Action(group_message="1", halt=True)),
           (Action(group_message="0"), Action(group_message="1")))


class _Responder:
    """Chosen player: waits for the first broadcast, outputs its response."""

    __slots__ = ("_respond",)

    def __init__(self, respond: Callable[[str], str]) -> None:
        self._respond = respond

    def act(self, inbox: Inbox) -> Action:
        if not inbox.broadcasts:
            return _WAIT
        return Action(output=self._respond(inbox.broadcasts[0][1]), halt=True)


class _Announcer:
    """Leader: broadcasts one fixed-length payload computed from the chosen set."""

    __slots__ = ("_payload",)

    def __init__(self, payload: Callable[[tuple[int, ...]], str]) -> None:
        self._payload = payload

    def act(self, inbox: Inbox) -> Action:
        # the remaining players learn the chosen set in step 1
        return Action(
            broadcast=self._payload(inbox.aux), broadcast_fixed_length=True, halt=True
        )


class _SilentHalter:
    def act(self, inbox: Inbox) -> Action:
        return Action(halt=True)


class _Measurer:
    """Chosen player of the GHZ strategy: once the hint arrives, measures
    diagonally on hint 1 and circularly on hint 0 and outputs the outcome."""

    __slots__ = ("_index", "_shared")

    def __init__(self, index: int, shared: QuantumSharedState) -> None:
        self._index = index
        self._shared = shared

    def act(self, inbox: Inbox) -> Action:
        if not inbox.broadcasts:
            return _WAIT
        basis = MeasBasis.DIAGONAL if inbox.broadcasts[0][1] == "1" else MeasBasis.CIRCULAR
        return _OUTPUT[self._shared.measure(self._index, basis)]

    def fork(self, twins: dict) -> "_Measurer":
        return _Measurer(self._index, self._shared.fork(twins))


class _OutcomeReporter:
    """Remaining player: measures diagonally and reports in-group; the
    leader then pools the group's outcomes and broadcasts their parity.
    Its own outcome is read back from the register, which records it."""

    __slots__ = ("_index", "_shared", "_leader")

    def __init__(self, index: int, shared: QuantumSharedState, leader: bool) -> None:
        self._index = index
        self._shared = shared
        self._leader = leader

    def fork(self, twins: dict) -> "_OutcomeReporter":
        return _OutcomeReporter(self._index, self._shared.fork(twins), self._leader)

    def act(self, inbox: Inbox) -> Action:
        if inbox.step == 1:
            return _REPORT[self._leader][self._shared.measure(self._index, MeasBasis.DIAGONAL)]
        own = self._shared.state.measured[self._index][1]
        ones = own + sum(int(payload) for _, payload in inbox.group_messages)
        return _HINT[ones % 2]


class _QuantumParityStrategy(Strategy):
    """The GHZ strategy; it plays the pair game and the parity game alike."""

    def __init__(self, n: int, name: str) -> None:
        self.n = n
        self.name = name

    def make_players(self, instance: GameInstance, draws) -> list:
        shared = QuantumSharedState.ghz(self.n, draws)
        return _seat(
            self.n,
            instance,
            lambda i: _Measurer(i, shared),
            lambda i: _OutcomeReporter(i, shared, leader=True),
            lambda i: _OutcomeReporter(i, shared, leader=False),
        )

    def empty_group_action(
        self, instance: GameInstance, group_index: int
    ) -> Action | None:
        return Action(broadcast="0", broadcast_fixed_length=True)


def _quantum_strategy(n: int, name: str, lo: int, game: str) -> Strategy:
    if not lo <= n <= QUBIT_CAP:
        raise ValueError(
            f"quantum {game} strategy needs {lo} <= n <= {QUBIT_CAP} "
            f"(GHZ register cap), got {n}"
        )
    return _QuantumParityStrategy(n, name)


def quantum_simple_strategy(n: int) -> Strategy:
    """GHZ strategy for the pair game; 1 broadcast bit, never loses."""
    return _quantum_strategy(n, "quantum-simple", 3, "pair")


def quantum_general_strategy(n: int) -> Strategy:
    """GHZ strategy for the parity game; at most 1 broadcast bit, never loses."""
    return _quantum_strategy(n, "quantum-general", 2, "parity")


class ClassicalLabelStrategy(Strategy):
    """Broadcast one chosen player's label; that player outputs 1, the others 0."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.name = "classical-label"
        # player i's label is labels[i - 1], i - 1 in ceil(log2 n) binary digits
        width = max(1, (n - 1).bit_length())
        self.labels = tuple(format(i, f"0{width}b") for i in range(n))

    def make_players(self, instance: GameInstance, draws) -> list:
        labels = self.labels
        return _seat(
            self.n,
            instance,
            lambda i: _Responder(lambda label: "1" if label == labels[i - 1] else "0"),
            lambda i: _Announcer(lambda chosen: labels[min(chosen) - 1]),
            lambda i: _SilentHalter(),
        )

    def empty_group_action(
        self, instance: GameInstance, group_index: int
    ) -> Action | None:
        return Action(broadcast=self.labels[0], broadcast_fixed_length=True)


def classical_label_strategy(n: int) -> Strategy:
    """Labeling strategy: ceil(log2 n) broadcast bits, wins every instance."""
    if n < 2:
        raise ValueError(f"labeling strategy needs n >= 2, got {n}")
    return ClassicalLabelStrategy(n)


class ClassicalAtomAssignment(Strategy):
    """Pair-game strategy from one atom per player.  The leader hints the
    best response: a hint on which the chosen pair's atoms respond
    differently, or 0 when no hint separates them."""

    pair_only = True

    def __init__(self, atoms: tuple[ClassicalAtomStrategy, ...]) -> None:
        if len(atoms) < 3:
            raise ValueError(f"atom assignment needs n >= 3 players, got {len(atoms)}")
        self.n = len(atoms)
        self.name = "classical-atoms"
        self.atoms = atoms

    def _hint(self, pair: tuple[int, int]) -> int:
        a, b = (self.atoms[i - 1] for i in pair)
        return next((hint for hint in (0, 1) if a.respond(hint) != b.respond(hint)), 0)

    def make_players(self, instance: GameInstance, draws) -> list:
        atoms = self.atoms
        return _seat(
            self.n,
            instance,
            lambda i: _Responder(lambda hint: str(atoms[i - 1].respond(int(hint)))),
            lambda i: _Announcer(lambda pair: str(self._hint(pair))),
            lambda i: _SilentHalter(),
        )


_ATOM_TOKENS = {a.value: a for a in ClassicalAtomStrategy}


def strategy_from_name(name: str, n: int) -> Strategy:
    """Resolve a CLI strategy name.

    Accepted: ``quantum-simple``, ``quantum-general``, ``classical-label``,
    and ``classical-atoms:<tags>`` with n comma-separated tags from
    {0, 1, b, nb}.
    """
    if name == "quantum-simple":
        return quantum_simple_strategy(n)
    if name == "quantum-general":
        return quantum_general_strategy(n)
    if name == "classical-label":
        return classical_label_strategy(n)
    if name.startswith("classical-atoms:"):
        tags = name[len("classical-atoms:") :].split(",")
        try:
            atoms = tuple(_ATOM_TOKENS[t.strip()] for t in tags)
        except KeyError as bad:
            raise ValueError(
                f"unknown atom tag {bad.args[0]!r}; use 0, 1, b or nb"
            ) from None
        if len(atoms) != n:
            raise ValueError(f"expected {n} atom tags, got {len(atoms)}")
        return ClassicalAtomAssignment(atoms)
    raise ValueError(f"unknown strategy {name!r}")


# ---------------------------------------------------------------------------
# Exact certainty sweeps.  These recompute, through outcome_probability and
# with no sampling, the joint probability of every measurement branch the
# quantum strategies can take, so "never loses" is an exact statement.
# The GHZ state is invariant under any permutation of its qubits, the
# remaining players all measure diagonally and the chosen ones all measure
# in the basis the hint parity sets, so a branch's probability depends only
# on the weight w of the remaining outcomes and the weight t of the chosen
# outputs.  Each (w, t) class is weighed once, on its first member, and
# counted C(n - k, w) times: (n - k + 1) engine calls per output weight.

def _weigh(n: int, chosen: tuple[int, ...], weights: Iterable[int]) -> dict[int, Fraction]:
    """Exact probability that the chosen players output one given tuple of
    each weight in ``weights`` (every tuple of a weight has the same one)."""
    ghz = make_ghz(n)
    rest = [q for q in range(1, n + 1) if q not in chosen]
    terms: dict[int, list[tuple[int, int]]] = {t: [] for t in weights}
    for w in range(len(rest) + 1):
        # the leader broadcasts the parity of these outcomes as the hint
        basis = MeasBasis.DIAGONAL if w % 2 else MeasBasis.CIRCULAR
        base = [(q, MeasBasis.DIAGONAL, int(i < w)) for i, q in enumerate(rest)]
        ways = comb(len(rest), w)
        for t, parts in terms.items():
            outs = [(c, basis, int(j < t)) for j, c in enumerate(chosen)]
            p = outcome_probability(ghz, base + outs)
            parts.append((ways * p.numerator, p.denominator))
    return {t: _exact_sum(parts) for t, parts in terms.items()}


def _even_parity_mass(n: int, chosen: tuple[int, ...]) -> Fraction:
    # only the even output weights are weighed: about half the engine calls
    k = len(chosen)
    mass = _weigh(n, chosen, range(0, k + 1, 2))
    return sum((comb(k, t) * m for t, m in mass.items()), Fraction(0))


def simple_strategy_losing_mass(n: int, pair: tuple[int, int]) -> Fraction:
    """Exact probability that the chosen pair outputs equal bits."""
    i, j = pair
    if not (1 <= i < j <= n):
        raise ValueError(f"pair must satisfy 1 <= i < j <= n, got {pair}")
    return _even_parity_mass(n, (i, j))


def general_strategy_forbidden_mass(n: int, chosen: tuple[int, ...]) -> Fraction:
    """Exact probability that the chosen set outputs even total parity."""
    k = len(chosen)
    if k % 4 != 2:
        raise ValueError(f"chosen set size must be 2 mod 4, got {k}")
    return _even_parity_mass(n, chosen)


def general_strategy_output_distribution(
    n: int, chosen: tuple[int, ...]
) -> dict[tuple[int, ...], Fraction]:
    """Exact marginal distribution of the chosen players' output tuple."""
    mass = _weigh(n, chosen, range(len(chosen) + 1))
    return {
        outs: mass[sum(outs)] for outs in itertools.product((0, 1), repeat=len(chosen))
    }
