"""Group-structured n-player games with bit-exact broadcast accounting.

An instance fixes an ordered partition of the players into groups, a
per-group query bitstring, and a predicate over the groups' final output
strings.  Play proceeds in synchronous steps: everything a player emits in
step t is delivered in step t+1, either to the other members of the
sender's group or broadcast to all n players.  The game is won when the
tuple of final outputs (the empty string for a group that never outputs)
satisfies the predicate.

Broadcast accounting is exact.  A broadcast whose length is fixed by the
strategy's declared schedule costs exactly its payload length; a
variable-length broadcast is framed with one continuation flag per payload
bit plus a terminator (2L + 1 bits for an L-bit payload), keeping every
concatenated step prefix-decodable.  Intra-group messages are free: only
inter-group communication is measured.

Both games provided are one parity game.  A chosen set C receives query
"0" and must produce single-bit outputs of odd total parity; everyone else
forms the remaining group with query "1" and must stay silent.  The parity
game chooses every C with |C| = 2 (mod 4); the pair game is its |C| = 2
slice, where the two chosen players must output differing bits.  The
remaining group's players also receive the chosen players' identities as
auxiliary input; the chosen players learn nothing beyond their query.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from typing import Callable, Iterable, Iterator, NamedTuple, Protocol

__all__ = [
    "STEP_LIMIT",
    "ProtocolViolation",
    "StepLimitExceeded",
    "SplitMix64",
    "Grouping",
    "GameInstance",
    "GameSpec",
    "InstanceSequence",
    "make_simple_game",
    "make_general_game",
    "Action",
    "Inbox",
    "Player",
    "Strategy",
    "BroadcastRecord",
    "GroupMessage",
    "StepRecord",
    "Transcript",
    "RunResult",
    "run_game",
    "enumerate_branches",
    "check_strategy_fits",
    "sampled_runs",
    "fold_runs",
    "broadcast_complexity",
]

STEP_LIMIT = 64  # steps a run may take before StepLimitExceeded
_MASK64 = (1 << 64) - 1


class ProtocolViolation(RuntimeError):
    """A group produced more than one final output."""


class StepLimitExceeded(RuntimeError):
    """The run did not halt within the step limit."""


class SplitMix64:
    """Counter-based 64-bit generator (splitmix64), stable across releases."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    @classmethod
    def stream(cls, seed: int, *indices: int) -> "SplitMix64":
        """The generator keyed by (seed, *indices); each index is mixed in
        through one splitmix step, so different keys give unrelated streams
        (``seed + index`` would make (42, 1) replay (43, 0))."""
        rng = cls(seed)
        for index in indices:
            rng = cls(rng.next64() ^ index)
        return rng

    def next64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def bits(self, k: int) -> int:
        out = 0
        got = 0
        while got < k:
            take = min(64, k - got)
            out = (out << take) | (self.next64() >> (64 - take))
            got += take
        return out

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        k = (n - 1).bit_length() or 1
        while True:
            v = self.bits(k)
            if v < n:
                return v

    def draw(self, p_zero: Fraction) -> int:
        """0 with probability p_zero; certain outcomes consume no randomness."""
        num, den = p_zero.numerator, p_zero.denominator
        if num >= den:
            return 0
        if num <= 0:
            return 1
        return 0 if self.next64() * den < num << 64 else 1  # u / 2**64 < p_zero


@dataclass(frozen=True)
class Grouping:
    """Ordered partition (G_1, ..., G_m) of players 1..n; groups may be empty."""

    groups: tuple[frozenset[int], ...]
    n: int

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for g in self.groups:
            if seen & g:
                raise ValueError("groups must be disjoint")
            seen |= g
        if seen != set(range(1, self.n + 1)):
            raise ValueError("groups must cover players 1..n exactly")

    @property
    def m(self) -> int:
        return len(self.groups)


@dataclass(frozen=True)
class GameInstance:
    """One (grouping, query, winning-set) triple plus auxiliary knowledge.

    ``chosen`` names the distinguished players (the singleton groups);
    players of group ``aux_group`` receive it as auxiliary input in step 1.
    """

    grouping: Grouping
    query: tuple[str, ...]
    allowed: Callable[[tuple[str, ...]], bool]
    chosen: tuple[int, ...]
    aux_group: int | None = None
    label: str = ""


def _unrank_combination(n: int, k: int, rank: int) -> tuple[int, ...]:
    """The ``rank``-th k-subset of 1..n in ``itertools.combinations`` order."""
    chosen: list[int] = []
    x = 1
    while len(chosen) < k:
        # k-subsets that take x at this slot, given the slots before it
        count = comb(n - x, k - len(chosen) - 1)
        if rank < count:
            chosen.append(x)
        else:
            rank -= count
        x += 1
    return tuple(chosen)


class InstanceSequence(Sequence):
    """A game's instances, built on access instead of all at once.

    Chosen sets run through ``sizes`` ascending, each size in lexicographic
    order, and ``build(chosen)`` makes one set's instance.  Indexing unranks
    the index into its chosen set, so a sampled instance costs O(n) however
    many instances there are.  ``size`` is the exact count, which ``len``
    cannot return once it passes ``sys.maxsize``.
    """

    def __init__(
        self,
        n: int,
        sizes: Iterable[int],
        build: Callable[[tuple[int, ...]], GameInstance],
    ) -> None:
        self._n = n
        self._sizes = tuple(sizes)
        self._build = build
        self.size = sum(comb(n, k) for k in self._sizes)

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, index: int) -> GameInstance:
        index = operator.index(index)
        if index < 0:
            index += self.size
        if not 0 <= index < self.size:
            raise IndexError("instance index out of range")
        for k in self._sizes:
            count = comb(self._n, k)
            if index < count:
                break
            index -= count
        return self._build(_unrank_combination(self._n, k, index))

    def __iter__(self) -> Iterator[GameInstance]:
        for k in self._sizes:
            for chosen in itertools.combinations(range(1, self._n + 1), k):
                yield self._build(chosen)


@dataclass(frozen=True)
class GameSpec:
    """A family of instances over n players with uniform sampling."""

    name: str
    n: int
    instances: InstanceSequence

    def sample(self, rng: SplitMix64) -> GameInstance:
        return self.instances[rng.below(self.instances.size)]


def _parity_rule(k: int):
    """The winning predicate of a chosen set of size k: single-bit outputs
    of odd total parity, the remaining group silent."""

    def allowed(outputs: tuple[str, ...]) -> bool:
        if len(outputs) != k + 1 or outputs[k] != "":
            return False
        chosen = outputs[:k]
        return {*chosen} <= {"0", "1"} and chosen.count("1") % 2 == 1

    return allowed


def _parity_game(name: str, n: int, sizes: Sequence[int], label) -> GameSpec:
    """Parity game over the chosen sets whose size is in ``sizes``;
    ``label(chosen)`` names each instance."""
    players = frozenset(range(1, n + 1))
    # one predicate per size, shared by every instance of that size
    rules = {k: _parity_rule(k) for k in sizes}

    def build(chosen: tuple[int, ...]) -> GameInstance:
        k = len(chosen)
        groups = tuple(frozenset({c}) for c in chosen) + (players - set(chosen),)
        return GameInstance(
            grouping=Grouping(groups, n),
            query=("0",) * k + ("1",),
            allowed=rules[k],
            chosen=chosen,
            aux_group=k,
            label=label(chosen),
        )

    return GameSpec(name, n, InstanceSequence(n, sizes, build))


def make_simple_game(n: int) -> GameSpec:
    """Pair game: the |C| = 2 slice of the parity game, so every pair (i, j)
    must output differing bits.

    Defined for n >= 3 (the remaining group must be able to signal).
    """
    if n < 3:
        raise ValueError(f"simple game needs n >= 3, got {n}")
    return _parity_game("simple", n, (2,), lambda c: f"pair({c[0]},{c[1]})")


def make_general_game(n: int) -> GameSpec:
    """Parity game: chosen sets C with |C| = 2 (mod 4) output odd parity."""
    if n < 2:
        raise ValueError(f"general game needs n >= 2, got {n}")
    return _parity_game(
        "general", n, range(2, n + 1, 4), lambda c: "C={" + ",".join(map(str, c)) + "}"
    )


class Action(NamedTuple):
    """What one player emits in one step.

    ``group_message`` goes to the other members of the player's group next
    step; ``broadcast`` goes to all players next step and is the only thing
    that costs bits.  ``broadcast_fixed_length`` declares that the payload
    length is fixed by the protocol phase, so no framing is charged.
    ``output`` claims the group's final output slot; ``halt`` retires the
    player.
    """

    group_message: str | None = None
    broadcast: str | None = None
    broadcast_fixed_length: bool = True
    output: str | None = None
    halt: bool = False


class Inbox(NamedTuple):
    """Everything delivered to one player at the start of one step."""

    step: int
    query: str | None = None
    aux: tuple[int, ...] | None = None
    group_messages: tuple[tuple[int, str], ...] = ()
    broadcasts: tuple[tuple[int, str], ...] = ()


class Player(Protocol):
    def act(self, inbox: Inbox) -> Action: ...


class Strategy:
    """Base strategy: builds one player object per seat for each run."""

    name = "strategy"
    n = 0
    pair_only = False  # True for a strategy that only plays chosen pairs

    def make_players(self, instance: GameInstance, draws) -> list[Player]:
        """One player per seat; players draw from ``draws``, and only in ``act``.

        :func:`enumerate_branches` forks a run at its draws by copying the
        seating, so every player of a seating that draws has
        ``fork(twins)``.  ``twins`` maps ``draws`` to the copy's source;
        ``fork`` returns an equivalent player on that source, keeping in
        ``twins`` the one twin of each object players share.  Only players
        that have not halted are forked; the copy keeps each halted one.  An
        act changes no state before its first draw.
        """
        raise NotImplementedError

    def empty_group_action(
        self, instance: GameInstance, group_index: int
    ) -> Action | None:
        """Standard behavior injected on behalf of an empty group (sender 0)."""
        return None


class BroadcastRecord(NamedTuple):
    sender: int
    payload: str
    fixed_length: bool

    @property
    def bit_cost(self) -> int:
        return len(self.payload) if self.fixed_length else 2 * len(self.payload) + 1


class GroupMessage(NamedTuple):
    sender: int
    group: int
    payload: str


class StepRecord(NamedTuple):
    step: int
    broadcasts: tuple[BroadcastRecord, ...]
    group_messages: tuple[GroupMessage, ...]


class Transcript(NamedTuple):
    steps: tuple[StepRecord, ...]
    final_outputs: tuple[str, ...]

    @property
    def broadcast_bits(self) -> int:
        return sum(r.bit_cost for s in self.steps for r in s.broadcasts)


class RunResult(NamedTuple):
    won: bool
    transcript: Transcript

    @property
    def broadcast_bits(self) -> int:
        return self.transcript.broadcast_bits


_NOTHING_SENT = StepRecord(0, (), ())  # what step 1 delivers


def _check_bits(payload: str, what: str) -> None:
    if payload.strip("01"):
        raise ValueError(f"{what} must be a 0/1 string, got {payload!r}")


class _Run:
    """One run between two acts: seat ``seat`` acts next, in step ``step``.

    ``broadcasts`` and ``group_messages`` are what step ``step`` has sent so
    far; step ``step - 1``'s record, the last of ``steps``, is what it
    delivers.  Only :meth:`play` changes a run, so :meth:`fork` can copy it
    between acts, or inside an act that has not changed anything yet.
    """

    __slots__ = (
        "instance", "strategy", "draws", "players", "group_of",
        "step", "seat", "halted", "outputs", "steps", "broadcasts", "group_messages",
    )

    def __init__(self, instance: GameInstance, strategy: Strategy, draws) -> None:
        grouping = instance.grouping
        n = grouping.n
        if getattr(strategy, "n", None) != n:
            raise ValueError(
                f"strategy is for n={getattr(strategy, 'n', None)}, instance has n={n}"
            )
        self.instance, self.strategy, self.draws = instance, strategy, draws
        if isinstance(draws, _BranchDraws):
            draws.run = self  # the branch walk forks this run at its draws
        self.players = strategy.make_players(instance, draws)
        if len(self.players) != n:
            raise ValueError("strategy must supply one player per seat")

        self.group_of = {i: gi for gi, g in enumerate(grouping.groups) for i in g}
        self.step, self.seat = 1, 1
        self.halted = [False] * (n + 1)
        self.outputs: dict[int, str] = {}
        self.steps: list[StepRecord] = []
        self.broadcasts: list[BroadcastRecord] = []  # step 1 opens with the empty groups'
        self.group_messages: list[GroupMessage] = []
        for gi, g in enumerate(grouping.groups):
            injected = None if g else strategy.empty_group_action(instance, gi)
            if injected is None:
                continue
            if injected.broadcast is None or injected.output is not None:
                raise ValueError("empty-group action may only broadcast")
            _check_bits(injected.broadcast, "broadcast payload")
            self.broadcasts.append(
                BroadcastRecord(0, injected.broadcast, injected.broadcast_fixed_length)
            )

    def fork(self, draws: "_BranchDraws") -> "_Run":
        """A copy of this run, its live players forked onto ``draws``, its halted ones kept."""
        twin = _Run.__new__(_Run)
        twin.instance, twin.strategy, twin.step = self.instance, self.strategy, self.step
        twin.group_of, twin.seat = self.group_of, self.seat
        halted = twin.halted = self.halted[:]
        twin.outputs = self.outputs.copy()
        twin.steps = self.steps[:]
        twin.broadcasts = self.broadcasts[:]
        twin.group_messages = self.group_messages[:]
        twins = {self.draws: draws}
        twin.players = [p if h else p.fork(twins) for p, h in zip(self.players, halted[1:])]
        twin.draws, draws.run = draws, twin
        return twin

    def play(self) -> RunResult:
        """Play the remaining acts and judge the run."""
        instance = self.instance
        query, chosen, aux_group = instance.query, instance.chosen, instance.aux_group
        players, group_of, halted, outputs = (
            self.players, self.group_of, self.halted, self.outputs
        )
        n = len(players)
        live = n - sum(halted)
        while True:
            t = self.step
            if t > STEP_LIMIT:
                raise StepLimitExceeded(f"run exceeded {STEP_LIMIT} steps without halting")
            first = t == 1
            last = self.steps[-1] if self.steps else _NOTHING_SENT
            delivered = tuple((sender, payload) for sender, payload, _ in last.broadcasts)
            # each group's messages, pooled once; a player hears all but its own
            pools: dict[int, list[tuple[int, str]]] = {}
            own: dict[int, int] = {}  # sender -> place of its one message in its pool
            for sender, group, payload in last.group_messages:
                pool = pools.setdefault(group, [])
                own[sender] = len(pool)
                pool.append((sender, payload))
            broadcasts, group_messages = self.broadcasts, self.group_messages
            for i in range(self.seat, n + 1):
                if halted[i]:
                    continue
                self.seat = i
                gi = group_of[i]
                pool = pools.get(gi, ())
                j = own.get(i)
                inbox = Inbox(
                    t,
                    query[gi] if first else None,
                    chosen if first and gi == aux_group else None,
                    tuple(pool) if j is None else (*pool[:j], *pool[j + 1 :]),
                    delivered,
                )
                message, broadcast, fixed_length, output, halt = players[i - 1].act(inbox)
                if message is not None:
                    _check_bits(message, "group message")
                    group_messages.append(GroupMessage(i, gi, message))
                if broadcast is not None:
                    _check_bits(broadcast, "broadcast payload")
                    broadcasts.append(BroadcastRecord(i, broadcast, fixed_length))
                if output is not None:
                    _check_bits(output, "final output")
                    if gi in outputs:
                        raise ProtocolViolation(
                            f"group {gi} received a second final output from player {i}"
                        )
                    outputs[gi] = output
                if halt:
                    halted[i] = True
                    live -= 1

            self.steps.append(StepRecord(t, tuple(broadcasts), tuple(group_messages)))
            if not live:
                break
            self.step, self.seat = t + 1, 1
            self.broadcasts, self.group_messages = [], []

        final = tuple(outputs.get(g, "") for g in range(instance.grouping.m))
        return RunResult(bool(instance.allowed(final)), Transcript(tuple(self.steps), final))


def run_game(instance: GameInstance, strategy: Strategy, draws) -> RunResult:
    """Execute one run and judge it.

    Delivers the query (plus auxiliary input for the aux group) in step 1,
    then alternates act/deliver rounds until every player has halted; step
    t + 1 is delivered from step t's :class:`StepRecord`, the one record of
    its messages.  Output slots are claimed in ascending player order; a
    second output in the same group raises :class:`ProtocolViolation`, and
    a run past :data:`STEP_LIMIT` steps raises :class:`StepLimitExceeded`.
    """
    return _Run(instance, strategy, draws).play()


class _BranchDraws:
    """Draw source of one run of :func:`enumerate_branches`.

    It replays its tape at genuine draws; certain outcomes (p_zero 0 or 1)
    use no tape, as in :meth:`SplitMix64.draw`.  Past the tape each genuine
    draw takes outcome 1 and stacks the run that takes 0.  A run copied at
    a draw starts from the tape position and probability reached there.
    """

    __slots__ = ("run", "stack", "tape", "pos", "num", "den", "act")

    def __init__(self, stack: list[_Run], tape: tuple[int, ...] = (), prefix=(0, 1, 1)) -> None:
        self.run: _Run | None = None
        self.stack = stack
        self.tape = tape
        self.pos, self.num, self.den = prefix  # tape position, probability num/den
        self.act: tuple[int, int] | None = None  # (step, seat) of the last draw

    def draw(self, p_zero: Fraction) -> int:
        run = self.run
        act = (run.step, run.seat)
        # whether this draw, certain or not, is its act's first
        fresh, self.act = act != self.act, act
        num, den = p_zero.numerator, p_zero.denominator
        if num >= den:
            return 0
        if num <= 0:
            return 1
        pos = self.pos
        if pos == len(self.tape):
            tape = self.tape + (0,)
            if fresh:
                # the act has changed nothing yet, so a copy of the run
                # replays it from its start
                fork = run.fork(_BranchDraws(self.stack, tape, (pos, self.num, self.den)))
            else:
                # a later draw of the act, whose start no copy keeps: replay from the root
                draws = _BranchDraws(self.stack, tape)
                fork = _Run(run.instance, run.strategy, draws)
            self.stack.append(fork)
            self.tape += (1,)
        bit = self.tape[pos]
        self.pos = pos + 1
        self.num *= num if bit == 0 else den - num
        self.den *= den
        return bit


@lru_cache(maxsize=64)
def _leaf_weight(num: int, den: int) -> Fraction:
    # few leaf weights recur (every leaf of an n = 7 pair instance weighs
    # 1/64), so reduce each once
    return Fraction(num, den)


def enumerate_branches(
    instance: GameInstance, strategy: Strategy
) -> Iterator[tuple[RunResult, Fraction]]:
    """All runs with nonzero probability, by a depth-first walk that forks
    the run at each genuine draw.

    :func:`run_game` plays the first run.  At each genuine draw past its
    tape a run takes outcome 1 and stacks the run that takes 0, which
    replays the drawing act from its start with the act's earlier outcomes
    and then 0, counting their probability once.  At the act's first draw
    that run is a copy of the current one (see :meth:`Strategy.make_players`),
    so shared prefixes are played once; at a later draw of the same act it
    is a replay from the root.  Every run yields one leaf, 1-branches
    first.  Deterministic strategies yield exactly one branch of
    probability 1.  A run past :data:`STEP_LIMIT` steps raises
    :class:`StepLimitExceeded`.
    """
    stack: list[_Run] = []
    draws = _BranchDraws(stack)
    result = run_game(instance, strategy, draws)
    yield result, _leaf_weight(draws.num, draws.den)
    while stack:
        run = stack.pop()
        result = run.play()
        yield result, _leaf_weight(run.draws.num, run.draws.den)


def check_strategy_fits(spec: GameSpec, strategy: Strategy) -> None:
    """Raise ValueError before any run if ``strategy`` plays chosen pairs only
    and ``spec`` also chooses larger sets (its last instance holds the largest)."""
    if strategy.pair_only and len(spec.instances[-1].chosen) > 2:
        raise ValueError(
            f"{strategy.name} plays chosen pairs only; the {spec.name} game "
            f"at n = {spec.n} also chooses larger sets"
        )


def sampled_runs(
    spec: GameSpec, strategy: Strategy, seed: int, trials: int, start: int = 0
) -> Iterator[RunResult]:
    """Runs of trials start, ..., start + trials - 1.  Trial t plays an instance
    sampled from ``SplitMix64.stream(seed, t)`` on that same stream, so its
    run does not depend on how the trials are split into blocks."""
    check_strategy_fits(spec, strategy)
    for trial in range(start, start + trials):
        rng = SplitMix64.stream(seed, trial)
        yield run_game(spec.sample(rng), strategy, rng)


def fold_runs(
    spec: GameSpec, strategy: Strategy, walks=None
) -> tuple[list[Fraction], set[int]]:
    """(win mass per walk, broadcast bit counts seen) over ``walks``, one
    iterable of (result, weight) pairs per instance: by default every
    instance's nonzero-probability branches and their probabilities.  A walk
    was won with certainty exactly when its mass is 1: a lost or missing
    branch leaves it below 1."""
    check_strategy_fits(spec, strategy)
    if walks is None:
        walks = (enumerate_branches(instance, strategy) for instance in spec.instances)
    masses: list[Fraction] = []
    bits: set[int] = set()
    for walk in walks:
        won: list[tuple[int, int]] = []
        for result, weight in walk:
            bits.add(result.broadcast_bits)
            if result.won:
                won.append((weight.numerator, weight.denominator))
        masses.append(_exact_sum(won))
    return masses, bits


def _exact_sum(terms: list[tuple[int, int]]) -> Fraction:
    """The sum of num / den over ``terms``, reduced once over their lcm."""
    den = lcm(*(d for _, d in terms))
    return Fraction(sum(num * (den // d) for num, d in terms), den)


def broadcast_complexity(spec: GameSpec, strategy: Strategy) -> tuple[int, bool]:
    """(max broadcast bits, whether every instance was won with mass exactly 1)
    over every instance and every nonzero-probability randomness branch."""
    masses, bits = fold_runs(spec, strategy)
    return max(bits), all(mass == 1 for mass in masses)
