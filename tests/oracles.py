"""Independent reference implementations used to cross-check the library.

Nothing in this module imports from nlgame, and every computation here uses
a different representation than the library does: amplitudes live in
Q(sqrt2, i) as quadruples of Fractions in a dense list instead of scaled
Gaussian integers in a core times measured factors, game instances are
built eagerly in one list instead of unranked on access, randomness
branches are replayed from the root (dropping a run that meets an
uncovered branch, or forking the tape there) instead of forking the run
itself mid-run, the subset-parity condition
is re-derived with an incremental Gray-code walk over all 2^n subsets
instead of elimination and a walk over the kernel, the
classical pair-game bound is brute-forced over raw per-player response
assignments instead of class-size profiles, and a broadcast's bit cost is
checked against its encoded wire form, which the library only counts.
Clarity beats speed; these only run at small sizes.
"""

from __future__ import annotations

import itertools
import random
from collections import namedtuple
from fractions import Fraction
from math import comb


class Sym:
    """Element of Q(sqrt2, i): (a + b*sqrt2) + (c + d*sqrt2) * i."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a=0, b=0, c=0, d=0) -> None:
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.c = Fraction(c)
        self.d = Fraction(d)

    def __add__(self, other: "Sym") -> "Sym":
        return Sym(
            self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d
        )

    def __neg__(self) -> "Sym":
        return Sym(-self.a, -self.b, -self.c, -self.d)

    def __sub__(self, other: "Sym") -> "Sym":
        return self + (-other)

    def __mul__(self, other: "Sym") -> "Sym":
        # pairs (x, y) mean x + y*sqrt2, so (x1,y1)*(x2,y2) has rational
        # part x1x2 + 2 y1y2; complex multiplication on top of that
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = other.a, other.b, other.c, other.d
        return Sym(
            a1 * a2 + 2 * b1 * b2 - c1 * c2 - 2 * d1 * d2,
            a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2,
            a1 * c2 + 2 * b1 * d2 + c1 * a2 + 2 * d1 * b2,
            a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2,
        )

    def conj(self) -> "Sym":
        return Sym(self.a, self.b, -self.c, -self.d)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0 and self.c == 0 and self.d == 0

    def rational(self) -> Fraction:
        if self.b or self.c or self.d:
            raise ValueError(f"not a rational: {self!r}")
        return self.a

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sym):
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.c, self.d))

    def __repr__(self) -> str:
        return f"Sym({self.a}, {self.b}, {self.c}, {self.d})"


SQRT2 = Sym(0, 1)
INV_SQRT2 = Sym(0, Fraction(1, 2))


def from_scaled_ints(re: int, im: int, scale: int) -> Sym:
    """(re + im*i) / sqrt2**scale as a Sym."""
    if scale % 2 == 0:
        den = 1 << (scale // 2)
        return Sym(Fraction(re, den), 0, Fraction(im, den), 0)
    den = 1 << ((scale + 1) // 2)
    return Sym(0, Fraction(re, den), 0, Fraction(im, den))


def basis_vector(basis: str, outcome: int) -> tuple[Sym, Sym]:
    """Computational components of the named single-qubit basis vector."""
    h = INV_SQRT2
    ih = Sym(0, 0, 0, Fraction(1, 2))
    table = {
        ("computational", 0): (Sym(1), Sym(0)),
        ("computational", 1): (Sym(0), Sym(1)),
        ("diagonal", 0): (h, h),
        ("diagonal", 1): (h, -h),
        ("circular", 0): (h, ih),
        ("circular", 1): (h, -ih),
    }
    return table[(basis, outcome)]


def ghz_amplitudes(n: int) -> list[Sym]:
    amps = [Sym() for _ in range(1 << n)]
    amps[0] = INV_SQRT2
    amps[-1] = INV_SQRT2
    return amps


def norm_squared(amps: list[Sym]) -> Fraction:
    total = Sym()
    for z in amps:
        total = total + z.conj() * z
    return total.rational()


def project(amps: list[Sym], n: int, qubit: int, basis: str, outcome: int) -> list[Sym]:
    """Unnormalized projection of one qubit (1-based, qubit 1 is the MSB)."""
    pos = n - qubit
    e0, e1 = basis_vector(basis, outcome)
    c0, c1 = e0.conj(), e1.conj()
    out = [Sym() for _ in range(len(amps))]
    for base in range(len(amps)):
        if (base >> pos) & 1:
            continue
        hi = base | (1 << pos)
        inner = c0 * amps[base] + c1 * amps[hi]
        out[base] = e0 * inner
        out[hi] = e1 * inner
    return out


def measure(
    amps: list[Sym], n: int, qubit: int, basis: str, outcome: int
) -> tuple[Fraction, list[Sym]]:
    """(outcome probability, renormalized post-measurement amplitudes).

    Renormalization multiplies by sqrt2**t with probability 2**-t, staying
    inside the ring; only power-of-two probabilities are supported.
    """
    before = norm_squared(amps)
    projected = project(amps, n, qubit, basis, outcome)
    p = norm_squared(projected) / before
    if p == 0:
        return p, projected
    ratio = 1 / p
    assert ratio.denominator == 1 and ratio.numerator & (ratio.numerator - 1) == 0
    t = ratio.numerator.bit_length() - 1
    scale = Sym(1 << (t // 2)) if t % 2 == 0 else Sym(0, 1 << ((t - 1) // 2))
    return p, [scale * z for z in projected]


def marginal_probability(amps: list[Sym], n: int, steps) -> Fraction:
    """Joint probability of the (qubit, basis, outcome) steps on a unit state."""
    for qubit, basis, outcome in steps:
        amps = project(amps, n, qubit, basis, outcome)
    return norm_squared(amps)


def sequence_probability(n: int, steps) -> Fraction:
    """Joint probability of the (qubit, basis, outcome) sequence from GHZ."""
    return marginal_probability(ghz_amplitudes(n), n, steps)


EagerInstance = namedtuple("EagerInstance", "chosen label groups query aux_group")


def eager_instances(game: str, n: int) -> tuple[EagerInstance, ...]:
    """Every instance of the pair ("simple") or parity ("general") game.

    Built all at once, in the order the games define: chosen-set sizes
    ascending, each size in lexicographic order.
    """
    players = frozenset(range(1, n + 1))
    out = []
    if game == "simple":
        for i, j in itertools.combinations(range(1, n + 1), 2):
            groups = (frozenset({i}), frozenset({j}), players - {i, j})
            label = f"pair({i},{j})"
            out.append(EagerInstance((i, j), label, groups, ("0", "0", "1"), 2))
        return tuple(out)
    for k in [k for k in range(2, n + 1) if k % 4 == 2]:
        for chosen in itertools.combinations(range(1, n + 1), k):
            groups = tuple(frozenset({c}) for c in chosen) + (players - set(chosen),)
            label = "C={" + ",".join(map(str, chosen)) + "}"
            out.append(EagerInstance(chosen, label, groups, ("0",) * k + ("1",), k))
    return tuple(out)


def encode_broadcast(payload: str, fixed_length: bool) -> str:
    """Wire form of one broadcast; variable-length payloads get flag bits."""
    if fixed_length:
        return payload
    return "".join("1" + b for b in payload) + "0"


def decode_step(stream: str, schedule) -> list[str]:
    """Split a concatenated step broadcast back into payloads.

    ``schedule`` lists (fixed_length, payload_length or None) per message,
    which every player knows from the protocol phase.  Raises ValueError if
    the stream does not parse exactly.
    """
    payloads = []
    pos = 0
    for fixed, length in schedule:
        if fixed:
            if length is None or pos + length > len(stream):
                raise ValueError("fixed-length message truncated")
            payloads.append(stream[pos : pos + length])
            pos += length
        else:
            bits = []
            while True:
                if pos >= len(stream):
                    raise ValueError("variable-length message missing terminator")
                flag = stream[pos]
                pos += 1
                if flag == "0":
                    break
                if pos >= len(stream):
                    raise ValueError("continuation flag without payload bit")
                bits.append(stream[pos])
                pos += 1
            payloads.append("".join(bits))
    if pos != len(stream):
        raise ValueError("trailing bits after scheduled messages")
    return payloads


class _TapeEnd(Exception):
    """A replayed tape ran out at a genuine branch point."""


class _ReplayTape:
    """Draw source that replays fixed outcome bits at genuine branch points
    and multiplies the probability of each bit it hands out."""

    def __init__(self, tape: tuple[int, ...]) -> None:
        self.tape = tape
        self.used = 0
        self.probability = Fraction(1)

    def draw(self, p_zero: Fraction) -> int:
        if p_zero == 0 or p_zero == 1:
            return 1 if p_zero == 0 else 0
        if self.used == len(self.tape):
            raise _TapeEnd
        bit = self.tape[self.used]
        self.used += 1
        self.probability *= p_zero if bit == 0 else 1 - p_zero
        return bit


def replay_branches(instance, strategy, run_game):
    """Every (result, probability) of one instance, the slow way.

    Each tape is replayed from the root by ``run_game``; a run that reaches
    a branch its tape does not cover is dropped, and the tape extended by 0
    and by 1 is stacked (1 on top), so leaves come out 1-branches first.
    """
    stack = [()]
    while stack:
        tape = stack.pop()
        draws = _ReplayTape(tape)
        try:
            result = run_game(instance, strategy, draws)
        except _TapeEnd:
            stack += [tape + (0,), tape + (1,)]
            continue
        yield result, draws.probability


class _ForkingTape(_ReplayTape):
    """Replays its tape, then takes outcome 1 at each genuine branch point
    and puts the tape that takes 0 there on the ``pending`` stack."""

    def __init__(self, tape: tuple[int, ...], pending: list) -> None:
        super().__init__(tape)
        self.pending = pending

    def draw(self, p_zero: Fraction) -> int:
        if 0 < p_zero < 1 and self.used == len(self.tape):
            self.pending.append(self.tape + (0,))
            self.tape += (1,)
        return super().draw(p_zero)


def forking_tape_branches(instance, strategy, run_game):
    """Every (result, probability) of one instance, one root replay per leaf.

    Each tape is replayed from the root by ``run_game``; past its end the
    run forks the tape at every new branch, so no run is dropped and leaves
    come out in the order of :func:`replay_branches`.
    """
    stack = [()]
    while stack:
        draws = _ForkingTape(stack.pop(), stack)
        result = run_game(instance, strategy, draws)
        yield result, draws.probability


def gray_subset_condition(vectors) -> bool:
    """True iff no subset of size 2 mod 4 XORs to zero.

    Walks all subsets in Gray-code order, maintaining the running XOR and
    size incrementally, so each subset costs one update.
    """
    vectors = tuple(vectors)
    n = len(vectors)
    member = [False] * n
    acc = 0
    size = 0
    for i in range(1, 1 << n):
        low = (i & -i).bit_length() - 1
        acc ^= vectors[low]
        member[low] = not member[low]
        size += 1 if member[low] else -1
        if size % 4 == 2 and acc == 0:
            return False
    return True


def random_families(count: int, seed: int, max_n: int = 10, max_dim: int = 8):
    """Seeded stream of (dimension, vectors) pairs for differential checks."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_n)
        dim = rng.randint(1, max_dim)
        yield dim, tuple(rng.randrange(1 << dim) for _ in range(n))


# extended Hamming code [8, 4, 4]: its 8 columns (1, x) for x in GF(2)^3,
# as 4-bit rows, XOR to zero exactly on the subsets of size 0, 4 and 8
_HAMMING_ROWS = tuple(range(8, 16))


def rank_deficient_families(count: int, seed: int):
    """Seeded (dimension, vectors) pairs with 12..20 vectors in 2..8 bits,
    so every family has a kernel of dimension 4 to 18.

    Even draws are uniform rows.  Odd draws are direct sums of blocks whose
    zero-sum subsets are known: the extended Hamming rows above, and cycles
    of L rows (L - 1 unit vectors and their sum) whose one zero-sum subset
    is all L of them.  Each block gets its own bits; a random injective
    linear map and a row shuffle then hide the structure.  Uniform rows
    almost always fail the condition early, the block sums often pass, so
    both verdicts come with whole kernels to walk.
    """
    rng = random.Random(seed)
    for draw in range(count):
        if draw % 2 == 0:
            n = rng.randint(12, 20)
            dim = rng.randint(2, 8)
            yield dim, tuple(rng.randrange(1 << dim) for _ in range(n))
            continue
        while True:
            rows: list[int] = []
            bits = 0
            while len(rows) < 12:
                if rng.random() < 0.4:
                    block, width = list(_HAMMING_ROWS), 4
                else:
                    cycle = rng.randint(1, 6)
                    block = [1 << i for i in range(cycle - 1)]
                    block.append(sum(block))
                    width = cycle - 1
                rows += [v << bits for v in block]
                bits += width
            if len(rows) <= 20 and bits <= 8:
                break
        dim = rng.randint(max(2, bits), 8)
        images: list[int] = []  # images of the unit vectors, independent
        while len(images) < bits:
            image = rng.randrange(1, 1 << dim)
            span = {0}
            for v in images:
                span |= {x ^ v for x in span}
            if image not in span:
                images.append(image)
        mapped = []
        for v in rows:
            out = 0
            for i, image in enumerate(images):
                if v >> i & 1:
                    out ^= image
            mapped.append(out)
        rng.shuffle(mapped)
        yield dim, tuple(mapped)


def _respond(atom: int, hint: int) -> int:
    # 0: constant 0, 1: constant 1, 2: copy the hint, 3: negate the hint
    return (0, 1, hint, 1 - hint)[atom]


def brute_force_min_loss(n: int) -> Fraction:
    """Minimal pair-game losing probability over every response assignment.

    Scans all 4**n assignments of the four hint responses.  A pair loses
    exactly when neither hint value separates its two responses; the hint
    sender is assumed to pick the winning hint whenever one exists.
    """
    lose = [
        [all(_respond(a, h) == _respond(b, h) for h in (0, 1)) for b in range(4)]
        for a in range(4)
    ]
    total = comb(n, 2)
    best = total + 1
    for assignment in itertools.product(range(4), repeat=n):
        counts = [assignment.count(a) for a in range(4)]
        losing = 0
        for a in range(4):
            if lose[a][a]:
                losing += counts[a] * (counts[a] - 1) // 2
            for b in range(a + 1, 4):
                if lose[a][b]:
                    losing += counts[a] * counts[b]
        if losing < best:
            best = losing
    return Fraction(best, total)


def min_rows_for_distinct(n: int) -> int:
    """Smallest row length admitting n pairwise distinct binary rows."""
    length = 1
    while (1 << length) < n:
        length += 1
    return length
