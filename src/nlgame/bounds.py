"""Exact verification of the classical lower bounds.

Everything here analyzes the single-round reduction: a deterministic
strategy's chosen players are functions of the broadcast history alone, so
a strategy is summarized by a response table with one row per player and
one column per reachable transcript.  Winning the pair game for every
instance forces the rows to be pairwise distinct; winning the parity game
forces every qualifying subset of rows (size 2 mod 4) to have a nonzero
GF(2) sum.  The subsets of n rows that sum to zero are the kernel of the
linear map GF(2)^n -> GF(2)^dimension, so that condition is checked by
elimination and a walk over the 2^(n - rank) kernel vectors, in
O(n * rank + 2^(n - rank)) steps, for kernels of dimension <= 24.  Both
searches run in canonical order (rows strictly increasing as integers),
which is exhaustive because the winning conditions are invariant under
row reordering.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from math import ceil, comb, log2, sqrt

__all__ = [
    "AssignmentSearchResult",
    "ResponseTable",
    "GF2Family",
    "LemmaChainReport",
    "exhaustive_min_loss",
    "min_transcripts_simple",
    "find_response_table",
    "check_gf2_condition",
    "find_gf2_family",
    "min_dimension_general",
    "verify_lemma_chain",
]


@dataclass(frozen=True)
class AssignmentSearchResult:
    """Outcome of the exhaustive pair-game strategy search."""

    min_loss: Fraction
    argmin_profiles: tuple[tuple[int, int, int, int], ...]

    def __post_init__(self) -> None:
        if not 0 <= self.min_loss <= 1:
            raise ValueError(f"loss {self.min_loss} outside [0, 1]")


def _class_size_profiles(n: int):
    # descending 4-part compositions of n, one per orbit of assignments
    for a in range(-(-n // 4), n + 1):
        for b in range(min(a, n - a), -1, -1):
            for c in range(min(b, n - a - b), -1, -1):
                d = n - a - b - c
                if 0 <= d <= c:
                    yield (a, b, c, d)


def exhaustive_min_loss(n: int) -> AssignmentSearchResult:
    """Minimal losing probability of the pair game over all assignments.

    Each player commits to one of four hint responses; a chosen pair with
    best-response hints loses exactly when both players hold the same
    response.  The loss of an assignment therefore depends only on its
    class-size profile (n1, n2, n3, n4), and equals
    sum_c C(n_c, 2) / C(n, 2) for a uniformly random pair.  The search
    minimizes over all profiles and reports every minimizer.
    """
    if not 5 <= n <= 12:
        raise ValueError(f"search supports 5 <= n <= 12, got {n}")
    pair_count = comb(n, 2)
    best: Fraction | None = None
    argmin: list[tuple[int, int, int, int]] = []
    for profile in _class_size_profiles(n):
        loss = Fraction(sum(comb(size, 2) for size in profile), pair_count)
        if best is None or loss < best:
            best = loss
            argmin = [profile]
        elif loss == best:
            argmin.append(profile)
    assert best is not None
    return AssignmentSearchResult(min_loss=best, argmin_profiles=tuple(argmin))


@dataclass(frozen=True)
class ResponseTable:
    """Deterministic single-round strategy, one output row per player.

    Row i, bit r is player i's output when the broadcast history is the
    r-th transcript.  Rows are ints read as bitsets; `length` is the
    number of distinct transcripts.
    """

    n: int
    length: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("need at least one transcript")
        if len(self.rows) != self.n:
            raise ValueError(f"expected {self.n} rows, got {len(self.rows)}")
        if any(not 0 <= r < (1 << self.length) for r in self.rows):
            raise ValueError(f"rows must fit in {self.length} bits")

    def wins_simple(self) -> bool:
        """True iff every pair can be steered to differing outputs."""
        return len(set(self.rows)) == self.n


def find_response_table(n: int, length: int) -> ResponseTable | None:
    """First canonical table of n pairwise-distinct rows, or None.

    Depth-first search over strictly increasing row values; exhaustive up
    to row reordering, which preserves the winning condition.
    """
    if n < 2 or length < 1:
        raise ValueError("need n >= 2 players and length >= 1")
    limit = 1 << length
    rows: list[int] = []

    def extend() -> bool:
        if len(rows) == n:
            return True
        start = rows[-1] + 1 if rows else 0
        need = n - len(rows)
        for value in range(start, limit - need + 1):
            rows.append(value)
            if extend():
                return True
            rows.pop()
        return False

    if not extend():
        return None
    table = ResponseTable(n=n, length=length, rows=tuple(rows))
    assert table.wins_simple()
    return table


def min_transcripts_simple(n: int) -> int:
    """Minimal transcript count that wins every pair-game instance.

    Searches length = 1, 2, ... until a table of n pairwise-distinct rows
    exists.  The failing lengths are exhausted, so the returned value is a
    certificate in both directions.
    """
    if not 2 <= n <= 16:
        raise ValueError(f"search supports 2 <= n <= 16, got {n}")
    for length in range(1, n + 1):
        if find_response_table(n, length) is not None:
            return length
    raise AssertionError("n distinct rows always exist at length n")


@dataclass(frozen=True)
class GF2Family:
    """n vectors over GF(2) in dimension `dimension`, stored as bitsets."""

    dimension: int
    vectors: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if not self.vectors:
            raise ValueError("family must contain at least one vector")
        if any(not 0 <= v < (1 << self.dimension) for v in self.vectors):
            raise ValueError(f"vectors must fit in {self.dimension} bits")

    @property
    def n(self) -> int:
        return len(self.vectors)

    @classmethod
    def from_lines(cls, lines) -> "GF2Family":
        """Parse one 0/1 string per line; dimension is the line length."""
        rows = [line.strip() for line in lines if line.strip()]
        if not rows:
            raise ValueError("no vectors given")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("all vectors must share one length")
        if any(ch not in "01" for r in rows for ch in r):
            raise ValueError("vectors must be 0/1 strings")
        return cls(dimension=width, vectors=tuple(int(r, 2) for r in rows))

    def to_lines(self) -> list[str]:
        return [format(v, f"0{self.dimension}b") for v in self.vectors]


_KERNEL_CAP = 24  # check_gf2_condition walks at most 2 ** _KERNEL_CAP vectors


def check_gf2_condition(family: GF2Family) -> bool:
    """True iff every subset of size 2 mod 4 has nonzero GF(2) sum.

    A subset is a bitmask over the rows; the masks whose rows XOR to zero
    form the kernel of the row map.  Elimination reduces each row against
    the pivots so far, tracking the mask of original rows it combines; a
    row that reduces to zero adds that mask to a kernel basis.  The span of
    the basis is walked in Gray-code order, one XOR per step, and the
    condition fails at the first kernel vector of weight 2 mod 4.  Cost
    O(n * rank + 2^(n - rank)); ValueError if the kernel dimension n - rank > 24.
    """
    pivots: dict[int, tuple[int, int]] = {}  # leading bit -> (row, mask)
    kernel: list[int] = []
    for i, row in enumerate(family.vectors):
        mask = 1 << i
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = (row, mask)
                break
            pivot_row, pivot_mask = pivots[top]
            row ^= pivot_row
            mask ^= pivot_mask
        else:
            kernel.append(mask)
    if len(kernel) > _KERNEL_CAP:
        raise ValueError(
            f"subset check supports kernel dimension <= {_KERNEL_CAP}, "
            f"got {len(kernel)} ({family.n} vectors of rank {len(pivots)})"
        )
    subset = 0
    for step in range(1, 1 << len(kernel)):
        subset ^= kernel[(step & -step).bit_length() - 1]
        if subset.bit_count() % 4 == 2:
            return False
    return True


def find_gf2_family(n: int, dimension: int) -> GF2Family | None:
    """First canonical family passing the subset condition, or None.

    Rows grow strictly increasing as integers.  The search carries the
    reach sets R_s of the accepted prefix: the XORs over its subsets of
    size s mod 4, with R_0 = {0} for the empty prefix.  A candidate v is
    blocked iff v is in R_1, since such a subset plus v would be a
    qualifying subset summing to zero; accepting v makes
    R'_s = R_s | (R_(s-1) ^ v).  Accepted prefixes therefore carry no hidden
    violations, and the search is exhaustive up to reordering.
    """
    if n < 1 or dimension < 1:
        raise ValueError("need n >= 1 vectors and dimension >= 1")
    limit = 1 << dimension
    rows: list[int] = []

    def extend(reach: tuple[set[int], ...]) -> bool:
        if len(rows) == n:
            return True
        start = rows[-1] + 1 if rows else 0
        need = n - len(rows)
        for value in range(start, limit - need + 1):
            if value in reach[1]:
                continue
            rows.append(value)
            # reach[-1] is R_3, the sizes one below 0 mod 4
            grown = tuple(reach[s] | {x ^ value for x in reach[s - 1]} for s in range(4))
            if extend(grown):
                return True
            rows.pop()
        return False

    if not extend(({0}, set(), set(), set())):
        return None
    family = GF2Family(dimension=dimension, vectors=tuple(rows))
    assert check_gf2_condition(family)
    return family


def min_dimension_general(n: int) -> int:
    """Minimal dimension admitting a family that passes the condition."""
    if not 2 <= n <= 10:
        raise ValueError(f"search supports 2 <= n <= 10, got {n}")
    for dimension in range(1, n + 1):
        if find_gf2_family(n, dimension) is not None:
            return dimension
    raise AssertionError("the n standard basis vectors always pass")


def _labeling_witness_family(n: int) -> GF2Family:
    # response family of the labeling strategy: transcript space is all
    # ceil(log2 n)-bit labels, player i outputs 1 only on its own label
    width = max(1, ceil(log2(n)))
    return GF2Family(dimension=1 << width, vectors=tuple(1 << i for i in range(n)))


@dataclass(frozen=True)
class LemmaChainReport:
    """Search value for one n against the bounds that sandwich it."""

    n: int
    min_dimension: int
    sqrt_bound: float
    lower_bound_holds: bool
    log2_min_dimension: float
    broadcast_lower_bits: float
    broadcast_bound_holds: bool
    transcript_upper_bound: int
    upper_bound_holds: bool
    labeling_family_ok: bool

    def all_hold(self) -> bool:
        return (
            self.lower_bound_holds
            and self.broadcast_bound_holds
            and self.upper_bound_holds
            and self.labeling_family_ok
        )

    def as_dict(self) -> dict:
        return asdict(self)


def verify_lemma_chain(n: int) -> LemmaChainReport:
    """Check the bound chain sqrt(n) - 2 <= l_min <= 2^ceil(log2 n).

    The lower comparison is exact: l >= sqrt(n) - 2 iff (l + 2)^2 >= n for
    integer l >= 0, and the broadcast form log2(l) >= (1/2) log2(n) - 2
    iff 16 l^2 >= n.  The upper bound is witnessed by the labeling
    strategy's response family, re-checked through check_gf2_condition.
    """
    l_min = min_dimension_general(n)
    witness = _labeling_witness_family(n)
    upper = witness.dimension
    return LemmaChainReport(
        n=n,
        min_dimension=l_min,
        sqrt_bound=sqrt(n) - 2.0,
        lower_bound_holds=(l_min + 2) ** 2 >= n,
        log2_min_dimension=log2(l_min),
        broadcast_lower_bits=log2(n) / 2 - 2.0,
        broadcast_bound_holds=16 * l_min * l_min >= n,
        transcript_upper_bound=upper,
        upper_bound_holds=l_min <= upper,
        labeling_family_ok=check_gf2_condition(witness),
    )
