"""Search-based bounds: min loss, transcript counts, subset-parity families.

Each search result is checked against an oracle that takes a different
route: the profile-based loss minimum against a raw 4**n assignment scan,
the subset-parity scan against a Gray-code walk, the pigeonhole response
table against a scan over raw row tuples, and the transcript count against
the closed form it is supposed to certify.
"""

import itertools
import random
import time
from fractions import Fraction
from functools import reduce
from math import comb, sqrt
from operator import xor

import pytest

import oracles
from nlgame import (
    AssignmentSearchResult,
    GF2Family,
    ResponseTable,
    check_gf2_condition,
    exhaustive_min_loss,
    find_gf2_family,
    find_response_table,
    losing_probability_formula,
    min_dimension_general,
    min_transcripts_simple,
    verify_lemma_chain,
)


# ---------------------------------------------------------------------------
# pair-game assignment search


def test_min_loss_frozen_values():
    r5 = exhaustive_min_loss(5)
    assert r5.min_loss == Fraction(1, 10)
    assert r5.argmin_profiles == ((2, 1, 1, 1),)
    r8 = exhaustive_min_loss(8)
    assert r8.min_loss == Fraction(1, 7)
    assert r8.argmin_profiles == ((2, 2, 2, 2),)


def test_min_loss_domain():
    with pytest.raises(ValueError):
        exhaustive_min_loss(4)
    with pytest.raises(ValueError):
        exhaustive_min_loss(13)


def test_min_loss_matches_formula():
    for n in range(5, 13):
        assert exhaustive_min_loss(n).min_loss == losing_probability_formula(n)


def test_min_loss_matches_assignment_scan_oracle():
    for n in range(5, 9):
        assert exhaustive_min_loss(n).min_loss == oracles.brute_force_min_loss(n)


def test_argmin_profiles_are_balanced_partitions():
    for n in range(5, 13):
        result = exhaustive_min_loss(n)
        for profile in result.argmin_profiles:
            assert sum(profile) == n
            assert max(profile) - min(profile) <= 1
            loss = Fraction(sum(comb(size, 2) for size in profile), comb(n, 2))
            assert loss == result.min_loss


def test_search_result_validates_range():
    with pytest.raises(ValueError):
        AssignmentSearchResult(Fraction(5, 4), ())


# ---------------------------------------------------------------------------
# response tables


def test_response_table_accessors():
    table = ResponseTable(n=3, length=2, rows=(0, 1, 2))
    assert table.wins_simple()
    assert not ResponseTable(n=2, length=1, rows=(1, 1)).wins_simple()


def test_response_table_validation():
    with pytest.raises(ValueError):
        ResponseTable(n=2, length=0, rows=(0, 0))
    with pytest.raises(ValueError):
        ResponseTable(n=3, length=2, rows=(0, 1))
    with pytest.raises(ValueError):
        ResponseTable(n=2, length=1, rows=(0, 2))


def test_two_transcripts_cannot_separate_five_players():
    assert find_response_table(5, 2) is None
    table = find_response_table(5, 3)
    assert table is not None
    assert table.wins_simple()
    assert list(table.rows) == sorted(set(table.rows))


def test_response_table_matches_the_row_tuple_scan():
    for n in range(2, 7):
        for length in range(1, 4):
            table = find_response_table(n, length)
            rows = None if table is None else table.rows
            assert rows == oracles.first_distinct_rows(n, length), (n, length)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: find_response_table(1, 1), "need n >= 2 players and length >= 1"),
        (lambda: GF2Family(1, ()), "family must contain at least one vector"),
        (lambda: find_gf2_family(0, 1), "need n >= 1 vectors and dimension >= 1"),
    ],
)
def test_bounds_input_guards(call, message):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == message


def test_min_transcripts_sequence():
    values = [min_transcripts_simple(n) for n in range(2, 17)]
    assert values == [1, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4]
    for n in range(2, 17):
        assert min_transcripts_simple(n) == (n - 1).bit_length()
        assert min_transcripts_simple(n) == oracles.min_rows_for_distinct(n)


def test_min_transcripts_domain():
    with pytest.raises(ValueError):
        min_transcripts_simple(1)
    with pytest.raises(ValueError):
        min_transcripts_simple(17)


# ---------------------------------------------------------------------------
# GF(2) subset-parity condition


def test_family_parsing_roundtrip():
    family = GF2Family.from_lines(["0001", "0010", "", "1000"])
    assert family.dimension == 4
    assert family.vectors == (1, 2, 8)
    assert family.to_lines() == ["0001", "0010", "1000"]


def test_family_validation():
    with pytest.raises(ValueError):
        GF2Family.from_lines([])
    with pytest.raises(ValueError):
        GF2Family.from_lines(["01", "011"])
    with pytest.raises(ValueError):
        GF2Family.from_lines(["0a"])
    with pytest.raises(ValueError):
        GF2Family(dimension=2, vectors=(4,))
    with pytest.raises(ValueError):
        GF2Family(dimension=0, vectors=(0,))


def test_condition_examples():
    # standard basis vectors: no even-size subset cancels
    assert check_gf2_condition(GF2Family(4, (1, 2, 4, 8)))
    # a repeated vector is a size-2 subset with zero sum
    assert not check_gf2_condition(GF2Family(2, (3, 3)))
    # five basis vectors plus their sum: the 6-subset cancels
    assert not check_gf2_condition(GF2Family(5, (1, 2, 4, 8, 16, 31)))
    # same vectors minus one stay clean (only size-2 subsets exist at n = 5)
    assert check_gf2_condition(GF2Family(5, (1, 2, 4, 8, 31)))


def test_condition_agrees_with_gray_code_oracle_on_random_families():
    for dim, vectors in oracles.random_families(300, seed=7):
        family = GF2Family(dim, vectors)
        assert check_gf2_condition(family) == oracles.gray_subset_condition(vectors)


def test_condition_agrees_with_gray_code_oracle_on_rank_deficient_families():
    # 12..20 vectors in at most 8 bits: kernels of dimension 4..18 are walked
    verdicts = []
    for dim, vectors in oracles.rank_deficient_families(200, seed=11):
        family = GF2Family(dim, vectors)
        assert family.n - dim >= 4
        verdict = check_gf2_condition(family)
        assert verdict == oracles.gray_subset_condition(vectors)
        verdicts.append(verdict)
    assert verdicts.count(True) >= 40 and verdicts.count(False) >= 40


def _independent_rows(rng, count, dimension):
    # the low `count` bits are the identity, so the rows are independent
    return [(1 << i) | (rng.getrandbits(dimension - count) << count) for i in range(count)]


@pytest.mark.parametrize("size", range(2, 11))
def test_one_planted_dependency_decides_the_condition(size):
    # 23 independent rows plus the XOR of size - 1 of them: the only subset
    # summing to zero has `size` rows, so the verdict follows from the plan
    rng = random.Random(size)
    rows = _independent_rows(rng, 23, 32)
    planted = 0
    for v in rng.sample(rows, size - 1):
        planted ^= v
    rows.insert(rng.randrange(24), planted)
    assert check_gf2_condition(GF2Family(32, tuple(rows))) == (size % 4 != 2)


def test_condition_cost_follows_the_kernel_not_the_row_count():
    # enumerating subsets took 3.9 s on 24 independent rows and refused 64
    rng = random.Random(5)
    full_rank = GF2Family(32, tuple(_independent_rows(rng, 24, 32)))
    rows = _independent_rows(rng, 61, 64)
    # three more rows, each the XOR of three disjoint rows: every kernel
    # vector has weight 0, 4, 8 or 12, so the whole kernel is walked
    for start in (0, 3, 6):
        rows.append(rows[start] ^ rows[start + 1] ^ rows[start + 2])
    kernel_three = GF2Family(64, tuple(rows))
    for family in (full_rank, kernel_three):
        start = time.perf_counter()
        assert check_gf2_condition(family)
        assert time.perf_counter() - start < 0.5


def test_condition_guard_bounds_the_kernel_dimension():
    # 25 copies of one row: kernel dimension 24 is walked, and the first
    # kernel vector is a duplicate pair
    assert not check_gf2_condition(GF2Family(1, (1,) * 25))
    with pytest.raises(ValueError, match="kernel dimension"):
        check_gf2_condition(GF2Family(1, (1,) * 26))


def test_find_family_certificates_hold():
    for n, dimension in [(4, 2), (6, 3), (9, 4)]:
        family = find_gf2_family(n, dimension)
        assert family is not None
        assert family.n == n and family.dimension == dimension
        assert check_gf2_condition(family)
        assert oracles.gray_subset_condition(family.vectors)


def test_find_family_exhausts_small_dimensions():
    assert find_gf2_family(4, 1) is None
    assert find_gf2_family(10, 4) is None


def test_min_dimension_sequence():
    values = [min_dimension_general(n) for n in range(2, 11)]
    assert values == [1, 2, 2, 3, 3, 3, 3, 4, 5]
    assert values == sorted(values)


def test_min_dimension_witness_at_ten():
    family = find_gf2_family(10, 5)
    assert family is not None
    assert family.vectors == (0, 1, 2, 3, 4, 5, 6, 7, 8, 16)
    # spot check one qualifying subset by hand
    assert reduce(xor, (1, 2, 3, 4, 5, 6)) != 0


def test_min_dimension_domain():
    with pytest.raises(ValueError):
        min_dimension_general(1)
    with pytest.raises(ValueError):
        min_dimension_general(11)


# ---------------------------------------------------------------------------
# bound chain


def test_appendix_bound_values():
    assert verify_lemma_chain(4).sqrt_bound == 0.0
    assert verify_lemma_chain(9).sqrt_bound == 1.0
    assert abs(verify_lemma_chain(2).sqrt_bound - (sqrt(2) - 2)) < 1e-12
    with pytest.raises(ValueError):
        verify_lemma_chain(1)


def test_search_values_clear_the_sqrt_bound():
    for n in range(2, 11):
        assert min_dimension_general(n) >= verify_lemma_chain(n).sqrt_bound


def test_lemma_chain_holds_everywhere():
    for n in range(2, 11):
        report = verify_lemma_chain(n)
        assert report.all_hold()
        assert report.min_dimension == min_dimension_general(n)
        width = max(1, (n - 1).bit_length())
        assert report.transcript_upper_bound == 1 << width
        assert report.min_dimension <= report.transcript_upper_bound
        # exact comparison forms behind the float-facing fields
        assert ((report.min_dimension + 2) ** 2 >= n) == report.lower_bound_holds
        assert (16 * report.min_dimension**2 >= n) == report.broadcast_bound_holds


def test_lemma_chain_report_dict_shape():
    report = verify_lemma_chain(10)
    data = report.as_dict()
    assert data["n"] == 10
    assert data["min_dimension"] == 5
    assert set(data) == {
        "n",
        "min_dimension",
        "sqrt_bound",
        "lower_bound_holds",
        "log2_min_dimension",
        "broadcast_lower_bits",
        "broadcast_bound_holds",
        "transcript_upper_bound",
        "upper_bound_holds",
        "labeling_family_ok",
    }
