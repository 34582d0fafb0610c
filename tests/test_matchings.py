import pytest

from fillpoly.matchings import (MAX_ENUM_RUNGS, TAIL_VARS, binom,
                                count_subsets, enumerate_matchings,
                                matching_step_check, matching_sum,
                                matching_weights,
                                pair_weight, rung_weight)
from fillpoly.poly import Poly


def test_enumeration_small_cases():
    assert enumerate_matchings(1) == [()]
    assert enumerate_matchings(2) == [(), (1,)]
    assert enumerate_matchings(3) == [(), (1,), (2,)]
    assert enumerate_matchings(4) == [(), (1,), (1, 3), (2,), (3,)]


def test_enumeration_no_consecutive():
    for sel in enumerate_matchings(9):
        assert all(b - a >= 2 for a, b in zip(sel, sel[1:]))


@pytest.mark.parametrize("n", range(1, 15))
def test_enumeration_matches_mask_scan(n):
    masks = [m for m in range(1 << (n - 1)) if not m & (m << 1)]
    expected = sorted(tuple(i + 1 for i in range(n - 1) if m >> i & 1)
                      for m in masks)
    assert enumerate_matchings(n) == expected


def test_enumeration_guards():
    with pytest.raises(ValueError):
        enumerate_matchings(0)
    with pytest.raises(ValueError):
        enumerate_matchings(MAX_ENUM_RUNGS + 1)


def test_edge_weights():
    g_f = Poly.variable(TAIL_VARS, "g_f")
    g_o = Poly.variable(TAIL_VARS, "g_o")
    g_p = Poly.variable(TAIL_VARS, "g_p")
    assert pair_weight(1) == g_f ** 2
    assert pair_weight(2) == g_o ** 2
    assert rung_weight(1) == g_p
    assert rung_weight(2) == -g_p


def test_matching_weight():
    g_f = Poly.variable(TAIL_VARS, "g_f")
    g_p = Poly.variable(TAIL_VARS, "g_p")
    # three rungs, pair on (1,2): weight g_f^2 * rung_3 = g_f^2 * g_p
    assert matching_weights(3, [(1,)])[0] == g_f ** 2 * g_p
    # all rungs unpaired: product of alternating-sign rung weights
    assert matching_weights(2, [()])[0] == -g_p ** 2
    assert isinstance(matching_weights(5, [(2, 4)])[0], Poly)
    for n, bad in ((3, (3,)), (3, (0,)), (4, (1, 2)), (6, (2, 3)),
                   (5, (1, 1))):
        with pytest.raises(ValueError):
            matching_weights(n, [bad])[0]


def test_matching_weights_share_one_table():
    sels = enumerate_matchings(9)
    assert matching_weights(9, sels) == [matching_weights(9, [s])[0]
                                         for s in sels]
    assert matching_weights(9, []) == []
    with pytest.raises(ValueError):
        matching_weights(4, [(1,), (1, 2)])


def test_matching_sum_small():
    g_f = Poly.variable(TAIL_VARS, "g_f")
    g_p = Poly.variable(TAIL_VARS, "g_p")
    assert matching_sum(1) == g_p
    assert matching_sum(2) == g_f ** 2 - g_p ** 2


@pytest.mark.parametrize("n", range(1, 13))
def test_matching_sum_is_the_sum_of_matching_weights(n):
    # each weight is an explicit Poly product of the edge weights
    total = Poly.zero(TAIL_VARS)
    for sel in enumerate_matchings(n):
        covered = set(sel) | {i + 1 for i in sel}
        w = Poly.one(TAIL_VARS)
        for i in sel:
            w = w * pair_weight(i)
        for j in range(1, n + 1):
            if j not in covered:
                w = w * rung_weight(j)
        assert matching_weights(n, [sel])[0] == w
        total = total + w
    assert matching_sum(n) == total


def test_step_recurrence():
    # the recurrence itself is the registry check matching-step-recurrences
    with pytest.raises(ValueError):
        matching_step_check(1)


def test_binom_conventions():
    assert binom(-3, 0) == 1
    assert binom(0, 0) == 1
    assert binom(5, 2) == 10
    assert binom(2, 5) == 0
    assert binom(-1, 1) == 0


def test_count_subsets_matches_oracle():
    # the agreement itself is the registry check matching-coefficient-counts
    with pytest.raises(ValueError):
        count_subsets(0, 0, 0)


def test_count_subsets_totals():
    # summed over all (a, b) the closed form counts every matching once
    for n in range(1, 7):
        total = sum(count_subsets(n, a, b)
                    for a in range(n + 1) for b in range(n + 1))
        assert total == len(enumerate_matchings(2 * n))
