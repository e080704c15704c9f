from fractions import Fraction

import math

import pytest

from delcert.textcrs import (
    deletion_cover_radii,
    insertion_cover_radii,
    max_certified_edit_radius,
)


def test_deletion_cover_trivia():
    assert deletion_cover_radii(5, 0) == 0


def test_deletion_cover_examples():
    assert deletion_cover_radii(10, 2) == 32
    assert deletion_cover_radii(3, 2) == Fraction(9, 2)  # short-sequence branch


def test_insertion_cover_examples():
    reorder, l2 = insertion_cover_radii(10, 2, d_star=1.0)
    assert l2 == pytest.approx(math.sqrt(2))
    assert reorder == 32
    reorder, l2 = insertion_cover_radii(2, 3, d_star=2.5)
    assert l2 == pytest.approx(1.0 * 2.5)
    assert reorder == 2


def test_insertion_cover_zero_radius():
    assert insertion_cover_radii(7, 0, d_star=3.0) == (0, 0.0)


def test_reorder_requirement_monotone_in_r():
    for n in (1, 2, 5, 17):
        prev = Fraction(-1)
        for r in range(0, n + 1):
            cur = deletion_cover_radii(n, r)
            assert cur >= prev
            prev = cur


def test_vacuity_deletion():
    assert max_certified_edit_radius(1, "deletion", r_R_cap=1) == 1
    assert max_certified_edit_radius(2, "deletion", r_R_cap=2) == 2
    for n in range(3, 101):
        assert max_certified_edit_radius(n, "deletion", r_R_cap=n) == 0


def test_vacuity_insertion_small_l2_budget():
    for n in (1, 2, 5, 40):
        assert max_certified_edit_radius(n, "insertion", r_R_cap=n, r_I_cap=0.99, d_star=1.0) == 0


def test_insertion_l2_budget_controls_radius():
    # generous reordering cap: the L2 budget is the binding constraint
    assert max_certified_edit_radius(12, "insertion", r_R_cap=10**6, r_I_cap=2.0, d_star=1.0) == 4
    assert max_certified_edit_radius(2, "insertion", r_R_cap=2, r_I_cap=1.0, d_star=1.0) == 1


def test_round_trip_cap_consistency():
    for n in range(1, 40):
        for cap in (n, 2 * n, n * n):
            r_star = max_certified_edit_radius(n, "deletion", r_R_cap=cap)
            assert deletion_cover_radii(n, r_star) <= cap
            if r_star < n:
                assert deletion_cover_radii(n, r_star + 1) > cap


def test_insertion_round_trip_cap_consistency():
    # the sound direction: the requirement at the returned radius fits
    # under both caps (the radius may understate the largest that fits)
    for n in range(1, 40):
        for cap in (n, 2 * n, n * n):
            for r_i_cap, d_star in ((0.5, 1.0), (1.5, 1.0), (2.0, 1.0), (3.0, 1.5), (0.3, 0.1),
                                    (7.0, 0.7), (100.0, 1.0)):
                r_star = max_certified_edit_radius(n, "insertion", cap, r_i_cap, d_star)
                reorder, l2 = insertion_cover_radii(n, r_star, d_star)
                assert reorder <= cap and l2 <= r_i_cap, (n, cap, r_i_cap, d_star, r_star)



def test_input_validation():
    with pytest.raises(ValueError):
        deletion_cover_radii(0, 1)
    with pytest.raises(ValueError):
        insertion_cover_radii(3, 1, d_star=0.0)
    with pytest.raises(ValueError):
        max_certified_edit_radius(3, "permutation", r_R_cap=3)
    with pytest.raises(ValueError):
        max_certified_edit_radius(3, "insertion", r_R_cap=3)  # missing L2 budget
    with pytest.raises(ValueError):
        # a negative L2 budget certifies nothing, though its square is positive
        max_certified_edit_radius(10, "insertion", r_R_cap=100, r_I_cap=-1.0, d_star=1.0)
