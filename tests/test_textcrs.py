from fractions import Fraction

import math

import pytest

from delcert.textcrs import (
    deletion_cover_radii,
    insertion_cover_radii,
    max_certified_edit_radius,
)


def test_deletion_cover_trivia():
    req = deletion_cover_radii(5, 0)
    assert req.r_D == 0 and req.r_R_min == 0


def test_deletion_cover_examples():
    assert deletion_cover_radii(10, 2).r_R_min == 32
    assert deletion_cover_radii(10, 2).r_D == 2
    assert deletion_cover_radii(3, 2).r_R_min == Fraction(9, 2)  # short-sequence branch


def test_insertion_cover_examples():
    req = insertion_cover_radii(10, 2, d_star=1.0)
    assert req.r_I_min == pytest.approx(math.sqrt(2))
    assert req.r_R_min == 32
    req = insertion_cover_radii(2, 3, d_star=2.5)
    assert req.r_I_min == pytest.approx(1.0 * 2.5)
    assert req.r_R_min == 2


def test_insertion_cover_zero_radius():
    req = insertion_cover_radii(7, 0, d_star=3.0)
    assert req.r_I_min == 0.0 and req.r_R_min == 0


def test_reorder_requirement_monotone_in_r():
    for n in (1, 2, 5, 17):
        prev = Fraction(-1)
        for r in range(0, n + 1):
            cur = deletion_cover_radii(n, r).r_R_min
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
            assert deletion_cover_radii(n, r_star).r_R_min <= cap
            if r_star < n:
                assert deletion_cover_radii(n, r_star + 1).r_R_min > cap


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
