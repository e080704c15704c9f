"""Converters from permutation/perturbation-style certificates to edit radii.

A reordering-plus-perturbation certificate is parameterized by a
word-position reordering budget and either a count of replaced
embedding rows (deletion flavor) or an L2 perturbation budget
(insertion flavor).  The functions below compute how large those radii
must be to *contain* a genuine edit-distance ball of radius ``r``, and
conversely the largest edit radius certifiable under given caps.
Half-integral requirements (``n**2 / 2``) are kept as exact rationals.
"""

from __future__ import annotations

import math
from fractions import Fraction


def deletion_cover_radii(n: int, r: int) -> Fraction:
    """The reordering budget (sum of absolute position shifts) a
    deletion-flavor certificate needs to cover ``r`` edits of a
    length-``n`` sequence; its replaced-row count must be ``r``."""
    if n < 1 or r < 0:
        raise ValueError("need n >= 1 and r >= 0")
    # worst case: all r edits at the start of the sequence
    if n >= 2 * r:
        return Fraction(2 * r * (n - r))
    return Fraction(n * n, 2)


def insertion_cover_radii(n: int, r: int, d_star: float) -> tuple[Fraction, float]:
    """``(reordering budget, L2 budget)`` an insertion-flavor certificate
    needs to cover ``r`` edits of a length-``n`` sequence, with ``d_star``
    the largest pairwise embedding distance."""
    reorder = deletion_cover_radii(n, r)  # checks n and r
    if d_star <= 0:
        raise ValueError("d_star must be positive")
    scale = math.sqrt(r) if n >= 2 * r else math.sqrt(n / 2)
    return reorder, scale * d_star


def max_certified_edit_radius(
    n: int,
    kind: str,
    r_R_cap: float | Fraction,
    r_I_cap: float | None = None,
    d_star: float | None = None,
) -> int:
    """Largest ``r <= n`` such that every radius up to ``r`` passes the caps.

    ``kind`` is ``"deletion"`` or ``"insertion"``.  A radius passes when
    its reordering budget (:func:`deletion_cover_radii`) is at most
    ``r_R_cap``; the insertion flavor also requires
    ``r <= (r_I_cap / d_star)**2``, the L2 budget ``sqrt(r) * d_star`` of
    the ``n >= 2r`` branch at every ``r``.  When ``2r > n`` the L2 budget
    of :func:`insertion_cover_radii` is the smaller ``sqrt(n / 2) * d_star``,
    so the insertion result can understate the largest radius that fits
    (``n = 4``, caps 8 and 1.5, ``d_star = 1`` gives 2, although 3 and 4
    fit): the safe direction.  The requirement at the returned radius
    fits under both caps.  The scan is bounded by ``n``: those
    certificates live in a fixed-length padded representation, so no
    more than ``n`` edits are expressible.
    """
    if kind not in ("deletion", "insertion"):
        raise ValueError(f"kind must be 'deletion' or 'insertion', got {kind!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    cap = Fraction(r_R_cap)
    if cap < 0:
        raise ValueError("caps must be non-negative")
    ins_limit: Fraction | None = None
    if kind == "insertion":
        if r_I_cap is None or d_star is None or r_I_cap < 0 or d_star <= 0:
            raise ValueError("insertion kind needs a non-negative r_I_cap and a positive d_star")
        ins_limit = Fraction(r_I_cap) ** 2 / Fraction(d_star) ** 2

    best = 0
    for r in range(0, n + 1):
        if deletion_cover_radii(n, r) > cap:
            break
        if ins_limit is not None and r > ins_limit:
            break
        best = r
    return best
