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
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class CoverRequirement:
    """Minimum foreign-certificate radii covering an edit ball."""

    n: int
    r: int
    r_R_min: Fraction  # reordering budget (sum of absolute position shifts)
    r_D: int | None = None  # replaced-row count (deletion flavor)
    r_I_min: float | None = None  # L2 budget (insertion flavor)
    d_star: float | None = None  # max pairwise embedding distance


def _reorder_requirement(n: int, r: int) -> Fraction:
    # worst case: all r edits at the start of the sequence
    if n >= 2 * r:
        return Fraction(2 * r * (n - r))
    return Fraction(n * n, 2)


def deletion_cover_radii(n: int, r: int) -> CoverRequirement:
    """Radii a deletion-flavor certificate needs to cover ``r`` edits."""
    if n < 1 or r < 0:
        raise ValueError("need n >= 1 and r >= 0")
    return CoverRequirement(n=n, r=r, r_R_min=_reorder_requirement(n, r), r_D=r)


def insertion_cover_radii(n: int, r: int, d_star: float) -> CoverRequirement:
    """Radii an insertion-flavor certificate needs to cover ``r`` edits."""
    if n < 1 or r < 0:
        raise ValueError("need n >= 1 and r >= 0")
    if d_star <= 0:
        raise ValueError("d_star must be positive")
    scale = math.sqrt(r) if n >= 2 * r else math.sqrt(n / 2)
    return CoverRequirement(
        n=n,
        r=r,
        r_R_min=_reorder_requirement(n, r),
        r_I_min=scale * d_star,
        d_star=d_star,
    )


def max_certified_edit_radius(
    n: int,
    kind: str,
    r_R_cap: float | Fraction,
    r_I_cap: float | None = None,
    d_star: float | None = None,
) -> int:
    """Largest edit radius whose cover requirement fits under the caps.

    ``kind`` is ``"deletion"`` or ``"insertion"``.  The insertion flavor
    additionally requires ``r <= (r_I_cap / d_star)**2``.  The scan is
    bounded by ``n``: those certificates live in a fixed-length padded
    representation, so no more than ``n`` edits are expressible.
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
        if _reorder_requirement(n, r) > cap:
            break
        if ins_limit is not None and r > ins_limit:
            break
        best = r
    return best
