"""The constrained edit-distance DP.

``edit_distance_ids`` runs a scalar pure-Python DP for one pair (the
small pairs of the CLI, the attacks and the tests, where numpy's per-call
cost would dominate), one :func:`edit_row_step` per element of ``a``
(elements are only compared with ``==``, so token strings pass as they
are), and a numpy row recurrence when ``a`` is a 2-D integer array of
equal-length candidates (the brute-force ball filter).  The numpy
recurrence returns the distance of every prefix of every row, so one call
on the longest candidates also serves all shorter ones; it steps each
distinct prefix once (9,840 DP rows, not 52,488, for length 8 over three
tokens).  The exact ball counter of :mod:`~delcert.edit_metrics` steps
capped rows with :func:`edit_row_step` too.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

INF = 1 << 28

#: kernel implementation, as reported in run manifests
BACKEND = "numpy"


def edit_distance_ids(a, b: Sequence, allow_del: bool, allow_ins: bool, allow_sub: bool):
    """Minimum number of allowed edits transforming ``a`` into ``b``.

    del removes a token of ``a``, ins inserts a token of ``b``, sub
    replaces one token by another.  Returns -1 when ``b`` is unreachable
    under the allowed operations.  When ``a`` is a 2-D array of shape
    ``(rows, n)``, each row is one sequence and the result is an int
    array of shape ``(rows, n + 1)`` whose column ``i`` holds the distance
    from each row's first ``i`` ids to ``b``.
    """
    if isinstance(a, np.ndarray) and a.ndim == 2:
        return _edit_distance_rows(a, b, allow_del, allow_ins, allow_sub)
    m = len(b)
    row = list(range(m + 1)) if allow_ins else [0] + [INF] * m
    for ai in a:
        row = edit_row_step(row, ai, b, allow_del, allow_ins, allow_sub)
    return row[m] if row[m] < INF else -1


def edit_row_step(prev, ai, b, allow_del: bool, allow_ins: bool, allow_sub: bool, cap=None):
    """One row of the scalar DP: ``prev`` holds the distances from some
    prefix of ``a`` to every prefix of ``b``, and the result holds them
    once ``ai`` is appended to that prefix.

    With ``cap``, every cell of the result is capped at ``cap``.  Each cell
    is a minimum of earlier cells plus non-negative costs, so capping
    every row gives the true distances capped at ``cap``.
    """
    left = prev[0] + 1 if allow_del else INF
    cur = [left]
    append = cur.append
    for bj, diag, up in zip(b, prev, prev[1:]):
        if ai == bj:
            best = diag
        else:
            best = diag + 1 if allow_sub else INF
        if allow_del and up + 1 < best:
            best = up + 1
        if allow_ins and left + 1 < best:
            best = left + 1
        append(best)
        left = best
    if cap is not None:
        cur = [v if v < cap else cap for v in cur]
    return cur


def _edit_distance_rows(a: np.ndarray, b, allow_del, allow_ins, allow_sub) -> np.ndarray:
    """The scalar recurrence, one DP row per distinct prefix at a time; the
    last DP column after step ``i`` is the distance of the ``i``-prefixes.
    A row whose first ``i + 1`` ids equal the previous row's shares its DP
    row at step ``i``, and the last column is gathered back to every row,
    in any row order.  Cells that derive from ``INF`` may grow past it by
    at most ``n + m``; every value of at least ``INF`` means unreachable.
    """
    rows, n = a.shape
    b = np.asarray(b)
    j = np.arange(len(b) + 1, dtype=np.int32)
    cur = (j if allow_ins else np.where(j > 0, INF, 0))[None]  # the empty prefix
    group = np.zeros(rows, dtype=np.intp)  # each row's DP row in cur
    starts = np.arange(rows) == 0  # rows that start a run of equal prefixes
    out = np.empty((rows, n + 1), dtype=np.int32)
    out[:, 0] = cur[0, -1]
    for i in range(n):
        starts[1:] |= a[1:, i] != a[:-1, i]
        first = np.flatnonzero(starts)
        prev = cur[group[first]]
        cur = np.empty((len(first), len(j)), dtype=np.int32)
        cur[:, 0] = i + 1 if allow_del else INF
        differ = a[first, i, None] != b
        if allow_sub:
            np.add(prev[:, :-1], differ, out=cur[:, 1:])
        else:
            cur[:, 1:] = np.where(differ, INF, prev[:, :-1])
        if allow_del:
            np.minimum(cur[:, 1:], prev[:, 1:] + 1, out=cur[:, 1:])
        if allow_ins:
            # cur[j] = min over k <= j of cur[k] + (j - k)
            cur = np.minimum.accumulate(cur - j, axis=1) + j
        group = np.cumsum(starts) - 1
        out[:, i + 1] = cur[group, -1]
    out[out >= INF] = -1
    return out

