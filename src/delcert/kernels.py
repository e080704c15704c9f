"""The constrained edit-distance DP on integer-id sequences.

``edit_distance_ids`` runs a scalar pure-Python DP for one pair (the
small pairs of the CLI, the attacks and the tests, where numpy's per-call
cost would dominate) and a numpy row recurrence when ``a`` is a 2-D array
of equal-length candidates (the brute-force ball filter).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

INF = 1 << 28

#: kernel implementation, as reported in run manifests
BACKEND = "numpy"


def edit_distance_ids(a, b: Sequence[int], allow_del: bool, allow_ins: bool, allow_sub: bool):
    """Minimum number of allowed edits transforming ``a`` into ``b``.

    del removes a token of ``a``, ins inserts a token of ``b``, sub
    replaces one token by another.  Returns -1 when ``b`` is unreachable
    under the allowed operations.  When ``a`` is a 2-D array, each row is
    one sequence and the result is an int array with one distance per row.
    """
    if isinstance(a, np.ndarray) and a.ndim == 2:
        return _edit_distance_rows(a, b, allow_del, allow_ins, allow_sub)
    n, m = len(a), len(b)
    prev = list(range(m + 1)) if allow_ins else [0] + [INF] * m
    cur = [0] * (m + 1)
    for i in range(1, n + 1):
        ai = a[i - 1]
        cur[0] = i if allow_del else INF
        for j in range(1, m + 1):
            best = prev[j - 1] if ai == b[j - 1] else INF
            if allow_sub and ai != b[j - 1] and prev[j - 1] + 1 < best:
                best = prev[j - 1] + 1
            if allow_del and prev[j] + 1 < best:
                best = prev[j] + 1
            if allow_ins and cur[j - 1] + 1 < best:
                best = cur[j - 1] + 1
            cur[j] = best
        prev, cur = cur, prev
    return prev[m] if prev[m] < INF else -1


def _edit_distance_rows(a: np.ndarray, b, allow_del, allow_ins, allow_sub) -> np.ndarray:
    """The scalar recurrence, one DP row per row of ``a`` at a time.

    Cells that derive from ``INF`` may grow past it by at most
    ``n + m``; every value of at least ``INF`` means unreachable.
    """
    rows, n = a.shape
    b = np.asarray(b)
    j = np.arange(len(b) + 1, dtype=np.int32)
    prev = np.broadcast_to(j if allow_ins else np.where(j > 0, INF, 0), (rows, len(j)))
    for i in range(n):
        cur = np.empty((rows, len(j)), dtype=np.int32)
        cur[:, 0] = i + 1 if allow_del else INF
        differ = a[:, i, None] != b
        if allow_sub:
            np.add(prev[:, :-1], differ, out=cur[:, 1:])
        else:
            cur[:, 1:] = np.where(differ, INF, prev[:, :-1])
        if allow_del:
            np.minimum(cur[:, 1:], prev[:, 1:] + 1, out=cur[:, 1:])
        if allow_ins:
            # cur[j] = min over k <= j of cur[k] + (j - k)
            cur = np.minimum.accumulate(cur - j, axis=1) + j
        prev = cur
    return np.where(prev[:, -1] < INF, prev[:, -1], -1)

