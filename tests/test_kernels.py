"""The row-batched edit-distance kernel against the scalar one."""

import functools
import itertools

import numpy as np
import pytest

from delcert.edit_metrics import ALL_OPS_SETS
from delcert.kernels import edit_distance_ids

#: candidates over ids {0, 1, 2}; ids 3 and 4 never occur in a candidate
XS = [(), (0,), (1, 2), (0, 0, 1), (2, 1, 0, 1), (3,), (0, 3, 1), (4, 4, 2, 0)]


@pytest.mark.parametrize("ops", ALL_OPS_SETS, ids=lambda ops: ops.letters)
def test_rows_equal_scalar(ops):
    flags = (ops.allow_del, ops.allow_ins, ops.allow_sub)
    scalar = functools.cache(lambda row, x: edit_distance_ids(row, x, *flags))
    rng = np.random.default_rng(5)
    for m in range(7):
        rows = list(itertools.product(range(3), repeat=m))
        # lexicographic (the ball's universe), shuffled, neighbouring
        # duplicates and no rows: prefixes are shared only between equal
        # neighbours, which each order arranges differently
        orders = [rows, [rows[k] for k in rng.permutation(len(rows))]]
        orders += [[row for row in rows for _ in range(2)], []]
        for order in orders:
            cands = np.array(order, dtype=np.int8).reshape(len(order), m)
            for x in XS:
                got = edit_distance_ids(cands, x, *flags)
                assert got.shape == (len(order), m + 1)
                # column i holds the distance of every row's i-prefix
                want = [[scalar(row[:i], x) for i in range(m + 1)] for row in order]
                assert got.tolist() == want, (m, x)


def test_unreachable_is_minus_one():
    assert edit_distance_ids([1, 2], [1], False, False, True) == -1
    rows = np.array([[1, 2], [1, 1]], dtype=np.int8)
    assert edit_distance_ids(rows, [1], False, False, True).tolist() == [[-1, 0, -1]] * 2
    assert edit_distance_ids(rows, [1, 3], False, False, True).tolist() == [[-1, -1, 1]] * 2
