"""The row-batched edit-distance kernel against the scalar one."""

import functools
import itertools

import numpy as np
import pytest

from delcert import ALL_OPS_SETS
from delcert.kernels import edit_distance_ids

#: candidates over ids {0, 1, 2}; ids 3 and 4 never occur in a candidate
XS = [(), (0,), (1, 2), (0, 0, 1), (2, 1, 0, 1), (3,), (0, 3, 1), (4, 4, 2, 0)]


@pytest.mark.parametrize("ops", ALL_OPS_SETS, ids=lambda ops: ops.letters)
def test_rows_equal_scalar(ops):
    flags = (ops.allow_del, ops.allow_ins, ops.allow_sub)
    scalar = functools.cache(lambda row, x: edit_distance_ids(row, x, *flags))
    for m in range(7):
        rows = list(itertools.product(range(3), repeat=m))
        cands = np.array(rows, dtype=np.int8).reshape(3**m, m)
        for x in XS:
            got = edit_distance_ids(cands, x, *flags)
            # column i holds the distance of every row's i-prefix
            want = [[scalar(row[:i], x) for i in range(m + 1)] for row in rows]
            assert got.tolist() == want, (m, x)


def test_unreachable_is_minus_one():
    assert edit_distance_ids([1, 2], [1], False, False, True) == -1
    rows = np.array([[1, 2], [1, 1]], dtype=np.int8)
    assert edit_distance_ids(rows, [1], False, False, True).tolist() == [[-1, 0, -1]] * 2
    assert edit_distance_ids(rows, [1, 3], False, False, True).tolist() == [[-1, -1, 1]] * 2
