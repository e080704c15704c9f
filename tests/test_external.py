import time

import numpy as np
import pytest

from delcert.errors import TransportError
from delcert.external import ExternalClassifier


def test_echo_classifier(worker_cmd):
    with ExternalClassifier(worker_cmd("echo0"), num_classes=2) as clf:
        assert clf.classify_batch(["a", "b", "c"]) == [0, 0, 0]
        assert clf.classify_batch([]) == []


def test_id_mismatch_is_transport_error(worker_cmd):
    with ExternalClassifier(worker_cmd("bad-id"), num_classes=2) as clf:
        with pytest.raises(TransportError, match="id"):
            clf.classify_batch(["x"])


def test_garbage_response_is_transport_error(worker_cmd):
    with ExternalClassifier(worker_cmd("garbage"), num_classes=2, timeout=5) as clf:
        with pytest.raises(TransportError, match="malformed"):
            clf.classify_batch(["x"])


def test_wrong_label_count_is_transport_error(worker_cmd):
    with ExternalClassifier(worker_cmd("short"), num_classes=2) as clf:
        with pytest.raises(TransportError, match="length"):
            clf.classify_batch(["x", "y"])


@pytest.mark.parametrize("mode", ["float", "bool"])
def test_non_integer_label_is_transport_error(worker_cmd, mode):
    with ExternalClassifier(worker_cmd(mode), num_classes=2) as clf:
        with pytest.raises(TransportError, match="not a class index"):
            clf.classify_batch(["x"])


def test_out_of_range_label_is_transport_error(worker_cmd):
    with ExternalClassifier(worker_cmd("range"), num_classes=2) as clf:
        with pytest.raises(TransportError, match=r"label 2 is not a class index in \[0, 2\)"):
            clf.classify_batch(["x"])
    with ExternalClassifier(worker_cmd("range"), num_classes=3) as clf:
        assert clf.classify_batch(["x", "y"]) == [2, 2]


def test_timeout_stops_child_and_breaks_adapter(worker_cmd):
    with ExternalClassifier(worker_cmd("slow"), num_classes=2, timeout=0.2) as clf:
        with pytest.raises(TransportError, match="no response within 0.2s"):
            clf.classify_batch(["x"])
        assert clf._proc.poll() is not None  # the child was stopped
        # without the stop, the late reply would surface here as an id mismatch
        for _ in range(2):
            with pytest.raises(TransportError, match="earlier failure: no response within 0.2s"):
                clf.classify_batch(["y"])


def test_process_exit_is_transport_error(worker_cmd):
    clf = ExternalClassifier(worker_cmd("quit"), num_classes=2, timeout=5)
    try:
        with pytest.raises(TransportError):
            clf.classify_batch(["x"])
            clf.classify_batch(["x"])  # first call may see EOF or exit; second surely fails
    finally:
        clf.close()


def test_closed_output_breaks_adapter(worker_cmd):
    # the child is still alive after closing its output, so only the adapter
    # can tell that no reply will ever come
    with ExternalClassifier(worker_cmd("close"), num_classes=2, timeout=5) as clf:
        with pytest.raises(TransportError, match="closed its output stream"):
            clf.classify_batch(["x"])
        assert clf._proc.poll() is None
        for _ in range(2):
            start = time.monotonic()
            with pytest.raises(TransportError, match="earlier failure: .*closed its output"):
                clf.classify_batch(["y"])
            assert time.monotonic() - start < 1.0


def test_large_batch_order_preserved(worker_cmd):
    # the "length" worker labels by text length, so order errors are visible
    rng = np.random.default_rng(0)
    texts = ["t" * int(n) for n in rng.integers(1, 40, size=1000)]
    with ExternalClassifier(worker_cmd("length"), num_classes=2) as clf:
        labels = clf.classify_batch(texts)
    assert labels == [len(t) % 2 for t in texts]
