import sys
import threading
import time
from functools import partial

import numpy as np
import pytest

from delcert.certify import vote_counts
from delcert.classifier import classify_texts
from delcert.errors import TransportError
from delcert.external import ExternalClassifier
from delcert.mechanisms import MechanismKind, MechanismParams
from delcert.rng import RandomStream
from delcert.tokenization import tokenize


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


def test_timeout_of_a_sent_request_fails_every_request_in_flight(worker_cmd):
    with ExternalClassifier(worker_cmd("slow"), num_classes=2, timeout=0.2) as clf:
        first, second = clf.send(["x"]), clf.send(["y"])
        with pytest.raises(TransportError, match="no response within 0.2s"):
            first()
        assert clf._proc.poll() is not None  # the child was stopped
        start = time.monotonic()
        with pytest.raises(TransportError, match="^no response within 0.2s"):
            second()
        with pytest.raises(TransportError, match="earlier failure: no response within 0.2s"):
            clf.classify_batch(["z"])
        assert time.monotonic() - start < 1.0


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


def test_child_that_stalls_during_certify_times_out(worker_cmd):
    # the child reads the first request and then neither answers nor reads
    # again; the draws make several slices whose requests add up to far more
    # than a pipe buffer, so writing them ahead of the replies waits for room
    x = tokenize(" ".join(f"token{i:03d}" for i in range(80)))
    mech = MechanismParams(MechanismKind.DELETION, 0.5)
    raised: list[Exception] = []

    def certify_votes(clf):
        try:
            vote_counts(clf, x, mech, 4096, RandomStream(0).child(0).generator())
        except Exception as exc:  # reported by the main thread
            raised.append(exc)

    with ExternalClassifier(worker_cmd("hang"), num_classes=2, timeout=0.5) as clf:
        start = time.monotonic()
        worker = threading.Thread(target=certify_votes, args=(clf,), daemon=True)
        worker.start()
        worker.join(timeout=20)
        if worker.is_alive():
            clf._proc.kill()  # unblock the write, so the test fails instead of hanging
        assert not worker.is_alive() and time.monotonic() - start < 5.0
    assert len(raised) == 1 and isinstance(raised[0], TransportError)
    assert str(raised[0]) == "failed to write request: no room within 0.5s"


def test_write_waits_for_a_slow_child_to_make_room(worker_cmd):
    # each request fills more than a pipe buffer, so the second write waits
    # until the child, busy for 2 s with the first, reads again
    big = [["a" * 1000] * 70, ["bb" * 500] * 70]
    with ExternalClassifier(worker_cmd("slow"), num_classes=2, timeout=5) as clf:
        collectors = [clf.send(texts) for texts in big]
        assert [collect() for collect in collectors] == [[0] * 70] * 2


def test_sent_batches_get_their_own_replies(worker_cmd):
    # the "length" worker labels by text length, so a reply given to the
    # wrong batch shows
    first, second, third = ["a", "bb"], ["ccc", "d", "ee", "f"], ["gg", "hhh", "i"]
    with ExternalClassifier(worker_cmd("length"), num_classes=2) as clf:
        collect_first, collect_second = clf.send(first), clf.send(second)
        # its reply comes after those of both sent batches, which are kept
        assert clf.classify_batch(third) == [0, 1, 1]
        assert collect_second() == [1, 1, 0, 1]
        assert collect_first() == [1, 0]
        assert clf.classify_batch(first) == [1, 0]  # a new request


def test_replies_out_of_order_reach_their_own_requests(worker_cmd):
    with ExternalClassifier(worker_cmd("swap"), num_classes=2, timeout=5) as clf:
        collect_first, collect_second = clf.send(["a", "bb"]), clf.send(["ccc"])
        assert collect_first() == [1, 0]
        assert collect_second() == [1]


def test_uncollected_batch_leaves_later_calls_intact(worker_cmd):
    with ExternalClassifier(worker_cmd("length"), num_classes=2) as clf:
        clf.send(["x", "y", "z"])
        for texts in (["ab", "c"], ["def"], ["gh", "ijk", "l", "mn"]):
            assert clf.classify_batch(texts) == [len(t) % 2 for t in texts]
        assert clf._pending == {}  # the uncollected reply was dropped on arrival


def test_requests_abandoned_by_classify_texts_leave_nothing_pending(worker_cmd):
    def failing():
        yield ["a", "bb"]
        yield ["ccc", "a"]
        raise RuntimeError("slice failed")

    with ExternalClassifier(worker_cmd("length"), num_classes=2) as clf:
        with pytest.raises(RuntimeError, match="slice failed"):
            classify_texts(clf, failing())
        assert clf.classify_batch(["ab", "c"]) == [0, 1]
        assert clf._pending == {}


def test_unknown_reply_id_fails_at_once_with_batches_in_flight(worker_cmd):
    with ExternalClassifier(worker_cmd("bad-id"), num_classes=2, timeout=30) as clf:
        collectors = [clf.send(["x"]), clf.send(["y", "z"])]
        start = time.monotonic()
        with pytest.raises(TransportError, match="response id 1000 matches no request"):
            clf.classify_batch(["w"])
        for collect in collectors:
            with pytest.raises(TransportError, match="response id"):
                collect()
        assert time.monotonic() - start < 5.0


def test_threads_sharing_one_child_get_their_own_labels(worker_cmd):
    # more threads than cores, switching often, each with batches in flight
    def work(clf, seed, failures):
        rng = np.random.default_rng(seed)
        try:
            for _ in range(20):
                batches = [["t" * int(n) for n in rng.integers(1, 9, size=5)] for _ in range(3)]
                collectors = [clf.send(texts) for texts in batches[:2]]
                collectors.append(partial(clf.classify_batch, batches[2]))
                for texts, collect in zip(batches[::-1], collectors[::-1]):
                    assert collect() == [len(t) % 2 for t in texts]
        except Exception as exc:  # reported by the main thread
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        failures: list[Exception] = []
        with ExternalClassifier(worker_cmd("length"), num_classes=2, timeout=20) as clf:
            threads = [threading.Thread(target=work, args=(clf, i, failures)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
