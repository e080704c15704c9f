"""Adapter for external black-box classifiers speaking a line protocol.

The child process receives newline-delimited JSON requests on stdin and
answers on stdout, one object per line, UTF-8:

    request:  {"id": <int>, "texts": [<str>, ...]}
    response: {"id": <same int>, "labels": [<int>, ...]}

Several requests can be in flight: :meth:`ExternalClassifier.send`
writes one without waiting and returns the function that waits for its
labels.  Each request is one future, which the reply with its id
resolves, so the child may answer in any order but must keep reading its
input while it answers.  The timeout bounds every wait on the child: for
a reply to arrive, and for room in its input to write a request.
Protocol failures (a reply that is malformed or whose id no request
awaits, a wrong label count, a label that is not an integer class index,
process exit, timeout) surface as :class:`TransportError`, never as
classification results.  A timeout stops the child.  After a timeout,
an unmatched reply or the end of the child's output, every request in
flight and every later call on the adapter fails at once.
"""

from __future__ import annotations

import json
import os
import select
import shlex
import subprocess
import threading
from concurrent.futures import Future, TimeoutError as NoReply
from functools import partial
from typing import Callable, Sequence

from .errors import TransportError


class ExternalClassifier:
    """Wraps one child process; threads may share it, since each reply
    resolves the future of the request with its id."""

    def __init__(self, cmd: str | Sequence[str], num_classes: int, timeout: float = 60.0):
        self.num_classes = int(num_classes)
        self.timeout = timeout
        argv = shlex.split(cmd) if isinstance(cmd, str) else list(cmd)
        if not argv:
            raise ValueError("empty classifier command")
        self._proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            encoding="utf-8",
            bufsize=1,
        )
        # requests are written unblocked, waiting at most the timeout for room
        assert self._proc.stdin is not None
        self._stdin = self._proc.stdin.fileno()
        os.set_blocking(self._stdin, False)
        self._room = select.poll()
        self._room.register(self._stdin, select.POLLOUT)
        # writes hold only this lock, so the reader can always resolve a reply
        # and the child never blocks on a full output pipe
        self._write_lock = threading.Lock()
        self._lock = threading.Lock()  # guards every field below
        self._next_id = 0
        self._pending: dict[int, Future] = {}  # written, not yet answered
        # the failure that stopped the child; set, it fails every later call
        self._broken: str | None = None
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()

    def _pump(self) -> None:
        """Resolve each reply's request until the child's output ends."""
        assert self._proc.stdout is not None
        for line in self._proc.stdout:
            try:
                reply = json.loads(line)
            except json.JSONDecodeError:
                reply = None
            rid = reply.get("id") if isinstance(reply, dict) else None
            with self._lock:
                request = self._pending.pop(rid, None) if type(rid) is int else None
            if request is not None:
                request.set_result(reply.get("labels"))
            elif reply is None:
                self._fail(f"malformed response line: {line!r}")
            else:
                self._fail(f"response id {rid!r} matches no request awaiting a reply")
        self._fail("classifier process closed its output stream")

    def _fail(self, reason: str) -> None:
        """Record the first failure and fail every request in flight with it."""
        with self._lock:
            self._broken = self._broken or reason
            pending, self._pending = self._pending, {}
        for request in pending.values():
            request.set_exception(TransportError(self._broken))

    def _write(self, texts: Sequence[str]) -> Future:
        """Write one request for ``texts``; return the future of its labels."""
        payload = json.dumps(list(texts), ensure_ascii=False)
        request = Future()
        with self._write_lock:
            with self._lock:
                if self._broken is not None:
                    raise TransportError(
                        f"classifier unusable after an earlier failure: {self._broken}"
                    )
                if self._proc.poll() is not None:
                    raise TransportError(f"classifier process exited with {self._proc.returncode}")
                rid = self._next_id
                self._next_id += 1
                self._pending[rid] = request
            try:
                self._write_all(f'{{"id": {rid}, "texts": {payload}}}\n'.encode())
            except OSError as exc:
                with self._lock:
                    self._pending.pop(rid, None)
                raise TransportError(f"failed to write request: {exc}") from exc
        return request

    def _write_all(self, data: bytes) -> None:
        # called with self._write_lock held; a child that makes no room for
        # the timeout is stopped, like one that does not answer
        view = memoryview(data)
        while view:
            try:
                view = view[os.write(self._stdin, view) :]
            except BlockingIOError:
                if not self._room.poll(self.timeout * 1000):
                    self._fail(f"no room to write a request within {self.timeout}s")
                    self._proc.kill()
                    self._proc.wait()
                    raise TimeoutError(f"no room within {self.timeout}s") from None

    def send(self, texts: Sequence[str]) -> Callable[[], list[int]]:
        """Write a request for ``texts`` without waiting for its reply;
        return the function that waits for its labels."""
        return partial(self.classify_batch, texts, request=self._write(texts))

    def classify_batch(self, texts: Sequence[str], *, request: Future | None = None) -> list[int]:
        """Labels of ``texts``: the reply to ``request``, written by
        :meth:`send`, or to a request written now."""
        if request is None:
            request = self._write(texts)
        try:
            labels = request.result(self.timeout)
        except NoReply:  # before Python 3.11 not the builtin TimeoutError
            # every later call fails now, so a child that may never answer is stopped
            self._fail(f"no response within {self.timeout}s")
            self._proc.kill()
            self._proc.wait()
            raise TransportError(self._broken) from None
        if not isinstance(labels, list) or len(labels) != len(texts):
            raise TransportError("response labels missing or of wrong length")
        for label in labels:
            # exact type: JSON true/false arrive as bool, 1.7 as float
            if type(label) is not int or not 0 <= label < self.num_classes:
                raise TransportError(
                    f"label {label!r} is not a class index in [0, {self.num_classes})"
                )
        return labels

    def close(self) -> None:
        try:
            if self._proc.stdin is not None:
                self._proc.stdin.close()
        except OSError:
            pass
        if self._proc.poll() is None:
            try:
                self._proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        # the reader ends at the child's end of output; a grandchild still
        # holding the pipe would keep it reading, so it may outlive close()
        self._reader.join(timeout=5)
        if not self._reader.is_alive() and self._proc.stdout is not None:
            self._proc.stdout.close()

    def __enter__(self) -> "ExternalClassifier":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
