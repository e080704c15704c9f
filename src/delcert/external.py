"""Adapter for external black-box classifiers speaking a line protocol.

The child process receives newline-delimited JSON requests on stdin and
answers on stdout, one object per line, UTF-8:

    request:  {"id": <int>, "texts": [<str>, ...]}
    response: {"id": <same int>, "labels": [<int>, ...]}

Several requests can be in flight: :meth:`ExternalClassifier.send`
writes one without waiting, and replies are matched to requests by id,
so the child must keep reading its input while it answers.  The
timeout bounds every wait on the child: for a reply to arrive, and for
room in its input to write a request.  Protocol failures (a reply that
is malformed or whose id no request awaits, a wrong label count, a label
that is not an integer class index, process exit, timeout) surface as
:class:`TransportError`, never as classification results.  A timeout
stops the child.  After a timeout, an unmatched reply or the end of the
child's output, every later call on the adapter fails at once.
"""

from __future__ import annotations

import json
import os
import select
import shlex
import subprocess
import threading
from typing import Sequence

from .errors import TransportError


class ExternalClassifier:
    """Wraps one child process; threads may share it, since each reply
    goes to the caller whose request has its id."""

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
        # writes hold only this lock, so the reader can always store a reply
        # and the child never blocks on a full output pipe
        self._write_lock = threading.Lock()
        self._next_id = 0
        self._state = threading.Condition()  # guards every field below
        self._awaited: set[int] = set()  # ids written, not yet answered
        self._replies: dict[int, dict] = {}  # answered, not yet collected
        self._sent: dict[int, tuple[Sequence[str], int]] = {}  # by id() of a sent list
        # the failure that stopped the child; set, it fails every later call
        self._broken: str | None = None
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()

    def _pump(self) -> None:
        """Store each reply for its request until the child's output ends."""
        assert self._proc.stdout is not None
        for line in self._proc.stdout:
            try:
                reply = json.loads(line)
            except json.JSONDecodeError:
                reply = None
            rid = reply.get("id") if isinstance(reply, dict) else None
            with self._state:
                if type(rid) is int and rid in self._awaited:
                    self._awaited.remove(rid)
                    self._replies[rid] = reply
                elif reply is None:
                    self._fail(f"malformed response line: {line!r}")
                else:
                    self._fail(f"response id {rid!r} matches no request awaiting a reply")
                self._state.notify_all()
        with self._state:
            self._fail("classifier process closed its output stream")
            self._state.notify_all()

    def _fail(self, reason: str) -> None:
        # called with self._state held; the first failure is the one reported
        if self._broken is None:
            self._broken = reason

    def _write(self, texts: Sequence[str]) -> int:
        """Write one request for ``texts``; return its id."""
        payload = json.dumps(list(texts), ensure_ascii=False)
        with self._write_lock:
            with self._state:
                if self._broken is not None:
                    raise TransportError(
                        f"classifier unusable after an earlier failure: {self._broken}"
                    )
                if self._proc.poll() is not None:
                    raise TransportError(f"classifier process exited with {self._proc.returncode}")
                rid = self._next_id
                self._next_id += 1
                self._awaited.add(rid)
            try:
                self._write_all(f'{{"id": {rid}, "texts": {payload}}}\n'.encode())
            except OSError as exc:
                with self._state:
                    self._awaited.discard(rid)
                raise TransportError(f"failed to write request: {exc}") from exc
        return rid

    def _write_all(self, data: bytes) -> None:
        # called with self._write_lock held; a child that makes no room for
        # the timeout is stopped, like one that does not answer
        view = memoryview(data)
        while view:
            try:
                view = view[os.write(self._stdin, view) :]
            except BlockingIOError:
                if not self._room.poll(self.timeout * 1000):
                    with self._state:
                        self._fail(f"no room to write a request within {self.timeout}s")
                        self._state.notify_all()
                    self._proc.kill()
                    self._proc.wait()
                    raise TimeoutError(f"no room within {self.timeout}s") from None

    def send(self, texts: Sequence[str]) -> None:
        """Write a request for ``texts`` without waiting for its reply.

        ``classify_batch`` called later with this same list object
        collects the reply; each sent list is collected once.
        """
        rid = self._write(texts)
        with self._state:
            self._sent[id(texts)] = (texts, rid)  # the entry keeps the id() unique

    def classify_batch(self, texts: Sequence[str]) -> list[int]:
        """Labels of ``texts``: the reply to its earlier :meth:`send`, or to
        a request written now."""
        with self._state:
            sent = self._sent.pop(id(texts), None)
        rid = self._write(texts) if sent is None else sent[1]
        with self._state:
            answered = self._state.wait_for(
                lambda: rid in self._replies or self._broken is not None, self.timeout
            )
            if not answered:
                # every later call fails now, so a child that may never answer is stopped
                self._fail(f"no response within {self.timeout}s (request {rid})")
            reply = self._replies.pop(rid, None)
            failure = self._broken
        if reply is None:
            if not answered:
                self._proc.kill()
                self._proc.wait()
            raise TransportError(failure)
        labels = reply.get("labels")
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
