"""Adapter for external black-box classifiers speaking a line protocol.

The child process receives newline-delimited JSON requests on stdin and
answers on stdout, one object per line, UTF-8:

    request:  {"id": <int>, "texts": [<str>, ...]}
    response: {"id": <same int>, "labels": [<int>, ...]}

Protocol failures (mismatched id, malformed JSON, wrong label count, a
label that is not an integer class index, process exit, timeout)
surface as :class:`TransportError`, never as classification results.
A timeout stops the child, and every later call on the adapter fails.
"""

from __future__ import annotations

import json
import queue
import shlex
import subprocess
import threading
from typing import Sequence

from .errors import TransportError


class ExternalClassifier:
    """Wraps one child process; writes are serialized by an internal lock."""

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
        self._lock = threading.Lock()
        self._next_id = 0
        # the failure that stopped the child; set, it fails every later call
        self._broken: str | None = None
        self._lines: queue.Queue[str | None] = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()

    def _pump(self) -> None:
        assert self._proc.stdout is not None
        for line in self._proc.stdout:
            self._lines.put(line)
        self._lines.put(None)  # EOF sentinel

    def classify_batch(self, texts: Sequence[str]) -> list[int]:
        with self._lock:
            if self._broken is not None:
                raise TransportError(f"classifier unusable after an earlier failure: {self._broken}")
            if self._proc.poll() is not None:
                raise TransportError(f"classifier process exited with {self._proc.returncode}")
            rid = self._next_id
            self._next_id += 1
            request = json.dumps({"id": rid, "texts": list(texts)}, ensure_ascii=False)
            try:
                assert self._proc.stdin is not None
                self._proc.stdin.write(request + "\n")
                self._proc.stdin.flush()
            except (BrokenPipeError, OSError) as exc:
                raise TransportError(f"failed to write request: {exc}") from exc
            try:
                line = self._lines.get(timeout=self.timeout)
            except queue.Empty:
                # a late reply would answer the next request: stop the child
                self._broken = f"no response within {self.timeout}s (request {rid})"
                self._proc.kill()
                self._proc.wait()
                raise TransportError(self._broken) from None
            if line is None:
                raise TransportError("classifier process closed its output stream")
            try:
                response = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TransportError(f"malformed response line: {line!r}") from exc
            if response.get("id") != rid:
                raise TransportError(f"response id {response.get('id')!r} != request id {rid}")
            labels = response.get("labels")
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


class ExternalClassifierPool:
    """N worker processes for parallel batches; round-robin dispatch."""

    def __init__(self, cmd: str | Sequence[str], num_classes: int, size: int = 2, timeout: float = 60.0):
        if size < 1:
            raise ValueError("pool size must be >= 1")
        self.num_classes = int(num_classes)
        self._workers = [ExternalClassifier(cmd, num_classes, timeout) for _ in range(size)]
        self._rr = 0
        self._rr_lock = threading.Lock()

    def classify_batch(self, texts: Sequence[str]) -> list[int]:
        with self._rr_lock:
            worker = self._workers[self._rr % len(self._workers)]
            self._rr += 1
        return worker.classify_batch(texts)

    def close(self) -> None:
        for w in self._workers:
            w.close()

    def __enter__(self) -> "ExternalClassifierPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
