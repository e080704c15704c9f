#!/usr/bin/env python3
"""Line-protocol classifier serving a built-in delcert model.

Usage: python3 perfbench/worker.py MODEL_JSON STATS_JSON

Answers each ``{"id", "texts"}`` request line on stdin with an
``{"id", "labels"}`` line on stdout (the protocol of
``delcert.external``).  At end of input it writes STATS_JSON with one
``[bytes_in, bytes_out, busy_s]`` entry per request, where ``busy_s`` is
the time spent classifying, and its own peak RSS; then it exits 0.
"""

import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from delcert.classifier import BuiltinModel  # noqa: E402


def main(model_path: str, stats_path: str) -> None:
    model = BuiltinModel.load(model_path)
    sys.stdin.reconfigure(encoding="utf-8")
    sys.stdout.reconfigure(encoding="utf-8")
    requests = []
    for line in sys.stdin:
        msg = json.loads(line)
        t0 = time.perf_counter()
        labels = model.classify_batch(msg["texts"])
        busy = time.perf_counter() - t0
        reply = json.dumps({"id": msg["id"], "labels": labels}) + "\n"
        sys.stdout.write(reply)
        sys.stdout.flush()
        requests.append([len(line.encode("utf-8")), len(reply), busy])
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump({"requests": requests, "peak_rss_mb": peak_mb}, fh)


if __name__ == "__main__":
    main(*sys.argv[1:])
