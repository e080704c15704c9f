#!/usr/bin/env python3
"""Scripted line-protocol classifier used by the adapter tests.

Modes:
  echo0      -- label 0 for every text
  length     -- label = text length mod 2 (order-sensitive responses)
  bad-id     -- answers with a wrong request id
  garbage    -- answers with non-JSON noise
  short      -- answers with too few labels
  quit       -- exits immediately without answering
  float      -- label 1.7 for every text
  bool       -- label true for every text
  range      -- label 2 for every text (out of range for two classes)
  slow       -- label 0 for every text, after a 2-second pause
"""

import json
import sys
import time


def main() -> None:
    mode = sys.argv[1] if len(sys.argv) > 1 else "echo0"
    if mode == "quit":
        return
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        msg = json.loads(line)
        texts = msg["texts"]
        if mode == "bad-id":
            out = {"id": msg["id"] + 1000, "labels": [0] * len(texts)}
        elif mode == "garbage":
            sys.stdout.write("not json at all\n")
            sys.stdout.flush()
            continue
        elif mode == "short":
            out = {"id": msg["id"], "labels": [0] * max(0, len(texts) - 1)}
        elif mode == "length":
            out = {"id": msg["id"], "labels": [len(t) % 2 for t in texts]}
        elif mode in ("float", "bool", "range"):
            label = {"float": 1.7, "bool": True, "range": 2}[mode]
            out = {"id": msg["id"], "labels": [label] * len(texts)}
        elif mode == "slow":
            time.sleep(2)
            out = {"id": msg["id"], "labels": [0] * len(texts)}
        else:
            out = {"id": msg["id"], "labels": [0] * len(texts)}
        sys.stdout.write(json.dumps(out) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
