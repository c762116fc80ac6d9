"""Time one content-aware ``teds()`` call on a generated N x N table pair.

Run from the root of a source checkout:

    PYTHONPATH=src python3 tools/teds_probe.py --size 60 --edits 4
    PYTHONPATH=src python3 tools/teds_probe.py --size 40 --rotate

Every cell of the ground truth holds a distinct text. The prediction is a
copy with ``--edits`` cell texts changed, or with every row rotated by one
column (``--rotate``). Prints one JSON line: the size, the TEDS score, the
``[below, above]`` band of each pass of the tree edit distance (the node
counts' sum on both sides is the whole table), the wall time of the call in
seconds and the process's peak RSS in MB.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time

from docpost import metrics

WORDS = ("alpha", "bravo", "carbon", "delta", "echo", "foxtrot", "gamma", "hotel")


def table_html(rows) -> str:
    body = "".join("<tr>" + "".join(f"<td>{text}</td>" for text in row) + "</tr>" for row in rows)
    return f"<table>{body}</table>"


def probe_pair(size: int, edits: int, rotate: bool, seed: int = 0) -> tuple[str, str]:
    rng = random.Random(seed)
    gt = [[f"{rng.choice(WORDS)} {r}.{c}" for c in range(size)] for r in range(size)]
    pred = [row[1:] + row[:1] if rotate else row[:] for row in gt]
    for r, c in rng.sample([(r, c) for r in range(size) for c in range(size)], edits):
        pred[r][c] = pred[r][c][::-1]
    return table_html(pred), table_html(gt)


def record_passes() -> list[list[int]]:
    """Make ``metrics._zhang_shasha`` append each pass's ``[below, above]``
    to the returned list."""
    passes: list[list[int]] = []
    zhang_shasha = metrics._zhang_shasha

    def recording(A, B, below, above=None):
        passes.append([below, below if above is None else above])
        return zhang_shasha(A, B, below, above)

    metrics._zhang_shasha = recording
    return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, required=True)
    parser.add_argument("--edits", type=int, default=0)
    parser.add_argument("--rotate", action="store_true")
    args = parser.parse_args(argv)
    pred, gt = probe_pair(args.size, args.edits, args.rotate)
    passes = record_passes()
    t0 = time.perf_counter()
    score = metrics.teds(pred, gt)
    seconds = time.perf_counter() - t0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    print(json.dumps({
        "size": args.size, "edits": args.edits, "rotate": args.rotate, "teds": score,
        "passes": passes, "s": round(seconds, 3), "peak_rss_mb": round(peak_kb / 1024, 1),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
