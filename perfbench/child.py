"""Closed-loop client: one process issuing docpost commands one at a time.

Usage: ``python3 perfbench/child.py PLAN.json`` with ``src`` on the path.
The plan lists items (a document, an eval shard, one table's RL step), each
a list of CLI steps. Every step calls ``docpost.cli.main(argv)`` in this
process; only those calls are timed. A warm-up round runs first and fixes
the reference digest of every output; each timed round must reproduce those
bytes. Rounds repeat until the measured time is used up. Before each item
the machine's speed is measured (see calibrate.py), and its scale factor is
recorded next to the item's time. With tracing on, traced and untraced
rounds alternate so their difference is the overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402
from spans import Tracer  # noqa: E402

from docpost import cli  # noqa: E402


def _digest(paths) -> str:
    h = hashlib.sha1()
    for p in paths:
        try:
            h.update(Path(p).read_bytes())
        except OSError:
            h.update(b"<missing>")
        h.update(b"\0")
    return h.hexdigest()


def _build_candidates(spec) -> int:
    """The reward group: the canonical ground truth plus every negative."""
    pairs = [json.loads(line) for line in Path(spec["pairs"]).read_text().splitlines()]
    positive = pairs[0]["positive"] if pairs else Path(spec["gt"]).read_text()
    Path(spec["out"]).write_text(json.dumps([positive] + [p["negative"] for p in pairs]))
    return 1 + len(pairs)


def run_item(item, tracer):
    """Run one item's steps; returns (command seconds, units, exit codes ok)."""
    elapsed = 0.0
    units = item["units"]
    ok = True
    for step in item["steps"]:
        if "candidates" in step:
            units = _build_candidates(step["candidates"])
            continue
        out_path = step.get("stdout") or step["outputs"][0] + ".stdout"
        with open(out_path, "w", encoding="utf-8") as out, \
                open(step["outputs"][0] + ".stderr", "w", encoding="utf-8") as err, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    code = cli.main(step["argv"])
                else:
                    code = tracer.call("cli.main", cli.main, step["argv"])
            except Exception:  # a crash is a failed operation, not a failed run
                traceback.print_exc()
                code = -1
            elapsed += time.perf_counter() - t0
        ok = ok and code == 0
    return elapsed, units, ok


def _outputs(item):
    paths = []
    for step in item["steps"]:
        if "candidates" in step:
            paths.append(step["candidates"]["out"])
        else:
            paths += step["outputs"] + [step["outputs"][0] + ".stderr"]
    return paths


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    items = plan["items"]
    tracer = Tracer() if plan["trace"] else None
    reference = []
    units = []
    for item in items:  # warm-up round: fixes reference outputs and unit counts
        _, n, ok = run_item(item, None)
        reference.append(_digest(_outputs(item)) if ok else None)
        units.append(n)
    rounds = []  # per round: {"traced", "times", "scales", "failed_items"}
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 4 in (1, 2)
        if traced:
            tracer.install()
        times = []
        scales = []
        failed = []
        for i, item in enumerate(items):
            scales.append(calibrate.scale())
            elapsed, n, ok = run_item(item, tracer if traced else None)
            times.append(elapsed)
            if not ok or n != units[i] or _digest(_outputs(item)) != reference[i]:
                failed.append(i)
        if traced:
            tracer.uninstall()
        rounds.append({"traced": traced, "times": times, "scales": scales, "failed_items": failed})
        done = time.perf_counter() - start >= plan["seconds"]
        if done and (tracer is None or len(rounds) % 2 == 0):
            break
    result = {
        "units": units,
        "rounds": rounds,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["self_times"] = tracer.self_times()
        result["counts"] = tracer.counts
        tracer.write(plan["trace_out"])
    Path(plan["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
