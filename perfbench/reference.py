"""Reference figures for README.md, measured once and not gated.

Run from the root of a source checkout:

    python3 perfbench/reference.py

Prints TEDS and TEDS-S time by table size, the merge-fold time by fragment
count, ``eval --jobs 2`` against ``--jobs 1``, and the import times behind
``setup_s`` from ``python -X importtime``. Each timing is the median of a
few repetitions in one process.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from docpost import cli, metrics, table_grid, table_merge  # noqa: E402


def timed(fn, repeat=3):
    samples = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def teds_by_size():
    print("TEDS by table size (text-corrupted pair; seconds per call)")
    print("| size | nodes | TEDS | TEDS-S |")
    print("| --- | --- | --- | --- |")
    rng = random.Random(0)
    for r, c in ((5, 5), (10, 5), (20, 6), (30, 8)):
        gt, pred = gen.corrupt_table(rng, r, c, "text")
        gt_html, pred_html = gen.table_html(gt[0], gt[2]), gen.table_html(pred[0], pred[2])
        repeat = 1 if r * c > 150 else 3
        content = timed(lambda: metrics.teds(pred_html, gt_html), repeat)
        structure = timed(lambda: metrics.teds(pred_html, gt_html, structure_only=True), repeat)
        nodes = 1 + r + len(gt[2])
        print(f"| {r}x{c} | {nodes} | {content:.3f} | {structure:.3f} |")


def fold_by_fragments():
    print("\nMerge fold of F fragments of 20 body rows, header repeated (seconds)")
    print("| F | fold |")
    print("| --- | --- |")
    rng = random.Random(0)
    header = [gen.Cell(0, c, 1, 1, f"{gen.HEAD_WORDS[c]} {c}", True) for c in range(5)]
    for n_frag in (10, 20, 40, 80):
        grids = []
        for _ in range(n_frag):
            body = [gen.Cell(r, c, 1, 1, gen.body_text(rng), False)
                    for r in range(1, 21) for c in range(5)]
            grids.append(table_grid.parse_grid(gen.table_html(21, header + body)))
        fold = timed(lambda: table_merge.merge_fragment_sequence_with_plans(grids), 1)
        print(f"| {n_frag} | {fold:.3f} |")


def eval_jobs():
    print("\n`docpost eval` on 16 text-corrupted 10x5 table pairs (seconds)")
    print("| --jobs | wall |")
    print("| --- | --- |")
    rng = random.Random(0)
    entries = []
    for _ in range(16):
        gt, pred = gen.corrupt_table(rng, 10, 5, "text")
        entries.append({"pred": gen.table_html(pred[0], pred[2]),
                        "gt": gen.table_html(gt[0], gt[2]), "kind": "table"})
    with tempfile.TemporaryDirectory() as tmp:
        batch = Path(tmp) / "batch.json"
        batch.write_text(json.dumps(entries))
        for jobs in (1, 2):
            def run():
                with contextlib.redirect_stdout(io.StringIO()):
                    cli.main(["eval", str(batch), "--jobs", str(jobs)])
            print(f"| {jobs} | {timed(run):.3f} |")


def import_times():
    print("\n`python -X importtime -c 'import docpost.cli'`: largest cumulative imports (ms)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import docpost.cli"],
                          env=env, capture_output=True, text=True, check=True, timeout=60)
    rows = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((int(cumulative) / 1000, depth, name.strip()))
    print("| module | depth | cumulative ms |")
    print("| --- | --- | --- |")
    for ms, depth, name in sorted(rows, reverse=True)[:12]:
        print(f"| {name} | {depth} | {ms:.1f} |")


if __name__ == "__main__":
    teds_by_size()
    fold_by_fragments()
    eval_jobs()
    import_times()
