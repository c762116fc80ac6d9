"""Time a docpost workload writing over existing outputs, or into removed ones.

perfbench/run.py writes every output once in its warm-up round, and each
timed round then writes over the same paths, so every write it times goes
to a file that already exists. This script runs the same commands, with
the same inputs, both ways:

    python3 tools/output_reuse.py --workload doc_assemble --seed 1 --seconds 8 --mode fresh

``--mode rerun`` leaves each round's outputs for the next, as perfbench
does. ``--mode fresh`` removes, before each timed round and outside the
timing, every file the warm-up round made, so each command writes to paths
that do not exist. ``--root`` is the source checkout whose ``src/`` and
``perfbench/`` are used (default: the one holding this script), so two
checkouts can be compared run against run; ``--workdir`` picks the
directory, and so the file system, the inputs and outputs live in.

``--ab`` compares the two ways of writing inside one process instead,
where the machine's drift hits both alike: rounds alternate between the
CLI's in-place writer ``cli._output`` and a stand-in that opens with
truncation, as ``open(path, "w")`` and ``Path.write_text`` do.

Only the ``docpost.cli.main`` calls are timed, each scaled by perfbench's
machine-speed factor, and every round must reproduce the warm-up round's
output bytes. One untimed round at the end counts the files the CLI opens
for writing and how many of them existed already. The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path


@contextlib.contextmanager
def _truncating(path, binary=False):
    with open(path, "wb") if binary else open(path, "w", encoding="utf-8") as fh:
        yield fh


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("doc_assemble", "table_eval", "rl_reward"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("rerun", "fresh"))
    parser.add_argument("--ab", action="store_true")
    parser.add_argument("--root", default=str(Path(__file__).resolve().parent.parent))
    parser.add_argument("--workdir", default=None)
    args = parser.parse_args(argv)

    root = Path(args.root).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import calibrate
    import child  # imports docpost.cli from root/src
    import gen

    cli = child.cli
    writers = {"in_place": cli._output, "truncating": _truncating} if args.ab else {"as_is": None}
    times = {name: [] for name in writers}
    units = 0
    work = Path(tempfile.mkdtemp(prefix="output-reuse-", dir=args.workdir))

    def one_round(writer, timed=True):
        if writer is not None:
            cli._output = writer
        if args.mode == "fresh":
            for p in made:
                p.unlink()
        total = 0.0
        for item, digest in zip(items, reference):
            scale = calibrate.scale() if timed else 1.0
            elapsed, _, ok = child.run_item(item, None)
            total += elapsed * scale
            if not ok or child._digest(child._outputs(item)) != digest:
                raise SystemExit(f"outputs changed: {item['steps'][0]['argv']}")
        return total

    try:
        items, _ = gen.WRITERS[args.workload](work, args.seed)
        inputs = set(work.rglob("*"))
        reference = []
        for item in items:  # warm-up round
            _, n, ok = child.run_item(item, None)
            if not ok:
                print(f"warm-up item failed: {item['steps'][0]['argv']}", file=sys.stderr)
                return 1
            reference.append(child._digest(child._outputs(item)))
            units += n
        made = [p for p in work.rglob("*") if p not in inputs and p.is_file()]
        start = time.perf_counter()
        while not times[next(iter(writers))] or time.perf_counter() - start < args.seconds:
            order = list(writers)
            if len(times[order[0]]) % 2:
                order.reverse()
            for name in order:
                times[name].append(one_round(writers[name]))

        # an audit hook cannot be removed, so it goes in after the timing
        writes = []
        in_main = False

        def audit(event, hook_args):
            if in_main and event == "open" and isinstance(hook_args[0], str) \
                    and hook_args[2] & (os.O_WRONLY | os.O_RDWR):
                writes.append(os.path.exists(hook_args[0]))

        def counted_main(cli_argv, main=cli.main):
            nonlocal in_main
            in_main = True
            try:
                return main(cli_argv)
            finally:
                in_main = False

        sys.addaudithook(audit)
        cli.main = counted_main
        one_round(next(iter(writers.values())), timed=False)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "workload": args.workload, "seed": args.seed, "mode": args.mode,
        "cli": cli.__file__, "writes_per_round": len(writes),
        "existing_share": sum(writes) / len(writes) if writes else None,
        "rounds": len(times[next(iter(writers))]),
    }
    for name, rounds in times.items():
        result[name] = {"units_per_s": units * len(rounds) / sum(rounds),
                        "round_s_median": statistics.median(rounds)}
    if args.ab:
        result["in_place_wins"] = sum(a < b for a, b in zip(times["in_place"], times["truncating"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
