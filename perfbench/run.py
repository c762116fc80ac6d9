"""docpost benchmark: three CLI workloads, checked outputs, one JSON line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload doc_assemble --seed 1 --seconds 20 --trace 0

The inputs are generated from ``--seed`` before any timing. One child
process then issues the workload's commands through ``docpost.cli.main``
one at a time (a closed loop with one client) for ``--seconds``, and every
output is checked against computations made apart from the program. The
last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import check  # noqa: E402
import gen  # noqa: E402

WORKLOADS = ("doc_assemble", "table_eval", "rl_reward")
# Interpreter starts timed before and again after the measured commands, so
# the median spans the run rather than one moment of a noisy machine.
SETUP_SAMPLES = 6
SETUP_CODE = "import docpost.cli as c; c.build_parser()"

# Spans reported per layer; True also reports the call count.
SPAN_METRICS = (
    ("layout.pipeline_run", False),
    ("layout.assemble", False),
    ("layout.parse_layout_document", False),
    ("layout.parse_recognition_fixture", False),
    ("idtp.plan_masks", True),
    ("idtp.restore_images", True),
    ("idtp.read_ppm", False),
    ("idtp.crop_buffer", False),
    ("idtp.apply_masks", False),
    ("idtp.write_ppm", False),
    ("table_grid.parse_grid", True),
    ("table_grid.serialize_grid", True),
    ("table_grid.grid_from_cells", True),
    ("table_grid.detect_header_rows", True),
    ("table_merge.decide_merge", True),
    ("table_merge.merge", True),
    ("metrics.teds_content", True),
    ("metrics.teds_structure", True),
    ("metrics.tree_edit_distance", True),
    ("metrics.normalized_edit_distance", True),
    ("metrics.edit_distance", False),
    ("metrics.reading_order_edit", False),
    ("rewards.perturb_table", True),
    ("rewards.rule_checks", True),
    ("rewards.render_candidate", False),
    ("rewards.group_advantages", False),
)
COUNT_METRICS = (
    "idtp.masked_pixels",
    "table_grid.parsed_cells",
    "table_merge.rows_laid",
    "metrics.ted_node_pairs",
)


def per_layer_names():
    """(name, unit) of every per-layer metric, in report order."""
    names = []
    for span, with_calls in SPAN_METRICS:
        if with_calls:
            names.append((f"{span}.calls", "count"))
        names.append((f"{span}.s", "s"))
    names += [(c, "count") for c in COUNT_METRICS]
    names += [
        ("table_merge.rows_laid_per_output_row", "ratio"),
        ("rewards.perturb_yield", "ratio"),
        ("cli.self_s", "s"),
        ("bench.trace_overhead_s", "s"),
    ]
    return names


END_TO_END = (("setup_s", "s"), ("units_per_s", "units/s"), ("item_p50_s", "s"),
              ("peak_rss_mb", "MB"))


def setup_samples(env, samples, references) -> None:
    """Append the wall times of fresh interpreters importing the CLI and
    building its parser, and the reference times measured around each."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    for _ in range(SETUP_SAMPLES):
        references.append(calibrate.reference_time())
        t0 = time.perf_counter()
        # with pipes, the timeout waits on their end-of-file; without them it
        # polls waitpid with sleeps of up to 50 ms, which would quantize the time
        subprocess.run(cmd, env=env, check=True, timeout=60, capture_output=True)
        samples.append(time.perf_counter() - t0)
        references.append(calibrate.reference_time())


def _stderr_reasons(item):
    reasons = []
    for step in item["steps"]:
        if "outputs" not in step:
            continue
        path = Path(step["outputs"][0] + ".stderr")
        text = path.read_text(encoding="utf-8") if path.exists() else ""
        if text:
            reasons.append(f"{step['argv'][0]} wrote diagnostics: {text[:300]!r}")
    return reasons


def check_outputs(workload, items, expect, units):
    """Failed units per item and the reasons, from the last round's outputs
    (every round reproduced the warm-up round's bytes, or was counted failed)."""
    failed = []
    reasons = []
    known = 0
    for item, exp, n in zip(items, expect, units):
        why = _stderr_reasons(item)
        if why:
            failed.append(n)
            reasons += why
            continue
        bad, why, known_here = check.CHECKERS[workload](exp)
        failed.append(min(bad, n))
        known += known_here
        reasons += why
    return failed, reasons, known


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "docpost" / "cli.py").is_file():
        print(f"no docpost sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    out_dir = ROOT / ".perfbench"
    work = out_dir / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    try:
        items, expect = gen.WRITERS[args.workload](work / "inputs", args.seed)
        # one untimed start compiles the bytecode, which a user pays once
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True, timeout=60)
        setup, references = [], []
        setup_samples(env, setup, references)
        plan = {
            "items": items,
            "seconds": args.seconds,
            "trace": args.trace,
            "trace_out": str(out_dir / f"trace_{args.workload}.jsonl"),
            "result": str(work / "result.json"),
        }
        (work / "plan.json").write_text(json.dumps(plan))
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(work / "plan.json")],
            env=env, timeout=150,
        )
        if proc.returncode != 0:
            print(f"child exited with {proc.returncode}", file=sys.stderr)
            return 1
        setup_samples(env, setup, references)
        result = json.loads((work / "result.json").read_text())
        units = result["units"]
        deep_failed, reasons, known = check_outputs(args.workload, items, expect, units)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = failed = mismatched = 0
    for rnd in result["rounds"]:
        for i, n in enumerate(units):
            attempted += n
            if i in rnd["failed_items"]:
                failed += n
                mismatched += 1
            else:
                failed += deep_failed[i]
    for reason in reasons[:20]:
        print(f"check: {reason}", file=sys.stderr)
    if mismatched:
        print(f"check: {mismatched} item runs broke exit status or output bytes", file=sys.stderr)
    correct = mismatched == 0 and sum(deep_failed) == known

    if args.trace:
        metrics = layer_metrics(result)
    else:
        rounds = result["rounds"]
        raw = dict(setup_s=statistics.median(setup),
                   **command_timings([r["times"] for r in rounds], units))
        # set-up is scaled once per run, by the median reference time: a
        # factor per interpreter start added more noise than it removed
        metrics = dict(
            setup_s=raw["setup_s"] * calibrate.REFERENCE_S / statistics.median(references),
            **command_timings(
                [[t * f for t, f in zip(r["times"], r["scales"])] for r in rounds], units
            ),
            peak_rss_mb=result["peak_rss_kb"] / 1024,
        )
        print(f"wall time, unscaled: {json.dumps(raw)}", file=sys.stderr)
        units_of = dict(END_TO_END)
        metrics = {k: {"value": v, "unit": units_of[k]} for k, v in metrics.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def command_timings(round_times, units):
    """units_per_s and item_p50_s from per-round item times. A round's time
    is taken as the sum of each item's median time over the rounds, which
    is steadier than the median of whole-round times."""
    return {
        "units_per_s": sum(units) / sum(statistics.median(t) for t in zip(*round_times)),
        "item_p50_s": statistics.median(t for times in round_times for t in times),
    }


def layer_metrics(result):
    """Per traced round: self time and calls of each span, the counters,
    and the traced-minus-untraced command time."""
    traced = [r for r in result["rounds"] if r["traced"]]
    plain = [r for r in result["rounds"] if not r["traced"]]
    n = len(traced)
    spans = result["self_times"]
    counts = result["counts"]
    values = {}
    for span, with_calls in SPAN_METRICS:
        calls, self_ns = spans.get(span, (0, 0))
        if with_calls:
            values[f"{span}.calls"] = calls / n
        values[f"{span}.s"] = self_ns / 1e9 / n
    for name in COUNT_METRICS:
        values[name] = counts.get(name, 0) / n
    out_rows = counts.get("table_merge.output_rows", 0)
    values["table_merge.rows_laid_per_output_row"] = (
        counts.get("table_merge.rows_laid", 0) / out_rows if out_rows else 0.0
    )
    attempts = spans.get("rewards.perturb_table", (0, 0))[0]
    values["rewards.perturb_yield"] = (
        counts.get("rewards.perturb_applied", 0) / attempts if attempts else 0.0
    )
    values["cli.self_s"] = spans.get("cli.main", (0, 0))[1] / 1e9 / n
    values["bench.trace_overhead_s"] = (
        sum(sum(r["times"]) for r in traced) - sum(sum(r["times"]) for r in plain)
    ) / n
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_names()}


if __name__ == "__main__":
    sys.exit(main())
