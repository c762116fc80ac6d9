"""Time each docpost subcommand as a whole process, for two source trees.

Run from the root of a source checkout, naming the root of another checkout
to compare against:

    python3 tools/startup_probe.py --parent ../docpost-parent --runs 15 --seed 1

The inputs come from ``perfbench/gen.py`` of this checkout: the first
``doc_assemble`` document (its first ``mask`` step and its ``assemble``),
the first ``table_eval`` shard (``eval``) and the first ``rl_reward`` table
(``pairs``, then ``reward`` on the ground truth and its negatives). ``restore``
reads the first masked fragment's recognized HTML and placeholder map, and
``merge`` the document's table fragments. Each command runs as
``python -c "...main(argv)"`` with ``PYTHONPATH`` set to the tree's ``src``
and the rest of the environment inherited, so ``PYTHONDONTWRITEBYTECODE``
decides whether each start compiles ``src/``. Every command first runs once
per tree untimed, and its exit code must be 0 in both. Then each run times
every command once per tree; the tree that goes first alternates from run to
run. Prints one JSON object: per command, the median and every wall time in
ms per tree and the parent/change ratio of the medians.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402

CODE = "import sys; from docpost.cli import main; sys.exit(main(sys.argv[1:]))"


def _first_step(items, command):
    return next(s for item in items for s in item["steps"] if s.get("argv", [""])[0] == command)


def write_commands(work: Path, seed: int) -> dict[str, list[str]]:
    """Generate the inputs under ``work``; returns command name -> argv."""
    doc, ev, rl = work / "doc", work / "eval", work / "rl"
    for d in (doc, ev, rl):
        d.mkdir()
    doc_items, _ = gen.write_doc_assemble(doc, seed)
    eval_items, _ = gen.write_table_eval(ev, seed)
    rl_items, _ = gen.write_rl_reward(rl, seed)
    mask = _first_step(doc_items, "mask")["argv"]
    prefix = mask[mask.index("--out-prefix") + 1]
    # the recognized HTML of the masked fragment: its page and element name it
    page, el = Path(prefix).name[1:].split("_el")
    recognition = json.loads((doc / "doc0" / "recognition.json").read_text())
    (work / "fragment.html").write_text(recognition[int(page)][el]["content"])
    fragments = []
    for p, rec in enumerate(recognition):
        for index, content in sorted(rec.items()):
            if content["kind"] == "table":
                fragments.append(work / f"frag_p{p}_el{index}.html")
                fragments[-1].write_text(content["content"])
    pairs = _first_step(rl_items, "pairs")["argv"]
    reward = _first_step(rl_items, "reward")["argv"]
    return {
        "mask": mask,
        "restore": ["restore", str(work / "fragment.html"), f"{prefix}.map.json",
                    "-o", str(work / "restored.html")],
        "assemble": _first_step(doc_items, "assemble")["argv"],
        "merge": ["merge", *map(str, fragments), "--out-prefix", str(work / "merged")],
        "eval": _first_step(eval_items, "eval")["argv"],
        "pairs": pairs,
        "reward": reward,
    }


def write_candidates(pairs_out: str, gt: str, out: str) -> None:
    """The reward group perfbench builds: the ground truth's canonical form
    (the first pair's positive) and every negative."""
    pairs = [json.loads(line) for line in Path(pairs_out).read_text().splitlines()]
    positive = pairs[0]["positive"] if pairs else Path(gt).read_text()
    Path(out).write_text(json.dumps([positive] + [p["negative"] for p in pairs]))


def run(tree: Path, argv: list[str]) -> tuple[float, int]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, "-c", CODE, *argv]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, timeout=120)
    return time.perf_counter() - t0, proc.returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="root of the checkout to compare")
    parser.add_argument("--change", type=Path, default=ROOT, help="default: this checkout")
    parser.add_argument("--runs", type=int, default=15)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    with tempfile.TemporaryDirectory() as tmp:
        commands = write_commands(Path(tmp), args.seed)
        times = {name: {side: [] for side in trees} for name in commands}
        for name, cmd in commands.items():
            for side, tree in trees.items():
                _, code = run(tree, cmd)
                if code != 0:
                    raise SystemExit(f"{name} exited {code} on the {side} tree")
                if name == "pairs":
                    reward = commands["reward"]
                    write_candidates(cmd[cmd.index("--out") + 1], cmd[1], reward[1])
        for r in range(args.runs):
            order = list(trees.items()) if r % 2 == 0 else list(trees.items())[::-1]
            for name, cmd in commands.items():
                for side, tree in order:
                    times[name][side].append(run(tree, cmd)[0] * 1000)
    report = {}
    for name, sides in times.items():
        medians = {side: statistics.median(ms) for side, ms in sides.items()}
        report[name] = {
            "median_ms": {side: round(m, 1) for side, m in medians.items()},
            "speedup": round(medians["parent"] / medians["change"], 3),
            "runs_ms": {side: [round(t, 1) for t in ms] for side, ms in sides.items()},
        }
    print(json.dumps({"runs": args.runs, "seed": args.seed, "python": sys.version.split()[0],
                      "commands": report}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
