"""A CLI process runs only the docpost modules its command uses.

``docpost`` registers every submodule but ``cli`` and ``errors`` lazily: the
module object sits in ``sys.modules`` as an instance of a ``ModuleType``
subclass until its first attribute access runs its source. ``type()`` reads
no attribute, so ``type(module) is types.ModuleType`` tells a module that
has run from one that has not without loading it. Each case starts a fresh
interpreter, since the test process has loaded everything.
"""

import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import docpost

SRC = Path(__file__).resolve().parents[1] / "src"

BASE = {"docpost", "docpost.cli", "docpost.errors"}

# Appended to each script: the exit code of ``main`` and the docpost
# modules that have run, as one JSON line.
REPORT = """
import json, sys, types
print(json.dumps({"exit": code, "ran": sorted(
    name for name, module in sys.modules.items()
    if name.partition(".")[0] == "docpost" and type(module) is types.ModuleType
)}))
"""

RUN_MAIN = "import sys\nfrom docpost.cli import main\ncode = main(sys.argv[1:])\n"


def _env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def run_fresh(script: str, *argv: str) -> tuple[int, set[str]]:
    proc = subprocess.run(
        [sys.executable, "-c", script + REPORT, *argv],
        env=_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    return report["exit"], set(report["ran"])


def test_importing_the_cli_runs_no_lazy_module():
    code, ran = run_fresh("import docpost.cli as c\nc.build_parser()\ncode = 0\n")
    assert ran == BASE


def test_eval_runs_only_the_json_reader_metrics_and_table_grid(tmp_path):
    batch = tmp_path / "batch.json"
    table = "<table><tr><td>a</td><td>b</td></tr></table>"
    batch.write_text(json.dumps([{"pred": table, "gt": table, "kind": "table"}]))
    code, ran = run_fresh(RUN_MAIN, "eval", str(batch))
    assert code == 0
    assert ran == BASE | {"docpost.json_reader", "docpost.metrics", "docpost.table_grid"}


def test_reward_runs_no_layout_idtp_merge_or_metrics(tmp_path):
    gt = tmp_path / "gt.html"
    gt.write_text("<table><tr><td>a</td></tr></table>")
    candidates = tmp_path / "candidates.json"
    candidates.write_text(json.dumps([gt.read_text(), "<table><tr><td>b</td></tr></table>"]))
    code, ran = run_fresh(RUN_MAIN, "reward", str(candidates), str(gt))
    assert code == 0
    assert "docpost.rewards" in ran
    idle = {f"docpost.{m}" for m in ("layout", "idtp", "table_merge", "metrics")}
    assert ran & idle == set()


def test_mask_runs_no_layout_merge_metrics_or_rewards(tmp_path):
    image = tmp_path / "page.ppm"
    image.write_bytes(b"P6\n16 16\n255\n" + bytes(16 * 16 * 3))
    detections = tmp_path / "dets.json"
    detections.write_text(json.dumps([{"bbox": [2, 2, 6, 6], "confidence": 0.9}]))
    code, ran = run_fresh(
        RUN_MAIN, "mask", str(image), str(detections), "--table-bbox", "0,0,16,16",
        "--out-prefix", str(tmp_path / "t"),
    )
    assert code == 0
    assert "docpost.idtp" in ran
    idle = {f"docpost.{m}" for m in ("layout", "table_merge", "metrics", "rewards")}
    assert ran & idle == set()


def test_threads_wait_for_a_module_another_thread_is_loading():
    script = """
import threading
import docpost
errors = []
barrier = threading.Barrier(4)
def first_use():
    barrier.wait()
    try:
        docpost.metrics.teds("<table><tr><td>a</td></tr></table>", "<table><tr><td>b</td></tr></table>")
    except Exception as exc:
        errors.append(repr(exc))
threads = [threading.Thread(target=first_use) for _ in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join(30)
assert not any(t.is_alive() for t in threads)
code = errors
"""
    errors, ran = run_fresh(script)
    assert errors == []
    assert "docpost.metrics" in ran


def test_module_entry_point_warns_nothing():
    """The CI smoke steps run the CLI as ``python -m docpost.cli``; runpy
    warns if the package put ``docpost.cli`` in ``sys.modules`` first."""
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "docpost.cli", "--help"],
        env=_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.startswith("usage: docpost")


@pytest.mark.parametrize("name", docpost.__all__)
def test_public_name_is_its_module_object(name):
    value = getattr(docpost, name)
    home = importlib.import_module(value.__module__)
    assert home.__name__.startswith("docpost.")
    assert getattr(home, name) is value


def test_package_lists_its_names_and_modules():
    names = dir(docpost)
    assert set(docpost.__all__) <= set(names)
    assert {"errors", "json_reader", "layout", "metrics", "table_grid"} <= set(names)
    assert isinstance(docpost.table_grid, types.ModuleType)
    assert docpost.table_grid is sys.modules["docpost.table_grid"]
    with pytest.raises(AttributeError, match="no_such_name"):
        docpost.no_such_name  # noqa: B018
