"""Tests of the benchmark itself: seeded inputs are reproducible and every
checker rejects a deliberately corrupted output.

Run from the repository root:

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import child  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_byte_identical_inputs(self):
        for workload, write in gen.WRITERS.items():
            with self.subTest(workload=workload), tempfile.TemporaryDirectory() as a, \
                    tempfile.TemporaryDirectory() as b:
                write(Path(a), 7)
                write(Path(b), 7)
                self.assertEqual(_files(Path(a)), _files(Path(b)))

    def test_other_seed_gives_other_inputs_of_the_same_make_up(self):
        for workload, write in gen.WRITERS.items():
            with self.subTest(workload=workload), tempfile.TemporaryDirectory() as a, \
                    tempfile.TemporaryDirectory() as b:
                items_a, _ = write(Path(a), 7)
                items_b, _ = write(Path(b), 8)
                self.assertNotEqual(_files(Path(a)), _files(Path(b)))
                self.assertEqual([i["units"] for i in items_a], [i["units"] for i in items_b])


class _Workload(unittest.TestCase):
    """Generates one workload, runs its first item through the CLI."""

    workload = ""
    item = 0

    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        items, expect = gen.WRITERS[self.workload](Path(tmp.name), 3)
        _, _, ok = child.run_item(items[self.item], None)
        self.assertTrue(ok)
        self.exp = expect[self.item]

    def check(self):
        return check.CHECKERS[self.workload](self.exp)


class DocumentCheckTest(_Workload):
    workload = "doc_assemble"
    item = 4  # the long table across every page

    def test_correct_output_passes(self):
        self.assertEqual(self.check(), (0, [], 0))

    def test_two_swapped_blocks_fail(self):
        path = Path(self.exp["dir"]) / "doc.md"
        blocks = path.read_text()[:-1].split("\n\n")
        blocks[1], blocks[2] = blocks[2], blocks[1]
        path.write_text("\n\n".join(blocks) + "\n")
        failed, reasons, _ = self.check()
        self.assertGreaterEqual(failed, 1)
        self.assertIn("reading order", reasons[0])

    def test_a_masked_pixel_outside_the_plan_fails(self):
        p, index, _, _ = self.exp["masks"][0]
        path = Path(self.exp["dir"]) / "mask" / f"p{p}_el{index}.masked.ppm"
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        failed, reasons, _ = self.check()
        self.assertEqual(failed, 1)
        self.assertIn("masked crop", reasons[0])


class ShardCheckTest(_Workload):
    workload = "table_eval"

    def test_only_the_known_range_fault_fails(self):
        failed, reasons, known = self.check()
        self.assertEqual((failed, known), (1, 1), reasons)
        self.assertIn("range_fault", reasons[0])

    def test_teds_off_by_a_thousandth_fails(self):
        # a small, structurally changed pair: only the exact oracle can tell
        for i, meta in enumerate(self.exp["meta"]):
            if meta["kind"] == "table" and meta["corruption"] in ("span", "drop_row", "dup_row") \
                    and check.oracle_checks(meta["pred"], meta["gt"]):
                break
        else:
            self.fail("no small structurally corrupted pair in the shard")
        path = Path(self.exp["rows"])
        rows = json.loads(path.read_text())
        rows[i]["metrics"]["teds"] -= 1e-3
        path.write_text(json.dumps(rows))
        failed, reasons, _ = self.check()
        self.assertEqual(failed, 2)
        self.assertTrue(any("exact" in r for r in reasons), reasons)

    def test_exact_distance_of_the_range_fault_pair(self):
        t1 = check.table_tree(3, [tuple(c) for c in gen.RANGE_FAULT_PRED[2]])
        t2 = check.table_tree(1, [tuple(c) for c in gen.RANGE_FAULT_GT[2]])
        self.assertEqual(check.exact_tree_distance(t1, t2, True), 8.0)
        self.assertEqual(check.exact_tree_distance(t1, t2, False), 5.0)

    def test_levenshtein(self):
        self.assertEqual(check.levenshtein("kitten", "sitting"), 3)
        self.assertEqual(check.levenshtein("", "abc"), 3)


class GroupCheckTest(_Workload):
    workload = "rl_reward"

    def test_correct_output_passes(self):
        self.assertEqual(self.check(), (0, [], 0))

    def test_advantages_that_do_not_sum_to_zero_fail(self):
        path = Path(self.exp["reward"])
        out = json.loads(path.read_text())
        out["candidates"][0]["advantage"] += 0.01
        path.write_text(json.dumps(out))
        failed, reasons, _ = self.check()
        self.assertEqual(failed, len(out["candidates"]))
        self.assertIn("advantages", reasons[-1])

    def test_a_negative_without_its_signature_fails(self):
        path = Path(self.exp["pairs"])
        lines = [json.loads(x) for x in path.read_text().splitlines()]
        k = next(k for k, p in enumerate(lines) if p["perturbation"] == "drop_row")
        lines[k]["perturbation"] = "drop_column"
        path.write_text("".join(json.dumps(p) + "\n" for p in lines))
        failed, reasons, _ = self.check()
        self.assertEqual(failed, 1)
        self.assertIn("signature", reasons[0])


class ContractTest(unittest.TestCase):
    def test_benchmark_json_names_the_reported_metrics(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         run.per_layer_names())


if __name__ == "__main__":
    unittest.main()
