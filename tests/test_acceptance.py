"""Acceptance suite: every criterion at its stated tolerance and scale.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion.
"""

import json
import random
import statistics
import time
from pathlib import Path

import pytest

from conftest import random_grid, split_row_mid_word, split_with_header_copy
from oracles import (
    CONTENT,
    STRUCTURE,
    exhaustive_tree_distance,
    random_tree,
    skeleton,
    slice_rows,
)
from docpost.cli import main as cli_main
from docpost.idtp import (
    ImageDetection,
    PixelBuffer,
    apply_masks,
    plan_masks,
    restore_images,
    verify_restoration,
)
from docpost.layout import (
    LayoutGeometryError,
    LayoutIndexError,
    LayoutSchemaError,
    LayoutSyntaxError,
    parse_layout,
    parse_layout_document,
    parse_recognition_fixture,
    run_pipeline,
)
from docpost.metrics import edit_distance, teds, tree_edit_distance
from docpost.rewards import group_advantages
from docpost.table_grid import parse_grid, serialize_grid
from docpost.table_merge import Pattern, decide_merge, merge

FIXTURES = Path(__file__).parent / "fixtures"


def report(criterion: str, detail: str):
    print(f"PASS {criterion}: {detail}")


# -- 1. TEDS oracle equivalence ------------------------------------------------


def test_criterion_1_tree_distance_oracle_equivalence():
    rng = random.Random(20240901)
    start = time.perf_counter()
    worst = 0.0
    for i in range(1000):
        t1, t2 = random_tree(rng, 8), random_tree(rng, 8)
        model = STRUCTURE if i % 2 == 0 else CONTENT
        brute = exhaustive_tree_distance(t1, t2, model)
        if model == STRUCTURE:  # structure-only: the distance of the skeletons
            t1, t2 = skeleton(t1), skeleton(t2)
        fast = tree_edit_distance(t1, t2)
        worst = max(worst, abs(fast - brute))
        assert abs(fast - brute) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(
        "criterion 1 (tree-distance oracle)",
        f"1000 random pairs, max deviation {worst:.1e}, {elapsed:.2f}s",
    )


# -- 2. Metric identities -------------------------------------------------------


def test_criterion_2_metric_identities():
    rng = random.Random(7)
    for _ in range(200):
        grid = random_grid(rng, rng.randint(1, 6), rng.randint(1, 6),
                           header_rows=rng.randint(0, 1))
        html = serialize_grid(grid)
        assert teds(html, html) == 1.0
        assert teds(html, html, structure_only=True) == 1.0

    alphabet = "abcdxyz 0123"
    for _ in range(5000):
        a, b, c = (
            "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 20)))
            for _ in range(3)
        )
        ab = edit_distance(a, b)
        assert ab == edit_distance(b, a)
        assert (ab == 0) == (a == b)
        assert ab <= edit_distance(a, c) + edit_distance(c, b)
    report(
        "criterion 2 (metric identities)",
        "teds(x,x)=1 on 200 tables; axioms on 5000 string triples",
    )


# -- 3. Merge round-trip suite -----------------------------------------------------


def test_criterion_3_merge_round_trips():
    rng = random.Random(20240902)
    failures = []
    for case in range(500):
        n_rows, n_cols = rng.randint(3, 10), rng.randint(2, 8)
        split = rng.randint(2, n_rows - 1)
        grid = random_grid(
            rng, n_rows, n_cols, header_rows=1, blocked_boundaries={split, split + 1}
        )

        # (a) duplicated header -> pattern 1
        a, b = split_with_header_copy(grid, split, 1)
        plan = decide_merge(a, b)
        if plan.pattern is not Pattern.PATTERN1 or merge(a, b, plan) != grid:
            failures.append((case, "a", plan.pattern))

        # (b) no header copy -> pattern 2
        a2, b2 = slice_rows(grid, 0, split), slice_rows(grid, split, n_rows)
        plan2 = decide_merge(a2, b2)
        if plan2.pattern is not Pattern.PATTERN2 or merge(a2, b2, plan2) != grid:
            failures.append((case, "b", plan2.pattern))

        # (c) boundary cell split mid-word -> pattern 3
        col = rng.randrange(n_cols)
        word = grid.cell_at(split, col).content.split()[0]
        cut = rng.randint(1, len(word) - 1)
        a3, b3 = split_row_mid_word(grid, split, col, cut)
        plan3 = decide_merge(a3, b3)
        if plan3.pattern is not Pattern.PATTERN3 or merge(a3, b3, plan3) != grid:
            failures.append((case, "c", plan3.pattern))

    assert not failures, f"{len(failures)} of 1500 reconstructions failed: {failures[:5]}"
    report(
        "criterion 3 (merge round trips)",
        "500 grids x {header-dup, headerless, row-split} reproduced exactly",
    )


# -- 4. Capability matrix ------------------------------------------------------------


HDR = "<tr><th>Col A</th><th>Col B</th></tr>"
A_RPHDR = f"<table>{HDR}<tr><td>Alpha.</td><td>Beta.</td></tr></table>"
B_RPHDR = f"<table>{HDR}<tr><td>Gamma.</td><td>Delta.</td></tr></table>"
MERGED_RPHDR = (
    f"<table>{HDR}<tr><td>Alpha.</td><td>Beta.</td></tr>"
    "<tr><td>Gamma.</td><td>Delta.</td></tr></table>"
)

B_NOHDR = "<table><tr><td>Gamma.</td><td>Delta.</td></tr></table>"
MERGED_NOHDR = MERGED_RPHDR

A_SPLIT = f"<table>{HDR}<tr><td>Quarterly fig</td><td>Ready.</td></tr></table>"
B_SPLIT = (
    "<table><tr><td>ures pending</td><td></td></tr>"
    "<tr><td>Closing.</td><td>Done.</td></tr></table>"
)
MERGED_SPLIT = (
    f"<table>{HDR}<tr><td>Quarterly figures pending</td><td>Ready.</td></tr>"
    "<tr><td>Closing.</td><td>Done.</td></tr></table>"
)

SCENARIOS = [
    ("RpHdrCont", A_RPHDR, B_RPHDR, "pattern1", MERGED_RPHDR),
    ("NoHdrCont", A_RPHDR, B_NOHDR, "pattern2", MERGED_NOHDR),
    ("SplitCont", A_SPLIT, B_SPLIT, "pattern3", MERGED_SPLIT),
]


def _two_fragment_doc(cross_page: bool, a_html: str, b_html: str):
    table = {"bbox": [10, 10, 190, 150], "index": 0, "label": "table", "rotation": 0}
    if cross_page:
        layout = {
            "pages": [
                {"page_width": 200, "page_height": 300, "elements": [table]},
                {"page_width": 200, "page_height": 300, "elements": [dict(table)]},
            ]
        }
        fixture = [
            {"0": {"content": a_html, "kind": "table"}},
            {"0": {"content": b_html, "kind": "table"}},
        ]
    else:
        second = {"bbox": [210, 10, 390, 150], "index": 1, "label": "table", "rotation": 0}
        layout = {
            "pages": [
                {"page_width": 400, "page_height": 300, "elements": [table, second]}
            ]
        }
        fixture = [
            {
                "0": {"content": a_html, "kind": "table"},
                "1": {"content": b_html, "kind": "table"},
            }
        ]
    pages = parse_layout_document(json.dumps(layout))
    fixtures = parse_recognition_fixture(json.dumps(fixture), len(pages))
    return run_pipeline(pages, fixtures)


@pytest.mark.parametrize("scenario", SCENARIOS, ids=[s[0] for s in SCENARIOS])
@pytest.mark.parametrize("axis", ["cross_page", "cross_column"])
def test_criterion_4_capability_matrix(axis, scenario):
    name, a_html, b_html, expected_pattern, expected_merged = scenario
    result = _two_fragment_doc(axis == "cross_page", a_html, b_html)
    assert len(result.merge_plans) == 1
    assert result.merge_plans[0]["pattern"] == expected_pattern
    assert result.document.count("<table>") == 1
    merged = result.document.strip()
    assert parse_grid(merged) == parse_grid(expected_merged)
    assert merged == expected_merged
    report(f"criterion 4 ({axis} {name})", f"merged via {expected_pattern}")


# -- 5. IDTP round trip ----------------------------------------------------------------


def test_criterion_5_idtp_round_trip():
    rng = random.Random(20240903)
    for case in range(100):
        k = case % 5
        width, height = rng.randint(30, 80), rng.randint(30, 80)
        table_bbox = (0, 0, width, height)
        dets = []
        if k:
            strip = height // k
            for j in range(k):
                y1 = j * strip + 1
                y2 = min(y1 + max(strip // 2, 1), (j + 1) * strip)
                dets.append(ImageDetection((2, y1, max(width // 2, 4), y2), 0.9))
        plan, pmap = plan_masks(table_bbox, dets)
        assert len(plan.masks) == k
        pmap = pmap.with_refs([f"crop{case}_{e.id}.png" for e in pmap.entries])

        # build a table whose first k cells hold placeholder tags
        n_cols = rng.randint(1, 3)
        n_rows = max(1, -(-k // n_cols)) + rng.randint(0, 2)
        cells_needed = n_rows * n_cols
        contents = ["<img>"] * k + [f"cell {i}" for i in range(cells_needed - k)]
        rows_html = "".join(
            "<tr>"
            + "".join(
                f"<td>{contents[r * n_cols + c]}</td>" for c in range(n_cols)
            )
            + "</tr>"
            for r in range(n_rows)
        )
        html = f"<table>{rows_html}</table>"
        result = restore_images(html, pmap)
        assert result.rewrites == k and not result.count_mismatch
        assert verify_restoration(result.html, pmap).is_empty

        buffer = PixelBuffer(width, height, b"\xff" * (width * height * 3))
        masked = apply_masks(buffer, plan)
        expected_area = sum(
            (m.rect[2] - m.rect[0]) * (m.rect[3] - m.rect[1]) for m in plan.masks
        )
        changed = sum(
            1
            for i in range(width * height)
            if masked.data[i * 3 : i * 3 + 3] != buffer.data[i * 3 : i * 3 + 3]
        )
        assert changed == expected_area
        if k == 0:
            assert masked.data == buffer.data
    report(
        "criterion 5 (placeholder round trip)",
        "100 tables, k in 0..4: restore bijective, masks change exact pixel counts",
    )


# -- 6. Group-advantage math ---------------------------------------------------------


def test_criterion_6_group_advantage_math():
    rng = random.Random(20240904)
    checked = 0
    while checked < 1000:
        n = rng.randint(2, 16)
        rewards = [rng.uniform(-5, 5) for _ in range(n)]
        if statistics.pstdev(rewards) == 0:
            continue
        adv = group_advantages(rewards, eps=0.0)
        assert abs(sum(adv) / n) < 1e-9
        assert abs(statistics.pstdev(adv) - 1.0) < 1e-9
        checked += 1

    # exact shift invariance on dyadic rewards (all float ops exact, so the
    # shifted group must produce bit-identical advantages)
    for _ in range(200):
        n = rng.choice([2, 4, 8, 16])
        rewards = [rng.randint(-160, 160) / 16 for _ in range(n)]
        if statistics.pstdev(rewards) == 0:
            continue
        shift = rng.randint(-32, 32) / 4
        assert group_advantages([r + shift for r in rewards], eps=0.0) == group_advantages(
            rewards, eps=0.0
        )
    report(
        "criterion 6 (group advantages)",
        "1000 groups: |mean| < 1e-9, |std-1| < 1e-9; shift invariance exact",
    )


# -- 7. Layout validation ---------------------------------------------------------------


def test_criterion_7_layout_validation():
    violations = [
        ("not json at all", LayoutSyntaxError),
        (json.dumps([{"bbox": [0, 0, 5, 5], "index": 0}]), LayoutSchemaError),
        (
            json.dumps(
                [
                    {"bbox": [0, 0, 5, 5], "index": 0, "label": "text"},
                    {"bbox": [6, 6, 9, 9], "index": 0, "label": "text"},
                ]
            ),
            LayoutIndexError,
        ),
        (
            json.dumps([{"bbox": [5, 5, 5, 9], "index": 0, "label": "text"}]),
            LayoutGeometryError,
        ),
        (
            json.dumps(
                [{"bbox": [0, 0, 5, 5], "index": 0, "label": "text", "rotation": 37}]
            ),
            LayoutGeometryError,
        ),
        (
            json.dumps(
                [
                    {"bbox": [0, 0, 5, 5], "index": 0, "label": "text"},
                    {"bbox": [6, 6, 9, 9], "index": 4, "label": "text"},
                ]
            ),
            LayoutIndexError,
        ),
    ]
    for text, expected in violations:
        with pytest.raises(expected):
            parse_layout(text, 100, 100)

    valid = json.dumps(
        [
            {"bbox": [0, 0, 40, 10], "index": 1, "label": "title", "rotation": 0},
            {"bbox": [0, 20, 40, 60], "index": 0, "label": "table", "rotation": 270},
        ]
    )
    page = parse_layout(valid, 100, 100)
    assert parse_layout(json.dumps(page.to_json_list()), 100, 100) == page
    report(
        "criterion 7 (layout validation)",
        "6 violation fixtures rejected with typed errors; valid page round-trips",
    )


# -- 8. Golden pipeline -------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,extra",
    [
        ("doc_crosspage", []),
        ("doc_images", ["--detections-dir", str(FIXTURES / "doc_images" / "detections")]),
        # recognizer-style markup with placeholders and a padded row, restored
        # and then joined to its continuation on the next page
        (
            "doc_restore_merge",
            ["--detections-dir", str(FIXTURES / "doc_restore_merge" / "detections")],
        ),
    ],
)
def test_criterion_8_golden_pipeline(tmp_path, name, extra):
    out = tmp_path / f"{name}.md"
    code = cli_main(
        [
            "assemble",
            str(FIXTURES / name / "layout.json"),
            str(FIXTURES / name / "recognition.json"),
            "-o",
            str(out),
            *extra,
        ]
    )
    assert code == 0
    golden = (FIXTURES / name / "golden.md").read_bytes()
    assert out.read_bytes() == golden
    reports = FIXTURES / name / "golden.reports.json"
    if reports.exists():
        assert Path(f"{out}.reports.json").read_bytes() == reports.read_bytes()
    report(f"criterion 8 (golden pipeline {name})", "byte-identical to committed golden")
