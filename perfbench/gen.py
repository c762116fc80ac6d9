"""Seeded synthetic inputs for the three workloads.

Everything here is built from ``random.Random(seed)`` and the fixed size
schedules below, so one seed always gives byte-identical files. The
generator keeps its own table model (``Cell`` tuples) and its own canonical
serializer; nothing is computed with docpost, so the expectations it returns
are independent of the program under test.

Table sizes, cell and span counts, image counts, split patterns and
corruption kinds are fixed; the seed varies content, span and image
positions and element order. That keeps the work per round steady across
seeds while every seed still gives different inputs.
"""

from __future__ import annotations

import json
import random
import string
from collections import namedtuple
from pathlib import Path

Cell = namedtuple("Cell", "row col rowspan colspan text header")

CAP_WORDS = (
    "Alpha", "Bravo", "Carbon", "Delta", "Ember", "Falcon", "Garnet", "Harbor",
    "Indigo", "Juniper", "Kestrel", "Lumen", "Meadow", "Nectar", "Orbit",
    "Prism", "Quartz", "Raven", "Summit", "Tundra",
)
LOW_WORDS = (
    "velocity", "margin", "sample", "output", "region", "factor", "budget",
    "signal", "vector", "matrix", "ledger", "season", "harvest", "lattice",
)
HEAD_WORDS = (
    "Region", "Quarter", "Revenue", "Units", "Share", "Growth", "Cost",
    "Score", "Count", "Median", "Target", "Status",
)

FILL = (200, 200, 200)
ROW_H = 14
PAGE_W, PAGE_H = 600, 900


# -- tables ------------------------------------------------------------------------


def body_text(rng: random.Random) -> str:
    """Body cell text: a capitalized word plus a lowercase word, or a number."""
    if rng.random() < 0.3:
        return f"{rng.randint(1, 999)}.{rng.randint(0, 99):02d}"
    return f"{rng.choice(CAP_WORDS)} {rng.choice(LOW_WORDS)}"


def span_count(n_rows: int, n_cols: int) -> int:
    """Spans per table: about one per twelve positions, fixed by the size
    alone so that every seed gives the same number of cells."""
    return max(1, n_rows * n_cols // 12)


def tile(rng, n_rows, n_cols, header_rows=1, n_spans=0, blocked=(), text=body_text, tag=""):
    """Random tiling of an ``n_rows x n_cols`` table with exactly ``n_spans``
    two-position spans (colspan 2 or rowspan 2), so the cell count is
    ``n_rows * n_cols - n_spans`` whatever the seed.

    No rowspan crosses a row boundary listed in ``blocked`` (boundary ``b``
    lies between rows ``b-1`` and ``b``) or the header band's lower edge.
    """
    blocked = set(blocked) | {header_rows}
    shapes = [
        (r, c, rs, cs)
        for r in range(n_rows)
        for c in range(n_cols)
        for rs, cs in ((1, 2), (2, 1))
        if r + rs <= n_rows and c + cs <= n_cols and not (rs == 2 and r + 1 in blocked)
    ]
    rng.shuffle(shapes)
    taken = set()
    spans = {}
    for r, c, rs, cs in shapes:
        if len(spans) == n_spans:
            break
        cover = {(r + i, c + j) for i in range(rs) for j in range(cs)}
        if not cover & taken:
            taken |= cover
            spans[(r, c)] = (rs, cs)
    if len(spans) != n_spans:
        raise ValueError(f"cannot place {n_spans} spans in {n_rows}x{n_cols}")
    cells = []
    for r in range(n_rows):
        for c in range(n_cols):
            if (r, c) in taken and (r, c) not in spans:
                continue
            rs, cs = spans.get((r, c), (1, 1))
            header = r < header_rows
            if header:
                content = f"{rng.choice(HEAD_WORDS)} {tag}{c}"
            else:
                content = text(rng)
            cells.append(Cell(r, c, rs, cs, content, header))
    return cells


def table_html(n_rows: int, cells) -> str:
    """Canonical serialization: cells at their anchors, spans only when > 1."""
    by_row = {}
    for cell in cells:
        by_row.setdefault(cell.row, []).append(cell)
    parts = ["<table>"]
    for r in range(n_rows):
        parts.append("<tr>")
        for cell in sorted(by_row.get(r, ()), key=lambda x: x.col):
            tag = "th" if cell.header else "td"
            attrs = ""
            if cell.rowspan > 1:
                attrs += f' rowspan="{cell.rowspan}"'
            if cell.colspan > 1:
                attrs += f' colspan="{cell.colspan}"'
            parts.append(f"<{tag}{attrs}>{cell.text}</{tag}>")
        parts.append("</tr>")
    parts.append("</table>")
    return "".join(parts)


def rows_slice(cells, start: int, stop: int):
    """Cells anchored in rows [start, stop), shifted to start at row 0.

    Callers only cut where no rowspan crosses, so every cell fits.
    """
    return [c._replace(row=c.row - start) for c in cells if start <= c.row < stop]


# -- doc_assemble -------------------------------------------------------------------

# One round: (page column counts, [(n_cols, header_rows, [body rows per fragment])])
# per document. The last document holds one long table across every slot.
DOC_SCHEDULE = (
    ((2, 1), ((4, 1, (7, 6)), (5, 2, (8,)))),
    ((1, 2, 1), ((5, 1, (9, 8)), (3, 1, (6, 7)))),
    ((2, 2), ((4, 2, (6, 7, 8)), (6, 1, (5,)))),
    ((1, 1, 2), ((3, 1, (10, 9)), (5, 1, (7, 7)))),
    ((2, 2, 2, 2, 2, 1), ((4, 1, (12,) * 11),)),
)
PATTERNS = ("pattern1", "pattern2", "pattern3")


class _Table:
    """A full table plus how it is split into fragments."""

    def __init__(self, rng, tid, n_cols, header_rows, frag_body, pattern_offset):
        self.tid = tid
        self.n_cols = n_cols
        self.h = header_rows
        n_frag = len(frag_body)
        self.patterns = [PATTERNS[(pattern_offset + k) % 3] for k in range(n_frag - 1)]
        # body row ranges [s, e) per fragment, in full-table row numbers;
        # a pattern-3 boundary shares its split row between both fragments
        ranges = []
        s = header_rows
        for k, nb in enumerate(frag_body):
            e = s + nb
            ranges.append((s, e))
            if k < n_frag - 1:
                s = e - 1 if self.patterns[k] == "pattern3" else e
        self.ranges = ranges
        self.n_rows = ranges[-1][1]
        blocked = set()
        self.split_rows = {}
        for k, pat in enumerate(self.patterns):
            e = ranges[k][1]
            if pat == "pattern3":
                blocked |= {e - 1, e}
            else:
                blocked.add(e)
        self.cells = tile(rng, self.n_rows, n_cols, header_rows, span_count(self.n_rows, n_cols),
                          blocked, tag=f"T{tid}.")
        # split victims: a text cell in the shared row, cut inside its lowercase word
        for k, pat in enumerate(self.patterns):
            if pat != "pattern3":
                continue
            row = ranges[k][1] - 1
            choices = [
                i for i, c in enumerate(self.cells)
                if c.row == row and " " in c.text and not c.text[0].isdigit()
            ]
            if not choices:
                i = next(i for i, c in enumerate(self.cells) if c.row == row)
                self.cells[i] = self.cells[i]._replace(
                    text=f"{rng.choice(CAP_WORDS)} {rng.choice(LOW_WORDS)}"
                )
                choices = [i]
            i = rng.choice(choices)
            text = self.cells[i].text
            cut = text.index(" ") + 1 + rng.randint(1, len(text) - text.index(" ") - 2)
            self.split_rows[k] = (i, cut)
        # images: in the first fragment only, two plus one per eight body
        # rows, in body cells outside split rows. The count is fixed, and so
        # is the number of mask steps. Each mask step reads a whole page
        # image, and that time drifts with the machine's memory and disk
        # load more than with its CPU speed, so it is kept to a minority share.
        shared = {e - 1 for e in (self.ranges[k][1] for k in self.split_rows)}
        s, e = ranges[0]
        eligible = [i for i, c in enumerate(self.cells) if s <= c.row < e and c.row not in shared]
        self.images = set(rng.sample(eligible, 2 + (e - s) // 8))
        self.image_ref = {}  # cell index -> final ref, set when placed

    def fragment(self, k):
        """Fragment k as (cells, n_rows, origin): ``origin`` maps each body
        position of the fragment to the index of its cell in the full table."""
        s, e = self.ranges[k]
        lead = []
        if k == 0 or self.patterns[k - 1] == "pattern1":
            lead = rows_slice(self.cells, 0, self.h)
        n_lead = len({c.row for c in lead})
        cells = lead + [c._replace(row=c.row - s + n_lead) for c in self.cells if s <= c.row < e]
        origin = {
            (c.row - s + n_lead, c.col): i for i, c in enumerate(self.cells) if s <= c.row < e
        }
        n_rows = n_lead + e - s
        if k > 0 and self.patterns[k - 1] == "pattern3":
            victim, cut = self.split_rows[k - 1]
            vc = self.cells[victim]
            cells = [
                c._replace(text=vc.text[cut:] if c.col == vc.col else "") if c.row == 0 else c
                for c in cells
            ]
        if k < len(self.ranges) - 1 and self.patterns[k] == "pattern3":
            victim, cut = self.split_rows[k]
            vc = self.cells[victim]
            cells = [
                c._replace(text=vc.text[:cut]) if (c.row, c.col) == (n_rows - 1, vc.col) else c
                for c in cells
            ]
        return cells, n_rows, origin

    def images_in(self, origin):
        """Image cell indices of a fragment, in row-major order."""
        return sorted(
            (i for i in origin.values() if i in self.images),
            key=lambda i: (self.cells[i].row, self.cells[i].col),
        )

    def final_html(self):
        cells = [
            c._replace(text=f'<img src="{self.image_ref[i]}">') if i in self.image_ref else c
            for i, c in enumerate(self.cells)
        ]
        return table_html(self.n_rows, cells)


def _filler(rng, label, doc, n):
    if label == "title":
        return f"Quarterly Report {doc} Section {n}"
    if label == "formula":
        return f"x_{{{n}}} = {rng.randint(2, 99)} + {rng.randint(2, 9)} y^{rng.randint(2, 4)}"
    if label == "table_caption":
        return f"Table {n}: {rng.choice(CAP_WORDS)} {rng.choice(LOW_WORDS)}"
    words = [rng.choice(CAP_WORDS)] + [rng.choice(LOW_WORDS) for _ in range(rng.randint(6, 14))]
    return " ".join(words) + "."


_HEIGHT = {"title": 22, "text": 36, "formula": 26, "table_caption": 14}
_KIND = {"title": "text", "text": "text", "formula": "formula", "table_caption": "text",
         "header": "text", "footer": "text", "table": "table"}


def build_document(rng, doc_no, page_cols, table_specs):
    """Lay a document out over page columns ("slots") in reading order.

    A table that continues ends its slot and its next fragment opens the
    following slot: across columns of one page, or from one page to the
    next. Consecutive tables differ in width, so a fold that compares two
    unrelated tables must answer no-merge.
    """
    slots = [(p, c) for p, n in enumerate(page_cols) for c in range(n)]
    items = [[] for _ in slots]  # per slot: ("label", content) or ("frag", table, k)
    tables = []
    s = 0
    items[0].append(("title", _filler(rng, "title", doc_no, 1)))
    for t, (n_cols, h, frag_body) in enumerate(table_specs):
        table = _Table(rng, f"{doc_no}{t}", n_cols, h, frag_body, doc_no + t)
        tables.append(table)
        if t > 0:
            s += 1
        items[s].append(("text", _filler(rng, "text", doc_no, 0)))
        items[s].append(("table_caption", _filler(rng, "table_caption", doc_no, t + 1)))
        for k in range(len(frag_body)):
            if k > 0:
                s += 1
            items[s].append(("frag", table, k))
        items[s].append((rng.choice(("text", "formula")), None))
    for slot_items in items:
        if not slot_items:
            slot_items.append(("text", None))
    # resolve filler content now that the order is fixed
    for slot_items in items:
        for j, it in enumerate(slot_items):
            if it[0] != "frag" and it[1] is None:
                slot_items[j] = (it[0], _filler(rng, it[0], doc_no, j))

    pages = [{"elements": []} for _ in page_cols]
    for (p, c), slot_items in zip(slots, items):
        n = page_cols[p]
        width = (PAGE_W - 80 - 20 * (n - 1)) // n
        x1 = 40 + c * (width + 20)
        y = 40
        for it in slot_items:
            if it[0] == "frag":
                _, table, k = it
                cells, n_rows, origin = table.fragment(k)
                height = n_rows * ROW_H
                el = {"label": "table", "bbox": [x1, y, x1 + width, y + height],
                      "frag": (table, k, cells, n_rows, origin)}
            else:
                label, content = it
                height = _HEIGHT[label]
                el = {"label": label, "bbox": [x1, y, x1 + width, y + height], "content": content}
            y += height + 6
            if y > PAGE_H - 40:
                raise AssertionError("generator overflowed a page column")
            pages[p]["elements"].append(el)

    # reading order: header, slot items, footer
    for p, page in enumerate(pages):
        page["elements"] = (
            [{"label": "header", "bbox": [40, 8, PAGE_W - 40, 28],
              "content": f"Report {doc_no} draft"}]
            + page["elements"]
            + [{"label": "footer", "bbox": [40, PAGE_H - 28, PAGE_W - 40, PAGE_H - 8],
                "content": f"Page {p + 1}"}]
        )
        for i, el in enumerate(page["elements"]):
            el["index"] = i
            if "frag" in el:
                table, origin = el["frag"][0], el["frag"][4]
                for rank, ci in enumerate(table.images_in(origin)):
                    table.image_ref[ci] = f"page{p}_el{i}_img{rank}.png"
    return pages, tables


def _cell_rect(bbox, n_cols, cell):
    x1, y1, x2, _ = bbox
    cw = (x2 - x1) // n_cols
    return (x1 + cell.col * cw, y1 + cell.row * ROW_H,
            x1 + (cell.col + cell.colspan) * cw, y1 + (cell.row + cell.rowspan) * ROW_H)


def _image_rect(rect):
    """Detection box inside a cell rectangle: top-left aligned, so ids
    follow the cells' row-major order under the (y1, x1) sort."""
    x1, y1, x2, _ = rect
    return (x1 + 2, y1 + 2, x1 + 2 + min(12, x2 - x1 - 4), y1 + 12)


_PLACEHOLDER_FORMS = ('<img src="placeholder://{k}">', "<img>", '<img src="">')


def _fragment_element(rng, el):
    """Recognized HTML of a table fragment, its detections and mask rects."""
    table, _, cells, n_rows, origin = el["frag"]
    rank = {ci: k for k, ci in enumerate(table.images_in(origin))}
    out_cells = []
    rects = []
    for c in cells:
        ci = origin.get((c.row, c.col))
        if ci in rank:
            c = c._replace(text=rng.choice(_PLACEHOLDER_FORMS).format(k=rank[ci]))
            rects.append((rank[ci], _image_rect(_cell_rect(el["bbox"], table.n_cols, c))))
        out_cells.append(c)
    rects = [r for _, r in sorted(rects)]
    dets = [{"bbox": list(r), "confidence": round(rng.uniform(0.6, 0.99), 3)} for r in rects]
    if rects:
        # decoys the planner must drop: one below min_confidence, one whose
        # centre lies outside the table
        x1, y1, x2, _ = el["bbox"]
        dets.append({"bbox": [x1 + 3, y1 + 3, x1 + 9, y1 + 9], "confidence": 0.1})
        dets.append({"bbox": [x2 - 2, y1, x2 + 20, y1 + 8], "confidence": 0.9})
        rng.shuffle(dets)
    return table_html(n_rows, out_cells), dets, rects


def write_doc_assemble(root: Path, seed: int):
    """Write the doc_assemble inputs; returns (plan items, expectations)."""
    rng = random.Random(seed)
    items = []
    expect = []
    for d, (page_cols, table_specs) in enumerate(DOC_SCHEDULE):
        ddir = root / f"doc{d}"
        det_dir = ddir / "detections"
        mask_dir = ddir / "mask"
        det_dir.mkdir(parents=True)
        mask_dir.mkdir()
        pages, tables = build_document(rng, d, page_cols, table_specs)
        layout_pages = []
        fixture = []
        masks = []
        for p, page in enumerate(pages):
            elements = []
            rec = {}
            for el in page["elements"]:
                elements.append({"bbox": el["bbox"], "index": el["index"], "label": el["label"],
                                 "rotation": 0})
                if "frag" not in el:
                    rec[str(el["index"])] = {"content": el["content"], "kind": _KIND[el["label"]]}
                    continue
                html, dets, rects = _fragment_element(rng, el)
                rec[str(el["index"])] = {"content": html, "kind": "table"}
                if rects:
                    (det_dir / f"page{p}_el{el['index']}.json").write_text(json.dumps(dets))
                    masks.append((p, el["index"], tuple(el["bbox"]), rects))
            rng.shuffle(elements)
            layout_pages.append({"page_width": PAGE_W, "page_height": PAGE_H, "elements": elements})
            fixture.append(rec)
        (ddir / "layout.json").write_text(json.dumps({"pages": layout_pages}))
        (ddir / "recognition.json").write_text(json.dumps(fixture))
        for p in sorted({m[0] for m in masks}):
            (ddir / f"page{p}.ppm").write_bytes(
                b"P6\n%d %d\n255\n" % (PAGE_W, PAGE_H) + rng.randbytes(PAGE_W * PAGE_H * 3)
            )
        steps = []
        for p, index, bbox, rects in masks:
            prefix = mask_dir / f"p{p}_el{index}"
            steps.append({
                "argv": ["mask", str(ddir / f"page{p}.ppm"), str(det_dir / f"page{p}_el{index}.json"),
                         "--table-bbox", ",".join(map(str, bbox)), "--out-prefix", str(prefix)],
                "stdout": f"{prefix}.stdout.json",
                "outputs": [f"{prefix}.stdout.json", f"{prefix}.masked.ppm", f"{prefix}.map.json"]
                + [f"{prefix}_img{k}.ppm" for k in range(len(rects))],
            })
        out = ddir / "doc.md"
        steps.append({
            "argv": ["assemble", str(ddir / "layout.json"), str(ddir / "recognition.json"),
                     "-o", str(out), "--detections-dir", str(det_dir)],
            "outputs": [str(out), f"{out}.reports.json"],
        })
        items.append({"units": len(pages), "steps": steps})
        expect.append(_doc_expectation(ddir, pages, tables, masks))
    return items, expect


def _doc_expectation(ddir, pages, tables, masks):
    """Expected Markdown blocks per page, merge plans and mask geometry."""
    page_blocks = []
    table_seen = set()
    for page in pages:
        blocks = []
        for el in page["elements"]:
            label = el["label"]
            if label in ("header", "footer"):
                continue
            if "frag" in el:
                table, k = el["frag"][0], el["frag"][1]
                if table.tid in table_seen:
                    continue
                table_seen.add(table.tid)
                blocks.append(table.final_html())
            elif label == "title":
                blocks.append(f"# {el['content']}")
            elif label == "formula":
                blocks.append(f"$$\n{el['content']}\n$$")
            elif label == "table_caption":
                blocks.append(f"*{el['content']}*")
            else:
                blocks.append(el["content"])
        page_blocks.append(blocks)
    # merge candidates as documented: same page with only captions between,
    # or the last table of a page and the first table of the next
    stream = []
    for p, page in enumerate(pages):
        for el in page["elements"]:
            if "frag" in el:
                stream.append((p, el))
    plans = []
    for (pp, a), (np_, b) in zip(stream, stream[1:]):
        if pp == np_:
            between = [e for e in pages[pp]["elements"] if a["index"] < e["index"] < b["index"]]
            chained = all(e["label"] == "table_caption" for e in between)
        else:
            chained = np_ == pp + 1
        if not chained:
            continue
        ta, ka = a["frag"][0], a["frag"][1]
        tb, kb = b["frag"][0], b["frag"][1]
        pattern = ta.patterns[ka] if ta is tb and kb == ka + 1 else "no_merge"
        plans.append({"next": [np_, b["index"]], "pattern": pattern})
    images = {}
    for table in tables:
        images.update({ref: table.tid for ref in table.image_ref.values()})
    return {
        "dir": str(ddir),
        "page_blocks": page_blocks,
        "plans": plans,
        "images": sorted(images),
        "masks": [(p, i, list(b), [list(r) for r in rects]) for p, i, b, rects in masks],
    }


# -- table_eval ------------------------------------------------------------------------

# Per shard: table sizes (skewed small, one large tail table) and text and
# reading-order lengths. Every shard of every round has this make-up.
EVAL_TABLE_SIZES = ((2, 3), (3, 2), (3, 3), (2, 4), (3, 4), (4, 3), (4, 4), (5, 4), (6, 4),
                    (8, 5), (12, 6))
EVAL_TEXT_LENGTHS = (16, 32, 48, 64, 96, 128, 192, 256)
EVAL_ORDER_LENGTHS = (8, 16, 32, 64)
EVAL_SHARDS = 4
EVAL_CORRUPTIONS = ("identity", "text", "span", "drop_row", "dup_row")
TEXT_ALPHABET = "abcdefghijklmnopqrstuvwxyz ABCDEFGHIJ0123456789.,;éßø"

# The known TEDS range fault: a 3x1 table against a 1x4 table scores below 0.
# Fixed content, independent of the seed, present in shard 0 of every round.
RANGE_FAULT_PRED = (3, 1, [Cell(r, 0, 1, 1, "ABC"[r], False) for r in range(3)])
RANGE_FAULT_GT = (1, 4, [Cell(0, c, 1, 1, "WXYZ"[c], False) for c in range(4)])


def _eval_text(rng):
    """Two five-letter words: a fixed length, so the rename cost of
    content-aware TEDS does not depend on the seed."""
    return " ".join("".join(rng.choices(string.ascii_lowercase, k=5)) for _ in range(2))


def corrupt_table(rng, n_rows, n_cols, kind):
    """(gt table, pred table) as (n_rows, n_cols, cells) for one corruption kind."""
    victim = rng.randrange(n_rows)
    blocked = {victim, victim + 1} if kind in ("drop_row", "dup_row") else ()
    header_rows = 1 if n_rows > 2 else 0
    if kind in ("drop_row", "dup_row") and victim < header_rows:
        header_rows = 0
    cells = tile(rng, n_rows, n_cols, header_rows, span_count(n_rows, n_cols), blocked, _eval_text)
    gt = (n_rows, n_cols, cells)
    if kind == "identity":
        return gt, gt
    if kind == "text":
        pred = list(cells)
        for i in rng.sample(range(len(cells)), 2):
            t = pred[i].text
            pos = rng.randrange(len(t) + 1)
            pred[i] = pred[i]._replace(text=t[:pos] + rng.choice("qxzk") + t[pos:])
        return gt, (n_rows, n_cols, pred)
    if kind == "span":
        # one 1x1 cell swallows its 1x1 neighbour to the right or below
        at = {(c.row, c.col): i for i, c in enumerate(cells)}
        merges = [
            (i, j, down)
            for i, a in enumerate(cells) if a.rowspan == a.colspan == 1
            for down in (0, 1)
            for j in [at.get((a.row + down, a.col + 1 - down))]
            if j is not None and cells[j].rowspan == cells[j].colspan == 1
            and cells[j].header == a.header
        ]
        i, j, down = rng.choice(merges)
        merged = cells[i]._replace(rowspan=1 + down, colspan=2 - down)
        pred = [merged if k == i else c for k, c in enumerate(cells) if k != j]
        return gt, (n_rows, n_cols, pred)
    if kind == "drop_row":
        pred = [c._replace(row=c.row - (c.row > victim)) for c in cells if c.row != victim]
        return gt, (n_rows - 1, n_cols, pred)
    if kind == "dup_row":
        pred = [c._replace(row=c.row + (c.row > victim)) for c in cells]
        pred += [c._replace(row=victim + 1) for c in cells if c.row == victim]
        return gt, (n_rows + 1, n_cols, pred)
    raise ValueError(kind)


def _edit_string(rng, s):
    out = list(s)
    for _ in range(max(1, len(s) // 10)):
        op = rng.randrange(3)
        pos = rng.randrange(len(out) + (op == 1))
        if op == 0 and out:
            out[pos % len(out)] = rng.choice(TEXT_ALPHABET)
        elif op == 1:
            out.insert(pos, rng.choice(TEXT_ALPHABET))
        elif out:
            del out[pos % len(out)]
    return "".join(out)


def write_table_eval(root: Path, seed: int):
    """Write one batch file per shard; returns (plan items, expectations)."""
    rng = random.Random(seed)
    items = []
    expect = []
    for shard in range(EVAL_SHARDS):
        entries = []
        meta = []
        for k, (r, c) in enumerate(EVAL_TABLE_SIZES):
            kind = EVAL_CORRUPTIONS[(shard + k) % len(EVAL_CORRUPTIONS)]
            gt, pred = corrupt_table(rng, r, c, kind)
            entries.append({"pred": table_html(pred[0], pred[2]), "gt": table_html(gt[0], gt[2]),
                            "kind": "table"})
            meta.append({"kind": "table", "corruption": kind, "pred": pred, "gt": gt})
        if shard == 0:
            entries.append({"pred": table_html(3, RANGE_FAULT_PRED[2]),
                            "gt": table_html(1, RANGE_FAULT_GT[2]), "kind": "table"})
            meta.append({"kind": "table", "corruption": "range_fault",
                         "pred": RANGE_FAULT_PRED, "gt": RANGE_FAULT_GT})
        for n in EVAL_TEXT_LENGTHS:
            gt = "".join(rng.choice(TEXT_ALPHABET) for _ in range(n))
            entries.append({"pred": _edit_string(rng, gt), "gt": gt, "kind": "text"})
            meta.append({"kind": "text"})
        for n in EVAL_ORDER_LENGTHS:
            gt = list(range(n))
            pred = list(gt)
            for _ in range(max(1, n // 8)):
                i, j = rng.randrange(n), rng.randrange(n)
                pred.insert(j, pred.pop(i))
            if rng.random() < 0.5:
                pred, gt = " ".join(map(str, pred)), " ".join(map(str, gt))
            entries.append({"pred": pred, "gt": gt, "kind": "order"})
            meta.append({"kind": "order"})
        order = list(range(len(entries)))
        rng.shuffle(order)
        entries = [entries[i] for i in order]
        meta = [meta[i] for i in order]
        batch = root / f"shard{shard}.json"
        batch.write_text(json.dumps(entries))
        rows = root / f"shard{shard}.rows.json"
        items.append({
            "units": len(entries),
            "steps": [{"argv": ["eval", str(batch), "--json-out", str(rows)], "outputs": [str(rows)]}],
        })
        expect.append({"entries": entries, "meta": meta, "rows": str(rows)})
    return items, expect


# -- rl_reward ----------------------------------------------------------------------------

RL_TABLE_SIZES = ((4, 3), (5, 4), (6, 4), (6, 5), (8, 5), (9, 6), (10, 6), (12, 7))
RL_SEEDS = 3


def write_rl_reward(root: Path, seed: int):
    """One ground-truth table per item: pairs over all kinds, then reward."""
    rng = random.Random(seed)
    items = []
    expect = []
    sizes = list(RL_TABLE_SIZES)
    rng.shuffle(sizes)
    for t, (r, c) in enumerate(sizes):
        cells = tile(rng, r, c, 1, span_count(r, c), (), tag=f"G{t}.")
        # images in one body cell of ten, so the placeholder rule has work
        for i in rng.sample([i for i, cell in enumerate(cells) if not cell.header], r * c // 10):
            cells[i] = cells[i]._replace(text=f'<img src="fig{rng.randrange(100)}.png">')
        html = table_html(r, cells)
        tdir = root / f"gt{t}"
        tdir.mkdir()
        gt_path = tdir / "gt.html"
        gt_path.write_text(html)
        pairs = tdir / "pairs.jsonl"
        cands = tdir / "candidates.json"
        reward_out = tdir / "reward.json"
        items.append({
            "units": None,  # one per candidate, known once pairs has run
            "steps": [
                {"argv": ["pairs", str(gt_path), "--seeds", str(RL_SEEDS), "--out", str(pairs)],
                 "outputs": [str(pairs)]},
                {"candidates": {"pairs": str(pairs), "gt": str(gt_path), "out": str(cands)}},
                {"argv": ["reward", str(cands), str(gt_path)], "stdout": str(reward_out),
                 "outputs": [str(reward_out)]},
            ],
        })
        expect.append({"gt": (r, c, cells), "html": html, "pairs": str(pairs),
                       "reward": str(reward_out), "candidates": str(cands)})
    return items, expect


WRITERS = {
    "doc_assemble": write_doc_assemble,
    "table_eval": write_table_eval,
    "rl_reward": write_rl_reward,
}
