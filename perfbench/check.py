"""Output checks computed apart from the program.

Nothing here imports docpost. Distances are recomputed with textbook
algorithms (full-matrix Levenshtein, the plain forest recursion for tree
edit distance), tables are read back with a small parser for the canonical
HTML form, and pixel buffers with a minimal PPM reader.

Each ``check_*`` function returns ``(failed_units, reasons, known)`` for one
item, where a unit is a page, an eval pair or a reward candidate, and
``known`` counts the failed units that are the known TEDS range fault.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from pathlib import Path

from gen import FILL

# -- strings ---------------------------------------------------------------------


def levenshtein(a, b) -> int:
    """Textbook dynamic program over the complete (m+1) x (n+1) matrix."""
    m, n = len(a), len(b)
    d = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        d[i][0] = i
    for j in range(n + 1):
        d[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1,
                          d[i - 1][j - 1] + (a[i - 1] != b[j - 1]))
    return d[m][n]


def normalize(s: str) -> str:
    return re.sub(r"\s+", " ", s.strip()).casefold()


# -- canonical table HTML -----------------------------------------------------------

_ROW_RE = re.compile(r"<tr>(.*?)</tr>", re.S)
_CELL_RE = re.compile(r'<(td|th)(?: rowspan="(\d+)")?(?: colspan="(\d+)")?>(.*?)</\1>', re.S)


class NotCanonical(ValueError):
    pass


def parse_canonical(html: str):
    """(n_rows, n_cols, cells, rectangular) from canonical table HTML.

    ``cells`` are (row, col, rowspan, colspan, text, header) tuples placed by
    the HTML table algorithm; ``rectangular`` is false when a position had to
    be padded or a rowspan ran past the last row.
    """
    if not (html.startswith("<table>") and html.endswith("</table>")):
        raise NotCanonical("not a <table>...</table> string")
    body = html[len("<table>"):-len("</table>")]
    rows = _ROW_RE.findall(body)
    if "".join(f"<tr>{r}</tr>" for r in rows) != body:
        raise NotCanonical("unexpected markup between rows")
    n_rows = len(rows)
    occ = [set() for _ in range(n_rows)]
    cells = []
    rectangular = True
    for r, row in enumerate(rows):
        found = _CELL_RE.findall(row)
        rebuilt = "".join(
            f"<{t}{f' rowspan={chr(34)}{rs}{chr(34)}' if rs else ''}"
            f"{f' colspan={chr(34)}{cs}{chr(34)}' if cs else ''}>{x}</{t}>"
            for t, rs, cs, x in found
        )
        if rebuilt != row:
            raise NotCanonical(f"row {r} is not a sequence of cells")
        col = 0
        for tag, rs, cs, text in found:
            rs, cs = int(rs or 1), int(cs or 1)
            while col in occ[r]:
                col += 1
            if r + rs > n_rows:
                rectangular = False
                rs = n_rows - r
            for rr in range(r, r + rs):
                for cc in range(col, col + cs):
                    occ[rr].add(cc)
            cells.append((r, col, rs, cs, text, tag == "th"))
            col += cs
    n_cols = max((max(o) + 1 for o in occ if o), default=0)
    if any(o != set(range(n_cols)) for o in occ):
        rectangular = False
    return n_rows, n_cols, cells, rectangular


# -- exact tree edit distance ---------------------------------------------------------


def table_tree(n_rows, cells):
    """table -> tr* -> (td|th)* with spans folded into the label; a node is
    (label, normalized content, children)."""
    rows = []
    for r in range(n_rows):
        anchored = sorted((c for c in cells if c[0] == r), key=lambda c: c[1])
        rows.append(("tr", "", tuple(
            (f"{'th' if c[5] else 'td'}[{c[2]},{c[3]}]", normalize(c[4]), ()) for c in anchored
        )))
    return ("table", "", tuple(rows))


def tree_size(node) -> int:
    return 1 + sum(tree_size(c) for c in node[2])


def exact_tree_distance(t1, t2, content: bool) -> float:
    """Ordered tree edit distance by the plain forest recursion on rightmost
    roots, memoized on the forests themselves (no keyroots, no leftmost-leaf
    tables). Unit insert and delete; rename costs 1 across labels and, with
    ``content``, the normalized Levenshtein distance within a label."""
    memo = {}

    def forest_size(f):
        return sum(tree_size(t) for t in f)

    def rename(v, w):
        if v[0] != w[0]:
            return 1.0
        if not content:
            return 0.0
        return levenshtein(v[1], w[1]) / max(len(v[1]), len(w[1]), 1)

    def fd(f, g):
        if not f:
            return float(forest_size(g))
        if not g:
            return float(forest_size(f))
        key = (f, g)
        if key in memo:
            return memo[key]
        v, w = f[-1], g[-1]
        best = min(
            fd(f[:-1] + v[2], g) + 1.0,
            fd(f, g[:-1] + w[2]) + 1.0,
            fd(f[:-1], g[:-1]) + fd(v[2], w[2]) + rename(v, w),
        )
        memo[key] = best
        return best

    return fd((t1,), (t2,))


def exact_teds(pred, gt, content: bool) -> float:
    """TEDS from the exact distance; ``pred``/``gt`` are (n_rows, n_cols, cells)."""
    t1 = table_tree(pred[0], [tuple(c) for c in pred[2]])
    t2 = table_tree(gt[0], [tuple(c) for c in gt[2]])
    return 1.0 - exact_tree_distance(t1, t2, content) / max(tree_size(t1), tree_size(t2), 1)


# -- PPM ----------------------------------------------------------------------------------


def read_ppm(data: bytes):
    """(width, height, pixels) of a binary PPM written without comments."""
    magic, dims, maxval, pixels = data.split(b"\n", 3)
    width, height = map(int, dims.split())
    if magic != b"P6" or maxval != b"255" or len(pixels) != width * height * 3:
        raise ValueError("not a plain P6 PPM")
    return width, height, pixels


def crop(width, pixels, rect):
    x1, y1, x2, y2 = rect
    return b"".join(pixels[(y * width + x1) * 3:(y * width + x2) * 3] for y in range(y1, y2))


# -- doc_assemble ------------------------------------------------------------------------------


def check_document(exp):
    """Blocks in reading order per page, merge plans, restore counts, image
    refs and the masked crops of one document."""
    ddir = Path(exp["dir"])
    failed = set()
    reasons = []

    def fail(page, why):
        failed.add(page)
        reasons.append(f"doc {ddir.name} page {page}: {why}")

    n_pages = len(exp["page_blocks"])
    try:
        doc = (ddir / "doc.md").read_text(encoding="utf-8")
        reports = json.loads((ddir / "doc.md.reports.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        for p in range(n_pages):
            fail(p, f"output unreadable ({exc})")
        return len(failed), reasons, 0
    blocks = doc[:-1].split("\n\n") if doc.endswith("\n") else doc.split("\n\n") + [None]
    offset = 0
    for p, expected in enumerate(exp["page_blocks"]):
        got = blocks[offset:offset + len(expected)]
        if got != expected:
            fail(p, "blocks differ from the expected reading order")
        offset += len(expected)
    if len(blocks) != offset:
        fail(n_pages - 1, f"{len(blocks)} blocks, expected {offset}")

    got_plans = [(tuple(pl.get("next", ())), pl.get("pattern")) for pl in reports.get("merge_plans", [])]
    want_plans = [(tuple(pl["next"]), pl["pattern"]) for pl in exp["plans"]]
    for want in want_plans:
        if want not in got_plans:
            fail(want[0][0], f"merge plan {want} missing")
    for got in got_plans:
        if got not in want_plans:
            fail(got[0][0] if got[0] else 0, f"unexpected merge plan {got}")

    restores = {(r["page"], r["index"]): r for r in reports.get("restore_reports", [])}
    for p, index, _, rects in exp["masks"]:
        rep = restores.get((p, index))
        if rep is None or (rep["found"], rep["expected"], rep["count_mismatch"]) != (
            len(rects), len(rects), False
        ):
            fail(p, f"restore report for element {index} is {rep}")
    for ref in exp["images"]:
        if doc.count(f'src="{ref}"') != 1:
            fail(int(ref[4:ref.index("_")]), f"image {ref} appears {doc.count(ref)} times")

    pages = {}
    for p, index, bbox, rects in exp["masks"]:
        prefix = ddir / "mask" / f"p{p}_el{index}"
        try:
            if p not in pages:
                pages[p] = read_ppm((ddir / f"page{p}.ppm").read_bytes())
            width, _, pixels = pages[p]
            if json.loads(Path(f"{prefix}.stdout.json").read_text())["masks"] != len(rects):
                fail(p, f"mask of element {index} reports a wrong mask count")
            pmap = json.loads(Path(f"{prefix}.map.json").read_text())
            want = [{"id": k, "bbox": list(r), "image_ref": f"{prefix}_img{k}.ppm"}
                    for k, r in enumerate(rects)]
            if pmap.get("table_bbox") != list(bbox) or pmap.get("entries") != want:
                fail(p, f"placeholder map of element {index} differs")
            mw, mh, masked = read_ppm(Path(f"{prefix}.masked.ppm").read_bytes())
            expected = bytearray(crop(width, pixels, bbox))
            tw = bbox[2] - bbox[0]
            for x1, y1, x2, y2 in rects:
                lx1, ly1, lx2, ly2 = x1 - bbox[0], y1 - bbox[1], x2 - bbox[0], y2 - bbox[1]
                for y in range(ly1, ly2):
                    expected[(y * tw + lx1) * 3:(y * tw + lx2) * 3] = bytes(FILL) * (lx2 - lx1)
            if (mw, mh) != (tw, bbox[3] - bbox[1]) or masked != bytes(expected):
                fail(p, f"masked crop of element {index} differs outside or inside the masks")
            for k, rect in enumerate(rects):
                _, _, img = read_ppm(Path(f"{prefix}_img{k}.ppm").read_bytes())
                if img != crop(width, pixels, rect):
                    fail(p, f"image crop {k} of element {index} differs from the page")
        except (OSError, ValueError, KeyError) as exc:
            fail(p, f"mask outputs of element {index} unreadable ({exc})")
    return len(failed), reasons, 0


# -- table_eval ------------------------------------------------------------------------------

ORACLE_MAX_NODES = 17


def oracle_checks(pred, gt) -> bool:
    """Are both tables small enough for the exact tree distance?"""
    return max(pred[0] + len(pred[2]), gt[0] + len(gt[2])) + 1 <= ORACLE_MAX_NODES


def _tokens(value):
    return value.split() if isinstance(value, str) else list(value)


def check_eval_pair(entry, meta, metrics):
    """Reasons the program's metrics for one eval pair are wrong (empty if right)."""
    kind = entry["kind"]
    if kind == "text":
        d = levenshtein(entry["pred"], entry["gt"])
        nd = d / max(len(entry["pred"]), len(entry["gt"]), 1)
        if metrics.get("edit_distance") != d or abs(metrics.get("normalized_edit_distance", -1) - nd) > 1e-12:
            return [f"text distance {metrics} != {d}, {nd}"]
        return []
    if kind == "order":
        a, b = _tokens(entry["pred"]), _tokens(entry["gt"])
        want = levenshtein(a, b) / max(len(a), len(b), 1)
        if abs(metrics.get("reading_order_edit", -1) - want) > 1e-12:
            return [f"reading-order edit {metrics} != {want}"]
        return []
    t, s = metrics.get("teds"), metrics.get("teds_structure")
    if not isinstance(t, float) or not isinstance(s, float):
        return [f"table metrics missing: {metrics}"]
    why = []
    if not (0.0 <= t <= 1.0 and 0.0 <= s <= 1.0):
        why.append(f"TEDS {t} or TEDS-S {s} outside [0,1]")
    if s < t - 1e-12:
        why.append(f"TEDS-S {s} < TEDS {t}")
    corruption = meta["corruption"]
    if corruption == "identity" and (t, s) != (1.0, 1.0):
        why.append(f"TEDS(x, x) = {t}, {s}")
    if corruption == "text" and not (s == 1.0 and t < 1.0):
        why.append(f"text-only corruption gave TEDS {t}, TEDS-S {s}")
    pred, gt = meta["pred"], meta["gt"]
    if oracle_checks(pred, gt):
        for value, content in ((t, True), (s, False)):
            # 1 - TED / max(nodes) can fall below 0; the documented range is
            # [0,1], so the clamped value is right too (the range check above
            # reports the unclamped one)
            want = exact_teds(pred, gt, content)
            if min(abs(value - want), abs(value - min(max(want, 0.0), 1.0))) > 1e-9:
                why.append(f"{'TEDS' if content else 'TEDS-S'} {value} != exact {want}")
    return why


def check_shard(exp):
    try:
        rows = json.loads(Path(exp["rows"]).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return len(exp["entries"]), [f"{exp['rows']} unreadable ({exc})"], 0
    failed = known = 0
    reasons = []
    if len(rows) != len(exp["entries"]):
        return len(exp["entries"]), [f"{len(rows)} rows for {len(exp['entries'])} entries"], 0
    for i, (entry, meta, row) in enumerate(zip(exp["entries"], exp["meta"], rows)):
        why = []
        if row.get("index") != i or row.get("kind") != entry["kind"]:
            why.append(f"row {i} is {row.get('index')}/{row.get('kind')}")
        else:
            why = check_eval_pair(entry, meta, row.get("metrics", {}))
        if why:
            failed += 1
            # the 3x1-vs-1x4 pair scores below 0 until teds() clamps its range
            known += meta.get("corruption") == "range_fault" and len(why) == 1 \
                and why[0].endswith("outside [0,1]")
            reasons.append(f"{Path(exp['rows']).name} pair {i} ({meta.get('corruption', entry['kind'])}): "
                           + "; ".join(why))
    return failed, reasons, known


# -- rl_reward --------------------------------------------------------------------------------

EPS = 1e-6


def _signature_ok(kind, pos, neg):
    """Does the negative carry the mark of its perturbation kind?"""
    pr, pc, pcells, _ = pos
    nr, nc, ncells, _ = neg
    if kind == "drop_row":
        return (nr, nc) == (pr - 1, pc)
    if kind == "drop_column":
        return (nr, nc) == (pr, pc - 1)
    if kind == "duplicate_row":
        return (nr, nc) == (pr + 1, pc)
    if (nr, nc) != (pr, pc):
        return False
    before = Counter(c[4] for c in pcells)
    after = Counter(c[4] for c in ncells)
    if kind == "swap_cells":
        return before == after
    if kind == "corrupt_text":
        lost, gained = list((before - after).elements()), list((after - before).elements())
        if len(lost) != 1 or len(gained) != 1 or gained[0].count("~") != lost[0].count("~") + 1:
            return False
        return any(gained[0][:i] + gained[0][i + 1:] == lost[0]
                   for i, ch in enumerate(gained[0]) if ch == "~")
    if kind == "change_span":
        return Counter(c[2:4] for c in pcells) != Counter(c[2:4] for c in ncells)
    return False


def rule_score(html: str, expected_images: int) -> float:
    try:
        _, _, cells, rectangular = parse_canonical(html)
        well_formed = True
        non_empty = any(normalize(c[4]) for c in cells)
    except NotCanonical:
        well_formed = rectangular = non_empty = False
    placeholder_ok = len(re.findall(r"<img\b", html, re.I)) == expected_images
    return 0.25 * well_formed + 0.25 * rectangular + 0.25 * placeholder_ok + 0.25 * non_empty


def advantages(rewards):
    n = len(rewards)
    mean = sum(rewards) / n
    std = math.sqrt(sum((r - mean) ** 2 for r in rewards) / n)
    if std <= EPS:
        return [0.0] * n
    return [(r - mean) / (std + EPS) for r in rewards]


def check_group(exp):
    """Negatives against their perturbation signatures, rewards against an
    independent rule score, advantages against a recomputation."""
    try:
        pairs = [json.loads(line) for line in Path(exp["pairs"]).read_text().splitlines()]
        candidates = json.loads(Path(exp["candidates"]).read_text())
        out = json.loads(Path(exp["reward"]).read_text())["candidates"]
    except (OSError, ValueError, KeyError) as exc:
        return 1, [f"{exp['pairs']}: outputs unreadable ({exc})"], 0
    n = len(candidates)
    bad = set()
    reasons = []
    html = exp["html"]
    pos = parse_canonical(html)
    for k, pair in enumerate(pairs):
        kind = pair.get("perturbation")
        try:
            neg = parse_canonical(pair["negative"])
            ok = pair["positive"] == html and pair["negative"] != html and _signature_ok(kind, pos, neg)
        except NotCanonical:
            ok = False
        if not ok:
            bad.add(k + 1)
            reasons.append(f"{exp['pairs']} line {k}: {kind} negative lacks its signature")
    if candidates != [html] + [p["negative"] for p in pairs]:
        return n, reasons + [f"{exp['candidates']} is not the ground truth plus its negatives"], 0
    if len(out) != n:
        return n, reasons + [f"{len(out)} reward rows for {n} candidates"], 0
    n_images = len(re.findall(r"<img\b", html, re.I))
    rewards = [row.get("reward") for row in out]
    for k, (cand, reward) in enumerate(zip(candidates, rewards)):
        if not isinstance(reward, float) or abs(reward - rule_score(cand, n_images)) > 1e-12:
            bad.add(k)
            reasons.append(f"{exp['reward']} candidate {k}: reward {reward} != rule score")
    if all(isinstance(r, float) for r in rewards):
        adv = [row.get("advantage") for row in out]
        want = advantages(rewards)
        mean = sum(adv) / n if all(isinstance(a, float) for a in adv) else math.nan
        constant = all(a == 0.0 for a in want)
        std = math.sqrt(sum((a - mean) ** 2 for a in adv) / n) if not math.isnan(mean) else math.nan
        ok = (
            not math.isnan(mean)
            and all(abs(a - w) <= 1e-9 for a, w in zip(adv, want))
            and abs(mean) <= 1e-9
            and (constant or abs(std - 1.0) <= 1e-4)
        )
        if not ok:
            return n, reasons + [f"{exp['reward']}: advantages {adv} are not the group's z-scores"], 0
    return len(bad), reasons, 0


CHECKERS = {
    "doc_assemble": check_document,
    "table_eval": check_shard,
    "rl_reward": check_group,
}
