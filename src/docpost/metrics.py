"""Evaluation metrics: string edit distance, tree edit distance over table
structures (TEDS / TEDS-S), and reading-order edit distance.

The string distance is the bit-parallel Levenshtein algorithm of Myers
(1999) as formulated by Hyyrö (2003). The tree distance is the Zhang-Shasha
ordered tree edit distance with unit insert/delete costs and one rename
cost: a tag mismatch costs 1, a tag match the normalized edit distance
between cell contents. It reads each tree as postorder lists, a table's
filled from its grid with no object per cell. TEDS-S is TEDS of the
content-free trees, where every tag match costs 0. Span values are folded
into the tag signature, so span mistakes count as structural errors.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter, namedtuple
from dataclasses import dataclass, field

from .errors import DomainError, FormatError
from .table_grid import TableError, TableGrid, normalize_text, parse_grid


class GtParseError(DomainError):
    """The ground-truth side of a table comparison must parse."""


class BatchFormatError(FormatError):
    """An evaluation batch is not an array of ``{"pred", "gt", "kind"}``
    objects whose sides the kind can score."""


# -- sequence edit distance ------------------------------------------------------


# Width of one packed Myers bit vector. A block's match masks hold one int of
# this many bits per distinct token, so the width bounds their memory; a
# pattern longer than this gets a block of its own.
BLOCK_BITS = 4096


def _pack(patterns) -> tuple[dict, int, int]:
    """Match masks of non-empty ``patterns`` laid end to end in one bit
    vector, for :func:`_myers`: the pattern at bit offset ``o`` sets bit
    ``o + i`` of ``masks[token]`` where ``pattern[i] == token``. Also returns
    the top and the bottom bit of every field."""
    masks: dict = {}
    get = masks.get
    tops = bottoms = offset = 0
    for pattern in patterns:
        bit = 1 << offset
        bottoms |= bit
        for token in pattern:
            masks[token] = get(token, 0) | bit
            bit <<= 1
        offset += len(pattern)
        tops |= bit >> 1
    return masks, tops, bottoms


def _myers(masks: dict, tops: int, bottoms: int, text) -> tuple[int, int]:
    """Final ``vp`` and ``vn`` of one scan of ``text`` against every
    pattern :func:`_pack` laid into ``masks``.

    Bit-parallel dynamic program of Myers (1999) in the form of Hyyrö (2003),
    with several patterns in one vector as in Hyyrö, Fredriksson & Navarro
    (2005): bit ``i`` of ``vp`` / ``vn`` says that DP cell ``(i + 1, j)`` is
    one more / one less than cell ``(i, j)``, so each text token advances a
    column of every pattern's table with a few integer operations. No bit
    crosses into the next field: the addition runs with the fields' top bits
    masked off and a xor puts them back, and both shifts drop each field's
    top bit, the shifted ``hp`` taking a 1 at each field's bottom bit (the DP's
    top row is ``0..n``). Since that row ends at ``len(text)``, a field's
    distance is ``len(text) + popcount(vp & field) - popcount(vn & field)``.
    """
    full = (1 << tops.bit_length()) - 1
    low = full ^ tops
    vp, vn = full, 0
    get = masks.get
    for token in text:
        eq = get(token, 0)
        x, vl = eq & vp, vp & low
        d0 = ((((x & low) + vl) ^ ((x ^ vp) & tops)) ^ vp) | eq | vn
        hp = (((vn | ~(d0 | vp)) & low) << 1) | bottoms
        vp = (((d0 & vl) << 1) | ~(d0 | hp)) & full
        vn = hp & d0
    return vp, vn


def _frozen(token):
    """A hashable token equal to ``token`` under ``==``: JSON arrays become
    tuples and objects frozensets of their items, so ``1``, ``1.0`` and
    ``true`` still match. The walk keeps its own stack, so it freezes any
    nesting the JSON reader accepts."""
    out: list = []  # frozen values, each container's items on top
    stack = [(token, False)]
    while stack:
        value, items_done = stack.pop()
        if items_done:
            start = len(out) - len(value)
            items = out[start:]
            del out[start:]
            out.append(tuple(items) if isinstance(value, list) else frozenset(zip(value, items)))
        elif isinstance(value, (list, dict)):
            stack.append((value, True))
            items = value if isinstance(value, list) else value.values()
            stack.extend((item, False) for item in reversed(items))
        else:
            out.append(value)
    return out[0]


def _levenshtein(a, b) -> int:
    """Unit-cost edit distance over any two indexable token sequences: the
    one-field case of :func:`_myers`.

    Tokens are matched as dict keys (identity, then ``==``). Unhashable
    tokens must be JSON values; they are matched by their :func:`_frozen`
    form.
    """
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    try:
        masks, tops, bottoms = _pack([a])
        vp, vn = _myers(masks, tops, bottoms, b)
    except TypeError:  # unhashable tokens
        masks, tops, bottoms = _pack([[_frozen(t) for t in a]])
        vp, vn = _myers(masks, tops, bottoms, [_frozen(t) for t in b])
    return len(b) + vp.bit_count() - vn.bit_count()


def edit_distance(a: str, b: str) -> int:
    """Levenshtein distance over Unicode scalar values with unit costs."""
    return _levenshtein(a, b)


def normalized_edit_distance(a: str, b: str) -> float:
    return _levenshtein(a, b) / max(len(a), len(b), 1)


def reading_order_edit(pred_indices, gt_indices) -> float:
    """Edit distance between element-id sequences, normalized by max length."""
    return _levenshtein(list(pred_indices), list(gt_indices)) / max(
        len(pred_indices), len(gt_indices), 1
    )


# -- document trees ---------------------------------------------------------------


@dataclass
class DocTree:
    tag: str
    content: str = ""
    children: list["DocTree"] = field(default_factory=list)

    def size(self) -> int:
        return 1 + sum(child.size() for child in self.children)


def _rename_costs(A: _Annotated, B: _Annotated, below: int, above: int) -> list[list[float]]:
    """Row ``i`` holds the rename costs of node ``i`` of ``A`` into each
    node ``j`` of ``B`` from ``max(0, i - below)`` to ``i + above``, the
    columns :func:`_zhang_shasha` reads.

    A tag mismatch costs 1; matching tags cost the normalized edit distance
    of the contents, 0 when they are equal and 1 against an empty one, all
    without a scan. For the rest, B's distinct non-empty contents are packed
    in postorder into blocks of at most :data:`BLOCK_BITS` bits (narrower
    for a narrow band), and each distinct content of A is scanned
    (:func:`_myers`) at most once per block that its rows need; a cost reads
    one field of the scan. Equal costs share one float.
    """
    # a scan costs more the wider its block, and a narrow band reads few of
    # its fields: about 24 bits per band column, at least 256, ran fastest
    cap = min(BLOCK_BITS, max(256, 24 * (below + above + 1)))
    blocks: list[list[str]] = []  # B's contents, block by block
    fields = {}  # content -> its block, field mask and length
    width = cap
    for text in B.contents:
        if text and text not in fields:
            if width + len(text) > cap:
                blocks.append([])
                width = 0
            fields[text] = len(blocks) - 1, ((1 << len(text)) - 1) << width, len(text)
            blocks[-1].append(text)
            width += len(text)
    packed: dict[int, tuple] = {}
    scans: dict[str, dict[int, tuple[int, int]]] = {}  # content of A -> block -> (vp, vn)
    lengths = {len(s) for s in (*fields, *A.contents)}
    fractions = {n: [d / n for d in range(n + 1)] for n in lengths if n}
    b_keys = list(zip(B.tags, B.contents))
    rows = []
    for i, (tag, text) in enumerate(zip(A.tags, A.contents)):
        n = len(text)
        done = scans.setdefault(text, {})
        row = []
        for other_tag, other in b_keys[max(0, i - below) : i + above + 1]:
            if other_tag != tag:
                cost = 1.0
            elif other == text:
                cost = 0.0
            elif not text or not other:
                cost = 1.0
            else:
                block, field, length = fields[other]
                if block not in done:
                    if block not in packed:
                        packed[block] = _pack(blocks[block])
                    done[block] = _myers(*packed[block], text)
                vp, vn = done[block]
                cost = fractions[length if length > n else n][
                    n + (vp & field).bit_count() - (vn & field).bit_count()
                ]
            row.append(cost)
        rows.append(row)
    return rows


class _Annotated(namedtuple("_Annotated", "tags contents lmds keyroots")):
    """A tree as the dynamic program reads it: lists of each node's tag,
    content and leftmost leaf (lmd) in postorder, and the keyroots, the
    highest node of each lmd. Equal trees have equal lists."""

    def skeleton(self) -> _Annotated:
        """The same tree with every content empty, for TEDS-S."""
        return self._replace(contents=[""] * len(self.tags))

    @classmethod
    def _of(cls, tags: list[str], contents: list[str], lmds: list[int]) -> _Annotated:
        highest = {lmd: i for i, lmd in enumerate(lmds)}
        return cls(tags, contents, lmds, sorted(highest.values()))


def _annotate(root: DocTree) -> _Annotated:
    tags, contents, lmds = [], [], []
    # The leftmost leaf of a subtree is the first of its nodes in postorder,
    # so a node's lmd is the node count when its visit starts.
    stack: list[tuple[DocTree, int]] = [(root, -1)]
    while stack:
        node, start = stack.pop()
        if start >= 0:
            tags.append(node.tag)
            contents.append(node.content)
            lmds.append(start)
        else:
            stack.append((node, len(tags)))
            stack.extend((child, -1) for child in reversed(node.children))
    return _Annotated._of(tags, contents, lmds)


def _annotate_grid(grid: TableGrid) -> _Annotated:
    """The tree table -> tr* -> (td|th)* with spans in the tag (``td[2,1]``), in
    one pass over the cells in anchor order: each row's cells, its tr, then the table."""
    tags, contents, lmds = [], [], []
    cells, k = grid.cells, 0
    for r in range(grid.n_rows):
        first = len(tags)
        while k < len(cells) and cells[k][0] == r:  # cells[k].anchor_row
            _, _, rowspan, colspan, content, is_header = cells[k]
            lmds.append(len(tags))
            tags.append(f"{'th' if is_header else 'td'}[{rowspan},{colspan}]")
            contents.append(normalize_text(content))
            k += 1
        tags.append("tr")
        contents.append("")
        lmds.append(first)
    tags.append("table")
    contents.append("")
    lmds.append(0)
    return _Annotated._of(tags, contents, lmds)


def tree_edit_distance(t1: DocTree | None, t2: DocTree | None) -> float:
    """:func:`_distance` of two general trees; ``None`` stands for the empty
    tree (pure deletions/insertions)."""
    if t1 is None or t2 is None:
        return float(sum(len(_annotate(t).tags) for t in (t1, t2) if t is not None))
    A, B = _annotate(t1), _annotate(t2)
    return _distance(A, B, _structure_bound(A.tags, B.tags))


def _distance(A: _Annotated, B: _Annotated, bound: int) -> float:
    """Zhang-Shasha ordered tree edit distance of two annotated trees, with
    unit insert/delete.

    ``bound`` is any lower bound on the distance. It only picks the first
    band, so every lower bound gives the same result.

    The dynamic program runs in a one-sided band (:func:`_zhang_shasha`).
    With ``delta = n1 - n2``, a mapping's deletions ``del`` and insertions
    ``ins`` satisfy ``del - ins = delta``, and a pass at ``h`` holds every
    mapping with ``min(del, ins) <= h``: ``below = h + max(delta, 0)`` and
    ``above = h + max(-delta, 0)``. A mapping whose summed cost is ``c`` has
    ``del + ins <= floor(c)`` (renames cost at least 0), of the parity of
    ``|delta|``, so ``min(del, ins) <= need(c) = (floor(c) - |delta|) // 2``.
    A pass's result ``d`` is never below the distance, so it is exact when
    ``need(d) <= h``. The passes climb from ``h = (bound - |delta|) // 2``
    (at least 0) to ``h + 1``, then to ``need(d)``; a pass whose band holds
    no derivation (``inf``) widens ``h`` by one. A band wider than the
    smaller tree becomes the whole table.
    """
    if A == B:
        return 0.0
    n1, n2 = len(A.tags), len(B.tags)
    delta = n1 - n2
    first = h = max(0, (bound - abs(delta)) // 2)
    while True:
        below, above = h + max(delta, 0), h + max(-delta, 0)
        # on table_eval pairs and on tables with rotated rows, cut-overs from
        # 0.75 of this width up ran alike and 0.5 ran 5-30% slower: even a
        # wide band skips keyroot tables
        if below + above + 1 > min(n1, n2):
            return _zhang_shasha(A, B, n1 + n2, n1 + n2)  # every cell
        dist = _zhang_shasha(A, B, below, above)
        if dist == math.inf:
            h += 1
            continue
        need = (math.floor(dist) - abs(delta)) // 2
        if need <= h:
            return dist
        # the first pass's d can be far above the distance (on a table with
        # rotated rows the diagonal renames every cell), so one step wider
        # before trusting need(d)
        h = h + 1 if h == first else need


def _zhang_shasha(A: _Annotated, B: _Annotated, below: int, above: int) -> float:
    """The Zhang-Shasha dynamic program in a band: a cell is filled only
    where the postorder positions ``ai`` and ``bj`` that end its two forests
    satisfy ``-above <= ai - bj <= below``, and a keyroot table only where
    its two leftmost leaves do. Every other cell, and ``treedist`` until
    set, is ``inf``. With ``below`` and ``above`` at least both node counts,
    every cell is filled.

    Only the band is stored: row ``ai`` of ``treedist`` and of the rename
    costs holds the columns from ``max(0, ai - below)`` to ``ai + above``,
    and each row of an ``fd`` table its band and one ``inf`` above it. Row 0
    of an ``fd`` table stays readable everywhere, as in the full table, and
    column 0 next to the band's first column; any other cell outside the
    band reads ``inf``, ``fd[p][0] = p`` too. No derivation in the band
    reads that one: with ``c = li - lj``, it lies outside the band only when
    ``p + c > below``, and it pairs A's prefix ending at postorder position
    ``li + p - 1`` with B's ending at ``lj - 1``. A mapping derived through
    it maps those prefixes only to each other, so it deletes at least
    ``(li + p) - lj = p + c > below`` nodes (README, "Why the result is
    exact") and lies outside the band. So no mapping the band holds is lost,
    and a pass that :func:`_distance` accepts is the full table's value bit
    for bit.

    Each pair of keyroot forests runs the recurrence its shape allows. A
    leaf against a leaf is the rename cost. A leaf against an inner forest is
    one row of the forest table, and an inner forest against B's leaves is
    one column per leaf, all leaves at once, before the inner forests that
    read them. Only inner forest against inner forest fills an ``fd`` table.
    Every cell adds the same operands in the same order as the full table
    does, with no closed form, so a derivation that lies in the band costs
    the same float in both.
    """
    n1, m = len(A.tags), len(B.tags)
    rename = _rename_costs(A, B, below, above)
    lmds_a = A.lmds
    inf = math.inf
    treedist = [[inf] * len(row) for row in rename]
    # B's leaf keyroots, and per inner keyroot j: its first node lj, and for
    # each forest column y = bj - lj + 1 the offset q of B.lmds[bj] from lj
    # (0: a whole subtree).
    b_leaves, b_inner = [], []
    for j in B.keyroots:
        lj = B.lmds[j]
        if lj == j:
            b_leaves.append(j)
        else:
            qs = [0] + [B.lmds[bj] - lj for bj in range(lj, j + 1)]
            b_inner.append((lj, qs, [float(y) for y in range(len(qs))]))
    # the inner keyroots' places in b_inner, by lj, to select those in band
    by_lj = sorted(range(len(b_inner)), key=lambda t: b_inner[t][0])
    ljs = [b_inner[t][0] for t in by_lj]

    # Each loop below computes the textbook recurrence's cells from the same
    # sums in the same order, and takes their min with explicit compares; a
    # tie keeps an equal value, so every distance is bit-identical to
    # min(...) over the fd tables in the band.
    for i in A.keyroots:
        li = lmds_a[i]
        # B's keyroots whose table with keyroot i is in the band; the inner
        # ones in keyroot order, so that each reads the treedist entries of
        # its descendants
        leaves = b_leaves[bisect_left(b_leaves, li - below) : bisect_right(b_leaves, li + above)]
        inner = by_lj[bisect_left(ljs, li - below) : bisect_right(ljs, li + above)]
        inner = [b_inner[t] for t in sorted(inner)]
        if li == i:
            o = i - below if i > below else 0  # the first column of row i
            td, ren = treedist[i], rename[i]
            # leaf against leaf: rename costs are at most 1, so the one DP
            # cell min(2.0, 2.0, 0.0 + rename) is the rename cost itself
            for j in leaves:
                td[j - o] = ren[j - o]
            # leaf against an inner forest of B: fd has one row below
            # fd[0] = first_row, and the leaf is a whole subtree (p == 0)
            for lj, qs, first_row in inner:
                left = 1.0
                shift = lj - 1 - o  # node bj = y + lj - 1 is at y + shift
                for y in range(1, min(len(qs), i - lj + above + 2)):
                    v = first_row[y] + 1.0
                    w = left + 1.0
                    if w < v:
                        v = w
                    q = qs[y]
                    if q == 0:
                        w = first_row[y - 1] + ren[y + shift]
                        if w < v:
                            v = w
                        td[y + shift] = v
                    else:
                        w = first_row[q] + td[y + shift]
                        if w < v:
                            v = w
                    left = v
            continue
        # inner forest against each leaf of B: fd has one column next to
        # fd[x][0] = x, so a cell needs only the one above it, col[t]; a leaf
        # leaves the band for good once ai - below passes it
        col = [1.0] * len(leaves)
        first = 0
        for x, ai in enumerate(range(li, i + 1), 1):
            while first < len(leaves) and leaves[first] < ai - below:
                first += 1
            p = lmds_a[ai] - li
            td = treedist[ai]
            o = ai - below if ai > below else 0
            # a subtree against a subtree adds its rename to fd[x-1][0];
            # any other forest adds treedist to fd[p][0]
            base, costs = (float(x - 1), rename[ai]) if p == 0 else (float(p), td)
            w_left = float(x) + 1.0
            for t in range(first, len(leaves)):
                v = col[t] + 1.0
                if w_left < v:
                    v = w_left
                w = base + costs[leaves[t] - o]
                if w < v:
                    v = w
                col[t] = v
            if p == 0:
                for t in range(first, len(leaves)):
                    td[leaves[t] - o] = col[t]
        # inner forest against inner forest of B: row x of the fd table holds
        # the columns y from max(0, x + c - below) to x + c + above, then inf
        for lj, qs, first_row in inner:
            c = li - lj
            n = len(qs)
            blank = [inf] * (min(n, below + above + 1) + 1)  # a band, and an inf above it
            fd = [first_row]  # fd[x][y - o]: forest li..li+x-1 against lj..lj+y-1
            for x, ai in enumerate(range(li, i + 1), 1):
                s = x + c - below  # the band's first column
                if s >= n:  # the band has left the table
                    break
                row = blank[:]
                # row x holds columns from o = max(0, s); column 0 holds x
                # everywhere, so the cell left of column 1 is x even where
                # the band starts at column 1
                if s > 0:
                    o, d = s, 1  # up[t + d] is the cell above row[t]
                    lo, left = (s, inf) if s > 1 else (1, float(x))
                else:
                    o, d, lo = 0, 0, 1
                    row[0] = left = float(x)
                up = fd[-1]
                p = lmds_a[ai] - li
                fp, fo = fd[p], (p + c - below if p + c > below else 0)
                fe = fo + len(fp)
                td, ren = treedist[ai], rename[ai]
                shift = o + lj - 1 - (ai - below if ai > below else 0)  # node bj at t + shift
                for t, q in enumerate(qs[lo : x + c + above + 1], lo - o):
                    v = up[t + d] + 1.0
                    w = left + 1.0
                    if w < v:
                        v = w
                    if q == 0 and p == 0:  # subtree against subtree
                        w = up[t + d - 1] + ren[t + shift]
                        if w < v:
                            v = w
                        td[t + shift] = v
                    elif fo <= q < fe:  # fd[p][q] is stored
                        w = fp[q - fo] + td[t + shift]
                        if w < v:
                            v = w
                    row[t] = left = v
                fd.append(row)
    if not -above <= n1 - m <= below:  # the last cell is outside the band
        return inf
    return treedist[-1][m - 1 - max(0, n1 - 1 - below)]


def _table_annotations(pred_html: str, gt_html: str) -> tuple[_Annotated | None, _Annotated]:
    """Both tables annotated, equal strings parsed once; ``None`` for a bad prediction."""
    try:
        gt = _annotate_grid(parse_grid(gt_html))
    except TableError as exc:
        raise GtParseError(str(exc)) from exc
    if pred_html == gt_html:
        return gt, gt
    try:
        return _annotate_grid(parse_grid(pred_html)), gt
    except TableError:
        return None, gt


def _structure_bound(tags1: list[str], tags2: list[str]) -> int:
    """A lower bound on the distance of two skeletons with these lists of
    node tags (Kailing et al., 2004): a mapping with ``s`` equal-tag pairs
    and ``u`` other pairs costs ``n1 + n2 - 2s - u``, and ``s`` is at most
    the size of the tags' multiset intersection, ``s + u`` at most
    ``min(n1, n2)``."""
    shared = Counter(tags1) & Counter(tags2)
    return max(len(tags1), len(tags2)) - sum(shared.values())


def _similarity(dist: float, n_nodes: int) -> float:
    """``1 - dist / n_nodes`` for the larger tree's node count. The distance
    can exceed it (a 3x1 table against a 1x4 one costs 7.03 over 7 nodes),
    so clamp at 0."""
    return max(0.0, 1.0 - dist / n_nodes)


def teds(pred_html: str, gt_html: str, structure_only: bool = False) -> float:
    """Tree-edit-distance similarity between two table HTML strings, in [0,1];
    with ``structure_only``, that of their content-free skeletons (TEDS-S).

    An unparseable prediction scores 0; an unparseable ground truth raises
    :class:`GtParseError`.
    """
    pred, gt = _table_annotations(pred_html, gt_html)
    if pred is None:
        return 0.0
    bound = _structure_bound(pred.tags, gt.tags)
    if structure_only:
        pred, gt = pred.skeleton(), gt.skeleton()
    return _similarity(_distance(pred, gt, bound), max(len(pred.tags), len(gt.tags)))


def _table_scores(pred: _Annotated | None, gt: _Annotated) -> tuple[float, float]:
    """TEDS and TEDS-S of two annotated tables, as :func:`teds` scores them.

    The distance of the skeletons is an integer no less than
    :func:`_structure_bound` and no greater than the distance of the trees:
    each rename costs at least the rename of the same pair of skeleton
    nodes, and rounded addition and ``min`` are monotone, so the trees'
    dynamic program returns at least what the skeletons' does, an exact
    integer. When the trees' distance is below ``bound + 1``, that integer
    is ``bound`` and the skeletons are not compared.
    """
    if pred is None:
        return 0.0, 0.0
    n_nodes = max(len(pred.tags), len(gt.tags))
    bound = _structure_bound(pred.tags, gt.tags)
    content = _distance(pred, gt, bound)
    if content < bound + 1:
        structure = float(bound)
    else:
        structure = _distance(pred.skeleton(), gt.skeleton(), bound)
    return _similarity(content, n_nodes), _similarity(structure, n_nodes)


# -- batch evaluation ----------------------------------------------------------------


def _order_tokens(value) -> list:
    if isinstance(value, str):
        return value.split()
    return list(value)


def evaluate_pair(pred, gt, kind: str) -> dict[str, float]:
    """Metrics for one prediction/ground-truth pair of the given kind, by
    name."""
    if kind == "text":
        dist = edit_distance(pred, gt)
        return {
            "edit_distance": float(dist),
            "normalized_edit_distance": dist / max(len(pred), len(gt), 1),
        }
    if kind == "table":
        content, structure = _table_scores(*_table_annotations(pred, gt))
        return {"teds": content, "teds_structure": structure}
    if kind == "order":
        return {
            "reading_order_edit": reading_order_edit(_order_tokens(pred), _order_tokens(gt))
        }
    raise ValueError(f"unknown evaluation kind {kind!r}")


_ENTRY_FIELDS = ("pred", "gt", "kind")
# JSON types each kind can score: a table side is HTML, a text or order side
# is a string or an array of tokens.
_SIDE_TYPES = {
    "table": ((str,), "a string"),
    "text": ((str, list), "a string or an array"),
    "order": ((str, list), "a string or an array"),
}


def _check_batch(entries) -> None:
    if not isinstance(entries, list):
        raise BatchFormatError("batch must be a JSON array")
    for pos, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise BatchFormatError(f"entry {pos} is not an object")
        missing = [name for name in _ENTRY_FIELDS if name not in entry]
        if missing:
            raise BatchFormatError(f"entry {pos} lacks {', '.join(missing)}")
        kind = entry["kind"]
        if not isinstance(kind, str) or kind not in _SIDE_TYPES:
            raise BatchFormatError(f"entry {pos} has unknown kind {kind!r}")
        types, described = _SIDE_TYPES[kind]
        for name in ("pred", "gt"):
            if not isinstance(entry[name], types):
                raise BatchFormatError(f"entry {pos} {name} must be {described} for kind {kind}")


def evaluate_batch(entries: list[dict]) -> list[dict]:
    """Evaluate ``[{"pred", "gt", "kind"}, ...]``; one result row per entry.

    The whole batch is checked before any entry is scored
    (:class:`BatchFormatError`); entries are then scored one after another.
    """
    _check_batch(entries)
    return [
        {
            "index": pos,
            "kind": entry["kind"],
            "metrics": evaluate_pair(entry["pred"], entry["gt"], entry["kind"]),
        }
        for pos, entry in enumerate(entries)
    ]
