"""Independent reference implementations the fast paths are checked against.

These deliberately use different algorithms from the library: the tree
distance enumerates every valid edit mapping instead of running the
dynamic program, the Zhang-Shasha reference fills a whole forest table for
every pair of keyroots, the string distance fills the full textbook matrix, the
rename-cost matrix costs every node pair on its own, the swap-cell
candidates normalize both cells of every pair afresh, the row and column
perturbations edit the occupancy matrix and rebuild each cell from the
positions it still owns, and the table merge
goes through a chain of whole-grid rebuilds (band, column remap, vertical
stack) instead of laying out its result once, and the grid layouts claim
one position at a time instead of placing each spanned row as a slice.
The ``mask`` reference reads the whole page, cuts each crop out of it in
page coordinates with a bytes slice per row, and writes each PPM as one
concatenated string, where the CLI reads only the table's rows.
Two grid helpers that only tests use live here too: :func:`slice_rows` and
:func:`grid_to_rows`.
"""

from __future__ import annotations

import random

from docpost.errors import FormatError
from docpost.idtp import (
    ImageDetection,
    ImageInputError,
    PixelBuffer,
    apply_masks,
    plan_masks,
    read_ppm,
    write_ppm,
)
from docpost.metrics import (
    CONTENT_AWARE,
    DocTree,
    _Annotated,
    _rename_costs,
    normalized_edit_distance,
)
from docpost.rewards import InapplicablePerturbation, PerturbationKind, PrefPair
from docpost.table_grid import (
    MAX_COLSPAN,
    MAX_GRID_POSITIONS,
    MAX_ROWSPAN,
    GridCell,
    MalformedMarkup,
    SpanConflict,
    TableGrid,
    normalize_text,
    serialize_grid,
)
from docpost.table_merge import MergePlan, Pattern, PlanMismatch


def swap_candidates_reference(grid: TableGrid) -> list[tuple[int, int]]:
    """Cell pairs ``(i, j)``, ``i < j``, whose contents differ after
    normalization, in row-major order, normalizing both cells of every pair."""
    return [
        (i, j)
        for i in range(len(grid.cells))
        for j in range(i + 1, len(grid.cells))
        if normalize_text(grid.cells[i].content) != normalize_text(grid.cells[j].content)
    ]


def _rebuild_from_occupancy_reference(occ_rows: list[list[int]], cells_by_id) -> TableGrid:
    """Each surviving cell id keeps its content and covers the bounding box
    of the positions it still owns in the edited occupancy matrix."""
    n_rows = len(occ_rows)
    n_cols = len(occ_rows[0]) if occ_rows else 0
    extents: dict[int, list[int]] = {}
    for r, row in enumerate(occ_rows):
        for c, idx in enumerate(row):
            if idx not in extents:
                extents[idx] = [r, r, c, c]
            else:
                ext = extents[idx]
                ext[0], ext[1] = min(ext[0], r), max(ext[1], r)
                ext[2], ext[3] = min(ext[2], c), max(ext[3], c)
    cells = []
    for idx, (r1, r2, c1, c2) in extents.items():
        src = cells_by_id[idx]
        cells.append(GridCell(r1, c1, r2 - r1 + 1, c2 - c1 + 1, src.content, src.is_header))
    return grid_from_cells_reference(n_rows, n_cols, cells)


def drop_row_reference(grid: TableGrid, rng: random.Random) -> TableGrid:
    if grid.n_rows < 2:
        raise InapplicablePerturbation("need at least two rows")
    victim = rng.randrange(grid.n_rows)
    occ = [list(row) for r, row in enumerate(grid.occupancy) if r != victim]
    return _rebuild_from_occupancy_reference(occ, grid.cells)


def drop_column_reference(grid: TableGrid, rng: random.Random) -> TableGrid:
    if grid.n_cols < 2:
        raise InapplicablePerturbation("need at least two columns")
    victim = rng.randrange(grid.n_cols)
    occ = [[idx for c, idx in enumerate(row) if c != victim] for row in grid.occupancy]
    return _rebuild_from_occupancy_reference(occ, grid.cells)


def duplicate_row_reference(grid: TableGrid, rng: random.Random) -> TableGrid:
    """Insert a copy of a random occupancy row under it: one-row cells get a
    fresh id (a copy of the cell), taller cells keep theirs and stretch."""
    victim = rng.randrange(grid.n_rows)
    fresh: dict[int, int] = {}
    copy_row = []
    cells = list(grid.cells)
    for idx in grid.occupancy[victim]:
        cell = grid.cells[idx]
        if cell.rowspan == 1:
            if idx not in fresh:
                fresh[idx] = len(cells)
                cells.append(cell)
            copy_row.append(fresh[idx])
        else:
            copy_row.append(idx)
    occ = [list(r) for r in grid.occupancy]
    occ.insert(victim + 1, copy_row)
    return _rebuild_from_occupancy_reference(occ, cells)


ROW_COLUMN_PERTURBATIONS_REFERENCE = {
    PerturbationKind.DROP_ROW: drop_row_reference,
    PerturbationKind.DROP_COLUMN: drop_column_reference,
    PerturbationKind.DUPLICATE_ROW: duplicate_row_reference,
}


def perturb_table_reference(grid: TableGrid, kind: PerturbationKind, rng_seed: int) -> PrefPair:
    """``perturb_table`` on a parsed grid for the row and column kinds."""
    positive = serialize_grid(grid)
    negative_grid = ROW_COLUMN_PERTURBATIONS_REFERENCE[kind](grid, random.Random(rng_seed))
    negative = serialize_grid(negative_grid)
    if negative == positive:
        raise InapplicablePerturbation(f"{kind.value} left the table unchanged")
    return PrefPair(positive, negative, kind)


def levenshtein_full_matrix(a, b) -> int:
    """Textbook DP with the complete (m+1) x (n+1) table, over two strings
    or two token lists compared with ``==``."""
    m, n = len(a), len(b)
    d = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        d[i][0] = i
    for j in range(n + 1):
        d[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost)
    return d[m][n]


def _postorder(root: DocTree):
    nodes: list[DocTree] = []
    desc: list[set[int]] = []

    def walk(node):
        below = set()
        for child in node.children:
            cid = walk(child)
            below.add(cid)
            below |= desc[cid]
        my_id = len(nodes)
        nodes.append(node)
        desc.append(below)
        return my_id

    walk(root)
    return nodes, desc


def _rename(a: DocTree, b: DocTree, cost_model: str) -> float:
    if a.tag != b.tag:
        return 1.0
    if cost_model == CONTENT_AWARE:
        return normalized_edit_distance(a.content, b.content)
    return 0.0


def rename_costs_reference(
    a_nodes: list[DocTree], b_nodes: list[DocTree], cost_model: str
) -> list[list[float]]:
    """The full rename-cost matrix, one ``normalized_edit_distance`` (or tag
    mismatch) per node pair, with no sharing between pairs."""
    return [[_rename(a, b, cost_model) for b in b_nodes] for a in a_nodes]


def exhaustive_tree_distance(t1: DocTree | None, t2: DocTree | None, cost_model: str) -> float:
    """Minimum cost over every valid edit mapping (ancestor and left-right
    order preserved), found by explicit enumeration with branch-and-bound."""
    if t1 is None or t2 is None:
        return float((t1.size() if t1 else 0) + (t2.size() if t2 else 0))
    a_nodes, a_desc = _postorder(t1)
    b_nodes, b_desc = _postorder(t2)
    na, nb = len(a_nodes), len(b_nodes)
    best = float(na + nb)
    pairs: list[tuple[int, int]] = []

    def consistent(i: int, j: int) -> bool:
        for pi, pj in pairs:
            # postorder is increasing, so only "new node is an ancestor of an
            # earlier node" can hold; it must hold on both sides or neither
            if (pi in a_desc[i]) != (pj in b_desc[j]):
                return False
        return True

    def rec(i: int, last_j: int, cost: float, n_pairs: int):
        nonlocal best
        future = min(na - i, nb - last_j - 1)
        bound = cost + (na - n_pairs - future) + (nb - n_pairs - future)
        if bound >= best:
            return
        if i == na:
            total = cost + (na - n_pairs) + (nb - n_pairs)
            best = min(best, total)
            return
        rec(i + 1, last_j, cost, n_pairs)  # delete a_nodes[i]
        for j in range(last_j + 1, nb):
            if consistent(i, j):
                pairs.append((i, j))
                rec(i + 1, j, cost + _rename(a_nodes[i], b_nodes[j], cost_model), n_pairs + 1)
                pairs.pop()

    rec(0, -1, 0.0, 0)
    return best


def zhang_shasha_reference(t1: DocTree, t2: DocTree, cost_model: str) -> float:
    """The Zhang-Shasha loop with one ``fd`` table for every forest pair,
    leaf keyroots included, and no shortcut for equal trees or skeletons."""
    A, B = _Annotated(t1), _Annotated(t2)
    rename = _rename_costs(A.nodes, B.nodes, cost_model)
    lmds_a = A.lmds
    treedist = [[0.0] * len(B.nodes) for _ in A.nodes]
    # Per keyroot j of B: its first node lj, and for each forest column
    # y = bj - lj + 1 the offset q of B.lmds[bj] from lj (0: a whole subtree).
    b_forests, b_leaves = [], []
    for j in B.keyroots:
        lj = B.lmds[j]
        if lj == j:
            b_leaves.append(j)
        qs = [0] + [B.lmds[bj] - lj for bj in range(lj, j + 1)]
        b_forests.append((lj, qs, [float(y) for y in range(len(qs))]))
    b_inner = [forest for forest in b_forests if len(forest[1]) > 2]

    # The loops below take the min of the textbook recurrence's three sums
    # with explicit compares; a tie keeps an equal value, so every distance
    # is bit-identical to min(...) over the full fd table.
    for i in A.keyroots:
        li = lmds_a[i]
        forests = b_forests
        if li == i:
            # leaf against leaf: rename costs are at most 1, so the one DP
            # cell min(2.0, 2.0, 0.0 + rename) is the rename cost itself
            td, ren = treedist[i], rename[i]
            for j in b_leaves:
                td[j] = ren[j]
            forests = b_inner
        for lj, qs, first_row in forests:
            n = len(qs)
            fd = [first_row]  # fd[x][y]: forest li..li+x-1 against lj..lj+y-1
            for ai in range(li, i + 1):
                up = fd[-1]
                td = treedist[ai]
                row = up[:]  # a buffer of the right length; all cells are set
                left = row[0] = up[0] + 1.0
                p = lmds_a[ai] - li
                fp, ren = fd[p], rename[ai]
                for y in range(1, n):
                    bj = y + lj - 1
                    v = up[y] + 1.0
                    w = left + 1.0
                    if w < v:
                        v = w
                    q = qs[y]
                    if q == 0 and p == 0:  # subtree against subtree
                        w = up[y - 1] + ren[bj]
                        if w < v:
                            v = w
                        td[bj] = v
                    else:
                        w = fp[q] + td[bj]
                        if w < v:
                            v = w
                    row[y] = left = v
                fd.append(row)
    return treedist[-1][-1]


_TAGS = ["table", "tr", "td[1,1]", "td[2,1]", "td[1,2]", "th[1,1]"]
_CONTENTS = ["", "a", "ab", "total", "12", "x y"]


def random_tree(rng: random.Random, max_nodes: int = 8) -> DocTree:
    """Random ordered tree: each new node attaches under a random earlier one."""
    n = rng.randint(1, max_nodes)
    root = DocTree(rng.choice(_TAGS), rng.choice(_CONTENTS))
    nodes = [root]
    for _ in range(n - 1):
        child = DocTree(rng.choice(_TAGS), rng.choice(_CONTENTS))
        rng.choice(nodes).children.append(child)
        nodes.append(child)
    return root


def slice_rows(grid: TableGrid, start: int, stop: int) -> TableGrid:
    """Horizontal band [start, stop) as a standalone grid; cells cut at the
    top keep their footprint but lose their content and header flag."""
    if not 0 <= start <= stop <= grid.n_rows:
        raise PlanMismatch(f"band [{start},{stop}) outside 0..{grid.n_rows}")
    cells = []
    for cell in grid.cells:
        top = max(cell.anchor_row, start)
        bottom = min(cell.anchor_row + cell.rowspan, stop)
        if bottom <= top:
            continue
        kept = cell.anchor_row >= start
        cells.append(
            GridCell(
                top - start,
                cell.anchor_col,
                bottom - top,
                cell.colspan,
                cell.content if kept else "",
                cell.is_header if kept else False,
            )
        )
    return grid_from_cells_reference(stop - start, grid.n_cols, cells)


def _remap_columns_reference(grid: TableGrid, column_map, n_cols: int) -> TableGrid:
    if len(column_map) != grid.n_cols:
        raise PlanMismatch("column map length differs from fragment width")
    if sorted(column_map) != list(column_map) or len(set(column_map)) != len(column_map):
        raise PlanMismatch("column map must be increasing and injective")
    if column_map and list(column_map) != list(range(column_map[0], column_map[0] + len(column_map))):
        raise PlanMismatch("column map must be contiguous")
    if column_map and column_map[-1] >= n_cols:
        raise PlanMismatch("column map exceeds target width")
    offset = column_map[0] if column_map else 0
    cells = [
        GridCell(c.anchor_row, c.anchor_col + offset, c.rowspan, c.colspan, c.content, c.is_header)
        for c in grid.cells
    ]
    return grid_from_cells_reference(grid.n_rows, n_cols, cells)


def _vstack_reference(a: TableGrid, b: TableGrid) -> TableGrid:
    if a.n_cols != b.n_cols:
        raise PlanMismatch("cannot stack grids of different widths")
    cells = list(a.cells) + [
        GridCell(c.anchor_row + a.n_rows, c.anchor_col, c.rowspan, c.colspan, c.content, c.is_header)
        for c in b.cells
    ]
    return grid_from_cells_reference(a.n_rows + b.n_rows, a.n_cols, cells)


def merge_reference(a: TableGrid, b: TableGrid, plan: MergePlan) -> TableGrid:
    """Apply a merge plan by slicing B, remapping its columns and stacking it
    under A, each step a full grid rebuild; pattern 3 first rebuilds A with
    the joined boundary contents, keyed by cell anchor."""
    if plan.pattern is Pattern.NO_MERGE:
        raise PlanMismatch("cannot merge with a NO_MERGE plan")
    if len(plan.column_map) != b.n_cols:
        raise PlanMismatch("plan column map does not cover fragment B")
    if plan.pattern is Pattern.PATTERN1:
        if not 1 <= plan.header_rows_to_drop <= b.n_rows:
            raise PlanMismatch("header drop count outside fragment B")
        body = slice_rows(b, plan.header_rows_to_drop, b.n_rows)
        return _vstack_reference(a, _remap_columns_reference(body, plan.column_map, a.n_cols))
    if plan.pattern is Pattern.PATTERN2:
        return _vstack_reference(a, _remap_columns_reference(b, plan.column_map, a.n_cols))
    if plan.boundary_join is None:
        raise PlanMismatch("pattern 3 requires boundary join instructions")
    last = a.n_rows - 1
    joined: dict[tuple[int, int], str] = {}
    consumed: set[tuple[int, int]] = set()
    for join in plan.boundary_join:
        if join.b_col >= b.n_cols or join.a_col >= a.n_cols:
            raise PlanMismatch("boundary join outside grid bounds")
        b_cell = b.cell_at(0, join.b_col)
        key = (b_cell.anchor_row, b_cell.anchor_col)
        if key in consumed or not b_cell.content:
            continue
        consumed.add(key)
        a_cell = a.cell_at(last, join.a_col)
        a_key = (a_cell.anchor_row, a_cell.anchor_col)
        joined[a_key] = joined.get(a_key, a_cell.content) + join.separator + b_cell.content
    new_a_cells = [
        GridCell(
            c.anchor_row,
            c.anchor_col,
            c.rowspan,
            c.colspan,
            joined.get((c.anchor_row, c.anchor_col), c.content),
            c.is_header,
        )
        for c in a.cells
    ]
    a_joined = grid_from_cells_reference(a.n_rows, a.n_cols, new_a_cells)
    rest = slice_rows(b, 1, b.n_rows)
    if rest.n_rows == 0:
        return a_joined
    return _vstack_reference(a_joined, _remap_columns_reference(rest, plan.column_map, a.n_cols))


def normalize_grid_reference(rows) -> TableGrid:
    """The HTML table layout of rows of ``(content, rowspan, colspan,
    is_header)`` tuples with one ``claim`` call per grid position, a padding
    scan over every row, and a final renumbering into anchor order."""
    n_rows = len(rows)
    warnings: list[str] = []
    cells: list[GridCell] = []
    occ: list[list[int | None]] = [[] for _ in range(n_rows)]

    def claim(r: int, c: int, idx: int):
        row = occ[r]
        while len(row) <= c:
            row.append(None)
        if row[c] is not None:
            raise SpanConflict(f"position ({r},{c}) claimed twice")
        row[c] = idx

    for r, raw_row in enumerate(rows):
        cursor = 0
        for content, raw_rowspan, raw_colspan, is_header in raw_row:
            row = occ[r]
            while cursor < len(row) and row[cursor] is not None:
                cursor += 1
            rowspan = min(raw_rowspan, MAX_ROWSPAN, n_rows - r)
            if rowspan != raw_rowspan:
                warnings.append(
                    f"clipped rowspan {raw_rowspan}->{rowspan} at ({r},{cursor})"
                )
            colspan = min(raw_colspan, MAX_COLSPAN)
            if colspan != raw_colspan:
                warnings.append(
                    f"clipped colspan {raw_colspan}->{colspan} at ({r},{cursor})"
                )
            if n_rows * (cursor + colspan) > MAX_GRID_POSITIONS:
                raise MalformedMarkup(
                    f"table exceeds {MAX_GRID_POSITIONS} grid positions at ({r},{cursor})"
                )
            idx = len(cells)
            cells.append(GridCell(r, cursor, rowspan, colspan, content, is_header))
            for rr in range(r, r + rowspan):
                for cc in range(cursor, cursor + colspan):
                    claim(rr, cc, idx)
            cursor += colspan

    n_cols = max((len(row) for row in occ), default=0)
    for r in range(n_rows):
        row = occ[r]
        while len(row) < n_cols:
            row.append(None)
        padded = 0
        for c in range(n_cols):
            if row[c] is None:
                idx = len(cells)
                cells.append(GridCell(r, c, 1, 1, "", False))
                row[c] = idx
                padded += 1
        if padded:
            warnings.append(f"padded {padded} empty cell{'s' * (padded > 1)} in row {r}")

    ordered = sorted(range(len(cells)), key=lambda i: (cells[i].anchor_row, cells[i].anchor_col))
    remap = {old: new for new, old in enumerate(ordered)}
    return TableGrid(
        n_rows,
        n_cols,
        tuple(cells[i] for i in ordered),
        tuple(tuple(remap[i] for i in row) for row in occ),  # type: ignore[misc]
        tuple(warnings),
    )


def grid_from_cells_reference(n_rows: int, n_cols: int, cells) -> TableGrid:
    """Explicit cells laid out one position at a time, padded, and renumbered
    in anchor order through a dict. Expects anchors >= 0 and spans >= 1."""
    occ: list[list[int | None]] = [[None] * n_cols for _ in range(n_rows)]
    out = list(cells)
    for idx, cell in enumerate(out):
        if cell.anchor_row + cell.rowspan > n_rows or cell.anchor_col + cell.colspan > n_cols:
            raise SpanConflict(
                f"cell at ({cell.anchor_row},{cell.anchor_col}) leaves the grid"
            )
        for r in range(cell.anchor_row, cell.anchor_row + cell.rowspan):
            for c in range(cell.anchor_col, cell.anchor_col + cell.colspan):
                if occ[r][c] is not None:
                    raise SpanConflict(f"position ({r},{c}) claimed twice")
                occ[r][c] = idx
    for r in range(n_rows):
        for c in range(n_cols):
            if occ[r][c] is None:
                occ[r][c] = len(out)
                out.append(GridCell(r, c, 1, 1, "", False))
    ordered = sorted(range(len(out)), key=lambda i: (out[i].anchor_row, out[i].anchor_col))
    remap = {old: new for new, old in enumerate(ordered)}
    return TableGrid(
        n_rows,
        n_cols,
        tuple(out[i] for i in ordered),
        tuple(tuple(remap[i] for i in row) for row in occ),  # type: ignore[misc]
    )


def grid_to_rows(grid: TableGrid) -> list[list[tuple[str, int, int, bool]]]:
    """The ``(content, rowspan, colspan, is_header)`` rows that lay out back
    to ``grid``, for grids that satisfy the invariants."""
    rows: list[list[tuple[str, int, int, bool]]] = [[] for _ in range(grid.n_rows)]
    for c in grid.cells:
        rows[c.anchor_row].append((c.content, c.rowspan, c.colspan, c.is_header))
    return rows


def crop_reference(buffer: PixelBuffer, rect) -> PixelBuffer:
    """The pixels under ``rect``, which must lie inside the buffer, cut as
    one bytes slice per row and joined."""
    x1, y1, x2, y2 = rect
    rows = [
        buffer.data[(y * buffer.width + x1) * 3 : (y * buffer.width + x2) * 3]
        for y in range(y1, y2)
    ]
    return PixelBuffer(x2 - x1, y2 - y1, b"".join(rows))


def mask_reference(
    raw: bytes, path: str, table_bbox, detections: list[ImageDetection]
) -> dict[str, bytes]:
    """What ``docpost mask`` computes from a page file's every byte ``raw``:
    the table crop under ``"crop"``, and the bytes of each output file under
    its name after the out prefix (``".masked.ppm"``, ``"_img<k>.ppm"``).
    Raises what the command reports, in the same order: the page's header,
    maxval and length, then the table bbox against the page. A page that is
    not a PPM is the error of a run without Pillow."""
    if raw[:2] != b"P6":
        raise FormatError(
            f"{path} is not a PPM and Pillow is not installed (pip install docpost[images])"
        )
    page = read_ppm(raw)
    x1, y1, x2, y2 = table_bbox
    if not (0 <= x1 < x2 <= page.width and 0 <= y1 < y2 <= page.height):
        raise ImageInputError(
            f"table bbox {tuple(table_bbox)} is empty or reaches past the "
            f"{page.width}x{page.height} page"
        )
    plan, pmap = plan_masks(tuple(table_bbox), detections)
    crop = crop_reference(page, table_bbox)
    out = {"crop": crop.data, ".masked.ppm": write_ppm(apply_masks(crop, plan))}
    for entry in pmap.entries:
        out[f"_img{entry.id}.ppm"] = write_ppm(crop_reference(page, entry.bbox))
    return out
