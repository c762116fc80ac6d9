"""Shared generators and grid-splitting helpers for the test suite."""

from __future__ import annotations

import contextlib
import http.server
import json
import random
import shlex
import sys
import threading

from docpost.table_grid import GridCell, TableGrid, grid_from_cells
from oracles import slice_rows

# One row of 200 cells 1000 wide over a one-cell row: 5,043 bytes that would
# lay out as a 2x200,000 grid, over table_grid.MAX_GRID_POSITIONS.
WIDE_ROW_TABLE = (
    "<table><tr>" + '<td colspan="1000">x</td>' * 200 + "</tr><tr><td>y</td></tr></table>"
)

# Alphabet deliberately avoids markup metacharacters so serialized content
# survives the tag-soup parser byte-for-byte.
WORDS = (
    "Alpha", "Bravo", "Carbon", "Delta", "Echo", "Foxtrot", "Gamma",
    "Hotel", "India", "Julia", "Kilo", "Lima", "Metric", "Nova",
)


def random_cell_text(rng: random.Random, row: int, col: int) -> str:
    return f"{rng.choice(WORDS)} {row}{col}"


def random_grid(
    rng: random.Random,
    n_rows: int,
    n_cols: int,
    span_prob: float = 0.25,
    header_rows: int = 0,
    blocked_boundaries: set[int] | None = None,
    content=random_cell_text,
) -> TableGrid:
    """Random span tiling of an n_rows x n_cols grid.

    ``blocked_boundaries`` lists row boundaries (split indices) that no
    rowspan may cross, so tests can split the grid there afterwards.
    Construction is independent of the table layout: cells are tiled directly.
    """
    blocked = blocked_boundaries or set()
    taken = [[False] * n_cols for _ in range(n_rows)]
    cells: list[GridCell] = []
    for r in range(n_rows):
        for c in range(n_cols):
            if taken[r][c]:
                continue
            rowspan = colspan = 1
            if rng.random() < span_prob:
                if rng.random() < 0.5:
                    limit = r + 1
                    while limit < n_rows and limit not in blocked and not taken[limit][c]:
                        limit += 1
                    rowspan = rng.randint(1, max(1, min(limit - r, 3)))
                else:
                    limit = c + 1
                    while limit < n_cols and not taken[r][limit]:
                        limit += 1
                    colspan = rng.randint(1, max(1, min(limit - c, 3)))
                # header rows must stay within the header band
                if r < header_rows and r + rowspan > header_rows:
                    rowspan = header_rows - r
            ok = all(
                not taken[rr][cc]
                for rr in range(r, r + rowspan)
                for cc in range(c, c + colspan)
            )
            if not ok:
                rowspan = colspan = 1
            for rr in range(r, r + rowspan):
                for cc in range(c, c + colspan):
                    taken[rr][cc] = True
            cells.append(
                GridCell(r, c, rowspan, colspan, content(rng, r, c), r < header_rows)
            )
    return grid_from_cells(n_rows, n_cols, cells)


def set_content(grid: TableGrid, row: int, col: int, content: str) -> TableGrid:
    """Copy of the grid with the covering cell's content replaced."""
    target = grid.cell_at(row, col)
    cells = [
        GridCell(c.anchor_row, c.anchor_col, c.rowspan, c.colspan, content, c.is_header)
        if c == target
        else c
        for c in grid.cells
    ]
    return grid_from_cells(grid.n_rows, grid.n_cols, cells)


def split_with_header_copy(grid: TableGrid, split: int, header_rows: int):
    """Split at a row boundary, copying the header band onto the bottom part."""
    top = slice_rows(grid, 0, split)
    header = slice_rows(grid, 0, header_rows)
    bottom = slice_rows(grid, split, grid.n_rows)
    cells = list(header.cells) + [
        GridCell(
            c.anchor_row + header_rows, c.anchor_col, c.rowspan, c.colspan, c.content, c.is_header
        )
        for c in bottom.cells
    ]
    return top, grid_from_cells(header_rows + bottom.n_rows, grid.n_cols, cells)


def split_row_mid_word(grid: TableGrid, split_row: int, col: int, cut: int):
    """Split the covering cell's content at ``cut`` and divide the grid there:
    the top part keeps the prefix, the bottom part starts with a row holding
    the suffix and empty cells elsewhere."""
    victim = grid.cell_at(split_row, col)
    prefix, suffix = victim.content[:cut], victim.content[cut:]
    top = set_content(slice_rows(grid, 0, split_row + 1), split_row, col, prefix)
    bottom = slice_rows(grid, split_row, grid.n_rows)
    cells = []
    for c in bottom.cells:
        if c.anchor_row == 0:
            content = suffix if c.anchor_col == victim.anchor_col else ""
            cells.append(GridCell(0, c.anchor_col, c.rowspan, c.colspan, content, False))
        else:
            cells.append(c)
    return top, grid_from_cells(bottom.n_rows, grid.n_cols, cells)


# -- external scorers ---------------------------------------------------------------

CONTINUATION_KEYS = {"tail_cells", "head_cells", "column_map"}
REWARD_KEYS = {"original_descriptor", "candidate_html", "rendered_canonical"}


def keyset_scorer_cmd(keys: set[str], score: float) -> str:
    """Command line of a scorer that prints ``score`` only when the payload's
    keys are exactly ``keys``; any other payload gets no answer, a failure."""
    script = (
        "import json, sys\n"
        f"if sorted(json.loads(sys.stdin.readline())) == {sorted(keys)!r}:\n"
        f"    print({score!r})\n"
    )
    return shlex.join([sys.executable, "-c", script])


@contextlib.contextmanager
def scorer_server(body: bytes):
    """HTTP scorer answering every POST with ``body``. Yields its URL and the
    list of ``(Content-Type, payload)`` pairs it has received."""
    received = []

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_POST(self):
            data = self.rfile.read(int(self.headers["Content-Length"]))
            received.append((self.headers["Content-Type"], json.loads(data)))
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}/score", received
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
