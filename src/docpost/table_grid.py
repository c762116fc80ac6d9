"""HTML table fragments -> normalized span-aware grids and back.

The grid is the universal table representation for the rest of the package:
every position of an ``n_rows x n_cols`` matrix is owned by exactly one cell
(span rectangles partition the grid). Parsing is tag-soup tolerant because
recognizer output is near-HTML, not validated HTML.
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass, field
from html.parser import HTMLParser
from typing import NamedTuple

from .errors import DomainError


class TableError(DomainError):
    """Base class for table parsing/normalization errors."""


class NoTableFound(TableError):
    """The input contains no <table> element."""


class MalformedMarkup(TableError):
    """Table markup is broken beyond the recoverable tag-soup cases."""


class SpanConflict(TableError):
    """Two cells claim the same grid position."""


class RawCell(NamedTuple):
    content: str
    rowspan: int = 1
    colspan: int = 1
    is_header: bool = False


@dataclass(frozen=True)
class TableFragment:
    """Rows of raw cells as they appeared in markup; may be ragged."""

    rows: tuple[tuple[RawCell, ...], ...]

    def __post_init__(self):
        if not self.rows:
            raise ValueError("fragment needs at least one row")
        for row in self.rows:
            for cell in row:
                if cell.rowspan < 1 or cell.colspan < 1:
                    raise ValueError("cell spans must be >= 1")


class GridCell(NamedTuple):
    anchor_row: int
    anchor_col: int
    rowspan: int
    colspan: int
    content: str
    is_header: bool = False


@dataclass(frozen=True)
class TableGrid:
    """Normalized occupancy matrix; ``occupancy[r][c]`` indexes into ``cells``.

    ``cells`` is in row-major anchor order, ``(anchor_row, anchor_col)``,
    whichever constructor built the grid, so two grids are equal exactly
    when their layouts and contents are.
    """

    n_rows: int
    n_cols: int
    cells: tuple[GridCell, ...]
    occupancy: tuple[tuple[int, ...], ...]
    warnings: tuple[str, ...] = field(default=(), compare=False)

    def cell_at(self, row: int, col: int) -> GridCell:
        return self.cells[self.occupancy[row][col]]

    def content_at(self, row: int, col: int) -> str:
        return self.cell_at(row, col).content

    def row_contents(self, row: int) -> list[str]:
        """Per-position contents of one grid row (spanned cells repeat)."""
        return [self.cell_at(row, c).content for c in range(self.n_cols)]


_WHITESPACE_RE = re.compile(r"\s+")


def normalize_text(s: str) -> str:
    """Comparison normalization: trim, collapse whitespace, case-fold."""
    return _WHITESPACE_RE.sub(" ", s.strip()).casefold()


_NUMBER_RE = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?%?")


def looks_numeric(s: str) -> bool:
    """True when the trimmed content is a bare number (commas tolerated)."""
    s = s.strip().replace(",", "")
    return bool(s) and _NUMBER_RE.fullmatch(s) is not None


# Tags with table-structural meaning; everything else inside a cell is kept
# verbatim as opaque content.
_STRUCTURE_TAGS = {"table", "thead", "tbody", "tfoot", "tr", "td", "th"}


class _TableSoupParser(HTMLParser):
    """Collects the first <table> element from near-HTML input.

    Missing </td>, </tr> and </table> are closed implicitly. A nested
    <table> inside a cell is treated as opaque cell content.
    """

    def __init__(self):
        super().__init__(convert_charrefs=False)
        self.rows: list[list[RawCell]] = []
        self.done = False
        self._in_table = False
        self._in_thead = False
        self._nested_table = 0
        self._row: list[RawCell] | None = None
        self._cell_parts: list[str] | None = None
        self._cell_attrs: tuple[int, int, bool] | None = None  # rowspan, colspan, header

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _span_attr(attrs, name) -> int:
        for key, value in attrs:
            if key == name:
                try:
                    span = int(str(value).strip())
                except (TypeError, ValueError):
                    return 1
                return max(span, 1)
        return 1

    def _open_cell(self, attrs, header: bool):
        self._close_cell()
        if self._row is None:
            self._row = []
        self._cell_parts = []
        self._cell_attrs = (
            self._span_attr(attrs, "rowspan"),
            self._span_attr(attrs, "colspan"),
            header or self._in_thead,
        )

    def _close_cell(self):
        if self._cell_parts is None:
            return
        rowspan, colspan, header = self._cell_attrs
        assert self._row is not None
        self._row.append(
            RawCell("".join(self._cell_parts), rowspan, colspan, header)
        )
        self._cell_parts = None
        self._cell_attrs = None

    def _close_row(self):
        self._close_cell()
        if self._row is not None:
            self.rows.append(self._row)
            self._row = None

    def _append_raw(self, text: str):
        if self._cell_parts is not None:
            self._cell_parts.append(text)

    # -- HTMLParser hooks ---------------------------------------------------

    def handle_starttag(self, tag, attrs):
        if self.done:
            return
        if not self._in_table:
            if tag == "table":
                self._in_table = True
            return
        if self._nested_table or (tag == "table" and self._cell_parts is not None):
            if tag == "table":
                self._nested_table += 1
            self._append_raw(self.get_starttag_text())
            return
        if tag == "thead":
            self._in_thead = True
        elif tag in ("tbody", "tfoot"):
            self._in_thead = False
        elif tag == "tr":
            self._close_row()
            self._row = []
        elif tag in ("td", "th"):
            self._open_cell(attrs, tag == "th")
        elif tag == "table":
            # <table> directly between rows: near-HTML garbage, skip over it.
            self._nested_table += 1
        else:
            self._append_raw(self.get_starttag_text())

    def handle_startendtag(self, tag, attrs):
        if self.done or not self._in_table:
            return
        if self._nested_table:
            self._append_raw(self.get_starttag_text())
            return
        if tag in ("td", "th"):
            self._open_cell(attrs, tag == "th")
            self._close_cell()
        elif tag not in _STRUCTURE_TAGS:
            self._append_raw(self.get_starttag_text())

    def handle_endtag(self, tag):
        if self.done or not self._in_table:
            return
        if self._nested_table:
            if tag == "table":
                self._nested_table -= 1
            self._append_raw(f"</{tag}>")
            return
        if tag == "table":
            self._close_row()
            self._in_table = False
            self.done = True
        elif tag == "tr":
            self._close_row()
        elif tag in ("td", "th"):
            self._close_cell()
        elif tag == "thead":
            self._in_thead = False
        elif tag not in _STRUCTURE_TAGS:
            self._append_raw(f"</{tag}>")

    def handle_data(self, data):
        self._append_raw(data)

    def handle_entityref(self, name):
        self._append_raw(f"&{name};")

    def handle_charref(self, name):
        self._append_raw(f"&#{name};")

    def handle_comment(self, data):
        self._append_raw(f"<!--{data}-->")

    def finish(self):
        self.close()
        if self._in_table:
            # Unclosed </table> at EOF: recover by closing the open row.
            self._close_row()
            self._in_table = False
            self.done = True


# The shape serialize_grid writes: lowercase <table>/<tr>/<td>/<th> tags with
# nothing between them, rowspan then colspan (double-quoted, 1-6 digits:
# int() refuses very long ones), and cell content made of text free of "<"
# and "&", <img> tags with lowercase attribute names and plain double-quoted
# values, and complete &name; or &#digits; references. _TableSoupParser
# passes such content through verbatim. Content is matched as
# text (token text)* so that a failed match cannot backtrack through the
# ways of splitting a text run.
_CANONICAL_CELL = (
    r'<(?P<tag>t[dh])(?: rowspan="(\d{1,6})")?(?: colspan="(\d{1,6})")?>'
    r'([^<&]*(?:(?:<img(?: [a-z][a-z0-9-]*="[^"<>&]*")*(?: ?/)?>'
    r"|&(?:[a-zA-Z][a-zA-Z0-9]*|#[0-9]+);)[^<&]*)*)</(?P=tag)>"
)


@functools.cache
def _canonical_patterns() -> tuple[re.Pattern, re.Pattern]:
    # Compiled on first use: commands that parse no table skip the cost. The
    # token pattern matches a row boundary, with every group empty, or a cell.
    table = rf"<table>(?:<tr>(?:{_CANONICAL_CELL})*</tr>)+</table>"
    return re.compile("</tr><tr>|" + _CANONICAL_CELL), re.compile(table)


def _parse_canonical(html: str) -> list[list[tuple[str, int, int, bool]]] | None:
    """The ``(content, rowspan, colspan, is_header)`` rows _TableSoupParser
    reads from canonical markup, else None."""
    token_re, table_re = _canonical_patterns()
    body = html.strip()
    if table_re.fullmatch(body) is None:
        return None
    rows = [row := []]
    # the fullmatch passed, so the tokens tile the body from the first <tr>
    # to the last </tr>
    for tag, rowspan, colspan, content in token_re.findall(
        body, len("<table><tr>"), len(body) - len("</tr></table>")
    ):
        if tag:
            rowspan = max(int(rowspan), 1) if rowspan else 1
            colspan = max(int(colspan), 1) if colspan else 1
            row.append((content, rowspan, colspan, tag == "th"))
        else:
            rows.append(row := [])
    # A table of empty rows is malformed; the tolerant parser reports it.
    return rows if any(rows) else None


def _parse_tolerant(html: str) -> list[list[RawCell]]:
    """The rows of the first <table> in ``html``, read by _TableSoupParser."""
    parser = _TableSoupParser()
    try:
        parser.feed(html)
        parser.finish()
    except AssertionError:  # pragma: no cover - parser internal breakage
        raise MalformedMarkup("unrecoverable markup") from None
    if not parser.done:
        raise NoTableFound("no <table> element in input")
    if not parser.rows or all(not row for row in parser.rows):
        raise MalformedMarkup("table has no cells")
    # Empty <tr></tr> rows are kept: they carry positions owned by rowspans
    # from rows above (canonical serialization emits them).
    return parser.rows


def parse_table_html(html: str) -> TableFragment:
    """Parse the first <table> in ``html`` into a :class:`TableFragment`.

    <th> cells and cells inside <thead> get ``is_header=True``. Markup inside
    a cell (including <img> tags) is preserved verbatim in ``content``.
    Raises :class:`NoTableFound` when there is no table element and
    :class:`MalformedMarkup` when the table yields no rows. Markup in the
    shape :func:`serialize_grid` writes is checked by one regex match and
    read in one scan instead of by ``html.parser``, with the same result.
    """
    rows = _parse_canonical(html)
    if rows is None:
        rows = _parse_tolerant(html)
    return TableFragment(tuple(tuple(map(RawCell._make, row)) for row in rows))


# The HTML table model's span limits: larger values are clamped to them.
MAX_COLSPAN = 1000
MAX_ROWSPAN = 65534
# Upper bound on n_rows * n_cols of a normalized grid; larger tables are
# rejected as malformed, since padding would make one cell per position.
MAX_GRID_POSITIONS = 100_000


def normalize_grid(fragment: TableFragment) -> TableGrid:
    """Lay out a fragment with the standard HTML table algorithm.

    Each cell lands at the leftmost free column of its row and claims its
    span rectangle. Ragged rows are padded with empty 1x1 cells; rowspans
    overflowing the bottom edge, and spans over the HTML limits
    (:data:`MAX_COLSPAN`, :data:`MAX_ROWSPAN`), are clipped. All of these are
    recorded in ``grid.warnings`` instead of raised: one warning per clipped
    span and one per padded row. A grid that would have
    more than :data:`MAX_GRID_POSITIONS` positions raises
    :class:`MalformedMarkup` before the cell that would widen it is placed.
    """
    return _layout(fragment.rows)


# builds a GridCell from all six fields without NamedTuple.__new__'s Python call
_new_tuple = tuple.__new__


def _layout(rows) -> TableGrid:
    """:func:`normalize_grid` over rows of ``(content, rowspan, colspan,
    is_header)`` tuples with spans >= 1, at least one row."""
    n_rows = len(rows)
    warnings: list[str] = []
    cells: list[GridCell] = []
    # occupancy rows grow on demand while cells are placed
    occ: list[list[int | None]] = [[] for _ in range(n_rows)]
    # a cell ending past this column would take the grid over the cap
    max_end = MAX_GRID_POSITIONS // n_rows

    for r, raw_row in enumerate(rows):
        row = occ[r]
        max_rowspan = min(MAX_ROWSPAN, n_rows - r)
        cursor = 0
        for content, raw_rowspan, raw_colspan, is_header in raw_row:
            while cursor < len(row) and row[cursor] is not None:
                cursor += 1
            rowspan = raw_rowspan if raw_rowspan <= max_rowspan else max_rowspan
            if rowspan != raw_rowspan:
                warnings.append(
                    f"clipped rowspan {raw_rowspan}->{rowspan} at ({r},{cursor})"
                )
            colspan = raw_colspan if raw_colspan <= MAX_COLSPAN else MAX_COLSPAN
            if colspan != raw_colspan:
                warnings.append(
                    f"clipped colspan {raw_colspan}->{colspan} at ({r},{cursor})"
                )
            end = cursor + colspan
            if end > max_end:
                raise MalformedMarkup(
                    f"table exceeds {MAX_GRID_POSITIONS} grid positions at ({r},{cursor})"
                )
            idx = len(cells)
            cells.append(_new_tuple(GridCell, (r, cursor, rowspan, colspan, content, is_header)))
            if rowspan == 1 and colspan == 1:
                # the cursor position is free, or one past the row's end
                if cursor < len(row):
                    row[cursor] = idx
                else:
                    row.append(idx)
            else:
                # Only this row can be taken: a cell from above that reached a
                # lower row here would hold this row's position as well.
                taken = row[cursor:end]
                if taken.count(None) != len(taken):
                    _raise_conflict(row, r, cursor)
                span = [idx] * colspan
                for below in occ[r : r + rowspan]:
                    if len(below) < cursor:
                        below.extend([None] * (cursor - len(below)))
                    below[cursor:end] = span
            cursor = end

    return _finish_grid(max(map(len, occ)), cells, occ, warnings)


def _raise_conflict(row: list[int | None], r: int, start: int):
    """Report the first taken position of grid row ``r`` at or after ``start``."""
    c = next(c for c in range(start, len(row)) if row[c] is not None)
    raise SpanConflict(f"position ({r},{c}) claimed twice")


def grid_from_cells(
    n_rows: int, n_cols: int, cells: list[GridCell] | tuple[GridCell, ...]
) -> TableGrid:
    """Build a grid from explicit cells; uncovered positions are padded.

    Raises :class:`SpanConflict` when two cells overlap, a span is below 1,
    or a cell leaves the grid bounds.
    """
    occ: list[list[int | None]] = [[None] * n_cols for _ in range(n_rows)]
    out = list(cells)
    for idx, (row0, col0, rowspan, colspan, _, _) in enumerate(out):
        if rowspan < 1 or colspan < 1:
            raise SpanConflict(f"cell at ({row0},{col0}) spans {rowspan}x{colspan} positions")
        end = col0 + colspan
        if row0 < 0 or col0 < 0 or row0 + rowspan > n_rows or end > n_cols:
            raise SpanConflict(f"cell at ({row0},{col0}) leaves the grid")
        if rowspan == 1 and colspan == 1:
            row = occ[row0]
            if row[col0] is not None:
                _raise_conflict(row, row0, col0)
            row[col0] = idx
            continue
        span = [idx] * colspan
        for r in range(row0, row0 + rowspan):
            row = occ[r]
            if row[col0:end].count(None) != colspan:
                _raise_conflict(row, r, col0)
            row[col0:end] = span
    return _finish_grid(n_cols, out, occ)


def _finish_grid(
    n_cols: int,
    cells: list[GridCell],
    occ: list[list[int | None]],
    warnings: list[str] | None = None,
) -> TableGrid:
    """Pad every free position of ``occ`` with an empty 1x1 cell, renumber
    the cells into anchor order and build the grid. With ``warnings``, one
    warning per padded row is appended to it."""
    for r, row in enumerate(occ):
        row.extend([None] * (n_cols - len(row)))
        if None not in row:
            continue
        padded = 0
        for c, owner in enumerate(row):
            if owner is None:
                row[c] = len(cells)
                cells.append(GridCell(r, c, 1, 1, "", False))
                padded += 1
        if warnings is not None:
            warnings.append(f"padded {padded} empty cell{'s' * (padded > 1)} in row {r}")
    occupancy = map(tuple, occ)
    # every cell owns its anchor, so anchors are unique and tuple order is
    # anchor order; renumber only cells that are out of it
    if any(map(operator.gt, cells, cells[1:])):
        ordered = sorted(range(len(cells)), key=cells.__getitem__)
        remap = [0] * len(cells)
        for new, old in enumerate(ordered):
            remap[old] = new
        cells = list(map(cells.__getitem__, ordered))
        occupancy = (tuple(map(remap.__getitem__, row)) for row in occ)
    return TableGrid(
        len(occ),
        n_cols,
        tuple(cells),
        tuple(occupancy),  # type: ignore[arg-type]
        tuple(warnings or ()),
    )


def serialize_grid(grid: TableGrid) -> str:
    """Canonical byte-deterministic HTML: cells at anchors, spans only when > 1."""
    if not grid.n_rows:
        return "<table></table>"
    parts = ["<table><tr>"]
    r = 0
    # cells are in anchor order; unpacked, since a NamedTuple field read
    # costs more than a tuple unpack
    for row, _, rowspan, colspan, content, is_header in grid.cells:
        if row != r:
            parts.append("</tr><tr>" * (row - r))
            r = row
        tag = "th" if is_header else "td"
        attrs = ""
        if rowspan > 1:
            attrs += f' rowspan="{rowspan}"'
        if colspan > 1:
            attrs += f' colspan="{colspan}"'
        parts.append(f"<{tag}{attrs}>{content}</{tag}>")
    parts.append("</tr><tr>" * (grid.n_rows - 1 - r) + "</tr></table>")
    return "".join(parts)


def parse_grid(html: str) -> TableGrid:
    """:func:`parse_table_html` then :func:`normalize_grid`, without building
    the fragment: canonical markup is checked by one regex match and its
    cells are laid out directly."""
    rows = _parse_canonical(html)
    return _layout(_parse_tolerant(html) if rows is None else rows)


def detect_header_rows(grid: TableGrid) -> int:
    """Number of leading rows whose every position is a header cell.

    When no row is tagged, falls back to a heuristic capped at one row: the
    first row counts as a header when all its cells are non-empty, none is a
    bare number, and at least one body cell in the same columns is.
    """
    k = 0
    for r in range(grid.n_rows):
        if all(grid.cell_at(r, c).is_header for c in range(grid.n_cols)):
            k += 1
        else:
            break
    if k > 0:
        return k
    if grid.n_rows < 2 or grid.n_cols == 0:
        return 0
    first = [grid.cell_at(0, c) for c in range(grid.n_cols)]
    if any(not normalize_text(c.content) for c in first):
        return 0
    if any(looks_numeric(c.content) for c in first):
        return 0
    for c in range(grid.n_cols):
        if any(looks_numeric(grid.content_at(r, c)) for r in range(1, grid.n_rows)):
            return 1
    return 0
