"""HTML tables -> normalized span-aware grids and back.

The grid is the universal table representation for the rest of the package:
every position of an ``n_rows x n_cols`` matrix is owned by exactly one cell
(span rectangles partition the grid). Parsing is tag-soup tolerant because
recognizer output is near-HTML, not validated HTML. One token regex reads
any markup in time linear in its length, and markup that the input ends
inside is cell text to the end of the input.
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass, field
from html import unescape
from typing import Iterator, NamedTuple

from .errors import DomainError


class TableError(DomainError):
    """Base class for table parsing/normalization errors."""


class NoTableFound(TableError):
    """The input contains no <table> element."""


class MalformedMarkup(TableError):
    """Table markup is broken beyond the recoverable tag-soup cases."""


class SpanConflict(TableError):
    """Two cells claim the same grid position."""


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

    # Not a field, so equality, hash and repr ignore it. The grid is frozen,
    # so its serialization cannot go stale.
    @functools.cached_property
    def _html(self) -> str:
        return _serialize(self)


def normalize_text(s: str) -> str:
    """Comparison normalization: trim, collapse whitespace (the characters
    for which ``str.isspace`` is true), case-fold."""
    return " ".join(s.split()).casefold()


_NUMBER_RE = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?%?")


def looks_numeric(s: str) -> bool:
    """True when the trimmed content is a bare number (commas tolerated)."""
    s = s.strip().replace(",", "")
    return bool(s) and _NUMBER_RE.fullmatch(s) is not None


# Tags with table-structural meaning; everything else inside a cell is kept
# verbatim as opaque content.
_STRUCTURE_TAGS = {"table", "thead", "tbody", "tfoot", "tr", "td", "th"}

# The shape serialize_grid writes for a cell: a lowercase <td> or <th> tag
# with rowspan then colspan (double-quoted, 1-6 digits: int() refuses very
# long ones), and content made of text free of "<" and "&", <img> tags with
# lowercase attribute names and plain double-quoted values, and complete
# &name; or &#digits; references, which the other tokens would keep
# verbatim too. Content is matched as text (token text)* so that a failed
# match cannot backtrack through the ways of splitting a text run. It is the
# first token kind, so its groups are numbers 1 to 4.
_CANONICAL_CELL = (
    r'<(?P<tag>t[dh])(?: rowspan="(?P<rowspan>\d{1,6})")?(?: colspan="(?P<colspan>\d{1,6})")?>'
    r'(?P<content>[^<&]*(?:(?:<img(?: [a-z][a-z0-9-]*="[^"<>&]*")*(?: ?/)?>'
    r"|&(?:[a-zA-Z][a-zA-Z0-9]*|#[0-9]+);)[^<&]*)*)</(?P=tag)>"
)
# whitespace and slashes after a start tag's name or attribute, except a
# slash right before ">"
_SKIP = r"(?:\s|/(?!>))*"
# the keywords of the marked sections <![keyword ...]>, which are dropped
_SECTION = r"(?ai:cdata|ignore|include|rcdata|temp)(?![-_.a-zA-Z0-9])"
_CONDITION = r"(?ai:else|endif|if)(?![-_.a-zA-Z0-9])"

# The token kinds, tried in order. Each pattern starts with a literal
# character where it can, so the regex engine skips the alternatives that
# cannot start at a position, and ends in an empty group that Match.lastgroup
# names. A failing alternative reads only as far as its markup could reach;
# when that is the end of the input, the markup is text to the end.
_TOKENS = (
    ("cell", _CANONICAL_CELL),
    ("row", r"<(?:/tr><tr|tr|/tr)>"),  # the row tags serialize_grid writes
    # a start tag's name; attributes follow unless it is closed here
    ("start", rf"<(?P<name>[a-zA-Z][^\t\n\r\f />\x00]*){_SKIP}(?P<close>/?>)?"),
    ("end", r"</(?:\s*(?P<endname>[a-zA-Z][-.a-zA-Z0-9:_]*)\s*"
            r"|(?P<loosename>[a-zA-Z][^\t\n\r\f />\x00]*)[^>]*)>"),
    # end tags without a name, processing instructions, declarations and
    # marked sections, which are dropped
    ("drop", r"<(?:/>|\?[^>]*>|!(?ai:doctype)[^>]*>"
             rf"|!\[{_SECTION}(?s:.*?)\]\s*\]\s*>|!\[{_CONDITION}(?s:.*?)\]\s*>)"),
    # comments, and other "</" or "<!" markup, read as comments
    ("comment", r"<(?:!--(?P<note>(?s:.*?))--\s*>|/(?P<bogus>[^>]+)>"
                rf"|!(?!--|\[{_SECTION}|\[{_CONDITION})(?P<decl>[^>]*)>)"),
    # references, ended by ";" or by any character that cannot continue them
    ("ref", r"&(?P<refname>#(?:[0-9]+|[xX][0-9a-fA-F]+)(?=[^0-9a-fA-F])"
            r"|[a-zA-Z][-.a-zA-Z0-9]*(?=[^a-zA-Z0-9]));?"),
    # text, with the "<" and "&" that start no markup
    ("text", r"(?:[^<&]+|<+(?![a-zA-Z/!?])[^<&]*|&+(?![a-zA-Z#])[^<&]*)"),
    ("stray", r"[<&]"),  # a "<" or "&" that may start markup the input ends inside
)


@functools.cache
def _patterns() -> tuple[re.Pattern, re.Pattern, re.Pattern]:
    # Compiled on first use: commands that parse no table skip the cost.
    return (
        re.compile("|".join(f"{pattern}(?P<{kind}>)" for kind, pattern in _TOKENS)),
        # one attribute of a start tag: a name, then "=" and a quoted, bare
        # or empty value
        re.compile(
            r"(?<=['\"\s/])(?P<key>[^\s/>][^\s/=>]*)"
            rf"(?:\s*=+\s*(?P<value>'[^']*'|\"[^\"]*\"|(?!['\"])[^>\s]*)\s*)?{_SKIP}"
        ),
        re.compile(r"</\s*(script|style)\s*>", re.IGNORECASE),
    )


# compiled on first use, like _patterns(): commands that read no <img> tag skip the cost
_img_tag_pattern = functools.cache(functools.partial(re.compile, r"<img\b[^>]*>", re.IGNORECASE))


def img_tags(text: str) -> Iterator[re.Match]:
    """The ``<img>`` tags of ``text``, each from ``<img`` to the next ``>``; none starts after
    the last ``>``, so the scan stops there. Restore, verify and the rule reward count by it."""
    return _img_tag_pattern().finditer(text, 0, text.rfind(">") + 1)


def _span(value: str | None) -> int:
    """A rowspan or colspan attribute value as an int of at least 1, once
    references are resolved; 1 when it is missing or not an integer."""
    if value and value[0] in "'\"":
        value = value[1:-1]
    try:
        return max(int(unescape(value).strip()), 1) if value else 1
    except ValueError:
        return 1


def _table_rows(html: str) -> list[list[tuple[str, int, int, bool]]]:
    """The ``(content, rowspan, colspan, is_header)`` rows of the first
    <table> in ``html``, in one pass of the token regex.

    Missing </td>, </tr> and </table> are closed implicitly; a <table> inside
    a cell is cell content and one between rows is skipped. Cell content
    keeps start tags verbatim and writes end tags as ``</tag>`` (lowercase),
    references as ``&name;`` or ``&#n;`` and comments as ``<!--x-->``;
    declarations and processing instructions are dropped, and <script> and
    <style> content is text up to its end tag. Markup that the input ends
    inside is text to the end, and so is all from a malformed "&#" when no
    ";" follows or an earlier one was read; otherwise that "&#" is text.
    """
    token, attribute, rawtext_end = _patterns()
    rows: list[list[tuple[str, int, int, bool]]] = []
    row: list[tuple[str, int, int, bool]] | None = None
    spans: tuple[int, int, bool] | None = None  # rowspan, colspan, header of the open cell
    parts: list[str] = []  # its content; text read with no cell open is never joined
    in_table = in_thead = malformed_charref = False
    nested = 0  # tables open inside the table
    pos = 0
    n = len(html)
    while pos < n:
        resume = n  # where the next pass of the token regex starts
        for m in token.finditer(html, pos):
            kind = m.lastgroup
            if kind == "cell":
                if nested:
                    parts.append(m[0])
                elif in_table:
                    if spans:
                        row.append(("".join(parts), *spans))
                        spans = None
                    rowspan, colspan = m[2], m[3]  # a subscript costs less than group()
                    rowspan = max(int(rowspan), 1) if rowspan else 1
                    colspan = max(int(colspan), 1) if colspan else 1
                    cell = (m[4], rowspan, colspan, m[1] == "th" or in_thead)
                    if row is None:
                        row = [cell]
                    else:
                        row.append(cell)
            elif kind == "text":
                parts.append(m[0])
            elif kind == "start":
                name, close = m.group("name", "close")
                end = m.end()
                attrs: dict[str, str | None] = {}
                if close is None:
                    # one match per attribute: one match over all of them
                    # would keep the regex engine's state for each
                    while a := attribute.match(html, end):
                        end = a.end()
                        attrs.setdefault(a["key"].lower(), a["value"])
                    close = ">" if html.startswith(">", end) else "/>" if html.startswith("/>", end) else ""
                    if not close:
                        after = html[end : end + 1]
                        if not after or after in "=/" or after.isascii() and after.isalpha():
                            parts.append(html[m.start() :])  # unterminated
                            break
                        # followed by a character that neither starts an
                        # attribute nor ends the tag: text
                        parts.append(html[m.start() : end])
                        if end == m.end():
                            continue
                        resume = end
                        break
                    end += len(close)
                tag = name.lower()
                empty = close == "/>"
                if not in_table:
                    in_table = tag == "table" and not empty
                elif nested or tag not in _STRUCTURE_TAGS or tag == "table" and not empty and spans:
                    nested += tag == "table" and not empty
                    parts.append(html[m.start() : end])
                elif tag in ("td", "th") or tag == "tr" and not empty:
                    if spans:
                        row.append(("".join(parts), *spans))
                        spans = None
                    if tag == "tr":
                        if row is not None:
                            rows.append(row)
                        row = []
                    else:
                        if row is None:
                            row = []
                        header = tag == "th" or in_thead
                        spans = (_span(attrs.get("rowspan")), _span(attrs.get("colspan")), header)
                        parts = []
                        if empty:
                            row.append(("", *spans))
                            spans = None
                elif not empty and tag in ("thead", "tbody", "tfoot"):
                    in_thead = tag == "thead"
                elif not empty and tag == "table":  # between rows: near-HTML garbage, skipped
                    nested += 1
                if tag in ("script", "style") and not empty:
                    # text up to the matching end tag, which the next pass reads
                    closes = (c.start() for c in rawtext_end.finditer(html, end) if c[1].lower() == tag)
                    resume = next(closes, n)
                    parts.append(html[end:resume])
                    break
                if end != m.end():
                    resume = end
                    break
            elif kind == "row" or kind == "end":
                # a row token ends a row, or starts one, or both
                tag = "tr" if kind == "row" else (m["endname"] or m["loosename"]).lower()
                if not in_table:
                    pass
                elif nested or tag not in _STRUCTURE_TAGS:
                    nested -= tag == "table"
                    parts.append(m[0] if kind == "row" else f"</{tag}>")
                elif tag in ("td", "th", "tr", "table"):
                    if spans:
                        row.append(("".join(parts), *spans))
                        spans = None
                    if tag != "td" and tag != "th" and row is not None:
                        rows.append(row)
                        row = None
                    if kind == "row" and m[0] != "</tr>":
                        row = []
                    elif tag == "table":
                        break
                elif tag == "thead":
                    in_thead = False
            elif kind == "stray":
                after = html[m.end() : m.end() + 1]
                if m[0] == "<":
                    unterminated = after in ("/", "!", "?")
                elif after == "#":
                    unterminated = malformed_charref or ";" not in html[m.end() :]
                    malformed_charref = True
                else:
                    unterminated = after.isascii() and after.isalpha()
                if unterminated:
                    parts.append(html[m.start() :])
                    break
                parts.append(m[0])
            elif kind == "ref":
                parts.append(f"&{m['refname']};")
            elif kind == "comment":
                note = next(g for g in m.group("note", "bogus", "decl") if g is not None)
                parts.append(f"<!--{note}-->")
        pos = resume
    if not in_table:
        raise NoTableFound("no <table> element in input")
    if spans:
        row.append(("".join(parts), *spans))
    if row is not None:
        rows.append(row)
    if not any(rows):
        raise MalformedMarkup("table has no cells")
    # Empty <tr></tr> rows are kept: they carry positions owned by rowspans
    # from rows above (canonical serialization emits them).
    return rows


# The HTML table model's span limits: larger values are clamped to them.
MAX_COLSPAN = 1000
MAX_ROWSPAN = 65534
# Upper bound on n_rows * n_cols of a normalized grid; larger tables are
# rejected as malformed, since padding would make one cell per position.
MAX_GRID_POSITIONS = 100_000


# builds a GridCell from all six fields without NamedTuple.__new__'s Python call
_new_tuple = tuple.__new__


def _layout(rows) -> TableGrid:
    """Lay out ragged rows of ``(content, rowspan, colspan, is_header)``
    tuples (spans >= 1, at least one row) with the standard HTML table
    algorithm.

    Each cell lands at the leftmost free column of its row and claims its
    span rectangle. Ragged rows are padded with empty 1x1 cells; rowspans
    overflowing the bottom edge, and spans over the HTML limits
    (:data:`MAX_COLSPAN`, :data:`MAX_ROWSPAN`), are clipped. All of these are
    recorded in ``grid.warnings`` instead of raised: one warning per clipped
    span and one per padded row. A grid that would have
    more than :data:`MAX_GRID_POSITIONS` positions raises
    :class:`MalformedMarkup` before the cell that would widen it is placed.
    """
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


def _stack(top: TableGrid, bottom: TableGrid) -> TableGrid:
    """``bottom``'s rows under ``top``'s, in one grid of ``top``'s width.

    No cell is laid out again: both grids come from :func:`_finish_grid`, so
    each is padded and in anchor order, and every cell of ``top`` comes
    before every cell of ``bottom``, which moves down ``top.n_rows`` rows and
    ``len(top.cells)`` places in ``cells``."""
    shift = top.n_rows
    base = len(top.cells)
    moved = [
        _new_tuple(GridCell, (row + shift, col, rowspan, colspan, content, is_header))
        for row, col, rowspan, colspan, content, is_header in bottom.cells
    ]
    occupancy = top.occupancy + tuple(tuple(i + base for i in row) for row in bottom.occupancy)
    return TableGrid(shift + bottom.n_rows, top.n_cols, top.cells + tuple(moved), occupancy)


def serialize_grid(grid: TableGrid) -> str:
    """Canonical byte-deterministic HTML: cells at anchors, spans only when > 1.

    Computed once per grid object and kept on it."""
    return grid._html


def _serialize(grid: TableGrid) -> str:
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
    """Parse the first <table> in ``html`` and lay it out with :func:`_layout`.

    <th> cells and cells inside <thead> are headers, and markup inside a cell
    (including <img> tags) is kept verbatim; :func:`_table_rows` gives the
    rules, including that markup the input ends inside is text to the end.
    Raises :class:`NoTableFound` when there is no table element and
    :class:`MalformedMarkup` when the table yields no cells.
    """
    return _layout(_table_rows(html))


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
