import random
import re
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import WIDE_ROW_TABLE, random_grid
from oracles import grid_from_cells_reference, grid_to_rows, normalize_grid_reference
from docpost import table_grid
from docpost.rewards import rule_checks
from docpost.table_grid import (
    MAX_COLSPAN,
    MAX_GRID_POSITIONS,
    MAX_ROWSPAN,
    GridCell,
    MalformedMarkup,
    NoTableFound,
    SpanConflict,
    TableError,
    detect_header_rows,
    grid_from_cells,
    looks_numeric,
    normalize_text,
    parse_grid,
    serialize_grid,
)


# -- parsing ---------------------------------------------------------------


def test_parse_minimal_table():
    rows = table_grid._parse_tolerant("<table><tr><td>a</td></tr></table>")
    assert rows == [[("a", 1, 1, False)]]


def test_parse_rowspan_attribute():
    rows = table_grid._parse_tolerant(
        '<table><tr><td rowspan="2">x</td><td>y</td></tr><tr><td>z</td></tr></table>'
    )
    assert rows == [[("x", 2, 1, False), ("y", 1, 1, False)], [("z", 1, 1, False)]]


def test_parse_no_table():
    with pytest.raises(NoTableFound):
        parse_grid("<p>no table here</p>")


def test_parse_empty_table_is_malformed():
    with pytest.raises(MalformedMarkup):
        parse_grid("<table></table>")


def test_parse_thead_and_th_mark_headers():
    rows = table_grid._parse_tolerant(
        "<table><thead><tr><td>h</td></tr></thead><tbody><tr><td>b</td></tr></tbody></table>"
    )
    assert rows == [[("h", 1, 1, True)], [("b", 1, 1, False)]]
    rows = table_grid._parse_tolerant("<table><tr><th>h</th><td>b</td></tr></table>")
    assert rows == [[("h", 1, 1, True), ("b", 1, 1, False)]]


def test_parse_preserves_cell_markup_verbatim():
    html = '<table><tr><td><img src="placeholder://0" width="10"/> and <b>bold</b></td></tr></table>'
    rows = table_grid._parse_tolerant(html)
    assert rows[0][0][0] == '<img src="placeholder://0" width="10"/> and <b>bold</b>'


def test_parse_keeps_entities_verbatim():
    rows = table_grid._parse_tolerant("<table><tr><td>a &amp; b &#38; c</td></tr></table>")
    assert rows[0][0][0] == "a &amp; b &#38; c"


def test_parse_nested_table_is_opaque_content():
    html = "<table><tr><td>outer<table><tr><td>inner</td></tr></table></td><td>x</td></tr></table>"
    rows = table_grid._parse_tolerant(html)
    assert rows == [
        [("outer<table><tr><td>inner</td></tr></table>", 1, 1, False), ("x", 1, 1, False)]
    ]


def test_parse_recovers_from_unclosed_tags():
    rows = table_grid._parse_tolerant("<table><tr><td>a<td>b<tr><td>c")
    assert [[cell[0] for cell in row] for row in rows] == [["a", "b"], ["c"]]


def test_parse_bad_span_values_default_to_one():
    rows = table_grid._parse_tolerant('<table><tr><td rowspan="x" colspan="0">a</td></tr></table>')
    assert rows == [[("a", 1, 1, False)]]


# -- normalization ----------------------------------------------------------


def test_normalize_plain_2x2():
    grid = parse_grid("<table><tr><td>a</td><td>b</td></tr><tr><td>c</td><td>d</td></tr></table>")
    assert (grid.n_rows, grid.n_cols) == (2, 2)
    assert len(grid.cells) == 4
    assert grid.warnings == ()


def test_normalize_ragged_rows_padded():
    # Manual HTML layout: row 0 -> a@(0,0), b@(0,1); row 1 -> c@(1,0); the
    # free slot (1,1) gets an empty padding cell.
    grid = parse_grid("<table><tr><td>a</td><td>b</td></tr><tr><td>c</td></tr></table>")
    assert (grid.n_rows, grid.n_cols) == (2, 2)
    assert len(grid.cells) == 4
    pad = grid.cell_at(1, 1)
    assert pad.content == "" and (pad.rowspan, pad.colspan) == (1, 1)
    assert grid.warnings == ("padded 1 empty cell in row 1",)


def test_normalize_pads_with_one_warning_per_row():
    grid = parse_grid(PADDED_AT_CAP_TABLE)
    assert (grid.n_rows, grid.n_cols, len(grid.cells)) == (100, 1000, 100_000 - 999)
    assert all(grid.cell_at(r, c) == GridCell(r, c, 1, 1, "") for r in (1, 99) for c in (1, 999))
    assert len(grid.warnings) <= grid.n_rows
    assert grid.warnings[0] == "padded 999 empty cells in row 1"
    assert not rule_checks(PADDED_AT_CAP_TABLE).rectangular


def test_normalize_rowspan_owns_column():
    # Manual layout: x@(0,0) spans rows 0-1, so occupancy column 0 is x in
    # both rows; y@(0,1), z@(1,1).
    grid = parse_grid(
        '<table><tr><td rowspan="2">x</td><td>y</td></tr><tr><td>z</td></tr></table>'
    )
    assert grid.occupancy[0][0] == grid.occupancy[1][0]
    assert grid.content_at(0, 0) == "x" and grid.content_at(1, 0) == "x"
    assert grid.content_at(1, 1) == "z"


def test_normalize_clips_overflowing_rowspan():
    grid = parse_grid('<table><tr><td rowspan="5">x</td></tr></table>')
    assert grid.n_rows == 1
    assert grid.cells[0].rowspan == 1
    assert any("clipped" in w for w in grid.warnings)


def test_normalize_clamps_colspan_to_html_limit():
    html = '<table><tr><td colspan="1000000">x</td></tr><tr><td>y</td></tr></table>'
    grid = parse_grid(html)
    assert (grid.n_rows, grid.n_cols) == (2, 1000)
    assert grid.cells[0].colspan == 1000
    assert "clipped colspan 1000000->1000 at (0,0)" in grid.warnings
    assert not rule_checks(html).rectangular


def test_normalize_clamps_rowspan_to_html_limit():
    grid = parse_grid(
        '<table><tr><td rowspan="70000">x</td></tr>' + "<tr></tr>" * 65535 + "</table>"
    )
    assert (grid.n_rows, grid.n_cols) == (65536, 1)
    assert grid.cells[0].rowspan == 65534
    assert "clipped rowspan 70000->65534 at (0,0)" in grid.warnings


# The slowest grid the cap admits: 100x1000 with 99,001 padded cells.
PADDED_AT_CAP_TABLE = (
    '<table><tr><td colspan="1000">x</td></tr>' + "<tr><td>y</td></tr>" * 99 + "</table>"
)


def test_normalize_rejects_grid_over_position_cap():
    start = time.perf_counter()
    with pytest.raises(MalformedMarkup) as raised:
        parse_grid(WIDE_ROW_TABLE)
    assert time.perf_counter() - start < 0.1
    assert str(raised.value) == f"table exceeds {MAX_GRID_POSITIONS} grid positions at (0,50000)"


def test_normalize_position_cap_counts_rows():
    row = '<tr><td colspan="1000">x</td></tr>'
    assert parse_grid("<table>" + row * 100 + "</table>").n_cols == 1000
    with pytest.raises(MalformedMarkup, match="grid positions"):
        parse_grid("<table>" + row * 101 + "</table>")


def test_normalize_accepts_grid_at_position_cap():
    grid = parse_grid("<table><tr>" + '<td colspan="1000">x</td>' * 100 + "</tr></table>")
    assert grid.n_rows * grid.n_cols == MAX_GRID_POSITIONS


def test_normalize_span_conflict():
    # colspan=2 in row 1 would jump over the slot owned by b's rowspan.
    with pytest.raises(SpanConflict):
        parse_grid(
            '<table><tr><td>a</td><td rowspan="2">b</td></tr>'
            '<tr><td colspan="2">c</td></tr></table>'
        )


def test_normalize_colspan_widens_grid():
    grid = parse_grid(
        '<table><tr><td colspan="3">w</td></tr><tr><td>a</td><td>b</td></tr></table>'
    )
    assert grid.n_cols == 3
    assert grid.cell_at(1, 2).content == ""


# -- serialization ----------------------------------------------------------


def test_serialize_minimal():
    grid = parse_grid("<table><tr><td>a</td></tr></table>")
    assert serialize_grid(grid) == "<table><tr><td>a</td></tr></table>"


def test_serialize_header_and_span_attrs():
    grid = parse_grid(
        '<table><tr><th rowspan="2" colspan="2">h</th><th>k</th></tr><tr><td>b</td></tr></table>'
    )
    out = serialize_grid(grid)
    assert '<th rowspan="2" colspan="2">h</th>' in out
    assert "<td" not in out.replace("<td>b</td>", "")  # only anchors emitted


def test_serialize_round_trip_examples():
    for html in [
        "<table><tr><td>a</td></tr></table>",
        '<table><tr><td rowspan="2">x</td><td>y</td></tr><tr><td>z</td></tr></table>',
        "<table><tr><th>h1</th><th>h2</th></tr><tr><td>a</td><td>b</td></tr></table>",
    ]:
        grid = parse_grid(html)
        assert parse_grid(serialize_grid(grid)) == grid


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(1, 6),
    n_cols=st.integers(1, 6),
    header_rows=st.integers(0, 2),
)
def test_round_trip_random_grids(seed, n_rows, n_cols, header_rows):
    grid = random_grid(
        random.Random(seed), n_rows, n_cols, header_rows=min(header_rows, n_rows)
    )
    assert parse_grid(serialize_grid(grid)) == grid


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(1, 5),
    n_cols=st.integers(1, 5),
)
def test_exact_partition_of_random_fragments(seed, n_rows, n_cols):
    rng = random.Random(seed)
    rows = []
    for _ in range(n_rows):
        row = [
            (rng.choice("abcxyz"), rng.randint(1, 3), rng.randint(1, 3), False)
            for _ in range(rng.randint(0, n_cols))
        ]
        rows.append(row)
    if all(not row for row in rows):
        rows[0] = [("a", 1, 1, False)]
    try:
        grid = table_grid._layout(rows)
    except SpanConflict:
        # a colspan jumping over an occupied slot is a legitimate rejection
        return
    assert sum(c.rowspan * c.colspan for c in grid.cells) == grid.n_rows * grid.n_cols
    seen = set()
    for r in range(grid.n_rows):
        assert len(grid.occupancy[r]) == grid.n_cols
        for c in range(grid.n_cols):
            idx = grid.occupancy[r][c]
            cell = grid.cells[idx]
            assert cell.anchor_row <= r < cell.anchor_row + cell.rowspan
            assert cell.anchor_col <= c < cell.anchor_col + cell.colspan
            seen.add(idx)
    assert seen == set(range(len(grid.cells)))


# -- tag-soup fuzz ---------------------------------------------------------

_SPAN_VALUES = st.one_of(
    st.integers(-2, 12),
    st.integers(0, 10**7),
    st.sampled_from(["", "x", " 3 ", "1e3", "2.5", "9" * 5000]),
)


@st.composite
def _cell_tag(draw):
    attrs = "".join(
        f' {name}="{draw(_SPAN_VALUES)}"'
        for name in ("rowspan", "colspan")
        if draw(st.booleans())
    )
    slash = "/" if draw(st.integers(0, 7)) == 0 else ""
    return f"<{draw(st.sampled_from(['td', 'th']))}{attrs}{slash}>"


_SOUP_TOKEN = st.one_of(
    st.sampled_from([
        "<table>", "</table>", "<tr>", "</tr>", "</td>", "</th>", "<thead>",
        "</thead>", "<tbody>", "</tbody>", '<img src="a.png">', "<!-- note -->",
        "<", "</", "<!", "&amp;", "&#x41;", "<b>", "</b>",
    ]),
    _cell_tag(),
    st.text(alphabet="ab <>/&;=\"'\n", max_size=6),
    # a run of rows, so that wide cells can reach MAX_GRID_POSITIONS
    st.integers(1, 150).map(lambda n: "<tr><td>r</td></tr>" * n),
)
_TAG_SOUP = st.tuples(st.booleans(), st.lists(_SOUP_TOKEN, max_size=80)).map(
    lambda t: ("<table>" if t[0] else "") + "".join(t[1])
)


# The slowest grid the cap admits (PADDED_AT_CAP_TABLE) parses in about
# 0.5 s on a 2-vCPU x86-64 VM under CPython 3.11; the deadline leaves 4x.
@settings(max_examples=300, deadline=2000)
@given(html=_TAG_SOUP)
@example(html=WIDE_ROW_TABLE)
@example(html=PADDED_AT_CAP_TABLE)
def test_parse_grid_tag_soup_returns_bounded_grid_or_table_error(html):
    try:
        grid = parse_grid(html)
    except TableError:
        return
    assert grid.n_rows * grid.n_cols <= MAX_GRID_POSITIONS
    assert all(len(row) == grid.n_cols for row in grid.occupancy)


# -- canonical fast path ----------------------------------------------------

# Cell contents the canonical reader accepts: text, <img> tags and complete
# entity or character references.
_CANONICAL_PIECES = (
    "Alpha", "x > y", "  spaced\ttext\n", "a &amp; b", "&#38;", "&lt;b&gt;",
    '<img src="placeholder://3">', '<img src="x.png" width="10"/>', "<img />", "",
)


def _canonical_content(rng, row, col):
    return "".join(rng.choice(_CANONICAL_PIECES) for _ in range(rng.randint(0, 3)))


def _canonical_grid(seed, n_rows, n_cols, header_rows, stretch):
    """A random grid with canonical contents; ``stretch`` doubles every rowspan,
    so that each odd row is owned from above and serializes as <tr></tr>."""
    grid = random_grid(
        random.Random(seed), n_rows, n_cols, header_rows=min(header_rows, n_rows),
        content=_canonical_content,
    )
    if not stretch:
        return grid
    cells = [
        GridCell(2 * c.anchor_row, c.anchor_col, 2 * c.rowspan, c.colspan, c.content, c.is_header)
        for c in grid.cells
    ]
    return grid_from_cells(2 * n_rows, n_cols, cells)


# Markup the canonical reader must leave to the tolerant parser.
CANONICAL_DECLINES = (
    "<table><tr><TD>a</TD></tr></table>",
    "<TABLE><tr><td>a</td></tr></TABLE>",
    "<table><tr ><td>a</td></tr></table>",
    "<table><tr><td >a</td></tr></table>",
    "<table><tr><td>a</td ></tr></table>",
    "<table><tr><td>a &amp b</td></tr></table>",
    "<table><tr><td>&amp</td></tr></table>",
    "<table><tr><td>&#x41;</td></tr></table>",
    "<table><tr><td>&#38</td></tr></table>",
    "<table><tr><td colspan='2'>a</td></tr></table>",
    "<table><tr><td colspan=2>a</td></tr></table>",
    '<table><tr><td colspan="1234567">a</td></tr></table>',
    '<table><tr><td colspan="2" rowspan="2">a</td></tr></table>',
    "<table><tr><td><img src='a.png'></td></tr></table>",
    '<table><tr><td><img alt="a>b"></td></tr></table>',
    '<table><tr><td><img SRC="a.png"></td></tr></table>',
    '<table><tr><td><img alt="a&amp;b"></td></tr></table>',
    "<table><thead><tr><td>h</td></tr></thead><tr><td>a</td></tr></table>",
    "<table><tbody><tr><td>a</td></tr></tbody></table>",
    "<table><tr><td>a</td></tr><tfoot><tr><td>f</td></tr></tfoot></table>",
    "<table><tr><td><table><tr><td>in</td></tr></table></td></tr></table>",
    "<table><tr><td>a<!-- c --></td></tr></table>",
    "<table><tr><td>a<!x></td></tr></table>",
    "<!doctype html><table><tr><td>a</td></tr></table>",
    "<table><tr><td>a < b</td></tr></table>",
    "<table><tr><td>a</td> <td>b</td></tr></table>",
    "<table><tr><td>a</td></tr>\n<tr><td>b</td></tr></table>",
    "<table>x<tr><td>a</td></tr></table>",
    "<table><tr><td>a</td></tr></table>junk",
    "<table><tr><td>a</td></tr></table><table><tr><td>b</td></tr></table>",
    "<table><tr></tr><tr></tr></table>",
    "<table></table>",
    "<table><tr><td>a</td></tr>",
    "<table><tr><td>a</th></tr></table>",
    "<table><tr><td>a<b>bold</b></td></tr></table>",
)


# Edge shapes the canonical reader accepts.
CANONICAL_EDGES = (
    ' \n<table><tr><td rowspan="0" colspan="0">a</td><td rowspan="000002">b</td></tr>'
    "<tr></tr></table>\n ",
    '<table><tr><th colspan="999999">&lt;&#0;&#99999999;</th></tr></table>',
    '<table><tr><td><img/><img><img src=""/><img data-x="a b=c\'d"></td></tr></table>',
)


_MUTATION_TOKENS = (
    "&amp", "&amp;", "<", "x", " ", "\n", "<tr>", "</tr>", "<td>", "</td>", "<th>", "</th>",
    '<td rowspan="0">', '<td colspan="07">', "<TD>", '<img alt="a>b">', "<!-- c -->",
    "<thead>", "<table>", "</table>", "&#x41;", "<td colspan='2'>", "<b>",
)


@st.composite
def _canonical_or_mutated(draw):
    grid = _canonical_grid(
        draw(st.integers(0, 2**32 - 1)),
        draw(st.integers(1, 5)),
        draw(st.integers(1, 5)),
        draw(st.integers(0, 2)),
        draw(st.booleans()),
    )
    tokens = re.findall(r"<[^>]*>|&[^;&<]*;|[^<&]+", serialize_grid(grid))
    op = draw(st.sampled_from(["keep", "insert", "replace", "delete", "upper"]))
    pos = draw(st.integers(0, len(tokens)))
    new = draw(st.sampled_from(_MUTATION_TOKENS))
    if op == "insert":
        tokens.insert(pos, new)
    elif pos < len(tokens) and op != "keep":
        tokens[pos] = {"replace": new, "delete": "", "upper": tokens[pos].upper()}[op]
    return "".join(tokens)


def _with_examples(*htmls):
    def pin(test):
        for html in htmls:
            test = example(html=html)(test)
        return test

    return pin


@settings(max_examples=300, deadline=None)
@given(html=_canonical_or_mutated())
@_with_examples(*CANONICAL_DECLINES, *CANONICAL_EDGES)
def test_canonical_reader_matches_tolerant_parser(html):
    rows = table_grid._parse_canonical(html)
    if rows is not None:
        assert rows == table_grid._parse_tolerant(html)


@pytest.mark.parametrize("html", CANONICAL_DECLINES)
def test_canonical_reader_declines(html):
    assert table_grid._parse_canonical(html) is None


@pytest.mark.parametrize("html", CANONICAL_EDGES)
def test_canonical_reader_accepts_edge_shapes(html):
    assert table_grid._parse_canonical(html) is not None


def test_serialized_grids_skip_the_tolerant_parser(monkeypatch):
    built = []

    class CountingParser(table_grid._TableSoupParser):
        def __init__(self):
            built.append(self)
            super().__init__()

    monkeypatch.setattr(table_grid, "_TableSoupParser", CountingParser)
    grids = [_canonical_grid(seed, 4, 4, seed % 3, stretch=seed % 2 == 1) for seed in range(40)]
    htmls = [serialize_grid(grid) for grid in grids]
    joined = "".join(htmls)
    for needle in ("rowspan=", "colspan=", "<th", "<img", "&amp;", "&#38;", "<tr></tr>"):
        assert needle in joined
    for grid, html in zip(grids, htmls):
        assert parse_grid(html) == grid
    assert built == []
    parse_grid("<table><tr><TD>a</TD></tr></table>")
    assert len(built) == 1


# -- parse_grid against the tolerant parser and the layout --------------------

_SPAN_EDITS = ("0", "00", "1", "07", "123456", "999999", "1234567")


def _edit_span(draw, html):
    """Set one cell's rowspan or colspan, keeping the canonical attribute order."""
    tags = list(re.finditer(r'<(t[dh])(?: rowspan="(\d+)")?(?: colspan="(\d+)")?>', html))
    tag = draw(st.sampled_from(tags))
    spans = {"rowspan": tag[2], "colspan": tag[3]}
    spans[draw(st.sampled_from(sorted(spans)))] = draw(st.sampled_from(_SPAN_EDITS))
    attrs = "".join(f' {name}="{value}"' for name, value in spans.items() if value)
    return f"{html[: tag.start()]}<{tag[1]}{attrs}>{html[tag.end() :]}"


def _edit_char(draw, html):
    """Insert, delete or replace one character."""
    pos = draw(st.integers(0, len(html)))
    new = draw(st.sampled_from(list('<>/&#;="t dhrx0\n')))
    cut = draw(st.sampled_from([0, 1]))
    return html[:pos] + draw(st.sampled_from(["", new])) + html[pos + cut :]


def _edit_tag(draw, html):
    """Uppercase one tag, or put a space or newline inside or after it."""
    tag = draw(st.sampled_from(list(re.finditer(r"<[^>]*>", html))))
    text = tag[0]
    edit = draw(st.sampled_from(["upper", "inside", "after"]))
    if edit == "upper":
        text = text.upper()
    elif edit == "inside":
        text = text[:-1] + draw(st.sampled_from([" ", "\n", " /"])) + ">"
    else:
        text += draw(st.sampled_from([" ", "\n", "\t\n  "]))
    return html[: tag.start()] + text + html[tag.end() :]


def _edit_thead(draw, html):
    """Put the first row, or the first two, inside <thead>."""
    ends = [m.end() for m in re.finditer("</tr>", html)]
    end = ends[min(draw(st.integers(0, 1)), len(ends) - 1)]
    start = len("<table>")
    return f"{html[:start]}<thead>{html[start:end]}</thead>{html[end:]}"


_EDITS = (_edit_span, _edit_char, _edit_tag, _edit_thead)


@st.composite
def _near_canonical(draw):
    """serialize_grid of a random grid with canonical contents (stretched
    grids leave empty rows), then up to three edits."""
    grid = _canonical_grid(
        draw(st.integers(0, 2**32 - 1)),
        draw(st.integers(1, 5)),
        draw(st.integers(1, 5)),
        draw(st.integers(0, 2)),
        draw(st.booleans()),
    )
    html = serialize_grid(grid)
    for edit in draw(st.lists(st.sampled_from(_EDITS), max_size=3)):
        html = edit(draw, html)
    return html


def _grid_outcome(parse, html):
    try:
        grid = parse(html)
    except TableError as exc:
        return type(exc), str(exc)
    return grid, grid.warnings


def _normalize_tolerant(html):
    return table_grid._layout(table_grid._parse_tolerant(html))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(html=st.one_of(_near_canonical(), _TAG_SOUP))
@example(html="<table><tr></tr><tr></tr></table>")
@example(html='<table><tr><td rowspan="0">a</td><td>b</td></tr><tr></tr></table>')
@example(html='<table><tr><td colspan="1234567">a</td></tr><tr><td>b</td></tr></table>')
@example(html=WIDE_ROW_TABLE)
def test_parse_grid_matches_tolerant_parse_then_normalize(html):
    assert _grid_outcome(parse_grid, html) == _grid_outcome(_normalize_tolerant, html)


def test_parse_grid_reads_canonical_markup_once_without_fragments(monkeypatch):
    reads = []
    read = table_grid._parse_canonical

    def counting_read(html):
        reads.append(html)
        return read(html)

    monkeypatch.setattr(table_grid, "_parse_canonical", counting_read)
    declined = "<TABLE><tr><td>a</td></tr></TABLE>"
    parse_grid(declined)
    assert reads == [declined]
    html = serialize_grid(_canonical_grid(3, 4, 4, 1, stretch=True))
    assert parse_grid(html) == _normalize_tolerant(html)
    assert reads == [declined, html]


@pytest.mark.parametrize(
    "html",
    [
        "<table><tr><td>" + "x" * 100_000,
        "<table><tr><td>" + "x" * 100_000 + "</tr></table>",
        "<table><tr>" + "<td>" * 20_000,
        "<table><tr>" + "<td>" * 20_000 + "</tr></table>",
    ],
    ids=["unclosed_cell", "unclosed_cell_in_table", "td_starts", "td_starts_in_table"],
)
def test_canonical_reader_declines_quickly(html):
    table_grid._parse_canonical("<table><tr><td>a</td></tr></table>")  # compile first
    start = time.perf_counter()
    assert table_grid._parse_canonical(html) is None
    assert time.perf_counter() - start < 0.1


def test_normalize_is_idempotent():
    for html in (
        "<table><tr><td>a</td><td>b</td></tr><tr><td>c</td></tr></table>",
        # a padded middle row: the padding cell sits between c and d
        "<table><tr><td>a</td><td>b</td></tr><tr><td>c</td></tr>"
        "<tr><td>d</td><td>e</td></tr></table>",
    ):
        grid = parse_grid(html)
        again = table_grid._layout(grid_to_rows(grid))
        assert again == grid


# -- header detection ---------------------------------------------------------


def test_detect_header_single_th_row():
    grid = parse_grid("<table><tr><th>A</th><th>B</th></tr><tr><td>1</td><td>2</td></tr></table>")
    assert detect_header_rows(grid) == 1


def test_detect_header_two_th_rows():
    grid = parse_grid(
        "<table><tr><th>A</th><th>B</th></tr><tr><th>C</th><th>D</th></tr>"
        "<tr><td>1</td><td>2</td></tr></table>"
    )
    assert detect_header_rows(grid) == 2


def test_detect_header_heuristic_fires():
    # No <th> anywhere; first row is textual, body has numbers in a column.
    grid = parse_grid(
        "<table><tr><td>Name</td><td>Score</td></tr><tr><td>alice</td><td>12</td></tr></table>"
    )
    assert detect_header_rows(grid) == 1


def test_detect_header_heuristic_rejects_numeric_first_row():
    grid = parse_grid(
        "<table><tr><td>3</td><td>4</td></tr><tr><td>5</td><td>6</td></tr></table>"
    )
    assert detect_header_rows(grid) == 0


def test_detect_header_heuristic_needs_numeric_body():
    grid = parse_grid(
        "<table><tr><td>Name</td><td>City</td></tr><tr><td>alice</td><td>berlin</td></tr></table>"
    )
    assert detect_header_rows(grid) == 0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(1, 5), n_cols=st.integers(1, 4))
def test_detect_header_bounded_by_rows(seed, n_rows, n_cols):
    grid = random_grid(random.Random(seed), n_rows, n_cols, header_rows=min(1, n_rows))
    assert 0 <= detect_header_rows(grid) <= grid.n_rows


# -- helpers ------------------------------------------------------------------


def test_normalize_text():
    assert normalize_text("  Name  ") == "name"
    assert normalize_text("A\t B\nC") == "a b c"


def test_looks_numeric():
    assert looks_numeric(" 12.5 ")
    assert looks_numeric("1,234")
    assert looks_numeric("-3e2")
    assert looks_numeric("85%")
    assert not looks_numeric("v1.2")
    assert not looks_numeric("")


def test_grid_cell_invariants_validated():
    with pytest.raises(SpanConflict):
        # second cell overlaps the first
        from docpost.table_grid import grid_from_cells

        grid_from_cells(
            1,
            2,
            [GridCell(0, 0, 1, 2, "a"), GridCell(0, 1, 1, 1, "b")],
        )


# -- cell records ------------------------------------------------------------


def test_cells_are_immutable_value_records():
    cell = GridCell(1, 2, 1, 3, "x")
    with pytest.raises(AttributeError):
        cell.content = "y"  # type: ignore[misc]
    assert GridCell._fields == (
        "anchor_row", "anchor_col", "rowspan", "colspan", "content", "is_header"
    )
    assert cell.is_header is False
    twin = GridCell(1, 2, 1, 3, "x", False)
    assert twin == cell and hash(twin) == hash(cell) and len({twin, cell}) == 1
    assert cell != GridCell(1, 2, 1, 3, "x", True)
    moved = cell._replace(content="y", anchor_row=0)
    assert moved == GridCell(0, 2, 1, 3, "y") and cell.content == "x"
    assert repr(cell) == (
        "GridCell(anchor_row=1, anchor_col=2, rowspan=1, colspan=3, content='x', is_header=False)"
    )


# -- layout against the claim-per-position references ------------------------

_ROWSPANS = st.one_of(st.integers(1, 4), st.sampled_from([MAX_ROWSPAN, MAX_ROWSPAN + 1]))
_COLSPANS = st.one_of(
    st.integers(1, 3), st.sampled_from([MAX_COLSPAN, MAX_COLSPAN + 1, 50_000])
)
_RAW_CELLS = st.tuples(st.sampled_from(["", "a", "b c"]), _ROWSPANS, _COLSPANS, st.booleans())


@st.composite
def _ragged_rows(draw):
    """Ragged rows of spanning cells; tall tables leave all but their first
    rows empty, so wide cells run into MAX_GRID_POSITIONS."""
    n_rows = draw(st.one_of(st.integers(1, 5), st.sampled_from([40, 99, 100, 101])))
    filled = [tuple(draw(st.lists(_RAW_CELLS, max_size=4))) for _ in range(min(n_rows, 5))]
    return tuple(filled) + ((),) * (n_rows - len(filled))


def _layout_outcome(fn, *args):
    try:
        grid = fn(*args)
    except TableError as exc:
        return type(exc), str(exc)
    # cells in anchor order, so the canonical HTML reads back to an equal grid
    assert list(grid.cells) == sorted(grid.cells)
    if grid.cells:
        assert parse_grid(serialize_grid(grid)) == grid
    return grid.n_rows, grid.n_cols, grid.cells, grid.occupancy, grid.warnings


@settings(max_examples=250, deadline=None)
@given(rows=_ragged_rows())
@example(  # rowspan clipped at MAX_ROWSPAN, not at the bottom edge
    rows=((("a", MAX_ROWSPAN + 5, 1, False),),) + ((),) * (MAX_ROWSPAN + 1)
)
@example(  # colspan 2 runs into a rowspan from the row above: a span conflict
    rows=((("a", 1, 1, False), ("b", 2, 1, False)), (("c", 1, 2, False),))
)
@example(  # a tall, wide cell runs into a rowspan from the row above
    rows=(
        (("a", 1, 1, False), ("b", 1, 1, False), ("c", 3, 1, False)),
        (("d", 2, 3, False),),
        (),
    )
)
@example(  # a rowspan starts to the right of a shorter row below
    rows=((("a", 1, 1, False), ("b", 1, 1, False), ("c", 2, 1, False)), ())
)
@example(  # exactly at the position cap, then one column past it
    rows=((("a", 1, MAX_COLSPAN, False),),) + ((),) * 99
)
@example(rows=((("a", 1, MAX_COLSPAN, False),),) + ((),) * 100)
def test_normalize_grid_matches_reference(rows):
    assert _layout_outcome(table_grid._layout, rows) == _layout_outcome(
        normalize_grid_reference, rows
    )


@st.composite
def _cell_lists(draw):
    """A grid size and cells anchored inside it: some overlap, about one span
    in ten leaves the grid, and uncovered positions are padded."""
    n_rows, n_cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    over = st.sampled_from([0] * 9 + [1])
    cells = []
    for _ in range(draw(st.integers(0, 6)) if n_rows and n_cols else 0):
        r, c = draw(st.integers(0, n_rows - 1)), draw(st.integers(0, n_cols - 1))
        rowspan = draw(st.integers(1, min(3, n_rows - r))) + draw(over)
        colspan = draw(st.integers(1, min(3, n_cols - c))) + draw(over)
        cells.append(GridCell(r, c, rowspan, colspan, draw(st.sampled_from("ab")), draw(st.booleans())))
    return n_rows, n_cols, cells


@settings(max_examples=250, deadline=None)
@given(case=_cell_lists())
def test_grid_from_cells_matches_reference(case):
    assert _layout_outcome(grid_from_cells, *case) == _layout_outcome(
        grid_from_cells_reference, *case
    )


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(1, 8), n_cols=st.integers(1, 6))
def test_grid_from_shuffled_cells_matches_reference(seed, n_rows, n_cols):
    # a full tiling, shuffled and thinned: renumbering and padding both work
    rng = random.Random(seed)
    cells = list(random_grid(rng, n_rows, n_cols, span_prob=0.4).cells)
    rng.shuffle(cells)
    del cells[: rng.randint(0, len(cells) // 2)]
    assert _layout_outcome(grid_from_cells, n_rows, n_cols, cells) == _layout_outcome(
        grid_from_cells_reference, n_rows, n_cols, cells
    )


@pytest.mark.parametrize(
    "cell, message",
    [
        (GridCell(-1, 0, 1, 1, "x"), "cell at (-1,0) leaves the grid"),
        (GridCell(0, -1, 1, 1, "x"), "cell at (0,-1) leaves the grid"),
        (GridCell(0, 0, 0, 1, "x"), "cell at (0,0) spans 0x1 positions"),
        (GridCell(0, 0, 1, 0, "x"), "cell at (0,0) spans 1x0 positions"),
        (GridCell(1, 1, -1, 1, "x"), "cell at (1,1) spans -1x1 positions"),
    ],
)
def test_grid_from_cells_rejects_negative_anchors_and_empty_spans(cell, message):
    with pytest.raises(SpanConflict) as info:
        grid_from_cells(2, 2, [cell])
    assert str(info.value) == message
