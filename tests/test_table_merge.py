import random
import shlex
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CONTINUATION_KEYS,
    keyset_scorer_cmd,
    random_grid,
    scorer_server,
    split_row_mid_word,
    split_with_header_copy,
)
from docpost import table_merge
from docpost._external import external_scorer
from docpost.config import Config
from docpost.table_grid import (
    GridCell,
    detect_header_rows,
    grid_from_cells,
    normalize_text,
    parse_grid,
)
from docpost.table_merge import (
    BoundaryJoin,
    DecisionSource,
    MatchKind,
    MergePlan,
    Pattern,
    PlanMismatch,
    Unalignable,
    align_schemas,
    classify_continuation,
    decide_merge,
    match_headers,
    merge,
    merge_fragment_sequence_with_plans,
)
from oracles import merge_reference, slice_rows


def grid_of(rows, header_rows=0):
    """Build a plain grid from a list of content rows."""
    cells = []
    for r, row in enumerate(rows):
        for c, content in enumerate(row):
            cells.append(GridCell(r, c, 1, 1, content, r < header_rows))
    return grid_from_cells(len(rows), len(rows[0]), cells)


# -- match_headers -----------------------------------------------------------


def test_match_headers_identical():
    a = grid_of([["Name", "Age"], ["a", "1"]], header_rows=1)
    b = grid_of([["Name", "Age"], ["b", "2"]], header_rows=1)
    m = match_headers(a, b)
    assert m.kind is MatchKind.EXACT and m.similarity == 1.0


def test_match_headers_normalized():
    a = grid_of([["Name", "Age"], ["a", "1"]], header_rows=1)
    b = grid_of([["name ", "AGE"], ["b", "2"]], header_rows=1)
    assert match_headers(a, b).kind is MatchKind.EXACT


def test_match_headers_near():
    # 4 header cells, 1 differs: similarity 3/4 = 0.75 by hand count.
    a = grid_of([["A", "B", "C", "D"], ["1", "2", "3", "4"]], header_rows=1)
    b = grid_of([["A", "B", "C", "X"], ["5", "6", "7", "8"]], header_rows=1)
    m = match_headers(a, b, Config(near_threshold=0.7))
    assert m.kind is MatchKind.NEAR
    assert m.similarity == pytest.approx(0.75)
    assert match_headers(a, b, Config(near_threshold=0.8)).kind is MatchKind.NONE


def test_match_headers_no_headers():
    a = grid_of([["x", "y"], ["p", "q"]])
    assert detect_header_rows(a) == 0
    m = match_headers(a, a)
    assert m.kind is MatchKind.NONE and m.similarity == 0.0


def test_match_headers_column_mismatch():
    a = grid_of([["A", "B"], ["1", "2"]], header_rows=1)
    b = grid_of([["A", "B", "C"], ["1", "2", "3"]], header_rows=1)
    m = match_headers(a, b)
    assert m.kind is MatchKind.NONE and m.column_mismatch


def test_match_headers_span_layout_required_for_exact():
    a = parse_grid("<table><tr><th colspan=\"2\">H</th></tr><tr><td>1</td><td>2</td></tr></table>")
    b = parse_grid("<table><tr><th>H</th><th>H</th></tr><tr><td>1</td><td>2</td></tr></table>")
    m = match_headers(a, b)
    assert m.kind is MatchKind.NEAR  # contents equal positionwise, spans differ
    assert m.similarity == 1.0


# -- classify_continuation -----------------------------------------------------


def test_continuation_mid_sentence():
    a = grid_of([["H1", "H2"], ["The quick brown", "done."]], header_rows=1)
    b = grid_of([["fox jumps.", "x"], ["y", "z"]])
    d = classify_continuation(a, b)
    assert d.is_row_split and d.score == 1.0
    assert d.source is DecisionSource.HEURISTIC


def test_continuation_terminated_rows():
    a = grid_of([["H1", "H2"], ["Done.", "Also done!"]], header_rows=1)
    b = grid_of([["Fresh start", "New"], ["y", "z"]])
    d = classify_continuation(a, b)
    assert not d.is_row_split and d.score == 0.0


def test_continuation_empty_tail_row():
    a = grid_of([["H1", "H2"], ["", ""]], header_rows=1)
    b = grid_of([["anything", "lower"], ["y", "z"]])
    assert not classify_continuation(a, b).is_row_split


def test_continuation_numeric_head_does_not_fire():
    # ordinary numeric body rows are continuations of the table, not of a cell
    a = grid_of([["Total", "12"]])
    b = grid_of([["", "3"]])
    assert not classify_continuation(a, b).is_row_split


def test_continuation_mid_token_punctuation_fires():
    a = grid_of([["Total", "85"]])
    b = grid_of([["", "% of cases"]])
    assert classify_continuation(a, b).is_row_split


def test_external_scorer_subprocess():
    # the scorer answers only a payload with exactly the protocol's keys
    scorer = external_scorer(keyset_scorer_cmd(CONTINUATION_KEYS, 0.9), "")
    a = grid_of([["Done.", "x"]])
    b = grid_of([["Done.", "y"]])
    d = classify_continuation(a, b, scorer)
    assert d.score == 0.9 and d.is_row_split
    assert d.source is DecisionSource.EXTERNAL_SCORER


def test_external_scorer_failure_falls_back():
    cmd = shlex.join([sys.executable, "-c", "import sys; sys.exit(3)"])
    a = grid_of([["No punctuation here", "x"]])
    b = grid_of([["lowercase start", "y"]])
    d = classify_continuation(a, b, external_scorer(cmd, ""))
    assert d.source is DecisionSource.HEURISTIC
    assert d.is_row_split  # heuristic fires on the lowercase head


def test_external_scorer_http():
    a = grid_of([["Done.", "x"]])
    b = grid_of([["Done.", "y"]])
    with scorer_server(b"0.8\n") as (url, received):
        d = classify_continuation(a, b, external_scorer("", url))
    assert d.score == 0.8 and d.source is DecisionSource.EXTERNAL_SCORER
    assert received == [
        (
            "application/json",
            {"tail_cells": ["Done.", "x"], "head_cells": ["Done.", "y"], "column_map": [0, 1]},
        )
    ]


def test_external_scorer_http_garbage_falls_back():
    a = grid_of([["Done.", "Over."]])
    b = grid_of([["Fresh", "Start"]])
    with scorer_server(b"not a number\n") as (url, _):
        d = classify_continuation(a, b, external_scorer("", url))
    assert d.source is DecisionSource.HEURISTIC
    assert not d.is_row_split  # heuristic sees terminated tails


# -- align_schemas --------------------------------------------------------------


def test_align_equal_widths_identity():
    a = grid_of([["A", "B", "C"], ["1", "2", "3"]])
    assert align_schemas(a, a) == [0, 1, 2]
    four = grid_of([["A", "B", "C", "D"], ["1", "2", "3", "4"]])
    assert align_schemas(four, four) == [0, 1, 2, 3]


def test_align_narrower_without_headers_fails():
    a = grid_of([["1", "2", "3", "4"], ["5", "6", "7", "8"]])
    b = grid_of([["1", "2", "3"], ["4", "5", "6"]])
    with pytest.raises(Unalignable):
        align_schemas(a, b)


def test_align_narrower_by_header_tokens():
    a = grid_of([["A", "B", "C", "D"], ["1", "2", "3", "4"]], header_rows=1)
    b_trailing = grid_of([["B", "C", "D"], ["x", "y", "z"]], header_rows=1)
    assert align_schemas(a, b_trailing) == [1, 2, 3]
    b_leading = grid_of([["A", "B", "C"], ["x", "y", "z"]], header_rows=1)
    assert align_schemas(a, b_leading) == [0, 1, 2]


def test_align_wider_b_fails():
    a = grid_of([["A", "B"], ["1", "2"]])
    b = grid_of([["A", "B", "C"], ["1", "2", "3"]])
    with pytest.raises(Unalignable):
        align_schemas(a, b)


# -- decide_merge ----------------------------------------------------------------


def test_decide_same_header_is_pattern1():
    a = grid_of([["Name", "Age"], ["a", "1"]], header_rows=1)
    b = grid_of([["Name", "Age"], ["b", "2"]], header_rows=1)
    plan = decide_merge(a, b)
    assert plan.pattern is Pattern.PATTERN1
    assert plan.header_rows_to_drop == 1


def test_decide_plain_continuation_is_pattern2():
    a = grid_of([["Name", "Age"], ["Alice.", "1"]], header_rows=1)
    b = grid_of([["Bob", "2"], ["Carol", "3"]])
    plan = decide_merge(a, b)
    assert plan.pattern is Pattern.PATTERN2
    assert plan.column_map == (0, 1)


def test_decide_split_sentence_is_pattern3():
    a = grid_of([["Name", "Note"], ["Alice", "went to the"]], header_rows=1)
    b = grid_of([["", "market today."], ["Bob", "stayed home."]])
    plan = decide_merge(a, b)
    assert plan.pattern is Pattern.PATTERN3
    assert plan.boundary_join is not None


def test_decide_unalignable_is_no_merge():
    a = grid_of([["1", "2", "3", "4"], ["5", "6", "7", "8"]])
    b = grid_of([["x", "y", "z"], ["q", "r", "s"]])
    assert decide_merge(a, b).pattern is Pattern.NO_MERGE


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows_a=st.integers(1, 4),
    rows_b=st.integers(1, 4),
    cols=st.integers(1, 4),
)
def test_decide_never_pattern1_without_header_match(seed, rows_a, rows_b, cols):
    rng = random.Random(seed)
    a = random_grid(rng, rows_a, cols, header_rows=rng.randint(0, min(1, rows_a)))
    b = random_grid(rng, rows_b, cols)
    if match_headers(a, b).kind is MatchKind.NONE:
        assert decide_merge(a, b).pattern is not Pattern.PATTERN1


# -- merge -----------------------------------------------------------------------


def test_merge_pattern1_drops_duplicate_header():
    a = grid_of([["H1", "H2"], ["a1", "a2"], ["b1", "b2"]], header_rows=1)
    b = grid_of([["H1", "H2"], ["c1", "c2"], ["d1", "d2"], ["e1", "e2"]], header_rows=1)
    plan = decide_merge(a, b)
    merged = merge(a, b, plan)
    assert merged.n_rows == 6  # header + 5 body rows
    assert merged.row_contents(0) == ["H1", "H2"]
    assert merged.row_contents(3) == ["c1", "c2"]
    assert detect_header_rows(merged) == 1


def test_merge_pattern2_appends():
    a = grid_of([["a", "b", "c"], ["d", "e", "f"]])
    b = grid_of([["g", "h", "i"], ["j", "k", "l"]])
    merged = merge(a, b, MergePlan(Pattern.PATTERN2, column_map=(0, 1, 2)))
    assert merged.n_rows == 4
    assert merged.row_contents(2) == ["g", "h", "i"]


def test_merge_pattern3_boundary_join():
    # manual join with empty separator: "12" + "3" -> "123"
    a = grid_of([["Total", "12"]])
    b = grid_of([["3", ""]])
    plan = MergePlan(
        Pattern.PATTERN3,
        column_map=(0, 1),
        boundary_join=(BoundaryJoin(a_col=1, b_col=0, separator=""),),
    )
    merged = merge(a, b, plan)
    assert merged.n_rows == 1
    assert merged.row_contents(0) == ["Total", "123"]


def test_merge_pattern3_from_decide():
    a = grid_of([["Item", "descrip"]])
    b = grid_of([["", "tion text"], ["Next.", "Row."]])
    plan = decide_merge(a, b)
    assert plan.pattern is Pattern.PATTERN3
    merged = merge(a, b, plan)
    assert merged.row_contents(0) == ["Item", "description text"]
    assert merged.row_contents(1) == ["Next.", "Row."]


def test_merge_pattern3_word_boundary_space():
    a = grid_of([["The quick ", "x"]])
    b = grid_of([["brown fox", ""], ["Next.", "y"]])
    plan = decide_merge(a, b)
    assert plan.pattern is Pattern.PATTERN3
    merged = merge(a, b, plan)
    assert merged.content_at(0, 0) == "The quick  brown fox"


def test_merge_plan_mismatch():
    a = grid_of([["a", "b"]])
    b = grid_of([["c", "d"]])
    with pytest.raises(PlanMismatch):
        merge(a, b, MergePlan(Pattern.NO_MERGE))
    with pytest.raises(PlanMismatch):
        merge(a, b, MergePlan(Pattern.PATTERN1, header_rows_to_drop=5, column_map=(0, 1)))
    with pytest.raises(PlanMismatch):
        merge(a, b, MergePlan(Pattern.PATTERN2, column_map=(0,)))
    wide = grid_of([["w", "x", "y", "z"]])
    with pytest.raises(PlanMismatch):
        merge(wide, b, MergePlan(Pattern.PATTERN2, column_map=(0, 2)))  # not contiguous
    with pytest.raises(PlanMismatch):
        merge(wide, b, MergePlan(Pattern.PATTERN2, column_map=(3, 4)))  # past A's width
    # the map is checked for every pattern, also when pattern 3 leaves no B rows
    join = (BoundaryJoin(a_col=0, b_col=0, separator=""),)
    with pytest.raises(PlanMismatch):
        merge(wide, b, MergePlan(Pattern.PATTERN3, column_map=(1, 0), boundary_join=join))


def test_merge_pattern2_narrow_b_padded():
    a = grid_of([["A", "B", "C"], ["1.", "2.", "3."]], header_rows=1)
    b = grid_of([["B", "C"], ["x.", "y."]], header_rows=1)
    plan = decide_merge(a, b)
    assert plan.pattern is Pattern.PATTERN2
    assert plan.column_map == (1, 2)
    merged = merge(a, b, plan)
    assert merged.n_cols == 3
    assert merged.row_contents(2) == ["", "B", "C"]
    assert merged.row_contents(3) == ["", "x.", "y."]


def test_remap_columns_pads():
    a = grid_of([["w", "x", "y", "z"]])
    b = grid_of([["a", "b"]])
    merged = merge(a, b, MergePlan(Pattern.PATTERN2, column_map=(1, 2)))
    assert merged.row_contents(1) == ["", "a", "b", ""]
    with pytest.raises(PlanMismatch):
        merge(a, b, MergePlan(Pattern.PATTERN2, column_map=(0, 2)))  # not contiguous


@pytest.mark.parametrize(
    "a_rows, b_rows, header_rows, pattern",
    [
        ([["H1", "H2"], ["a.", "b."]], [["H1", "H2"], ["c.", "d."]], 1, Pattern.PATTERN1),
        ([["a.", "b."]], [["C", "D"]], 0, Pattern.PATTERN2),
        ([["Item", "descrip"]], [["", "tion text"], ["Next.", "Row."]], 0, Pattern.PATTERN3),
        ([["Item", "descrip"]], [["", "tion text"]], 0, Pattern.PATTERN3),
    ],
)
def test_merge_lays_out_once(monkeypatch, a_rows, b_rows, header_rows, pattern):
    a, b = grid_of(a_rows, header_rows), grid_of(b_rows, header_rows)
    plan = decide_merge(a, b)
    assert plan.pattern is pattern
    calls = []

    def counting(*args):
        calls.append(args[:2])
        return grid_from_cells(*args)

    monkeypatch.setattr(table_merge, "grid_from_cells", counting)
    merged = merge(a, b, plan)
    assert calls == [(merged.n_rows, merged.n_cols)]
    assert merged == merge_reference(a, b, plan)


def _lowercase_first_row(grid):
    cells = [
        GridCell(c.anchor_row, c.anchor_col, c.rowspan, c.colspan, c.content.lower(), c.is_header)
        if c.anchor_row == 0
        else c
        for c in grid.cells
    ]
    return grid_from_cells(grid.n_rows, grid.n_cols, cells)


def _stack(top, bottom):
    cells = list(top.cells) + [
        GridCell(
            c.anchor_row + top.n_rows, c.anchor_col, c.rowspan, c.colspan, c.content, c.is_header
        )
        for c in bottom.cells
    ]
    return grid_from_cells(top.n_rows + bottom.n_rows, top.n_cols, cells)


def _narrow_piece(rng, source, n_rows):
    """A leading or trailing column block of the source's first header row over
    a random body, so ``align_schemas`` embeds it; lowercasing the copied
    header makes a row-split candidate."""
    width = rng.randint(1, source.n_cols - 1)
    first = 0 if rng.random() < 0.5 else source.n_cols - width
    header = grid_from_cells(
        1,
        width,
        [GridCell(0, j, 1, 1, source.content_at(0, first + j), True) for j in range(width)],
    )
    if rng.random() < 0.3:
        header = _lowercase_first_row(header)
    return _stack(header, random_grid(rng, n_rows, width))


def random_fragment_sequence(rng):
    """Row bands of one random table, each re-shaped to invite one pattern:
    a repeated header block (1), a plain band (2), a lowercased first row (3),
    a narrow column block, or an unrelated table."""
    n_cols = rng.randint(2, 5)
    header_rows = rng.randint(0, 2)
    n_rows = header_rows + rng.randint(2, 12)
    source = random_grid(rng, n_rows, n_cols, header_rows=header_rows)
    cuts = sorted(rng.sample(range(header_rows + 1, n_rows), rng.randint(0, min(5, n_rows - header_rows - 1))))
    bounds = [0, *cuts, n_rows]
    fragments = [slice_rows(source, bounds[0], bounds[1])]
    for start, stop in zip(bounds[1:], bounds[2:]):
        piece = slice_rows(source, start, stop)
        mode = rng.choice(["header", "plain", "split", "narrow", "unrelated"])
        if mode == "header" and header_rows:
            piece = _stack(slice_rows(source, 0, header_rows), piece)
        elif mode == "split":
            piece = _lowercase_first_row(piece)
        elif mode == "narrow" and header_rows:
            piece = _narrow_piece(rng, source, stop - start)
        elif mode == "unrelated":
            piece = random_grid(rng, rng.randint(1, 4), rng.randint(1, 6), header_rows=rng.randint(0, 1))
        fragments.append(piece)
    return fragments


def fold_reference(fragments):
    """Plans and tables of the fold, with every merge done by ``merge_reference``."""
    tables, plans = [], []
    for fragment in fragments:
        if not tables:
            tables.append(fragment)
            continue
        plan = decide_merge(tables[-1], fragment)
        plans.append(plan)
        if plan.pattern is Pattern.NO_MERGE:
            tables.append(fragment)
        else:
            tables[-1] = merge_reference(tables[-1], fragment, plan)
    return tables, plans


def test_fragment_sequences_cover_every_pattern():
    seen = set()
    for seed in range(200):
        fragments = random_fragment_sequence(random.Random(seed))
        acc = fragments[0]
        for fragment in fragments[1:]:
            plan = decide_merge(acc, fragment)
            where = None
            if plan.column_map and len(plan.column_map) < acc.n_cols:
                where = "leading" if plan.column_map[0] == 0 else "trailing"
            seen.add((plan.pattern, where))
            if plan.pattern is Pattern.NO_MERGE:
                acc = fragment
            else:
                acc = merge_reference(acc, fragment, plan)
    for pattern in Pattern:
        assert (pattern, None) in seen
    for pattern in (Pattern.PATTERN2, Pattern.PATTERN3):
        assert (pattern, "leading") in seen and (pattern, "trailing") in seen


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_merge_matches_reference_fold(seed):
    fragments = random_fragment_sequence(random.Random(seed))
    tables, plans = merge_fragment_sequence_with_plans(fragments)
    ref_tables, ref_plans = fold_reference(fragments)
    assert plans == ref_plans
    assert tables == ref_tables
    for table, ref in zip(tables, ref_tables):
        assert table.cells == ref.cells and table.occupancy == ref.occupancy


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_merge_matches_reference_on_explicit_plans(seed):
    """Any in-bounds column offset, and pattern-3 joins that repeat cells or
    meet empty ones, give the same grid as the reference chain."""
    rng = random.Random(seed)

    def sparse_text(rng, r, c):
        return "" if rng.random() < 0.3 else f"w{r}{c}"

    a = random_grid(rng, rng.randint(1, 5), rng.randint(1, 5), header_rows=rng.randint(0, 1))
    width = rng.randint(1, a.n_cols)
    b = random_grid(rng, rng.randint(1, 5), width, header_rows=rng.randint(0, 2), content=sparse_text)
    offset = rng.randint(0, a.n_cols - width)
    column_map = tuple(range(offset, offset + width))
    pattern = rng.choice([Pattern.PATTERN1, Pattern.PATTERN2, Pattern.PATTERN3])
    if pattern is Pattern.PATTERN1:
        plan = MergePlan(pattern, rng.randint(1, b.n_rows), column_map)
    elif pattern is Pattern.PATTERN2:
        plan = MergePlan(pattern, column_map=column_map)
    else:
        joins = tuple(
            BoundaryJoin(rng.randrange(a.n_cols), rng.randrange(width), rng.choice(["", " "]))
            for _ in range(rng.randint(0, width + 2))
        )
        plan = MergePlan(pattern, column_map=column_map, boundary_join=joins)
    merged, ref = merge(a, b, plan), merge_reference(a, b, plan)
    assert merged == ref
    assert merged.cells == ref.cells and merged.occupancy == ref.occupancy


# -- grid surgery helpers ----------------------------------------------------------


def test_slice_rows_band():
    g = parse_grid(
        '<table><tr><td rowspan="2">x</td><td>a</td></tr><tr><td>b</td></tr>'
        "<tr><td>c</td><td>d</td></tr></table>"
    )
    band = slice_rows(g, 1, 3)
    assert band.n_rows == 2
    # the rowspan cell was cut: footprint kept, content dropped
    assert band.content_at(0, 0) == ""
    assert band.content_at(0, 1) == "b"
    assert band.row_contents(1) == ["c", "d"]


# -- sequence folding ---------------------------------------------------------------


def test_sequence_merges_then_splits():
    a = grid_of([["Name", "Age"], ["a.", "1"]], header_rows=1)
    a_cont = grid_of([["Name", "Age"], ["b.", "2"]], header_rows=1)
    unrelated = grid_of([["X", "Y", "Z"], ["1", "2", "3"]], header_rows=1)
    # oracle: two pairwise decisions
    assert decide_merge(a, a_cont).pattern is Pattern.PATTERN1
    merged_ab = merge(a, a_cont, decide_merge(a, a_cont))
    assert decide_merge(merged_ab, unrelated).pattern is Pattern.NO_MERGE

    tables, plans = merge_fragment_sequence_with_plans([a, a_cont, unrelated])
    assert len(tables) == 2
    assert tables[0] == merged_ab
    assert tables[1] == unrelated
    assert [p.pattern for p in plans] == [Pattern.PATTERN1, Pattern.NO_MERGE]


def test_sequence_singleton_and_empty():
    g = grid_of([["a"]])
    assert merge_fragment_sequence_with_plans([g]) == ([g], [])
    assert merge_fragment_sequence_with_plans([]) == ([], [])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 5))
def test_sequence_never_grows(seed, n):
    rng = random.Random(seed)
    frags = [
        random_grid(rng, rng.randint(1, 3), rng.randint(1, 3), header_rows=rng.randint(0, 1))
        for _ in range(n)
    ]
    tables, plans = merge_fragment_sequence_with_plans(frags)
    assert len(tables) <= max(len(frags), 0) or n == 0
    assert len(plans) == max(n - 1, 0)


# -- split/merge round trips ----------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_round_trip_pattern1(seed):
    rng = random.Random(seed)
    n_rows, n_cols = rng.randint(3, 7), rng.randint(2, 5)
    header_rows = rng.randint(1, min(2, n_rows - 2))
    split = rng.randint(header_rows + 1, n_rows - 1)
    g = random_grid(rng, n_rows, n_cols, header_rows=header_rows, blocked_boundaries={split})
    a, b = split_with_header_copy(g, split, header_rows)
    plan = decide_merge(a, b)
    assert plan.pattern is Pattern.PATTERN1
    assert merge(a, b, plan) == g


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_round_trip_pattern2(seed):
    rng = random.Random(seed)
    n_rows, n_cols = rng.randint(3, 7), rng.randint(2, 5)
    split = rng.randint(2, n_rows - 1)
    g = random_grid(rng, n_rows, n_cols, header_rows=1, blocked_boundaries={split})
    a = slice_rows(g, 0, split)
    b = slice_rows(g, split, n_rows)
    plan = decide_merge(a, b)
    assert plan.pattern is Pattern.PATTERN2
    assert merge(a, b, plan) == g


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_round_trip_pattern3(seed):
    rng = random.Random(seed)
    n_rows, n_cols = rng.randint(3, 7), rng.randint(2, 5)
    split_row = rng.randint(1, n_rows - 2)
    g = random_grid(
        rng, n_rows, n_cols, header_rows=1, blocked_boundaries={split_row, split_row + 1}
    )
    # split one boundary cell mid-word
    col = rng.randrange(n_cols)
    content = g.cell_at(split_row, col).content
    cut = rng.randint(1, len(content.split()[0]) - 1)  # inside the first word
    a, b = split_row_mid_word(g, split_row, col, cut)
    plan = decide_merge(a, b)
    assert plan.pattern is Pattern.PATTERN3
    assert merge(a, b, plan) == g


def normalized_multiset(grid):
    from collections import Counter

    return Counter(
        normalize_text(c.content) for c in grid.cells if normalize_text(c.content)
    )


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_merge_preserves_content_multiset(seed):
    rng = random.Random(seed)
    n_rows, n_cols = rng.randint(3, 6), rng.randint(2, 4)
    split = rng.randint(2, n_rows - 1)
    g = random_grid(rng, n_rows, n_cols, header_rows=1, blocked_boundaries={split})
    a, b = split_with_header_copy(g, split, 1)
    plan = decide_merge(a, b)
    merged = merge(a, b, plan)
    dropped = normalized_multiset(slice_rows(b, 0, plan.header_rows_to_drop))
    assert normalized_multiset(merged) == normalized_multiset(a) + normalized_multiset(b) - dropped
