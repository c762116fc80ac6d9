import copy
import gc
import importlib.util
import json
import math
import random
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import DERANDOMIZE, random_grid
from oracles import (
    CONTENT,
    STRUCTURE,
    annotation_reference,
    exhaustive_tree_distance,
    grid_to_tree,
    levenshtein_full_matrix,
    random_tree,
    rename_costs_reference,
    skeleton,
    zhang_shasha_reference,
)
from docpost.metrics import (
    DocTree,
    GtParseError,
    edit_distance,
    evaluate_batch,
    evaluate_pair,
    normalized_edit_distance,
    reading_order_edit,
    teds,
    tree_edit_distance,
)
from docpost import metrics
from docpost.table_grid import parse_grid, serialize_grid

short_text = st.text(max_size=20)
# small alphabets (one letter outside the BMP) so that long strings share
# many tokens and the distance is far from its length bound
long_text = st.text(alphabet=st.sampled_from("ab\U0001F600\u00e9 "), max_size=300)


# -- edit distance ------------------------------------------------------------


def test_edit_distance_examples():
    assert edit_distance("", "") == 0
    assert normalized_edit_distance("", "") == 0.0
    assert edit_distance("abc", "abc") == 0
    # frozen from the textbook DP table
    assert edit_distance("kitten", "sitting") == 3
    assert levenshtein_full_matrix("kitten", "sitting") == 3


@settings(max_examples=150, deadline=None)
@given(a=short_text, b=short_text)
def test_edit_distance_matches_full_matrix_oracle(a, b):
    assert edit_distance(a, b) == levenshtein_full_matrix(a, b)


@settings(max_examples=150, deadline=None)
@given(a=short_text, b=short_text, c=short_text)
def test_edit_distance_metric_axioms(a, b, c):
    ab = edit_distance(a, b)
    assert ab == edit_distance(b, a)
    assert (ab == 0) == (a == b)
    assert ab <= edit_distance(a, c) + edit_distance(c, b)


def apply_edits(text: str, edits) -> str:
    chars = list(text)
    for pos, char, op in edits:
        pos = pos % (len(chars) + 1)
        if op == "insert" or pos == len(chars):
            chars.insert(pos, char)
        elif op == "delete":
            del chars[pos]
        else:
            chars[pos] = char
    return "".join(chars)


@settings(max_examples=60, deadline=None)
@given(
    a=long_text,
    b=long_text,
    edits=st.lists(
        st.tuples(
            st.integers(0, 300),
            st.sampled_from("ab\U0001F600\u00e9 "),
            st.sampled_from(["insert", "delete", "replace"]),
        ),
        max_size=40,
    ),
)
@example(a="a" * 64, b="a" * 63 + "b", edits=[])
@example(a="\U0001F600" * 65, b="", edits=[])
def test_edit_distance_long_strings_match_full_matrix_oracle(a, b, edits):
    near = apply_edits(a, edits)
    assert edit_distance(a, near) == levenshtein_full_matrix(a, near)
    assert edit_distance(near, a) == levenshtein_full_matrix(near, a)
    assert edit_distance(a, b) == levenshtein_full_matrix(a, b)


def test_normalized_edit_distance_bounds():
    assert normalized_edit_distance("abc", "") == 1.0
    assert 0.0 <= normalized_edit_distance("abc", "axc") <= 1.0


# -- tree edit distance -----------------------------------------------------------


def leaf(tag, content=""):
    return DocTree(tag, content)


def distance(t1, t2, model):
    """``tree_edit_distance`` under one of the references' cost models: the
    structure model's distance is that of the trees' skeletons."""
    if model == STRUCTURE:
        t1, t2 = skeleton(t1), skeleton(t2)
    return tree_edit_distance(t1, t2)


def test_tree_distance_identical():
    t = DocTree("table", children=[DocTree("tr", children=[leaf("td[1,1]", "x")])])
    assert distance(t, t, STRUCTURE) == 0.0
    assert distance(t, t, CONTENT) == 0.0


def test_tree_distance_single_vs_empty():
    assert tree_edit_distance(leaf("td[1,1]"), None) == 1.0
    assert tree_edit_distance(None, leaf("td[1,1]")) == 1.0
    assert tree_edit_distance(None, None) == 0.0


def test_tree_distance_against_empty_counts_a_deep_chain():
    """An empty side costs the other tree's node count, counted without
    recursion: a chain 5,000 deep is 5,001 insertions or deletions."""
    chain = leaf("td[1,1]")
    for _ in range(5000):
        chain = DocTree("tr", children=[chain])
    assert tree_edit_distance(None, chain) == 5001.0
    assert tree_edit_distance(chain, None) == 5001.0


def test_tree_distance_one_rename():
    t1 = DocTree("table", children=[leaf("td[1,1]", "a")])
    t2 = DocTree("table", children=[leaf("td[2,1]", "a")])
    assert distance(t1, t2, STRUCTURE) == 1.0


def test_tree_distance_content_costs_normalized_edit():
    t1 = DocTree("table", children=[leaf("td[1,1]", "abcd")])
    t2 = DocTree("table", children=[leaf("td[1,1]", "abcx")])
    assert distance(t1, t2, CONTENT) == pytest.approx(0.25)
    assert distance(t1, t2, STRUCTURE) == 0.0


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_tree_distance_matches_exhaustive_oracle(seed):
    rng = random.Random(seed)
    t1, t2 = random_tree(rng, 8), random_tree(rng, 8)
    for model in (STRUCTURE, CONTENT):
        fast = distance(t1, t2, model)
        brute = exhaustive_tree_distance(t1, t2, model)
        assert fast == pytest.approx(brute, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_structure_distance_never_exceeds_content_distance(seed):
    rng = random.Random(seed)
    t1, t2 = random_tree(rng, 8), random_tree(rng, 8)
    assert distance(t1, t2, STRUCTURE) <= distance(t1, t2, CONTENT) + 1e-12


@settings(max_examples=300, deadline=None, derandomize=DERANDOMIZE)
@given(seed=st.integers(0, 2**32 - 1))
def test_tree_distance_equals_zhang_shasha_reference_on_random_trees(seed):
    rng = random.Random(seed)
    t1, t2 = random_tree(rng, 14), random_tree(rng, 14)
    for model in (STRUCTURE, CONTENT):
        assert distance(t1, t2, model) == zhang_shasha_reference(t1, t2, model)


def table_tree(rows) -> DocTree:
    """table -> tr -> cells from a list of rows of (tag, content) pairs."""
    return DocTree(
        "table", children=[DocTree("tr", children=[leaf(*c) for c in row]) for row in rows]
    )


table_cells = st.tuples(
    st.sampled_from(["td[1,1]", "th[1,1]", "td[2,1]", "td[1,2]", "th[1,3]"]),
    st.sampled_from(["", "a", "ab", "ba", "total", "12", "x y"]),
)
# empty rows (a tr leaf keyroot), one-cell rows, th cells, spanned tags, and
# a single leaf: an empty table, a lone row or a lone cell
table_trees = st.one_of(
    st.lists(st.lists(table_cells, max_size=4), max_size=5).map(table_tree),
    st.builds(leaf, st.sampled_from(["table", "tr", "td[1,1]", "th[1,1]"]), st.just("a")),
)
ONE_CELL_ROWS = table_tree([[("td[1,1]", "a")], [("th[1,1]", "b")], [("td[1,2]", "ab")]])
EMPTY_ROWS = table_tree([[], [("td[1,1]", "a"), ("td[1,1]", "b")], []])
TD, TH = "td[1,1]", "th[1,1]"

# Pairs that pin the recurrences and the band's passes. Each entry: the two
# trees, and per model the (below, above) of each pass tree_edit_distance
# runs (n1 + n2 on both sides is the whole table; no pass for equal
# skeletons). With delta = n1 - n2, a pass at h runs at below = h +
# max(delta, 0), above = h + max(-delta, 0) and is exact once need(d) =
# (floor(d) - |delta|) // 2 is at most h.
BAND_PAIRS = [
    # an empty table against one cell: the one-row recurrence's subtree
    # rename reads first_row[y - 1]; a band of 3 is wider than the 1-node tree
    (table_tree([]), table_tree([[(TH, "ab")]]), {CONTENT: [(4, 4)], STRUCTURE: [(4, 4)]}),
    # two rows against an empty table: the one-column recurrence adds
    # treedist to fd[p][0] = p
    (
        table_tree([[("td[1,2]", "total")], [(TH, "12"), ("td[1,2]", "a")]]),
        table_tree([]),
        {CONTENT: [(7, 7)], STRUCTURE: [(7, 7)]},
    ),
    # a same-shape pair finished on the diagonal: one rename, 1.0
    (
        table_tree([[(TH, "a")]]),
        table_tree([[(TH, "x y")]]),
        {CONTENT: [(0, 0)], STRUCTURE: []},
    ),
    # two shapes of 5 nodes each: the diagonal holds no derivation (inf), and
    # h = 1 is exact, 3.0 for the trees and 2.0 for the skeletons
    (
        table_tree([[], [(TH, "12"), (TH, "x y")]]),
        table_tree([[], [(TH, "")], []]),
        {CONTENT: [(0, 0), (1, 1)], STRUCTURE: [(0, 0), (1, 1)]},
    ),
    # 1.5 on the diagonal, where need(1.5) = 0
    (
        table_tree([[(TD, "ab"), (TD, "12"), (TH, "ab")]]),
        table_tree([[(TD, "ab"), (TD, "total"), (TH, "a")]]),
        {CONTENT: [(0, 0)], STRUCTURE: []},
    ),
    # 2.0 on both: the diagonal renames three cells (3.0 on the trees, 2.0 on
    # the skeletons, need 1), h = 1 deletes one and inserts one
    (
        table_tree([[(TD, "x y"), (TH, "ab"), (TH, "x y")]]),
        table_tree([[(TH, "ab"), (TH, "x y"), (TD, "ba")]]),
        {CONTENT: [(0, 0), (1, 1)], STRUCTURE: [(0, 0), (1, 1)]},
    ),
    # two cells that swap: the diagonal already returns 2.0 on both, but
    # need(2.0) = 1, so h = 1 certifies it
    (
        table_tree([[(TH, "x y"), (TD, "12")]]),
        table_tree([[(TD, "12"), (TH, "x y")]]),
        {CONTENT: [(0, 0), (1, 1)], STRUCTURE: [(0, 0), (1, 1)]},
    ),
    # a dropped row: 3.0, three deletions, in a band cols + 2 wide with
    # above == 0
    (
        table_tree([[(TD, "a"), (TD, "b")], [(TD, "c"), (TD, "d")], [(TD, "e"), (TD, "f")]]),
        table_tree([[(TD, "a"), (TD, "b")], [(TD, "e"), (TD, "f")]]),
        {CONTENT: [(3, 0)], STRUCTURE: [(3, 0)]},
    ),
    # bound 0, different shapes: the diagonal holds no derivation (inf), so
    # h widens by one, where need(2.0) = 1 is exactly h
    (
        table_tree([[(TD, "a"), (TD, "b")], [(TD, "c")]]),
        table_tree([[(TD, "a")], [(TD, "b"), (TD, "c")]]),
        {CONTENT: [(0, 0), (1, 1)], STRUCTURE: [(0, 0), (1, 1)]},
    ),
    # every row of a 3x3 table rotated by one column: the diagonal and h = 1
    # both return 4.5, whose need is 2, so a third pass at h = 2 certifies it
    (
        table_tree([[(TD, f"{r}{(c + 1) % 3}") for c in range(3)] for r in range(3)]),
        table_tree([[(TD, f"{r}{c}") for c in range(3)] for r in range(3)]),
        {CONTENT: [(0, 0), (1, 1), (2, 2)], STRUCTURE: []},
    ),
    # two tags changed: bound 2, so the first pass is at h = 1, and need(2.0)
    # = 1 is exactly h
    (
        table_tree([[(TD, "a"), (TD, "b")], [(TD, "c")]]),
        table_tree([[(TH, "a"), (TH, "b")], [(TD, "c")]]),
        {CONTENT: [(1, 1)], STRUCTURE: [(1, 1)]},
    ),
]

# Pairs whose band at below = above = 2 (distance 2.0) reads an fd table at
# its stored edges: column 0 of a row whose band starts right of it (fd[p][0]
# = p), and the inf kept above each row's band, which the cell at the band's
# top edge reads (a finite value there gives 1.5)
FD_EDGE_PAIRS = [
    (
        table_tree([[(TH, ""), (TH, "ab")], []]),
        table_tree([[(TD, ""), (TH, ""), (TH, "ab")]]),
    ),
    (
        table_tree([[], [(TD, "")], []]),
        table_tree([[], [(TD, "a")], [(TD, "")]]),
    ),
]


@settings(max_examples=300, deadline=None, derandomize=DERANDOMIZE)
@given(t1=table_trees, t2=table_trees)
@example(t1=EMPTY_ROWS, t2=ONE_CELL_ROWS)
@example(t1=ONE_CELL_ROWS, t2=EMPTY_ROWS)
@example(t1=leaf("td[1,1]", "a"), t2=EMPTY_ROWS)
@example(t1=EMPTY_ROWS, t2=leaf("table", ""))
@example(t1=BAND_PAIRS[0][0], t2=BAND_PAIRS[0][1])
@example(t1=BAND_PAIRS[1][0], t2=BAND_PAIRS[1][1])
@example(t1=BAND_PAIRS[2][0], t2=BAND_PAIRS[2][1])
@example(t1=BAND_PAIRS[3][0], t2=BAND_PAIRS[3][1])
@example(t1=BAND_PAIRS[4][0], t2=BAND_PAIRS[4][1])
@example(t1=BAND_PAIRS[5][0], t2=BAND_PAIRS[5][1])
@example(t1=BAND_PAIRS[6][0], t2=BAND_PAIRS[6][1])
@example(t1=FD_EDGE_PAIRS[0][0], t2=FD_EDGE_PAIRS[0][1])
@example(t1=FD_EDGE_PAIRS[1][0], t2=FD_EDGE_PAIRS[1][1])
def test_tree_distance_equals_zhang_shasha_reference_on_tables(t1, t2):
    for model in (STRUCTURE, CONTENT):
        assert distance(t1, t2, model) == zhang_shasha_reference(t1, t2, model)


@pytest.mark.parametrize(
    "t1, t2, passes",
    BAND_PAIRS,
    ids=[
        "one_row", "one_column", "at_k", "at_k_then_whole", "above_k", "above_k_both", "swap",
        "dropped_row", "diagonal_inf", "rotated", "need_at_first_h",
    ],
)
def test_band_passes_of_pinned_pairs(monkeypatch, t1, t2, passes):
    """Each pinned pair runs the passes it stands for, and its distance is
    the reference's bit for bit, on the trees and on their skeletons."""
    widths = []
    zhang_shasha = metrics._zhang_shasha

    def recording(A, B, below, above=None):
        widths.append((below, below if above is None else above))
        return zhang_shasha(A, B, below, above)

    monkeypatch.setattr(metrics, "_zhang_shasha", recording)
    for model in (CONTENT, STRUCTURE):
        widths.clear()
        dist, want = distance(t1, t2, model), zhang_shasha_reference(t1, t2, model)
        assert dist.hex() == want.hex()
        assert widths == passes[model]


# cell contents that repeat, are empty, differ only in case or whitespace,
# hold characters outside the BMP or CJK text, or are long: repeated units
# of up to a few thousand characters, so that B's contents can fill more
# than one 4,096-bit block
cell_content = st.one_of(
    st.sampled_from(
        ["", "a", "A", "a ", " a", "a b", "a  b", "ab", "ba", "Total", "total",
         "\U0001F600", "a\U0001F600", "\U0001F600a", "\u00e9", "e\u0301"]
    ),
    st.text(alphabet=st.sampled_from("aA \U0001F600\u00e9"), max_size=12),
    st.text(alphabet=st.characters(min_codepoint=0x4E00, max_codepoint=0x4E20), max_size=20),
    st.builds(
        lambda unit, times: unit * times,
        st.sampled_from(["ab", "ba", "a\U0001F600", "\u4e00\u4e8c", "ab "]),
        st.integers(10, 700),
    ),
)
node_lists = st.lists(
    st.builds(DocTree, st.sampled_from(["tr", "td[1,1]", "th[1,1]", "td[1,2]"]), cell_content),
    max_size=12,
)
WIDE = "ab" * 2100  # wider than one block


def flat(nodes: list[DocTree]) -> metrics._Annotated:
    """An annotation whose nodes are ``nodes`` in this order, all of them
    leaves; the rename costs read only its tags and contents."""
    order = list(range(len(nodes)))
    return metrics._Annotated([n.tag for n in nodes], [n.content for n in nodes], order, order)


def in_band(costs, band, above=None):
    """Full rename rows cut to the columns that a band ``band`` below the
    diagonal and ``above`` (default ``band``) above it reads, the shape
    ``_rename_costs`` returns: row ``i`` from column ``max(0, i - band)`` up
    to ``i + above``."""
    if band is None:
        return costs
    if above is None:
        above = band
    return [row[max(0, i - band) : i + above + 1] for i, row in enumerate(costs)]


def rename_costs(a, b, band, above=None) -> list[list[float]]:
    """``_rename_costs`` in a band; ``band=None`` reads every column."""
    if band is None:
        band = above = max(len(a.tags), len(b.tags))
    return metrics._rename_costs(a, b, band, band if above is None else above)


@settings(max_examples=200, deadline=None)
@given(
    a=node_lists,
    b=node_lists,
    width=st.sampled_from([metrics.BLOCK_BITS, 16, 1]),
    band=st.sampled_from([None, 0, 1, 3]),
    above=st.sampled_from([None, 0, 2]),
)
@example(
    a=[DocTree(TD, "ab"), DocTree(TH, "ab"), DocTree(TD, "ba")],
    b=[DocTree(TD, "ba"), DocTree(TD, "ab"), DocTree(TH, "")],
    width=metrics.BLOCK_BITS,
    band=None,
    above=None,
)
# B holds 4,200 + 3 x 1,500 bits of contents, so several blocks, one of them
# for a content wider than a block alone
@example(
    a=[DocTree(TD, WIDE[:-1] + "x"), DocTree(TD, "ba" * 700), DocTree(TD, "\u4e00"), DocTree(TD, "")],
    b=[DocTree(TD, c) for c in ("ab" * 750, WIDE, "ba" * 750, "\u4e00\u4e8c" * 750, "", "ab" * 750)],
    width=metrics.BLOCK_BITS,
    band=None,
    above=None,
)
def test_rename_costs_match_per_pair_reference(a, b, width, band, above):
    """Without a band every row is the reference's; with one, every row
    holds the reference's entries from ``band`` below the diagonal to
    ``above`` above it, and only those. No content of A is scanned twice
    against one block."""
    a, b = flat(a), flat(b)
    want = [
        in_band(rename_costs_reference(a, b, model), band, above) for model in (CONTENT, STRUCTURE)
    ]
    scans, myers = [], metrics._myers

    def recording_myers(masks, tops, bottoms, text):
        scans.append((id(masks), text))
        return myers(masks, tops, bottoms, text)

    with mock.patch.object(metrics, "BLOCK_BITS", width), mock.patch.object(
        metrics, "_myers", recording_myers
    ):
        assert rename_costs(a, b, band, above) == want[0]
        assert len(set(scans)) == len(scans)
        assert rename_costs(a.skeleton(), b.skeleton(), band, above) == want[1]


ABX, ABC, ZZ = ("abx",), ("abc",), ("zz",)  # blocks of one content


@pytest.mark.parametrize(
    "band, width, scans",
    [
        # one block: "abc" is scanned once for its td and its th node
        pytest.param(
            None,
            metrics.BLOCK_BITS,
            [("abc", ("abx", "abc", "zz")), ("abx", ("abx", "abc", "zz"))],
            id="one_block",
        ),
        # blocks [abx] and [abc, zz]: "abx" is not scanned against its own
        # block, "abc" is, for "zz"
        pytest.param(
            None,
            5,
            [("abc", ("abc", "zz")), ("abc", ABX), ("abx", ("abc", "zz"))],
            id="blocks_of_5_bits",
        ),
        # blocks [abx], [abc] and [zz]
        pytest.param(
            None, 1, [("abc", ABX), ("abc", ZZ), ("abx", ABC), ("abx", ZZ)], id="blocks_of_1_bit"
        ),
        # band 1: no row of "abc" reaches "zz"
        pytest.param(1, 1, [("abc", ABX), ("abx", ABC), ("abx", ZZ)], id="band_1"),
        # band 0: each row meets one node, and the two "abc" rows share a scan
        pytest.param(0, 1, [("abc", ABX), ("abx", ABC)], id="band_0"),
    ],
)
def test_rename_costs_scan_each_content_once_per_block(monkeypatch, band, width, scans):
    """B's distinct non-empty contents are packed in postorder into blocks,
    and each distinct content of A is scanned at most once per block that
    its band reaches, only for a pair of one tag, two non-empty contents
    and no equal ones: a tag mismatch, an empty side or equal contents cost
    1.0, 1.0 and 0.0 without a scan."""
    # "abc" and "abx" under two tags, and an empty content on both sides
    a = flat([leaf(TD, "abc"), leaf(TH, "abc"), leaf(TD, "abx"), leaf(TD, "")])
    b = flat([leaf(TD, "abx"), leaf(TH, "abx"), leaf(TD, "abc"), leaf(TD, "zz"), leaf(TD, "")])
    same = flat([leaf(TD, "abc"), leaf(TH, "abc"), leaf(TD, "")])
    expected = [
        in_band(rename_costs_reference(a, b, CONTENT), band),
        in_band(rename_costs_reference(same, same, CONTENT), band),
        in_band(rename_costs_reference(a, b, STRUCTURE), band),
    ]
    blocks, seen = {}, []  # the contents of each packed block, by its masks
    pack, myers = metrics._pack, metrics._myers

    def recording_pack(patterns):
        packed = pack(patterns)
        blocks[id(packed[0])] = tuple(patterns)
        return packed

    def recording_myers(masks, tops, bottoms, text):
        seen.append((text, blocks[id(masks)]))
        return myers(masks, tops, bottoms, text)

    monkeypatch.setattr(metrics, "_pack", recording_pack)
    monkeypatch.setattr(metrics, "_myers", recording_myers)
    monkeypatch.setattr(metrics, "BLOCK_BITS", width)
    assert rename_costs(a, b, band) == expected[0]
    assert sorted(seen) == scans
    # no scan for equal contents, nor for empty ones
    seen.clear()
    assert rename_costs(same, same, band) == expected[1]
    assert rename_costs(a.skeleton(), b.skeleton(), band) == expected[2]
    assert seen == []


# -- TEDS ----------------------------------------------------------------------------


GT = "<table><tr><th>A</th><th>B</th></tr><tr><td>1</td><td>2</td></tr></table>"


def test_teds_identical_tables():
    assert teds(GT, GT) == 1.0
    assert teds(GT, GT, structure_only=True) == 1.0


def test_teds_unparseable_pred_scores_zero():
    assert teds("not a table", GT) == 0.0


def test_teds_unparseable_gt_raises():
    with pytest.raises(GtParseError):
        teds(GT, "not a table")


def test_teds_structure_only_ignores_content():
    pred = GT.replace(">1<", ">999<")
    assert teds(pred, GT, structure_only=True) == 1.0
    assert teds(pred, GT) < 1.0


def test_teds_span_error_is_structural():
    pred = "<table><tr><th colspan=\"2\">A</th></tr><tr><td>1</td><td>2</td></tr></table>"
    gt = "<table><tr><th>A</th><th>B</th></tr><tr><td>1</td><td>2</td></tr></table>"
    assert teds(pred, gt, structure_only=True) < 1.0


def test_grid_to_tree_shape():
    """The reference tree of GT, and the annotation TEDS reads straight from
    its grid: each row's cells, then its tr, then the table."""
    tree = grid_to_tree(parse_grid(GT))
    assert tree.tag == "table"
    assert [c.tag for c in tree.children] == ["tr", "tr"]
    assert [c.tag for c in tree.children[0].children] == ["th[1,1]", "th[1,1]"]
    assert tree.size() == 7
    annotated = metrics._annotate_grid(parse_grid(GT))
    assert annotated == (
        ["th[1,1]", "th[1,1]", "tr", "td[1,1]", "td[1,1]", "tr", "table"],
        ["a", "b", "", "1", "2", "", ""],
        [0, 1, 0, 3, 4, 3, 0],
        [1, 4, 5, 6],
    )
    assert annotated == annotation_reference(tree)


# Grids with every shape the table reader lays out: spans of both kinds,
# header cells, rows that a rowspan covers whole (a tr with no cells), and
# contents that normalize alike (case, inner and outer whitespace)
GRID_TEXTS = ["", "a", "A", " a", "a  b", "A B", "Total", "total ", "12"]


def grid_of(rng: random.Random):
    """A random grid, serialized with empty ``<tr></tr>`` rows put in at
    row boundaries that no rowspan crosses, and read back: the reader pads
    such a row with empty cells. A row that rowspans cover whole has a tr
    without cells."""
    n_rows, n_cols = rng.randint(1, 5), rng.randint(1, 4)
    empty = sorted(rng.sample(range(1, n_rows + 1), rng.randint(0, min(2, n_rows))))
    grid = random_grid(
        rng,
        n_rows,
        n_cols,
        span_prob=rng.choice([0.0, 0.3, 0.8]),
        header_rows=rng.randint(0, n_rows),
        blocked_boundaries=set(empty),
        content=lambda rng, r, c: rng.choice(GRID_TEXTS),
    )
    rows = serialize_grid(grid).split("</tr>")
    for boundary in reversed(empty):  # after row boundary - 1
        rows.insert(boundary, "<tr>")
    return parse_grid("</tr>".join(rows))


# a rowspan over three rows leaves rows 1 and 2 without a cell; an empty
# first row, padded; a lone cell
ROWSPAN_ONLY = "<table><tr><td rowspan=3>a</td></tr><tr></tr><tr></tr></table>"
EMPTY_FIRST = "<table><tr></tr><tr><th>x</th><td rowspan=2>Y </td></tr><tr></tr></table>"
LONE_CELL = "<table><tr><td>a</td></tr></table>"


@settings(max_examples=150, deadline=None, derandomize=DERANDOMIZE)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=0)
def test_grid_annotation_equals_the_reference_tree(seed):
    """On random grids, the one-pass grid annotation equals the annotation of
    the reference tree field by field, and the TEDS and TEDS-S that ``eval``
    and :func:`teds` take from it are the reference dynamic program's, bit
    for bit."""
    rng = random.Random(seed)
    pairs = [(grid_of(rng), grid_of(rng))] + [
        (parse_grid(h1), parse_grid(h2))
        for h1, h2 in [(ROWSPAN_ONLY, EMPTY_FIRST), (EMPTY_FIRST, LONE_CELL)]
    ]
    for grid in (grid for pair in pairs for grid in pair):
        for field, got, want in zip(
            metrics._Annotated._fields,
            metrics._annotate_grid(grid),
            annotation_reference(grid_to_tree(grid)),
        ):
            assert got == want, field
    for g1, g2 in pairs:
        t1, t2 = grid_to_tree(g1), grid_to_tree(g2)
        n_nodes = max(t1.size(), t2.size())
        expected = [
            metrics._similarity(zhang_shasha_reference(t1, t2, model), n_nodes).hex()
            for model in (CONTENT, STRUCTURE)
        ]
        h1, h2 = serialize_grid(g1), serialize_grid(g2)
        scores = evaluate_pair(h1, h2, "table")
        assert [scores["teds"].hex(), scores["teds_structure"].hex()] == expected
        assert [teds(h1, h2).hex(), teds(h1, h2, structure_only=True).hex()] == expected


@settings(max_examples=150, deadline=None, derandomize=DERANDOMIZE)
@given(seed=st.integers(0, 2**32 - 1))
def test_tree_annotation_equals_the_reference(seed):
    """The annotation ``tree_edit_distance`` takes of a general tree equals
    the reference's, and its skeleton keeps every field but the contents."""
    tree = random_tree(random.Random(seed), 14)
    annotated = metrics._annotate(tree)
    assert annotated == annotation_reference(tree)
    assert annotated.skeleton() == annotation_reference(skeleton(tree))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=262143)  # a 3x1 table against a 1x4 one: TED exceeds max(nodes)
def test_teds_bounds_and_self_similarity(seed):
    from conftest import random_grid
    from docpost.table_grid import serialize_grid

    rng = random.Random(seed)
    g1 = random_grid(rng, rng.randint(1, 4), rng.randint(1, 4))
    g2 = random_grid(rng, rng.randint(1, 4), rng.randint(1, 4))
    h1, h2 = serialize_grid(g1), serialize_grid(g2)
    assert teds(h1, h1) == 1.0
    score = teds(h1, h2)
    assert 0.0 <= score <= 1.0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_evaluate_pair_table_matches_teds(seed):
    from conftest import random_grid
    from docpost.table_grid import serialize_grid

    rng = random.Random(seed)
    h1 = serialize_grid(random_grid(rng, rng.randint(1, 5), rng.randint(1, 5)))
    h2 = serialize_grid(random_grid(rng, rng.randint(1, 5), rng.randint(1, 5)))
    assert evaluate_pair(h1, h2, "table") == {
        "teds": teds(h1, h2),
        "teds_structure": teds(h1, h2, structure_only=True),
    }


def test_evaluate_pair_table_parses_each_side_once(monkeypatch):
    """Each side is parsed once, and two equal strings once between them."""
    calls = []

    def counting_parse_grid(html):
        calls.append(html)
        return parse_grid(html)

    monkeypatch.setattr(metrics, "parse_grid", counting_parse_grid)
    pred = GT.replace(">1<", ">7<")
    evaluate_pair(pred, GT, "table")
    assert sorted(calls) == sorted([pred, GT])
    calls.clear()
    evaluate_pair("not a table", GT, "table")
    assert len(calls) == 2
    calls.clear()
    assert evaluate_pair(GT, GT, "table") == {"teds": 1.0, "teds_structure": 1.0}
    assert teds(GT, GT, structure_only=True) == 1.0
    assert calls == [GT, GT]
    calls.clear()
    with pytest.raises(GtParseError):
        evaluate_pair("not a table", "not a table", "table")
    assert calls == ["not a table"]


GT3 = GT.replace("</table>", "<tr><td>3</td><td>4</td></tr></table>")
ROW2 = "<tr><td>1</td><td>2</td></tr>"


def record_passes(monkeypatch) -> list:
    """Make ``metrics._zhang_shasha`` append each pass's ``(below, above,
    skeletons)`` to the returned list, ``skeletons`` true when both trees
    have only empty contents."""
    passes = []
    zhang_shasha = metrics._zhang_shasha

    def recording(A, B, below, above=None):
        passes.append((below, above, not any(A.contents) and not any(B.contents)))
        return zhang_shasha(A, B, below, above)

    monkeypatch.setattr(metrics, "_zhang_shasha", recording)
    return passes


def test_teds_structure_of_text_corruption_skips_the_dp(monkeypatch):
    pred = GT3.replace(">1<", ">17<").replace(">B<", ">b <")
    t1, t2 = (grid_to_tree(parse_grid(h)) for h in (pred, GT3))
    assert zhang_shasha_reference(t1, t2, STRUCTURE) == 0.0
    assert skeleton(t1) == skeleton(t2)
    a1, a2 = (metrics._annotate_grid(parse_grid(h)) for h in (pred, GT3))
    assert a1 != a2
    assert a1.skeleton() == a2.skeleton()
    passes = record_passes(monkeypatch)
    assert teds(pred, GT3, structure_only=True) == 1.0
    assert distance(t1, t2, STRUCTURE) == 0.0
    assert passes == []
    assert teds(pred, GT3) < 1.0  # the content-aware distance still runs the DP
    assert passes == [(0, 0, False)]


SHAPE_CORRUPTIONS = [
    (GT3.replace("<th>A</th><th>B</th>", '<th colspan="2">A</th>'), 2.0),  # span
    (GT3.replace(ROW2, ""), 3.0),  # dropped row
    (GT3.replace(ROW2, ROW2 + ROW2), 3.0),  # duplicated row
]


@pytest.mark.parametrize("pred, skeleton_distance", SHAPE_CORRUPTIONS)
def test_teds_structure_of_shape_corruption_runs_the_dp(monkeypatch, pred, skeleton_distance):
    t1, t2 = (grid_to_tree(parse_grid(h)) for h in (pred, GT3))
    passes = record_passes(monkeypatch)
    assert distance(t1, t2, STRUCTURE) == skeleton_distance
    assert len(passes) == 1 and passes[0][2]
    passes.clear()
    assert teds(pred, GT3, structure_only=True) == 1.0 - skeleton_distance / max(
        t1.size(), t2.size()
    )
    assert len(passes) == 1 and passes[0][2]
    assert zhang_shasha_reference(t1, t2, STRUCTURE) == skeleton_distance
    assert teds(pred, GT3, structure_only=True) == 1.0 - skeleton_distance / max(
        t1.size(), t2.size()
    )


def test_same_skeleton_edge_cases():
    def row(*tags):
        return DocTree("tr", children=[leaf(tag) for tag in tags])

    base = DocTree("table", children=[row("td[1,1]", "td[1,1]"), row("td[1,1]")])
    # the same tags in the same order, with one cell moved between rows
    moved = DocTree("table", children=[row("td[1,1]"), row("td[1,1]", "td[1,1]")])
    # a different tag at depth 2
    header = DocTree("table", children=[row("td[1,1]", "th[1,1]"), row("td[1,1]")])
    recontent = DocTree("table", children=[row("td[1,1]", "td[1,1]"), row("td[1,1]")])
    recontent.children[1].children[0].content = "x"
    assert skeleton(base) == skeleton(recontent)
    assert skeleton(base) != skeleton(moved)
    assert skeleton(base) != skeleton(header)
    assert recontent.children[1].children[0].content == "x"  # the copy leaves its tree alone
    # the annotations' skeletons compare alike, and leave theirs alone
    base_a, moved_a, header_a, recontent_a = map(metrics._annotate, (base, moved, header, recontent))
    assert base_a.skeleton() == recontent_a.skeleton()
    assert base_a.skeleton() != moved_a.skeleton()
    assert base_a.skeleton() != header_a.skeleton()
    assert recontent_a.contents[3] == "x"
    assert distance(base, moved, STRUCTURE) == 2.0
    assert distance(base, header, STRUCTURE) == 1.0
    assert distance(base, recontent, STRUCTURE) == 0.0
    assert distance(base, recontent, CONTENT) == 1.0


def with_new_contents(tree: DocTree, rng: random.Random) -> DocTree:
    return DocTree(
        tree.tag,
        rng.choice(["", "a", "ab", "zz"]),
        [with_new_contents(child, rng) for child in tree.children],
    )


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_structure_distance_matches_the_dp(seed):
    rng = random.Random(seed)
    t1 = random_tree(rng, 10)
    for t2 in (with_new_contents(t1, rng), random_tree(rng, 10)):
        assert distance(t1, t2, STRUCTURE) == zhang_shasha_reference(t1, t2, STRUCTURE)


def test_evaluate_pair_pins_teds_structure_without_the_dp(monkeypatch):
    """The tag-count bound settles GT3's shape corruptions, so only the
    content-aware distance runs the dynamic program; it leaves the 3x1 table
    against the 1x4 one open, so that pair also runs the structure-only
    dynamic program, on the skeletons."""
    three_rows = "<table><tr><td>1</td></tr><tr><td>2</td></tr><tr><td>3</td></tr></table>"
    one_row = "<table><tr><td>1</td><td>2</td><td>3</td><td>4</td></tr></table>"
    ladder = [(1, 0), (2, 1), (3, 2)]
    pairs = [
        (SHAPE_CORRUPTIONS[0][0], GT3, [(0, 1, False)]),
        (SHAPE_CORRUPTIONS[1][0], GT3, [(0, 3, False)]),
        (SHAPE_CORRUPTIONS[2][0], GT3, [(3, 0, False)]),
        (three_rows, one_row, [(*band, False) for band in ladder] + [(*band, True) for band in ladder]),
    ]
    passes = record_passes(monkeypatch)
    for pred, gt, want in pairs:
        passes.clear()
        values = evaluate_pair(pred, gt, "table")
        assert passes == want
        assert values == {
            "teds": teds(pred, gt),
            "teds_structure": teds(pred, gt, structure_only=True),
        }


def corrupted(tree: DocTree, kind: str, rng: random.Random) -> DocTree:
    """A copy of ``tree`` with one shape fault: a node's tag changed
    (``"span"``), a child of the root dropped (``"drop_row"``) or repeated
    in place (``"dup_row"``); half the time one content changes as well."""
    out = copy.deepcopy(tree)
    nodes, stack = [], [out]
    while stack:
        nodes.append(stack.pop())
        stack.extend(nodes[-1].children)
    if kind == "span":
        rng.choice(nodes).tag = rng.choice(["td[1,1]", "td[2,1]", "td[1,2]", "th[1,1]", "tr"])
    elif out.children:
        k = rng.randrange(len(out.children))
        if kind == "drop_row":
            del out.children[k]
        else:
            out.children.insert(k, copy.deepcopy(out.children[k]))
    if rng.random() < 0.5:
        rng.choice(nodes).content = rng.choice(["", "a", "ab", "total", "x y"])
    return out


any_trees = st.one_of(
    table_trees, st.integers(0, 2**32 - 1).map(lambda seed: random_tree(random.Random(seed), 14))
)


# B is A with nodes inserted, so the least-cost mapping runs along the
# band's edge: a row appended (the root cell k columns right of the
# diagonal), two cells put before a row's cells (a leaf k to the right), and
# a row put between two rows (a row's keyroot table k to the right)
ONE_ROW = table_tree([[(TD, "a"), (TD, "b")]])
EDGE_PAIRS = [
    (ONE_ROW, table_tree([[(TD, "a"), (TD, "b")], [(TD, "c")]])),
    (ONE_ROW, table_tree([[(TD, "x"), (TD, "y"), (TD, "a"), (TD, "b")]])),
    (
        table_tree([[(TD, "a")], [(TD, "c"), (TD, "d")]]),
        table_tree([[(TD, "a")], [(TD, "x"), (TD, "y")], [(TD, "c"), (TD, "d")]]),
    ),
]


@settings(max_examples=150, deadline=None, derandomize=DERANDOMIZE)
@given(t1=any_trees, t2=any_trees)
@example(t1=FD_EDGE_PAIRS[0][0], t2=FD_EDGE_PAIRS[0][1])
@example(t1=FD_EDGE_PAIRS[1][0], t2=FD_EDGE_PAIRS[1][1])
@example(t1=BAND_PAIRS[3][0], t2=BAND_PAIRS[3][1])
@example(t1=BAND_PAIRS[5][0], t2=BAND_PAIRS[5][1])
@example(t1=EDGE_PAIRS[0][0], t2=EDGE_PAIRS[0][1])
@example(t1=EDGE_PAIRS[0][1], t2=EDGE_PAIRS[0][0])
@example(t1=EDGE_PAIRS[1][0], t2=EDGE_PAIRS[1][1])
@example(t1=EDGE_PAIRS[1][1], t2=EDGE_PAIRS[1][0])
@example(t1=EDGE_PAIRS[2][0], t2=EDGE_PAIRS[2][1])
@example(t1=EDGE_PAIRS[2][1], t2=EDGE_PAIRS[2][0])
def test_band_of_every_width_is_exact_within_it(t1, t2):
    """At every band width k, the banded dynamic program returns no less
    than the reference, and the reference bit for bit when either is at
    most k: the band holds every derivation that costs at most k. The
    second pass of tree_edit_distance would hide a band that is too narrow;
    this reads each width alone."""
    for model in (CONTENT, STRUCTURE):
        A, B = metrics._annotate(t1), metrics._annotate(t2)
        if model == STRUCTURE:
            A, B = A.skeleton(), B.skeleton()
        want = zhang_shasha_reference(t1, t2, model)
        for k in range(1, len(A.tags) + len(B.tags) + 1):
            dist = metrics._zhang_shasha(A, B, k, k)
            assert dist >= want
            if min(dist, want) <= k:
                assert dist.hex() == want.hex()


@settings(max_examples=60, deadline=None, derandomize=DERANDOMIZE)
@given(t1=table_trees, t2=table_trees)
@example(t1=FD_EDGE_PAIRS[0][0], t2=FD_EDGE_PAIRS[0][1])
@example(t1=FD_EDGE_PAIRS[1][0], t2=FD_EDGE_PAIRS[1][1])
@example(t1=BAND_PAIRS[7][0], t2=BAND_PAIRS[7][1])
@example(t1=BAND_PAIRS[8][0], t2=BAND_PAIRS[8][1])
@example(t1=BAND_PAIRS[9][0], t2=BAND_PAIRS[9][1])
@example(t1=EDGE_PAIRS[1][0], t2=EDGE_PAIRS[1][1])
@example(t1=EDGE_PAIRS[2][1], t2=EDGE_PAIRS[2][0])
def test_one_sided_band_of_every_shape_is_exact_within_it(t1, t2):
    """At every (below, above), the banded dynamic program returns no less
    than the reference, and the reference bit for bit when the band holds
    every mapping that costs at most ``c = min(dist, want)``. Such a mapping
    has at most ``floor(c)`` deletions and insertions, ``del - ins = delta``,
    so at most ``(floor(c) + delta) // 2`` deletions and ``(floor(c) -
    delta) // 2`` insertions. Past ``n1`` below or ``n2`` above, that side
    of the band is whole."""
    for model in (CONTENT, STRUCTURE):
        A, B = metrics._annotate(t1), metrics._annotate(t2)
        if model == STRUCTURE:
            A, B = A.skeleton(), B.skeleton()
        delta = len(A.tags) - len(B.tags)
        want = zhang_shasha_reference(t1, t2, model)
        for below in range(len(A.tags) + 1):
            for above in range(len(B.tags) + 1):
                dist = metrics._zhang_shasha(A, B, below, above)
                assert dist >= want
                edits = math.floor(min(dist, want))
                if (edits + delta) // 2 <= below and (edits - delta) // 2 <= above:
                    assert dist.hex() == want.hex()


FOUR_BY_FOUR = table_tree([[(TD, f"{r}.{c}") for c in range(4)] for r in range(4)])


@settings(max_examples=100, deadline=None, derandomize=DERANDOMIZE)
@given(t1=any_trees, t2=any_trees)
@example(t1=FOUR_BY_FOUR, t2=table_tree([[(TD, f"{r}.{c}") for c in range(4)] for r in range(2)]))
@example(t1=BAND_PAIRS[9][0], t2=BAND_PAIRS[9][1])
def test_any_lower_bound_gives_the_distance(t1, t2):
    """``_distance``'s ``bound`` only picks the first band: every lower bound
    from 0 up to the tag-count bound gives the reference's distance bit for
    bit. (A 4x4 table against its first two rows at bound 0 once raised
    ``OverflowError``: the band missed the last cell.)"""
    bound = metrics._structure_bound(metrics._annotate(t1).tags, metrics._annotate(t2).tags)
    for model in (CONTENT, STRUCTURE):
        a, b = (t1, t2) if model == CONTENT else (skeleton(t1), skeleton(t2))
        A, B = metrics._annotate(a), metrics._annotate(b)
        want = zhang_shasha_reference(t1, t2, model).hex()
        for lower in range(bound + 1):
            assert metrics._distance(A, B, lower).hex() == want


@settings(max_examples=400, deadline=None, derandomize=DERANDOMIZE)
@given(
    t1=any_trees,
    t2=any_trees,
    kind=st.sampled_from(["span", "drop_row", "dup_row", None]),
    seed=st.integers(0, 2**32 - 1),
)
@example(t1=EMPTY_ROWS, t2=ONE_CELL_ROWS, kind=None, seed=0)
@example(t1=leaf("td[1,1]", "a"), t2=EMPTY_ROWS, kind=None, seed=0)
def test_structure_bound_pins_the_structure_distance(t1, t2, kind, seed):
    """The tag-count bound is at most the structure-only distance, and when
    the content-aware distance is below ``bound + 1`` the structure-only
    dynamic program returns ``float(bound)`` bit for bit. The scores that
    ``eval`` takes from the bound equal those of both dynamic programs."""
    if kind is not None:
        t2 = corrupted(t1, kind, random.Random(seed))
    A, B = metrics._annotate(t1), metrics._annotate(t2)
    tags1, tags2 = A.tags, B.tags
    bound = metrics._structure_bound(tags1, tags2)
    structure = zhang_shasha_reference(t1, t2, STRUCTURE)
    assert bound <= structure
    if tree_edit_distance(t1, t2) < bound + 1:
        for dist in (structure, distance(t1, t2, STRUCTURE)):
            assert dist == float(bound)
            assert dist.hex() == float(bound).hex()
    n_nodes = max(len(tags1), len(tags2))
    expected = [
        metrics._similarity(zhang_shasha_reference(t1, t2, model), n_nodes).hex()
        for model in (CONTENT, STRUCTURE)
    ]
    assert [score.hex() for score in metrics._table_scores(A, B)] == expected


EVAL_SHARDS = Path(__file__).parent / "fixtures" / "eval" / "shards.json"


def test_evaluate_batch_matches_recorded_rows():
    """Rows recorded from the implementation that costed every rename pair
    separately and ran the DP for every TEDS-S, on shards 0-2 of
    ``perfbench/gen.py``'s ``table_eval`` generator at seed 9. Shard 0 holds
    the 3x1 table against the 1x4 one."""
    shards = json.loads(EVAL_SHARDS.read_text(encoding="utf-8"))
    shapes = set()
    for shard in shards:
        assert evaluate_batch(shard["batch"]) == shard["rows"]
        for entry in shard["batch"]:
            if entry["kind"] == "table":
                pred, gt = parse_grid(entry["pred"]), parse_grid(entry["gt"])
                shapes.add((pred.n_rows, pred.n_cols, gt.n_rows, gt.n_cols))
    assert (3, 1, 1, 4) in shapes


PROBE = Path(__file__).resolve().parent.parent / "tools" / "teds_probe.py"


def test_teds_memory_follows_the_band():
    """One content ``teds()`` call on a 20x20 table with four cell texts
    edited (421 nodes a side, passes on the diagonal and at below = above =
    1) peaks under 1.5 MB, less than one 421 x 421 list of floats: subtree
    distances, rename costs and forest tables are kept in the band only.
    Rows of every column peaked at 4.6 MB on this call, band rows at 0.6 MB."""
    spec = importlib.util.spec_from_file_location("teds_probe", PROBE)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    pred, gt = probe.probe_pair(20, 4, rotate=False)
    teds(GT, GT)  # the parser's first call sets up its caches
    tracemalloc.start()
    try:
        score = teds(pred, gt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.99 < score < 1.0
    assert peak < 1.5 * 2**20


def test_teds_leaves_no_cyclic_trees():
    pred = GT.replace(">1<", ">7<")
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        teds(pred, GT)
        tree_edit_distance(grid_to_tree(parse_grid(pred)), grid_to_tree(parse_grid(GT)))
        gc.collect()
        trees = [obj for obj in gc.garbage if isinstance(obj, (DocTree, metrics._Annotated))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert trees == []


# -- reading order ----------------------------------------------------------------------


def test_reading_order_identical():
    assert reading_order_edit([0, 1, 2], [0, 1, 2]) == 0.0


def test_reading_order_reversed_pair():
    assert reading_order_edit([1, 0], [0, 1]) == 1.0


def test_reading_order_one_insertion():
    # DP on tokens: one insertion against a 4-element sequence, max len 5
    assert reading_order_edit([0, 1, 2, 3], [0, 1, 9, 2, 3]) == pytest.approx(0.2)


def test_reading_order_accepts_strings():
    assert reading_order_edit("a b c", "a b c") == 0.0


order_token = st.one_of(
    st.integers(0, 5),
    st.sampled_from(["p", "q", "r"]),
    st.lists(st.integers(0, 2), max_size=2),
    st.lists(st.lists(st.integers(0, 1), max_size=1), max_size=1),
)


@settings(max_examples=120, deadline=None)
@given(
    pred=st.lists(order_token, max_size=40),
    gt=st.lists(order_token, max_size=40),
)
@example(pred=[[1, [2]], [3]], gt=[[1, [2]], [4]])
@example(pred=[0, 1, 2, 3], gt=[0, 1, 9, 2, 3])
def test_reading_order_matches_token_oracle(pred, gt):
    expected = levenshtein_full_matrix(pred, gt) / max(len(pred), len(gt), 1)
    assert reading_order_edit(pred, gt) == expected


# JSON values: numbers that are equal across types (1, 1.0, true and 0,
# 0.0, false), null, strings, and arrays and objects nesting them
json_token = st.recursive(
    st.sampled_from([0, 1, 2, 0.0, 1.0, True, False, None, "a", "b"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from("xy"), inner, max_size=2),
    max_leaves=6,
)


@settings(max_examples=200, deadline=None)
@given(a=st.lists(json_token, max_size=12), b=st.lists(json_token, max_size=12))
@example(a=[{"x": [1, {"y": None}]}, [True]], b=[{"x": [1.0, {"y": None}]}, [1], [1.0]])
@example(a=[[1], {"x": 1}, None], b=[[True], {"x": True}, {"x": None}])
def test_unhashable_tokens_match_full_matrix_oracle(a, b):
    assert metrics._levenshtein(a, b) == levenshtein_full_matrix(a, b)


def test_unhashable_tokens_number_in_linear_time():
    # one rotation step of 8,000 array tokens; numbering tokens by scanning
    # the ones seen so far took over 3 s here
    tokens = [[i, i % 7] for i in range(8000)]
    start = time.perf_counter()
    [row] = evaluate_batch([{"pred": tokens, "gt": tokens[1:] + tokens[:1], "kind": "order"}])
    assert time.perf_counter() - start < 1.0
    assert row["metrics"]["reading_order_edit"] == 2 / 8000


# -- batch ---------------------------------------------------------------------------------


def test_evaluate_batch_rows():
    rows = evaluate_batch(
        [
            {"pred": "abc", "gt": "abd", "kind": "text"},
            {"pred": GT, "gt": GT, "kind": "table"},
            {"pred": [0, 1], "gt": [1, 0], "kind": "order"},
        ]
    )
    assert rows[0]["metrics"]["edit_distance"] == 1.0
    assert rows[1]["metrics"]["teds"] == 1.0
    assert rows[2]["metrics"]["reading_order_edit"] == 1.0
    assert [list(row["metrics"]) for row in rows] == [
        ["edit_distance", "normalized_edit_distance"],
        ["teds", "teds_structure"],
        ["reading_order_edit"],
    ]


def test_evaluate_pair_unknown_kind():
    with pytest.raises(ValueError):
        evaluate_pair("a", "b", "audio")
