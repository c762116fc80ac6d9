import gc
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import exhaustive_tree_distance, levenshtein_full_matrix, random_tree
from docpost.metrics import (
    CONTENT_AWARE,
    STRUCTURE_ONLY,
    DocTree,
    GtParseError,
    edit_distance,
    evaluate_batch,
    evaluate_pair,
    grid_to_tree,
    normalized_edit_distance,
    reading_order_edit,
    teds,
    tree_edit_distance,
)
from docpost import metrics
from docpost.table_grid import parse_grid

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


def test_tree_distance_identical():
    t = DocTree("table", children=[DocTree("tr", children=[leaf("td[1,1]", "x")])])
    assert tree_edit_distance(t, t, STRUCTURE_ONLY) == 0.0
    assert tree_edit_distance(t, t, CONTENT_AWARE) == 0.0


def test_tree_distance_single_vs_empty():
    assert tree_edit_distance(leaf("td[1,1]"), None) == 1.0
    assert tree_edit_distance(None, leaf("td[1,1]")) == 1.0
    assert tree_edit_distance(None, None) == 0.0


def test_tree_distance_one_rename():
    t1 = DocTree("table", children=[leaf("td[1,1]", "a")])
    t2 = DocTree("table", children=[leaf("td[2,1]", "a")])
    assert tree_edit_distance(t1, t2, STRUCTURE_ONLY) == 1.0


def test_tree_distance_content_costs_normalized_edit():
    t1 = DocTree("table", children=[leaf("td[1,1]", "abcd")])
    t2 = DocTree("table", children=[leaf("td[1,1]", "abcx")])
    assert tree_edit_distance(t1, t2, CONTENT_AWARE) == pytest.approx(0.25)
    assert tree_edit_distance(t1, t2, STRUCTURE_ONLY) == 0.0


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_tree_distance_matches_exhaustive_oracle(seed):
    rng = random.Random(seed)
    t1, t2 = random_tree(rng, 8), random_tree(rng, 8)
    for model in (STRUCTURE_ONLY, CONTENT_AWARE):
        fast = tree_edit_distance(t1, t2, model)
        brute = exhaustive_tree_distance(t1, t2, model)
        assert fast == pytest.approx(brute, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_structure_distance_never_exceeds_content_distance(seed):
    rng = random.Random(seed)
    t1, t2 = random_tree(rng, 8), random_tree(rng, 8)
    assert tree_edit_distance(t1, t2, STRUCTURE_ONLY) <= tree_edit_distance(
        t1, t2, CONTENT_AWARE
    ) + 1e-12


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
    tree = grid_to_tree(parse_grid(GT))
    assert tree.tag == "table"
    assert [c.tag for c in tree.children] == ["tr", "tr"]
    assert [c.tag for c in tree.children[0].children] == ["th[1,1]", "th[1,1]"]
    assert tree.size() == 7


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
    values = {r.name: r.value for r in evaluate_pair(h1, h2, "table")}
    assert values == {
        "teds": teds(h1, h2),
        "teds_structure": teds(h1, h2, structure_only=True),
    }


def test_evaluate_pair_table_parses_each_side_once(monkeypatch):
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


def test_teds_leaves_no_cyclic_trees():
    pred = GT.replace(">1<", ">7<")
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        teds(pred, GT)
        gc.collect()
        trees = [obj for obj in gc.garbage if isinstance(obj, DocTree)]
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


def test_evaluate_pair_unknown_kind():
    with pytest.raises(ValueError):
        evaluate_pair("a", "b", "audio")
