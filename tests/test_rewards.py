import dataclasses
import random
import statistics
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REWARD_KEYS, keyset_scorer_cmd, random_grid
from oracles import (
    ROW_COLUMN_PERTURBATIONS_REFERENCE,
    perturb_table_reference,
    swap_candidates_reference,
)
from docpost._external import external_scorer
from docpost.config import Config, ConfigError
from docpost.metrics import teds
from docpost.rewards import (
    EmptyGroup,
    InapplicablePerturbation,
    PerturbationKind,
    PrefPair,
    composite_reward,
    group_advantages,
    perturb_table,
    render_candidate,
    rule_checks,
    _PERTURBATIONS,
    _swap_cells,
)
from docpost.table_grid import TableError, TableGrid, grid_from_cells, parse_grid, serialize_grid


VALID = "<table><tr><td>a</td><td>b</td></tr><tr><td>c</td><td>d</td></tr></table>"


# -- rule checks ---------------------------------------------------------------


def test_rule_checks_all_pass():
    report = rule_checks(VALID, expected_placeholders=0)
    assert report.well_formed and report.rectangular
    assert report.placeholder_ok and report.non_empty
    assert report.score == 1.0


def test_rule_checks_unparseable():
    report = rule_checks("just text, no table")
    assert not report.well_formed
    assert not report.non_empty
    assert report.score < 1.0


def test_rule_checks_placeholder_count():
    html = "<table><tr><td><img></td></tr></table>"
    assert not rule_checks(html, expected_placeholders=2).placeholder_ok
    assert rule_checks(html, expected_placeholders=1).placeholder_ok


def test_rule_checks_counts_tags_by_the_restore_rule():
    # an "<img" with no ">" after it holds no tag, as restore_images reads it
    unterminated = "<table><tr><td>a <img"
    assert not rule_checks(unterminated, expected_placeholders=1).placeholder_ok
    assert rule_checks(unterminated, expected_placeholders=0).placeholder_ok
    # a tag runs to the first ">" after its "<img"
    nested = "<table><tr><td><img<img></td></tr></table>"
    assert rule_checks(nested, expected_placeholders=1).placeholder_ok


def test_rule_checks_ragged_is_not_rectangular():
    ragged = "<table><tr><td>a</td><td>b</td></tr><tr><td>c</td></tr></table>"
    report = rule_checks(ragged)
    assert report.well_formed and not report.rectangular


def test_rule_checks_custom_weights():
    cfg = Config(rule_weights=(1.0, 0.0, 0.0, 0.0))
    assert rule_checks(VALID, cfg=cfg).score == 1.0
    assert rule_checks("nope", cfg=cfg).score == 0.0
    with pytest.raises(ConfigError):
        Config(rule_weights=(0.5, 0.5, 0.5, 0.5))


# -- composite reward ---------------------------------------------------------------


def test_composite_reward_values():
    assert composite_reward(1.0, 1.0, 0.3) == 1.0
    assert composite_reward(0.0, 1.0, 0.5) == 0.5
    assert composite_reward(0.5, 0.9, 0.4) == pytest.approx(0.74)


def test_composite_reward_rejects_out_of_range():
    with pytest.raises(ValueError):
        composite_reward(1.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        composite_reward(0.5, -0.1, 0.5)
    with pytest.raises(ValueError):
        composite_reward(0.5, 0.5, 2.0)


@settings(max_examples=60, deadline=None)
@given(
    r1=st.floats(0, 1),
    r2=st.floats(0, 1),
    m1=st.floats(0, 1),
    m2=st.floats(0, 1),
    w=st.floats(0, 1),
)
def test_composite_reward_monotone(r1, r2, m1, m2, w):
    lo_r, hi_r = sorted((r1, r2))
    lo_m, hi_m = sorted((m1, m2))
    assert composite_reward(lo_r, lo_m, w) <= composite_reward(hi_r, hi_m, w) + 1e-12


def test_render_candidate_is_canonical():
    messy = "<table> <tr>\n<td>a</td></tr></table>"
    assert render_candidate(messy) == serialize_grid(parse_grid(messy))


def test_subprocess_reward_scorer():
    # the scorer answers only a payload with exactly the protocol's keys
    scorer = external_scorer(keyset_scorer_cmd(REWARD_KEYS, 0.25), "")
    payload = {
        "original_descriptor": "orig",
        "candidate_html": VALID,
        "rendered_canonical": render_candidate(VALID),
    }
    assert scorer(payload) == 0.25


# -- group advantages -----------------------------------------------------------------


def test_group_advantages_alternating():
    assert group_advantages([1.0, 0.0, 1.0, 0.0], eps=0.0) == [1.0, -1.0, 1.0, -1.0]


def test_group_advantages_constant_group():
    assert group_advantages([0.7, 0.7, 0.7]) == [0.0, 0.0, 0.0]
    assert group_advantages([0.7], eps=0.0) == [0.0]


def test_group_advantages_direct_arithmetic():
    rewards = [0.2, 0.8, 0.5]
    adv = group_advantages(rewards, eps=0.0)
    mean = sum(rewards) / 3
    std = statistics.pstdev(rewards)
    expected = [(r - mean) / std for r in rewards]
    assert adv == pytest.approx(expected)
    assert sum(adv) == pytest.approx(0.0, abs=1e-12)
    assert statistics.pstdev(adv) == pytest.approx(1.0, abs=1e-12)


def test_group_advantages_empty():
    with pytest.raises(EmptyGroup):
        group_advantages([])


@settings(max_examples=100, deadline=None)
@given(
    eighths=st.lists(st.integers(-80, 80), min_size=2, max_size=16),
    shift_eighths=st.integers(-40, 40),
)
def test_group_advantages_properties(eighths, shift_eighths):
    # dyadic values keep the shift from being absorbed below the float ulp
    rewards = [v / 8 for v in eighths]
    shift = shift_eighths / 8
    adv = group_advantages(rewards, eps=0.0)
    assert abs(sum(adv) / len(adv)) < 1e-9
    if statistics.pstdev(rewards) > 0:
        assert abs(statistics.pstdev(adv) - 1.0) < 1e-9
    shifted = group_advantages([r + shift for r in rewards], eps=0.0)
    assert shifted == pytest.approx(adv, abs=1e-9)


# -- perturbations ---------------------------------------------------------------------


GT = (
    "<table><tr><th>Name</th><th>Qty</th><th>Price</th></tr>"
    "<tr><td>Bolt</td><td>4</td><td>1.20</td></tr>"
    "<tr><td>Nut</td><td>8</td><td>0.55</td></tr></table>"
)


def test_swap_cells_deterministic():
    pair = perturb_table(GT, PerturbationKind.SWAP_CELLS, rng_seed=7)
    again = perturb_table(GT, PerturbationKind.SWAP_CELLS, rng_seed=7)
    assert pair == again
    assert pair.positive != pair.negative
    # exactly two cell contents exchanged
    pos = sorted(c.content for c in parse_grid(pair.positive).cells)
    neg = sorted(c.content for c in parse_grid(pair.negative).cells)
    assert pos == neg
    diff = [
        (a.content, b.content)
        for a, b in zip(parse_grid(pair.positive).cells, parse_grid(pair.negative).cells)
        if a.content != b.content
    ]
    assert len(diff) == 2


def test_drop_row_on_single_row_inapplicable():
    with pytest.raises(InapplicablePerturbation):
        perturb_table("<table><tr><td>only</td></tr></table>", PerturbationKind.DROP_ROW, 1)


def test_drop_row_removes_one_row():
    pair = perturb_table(GT, PerturbationKind.DROP_ROW, rng_seed=3)
    assert parse_grid(pair.negative).n_rows == 2


def test_drop_column_removes_one_column():
    pair = perturb_table(GT, PerturbationKind.DROP_COLUMN, rng_seed=3)
    assert parse_grid(pair.negative).n_cols == 2


def test_duplicate_row_adds_one_row():
    pair = perturb_table(GT, PerturbationKind.DUPLICATE_ROW, rng_seed=5)
    grid = parse_grid(pair.negative)
    assert grid.n_rows == 4
    rows = [tuple(grid.row_contents(r)) for r in range(4)]
    assert len(rows) != len(set(rows))  # some row appears twice


def test_change_span_alters_structure():
    pair = perturb_table(GT, PerturbationKind.CHANGE_SPAN, rng_seed=11)
    assert teds(pair.negative, pair.positive, structure_only=True) < 1.0


def test_corrupt_text_changes_one_cell():
    pair = perturb_table(GT, PerturbationKind.CORRUPT_TEXT, rng_seed=2)
    pos_cells = parse_grid(pair.positive).cells
    neg_cells = parse_grid(pair.negative).cells
    diff = [(a.content, b.content) for a, b in zip(pos_cells, neg_cells) if a != b]
    assert len(diff) == 1
    assert "~" in diff[0][1]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    kind=st.sampled_from(list(PerturbationKind)),
)
def test_any_pair_scores_below_one(seed, kind):
    rng = random.Random(seed)
    grid = random_grid(rng, rng.randint(2, 5), rng.randint(2, 4), header_rows=1)
    html = serialize_grid(grid)
    try:
        pair = perturb_table(html, kind, seed)
    except InapplicablePerturbation:
        return
    assert pair.positive != pair.negative
    assert teds(pair.negative, pair.positive) < 1.0


def test_pref_pair_round_trips_json():
    pair = perturb_table(GT, PerturbationKind.SWAP_CELLS, 1)
    d = pair.to_dict()
    assert d["perturbation"] == "swap_cells"
    assert PrefPair(d["positive"], d["negative"], PerturbationKind(d["perturbation"])) == pair


# Few distinct contents, with case and whitespace variants that normalize
# alike, so swap candidates skip many pairs and some tables have none.
_DUP_CONTENTS = ("Core", " core", "CORE ", "Data", "12", "12 ", "", '<img src="a.png">')


def _dup_content(rng, row, col):
    return rng.choice(_DUP_CONTENTS)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    n_rows=st.integers(1, 6),
    n_cols=st.integers(1, 5),
)
def test_perturb_table_same_from_html_or_parsed_grid(seed, n_rows, n_cols):
    rng = random.Random(seed)
    html = serialize_grid(
        random_grid(rng, n_rows, n_cols, header_rows=rng.randint(0, 1), content=_dup_content)
    )
    grid = parse_grid(html)  # one grid reused for every call: it must not be mutated
    for kind in PerturbationKind:
        for s in range(3):
            assert _outcome(perturb_table, html, kind, s) == _outcome(perturb_table, grid, kind, s)


def _outcome(perturb, *args):
    try:
        return perturb(*args)
    except InapplicablePerturbation as exc:
        return str(exc)


@st.composite
def _ragged_spanned_table(draw):
    """Markup whose rows differ in length, with row and column spans that
    may overlap or run off the bottom, <th> cells and an optional <thead>."""
    cell = st.tuples(
        st.sampled_from(["td", "th"]),
        st.integers(1, 3),
        st.integers(1, 3),
        st.sampled_from(_DUP_CONTENTS),
    )
    rows = draw(st.lists(st.lists(cell, max_size=5), min_size=1, max_size=6))
    html_rows = [
        "<tr>"
        + "".join(f'<{t} rowspan="{rs}" colspan="{cs}">{c}</{t}>' for t, rs, cs, c in row)
        + "</tr>"
        for row in rows
    ]
    if draw(st.booleans()):
        html_rows[0] = f"<thead>{html_rows[0]}</thead>"
    return f"<table>{''.join(html_rows)}</table>"


@settings(max_examples=300, deadline=None)
@given(html=_ragged_spanned_table())
def test_row_and_column_perturbations_match_reference(html):
    try:
        grid = parse_grid(html)
    except TableError:
        return
    for kind, reference in ROW_COLUMN_PERTURBATIONS_REFERENCE.items():
        for seed in range(4):
            assert _outcome(perturb_table, grid, kind, seed) == _outcome(
                perturb_table_reference, grid, kind, seed
            )
            negative = _outcome(_PERTURBATIONS[kind], grid, random.Random(seed))
            assert negative == _outcome(reference, grid, random.Random(seed))


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    n_rows=st.integers(1, 8),
    n_cols=st.integers(1, 6),
)
def test_swap_cells_picks_reference_pair(seed, n_rows, n_cols):
    rng = random.Random(seed)
    grid = random_grid(rng, n_rows, n_cols, content=_dup_content)
    candidates = swap_candidates_reference(grid)
    if not candidates:
        with pytest.raises(InapplicablePerturbation):
            _swap_cells(grid, random.Random(seed))
        return
    i, j = random.Random(seed).choice(candidates)
    swapped = _swap_cells(grid, random.Random(seed))
    expected = [c.content for c in grid.cells]
    expected[i], expected[j] = expected[j], expected[i]
    assert [c.content for c in swapped.cells] == expected
    assert swapped.occupancy == grid.occupancy
    _assert_laid_out(swapped)


def _assert_laid_out(negative: TableGrid):
    """A negative built without a layout is, field for field, the grid a
    layout of its cells gives, warnings included."""
    laid_out = grid_from_cells(negative.n_rows, negative.n_cols, negative.cells)
    for f in dataclasses.fields(TableGrid):
        assert getattr(negative, f.name) == getattr(laid_out, f.name), f.name
    assert negative.warnings == ()


_CONTENT_ONLY = (PerturbationKind.SWAP_CELLS, PerturbationKind.CORRUPT_TEXT)


@settings(max_examples=200, deadline=None)
@given(html=_ragged_spanned_table(), seed=st.integers(0, 2**31))
def test_content_only_negatives_match_their_layout(html, seed):
    rng = random.Random(seed)
    grids = [random_grid(rng, rng.randint(1, 8), rng.randint(1, 6), content=_dup_content)]
    try:
        grids.append(parse_grid(html))  # with its padding and clipping warnings
    except TableError:
        pass
    for grid in grids:
        for kind in _CONTENT_ONLY:
            negative = _outcome(_PERTURBATIONS[kind], grid, random.Random(seed))
            if not isinstance(negative, str):  # an applicable perturbation
                _assert_laid_out(negative)


def test_swap_cells_memory_is_linear_in_cells():
    # 1,600 distinct cells make 1,279,200 candidate pairs; none may be listed
    grid = random_grid(random.Random(0), 40, 40, span_prob=0.0, content=lambda rng, r, c: f"c{r}_{c}")
    tracemalloc.start()
    try:
        _swap_cells(grid, random.Random(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
