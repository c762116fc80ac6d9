"""Type-guided merging of table fragments split across pages or columns.

Three continuation patterns are handled: a repeated header block (pattern 1),
a headerless body continuation (pattern 2), and a row split mid-cell at the
fragment boundary (pattern 3). Pattern 1 is decided by rule-based header
matching; patterns 2 and 3 are separated by a pluggable continuation scorer
with a punctuation/casing heuristic as the bundled baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from ._external import Scorer, ScorerFailure
from .config import Config
from .errors import DomainError
from .table_grid import (
    GridCell,
    TableGrid,
    _new_tuple,
    _stack,
    detect_header_rows,
    grid_from_cells,
    normalize_text,
)


class Unalignable(DomainError):
    """Fragment columns cannot be embedded into the reference schema."""


class PlanMismatch(DomainError):
    """A merge plan refers to rows or columns the inputs do not have."""


class MatchKind(Enum):
    EXACT = "exact"
    NEAR = "near"
    NONE = "none"


class Pattern(Enum):
    PATTERN1 = "pattern1"  # repeated header block
    PATTERN2 = "pattern2"  # headerless continuation
    PATTERN3 = "pattern3"  # row split at the boundary
    NO_MERGE = "no_merge"


class DecisionSource(Enum):
    HEURISTIC = "heuristic"
    EXTERNAL_SCORER = "external_scorer"


@dataclass(frozen=True)
class HeaderMatch:
    kind: MatchKind
    similarity: float
    column_mismatch: bool = False


@dataclass(frozen=True)
class ContinuationDecision:
    is_row_split: bool
    score: float
    source: DecisionSource


@dataclass(frozen=True)
class BoundaryJoin:
    """Join the first-row cell of B at ``b_col`` into A's last-row cell at ``a_col``."""

    a_col: int
    b_col: int
    separator: str


@dataclass(frozen=True)
class MergePlan:
    pattern: Pattern
    header_rows_to_drop: int = 0
    column_map: tuple[int, ...] = ()
    boundary_join: tuple[BoundaryJoin, ...] | None = None

    def to_dict(self) -> dict:
        return {
            "pattern": self.pattern.value,
            "header_rows_to_drop": self.header_rows_to_drop,
            "column_map": list(self.column_map),
            "boundary_join": None
            if self.boundary_join is None
            else [[j.a_col, j.b_col, j.separator] for j in self.boundary_join],
        }


# -- continuation heuristic ---------------------------------------------------

TERMINAL_PUNCTUATION = ".!?;:"
# Characters that essentially never start a fresh cell value. Digits are
# deliberately absent: numeric heads are ordinary body rows, not splits.
CONTINUATION_CHARS = set(",;:)]}%")


def heuristic_continuation_score(
    tail_cells: list[str], head_cells: list[str], column_map: list[int]
) -> float:
    """Baseline: 1.0 when any aligned boundary pair looks like a split cell.

    A pair fires when the tail cell is non-empty without terminal
    punctuation and the head cell starts with a lowercase letter or a
    continuation character.
    """
    for b_col, head in enumerate(head_cells):
        a_col = column_map[b_col] if b_col < len(column_map) else b_col
        if a_col >= len(tail_cells):
            continue
        tail = tail_cells[a_col].strip()
        head = head.strip()
        if not tail or not head:
            continue
        if tail[-1] in TERMINAL_PUNCTUATION:
            continue
        first = head[0]
        if first.islower() or first in CONTINUATION_CHARS:
            return 1.0
    return 0.0


# -- decision operations ------------------------------------------------------


def match_headers(a: TableGrid, b: TableGrid, cfg: Config | None = None) -> HeaderMatch:
    """Compare A's leading header rows against B's first rows position-wise.

    Exact requires every cell to match under content normalization with equal
    span layout; Near requires similarity >= ``near_threshold``. Zero header
    rows or differing column counts yield ``MatchKind.NONE``.
    """
    cfg = cfg or Config()
    k = detect_header_rows(a)
    if k == 0:
        return HeaderMatch(MatchKind.NONE, 0.0)
    if a.n_cols != b.n_cols:
        return HeaderMatch(MatchKind.NONE, 0.0, column_mismatch=True)
    total = k * a.n_cols
    matching = 0
    spans_equal = b.n_rows >= k
    for r in range(k):
        for c in range(a.n_cols):
            if r >= b.n_rows:
                spans_equal = False
                continue
            ca = a.cell_at(r, c)
            cb = b.cell_at(r, c)
            if normalize_text(ca.content) == normalize_text(cb.content):
                matching += 1
            if ca[:4] != cb[:4]:  # anchor and spans
                spans_equal = False
    similarity = matching / total if total else 0.0
    if similarity == 1.0 and spans_equal:
        return HeaderMatch(MatchKind.EXACT, 1.0)
    if similarity >= cfg.near_threshold:
        return HeaderMatch(MatchKind.NEAR, similarity)
    return HeaderMatch(MatchKind.NONE, similarity)


def align_schemas(a: TableGrid, b: TableGrid) -> list[int]:
    """Map B's columns onto A's columns.

    Equal widths give the identity map. A narrower B is embedded when its
    header tokens equal a leading or trailing block of A's header tokens;
    otherwise raises :class:`Unalignable`.
    """
    if a.n_cols == b.n_cols:
        return list(range(b.n_cols))
    if b.n_cols > a.n_cols:
        raise Unalignable(f"B is wider than A ({b.n_cols} > {a.n_cols})")
    if detect_header_rows(a) >= 1 and detect_header_rows(b) >= 1:
        a_tokens = [normalize_text(a.content_at(0, c)) for c in range(a.n_cols)]
        b_tokens = [normalize_text(b.content_at(0, c)) for c in range(b.n_cols)]
        if b_tokens == a_tokens[: b.n_cols]:
            return list(range(b.n_cols))
        if b_tokens == a_tokens[a.n_cols - b.n_cols :]:
            offset = a.n_cols - b.n_cols
            return [offset + j for j in range(b.n_cols)]
    raise Unalignable("no contiguous column embedding found")


def classify_continuation(
    a: TableGrid,
    b: TableGrid,
    scorer: Scorer | None = None,
    cfg: Config | None = None,
    column_map: list[int] | None = None,
) -> ContinuationDecision:
    """Decide whether B's first row continues A's last row.

    Falls back to the bundled heuristic when the external scorer fails, and
    records which source produced the score.
    """
    cfg = cfg or Config()
    if column_map is None:
        column_map = align_schemas(a, b)
    tail = a.row_contents(a.n_rows - 1)
    head = b.row_contents(0)
    if scorer is not None:
        payload = {"tail_cells": tail, "head_cells": head, "column_map": list(column_map)}
        try:
            score = scorer(payload)
        except ScorerFailure:
            pass
        else:
            return ContinuationDecision(
                score >= cfg.continuation_threshold, score, DecisionSource.EXTERNAL_SCORER
            )
    score = heuristic_continuation_score(tail, head, column_map)
    return ContinuationDecision(
        score >= cfg.continuation_threshold, score, DecisionSource.HEURISTIC
    )


def _join_separator(tail: str, head: str) -> str:
    """Empty separator for mid-word splits (tail has no trailing space)."""
    if not tail or not head:
        return ""
    return " " if tail[-1].isspace() else ""


def _build_boundary_join(a: TableGrid, b: TableGrid, column_map: list[int]) -> tuple[BoundaryJoin, ...]:
    tail = a.row_contents(a.n_rows - 1)
    head = b.row_contents(0)
    return tuple(
        BoundaryJoin(column_map[j], j, _join_separator(tail[column_map[j]], head[j]))
        for j in range(b.n_cols)
    )


def decide_merge(
    a: TableGrid,
    b: TableGrid,
    scorer: Scorer | None = None,
    cfg: Config | None = None,
) -> MergePlan:
    """Hybrid decision: header rule first, then continuation classification.

    Never raises; fragments that cannot be combined get ``NO_MERGE``.
    """
    cfg = cfg or Config()
    hm = match_headers(a, b, cfg)
    if hm.kind in (MatchKind.EXACT, MatchKind.NEAR):
        # untagged duplicate headers fall back to the matched row count
        drop = min(detect_header_rows(b) or detect_header_rows(a), b.n_rows)
        return MergePlan(
            Pattern.PATTERN1,
            header_rows_to_drop=drop,
            column_map=tuple(range(b.n_cols)),
        )
    try:
        column_map = align_schemas(a, b)
    except Unalignable:
        return MergePlan(Pattern.NO_MERGE)
    decision = classify_continuation(a, b, scorer, cfg, column_map)
    if decision.is_row_split:
        return MergePlan(
            Pattern.PATTERN3,
            column_map=tuple(column_map),
            boundary_join=_build_boundary_join(a, b, column_map),
        )
    return MergePlan(Pattern.PATTERN2, column_map=tuple(column_map))


# -- grid surgery ---------------------------------------------------------------


def _band_cells(grid: TableGrid, start: int, col_shift: int) -> list[GridCell]:
    """Cells of the rows from ``start`` on, moved up to row 0 and right by
    ``col_shift`` columns.

    Cells anchored above ``start`` keep their footprint below it but lose
    their content and header flag (those belong to the removed part).
    """
    cells = []
    for row, col, rowspan, colspan, content, is_header in grid.cells:
        if row >= start:
            fields = (row - start, col + col_shift, rowspan, colspan, content, is_header)
        elif row + rowspan > start:
            fields = (0, col + col_shift, row + rowspan - start, colspan, "", False)
        else:
            continue
        cells.append(_new_tuple(GridCell, fields))
    return cells


def merge(a: TableGrid, b: TableGrid, plan: MergePlan) -> TableGrid:
    """Apply a merge plan; raises :class:`PlanMismatch` on inconsistency.

    B's kept rows go below A at the mapped columns; positions a narrow B
    leaves uncovered are padded with empty cells. Only those rows are laid
    out: A's cells are copied as they are, pattern-3 joins aside.
    """
    if plan.pattern is Pattern.NO_MERGE:
        raise PlanMismatch("cannot merge with a NO_MERGE plan")
    column_map = list(plan.column_map)
    if len(column_map) != b.n_cols:
        raise PlanMismatch("plan column map does not cover fragment B")
    offset = column_map[0] if column_map else 0
    if column_map != list(range(offset, offset + b.n_cols)):
        raise PlanMismatch("column map must be contiguous and increasing")
    if offset < 0 or offset + b.n_cols > a.n_cols:
        raise PlanMismatch("column map exceeds target width")

    if plan.pattern is Pattern.PATTERN1:
        start = plan.header_rows_to_drop
        if not 1 <= start <= b.n_rows:
            raise PlanMismatch("header drop count outside fragment B")
    elif plan.pattern is Pattern.PATTERN2:
        start = 0
    else:
        # pattern 3: fold B's first row into A's last row, then append the rest
        if plan.boundary_join is None or not b.n_rows:
            raise PlanMismatch("pattern 3 requires boundary join instructions and a row of B")
        start = 1
        cells = list(a.cells)
        consumed: set[int] = set()  # a B cell spanning joined columns joins once
        for join in plan.boundary_join:
            if join.b_col >= b.n_cols or join.a_col >= a.n_cols:
                raise PlanMismatch("boundary join outside grid bounds")
            b_idx = b.occupancy[0][join.b_col]
            head = b.cells[b_idx].content
            if b_idx in consumed or not head:
                continue
            consumed.add(b_idx)
            a_idx = a.occupancy[a.n_rows - 1][join.a_col]
            joined = cells[a_idx].content + join.separator + head
            cells[a_idx] = cells[a_idx]._replace(content=joined)
        a = replace(a, cells=tuple(cells))  # contents only: the layout stands
    tail = grid_from_cells(b.n_rows - start, a.n_cols, _band_cells(b, start, offset))
    return _stack(a, tail)


def merge_fragment_sequence_with_plans(
    fragments: list[TableGrid],
    scorer: Scorer | None = None,
    cfg: Config | None = None,
) -> tuple[list[TableGrid], list[MergePlan]]:
    """Greedy left-to-right fold of fragments in reading order; the pairwise
    decisions are kept for reporting.

    Plan ``i`` is the decision between the accumulated table and fragment
    ``i + 1``.
    """
    cfg = cfg or Config()
    tables: list[TableGrid] = []
    plans: list[MergePlan] = []
    for fragment in fragments:
        if not tables:
            tables.append(fragment)
            continue
        plan = decide_merge(tables[-1], fragment, scorer, cfg)
        plans.append(plan)
        if plan.pattern is Pattern.NO_MERGE:
            tables.append(fragment)
        else:
            tables[-1] = merge(tables[-1], fragment, plan)
    return tables, plans
