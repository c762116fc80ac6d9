"""Rule-based reward checks, composite reward, group-relative advantages,
and seeded table perturbations for preference-pair generation.

The rule half of the composite reward checks structural sanity of a
candidate table; the learned half comes from an external scorer that
receives the original-table descriptor, the candidate HTML, and its canonical
re-serialization (standing in for a rendered image).
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum

from .config import Config
from .errors import DomainError
from .table_grid import (
    GridCell,
    TableError,
    TableGrid,
    grid_from_cells,
    img_tags,
    normalize_text,
    parse_grid,
    serialize_grid,
)


class EmptyGroup(DomainError):
    """Advantages need at least one reward."""


class InapplicablePerturbation(DomainError):
    """The table is too small or too uniform for the requested perturbation."""


@dataclass(frozen=True)
class RuleReport:
    well_formed: bool
    rectangular: bool
    placeholder_ok: bool
    non_empty: bool
    score: float
    # the parsed candidate, None when it does not parse
    grid: TableGrid | None = field(default=None, compare=False, repr=False)

    def to_dict(self) -> dict:
        return {
            "well_formed": self.well_formed,
            "rectangular": self.rectangular,
            "placeholder_ok": self.placeholder_ok,
            "non_empty": self.non_empty,
            "score": self.score,
        }


def rule_checks(
    candidate_html: str,
    expected_placeholders: int = 0,
    cfg: Config | None = None,
) -> RuleReport:
    """Structural sanity checks; failures lower the score, never raise.

    well_formed: the candidate parses and normalizes into a grid.
    rectangular: normalization needed no padding or span clipping.
    placeholder_ok: the :func:`~docpost.table_grid.img_tags` tag count equals the expected count.
    non_empty: at least one cell has non-whitespace content.

    The score sums ``cfg.rule_weights`` over the passing checks, in the
    order above, capped at 1.0: the weights may sum to 1 + 1e-9. The
    report keeps the parsed grid, so a caller that also renders the
    candidate parses it once.
    """
    w_formed, w_rectangular, w_placeholder, w_non_empty = (cfg or Config()).rule_weights
    try:
        grid = parse_grid(candidate_html)
    except TableError:
        grid = None
    well_formed = grid is not None
    rectangular = well_formed and not grid.warnings
    non_empty = well_formed and any(normalize_text(c.content) for c in grid.cells)
    placeholder_ok = sum(1 for _ in img_tags(candidate_html)) == expected_placeholders
    score = min(
        w_formed * well_formed
        + w_rectangular * rectangular
        + w_placeholder * placeholder_ok
        + w_non_empty * non_empty,
        1.0,
    )
    return RuleReport(well_formed, rectangular, placeholder_ok, non_empty, score, grid)


# -- composite reward ------------------------------------------------------------


def composite_reward(rule_score: float, model_score: float, w_rule: float = Config.w_rule) -> float:
    """Linear blend of the rule score and the learned score."""
    for name, value in (("rule_score", rule_score), ("model_score", model_score), ("w_rule", w_rule)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} {value} outside [0,1]")
    return w_rule * rule_score + (1.0 - w_rule) * model_score


def render_candidate(candidate_html: str) -> str:
    """Canonical re-serialization standing in for the rendered table image."""
    return serialize_grid(parse_grid(candidate_html))


# -- group-relative advantages ------------------------------------------------------


def group_advantages(rewards: list[float], eps: float = Config.eps) -> list[float]:
    """Zero-mean, unit-std advantages within a candidate group.

    Uses the population standard deviation; groups with std <= eps (constant
    groups in particular) get all-zero advantages.
    """
    if not rewards:
        raise EmptyGroup("cannot normalize an empty reward group")
    n = len(rewards)
    # fsum rounds once, so the advantages do not depend on the interpreter's sum()
    mean = math.fsum(rewards) / n
    std = math.sqrt(math.fsum((r - mean) ** 2 for r in rewards) / n)
    if std <= eps:
        return [0.0] * n
    return [(r - mean) / (std + eps) for r in rewards]


# -- perturbations ---------------------------------------------------------------------


class PerturbationKind(Enum):
    SWAP_CELLS = "swap_cells"
    DROP_ROW = "drop_row"
    DROP_COLUMN = "drop_column"
    CHANGE_SPAN = "change_span"
    CORRUPT_TEXT = "corrupt_text"
    DUPLICATE_ROW = "duplicate_row"


@dataclass(frozen=True)
class PrefPair:
    positive: str
    negative: str
    perturbation: PerturbationKind

    def to_dict(self) -> dict:
        return {
            "positive": self.positive,
            "negative": self.negative,
            "perturbation": self.perturbation.value,
        }


def _swap_cells(grid: TableGrid, rng: random.Random) -> TableGrid:
    # The candidates are the pairs (i, j), i < j, whose keys differ, in
    # row-major order. They are counted per first cell, not listed: a
    # table of n cells has O(n^2) of them.
    keys = [normalize_text(c.content) for c in grid.cells]
    later = Counter(keys)
    counts = []
    for i, key in enumerate(keys):
        later[key] -= 1
        counts.append(len(keys) - 1 - i - later[key])
    total = sum(counts)
    if not total:
        raise InapplicablePerturbation("all cells have identical content")
    # choice over a range draws the same index as choice over the pair list
    k = rng.choice(range(total))
    i = 0
    while k >= counts[i]:
        k -= counts[i]
        i += 1
    others = (j for j in range(i + 1, len(keys)) if keys[j] != keys[i])
    j = next(itertools.islice(others, k, None))
    cells = list(grid.cells)
    ci, cj = cells[i], cells[j]
    cells[i] = ci._replace(content=cj.content)
    cells[j] = cj._replace(content=ci.content)
    # no cell moves: the grid's layout holds as it is
    return TableGrid(grid.n_rows, grid.n_cols, tuple(cells), grid.occupancy)


def _drop_row(grid: TableGrid, rng: random.Random) -> TableGrid:
    if grid.n_rows < 2:
        raise InapplicablePerturbation("need at least two rows")
    # a cell spanning the victim row loses one row, a one-row cell on it
    # goes, and the cells below move up
    victim = rng.randrange(grid.n_rows)
    cells = []
    for cell in grid.cells:
        row0, col0, rowspan, colspan, content, is_header = cell
        if row0 > victim:
            cells.append(GridCell(row0 - 1, col0, rowspan, colspan, content, is_header))
        elif row0 + rowspan <= victim:
            cells.append(cell)
        elif rowspan > 1:
            cells.append(GridCell(row0, col0, rowspan - 1, colspan, content, is_header))
    return grid_from_cells(grid.n_rows - 1, grid.n_cols, cells)


def _drop_column(grid: TableGrid, rng: random.Random) -> TableGrid:
    if grid.n_cols < 2:
        raise InapplicablePerturbation("need at least two columns")
    # as in _drop_row, by column
    victim = rng.randrange(grid.n_cols)
    cells = []
    for cell in grid.cells:
        row0, col0, rowspan, colspan, content, is_header = cell
        if col0 > victim:
            cells.append(GridCell(row0, col0 - 1, rowspan, colspan, content, is_header))
        elif col0 + colspan <= victim:
            cells.append(cell)
        elif colspan > 1:
            cells.append(GridCell(row0, col0, rowspan, colspan - 1, content, is_header))
    return grid_from_cells(grid.n_rows, grid.n_cols - 1, cells)


def _duplicate_row(grid: TableGrid, rng: random.Random) -> TableGrid:
    # a one-row cell on the victim row gets a copy one row down; a taller
    # cell covering it stretches over the inserted row
    victim = rng.randrange(grid.n_rows)
    head, copies, tail = [], [], []
    for cell in grid.cells:
        row0, col0, rowspan, colspan, content, is_header = cell
        if row0 > victim:
            tail.append(GridCell(row0 + 1, col0, rowspan, colspan, content, is_header))
        elif row0 + rowspan <= victim:
            head.append(cell)
        elif rowspan == 1:
            head.append(cell)
            copies.append(GridCell(victim + 1, col0, 1, colspan, content, is_header))
        else:
            head.append(GridCell(row0, col0, rowspan + 1, colspan, content, is_header))
    # head, copies and tail are each in anchor order, and so is their join
    return grid_from_cells(grid.n_rows + 1, grid.n_cols, head + copies + tail)


def _change_span(grid: TableGrid, rng: random.Random) -> TableGrid:
    # merge a cell with its 1x1 right neighbor, or split a multi-column cell
    merges = []
    for i, cell in enumerate(grid.cells):
        nc = cell.anchor_col + cell.colspan
        if nc >= grid.n_cols:
            continue
        j = grid.occupancy[cell.anchor_row][nc]
        other = grid.cells[j]
        if (
            other.anchor_row == cell.anchor_row
            and other.rowspan == cell.rowspan
            and other.colspan == 1
        ):
            merges.append((i, j))
    splits = [i for i, c in enumerate(grid.cells) if c.colspan >= 2]
    ops = [("merge", m) for m in merges] + [("split", s) for s in splits]
    if not ops:
        raise InapplicablePerturbation("no span can be changed")
    op, arg = rng.choice(ops)
    cells = list(grid.cells)
    if op == "merge":
        i, j = arg
        a, b = cells[i], cells[j]
        cells[i] = a._replace(colspan=a.colspan + b.colspan)
        del cells[j]
    else:
        c = cells[arg]
        cells[arg] = c._replace(colspan=c.colspan - 1)
        cells.append(
            GridCell(c.anchor_row, c.anchor_col + c.colspan - 1, c.rowspan, 1, "", False)
        )
    return grid_from_cells(grid.n_rows, grid.n_cols, cells)


def _corrupt_text(grid: TableGrid, rng: random.Random) -> TableGrid:
    candidates = [i for i, c in enumerate(grid.cells) if normalize_text(c.content)]
    if not candidates:
        raise InapplicablePerturbation("no non-empty cell to corrupt")
    i = rng.choice(candidates)
    cell = grid.cells[i]
    pos = rng.randrange(len(cell.content) + 1)
    mutated = cell.content[:pos] + "~" + cell.content[pos:]
    cells = list(grid.cells)
    cells[i] = cell._replace(content=mutated)
    return TableGrid(grid.n_rows, grid.n_cols, tuple(cells), grid.occupancy)


_PERTURBATIONS = {
    PerturbationKind.SWAP_CELLS: _swap_cells,
    PerturbationKind.DROP_ROW: _drop_row,
    PerturbationKind.DROP_COLUMN: _drop_column,
    PerturbationKind.CHANGE_SPAN: _change_span,
    PerturbationKind.CORRUPT_TEXT: _corrupt_text,
    PerturbationKind.DUPLICATE_ROW: _duplicate_row,
}


def perturb_table(
    gt: str | TableGrid, kind: PerturbationKind, rng_seed: int
) -> PrefPair:
    """Derive a visually inconsistent negative from the ground truth.

    ``gt`` is the ground-truth HTML or its already parsed grid; passing the
    grid lets callers that perturb one table many times parse it once.
    Exactly one seeded perturbation of the given kind is applied; the
    positive side is the canonical serialization of the parsed ground truth.
    Raises :class:`InapplicablePerturbation` when the table cannot support
    the perturbation or it would leave the table unchanged.
    """
    grid = parse_grid(gt) if isinstance(gt, str) else gt
    positive = serialize_grid(grid)
    rng = random.Random(rng_seed)
    negative_grid = _PERTURBATIONS[kind](grid, rng)
    negative = serialize_grid(negative_grid)
    if negative == positive:
        raise InapplicablePerturbation(f"{kind.value} left the table unchanged")
    return PrefPair(positive, negative, kind)
