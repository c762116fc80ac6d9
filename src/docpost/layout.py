"""Layout validation, region routing, and reading-order document assembly.

The upstream layout stage emits a JSON array of regions with bounding box,
reading-order index, category label, and rotation. This module validates
that schema, plans the per-region crop/derotation, routes regions to the
matching recognizer kind, and folds recognized contents back into a document
in reading order. Recognition itself is fixture-driven: a JSON object maps
element index to recognized content.
"""

from __future__ import annotations

import html
import re
from dataclasses import dataclass, field
from enum import Enum

from ._external import Scorer
from .config import Config
from .errors import DomainError
from .idtp import ImageDetection, plan_masks, restore_images
from .json_reader import loads_finite
from .table_grid import TableError, TableGrid, parse_grid, serialize_grid
from .table_merge import Pattern, merge_fragment_sequence_with_plans


class LayoutSyntaxError(DomainError):
    """Layout file is not JSON."""


class LayoutSchemaError(DomainError):
    """Element object is missing bbox/index/label or has wrong types."""


class LayoutGeometryError(DomainError):
    """Degenerate bbox or rotation that is not a right angle."""


class LayoutIndexError(DomainError):
    """Reading-order indices are not a permutation."""


class DuplicateElement(DomainError):
    pass


class UnknownElement(DomainError):
    pass


VALID_ROTATIONS = (0, 90, 180, 270)

# Reference of each image restored into a table, in its placeholder map.
IMAGE_REF_PATTERN = "page{page}_el{index}_img{id}.png"


class RecognizerKind(Enum):
    TEXT_REC = "text"
    FORMULA_REC = "formula"
    TABLE_REC = "table"
    PASS_THROUGH = "image"


# Each known label: the recognizer it routes to, then its Markdown and its HTML
# block, "{}" standing for the content. A label not listed here routes and
# renders as "text".
LABELS = {
    "text": (RecognizerKind.TEXT_REC, "{}", "<p>{}</p>"),
    "title": (RecognizerKind.TEXT_REC, "# {}", "<h1>{}</h1>"),
    "formula": (RecognizerKind.FORMULA_REC, "$$\n{}\n$$", '<div class="formula">$${}$$</div>'),
    "table": (RecognizerKind.TABLE_REC, "{}", "{}"),
    "tablebody": (RecognizerKind.TABLE_REC, "{}", "{}"),
    "table_caption": (RecognizerKind.TEXT_REC, "*{}*", "<p><em>{}</em></p>"),
    "image": (RecognizerKind.PASS_THROUGH, "![]({})", '<img src="{}">'),
    "image_caption": (RecognizerKind.TEXT_REC, "*{}*", "<p><em>{}</em></p>"),
    "header": (RecognizerKind.TEXT_REC, "{}", "<p>{}</p>"),
    "footer": (RecognizerKind.TEXT_REC, "{}", "<p>{}</p>"),
    "other": (RecognizerKind.TEXT_REC, "{}", "<p>{}</p>"),
}

TABLE_LABELS = frozenset(
    label for label, (kind, _, _) in LABELS.items() if kind is RecognizerKind.TABLE_REC
)
CAPTION_LABELS = frozenset({"table_caption", "image_caption"})


@dataclass(frozen=True)
class LayoutElement:
    bbox: tuple[int, int, int, int]
    index: int
    label: str
    rotation: int = 0


@dataclass(frozen=True)
class LayoutPage:
    """One page's elements in reading order: ``elements[i].index == i``."""

    page_width: int
    page_height: int
    elements: tuple[LayoutElement, ...]
    warnings: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self):
        if any(el.index != i for i, el in enumerate(self.elements)):
            raise LayoutIndexError("page elements must be stored in index order")

    def element_by_index(self, index: int) -> LayoutElement:
        if not 0 <= index < len(self.elements):
            raise UnknownElement(f"no element with index {index}")
        return self.elements[index]

    def to_json_list(self) -> list[dict]:
        return [
            {
                "bbox": list(el.bbox),
                "index": el.index,
                "label": el.label,
                "rotation": el.rotation,
            }
            for el in self.elements
        ]


@dataclass(frozen=True)
class RecognizedElement:
    element: LayoutElement
    content: str


@dataclass(frozen=True)
class CropSpec:
    clamped_bbox: tuple[int, int, int, int]
    rotation_to_apply: int


def _clamp_bbox(bbox, width, height):
    x1, y1, x2, y2 = bbox
    return (
        min(max(x1, 0), width),
        min(max(y1, 0), height),
        min(max(x2, 0), width),
        min(max(y2, 0), height),
    )


def _load_layout_json(text: str):
    """:func:`loads_finite` with its faults raised as :class:`LayoutSyntaxError`."""
    try:
        return loads_finite(text)
    except ValueError as exc:
        raise LayoutSyntaxError(str(exc)) from exc


def parse_layout(json_text: str, page_width: int, page_height: int) -> LayoutPage:
    """Validate one page's layout JSON array into a :class:`LayoutPage`.

    Unknown labels degrade to ``other`` with a warning; 1-based index runs
    are normalized to 0-based with a warning. Violations raise
    :class:`LayoutSyntaxError`, :class:`LayoutSchemaError`,
    :class:`LayoutGeometryError`, or :class:`LayoutIndexError`.
    """
    return _validate_layout(_load_layout_json(json_text), page_width, page_height)


def _validate_layout(raw, page_width: int, page_height: int) -> LayoutPage:
    if not isinstance(raw, list):
        raise LayoutSchemaError("layout must be a JSON array of elements")
    notes: list[tuple[int, str]] = []  # (index as given, warning), in input order
    elements: list[LayoutElement] = []
    for pos, obj in enumerate(raw):
        if not isinstance(obj, dict):
            raise LayoutSchemaError(f"element {pos} is not an object")
        for key in ("bbox", "index", "label"):
            if key not in obj:
                raise LayoutSchemaError(f"element {pos} missing '{key}'")
        bbox = obj["bbox"]
        if (
            not isinstance(bbox, (list, tuple))
            or len(bbox) != 4
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in bbox)
        ):
            raise LayoutSchemaError(f"element {pos} bbox must be [x1,y1,x2,y2]")
        index = obj["index"]
        if not isinstance(index, int) or isinstance(index, bool):
            raise LayoutSchemaError(f"element {pos} index must be an integer")
        label = obj["label"]
        if not isinstance(label, str):
            raise LayoutSchemaError(f"element {pos} label must be a string")
        if label not in LABELS:
            notes.append((index, f"unknown label {label!r} mapped to 'other'"))
            label = "other"
        rotation = obj.get("rotation", 0)
        if isinstance(rotation, float) and rotation.is_integer():
            rotation = int(rotation)
        # False == 0, so a boolean would pass the membership test
        if isinstance(rotation, bool) or rotation not in VALID_ROTATIONS:
            raise LayoutGeometryError(
                f"element {pos} rotation {rotation!r} is not one of {VALID_ROTATIONS}"
            )
        x1, y1, x2, y2 = (int(v) for v in bbox)
        if x1 >= x2 or y1 >= y2:
            raise LayoutGeometryError(f"element {pos} bbox {bbox} is degenerate")
        clamped = _clamp_bbox((x1, y1, x2, y2), page_width, page_height)
        if clamped != (x1, y1, x2, y2):
            notes.append((index, "bbox clamped to page bounds"))
        if clamped[0] >= clamped[2] or clamped[1] >= clamped[3]:
            raise LayoutGeometryError(f"element {pos} bbox {bbox} lies outside the page")
        elements.append(LayoutElement(clamped, index, label, rotation))

    indices = sorted(el.index for el in elements)
    n = len(elements)
    if len(set(indices)) != n:
        raise LayoutIndexError("duplicate reading-order index")
    shift = 1 if indices == list(range(1, n + 1)) and n > 0 else 0
    if not shift and indices != list(range(n)):
        raise LayoutIndexError(f"indices {indices} are not a permutation of 0..{n - 1}")
    # a warning names its element by the index it keeps, as the pipeline's do
    warnings = [f"element {index - shift}: {note}" for index, note in notes]
    if shift:
        warnings.append("1-based indices normalized to 0-based")
        elements = [
            LayoutElement(el.bbox, el.index - 1, el.label, el.rotation) for el in elements
        ]
    elements.sort(key=lambda el: el.index)
    return LayoutPage(page_width, page_height, tuple(elements), tuple(warnings))


def crop_plan(page: LayoutPage, element_index: int) -> CropSpec:
    """Crop rectangle plus the inverse rotation restoring upright orientation."""
    el = page.element_by_index(element_index)
    bbox = _clamp_bbox(el.bbox, page.page_width, page.page_height)
    return CropSpec(bbox, (360 - el.rotation) % 360)


def route_region(label: str) -> RecognizerKind:
    return LABELS.get(label, LABELS["text"])[0]


class OutputFormat(Enum):
    MARKDOWN = "markdown"
    HTML = "html"


# Between the blocks of a page and between pages.
SEPARATORS = {OutputFormat.MARKDOWN: "\n\n", OutputFormat.HTML: "\n"}


def assemble(
    recognized: list[RecognizedElement],
    page: LayoutPage,
    output_format: OutputFormat = OutputFormat.MARKDOWN,
    include_headers_footers: bool = False,
) -> str:
    """Order recognized contents by reading-order index and render blocks.

    Headers and footers are dropped unless ``include_headers_footers``.
    Blocks with empty content are omitted. Markdown blocks are separated by
    exactly one blank line.
    """
    slots: list[RecognizedElement | None] = [None] * len(page.elements)
    for rec in recognized:
        index = rec.element.index
        if not 0 <= index < len(slots) or page.elements[index] != rec.element:
            raise UnknownElement(f"element index {index} not in page")
        if slots[index] is not None:
            raise DuplicateElement(f"element index {index} recognized twice")
        slots[index] = rec
    markdown = output_format is OutputFormat.MARKDOWN
    blocks = []
    for rec in filter(None, slots):
        if rec.element.label in ("header", "footer") and not include_headers_footers:
            continue
        if not rec.content:
            continue
        kind, markdown_block, html_block = LABELS.get(rec.element.label, LABELS["text"])
        if markdown:
            blocks.append(markdown_block.format(rec.content))
        elif kind is RecognizerKind.TABLE_REC:
            blocks.append(html_block.format(rec.content))
        else:
            blocks.append(html_block.format(html.escape(rec.content)))
    return SEPARATORS[output_format].join(blocks)


# -- multi-page pipeline -----------------------------------------------------------


@dataclass
class PipelineResult:
    document: str
    merge_plans: list[dict]
    placeholder_maps: list[dict]
    restore_reports: list[dict]
    warnings: list[str]

    def reports_dict(self) -> dict:
        return {
            "merge_plans": self.merge_plans,
            "placeholder_maps": self.placeholder_maps,
            "restore_reports": self.restore_reports,
            "warnings": self.warnings,
        }


def parse_layout_document(text: str) -> list[LayoutPage]:
    """Accept a bare element array (one page), a single page object, or
    ``{"pages": [...]}`` for multi-page documents."""
    raw = _load_layout_json(text)
    if isinstance(raw, list):
        # bare arrays carry no page size; use the tight bbox extent so
        # clamping is a no-op (validation still vets every field)
        width = height = 0
        for e in raw:
            bbox = e.get("bbox") if isinstance(e, dict) else None
            if isinstance(bbox, (list, tuple)) and len(bbox) == 4:
                try:
                    width = max(width, int(bbox[2]))
                    height = max(height, int(bbox[3]))
                except (TypeError, ValueError):
                    continue
        return [_validate_layout(raw, width, height)]
    if isinstance(raw, dict) and "pages" in raw:
        pages = raw["pages"]
        if not isinstance(pages, list):
            raise LayoutSchemaError("'pages' must be a list")
        return [_parse_page_object(p, i) for i, p in enumerate(pages)]
    if isinstance(raw, dict):
        return [_parse_page_object(raw, 0)]
    raise LayoutSchemaError("layout document must be an array or object")


def _parse_page_object(obj, pos: int) -> LayoutPage:
    if not isinstance(obj, dict) or "elements" not in obj:
        raise LayoutSchemaError(f"page {pos} must be an object with 'elements'")
    # JSON numbers only, floats truncated (A4's 595.28 is 595 wide)
    size = [obj.get("page_width"), obj.get("page_height")]
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in size):
        raise LayoutSchemaError(f"page {pos} needs integer page_width/page_height")
    width, height = map(int, size)
    return _validate_layout(obj["elements"], width, height)


def parse_recognition_fixture(text: str, n_pages: int) -> list[dict[int, dict]]:
    """Fixture content per page: ``{"<index>": {"content", "kind"}}`` for a
    single page, or a list of such objects for multi-page documents."""
    raw = _load_layout_json(text)
    if isinstance(raw, dict) and "pages" in raw:
        raw = raw["pages"]
    if isinstance(raw, dict):
        raw = [raw]
    if not isinstance(raw, list):
        raise LayoutSchemaError("recognition fixture must be an object or list")
    if len(raw) != n_pages:
        raise LayoutSchemaError(
            f"fixture covers {len(raw)} pages, layout has {n_pages}"
        )
    out = []
    for page_no, page_fixture in enumerate(raw):
        if not isinstance(page_fixture, dict):
            raise LayoutSchemaError("per-page fixture must be an object")
        entries: dict[int, dict] = {}
        keys: dict[int, str] = {}
        for key, entry in page_fixture.items():
            # int() would also take " 2" and "1_0"
            if not re.fullmatch("[0-9]+", key):
                raise LayoutSchemaError(
                    f"page {page_no} fixture key {key!r} is not an element index"
                )
            index = int(key)
            if index in keys:
                raise LayoutSchemaError(
                    f"page {page_no} fixture keys {keys[index]!r} and {key!r}"
                    f" both name element {index}"
                )
            if not (isinstance(entry, dict) and isinstance(entry.get("content", ""), str)):
                raise LayoutSchemaError(
                    f"page {page_no} fixture entry {index} must be an object"
                    " whose 'content' is a string"
                )
            keys[index] = key
            entries[index] = entry
        out.append(entries)
    return out


def run_pipeline(
    pages: list[LayoutPage],
    fixtures: list[dict[int, dict]],
    cfg: Config | None = None,
    detections: dict[tuple[int, int], list[ImageDetection]] | None = None,
    output_format: OutputFormat = OutputFormat.MARKDOWN,
    scorer: Scorer | None = None,
) -> PipelineResult:
    """Validate, route, restore placeholder images, merge split tables, and
    assemble the document in reading order.

    ``detections`` maps (page, element index) to embedded-image detections
    for table elements; their placeholder maps get deterministic refs from
    :data:`IMAGE_REF_PATTERN` so a cropper can cut the files afterwards.
    ``scorer`` is the continuation scorer of the table merge.
    """
    cfg = cfg or Config()
    detections = detections or {}
    warnings: list[str] = []
    placeholder_maps: list[dict] = []
    restore_reports: list[dict] = []

    contents: dict[tuple[int, int], str] = {}
    restored: dict[tuple[int, int], TableGrid] = {}  # the grids restored contents serialize
    for page_no, (page, fixture) in enumerate(zip(pages, fixtures)):
        # "page P element I: ..." for an element, "page P: ..." for the page
        warnings.extend(
            f"page {page_no} {w}" if w.startswith("element ") else f"page {page_no}: {w}"
            for w in page.warnings
        )
        for el in page.elements:
            kind = route_region(el.label)
            entry = fixture.get(el.index)
            if entry is None:
                warnings.append(
                    f"page {page_no} element {el.index}: no recognition fixture entry"
                )
                content = ""
            else:
                content = entry.get("content", "")
                declared = entry.get("kind")
                if declared and declared != kind.value:
                    warnings.append(
                        f"page {page_no} element {el.index}: fixture kind {declared!r}"
                        f" does not match routed {kind.value!r}"
                    )
            contents[(page_no, el.index)] = content

    # placeholder restoration for table elements with detections
    for key, dets in sorted(detections.items()):
        page_no, index = key
        if key not in contents:
            warnings.append(f"page {page_no} element {index}: detections for unknown element")
            continue
        el = pages[page_no].element_by_index(index)
        if el.label not in TABLE_LABELS:
            warnings.append(
                f"page {page_no} element {index}: detections for non-table element ignored"
            )
            continue
        _, pmap = plan_masks(el.bbox, dets, cfg)
        pmap = pmap.with_refs(
            [
                IMAGE_REF_PATTERN.format(page=page_no, index=index, id=e.id)
                for e in pmap.entries
            ]
        )
        placeholder_maps.append(
            {"page": page_no, "index": index, **pmap.to_dict(el.bbox)}
        )
        try:
            result = restore_images(contents[key], pmap)
        except TableError as exc:
            warnings.append(f"page {page_no} element {index}: restore skipped ({exc})")
            continue
        restore_reports.append(
            {
                "page": page_no,
                "index": index,
                "found": result.found,
                "expected": result.expected,
                "rewrites": result.rewrites,
                "unused_entries": list(result.unused_entries),
                "count_mismatch": result.count_mismatch,
            }
        )
        if result.count_mismatch:
            warnings.append(
                f"page {page_no} element {index}: placeholder count mismatch"
                f" (found {result.found}, expected {result.expected})"
            )
        contents[key] = result.html
        restored[key] = result.grid

    merge_plans = _merge_tables(pages, contents, restored, cfg, scorer, warnings)

    page_docs = []
    for page_no, page in enumerate(pages):
        recognized = [
            RecognizedElement(el, contents[(page_no, el.index)]) for el in page.elements
        ]
        rendered = assemble(recognized, page, output_format, cfg.include_headers_footers)
        if rendered:
            page_docs.append(rendered)
    document = SEPARATORS[output_format].join(page_docs)
    if document:
        document += "\n"
    return PipelineResult(document, merge_plans, placeholder_maps, restore_reports, warnings)


def _merge_tables(pages, contents, restored, cfg, scorer, warnings):
    """Fold adjacent table fragments in ``contents``: a merged table replaces
    its first fragment and empties the rest. A fragment in ``restored`` is
    taken as that grid, not parsed again. Returns the plan reports."""
    stream: list[tuple[int, LayoutElement]] = []
    for page_no, page in enumerate(pages):
        for el in page.elements:
            if el.label in TABLE_LABELS:
                stream.append((page_no, el))

    def adjacent(prev: tuple[int, LayoutElement], nxt: tuple[int, LayoutElement]) -> bool:
        (p_page, p_el), (n_page, n_el) = prev, nxt
        if p_page == n_page:
            between = pages[p_page].elements[p_el.index + 1 : n_el.index]
            return all(e.label in CAPTION_LABELS for e in between)
        return n_page == p_page + 1

    chains: list[list[tuple[int, LayoutElement]]] = []
    for item in stream:
        if chains and adjacent(chains[-1][-1], item):
            chains[-1].append(item)
        else:
            chains.append([item])

    merge_plans: list[dict] = []
    for chain in chains:
        grids = []
        members = []
        for page_no, el in chain:
            key = (page_no, el.index)
            try:
                grids.append(restored[key] if key in restored else parse_grid(contents[key]))
                members.append(key)
            except TableError as exc:
                warnings.append(
                    f"page {page_no} element {el.index}: table not parseable ({exc})"
                )
        if not grids:
            continue
        tables, plans = merge_fragment_sequence_with_plans(grids, scorer, cfg)
        # partition members into the groups the fold produced
        groups: list[list[tuple[int, int]]] = [[members[0]]]
        for i, plan in enumerate(plans):
            merge_plans.append(
                {
                    "from": list(groups[-1][0]),
                    "next": list(members[i + 1]),
                    **plan.to_dict(),
                }
            )
            if plan.pattern is Pattern.NO_MERGE:
                groups.append([members[i + 1]])
            else:
                groups[-1].append(members[i + 1])
        for table, group in zip(tables, groups):
            contents[group[0]] = serialize_grid(table)
            for key in group[1:]:
                contents[key] = ""
    return merge_plans


def pipeline_run(
    layout_path: str,
    fixture_path: str,
    cfg: Config | None = None,
    detections: dict[tuple[int, int], list[ImageDetection]] | None = None,
    output_format: OutputFormat = OutputFormat.MARKDOWN,
    scorer: Scorer | None = None,
) -> PipelineResult:
    """File-based front end over :func:`run_pipeline`."""
    with open(layout_path, encoding="utf-8") as fh:
        pages = parse_layout_document(fh.read())
    with open(fixture_path, encoding="utf-8") as fh:
        fixtures = parse_recognition_fixture(fh.read(), len(pages))
    return run_pipeline(pages, fixtures, cfg, detections, output_format, scorer)
