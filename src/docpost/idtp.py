"""Image-decoupled table parsing plumbing.

Embedded figures detected inside a table crop are replaced by solid
placeholder masks before recognition; the recognizer emits ``<img>`` tags in
their place, and this module deterministically restores the real image
references from the stored id mapping afterwards.
"""

from __future__ import annotations

import os
import re
import stat
from dataclasses import dataclass, replace
from typing import BinaryIO

from .config import Config
from .errors import DomainError
from .table_grid import TableError, parse_grid, serialize_grid


class DimensionMismatch(DomainError):
    """Pixel buffer does not match the mask plan's table crop."""


class ImageInputError(DomainError, ValueError):
    """A page image header, image detection or placeholder map is invalid."""


Rect = tuple[int, int, int, int]


@dataclass(frozen=True)
class ImageDetection:
    bbox: tuple[float, float, float, float]
    confidence: float

    def __post_init__(self):
        x1, y1, x2, y2 = self.bbox
        if not (x1 < x2 and y1 < y2):
            raise ImageInputError(f"degenerate detection bbox {self.bbox}")
        if not 0.0 <= self.confidence <= 1.0:
            raise ImageInputError(f"confidence {self.confidence} outside [0,1]")


@dataclass(frozen=True)
class PlaceholderEntry:
    id: int
    bbox: Rect  # page coordinates, clamped to the table bbox
    image_ref: str = ""


@dataclass(frozen=True)
class PlaceholderMap:
    entries: tuple[PlaceholderEntry, ...]

    def __post_init__(self):
        ids = [e.id for e in self.entries]
        if ids != list(range(len(ids))):
            raise ImageInputError("placeholder ids must be 0..n-1 in order")

    def __len__(self):
        return len(self.entries)

    def with_refs(self, refs: list[str]) -> "PlaceholderMap":
        if len(refs) != len(self.entries):
            raise ValueError("ref count differs from entry count")
        return PlaceholderMap(
            tuple(replace(e, image_ref=r) for e, r in zip(self.entries, refs))
        )

    def to_dict(self, table_bbox: Rect | None = None) -> dict:
        out = {
            "entries": [
                {"id": e.id, "bbox": list(e.bbox), "image_ref": e.image_ref}
                for e in self.entries
            ]
        }
        if table_bbox is not None:
            out["table_bbox"] = list(table_bbox)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "PlaceholderMap":
        entries = tuple(
            PlaceholderEntry(int(e["id"]), tuple(int(v) for v in e["bbox"]), e.get("image_ref", ""))
            for e in data["entries"]
        )
        return cls(entries)


@dataclass(frozen=True)
class Mask:
    id: int
    rect: Rect  # table-local coordinates
    fill: tuple[int, int, int]


@dataclass(frozen=True)
class MaskPlan:
    table_bbox: Rect
    masks: tuple[Mask, ...]

    @property
    def crop_size(self) -> tuple[int, int]:
        x1, y1, x2, y2 = self.table_bbox
        return x2 - x1, y2 - y1


def _iou(a: Rect, b: Rect) -> float:
    ix1, iy1 = max(a[0], b[0]), max(a[1], b[1])
    ix2, iy2 = min(a[2], b[2]), min(a[3], b[3])
    if ix1 >= ix2 or iy1 >= iy2:
        return 0.0
    inter = (ix2 - ix1) * (iy2 - iy1)
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


def plan_masks(
    table_bbox: Rect,
    detections: list[ImageDetection],
    cfg: Config | None = None,
) -> tuple[MaskPlan, PlaceholderMap]:
    """Plan placeholder masks for detections whose center lies in the table.

    Detections below ``min_confidence`` are ignored; overlapping survivors
    (IoU above ``overlap_tolerance``) are suppressed keeping the more
    confident one. Ids are assigned in canonical (y1, x1) order, so the
    result is invariant under permutation of the input. ``image_ref`` fields
    are left empty for the caller's cropper.
    """
    cfg = cfg or Config()
    tx1, ty1, tx2, ty2 = table_bbox
    kept: list[tuple[Rect, float]] = []
    for det in detections:
        if det.confidence < cfg.min_confidence:
            continue
        x1, y1, x2, y2 = det.bbox
        cx, cy = (x1 + x2) / 2, (y1 + y2) / 2
        if not (tx1 <= cx < tx2 and ty1 <= cy < ty2):
            continue
        clamped = (
            max(int(round(x1)), tx1),
            max(int(round(y1)), ty1),
            min(int(round(x2)), tx2),
            min(int(round(y2)), ty2),
        )
        if clamped[0] >= clamped[2] or clamped[1] >= clamped[3]:
            continue
        kept.append((clamped, det.confidence))

    kept.sort(key=lambda kc: (-kc[1], kc[0]))  # confidence ties break on rect
    survivors: list[tuple[Rect, float]] = []
    for rect, conf in kept:
        if all(_iou(rect, other) <= cfg.overlap_tolerance for other, _ in survivors):
            survivors.append((rect, conf))

    survivors.sort(key=lambda kc: (kc[0][1], kc[0][0]))
    masks = []
    entries = []
    for idx, (rect, _) in enumerate(survivors):
        local = (rect[0] - tx1, rect[1] - ty1, rect[2] - tx1, rect[3] - ty1)
        masks.append(Mask(idx, local, cfg.mask_fill))
        entries.append(PlaceholderEntry(idx, rect))
    return MaskPlan(table_bbox, tuple(masks)), PlaceholderMap(tuple(entries))


# -- raw pixel buffers ----------------------------------------------------------


@dataclass(frozen=True)
class PixelBuffer:
    """Uncompressed 8-bit RGB pixels, row-major."""

    width: int
    height: int
    data: bytes

    def __post_init__(self):
        if len(self.data) != self.width * self.height * 3:
            raise _short_pixels(len(self.data), self.width * self.height * 3)


def _short_pixels(held: int, expected: int) -> DimensionMismatch:
    return DimensionMismatch(f"buffer holds {held} bytes, expected {expected}")


def apply_masks(buffer: PixelBuffer, plan: MaskPlan) -> PixelBuffer:
    """Fill each mask rect with its solid color on a copy of the buffer."""
    if (buffer.width, buffer.height) != plan.crop_size:
        raise DimensionMismatch(
            f"buffer {buffer.width}x{buffer.height} differs from plan crop {plan.crop_size}"
        )
    out = bytearray(buffer.data)
    for mask in plan.masks:
        x1, y1, x2, y2 = mask.rect
        row = bytes(mask.fill) * (x2 - x1)
        for y in range(y1, y2):
            start = (y * buffer.width + x1) * 3
            out[start : start + len(row)] = row
    return PixelBuffer(buffer.width, buffer.height, bytes(out))


def crop_buffer(buffer: PixelBuffer, rect: Rect) -> PixelBuffer:
    """Copy the pixels under ``rect`` (clamped to the buffer) into a new buffer."""
    x1 = min(max(rect[0], 0), buffer.width)
    y1 = min(max(rect[1], 0), buffer.height)
    x2 = min(max(rect[2], 0), buffer.width)
    y2 = min(max(rect[3], 0), buffer.height)
    if x1 >= x2 or y1 >= y2:
        raise DimensionMismatch(f"crop rect {rect} is empty within the buffer")
    stride = buffer.width * 3
    span = (x2 - x1) * 3
    view = memoryview(buffer.data)
    rows = [view[s : s + span] for s in range(y1 * stride + x1 * 3, y2 * stride, stride)]
    return PixelBuffer(x2 - x1, y2 - y1, b"".join(rows))


# P6, then width, height and maxval, each separated by whitespace or "#"
# comments, then the single whitespace byte that ends the header.
_PPM_HEADER_RE = re.compile(rb"P6" + rb"(?:\s|#[^\n]*\n)+(\d{1,10})" * 3 + rb"\s")
# First read of a streamed header; a longer one (long comments) doubles it.
_HEADER_READ = 4096
# Longest streamed header; a longer one (an unterminated comment) is malformed.
_HEADER_MAX = 1 << 16
# Completes every header cut short after its "P6", and no text that can
# never become a header.
_HEADER_END = b"\n1 1 1 "
# Pixel bytes read at a time from a stream that cannot seek.
_PIPE_READ = 1 << 20


def _ppm_dimensions(header: re.Match | None) -> tuple[int, int]:
    if header is None:
        raise ImageInputError("not a P6 PPM header with width, height and maxval of 1-10 digits")
    width, height, maxval = map(int, header.groups())
    if maxval != 255:
        raise ImageInputError(f"unsupported maxval {maxval}")
    return width, height


def read_ppm(data: bytes) -> PixelBuffer:
    """Parse a binary P6 PPM with maxval 255."""
    header = _PPM_HEADER_RE.match(data)
    width, height = _ppm_dimensions(header)
    pos = header.end()
    return PixelBuffer(width, height, data[pos : pos + width * height * 3])


def read_ppm_rows(
    stream: BinaryIO, y1: int, y2: int, head: bytes = b""
) -> tuple[int, int, PixelBuffer]:
    """Read a binary P6 PPM from ``stream``, keeping only its rows ``y1..y2``.

    ``head`` is what the caller already read from the start of the stream.
    The row range is clamped to the page. Returns the page's width and
    height and a buffer of the kept rows. The stream must hold all
    ``width*height*3`` pixel bytes after the header, as :func:`read_ppm`
    requires, with the same errors raised in the same order, except that a
    header longer than :data:`_HEADER_MAX` bytes is malformed. A regular file
    is checked by its size and read only over the kept rows; any other
    stream (a pipe) is read through in bounded chunks. Either way memory
    grows with the kept rows, not with the page.
    """
    buf = head
    while (header := _PPM_HEADER_RE.match(buf)) is None and len(buf) < _HEADER_MAX:
        if len(buf) >= 2 and not _PPM_HEADER_RE.match(buf + _HEADER_END):
            break  # no more bytes can make it a header
        more = stream.read(min(max(len(buf), _HEADER_READ), _HEADER_MAX - len(buf)))
        if not more:
            break
        buf += more
    width, height = _ppm_dimensions(header)
    stride = width * 3
    expected = stride * height
    top = min(max(y1, 0), height)
    bottom = max(min(max(y2, 0), height), top)
    start, stop = top * stride, bottom * stride
    tail = buf[header.end() :]  # pixel bytes read along with the header
    info = os.fstat(stream.fileno())
    if stat.S_ISREG(info.st_mode):
        pixels_at = stream.tell() - len(tail)
        if info.st_size - pixels_at < expected:
            raise _short_pixels(info.st_size - pixels_at, expected)
        stream.seek(pixels_at + start)
        rows = stream.read(stop - start)
    else:
        kept = []
        held = 0
        while held < expected:
            chunk = tail or stream.read(min(expected - held, _PIPE_READ))
            tail = b""
            if not chunk:
                raise _short_pixels(held, expected)
            view = memoryview(chunk)[: expected - held]
            if held < stop and start < held + len(view):
                kept.append(view[max(start - held, 0) : stop - held])
            held += len(view)
        rows = b"".join(kept)
    return width, height, PixelBuffer(width, bottom - top, rows)


def ppm_header(buffer: PixelBuffer) -> bytes:
    return b"P6\n%d %d\n255\n" % (buffer.width, buffer.height)


def write_ppm(buffer: PixelBuffer) -> bytes:
    return ppm_header(buffer) + buffer.data


# -- placeholder restoration --------------------------------------------------------


_IMG_TAG_RE = re.compile(r"<img\b[^>]*/?>", re.IGNORECASE)
_SRC_ATTR_RE = re.compile(r"""(\bsrc\s*=\s*)("([^"]*)"|'([^']*)'|([^\s>/]+))""", re.IGNORECASE)


def _tag_src(tag: str) -> str | None:
    m = _SRC_ATTR_RE.search(tag)
    if not m:
        return None
    return m.group(3) if m.group(3) is not None else (m.group(4) if m.group(4) is not None else m.group(5))


def _set_tag_src(tag: str, ref: str) -> str:
    if _SRC_ATTR_RE.search(tag):
        return _SRC_ATTR_RE.sub(lambda m: f'{m.group(1)}"{ref}"', tag, count=1)
    closer = "/>" if tag.rstrip().endswith("/>") else ">"
    body = tag[: -len(closer)].rstrip("/ ").rstrip()
    return f'{body} src="{ref}"{closer}'


# The src prefix of an <img> tag that still waits for its image reference.
PLACEHOLDER_SCHEME = "placeholder://"


def _needs_restore(tag: str) -> bool:
    src = _tag_src(tag)
    return src is None or src == "" or src.startswith(PLACEHOLDER_SCHEME)


def _placeholder_id(tag: str) -> int | None:
    src = _tag_src(tag)
    if src and src.startswith(PLACEHOLDER_SCHEME):
        try:
            return int(src[len(PLACEHOLDER_SCHEME) :])
        except ValueError:
            return None
    return None


@dataclass(frozen=True)
class RestoreResult:
    html: str
    found: int
    expected: int
    rewrites: int
    unused_entries: tuple[int, ...]

    @property
    def count_mismatch(self) -> bool:
        return self.found != self.expected


def restore_images(html: str, pmap: PlaceholderMap, strict_ids: bool = False) -> RestoreResult:
    """Rewrite placeholder ``<img>`` tags with the mapped image references.

    Tags still needing restoration (no src, empty src, or a
    ``placeholder://`` src) are matched positionally in row-major grid order:
    the k-th one gets ``entries[k].image_ref``. With ``strict_ids`` the tags
    must instead carry ``src="placeholder://<id>"`` and are matched by id.
    Tags already holding a concrete reference are never touched, so re-running
    on restored output changes nothing and reports every entry unused. A
    found/expected count mismatch is reported in the result while restoration
    proceeds for the pairs that exist.
    """
    grid = parse_grid(html)
    by_id = {e.id: e for e in pmap.entries}
    used: set[int] = set()
    counter = {"found": 0, "rewrites": 0}

    def rewrite(match: re.Match) -> str:
        tag = match.group(0)
        if not _needs_restore(tag):
            return tag
        counter["found"] += 1
        if strict_ids:
            pid = _placeholder_id(tag)
            if pid is None or pid not in by_id:
                return tag
            entry = by_id[pid]
        else:
            pid = counter["found"] - 1
            if pid not in by_id:
                return tag
            entry = by_id[pid]
        used.add(entry.id)
        counter["rewrites"] += 1
        return _set_tag_src(tag, entry.image_ref)

    # the cells are in anchor order, which is document order, so the
    # positional counter meets the tags as the recognizer wrote them
    restored = replace(
        grid,
        cells=tuple(c._replace(content=_IMG_TAG_RE.sub(rewrite, c.content)) for c in grid.cells),
    )
    unused = tuple(e.id for e in pmap.entries if e.id not in used)
    return RestoreResult(
        serialize_grid(restored),
        counter["found"],
        len(pmap),
        counter["rewrites"],
        unused,
    )


@dataclass(frozen=True)
class VerificationReport:
    residual_tags: tuple[int, ...]  # positions (in tag order) still unrestored
    unused_entries: tuple[int, ...]  # entry ids whose ref appears on no tag
    duplicate_srcs: tuple[str, ...]

    @property
    def is_empty(self) -> bool:
        return not (self.residual_tags or self.unused_entries or self.duplicate_srcs)

    def to_dict(self) -> dict:
        return {
            "residual_tags": list(self.residual_tags),
            "unused_entries": list(self.unused_entries),
            "duplicate_srcs": list(self.duplicate_srcs),
        }


def verify_restoration(html: str, pmap: PlaceholderMap) -> VerificationReport:
    """Empty report iff the tag/entry correspondence is a bijection."""
    try:
        grid = parse_grid(html)
        tags = []
        for cell in grid.cells:
            tags.extend(_IMG_TAG_RE.findall(cell.content))
    except TableError:
        tags = _IMG_TAG_RE.findall(html)
    residual = tuple(i for i, tag in enumerate(tags) if _needs_restore(tag))
    srcs = [_tag_src(t) for t in tags]
    concrete = [s for s in srcs if s and not s.startswith(PLACEHOLDER_SCHEME)]
    unused = tuple(e.id for e in pmap.entries if e.image_ref not in concrete)
    seen: set[str] = set()
    dupes = []
    for s in concrete:
        if s in seen and s not in dupes:
            dupes.append(s)
        seen.add(s)
    return VerificationReport(residual, unused, tuple(dupes))
