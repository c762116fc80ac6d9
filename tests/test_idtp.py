import io
import json
import os
import random
import sys
import threading
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import DERANDOMIZE
from docpost import idtp
from docpost.cli import main
from docpost.config import Config
from docpost.errors import DomainError, FormatError
from docpost.idtp import (
    _HEADER_MAX,
    MAX_DETECTIONS,
    DimensionMismatch,
    ImageDetection,
    ImageInputError,
    Mask,
    MaskPlan,
    PixelBuffer,
    PlaceholderEntry,
    PlaceholderMap,
    apply_masks,
    crop_buffer,
    parse_detections,
    plan_masks,
    read_ppm,
    read_ppm_rows,
    restore_images,
    verify_restoration,
    write_ppm,
)
from docpost.rewards import rule_checks
from docpost.table_grid import TableError, parse_grid, serialize_grid
from oracles import mask_reference, restore_reference, verify_reference


TABLE = (0, 0, 100, 50)


def det(x1, y1, x2, y2, conf=0.9):
    return ImageDetection((x1, y1, x2, y2), conf)


# -- plan_masks -------------------------------------------------------------


def test_plan_empty():
    plan, pmap = plan_masks(TABLE, [])
    assert plan.masks == () and len(pmap) == 0


def test_plan_single_detection():
    plan, pmap = plan_masks(TABLE, [det(10, 10, 20, 30)])
    assert len(plan.masks) == 1
    assert plan.masks[0] == Mask(0, (10, 10, 20, 30), Config().mask_fill)
    assert pmap.entries[0] == PlaceholderEntry(0, (10, 10, 20, 30))


def test_plan_canonical_ordering():
    lower_right = det(60, 30, 80, 40)
    upper_left = det(10, 5, 30, 15)
    plan, pmap = plan_masks(TABLE, [lower_right, upper_left])
    assert pmap.entries[0].bbox == (10, 5, 30, 15)  # top-left gets id 0
    assert pmap.entries[1].bbox == (60, 30, 80, 40)


def test_plan_order_invariant_under_permutation():
    dets = [det(60, 30, 80, 40), det(10, 5, 30, 15), det(40, 5, 50, 12)]
    _, m1 = plan_masks(TABLE, dets)
    _, m2 = plan_masks(TABLE, list(reversed(dets)))
    assert m1 == m2


def test_plan_filters_low_confidence_and_outside_center():
    outside = det(90, 40, 130, 70)  # center (110, 55) outside the table
    weak = det(10, 10, 20, 20, conf=0.1)
    plan, pmap = plan_masks(TABLE, [outside, weak])
    assert len(pmap) == 0


def test_plan_clamps_straddling_detection():
    straddle = det(80, 30, 120, 45)  # center (100, 37.5): x == right edge -> out
    plan, _ = plan_masks(TABLE, [straddle])
    assert plan.masks == ()
    inside = det(70, 30, 120, 45)  # center (95, 37.5) inside, clamped at 100
    plan, pmap = plan_masks(TABLE, [inside])
    assert plan.masks[0].rect == (70, 30, 100, 45)
    assert pmap.entries[0].bbox == (70, 30, 100, 45)


def test_plan_suppresses_heavy_overlap():
    a = det(10, 10, 30, 30, conf=0.9)
    b = det(11, 11, 31, 31, conf=0.5)  # IoU ~ 0.8 with a
    plan, pmap = plan_masks(TABLE, [a, b], Config(overlap_tolerance=0.5))
    assert len(pmap) == 1
    assert pmap.entries[0].bbox == (10, 10, 30, 30)


def test_plan_caps_the_detections_in_the_table(monkeypatch):
    """MAX_DETECTIONS confident detections centred in the table plan as
    before, weak ones and those centred outside aside; one more raises
    before suppression compares any two."""
    table = (0, 0, 2 * MAX_DETECTIONS, 10)
    dets = [det(2 * k, 0, 2 * k + 1, 10) for k in range(MAX_DETECTIONS)]
    dets += [det(0, 0, 1, 10, conf=0.1), det(0, 20, 1, 30)]
    plan, pmap = plan_masks(table, dets)
    assert [m.rect for m in plan.masks] == [d.bbox for d in dets[:MAX_DETECTIONS]]
    assert len(pmap) == MAX_DETECTIONS

    def no_suppression(a, b):
        raise AssertionError("suppression ran")

    monkeypatch.setattr(idtp, "_iou", no_suppression)
    with pytest.raises(
        ImageInputError, match=r"^1025 detections in table \(0, 0, 2048, 10\), more than 1024$"
    ):
        plan_masks(table, [*dets, det(0, 0, 1, 10)])


# -- apply_masks ----------------------------------------------------------------


def solid_buffer(w, h, value=255):
    return PixelBuffer(w, h, bytes([value]) * (w * h * 3))


def test_apply_empty_plan_is_noop():
    buf = solid_buffer(4, 4)
    plan = MaskPlan((0, 0, 4, 4), ())
    assert apply_masks(buf, plan).data == buf.data


def test_apply_mask_changes_exact_pixel_count():
    buf = solid_buffer(4, 4)
    plan = MaskPlan((0, 0, 4, 4), (Mask(0, (0, 0, 2, 2), (0, 0, 0)),))
    out = apply_masks(buf, plan)
    changed = sum(
        1
        for i in range(16)
        if out.data[i * 3 : i * 3 + 3] != buf.data[i * 3 : i * 3 + 3]
    )
    assert changed == 4
    assert out.data[0:3] == b"\x00\x00\x00"
    assert buf.data[0:3] == b"\xff\xff\xff"  # input untouched


def test_apply_mask_dimension_mismatch():
    buf = solid_buffer(4, 4)
    plan = MaskPlan((0, 0, 5, 4), ())
    with pytest.raises(DimensionMismatch):
        apply_masks(buf, plan)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_apply_masks_changes_union_area(seed):
    rng = random.Random(seed)
    w, h = rng.randint(3, 12), rng.randint(3, 12)
    table = (0, 0, w, h)
    dets = [
        det(x1, y1, rng.randint(x1 + 1, w), rng.randint(y1 + 1, h))
        for x1, y1 in (
            (rng.randrange(w), rng.randrange(h)) for _ in range(rng.randint(0, 3))
        )
    ]
    plan, _ = plan_masks(table, dets, Config(overlap_tolerance=1.0))
    buf = solid_buffer(w, h)
    out = apply_masks(buf, plan)
    union = {
        (x, y)
        for mask in plan.masks
        for x in range(mask.rect[0], mask.rect[2])
        for y in range(mask.rect[1], mask.rect[3])
    }
    changed = sum(
        1
        for i in range(w * h)
        if out.data[i * 3 : i * 3 + 3] != buf.data[i * 3 : i * 3 + 3]
    )
    assert changed == len(union)


# -- PPM ----------------------------------------------------------------------------


def test_ppm_round_trip():
    buf = PixelBuffer(2, 3, bytes(range(18)))
    assert read_ppm(write_ppm(buf)) == buf


def test_ppm_with_comment():
    raw = b"P6\n# a comment\n2 1\n255\n" + bytes(6)
    buf = read_ppm(raw)
    assert (buf.width, buf.height) == (2, 1)


def test_ppm_rejects_other_formats():
    with pytest.raises(ValueError):
        read_ppm(b"P3\n1 1\n255\n0 0 0")


@settings(max_examples=40, deadline=None)
@given(w=st.integers(1, 8), h=st.integers(1, 8), data=st.data())
def test_ppm_round_trip_random_buffers(w, h, data):
    buf = PixelBuffer(w, h, data.draw(st.binary(min_size=w * h * 3, max_size=w * h * 3)))
    assert read_ppm(write_ppm(buf)) == buf


def test_ppm_header_separators():
    # any whitespace or "#" comment between fields; one whitespace byte ends
    # the header, so pixels may start with whitespace or "#"
    pixels = b" #\n\t\r\x0b\x0c"[:6]
    raw = b"P6#c1\n\t2 #c2\r\n#c3\n1\x0b\x0c255\r" + pixels
    assert read_ppm(raw) == PixelBuffer(2, 1, pixels)


@pytest.mark.parametrize(
    "raw",
    [
        b"P6 # comment without a newline",
        b"P6\n2 1\n255",  # no whitespace byte after maxval
        b"P6\n2 1",
        b"P6\n+2 1\n255\n" + bytes(6),
        b"P6\n2 1\n255#c\n" + bytes(6),
        b"P6\n12345678901 1\n255\n",  # 11 digits
        b"P62 1 255\n" + bytes(6),
    ],
)
def test_ppm_malformed_header_is_image_input_error(raw):
    with pytest.raises(ImageInputError, match="not a P6 PPM header"):
        read_ppm(raw)


def test_ppm_unsupported_maxval():
    with pytest.raises(ImageInputError, match="unsupported maxval 65535"):
        read_ppm(b"P6\n1 1\n65535\n" + bytes(6))


# -- mask reads only the table's rows -------------------------------------------------


def _run_mask(page, bbox, detections, out_dir):
    det_path = out_dir / "det.json"
    det_path.write_text(json.dumps(detections))
    argv = ["mask", str(page), str(det_path), "--table-bbox=%d,%d,%d,%d" % tuple(bbox),
            "--out-prefix", str(out_dir / "t")]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check_mask_against_reference(raw, page, bbox, detections, out_dir):
    """``docpost mask`` on ``page``, whose bytes are ``raw``, writes what the
    whole-page reference computes, or fails with its exception."""
    dets = [ImageDetection(tuple(d["bbox"]), d["confidence"]) for d in detections]
    try:
        expected = mask_reference(raw, str(page), bbox, dets)
    except (DomainError, FormatError) as exc:
        code, out, err = _run_mask(page, bbox, detections, out_dir)
        assert code == (1 if isinstance(exc, DomainError) else 2)
        assert out == ""
        assert json.loads(err) == {"error": type(exc).__name__, "message": str(exc)}
        return
    code, out, err = _run_mask(page, bbox, detections, out_dir)
    assert (code, err) == (0, "")
    assert json.loads(out)["masks"] == len(expected) - 2
    written = {f.name[1:]: f.read_bytes() for f in out_dir.glob("t[._]*.ppm")}
    assert written == {k: v for k, v in expected.items() if k != "crop"}
    if page.is_file():
        x1, y1, x2, y2 = bbox
        with open(page, "rb") as fh:
            width, height, rows = read_ppm_rows(fh, y1, y2)
        page_buffer = read_ppm(raw)
        assert (width, height) == (page_buffer.width, page_buffer.height)
        assert crop_buffer(rows, (x1, 0, x2, y2 - y1)).data == expected["crop"]


_SEPARATORS = [b" ", b"\n", b"\t", b"\r", b"\x0b", b"\x0c", b"#c\n", b"# x y\r\n"]


@st.composite
def mask_cases(draw):
    """A page file's bytes, a table bbox on the page and detections."""
    w, h = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    seps = [
        b"".join(draw(st.lists(st.sampled_from(_SEPARATORS), min_size=1, max_size=3)))
        for _ in range(3)
    ]
    if draw(st.booleans()):  # a comment longer than the first header read
        comment = b"c" * draw(st.sampled_from([5000, 10_000]))
        seps[draw(st.integers(0, 2))] = b"\n#" + comment + b"\n"
    end = draw(st.sampled_from([b" ", b"\n", b"\t", b"\r"]))
    pixels = random.Random(draw(st.integers(0, 2**32 - 1))).randbytes(w * h * 3)
    trailing = draw(st.sampled_from([b"", b"\n", b"#", b"junk" * 100]))
    raw = (
        b"P6" + seps[0] + b"%d" % w + seps[1] + b"%d" % h + seps[2] + b"255" + end
        + pixels + trailing
    )
    x1 = draw(st.integers(0, w - 1))
    y1 = draw(st.integers(0, h - 1))
    bbox = (x1, y1, draw(st.integers(x1 + 1, w)), draw(st.integers(y1 + 1, h)))
    detections = []
    for _ in range(draw(st.integers(0, 3))):
        dx1, dy1 = draw(st.integers(-2, w)), draw(st.integers(-2, h))
        detections.append({
            "bbox": [dx1, dy1, draw(st.integers(dx1 + 1, w + 2)),
                     draw(st.integers(dy1 + 1, h + 2))],
            "confidence": draw(st.sampled_from([0.3, 0.9])),
        })
    return raw, bbox, detections


@settings(max_examples=80, deadline=None, derandomize=DERANDOMIZE)
@given(case=mask_cases())
def test_mask_matches_whole_page_reference(tmp_path_factory, case):
    raw, bbox, detections = case
    out_dir = tmp_path_factory.mktemp("mask")
    page = out_dir / "page.ppm"
    page.write_bytes(raw)
    check_mask_against_reference(raw, page, bbox, detections, out_dir)


PAGE_20x10 = b"P6\n20 10\n255\n" + bytes(range(200)) * 3
ONE_IMAGE = [{"bbox": [4, 3, 8, 6], "confidence": 0.9}]


@pytest.mark.parametrize(
    "raw, bbox",
    [
        (PAGE_20x10[:-5], (2, 2, 18, 9)),
        (PAGE_20x10[:-1], (2, 2, 18, 9)),  # only the last row is short
        (PAGE_20x10[:-5], (2, 2, 18, 99)),  # the short page is reported first
        (b"P6\n9999999999 9999999999\n255\n" + bytes(100), (2, 2, 18, 9)),
        (b"P6\n20 10\n65535\n" + bytes(1200), (2, 2, 18, 9)),
        (b"P6 # comment without a newline" + bytes(6000), (2, 2, 18, 9)),
        (b"P6\n20 10\n255", (2, 2, 18, 9)),
        (b"", (2, 2, 18, 9)),
        (PAGE_20x10, (2, 2, 21, 9)),
        (PAGE_20x10, (5, 2, 3, 9)),
        (PAGE_20x10, (0, 10, 20, 10)),
        (PAGE_20x10 + b"trailing", (0, 0, 20, 10)),
    ],
    ids=[
        "truncated", "last_byte_missing", "truncated_and_off_page", "ten_digit_dimensions", "maxval",
        "malformed_header", "header_only", "empty", "off_page", "inverted", "empty_bbox",
        "whole_page_trailing_bytes",
    ],
)
def test_mask_errors_match_whole_page_reference(tmp_path, monkeypatch, raw, bbox):
    monkeypatch.setitem(sys.modules, "PIL", None)
    page = tmp_path / "page.ppm"
    page.write_bytes(raw)
    check_mask_against_reference(raw, page, bbox, ONE_IMAGE, tmp_path)


@pytest.mark.parametrize(
    "raw",
    [b"P6\n#" + b"c" * 10_000 + PAGE_20x10[2:] + b"trailing" * 1000, PAGE_20x10[:-5]],
    ids=["long_comment_and_trailing_bytes", "truncated"],
)
def test_mask_reads_a_pipe(tmp_path, raw):
    fifo = tmp_path / "page.ppm"
    os.mkfifo(fifo)

    def feed():
        try:
            with open(fifo, "wb") as fh:
                fh.write(raw)
        except BrokenPipeError:  # mask stops reading after the pixels
            pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    check_mask_against_reference(raw, fifo, (2, 2, 18, 9), ONE_IMAGE, tmp_path)
    writer.join(timeout=10)
    assert not writer.is_alive()


def test_read_ppm_rows_resumes_a_header_cut_anywhere(tmp_path):
    # the caller's first read may end anywhere in the header: in a comment,
    # in whitespace or in a number, here one of 10 digits
    raw = b"P6 #c1\n\t20\r\n#c2 \n10 \x0b0000000255\n" + PAGE_20x10[13:]
    page = tmp_path / "page.ppm"
    page.write_bytes(raw)
    whole = read_ppm(raw)
    for cut in range(len(raw) - 600 + 2):
        with open(page, "rb") as fh:
            head = fh.read(cut)
            width, height, rows = read_ppm_rows(fh, 3, 7, head)
        assert (width, height) == (20, 10)
        assert rows == crop_buffer(whole, (0, 3, 20, 7))


# "P6 #" opens a comment that never ends: it is cut at the header length cap
@pytest.mark.parametrize("start", [b"P6x\n", b"P6 12345678901 ", b"P6 20 10 255#", b"P6 #"])
def test_mask_stops_reading_a_header_that_can_never_match(tmp_path, start):
    page = tmp_path / "page.ppm"
    with open(page, "wb") as fh:
        fh.write(start)
        fh.truncate(48_000_000)
    tracemalloc.start()
    try:
        code, out, err = _run_mask(page, (0, 0, 10, 10), [], tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert json.loads(err)["message"].startswith("not a P6 PPM header")
    assert peak < 1_000_000


@pytest.mark.parametrize("extra, accepted", [(0, True), (1, False)])
def test_read_ppm_rows_caps_the_header_length(tmp_path, extra, accepted):
    header = b"P6\n20 10\n255\n"
    comment = b"#" + b"c" * (_HEADER_MAX - len(header) - 2 + extra) + b"\n"
    raw = header[:3] + comment + header[3:] + PAGE_20x10[len(header) :]
    page = tmp_path / "page.ppm"
    page.write_bytes(raw)
    with open(page, "rb") as fh:
        if accepted:
            assert read_ppm_rows(fh, 0, 10)[2] == read_ppm(PAGE_20x10)
        else:
            with pytest.raises(ImageInputError, match="not a P6 PPM header"):
                read_ppm_rows(fh, 0, 10)


def test_mask_memory_follows_the_table_not_the_page(tmp_path):
    # a sparse 4,000x4,000 page: 48 MB of pixels that take no disk blocks
    page = tmp_path / "page.ppm"
    header = b"P6\n4000 4000\n255\n"
    with open(page, "wb") as fh:
        fh.write(header)
        fh.truncate(len(header) + 4000 * 4000 * 3)
    detections = [{"bbox": [1050, 2020, 1100, 2060], "confidence": 0.9}]
    tracemalloc.start()
    try:
        code, out, err = _run_mask(page, (1000, 2000, 1200, 2100), detections, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "")
    assert json.loads(out)["masks"] == 1
    assert peak < 8_000_000
    assert (tmp_path / "t_img0.ppm").read_bytes() == b"P6\n50 40\n255\n" + bytes(50 * 40 * 3)
    masked = read_ppm((tmp_path / "t.masked.ppm").read_bytes())
    fill = bytes(Config().mask_fill)
    expected = bytearray(200 * 100 * 3)
    for y in range(20, 60):
        expected[(y * 200 + 50) * 3 : (y * 200 + 100) * 3] = fill * 50
    assert masked == PixelBuffer(200, 100, bytes(expected))


# -- restore_images -------------------------------------------------------------------


def pmap_of(*refs):
    return PlaceholderMap(
        tuple(PlaceholderEntry(i, (0, i * 10, 5, i * 10 + 5), ref) for i, ref in enumerate(refs))
    )


def test_restore_two_tags_row_major():
    html = '<table><tr><td><img></td><td>x</td></tr><tr><td>y</td><td><img src=""></td></tr></table>'
    result = restore_images(html, pmap_of("a.png", "b.png"))
    assert result.rewrites == 2 and not result.count_mismatch
    grid = parse_grid(result.html)
    assert '<img src="a.png">' in grid.content_at(0, 0)
    assert '<img src="b.png">' in grid.content_at(1, 1)


def test_restore_empty_map_no_tags():
    html = "<table><tr><td>plain</td></tr></table>"
    result = restore_images(html, PlaceholderMap(()))
    assert result.html == serialize_grid(parse_grid(html))
    assert result.found == 0 and result.expected == 0 and not result.count_mismatch


def test_restore_count_mismatch_three_tags_two_entries():
    html = "<table><tr><td><img><img><img></td></tr></table>"
    result = restore_images(html, pmap_of("a.png", "b.png"))
    assert result.count_mismatch
    assert (result.found, result.expected) == (3, 2)
    assert result.rewrites == 2
    assert result.html.count('src="') == 2


def test_restore_placeholder_scheme_tags():
    html = '<table><tr><td><img src="placeholder://0"/></td></tr></table>'
    result = restore_images(html, pmap_of("real.png"))
    assert result.rewrites == 1
    assert 'src="real.png"' in result.html


def test_restore_strict_ids():
    html = (
        '<table><tr><td><img src="placeholder://1"/></td>'
        '<td><img src="placeholder://0"/></td></tr></table>'
    )
    result = restore_images(html, pmap_of("zero.png", "one.png"), strict_ids=True)
    assert result.rewrites == 2
    grid = parse_grid(result.html)
    assert 'src="one.png"' in grid.content_at(0, 0)
    assert 'src="zero.png"' in grid.content_at(0, 1)


@pytest.mark.parametrize("strict_ids", [False, True])
def test_restore_unquoted_placeholder_src(strict_ids):
    """An unquoted src runs to whitespace or ">", slashes included, so
    ``src=placeholder://1`` is a placeholder, not the concrete
    ``placeholder:``."""
    html = (
        "<table><tr><td><img src=placeholder://1></td>"
        "<td><img alt=x SRC=placeholder://0 width=3></td></tr></table>"
    )
    pmap = pmap_of("zero.png", "one.png")
    before = verify_restoration(html, pmap)
    assert before.residual_tags == (0, 1) and before.unused_entries == (0, 1)
    result = restore_images(html, pmap, strict_ids=strict_ids)
    assert (result.found, result.rewrites, result.unused_entries) == (2, 2, ())
    grid = parse_grid(result.html)
    first, second = ("one.png", "zero.png") if strict_ids else ("zero.png", "one.png")
    assert grid.content_at(0, 0) == f'<img src="{first}">'
    assert grid.content_at(0, 1) == f'<img alt=x SRC="{second}" width=3>'
    assert verify_restoration(result.html, pmap).is_empty


def test_restore_skips_concrete_srcs_and_reports_unused():
    html = '<table><tr><td><img src="done.png"></td></tr></table>'
    result = restore_images(html, pmap_of("other.png"))
    assert result.found == 0 and result.expected == 1
    assert result.rewrites == 0
    assert result.unused_entries == (0,)
    assert 'src="done.png"' in result.html


def test_restore_idempotent_on_own_output():
    html = "<table><tr><td><img></td><td><img/></td></tr></table>"
    pmap = pmap_of("a.png", "b.png")
    first = restore_images(html, pmap)
    second = restore_images(first.html, pmap)
    assert second.html == first.html
    assert second.found == 0 and second.unused_entries == (0, 1)


def test_restore_preserves_other_attributes():
    html = '<table><tr><td><img width="12" alt="chart"></td></tr></table>'
    result = restore_images(html, pmap_of("c.png"))
    assert '<img width="12" alt="chart" src="c.png">' in result.html


@st.composite
def recognizer_tables(draw):
    """Table markup as recognizers write it, with ``<img>`` placeholders:
    whitespace between tags, an optional <thead>, quoted and unquoted
    attributes, ragged rows that pad and spans that are clipped. Returns the
    markup, whether its placeholders carry ids, and the entry count."""
    strict_ids = draw(st.booleans())
    n_entries = draw(st.integers(0, 4))
    gap = st.sampled_from(["", " ", "\n", "\n    "])
    if strict_ids:
        # ids past the map's last entry stay unrestored
        pid = draw(st.integers(0, n_entries))
        img = st.sampled_from(
            [f'<img src="placeholder://{pid}">', f"<img src='placeholder://{pid}' />"]
        )
    else:
        img = st.sampled_from(
            ["<img>", '<img src="">', "<IMG alt=chart>", "<img src=placeholder://0/>"]
        )
    content = st.one_of(
        st.sampled_from(["", "a", " b c ", "x &amp; y", '<img src="done.png">']), img
    )
    span = st.sampled_from(["", " rowspan=2", ' rowspan="9"', " colspan=2", " rowspan='70000'"])
    n_rows = draw(st.integers(1, 5))
    rows = []
    for _ in range(n_rows):
        cells = []
        for _ in range(draw(st.integers(1, 4))):  # rows of unequal length pad
            tag = draw(st.sampled_from(["td", "th"]))
            attrs = draw(span) + draw(st.sampled_from(["", " class=num", ' align="left"']))
            cells.append(f"<{tag}{attrs}>{draw(content)}</{tag}>")
        rows.append(f"<tr>{draw(gap).join(cells)}</tr>")
    head = draw(st.integers(0, n_rows))
    body = draw(gap).join(rows[head:])
    if head:
        thead = draw(gap).join(rows[:head])
        body = f"<thead>{draw(gap)}{thead}</thead>{draw(gap)}<tbody>{body}</tbody>"
    return f"<table>{draw(gap)}{body}{draw(gap)}</table>", strict_ids, n_entries


@settings(max_examples=200, deadline=None, derandomize=DERANDOMIZE)
@given(case=recognizer_tables())
def test_restored_grid_is_the_grid_of_its_html(case):
    """The pipeline merges the grid that restore_images returns instead of
    parsing its HTML again, so the two must be one grid. Markup that the
    input ends inside is not drawn: its cell text runs to the end of the
    input, so a second parse would also take in the closing tags that
    serialize_grid writes after it (test_pipeline_parses_a_restored_table_once
    pins what the pipeline does with it)."""
    html, strict_ids, n_entries = case
    pmap = pmap_of(*(f"page0_el1_img{i}.png" for i in range(n_entries)))
    try:
        parse_grid(html)
    except TableError:  # spans that overlap: restoration is skipped
        with pytest.raises(TableError):
            restore_images(html, pmap, strict_ids=strict_ids)
        return
    result = restore_images(html, pmap, strict_ids=strict_ids)
    again = parse_grid(result.html)
    assert result.grid == again
    assert result.grid.cells == again.cells and result.grid.occupancy == again.occupancy


# -- verify_restoration ------------------------------------------------------------------


def test_verify_clean():
    html = '<table><tr><td><img src="a.png"></td><td><img src="b.png"></td></tr></table>'
    report = verify_restoration(html, pmap_of("a.png", "b.png"))
    assert report.is_empty


def test_verify_unused_entry():
    html = '<table><tr><td><img src="a.png"></td></tr></table>'
    report = verify_restoration(html, pmap_of("a.png", "b.png"))
    assert report.unused_entries == (1,)
    assert not report.is_empty


def test_verify_unquoted_srcs():
    """Unquoted srcs are read to whitespace or ">": a placeholder with its
    slashes is residual, and a concrete path with slashes counts whole."""
    html = (
        "<table><tr><td><img src=placeholder://0></td>"
        "<td><img src=imgs/b.png><img src=imgs/b.png alt=b></td></tr></table>"
    )
    report = verify_restoration(html, pmap_of("imgs/a.png", "imgs/b.png"))
    assert report.residual_tags == (0,)
    assert report.unused_entries == (0,)
    assert report.duplicate_srcs == ("imgs/b.png",)


def test_verify_residual_and_duplicates():
    html = (
        '<table><tr><td><img src="placeholder://0"></td>'
        '<td><img src="a.png"><img src="a.png"></td></tr></table>'
    )
    report = verify_restoration(html, pmap_of("a.png", "b.png"))
    assert report.residual_tags == (0,)
    assert report.duplicate_srcs == ("a.png",)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(0, 4))
def test_mask_restore_round_trip(seed, k):
    rng = random.Random(seed)
    n_rows, n_cols = rng.randint(max(1, k), 4 + k), rng.randint(1, 4)
    while n_rows * n_cols < k:
        n_cols += 1
    # place k placeholder tags in distinct cells
    positions = rng.sample(
        [(r, c) for r in range(n_rows) for c in range(n_cols)], k
    )
    position_order = sorted(positions)
    rows = []
    for r in range(n_rows):
        row = []
        for c in range(n_cols):
            row.append("<img>" if (r, c) in positions else f"t{r}{c}")
        rows.append(f"<tr>{''.join(f'<td>{v}</td>' for v in row)}</tr>")
    html = f"<table>{''.join(rows)}</table>"
    pmap = pmap_of(*(f"crop{i}.png" for i in range(k)))
    result = restore_images(html, pmap)
    assert result.rewrites == k and not result.count_mismatch
    assert verify_restoration(result.html, pmap).is_empty
    grid = parse_grid(result.html)
    for i, (r, c) in enumerate(position_order):
        assert f'src="crop{i}.png"' in grid.content_at(r, c)


def test_placeholder_map_requires_dense_ids():
    with pytest.raises(ValueError):
        PlaceholderMap((PlaceholderEntry(1, (0, 0, 1, 1)),))


def test_placeholder_map_json_round_trip():
    pmap = pmap_of("a.png", "b.png")
    assert PlaceholderMap.from_dict(pmap.to_dict()) == pmap


def test_verify_unparseable_html_uses_raw_scan():
    report = verify_restoration('no table, just <img src="a.png"> floating', pmap_of("a.png"))
    assert report.is_empty
    report2 = verify_restoration("nothing here", pmap_of("a.png"))
    assert report2.unused_entries == (0,)


# -- restore and verify against the per-tag reference -------------------------------


_IMG_PIECES = [
    "<img>",
    "<img/>",
    "<img />",
    "<IMG alt=chart>",
    "<imgx>",
    "<img",  # no ">" of its own: runs to the next ">", or to no tag at all
    "<img ",
    "<img\n>",
    "<img /\t/>",
    "<img / />",
    '<img src="">',
    "<img src=''>",
    "<img src= >",
    '<img src="done.png">',
    "<img src=done.png/>",
    "<img alt=x SRC = 'b.png' width=3 />",
    '<img src="a.png',  # an unclosed quote reads as an unquoted value
    "<img srcset=x.png>",
    '<img data-src="x.png">',
]
_PLACEHOLDER_IDS = [
    "0", "1", "2", "3", "-1", "01", " 1", "+1", "x", "", "1.0", "9" * 30, " +0_0", "-0", "\u0661"
]
_TEXT_PIECES = ["", "a", " ", "/", ">", "<", '"', "'", 'src="c.png"', "</td><td>", "<tr>", "&amp;"]


@st.composite
def img_markup(draw):
    """Markup built from ``<img>`` tags of every src form (quoted, unquoted,
    empty, missing, ``placeholder://k`` with good, bad and negative ``k``),
    near misses (``<imgx>``, a bare ``<img`` with no ``>``) and stray text.
    Returns the markup, wrapped in a table or not, and a map of up to four
    entries whose refs may repeat."""
    placeholder = st.builds(
        lambda k, form: form.format(k),
        st.sampled_from(_PLACEHOLDER_IDS),
        st.sampled_from(
            [
                '<img src="placeholder://{}">',
                "<img src='placeholder://{}' />",
                "<img src=placeholder://{}>",
                "<IMG alt=x SRC=placeholder://{} width=3>",
            ]
        ),
    )
    piece = st.one_of(st.sampled_from(_IMG_PIECES), placeholder, st.sampled_from(_TEXT_PIECES))
    cells = draw(st.lists(st.lists(piece, max_size=6).map("".join), min_size=1, max_size=5))
    if draw(st.booleans()):
        # a table: cells in one or two rows, with the closing tags optional
        split = draw(st.integers(0, len(cells)))
        rows = [cells[:split], cells[split:]]
        html = "<table>" + "".join(
            "<tr>" + "".join(f"<td>{c}</td>" for c in row) + "</tr>" for row in rows if row
        )
        html += draw(st.sampled_from(["</table>", ""]))
    else:  # no table: verify reads the raw markup and restore refuses it
        html = "".join(cells)
    refs = draw(
        st.lists(st.sampled_from(["a.png", "b.png", "done.png", "c d.png", ""]), max_size=4)
    )
    return html, pmap_of(*refs)


@settings(max_examples=400, deadline=None, derandomize=DERANDOMIZE)
@given(case=img_markup(), strict_ids=st.booleans())
# a missing src goes in before the closer, with the slashes and whitespace
# in front of the closer dropped
@example(
    case=("<table><tr><td>a<img / /><img\t//>b<img\n>", pmap_of("x.png", "y.png", "z.png")),
    strict_ids=False,
)
def test_restore_and_verify_match_the_per_tag_reference(case, strict_ids):
    """One reader of each tag's src gives every RestoreResult field, the
    restored grid (cells, layout and warnings) and each verification report
    that the per-tag reference gives, with and without ``strict_ids``."""
    html, pmap = case
    assert verify_restoration(html, pmap).to_dict() == verify_reference(html, pmap).to_dict()
    try:
        want = restore_reference(html, pmap, strict_ids=strict_ids)
    except TableError as exc:
        with pytest.raises(type(exc)):
            restore_images(html, pmap, strict_ids=strict_ids)
        return
    got = restore_images(html, pmap, strict_ids=strict_ids)
    assert got == want  # every field but the grid, which equality skips
    assert (got.grid, got.grid.warnings) == (want.grid, want.grid.warnings)
    assert verify_restoration(got.html, pmap).to_dict() == verify_reference(got.html, pmap).to_dict()


@settings(max_examples=300, deadline=None, derandomize=DERANDOMIZE)
@given(
    cells=st.lists(
        st.lists(
            # pieces that name no image file, so every tag still waits. The
            # rule reward counts the whole candidate and restore the cells, so
            # no "<tr>", after which markup up to the next cell is in none,
            # and no "/", whose "</" the table reader writes as a comment,
            # where "-->" can become a tag's src
            st.sampled_from(
                [
                    p for p in _IMG_PIECES + _TEXT_PIECES
                    if ".png" not in p and p not in ("<tr>", "/")
                ]
            ),
            max_size=6,
        ).map("".join),
        min_size=1,
        max_size=5,
    )
)
def test_rule_checks_expects_the_tags_restore_finds(cells):
    """The rule reward and restore count tags by one rule: on a one-table
    candidate whose tags all wait for restoration, the count restore finds
    is the count the placeholder check expects."""
    html = "<table><tr>" + "".join(f"<td>{c}</td>" for c in cells) + "</tr></table>"
    found = restore_images(html, pmap_of()).found
    assert rule_checks(html, found).placeholder_ok


def test_restore_and_verify_read_an_unterminated_img_run_in_one_pass():
    """A run of "<img " with no ">" after it holds no tag. Restore and
    verify stop their scan at the last ">", so 1 MB of it reads in about a
    second where a scan from each "<img" took minutes. The serializer's
    "</td>" closes the run's first "<img", so the written HTML holds one
    residual tag though restore found none."""
    html = "<table><tr><td>" + "<img " * 200_000
    result = restore_images(html, pmap_of("a.png"))
    assert (result.found, result.rewrites, result.unused_entries) == (0, 0, (0,))
    assert verify_restoration(html, pmap_of("a.png")).residual_tags == ()
    assert verify_restoration(result.html, pmap_of("a.png")).residual_tags == (0,)
    raw = verify_restoration("no table " + "<img " * 200_000, pmap_of("a.png"))
    assert raw.residual_tags == () and raw.unused_entries == (0,)


_BAD_ENTRY = (
    'placeholder entry {} is not a {{"id": k, "bbox": [x1, y1, x2, y2], "image_ref": s}} '
    "object with integer id and bbox"
)
_NOT_A_MAP = 'placeholder map must be an object with an "entries" array'


@pytest.mark.parametrize(
    "data, message",
    [
        ({}, _NOT_A_MAP),
        ([], _NOT_A_MAP),
        ({"entries": {"id": 0}}, _NOT_A_MAP),
        ({"entries": [{"id": 0}]}, _BAD_ENTRY.format(0)),
        ({"entries": [[0, 0, 1, 1]]}, _BAD_ENTRY.format(0)),
        ({"entries": [{"id": "0", "bbox": [0, 0, 1, 1]}]}, _BAD_ENTRY.format(0)),
        ({"entries": [{"id": 1.0, "bbox": [0, 0, 1, 1]}]}, _BAD_ENTRY.format(0)),
        ({"entries": [{"id": True, "bbox": [0, 0, 1, 1]}]}, _BAD_ENTRY.format(0)),
        (
            {"entries": [{"id": 0, "bbox": [0, 0, 1, 1]}, {"id": 1, "bbox": [0, 0, 1]}]},
            _BAD_ENTRY.format(1),
        ),
        ({"entries": [{"id": 0, "bbox": [0, 0, 1, 1.0]}]}, _BAD_ENTRY.format(0)),
        ({"entries": [{"id": 0, "bbox": [0, 0, 1, 1], "image_ref": None}]}, _BAD_ENTRY.format(0)),
    ],
)
def test_placeholder_map_from_dict_refuses_malformed_maps(data, message):
    with pytest.raises(FormatError) as exc:
        PlaceholderMap.from_dict(data)
    assert str(exc.value) == message


def test_placeholder_map_from_dict_keeps_the_domain_rule():
    """A well-formed map whose ids are not 0..n-1 is a domain error."""
    with pytest.raises(ImageInputError):
        PlaceholderMap.from_dict({"entries": [{"id": 1, "bbox": [0, 0, 1, 1]}]})


_BAD_DETECTION = 'detection {} is not a {{"bbox": [x1, y1, x2, y2], "confidence": f}} object'


@pytest.mark.parametrize(
    "data, message",
    [
        ({"bbox": [4, 3, 8, 6], "confidence": 0.9}, "detections file must be a JSON array"),
        ([[4, 3, 8, 6]], _BAD_DETECTION.format(0)),
        ([{"confidence": 0.9}], _BAD_DETECTION.format(0)),
        ([{"bbox": [4, 3, 8, 6]}], _BAD_DETECTION.format(0)),
        ([{"bbox": [4, 3, 8, 6], "confidence": "0.9"}], _BAD_DETECTION.format(0)),
        ([{"bbox": [4, 3, 8, 6], "confidence": True}], _BAD_DETECTION.format(0)),
        ([{"bbox": [4, 3, 8, float("inf")], "confidence": 0.9}], _BAD_DETECTION.format(0)),
        ([{"bbox": [4, 3, 8, 10**400], "confidence": 0.9}], _BAD_DETECTION.format(0)),
        (
            [{"bbox": [4, 3, 8, 6], "confidence": 0.9}, {"bbox": [4, 3, 8], "confidence": 0.9}],
            _BAD_DETECTION.format(1),
        ),
    ],
)
def test_parse_detections_refuses_malformed_detections(data, message):
    with pytest.raises(FormatError) as exc:
        parse_detections(data)
    assert str(exc.value) == message


def test_parse_detections_reads_numbers_as_floats():
    dets = parse_detections([{"bbox": [4, 3, 8.5, 6], "confidence": 1}])
    assert dets == [ImageDetection((4, 3, 8.5, 6), 1.0)]
    with pytest.raises(ImageInputError):  # a degenerate box is a domain error
        parse_detections([{"bbox": [8, 3, 4, 6], "confidence": 0.9}])
