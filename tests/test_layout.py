import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docpost.layout import (
    CropSpec,
    DuplicateElement,
    LayoutElement,
    LayoutGeometryError,
    LayoutIndexError,
    LayoutPage,
    LayoutSchemaError,
    LayoutSyntaxError,
    OutputFormat,
    RecognizedElement,
    RecognizerKind,
    UnknownElement,
    assemble,
    crop_plan,
    parse_layout,
    parse_layout_document,
    parse_recognition_fixture,
    route_region,
    run_pipeline,
)


def el(bbox, index, label="text", rotation=0):
    return {"bbox": list(bbox), "index": index, "label": label, "rotation": rotation}


def layout_json(*elements):
    return json.dumps(list(elements))


# -- parse_layout ------------------------------------------------------------


def test_parse_minimal_layout():
    page = parse_layout(layout_json(el((0, 0, 10, 10), 0)), 100, 100)
    assert len(page.elements) == 1
    assert page.elements[0] == LayoutElement((0, 0, 10, 10), 0, "text", 0)


def test_parse_not_json():
    with pytest.raises(LayoutSyntaxError):
        parse_layout("{nope", 100, 100)


def test_parse_missing_fields():
    with pytest.raises(LayoutSchemaError):
        parse_layout(json.dumps([{"bbox": [0, 0, 1, 1], "index": 0}]), 100, 100)
    with pytest.raises(LayoutSchemaError):
        parse_layout(json.dumps([{"index": 0, "label": "text"}]), 100, 100)


def test_parse_duplicate_index():
    with pytest.raises(LayoutIndexError):
        parse_layout(
            layout_json(el((0, 0, 10, 10), 0), el((20, 20, 30, 30), 0)), 100, 100
        )


def test_parse_degenerate_bbox():
    with pytest.raises(LayoutGeometryError):
        parse_layout(layout_json(el((10, 10, 10, 20), 0)), 100, 100)


def test_parse_bad_rotation():
    with pytest.raises(LayoutGeometryError):
        parse_layout(layout_json(el((0, 0, 10, 10), 0, rotation=45)), 100, 100)


def test_parse_rotation_boolean_refused_integral_float_read():
    # False == 0, yet it is no rotation
    with pytest.raises(LayoutGeometryError) as exc:
        parse_layout(layout_json(el((0, 0, 10, 10), 0, rotation=False)), 100, 100)
    assert str(exc.value) == "element 0 rotation False is not one of (0, 90, 180, 270)"
    page = parse_layout(layout_json(el((0, 0, 10, 10), 0, rotation=90.0)), 100, 100)
    assert type(page.elements[0].rotation) is int
    assert page.to_json_list()[0]["rotation"] == 90


def test_parse_non_permutation_indices():
    with pytest.raises(LayoutIndexError):
        parse_layout(
            layout_json(el((0, 0, 10, 10), 0), el((20, 20, 30, 30), 5)), 100, 100
        )


def test_parse_one_based_indices_normalized():
    page = parse_layout(
        layout_json(el((0, 0, 10, 10), 1), el((20, 20, 30, 30), 2)), 100, 100
    )
    assert sorted(e.index for e in page.elements) == [0, 1]
    assert any("1-based" in w for w in page.warnings)


def test_parse_unknown_label_downgrades():
    page = parse_layout(layout_json(el((0, 0, 10, 10), 0, label="sidebar")), 100, 100)
    assert page.elements[0].label == "other"
    assert any("unknown label" in w for w in page.warnings)


def test_parse_missing_rotation_defaults_zero():
    obj = {"bbox": [0, 0, 5, 5], "index": 0, "label": "text"}
    page = parse_layout(json.dumps([obj]), 10, 10)
    assert page.elements[0].rotation == 0


def test_parse_clamps_to_page():
    page = parse_layout(layout_json(el((50, 50, 200, 80), 0)), 100, 100)
    assert page.elements[0].bbox == (50, 50, 100, 80)
    assert any("clamped" in w for w in page.warnings)


def test_parse_fully_offpage_bbox_rejected():
    with pytest.raises(LayoutGeometryError):
        parse_layout(layout_json(el((200, 200, 300, 300), 0)), 100, 100)


def test_parse_empty_layout():
    page = parse_layout("[]", 100, 100)
    assert page.elements == ()


def test_parse_round_trip_own_serialization():
    page = parse_layout(
        layout_json(
            el((0, 0, 10, 10), 0, "title"),
            el((0, 20, 10, 30), 1, "table", rotation=90),
        ),
        100,
        100,
    )
    again = parse_layout(json.dumps(page.to_json_list()), 100, 100)
    assert again == page


# -- crop_plan -------------------------------------------------------------------


def test_crop_plan_rotations():
    page = parse_layout(
        layout_json(
            el((0, 0, 10, 10), 0, rotation=0),
            el((0, 20, 10, 30), 1, rotation=90),
            el((0, 40, 10, 50), 2, rotation=180),
            el((0, 60, 10, 70), 3, rotation=270),
        ),
        100,
        100,
    )
    assert crop_plan(page, 0).rotation_to_apply == 0
    assert crop_plan(page, 1).rotation_to_apply == 270
    assert crop_plan(page, 2).rotation_to_apply == 180
    assert crop_plan(page, 3).rotation_to_apply == 90
    for i in range(4):
        element = page.element_by_index(i)
        assert (element.rotation + crop_plan(page, i).rotation_to_apply) % 360 == 0


def test_crop_plan_clamped_bbox():
    page = parse_layout(layout_json(el((90, 0, 150, 10), 0)), 100, 100)
    assert crop_plan(page, 0) == CropSpec((90, 0, 100, 10), 0)


# -- route_region -----------------------------------------------------------------


@pytest.mark.parametrize(
    "label,kind",
    [
        ("text", RecognizerKind.TEXT_REC),
        ("title", RecognizerKind.TEXT_REC),
        ("table_caption", RecognizerKind.TEXT_REC),
        ("image_caption", RecognizerKind.TEXT_REC),
        ("header", RecognizerKind.TEXT_REC),
        ("footer", RecognizerKind.TEXT_REC),
        ("other", RecognizerKind.TEXT_REC),
        ("formula", RecognizerKind.FORMULA_REC),
        ("table", RecognizerKind.TABLE_REC),
        ("tablebody", RecognizerKind.TABLE_REC),
        ("image", RecognizerKind.PASS_THROUGH),
        ("sidebar", RecognizerKind.TEXT_REC),
    ],
)
def test_route_region(label, kind):
    assert route_region(label) is kind


# -- assemble ----------------------------------------------------------------------


def make_page(*specs):
    elements = tuple(LayoutElement(*spec) for spec in specs)
    return LayoutPage(1000, 1000, elements)


def test_assemble_orders_by_index():
    page = make_page(((0, 20, 10, 30), 0, "text", 0), ((0, 0, 10, 10), 1, "text", 0))
    recs = [
        RecognizedElement(page.elements[1], "B"),
        RecognizedElement(page.elements[0], "A"),
    ]
    assert assemble(recs, page) == "A\n\nB"


def test_page_stores_elements_in_index_order():
    with pytest.raises(LayoutIndexError):
        make_page(((0, 0, 10, 10), 1, "text", 0), ((0, 20, 10, 30), 0, "text", 0))
    with pytest.raises(LayoutIndexError):
        make_page(((0, 0, 10, 10), 1, "text", 0))
    # the parser puts elements given out of order into index order
    page = parse_layout(
        layout_json(el((0, 0, 10, 10), 2), el((0, 20, 10, 30), 0, "title"), el((0, 40, 10, 50), 1)),
        100,
        100,
    )
    assert [e.index for e in page.elements] == [0, 1, 2]
    assert page.elements[0].label == "title"
    assert page.element_by_index(2).bbox == (0, 0, 10, 10)
    for index in (-1, 3):
        with pytest.raises(UnknownElement):
            page.element_by_index(index)


def test_parse_warnings_keep_input_order():
    page = parse_layout(
        layout_json(el((0, 0, 10, 10), 2, "sidebar"), el((0, 20, 10, 30), 1, "margin")),
        100,
        100,
    )
    assert [e.index for e in page.elements] == [0, 1]
    assert page.warnings == (
        "element 1: unknown label 'sidebar' mapped to 'other'",
        "element 0: unknown label 'margin' mapped to 'other'",
        "1-based indices normalized to 0-based",
    )


@settings(max_examples=25, deadline=None)
@given(order=st.permutations(list(range(5))))
def test_assemble_invariant_under_input_permutation(order):
    page = make_page(
        *(((0, i * 10, 10, i * 10 + 5), i, "text", 0) for i in range(5))
    )
    recs = [RecognizedElement(page.elements[i], f"block {i}") for i in order]
    assert assemble(recs, page) == "\n\n".join(f"block {i}" for i in range(5))


def test_assemble_table_verbatim():
    page = make_page(((0, 0, 10, 10), 0, "table", 0))
    html = "<table><tr><td>x</td></tr></table>"
    assert assemble([RecognizedElement(page.elements[0], html)], page) == html


def test_assemble_rendering_rules():
    page = make_page(
        ((0, 0, 10, 10), 0, "title", 0),
        ((0, 10, 10, 20), 1, "formula", 0),
        ((0, 20, 10, 30), 2, "image", 0),
        ((0, 30, 10, 40), 3, "table_caption", 0),
    )
    recs = [
        RecognizedElement(page.elements[0], "Heading"),
        RecognizedElement(page.elements[1], "x^2"),
        RecognizedElement(page.elements[2], "fig.png"),
        RecognizedElement(page.elements[3], "Table 1"),
    ]
    out = assemble(recs, page)
    assert out == "# Heading\n\n$$\nx^2\n$$\n\n![](fig.png)\n\n*Table 1*"


@pytest.mark.parametrize(
    "label,markdown,html",
    [
        ("text", 'a & <b> "q" {0} {}', '<p>a &amp; &lt;b&gt; &quot;q&quot; {0} {}</p>'),
        ("title", '# a & <b> "q" {0} {}', '<h1>a &amp; &lt;b&gt; &quot;q&quot; {0} {}</h1>'),
        (
            "formula",
            '$$\na & <b> "q" {0} {}\n$$',
            '<div class="formula">$$a &amp; &lt;b&gt; &quot;q&quot; {0} {}$$</div>',
        ),
        ("table", 'a & <b> "q" {0} {}', 'a & <b> "q" {0} {}'),
        ("tablebody", 'a & <b> "q" {0} {}', 'a & <b> "q" {0} {}'),
        (
            "table_caption",
            '*a & <b> "q" {0} {}*',
            '<p><em>a &amp; &lt;b&gt; &quot;q&quot; {0} {}</em></p>',
        ),
        ("image", '![](a & <b> "q" {0} {})', '<img src="a &amp; &lt;b&gt; &quot;q&quot; {0} {}">'),
        (
            "image_caption",
            '*a & <b> "q" {0} {}*',
            '<p><em>a &amp; &lt;b&gt; &quot;q&quot; {0} {}</em></p>',
        ),
        ("header", 'a & <b> "q" {0} {}', '<p>a &amp; &lt;b&gt; &quot;q&quot; {0} {}</p>'),
        ("footer", 'a & <b> "q" {0} {}', '<p>a &amp; &lt;b&gt; &quot;q&quot; {0} {}</p>'),
        ("other", 'a & <b> "q" {0} {}', '<p>a &amp; &lt;b&gt; &quot;q&quot; {0} {}</p>'),
        # a hand-built page skips the parser's downgrade to 'other'
        ("sidebar", 'a & <b> "q" {0} {}', '<p>a &amp; &lt;b&gt; &quot;q&quot; {0} {}</p>'),
    ],
)
def test_assemble_block_of_each_label(label, markdown, html):
    page = make_page(((0, 0, 10, 10), 0, label, 0))
    recs = [RecognizedElement(page.elements[0], 'a & <b> "q" {0} {}')]
    assert assemble(recs, page, OutputFormat.MARKDOWN, True) == markdown
    assert assemble(recs, page, OutputFormat.HTML, True) == html


def test_assemble_excludes_header_footer_by_default():
    page = make_page(
        ((0, 0, 10, 10), 0, "header", 0),
        ((0, 10, 10, 20), 1, "text", 0),
        ((0, 20, 10, 30), 2, "footer", 0),
    )
    recs = [
        RecognizedElement(page.elements[0], "running head"),
        RecognizedElement(page.elements[1], "body"),
        RecognizedElement(page.elements[2], "page 3"),
    ]
    assert assemble(recs, page) == "body"
    with_hf = assemble(recs, page, include_headers_footers=True)
    assert with_hf == "running head\n\nbody\n\npage 3"


def test_assemble_html_format():
    page = make_page(((0, 0, 10, 10), 0, "title", 0), ((0, 10, 10, 20), 1, "text", 0))
    recs = [
        RecognizedElement(page.elements[0], "T & Co"),
        RecognizedElement(page.elements[1], "body"),
    ]
    out = assemble(recs, page, OutputFormat.HTML)
    assert out == "<h1>T &amp; Co</h1>\n<p>body</p>"


def test_assemble_duplicate_and_unknown():
    page = make_page(((0, 0, 10, 10), 0, "text", 0))
    rec = RecognizedElement(page.elements[0], "x")
    with pytest.raises(DuplicateElement):
        assemble([rec, rec], page)
    # an index past the page, before it, or one the page holds another element at
    for index in (7, -1, -7, 0):
        foreign = RecognizedElement(LayoutElement((0, 0, 5, 5), index, "text", 0), "y")
        with pytest.raises(UnknownElement):
            assemble([foreign], page)


# -- pipeline ---------------------------------------------------------------------


def single_page_doc(elements, fixture):
    pages = parse_layout_document(json.dumps(elements))
    fixtures = parse_recognition_fixture(json.dumps(fixture), len(pages))
    return pages, fixtures


def test_pipeline_single_page():
    elements = {
        "page_width": 200,
        "page_height": 200,
        "elements": [
            el((0, 0, 100, 20), 0, "title"),
            el((0, 30, 100, 60), 1, "text"),
            el((0, 70, 100, 120), 2, "table"),
        ],
    }
    fixture = {
        "0": {"content": "Doc Title", "kind": "text"},
        "1": {"content": "Intro paragraph.", "kind": "text"},
        "2": {"content": "<table><tr><td>v</td></tr></table>", "kind": "table"},
    }
    pages, fixtures = single_page_doc(elements, fixture)
    result = run_pipeline(pages, fixtures)
    assert result.document == (
        "# Doc Title\n\nIntro paragraph.\n\n<table><tr><td>v</td></tr></table>\n"
    )
    assert result.merge_plans == []


def test_pipeline_empty_layout():
    pages, fixtures = single_page_doc(
        {"page_width": 10, "page_height": 10, "elements": []}, {}
    )
    result = run_pipeline(pages, fixtures)
    assert result.document == ""


def test_pipeline_merges_cross_page_table():
    doc = {
        "pages": [
            {
                "page_width": 200,
                "page_height": 200,
                "elements": [el((0, 0, 100, 50), 0, "table")],
            },
            {
                "page_width": 200,
                "page_height": 200,
                "elements": [el((0, 0, 100, 50), 0, "table"), el((0, 60, 100, 80), 1, "text")],
            },
        ]
    }
    fixture = [
        {"0": {"content": "<table><tr><th>A</th></tr><tr><td>one.</td></tr></table>", "kind": "table"}},
        {
            "0": {"content": "<table><tr><th>A</th></tr><tr><td>two.</td></tr></table>", "kind": "table"},
            "1": {"content": "After the table.", "kind": "text"},
        },
    ]
    pages = parse_layout_document(json.dumps(doc))
    fixtures = parse_recognition_fixture(json.dumps(fixture), 2)
    result = run_pipeline(pages, fixtures)
    assert result.document == (
        "<table><tr><th>A</th></tr><tr><td>one.</td></tr><tr><td>two.</td></tr></table>\n"
        "\nAfter the table.\n"
    )
    assert len(result.merge_plans) == 1
    assert result.merge_plans[0]["pattern"] == "pattern1"


def test_pipeline_caption_between_tables_still_adjacent():
    elements = {
        "page_width": 400,
        "page_height": 400,
        "elements": [
            el((0, 0, 180, 100), 0, "table"),
            el((0, 110, 180, 130), 1, "table_caption"),
            el((200, 0, 380, 100), 2, "table"),
        ],
    }
    fixture = {
        "0": {"content": "<table><tr><th>H</th></tr><tr><td>a.</td></tr></table>", "kind": "table"},
        "1": {"content": "Table 1: split across columns", "kind": "text"},
        "2": {"content": "<table><tr><th>H</th></tr><tr><td>b.</td></tr></table>", "kind": "table"},
    }
    pages, fixtures = single_page_doc(elements, fixture)
    result = run_pipeline(pages, fixtures)
    assert result.merge_plans[0]["pattern"] == "pattern1"
    assert result.document.count("<table>") == 1


def test_pipeline_text_between_tables_blocks_merge():
    elements = {
        "page_width": 400,
        "page_height": 400,
        "elements": [
            el((0, 0, 180, 100), 0, "table"),
            el((0, 110, 180, 130), 1, "text"),
            el((200, 0, 380, 100), 2, "table"),
        ],
    }
    fixture = {
        "0": {"content": "<table><tr><th>H</th></tr><tr><td>a.</td></tr></table>", "kind": "table"},
        "1": {"content": "Unrelated paragraph.", "kind": "text"},
        "2": {"content": "<table><tr><th>H</th></tr><tr><td>b.</td></tr></table>", "kind": "table"},
    }
    pages, fixtures = single_page_doc(elements, fixture)
    result = run_pipeline(pages, fixtures)
    assert result.merge_plans == []
    assert result.document.count("<table>") == 2


def test_pipeline_restores_placeholders():
    from docpost.idtp import ImageDetection

    elements = {
        "page_width": 200,
        "page_height": 200,
        "elements": [el((10, 10, 110, 90), 0, "table")],
    }
    fixture = {
        "0": {
            "content": "<table><tr><td><img></td><td>label</td></tr></table>",
            "kind": "table",
        }
    }
    pages, fixtures = single_page_doc(elements, fixture)
    dets = {(0, 0): [ImageDetection((20, 20, 40, 40), 0.9)]}
    result = run_pipeline(pages, fixtures, detections=dets)
    assert 'src="page0_el0_img0.png"' in result.document
    assert result.placeholder_maps[0]["entries"][0]["image_ref"] == "page0_el0_img0.png"
    assert result.restore_reports[0]["rewrites"] == 1
    assert not result.restore_reports[0]["count_mismatch"]


def test_pipeline_parses_a_restored_table_once(monkeypatch):
    """The merge takes the grid the restore built. Markup that the input ends
    inside stays its cell's text, as in a table without detections; reading
    the restored HTML again would take the closing tags written after that
    text into the cell as well."""
    from docpost import layout
    from docpost.idtp import ImageDetection

    elements = {
        "page_width": 200,
        "page_height": 200,
        "elements": [el((10, 10, 110, 90), 0, "table")],
    }
    fixture = {"0": {"content": "<table><tr><td><img></td><td>x<!-- note", "kind": "table"}}
    pages, fixtures = single_page_doc(elements, fixture)
    dets = {(0, 0): [ImageDetection((20, 20, 40, 40), 0.9)]}
    monkeypatch.setattr(layout, "parse_grid", None)  # the restore parses in idtp
    result = run_pipeline(pages, fixtures, detections=dets)
    assert result.document == (
        '<table><tr><td><img src="page0_el0_img0.png"></td><td>x<!-- note</td></tr></table>\n'
    )


def test_pipeline_fixture_kind_mismatch_warns():
    elements = {
        "page_width": 100,
        "page_height": 100,
        "elements": [el((0, 0, 50, 50), 0, "formula")],
    }
    fixture = {"0": {"content": "E=mc^2", "kind": "text"}}
    pages, fixtures = single_page_doc(elements, fixture)
    result = run_pipeline(pages, fixtures)
    assert any("does not match" in w for w in result.warnings)


def test_pipeline_warnings_in_order():
    from docpost.idtp import ImageDetection

    elements = {
        "page_width": 200,
        "page_height": 200,
        "elements": [
            el((0, 0, 100, 20), 0, "text"),
            el((0, 30, 100, 50), 1, "sidebar"),
            el((0, 60, 100, 120), 2, "table"),
        ],
    }
    # element 1 has no entry; element 2 is no table
    fixture = {
        "0": {"content": "Intro."},
        "2": {"content": "<p>no table here</p>", "kind": "table"},
    }
    pages, fixtures = single_page_doc(elements, fixture)
    dets = [ImageDetection((10, 70, 30, 90), 0.9)]
    result = run_pipeline(pages, fixtures, detections={(0, 9): dets, (0, 2): dets, (0, 1): dets})
    assert result.warnings == [
        "page 0 element 1: unknown label 'sidebar' mapped to 'other'",
        "page 0 element 1: no recognition fixture entry",
        "page 0 element 1: detections for non-table element ignored",
        "page 0 element 2: restore skipped (no <table> element in input)",
        "page 0 element 9: detections for unknown element",
        "page 0 element 2: table not parseable (no <table> element in input)",
    ]
    assert result.document == "Intro.\n\n<p>no table here</p>\n"
    # the map is planned before the restore fails; no report follows
    assert [(m["page"], m["index"]) for m in result.placeholder_maps] == [(0, 2)]
    assert result.restore_reports == [] and result.merge_plans == []


def test_pipeline_layout_warnings_name_the_normalized_index():
    """Layout warnings name an element by the index it keeps after a 1-based
    run is shifted, in the pipeline's own ``page P element I: …`` form; the
    page's own warning reads ``page P: …``."""
    elements = {
        "page_width": 100,
        "page_height": 100,
        "elements": [el((0, 50, 100, 150), 2), el((0, 0, 100, 20), 1, "sidebar")],
    }
    pages, fixtures = single_page_doc(elements, {"0": {"content": "A."}, "1": {"content": "B."}})
    assert run_pipeline(pages, fixtures).warnings == [
        "page 0 element 1: bbox clamped to page bounds",
        "page 0 element 0: unknown label 'sidebar' mapped to 'other'",
        "page 0: 1-based indices normalized to 0-based",
    ]


def test_pipeline_no_merge_inside_a_chain_starts_a_group():
    a = "<table><tr><td>a1.</td><td>a2.</td></tr></table>"
    b = "<table><tr><td>b1.</td><td>b2.</td><td>b3.</td></tr></table>"
    c = "<table><tr><td>c1.</td><td>c2.</td><td>c3.</td></tr></table>"
    doc = {
        "pages": [
            {"page_width": 200, "page_height": 200, "elements": [el((0, 0, 100, 50), 0, "table")]}
            for _ in range(3)
        ]
    }
    fixture = [{"0": {"content": t, "kind": "table"}} for t in (a, b, c)]
    pages = parse_layout_document(json.dumps(doc))
    result = run_pipeline(pages, parse_recognition_fixture(json.dumps(fixture), 3))
    # B is wider than A and has no header to align on; C continues B
    assert [(p["from"], p["next"], p["pattern"]) for p in result.merge_plans] == [
        ([0, 0], [1, 0], "no_merge"),
        ([1, 0], [2, 0], "pattern2"),
    ]
    assert result.document == (
        a + "\n\n<table><tr><td>b1.</td><td>b2.</td><td>b3.</td></tr>"
        "<tr><td>c1.</td><td>c2.</td><td>c3.</td></tr></table>\n"
    )
    assert result.warnings == []


def test_pipeline_deterministic():
    elements = {
        "page_width": 100,
        "page_height": 100,
        "elements": [el((0, 0, 50, 50), 0, "text"), el((0, 60, 50, 90), 1, "text")],
    }
    fixture = {
        "0": {"content": "one", "kind": "text"},
        "1": {"content": "two", "kind": "text"},
    }
    pages, fixtures = single_page_doc(elements, fixture)
    first = run_pipeline(pages, fixtures)
    second = run_pipeline(pages, fixtures)
    assert first.document == second.document
    assert first.reports_dict() == second.reports_dict()


def test_parse_layout_document_bare_array():
    pages = parse_layout_document(layout_json(el((0, 0, 10, 10), 0)))
    assert len(pages) == 1
    assert pages[0].page_width == 10


def test_page_size_floats_truncate():
    [page] = parse_layout_document('{"page_width": 595.28, "page_height": 841.89, "elements": []}')
    assert (page.page_width, page.page_height) == (595, 841)


@pytest.mark.parametrize("key", [" 2", "2 ", "1_0", "+1", "-1", "", "x", "\uff11"])
def test_fixture_key_must_be_ascii_digits(key):
    # int() takes all of these but "", "x"; " 2" would read as element 2
    with pytest.raises(LayoutSchemaError) as exc:
        parse_recognition_fixture(json.dumps({"0": {}, key: {"content": "x"}}), 1)
    assert str(exc.value) == f"page 0 fixture key {key!r} is not an element index"


def test_fixture_two_keys_for_one_element():
    fixture = [{"0": {}}, {"1": {"content": "a"}, "01": {"content": "b"}}]
    with pytest.raises(LayoutSchemaError) as exc:
        parse_recognition_fixture(json.dumps(fixture), 2)
    assert str(exc.value) == "page 1 fixture keys '1' and '01' both name element 1"
    # leading zeros alone are an index
    assert parse_recognition_fixture('{"007": {"content": "b"}}', 1) == [{7: {"content": "b"}}]


def test_fixture_page_count_mismatch():
    with pytest.raises(LayoutSchemaError):
        parse_recognition_fixture(json.dumps([{}, {}]), 1)
