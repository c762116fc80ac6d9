import ast
import inspect
import json
import math
import shlex
import shutil
import sys
from pathlib import Path

import pytest

from conftest import REWARD_KEYS, WIDE_ROW_TABLE, keyset_scorer_cmd, scorer_server
from docpost.cli import main
from docpost.config import (
    Config,
    ConfigError,
    apply_env_overrides,
    dumps_config,
    load_config,
    parse_config_text,
    save_config,
)
from docpost import config, errors, idtp, json_reader, layout, rewards, table_grid, table_merge
from docpost.idtp import read_ppm, write_ppm, PixelBuffer
from docpost.table_grid import parse_grid


# -- config -------------------------------------------------------------------


def test_config_defaults_valid():
    cfg = Config()
    assert cfg.near_threshold == 0.8
    assert cfg.continuation_threshold == 0.5
    assert cfg.min_confidence == 0.3


SETTINGS_FUNCTIONS = (
    table_merge.match_headers,
    table_merge.classify_continuation,
    table_merge.decide_merge,
    table_merge.merge_fragment_sequence_with_plans,
    idtp.plan_masks,
    rewards.rule_checks,
    layout.run_pipeline,
    layout.pipeline_run,
)


def test_library_defaults_are_config_defaults():
    for func in SETTINGS_FUNCTIONS:
        assert inspect.signature(func).parameters["cfg"].default is None, func.__name__
    cfg = Config()
    for func, name in (
        (rewards.composite_reward, "w_rule"),
        (rewards.group_advantages, "eps"),
    ):
        assert inspect.signature(func).parameters[name].default == getattr(cfg, name)
    # inputs on the default thresholds, so cfg=None answers as Config() does
    # and a nudged setting answers otherwise
    # 4 of 5 header cells match: similarity 0.8
    a = parse_grid("<table><tr><th>A</th><th>B</th><th>C</th><th>D</th><th>E</th></tr>"
                   "<tr><td>1</td><td>2</td><td>3</td><td>4</td><td>5</td></tr></table>")
    b = parse_grid("<table><tr><th>A</th><th>B</th><th>C</th><th>D</th><th>X</th></tr>"
                   "<tr><td>6</td><td>7</td><td>8</td><td>9</td><td>0</td></tr></table>")
    for merge_cfg, kind in ((None, "near"), (cfg, "near"), (Config(near_threshold=0.81), "none")):
        assert table_merge.match_headers(a, b, merge_cfg).kind.value == kind
    half = lambda payload: 0.5  # noqa: E731
    for merge_cfg, split in ((None, True), (cfg, True), (Config(continuation_threshold=0.51), False)):
        assert table_merge.classify_continuation(a, b, half, merge_cfg).is_row_split is split
    dets = [idtp.ImageDetection((1, 1, 5, 5), 0.3), idtp.ImageDetection((1, 3, 5, 5), 0.9)]
    plan, _ = idtp.plan_masks((0, 0, 10, 10), dets)  # IoU 0.5, confidence 0.3: both kept
    assert [m.fill for m in plan.masks] == [cfg.mask_fill] * 2
    assert plan == idtp.plan_masks((0, 0, 10, 10), dets, cfg)[0]
    assert len(idtp.plan_masks((0, 0, 10, 10), dets, Config(min_confidence=0.31))[0].masks) == 1
    assert rewards.rule_checks("<table><tr><td></td></tr></table>").score == 0.75
    assert rewards.rule_checks("<table><tr><td></td></tr></table>", 0, cfg).score == 0.75


def _imports(module) -> list[ast.stmt]:
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    return [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_config_imports_only_external_from_docpost():
    # config depends on no library module: _external is the scorer transport
    # and errors, which imports nothing, holds the exception bases
    docpost_modules = set()
    for node in _imports(config):
        if isinstance(node, ast.ImportFrom) and node.level:
            docpost_modules.add(node.module)
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("docpost"):
            docpost_modules.add(node.module)
        elif isinstance(node, ast.Import):
            docpost_modules.update(a.name for a in node.names if a.name.startswith("docpost"))
    assert docpost_modules == {"_external", "errors"}
    assert _imports(errors) == []


@pytest.mark.parametrize(
    "extra, config_text, expected",
    [
        ([], "", "Body.\n"),
        (["--include-headers-footers"], "", "Running head\n\nBody.\n"),
        ([], "include_headers_footers = true\n", "Running head\n\nBody.\n"),
        (["--include-headers-footers"], "include_headers_footers = false\n", "Running head\n\nBody.\n"),
    ],
)
def test_cli_assemble_include_headers_footers(tmp_path, capsys, extra, config_text, expected):
    layout_doc = [
        {"bbox": [0, 0, 50, 10], "index": 0, "label": "header", "rotation": 0},
        {"bbox": [0, 20, 50, 40], "index": 1, "label": "text", "rotation": 0},
    ]
    fixture = {"0": {"content": "Running head"}, "1": {"content": "Body."}}
    (tmp_path / "layout.json").write_text(json.dumps(layout_doc))
    (tmp_path / "rec.json").write_text(json.dumps(fixture))
    (tmp_path / "docpost.toml").write_text(config_text)
    out = tmp_path / "doc.md"
    argv = ["assemble", str(tmp_path / "layout.json"), str(tmp_path / "rec.json"), "-o", str(out)]
    assert main([*argv, "--config", str(tmp_path / "docpost.toml"), *extra]) == 0
    assert out.read_text() == expected


@pytest.mark.parametrize(
    "setting",
    [{"near_threshold": -3}, {"min_confidence": float("nan")}, {"mask_fill": (300, 0, 0)}],
    ids=["near_threshold", "min_confidence", "mask_fill"],
)
def test_library_settings_are_checked(setting):
    with pytest.raises(ConfigError):
        Config(**setting)


def test_config_defaults_match_readme():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("Defaults:\n\n```\n", 1)[1].split("```", 1)[0]
    assert dumps_config(Config()) == block


def test_config_round_trip(tmp_path):
    cfg = Config(
        near_threshold=0.9,
        rule_weights=(0.4, 0.2, 0.2, 0.2),
        include_headers_footers=True,
        continuation_scorer_cmd="python3 scorer.py",
    )
    path = tmp_path / "docpost.toml"
    save_config(cfg, str(path))
    assert load_config(str(path)) == cfg


def test_config_parse_text():
    cfg = parse_config_text(
        "# comment\nnear_threshold = 0.7\ninclude_headers_footers = true\n"
        "mask_fill = [1, 2, 3]\n"
    )
    assert cfg.near_threshold == 0.7
    assert cfg.include_headers_footers is True
    assert cfg.mask_fill == (1, 2, 3)


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        parse_config_text("near_threshold = 1.5")
    with pytest.raises(ConfigError):
        parse_config_text("rule_weights = [0.5, 0.5, 0.5, 0.5]")
    with pytest.raises(ConfigError):
        parse_config_text("unknown_key = 1")
    with pytest.raises(ConfigError):
        parse_config_text("near_threshold")


def test_config_env_overrides():
    cfg = apply_env_overrides(
        Config(),
        environ={
            "DOCPOST_NEAR_THRESHOLD": "0.95",
            "DOCPOST_CONTINUATION_SCORER_CMD": "python3 my_scorer.py --flag",
            "DOCPOST_INCLUDE_HEADERS_FOOTERS": "true",
        },
    )
    assert cfg.near_threshold == 0.95
    assert cfg.continuation_scorer_cmd == "python3 my_scorer.py --flag"
    assert cfg.include_headers_footers is True


def test_env_overrides_without_docpost_keys_return_cfg_itself():
    cfg = Config(near_threshold=0.9)
    assert apply_env_overrides(cfg, {}) is cfg
    assert apply_env_overrides(cfg, {"DOCPOST": "1", "NEAR_THRESHOLD": "0.5"}) is cfg


def test_config_scorers_share_one_transport():
    assert Config().continuation_scorer() is None and Config().reward_scorer() is None
    # the command wins over the URL; nothing listens on the URL
    cfg = Config(
        reward_scorer_cmd=keyset_scorer_cmd(REWARD_KEYS, 0.25),
        reward_scorer_url="http://127.0.0.1:9/score",
    )
    payload = {"original_descriptor": "", "candidate_html": "", "rendered_canonical": ""}
    assert cfg.reward_scorer()(payload) == 0.25


def test_config_dump_deterministic():
    assert dumps_config(Config()) == dumps_config(Config())


# -- CLI ----------------------------------------------------------------------------


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    return code


FRAG_A = "<table><tr><th>C1</th><th>C2</th></tr><tr><td>a.</td><td>b.</td></tr></table>"
FRAG_B = "<table><tr><th>C1</th><th>C2</th></tr><tr><td>c.</td><td>d.</td></tr></table>"


def test_cli_merge(tmp_path, capsys):
    fa = tmp_path / "a.html"
    fb = tmp_path / "b.html"
    fa.write_text(FRAG_A)
    fb.write_text(FRAG_B)
    prefix = str(tmp_path / "merged")
    assert main(["merge", str(fa), str(fb), "--out-prefix", prefix]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["plans"][0]["pattern"] == "pattern1"
    assert len(out["outputs"]) == 1
    merged = parse_grid((tmp_path / "merged_0.html").read_text())
    assert merged.n_rows == 3


def test_cli_eval(tmp_path, capsys):
    batch = [
        {"pred": FRAG_A, "gt": FRAG_A, "kind": "table"},
        {"pred": "abc", "gt": "abd", "kind": "text"},
    ]
    batch_path = tmp_path / "batch.json"
    batch_path.write_text(json.dumps(batch))
    json_out = tmp_path / "rows.json"
    assert main(["eval", str(batch_path), "--json-out", str(json_out)]) == 0
    text = capsys.readouterr().out
    assert "teds" in text and "1.000000" in text
    rows = json.loads(json_out.read_text())
    assert rows[0]["metrics"]["teds"] == 1.0
    assert rows[1]["metrics"]["edit_distance"] == 1.0


def test_cli_eval_jobs_preserves_order(tmp_path, capsys):
    batch = [{"pred": f"t{i}", "gt": f"t{i}", "kind": "text"} for i in range(8)]
    batch_path = tmp_path / "batch.json"
    batch_path.write_text(json.dumps(batch))
    json_out = tmp_path / "rows.json"
    assert main(["eval", str(batch_path), "--jobs", "4", "--json-out", str(json_out)]) == 0
    rows = json.loads(json_out.read_text())
    assert [r["index"] for r in rows] == list(range(8))


NOT_AN_ARRAY = object()


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize(
    "entry, message",
    [
        ({"pred": "abc", "gt": "abd"}, "entry 1 lacks kind"),
        ({"kind": "text"}, "entry 1 lacks pred, gt"),
        ("abc", "entry 1 is not an object"),
        (
            {"pred": 5, "gt": "a", "kind": "text"},
            "entry 1 pred must be a string or an array for kind text",
        ),
        (
            {"pred": [1], "gt": 5, "kind": "order"},
            "entry 1 gt must be a string or an array for kind order",
        ),
        (
            {"pred": ["<table>"], "gt": "<table>", "kind": "table"},
            "entry 1 pred must be a string for kind table",
        ),
        ({"pred": "a", "gt": "a", "kind": "audio"}, "entry 1 has unknown kind 'audio'"),
        (NOT_AN_ARRAY, "batch must be a JSON array"),
    ],
)
def test_cli_eval_malformed_entry_exit2(tmp_path, capsys, jobs, entry, message):
    batch = [{"pred": "abc", "gt": "abc", "kind": "text"}, entry]
    if entry is NOT_AN_ARRAY:
        batch = batch[0]  # valid JSON, but an object
    batch_path = tmp_path / "batch.json"
    batch_path.write_text(json.dumps(batch))
    assert main(["eval", str(batch_path), "--jobs", jobs]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err == {"error": "BatchFormatError", "message": message}


@pytest.mark.parametrize(
    "content", [None, b"<table><tr><td>\xff</td></tr></table>"], ids=["missing", "not_utf8"]
)
@pytest.mark.parametrize(
    "argv",
    [["eval", "{bad}"], ["merge", "{bad}"], ["restore", "{bad}", "{map}", "-o", "{out}"]],
    ids=["eval", "merge", "restore"],
)
def test_cli_unreadable_input_exit2(tmp_path, capsys, argv, content):
    # a missing file, or a file that is not UTF-8
    bad = tmp_path / "input"
    if content is not None:
        bad.write_bytes(content)
    map_path = tmp_path / "map.json"
    map_path.write_text('{"entries": []}')
    paths = {"bad": bad, "map": map_path, "out": tmp_path / "out.html"}
    assert main([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "io"


def test_cli_mask_and_restore(tmp_path, capsys):
    # 20x10 white page, table covers (2,2)-(18,9), one embedded image
    page = PixelBuffer(20, 10, b"\xff" * 600)
    img_path = tmp_path / "page.ppm"
    img_path.write_bytes(write_ppm(page))
    detections = [{"bbox": [4, 3, 8, 6], "confidence": 0.9}]
    det_path = tmp_path / "det.json"
    det_path.write_text(json.dumps(detections))
    prefix = str(tmp_path / "t0")
    assert (
        main(
            [
                "mask",
                str(img_path),
                str(det_path),
                "--table-bbox",
                "2,2,18,9",
                "--out-prefix",
                prefix,
            ]
        )
        == 0
    )
    capsys.readouterr()
    masked = read_ppm((tmp_path / "t0.masked.ppm").read_bytes())
    assert (masked.width, masked.height) == (16, 7)
    fill = bytes(Config().mask_fill)
    # mask rect is the detection translated into table-local coords: (2,1)-(6,4)
    idx = (1 * 16 + 2) * 3
    assert masked.data[idx : idx + 3] == fill
    pmap = json.loads((tmp_path / "t0.map.json").read_text())
    assert pmap["entries"][0]["bbox"] == [4, 3, 8, 6]

    html_path = tmp_path / "rec.html"
    html_path.write_text("<table><tr><td><img></td><td>v</td></tr></table>")
    out_path = tmp_path / "restored.html"
    assert (
        main(
            ["restore", str(html_path), str(tmp_path / "t0.map.json"), "-o", str(out_path)]
        )
        == 0
    )
    report = json.loads(capsys.readouterr().out)
    assert report["rewrites"] == 1 and not report["count_mismatch"]
    assert report["verification"] == {
        "residual_tags": [],
        "unused_entries": [],
        "duplicate_srcs": [],
    }
    assert "t0_img0.ppm" in out_path.read_text()


def test_cli_restore_count_mismatch_exit_code(tmp_path, capsys):
    html_path = tmp_path / "rec.html"
    html_path.write_text("<table><tr><td><img><img></td></tr></table>")
    map_path = tmp_path / "map.json"
    map_path.write_text(
        json.dumps({"entries": [{"id": 0, "bbox": [0, 0, 1, 1], "image_ref": "x.png"}]})
    )
    out_path = tmp_path / "out.html"
    assert main(["restore", str(html_path), str(map_path), "-o", str(out_path)]) == 1


def test_cli_reward(tmp_path, capsys):
    gt_path = tmp_path / "gt.html"
    gt_path.write_text(FRAG_A)
    candidates = [FRAG_A, "broken junk"]
    cand_path = tmp_path / "cands.json"
    cand_path.write_text(json.dumps(candidates))
    assert main(["reward", str(cand_path), str(gt_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    rows = out["candidates"]
    assert rows[0]["rule"]["well_formed"] and rows[0]["reward"] == 1.0
    assert not rows[1]["rule"]["well_formed"]
    assert rows[0]["advantage"] > 0 > rows[1]["advantage"]


def test_cli_reward_counts_ground_truth_placeholders_like_candidates(tmp_path, capsys):
    # <imgx> is no <img> tag: an exact copy of the ground truth keeps its count
    gt = '<table><tr><td><IMG src="a.png"></td><td><imgx>b</td></tr></table>'
    gt_path = tmp_path / "gt.html"
    gt_path.write_text(gt)
    cand_path = tmp_path / "cands.json"
    cand_path.write_text(json.dumps([gt]))
    assert main(["reward", str(cand_path), str(gt_path)]) == 0
    [row] = json.loads(capsys.readouterr().out)["candidates"]
    assert row["rule"]["placeholder_ok"] and row["reward"] == 1.0


def test_cli_reward_counts_no_tag_in_an_unterminated_ground_truth_img(tmp_path, capsys):
    # no ">" follows the ground truth's "<img": it holds no tag, so a clean
    # candidate with no tag passes the placeholder check
    gt_path = tmp_path / "gt.html"
    gt_path.write_text("<table><tr><td>a <img")
    cand_path = tmp_path / "cands.json"
    cand_path.write_text(json.dumps(["<table><tr><td>a</td></tr></table>"]))
    assert main(["reward", str(cand_path), str(gt_path)]) == 0
    [row] = json.loads(capsys.readouterr().out)["candidates"]
    assert row["rule"]["placeholder_ok"] and row["reward"] == 1.0


def _reward_files(tmp_path, candidates):
    gt_path = tmp_path / "gt.html"
    gt_path.write_text(FRAG_A)
    cand_path = tmp_path / "cands.json"
    cand_path.write_text(json.dumps(candidates))
    return str(cand_path), str(gt_path)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("w_rule", '"abc"', "w_rule must be a number, got 'abc'"),
        ("w_rule", "true", "w_rule must be a number, got True"),
        ("eps", '"x"', "eps must be a number, got 'x'"),
        ("eps", "-0.125", "eps must be finite and >= 0, got -0.125"),
        ("eps", "-1", "eps must be finite and >= 0, got -1"),
        ("eps", "nan", "eps must be finite and >= 0, got nan"),
        (
            "rule_weights",
            "[nan, 0.5, 0.25, 0.25]",
            "rule_weights must be finite, got (nan, 0.5, 0.25, 0.25)",
        ),
        (
            "rule_weights",
            "[0.5, 0.5, 0.0]",
            "rule_weights must be four numbers, got (0.5, 0.5, 0.0)",
        ),
        ("rule_weights", "0.5", "rule_weights must be four numbers, got 0.5"),
        ("mask_fill", '"abc"', "mask_fill must be three bytes, got 'abc'"),
        ("include_headers_footers", "3", "include_headers_footers must be true or false, got 3"),
    ],
)
@pytest.mark.parametrize("source", ["file", "env"])
def test_cli_reward_bad_config_value_exit1(
    tmp_path, capsys, monkeypatch, key, value, message, source
):
    argv = ["reward", *_reward_files(tmp_path, [FRAG_A])]
    if source == "file":
        cfg_path = tmp_path / "docpost.toml"
        cfg_path.write_text(f"{key} = {value}\n")
        argv += ["--config", str(cfg_path)]
    else:
        monkeypatch.setenv("DOCPOST_" + key.upper(), value)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert json.loads(captured.err) == {"error": "ConfigError", "message": message}

def test_cli_reward_external_scorer_subprocess(tmp_path, capsys, monkeypatch):
    # the scorer answers only a payload with exactly the protocol's keys
    monkeypatch.setenv("DOCPOST_REWARD_SCORER_CMD", keyset_scorer_cmd(REWARD_KEYS, 0.25))
    assert main(["reward", *_reward_files(tmp_path, [FRAG_A])]) == 0
    row = json.loads(capsys.readouterr().out)["candidates"][0]
    assert row["model_score"] == 0.25 and row["reward"] == 0.625


def test_cli_reward_external_scorer_http(tmp_path, capsys, monkeypatch):
    with scorer_server(b"0.5\n") as (url, received):
        monkeypatch.setenv("DOCPOST_REWARD_SCORER_URL", url)
        assert main(["reward", *_reward_files(tmp_path, [{"html": FRAG_A}])]) == 0
    assert json.loads(capsys.readouterr().out)["candidates"][0]["model_score"] == 0.5
    [(content_type, payload)] = received
    assert content_type == "application/json"
    assert set(payload) == REWARD_KEYS
    assert payload["original_descriptor"] == payload["candidate_html"] == FRAG_A


def test_cli_reward_scorer_failure_exit2(tmp_path, capsys, monkeypatch):
    cmd = shlex.join([sys.executable, "-c", "import sys; sys.exit(3)"])
    monkeypatch.setenv("DOCPOST_REWARD_SCORER_CMD", cmd)
    assert main(["reward", *_reward_files(tmp_path, [FRAG_A])]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "ScorerFailure" and "exited 3" in err["message"]


@pytest.mark.parametrize(
    "candidates, message",
    [
        ([{"text": FRAG_A}], 'candidate 0 is neither an HTML string nor an object with an "html" string'),
        ([FRAG_A, 5], 'candidate 1 is neither an HTML string nor an object with an "html" string'),
        ({"html": FRAG_A}, "candidates file must be a JSON array"),
    ],
)
def test_cli_reward_malformed_candidates_exit2(tmp_path, capsys, candidates, message):
    assert main(["reward", *_reward_files(tmp_path, candidates)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "FormatError", "message": message}


DETECTION_SHAPE = '{"bbox": [x1, y1, x2, y2], "confidence": f}'


@pytest.mark.parametrize(
    "detections, message",
    [
        ([{"confidence": 0.9}], f"detection 0 is not a {DETECTION_SHAPE} object"),
        ([{"bbox": [4, 3, 8, 6]}], f"detection 0 is not a {DETECTION_SHAPE} object"),
        (
            [{"bbox": [4, 3, 8, 6], "confidence": 0.9}, {"bbox": [4, 3, 8], "confidence": 0.9}],
            f"detection 1 is not a {DETECTION_SHAPE} object",
        ),
        ([[4, 3, 8, 6]], f"detection 0 is not a {DETECTION_SHAPE} object"),
        ({"bbox": [4, 3, 8, 6], "confidence": 0.9}, "detections file must be a JSON array"),
        # non-finite numbers, as tokens or as a literal that overflows
        ([{"bbox": [4, 3, float("nan"), 6], "confidence": 0.9}], "number NaN is not finite"),
        ([{"bbox": [4, 3, 8, 6], "confidence": float("inf")}], "number Infinity is not finite"),
        ('[{"bbox": [4, 3, 8, 6], "confidence": -1e999}]', "number -1e999 is not finite"),
        # JSON booleans are not numbers
        (
            [{"bbox": [False, False, True, True], "confidence": True}],
            f"detection 0 is not a {DETECTION_SHAPE} object",
        ),
        (
            [{"bbox": [4, 3, 8, 6], "confidence": False}],
            f"detection 0 is not a {DETECTION_SHAPE} object",
        ),
    ],
)
def test_cli_mask_malformed_detections_exit2(tmp_path, capsys, detections, message):
    img_path = tmp_path / "page.ppm"
    img_path.write_bytes(write_ppm(PixelBuffer(20, 10, b"\xff" * 600)))
    det_path = tmp_path / "det.json"
    det_path.write_text(detections if isinstance(detections, str) else json.dumps(detections))
    argv = ["mask", str(img_path), str(det_path), "--table-bbox", "2,2,18,9"]
    assert main([*argv, "--out-prefix", str(tmp_path / "t0")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "FormatError", "message": message}


NOT_A_MAP = 'placeholder map must be an object with an "entries" array'


def _bad_map_entry(pos):
    shape = '{"id": k, "bbox": [x1, y1, x2, y2], "image_ref": s}'
    return f"placeholder entry {pos} is not a {shape} object with integer id and bbox"


@pytest.mark.parametrize(
    "pmap, message",
    [
        ({"entries": [{"id": 0, "image_ref": "x.png"}]}, _bad_map_entry(0)),
        (
            {"entries": [{"id": 0, "bbox": [0, 0, 1, 1]}, {"id": "1", "bbox": [0, 0, 1, 1]}]},
            _bad_map_entry(1),
        ),
        ({"entries": [{"id": 0, "bbox": [0, 0, 1, 1], "image_ref": 5}]}, _bad_map_entry(0)),
        ({"entries": [[0, 0, 1, 1]]}, _bad_map_entry(0)),
        ([{"id": 0, "bbox": [0, 0, 1, 1]}], NOT_A_MAP),
        ({"entries": "abc"}, NOT_A_MAP),
        ({}, NOT_A_MAP),
        ({"entries": [{"id": 0, "bbox": [0, 0, float("nan"), 1]}]}, "number NaN is not finite"),
    ],
)
def test_cli_restore_malformed_map_exit2(tmp_path, capsys, pmap, message):
    html_path = tmp_path / "rec.html"
    html_path.write_text("<table><tr><td><img></td></tr></table>")
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps(pmap))
    out_path = tmp_path / "out.html"
    assert main(["restore", str(html_path), str(map_path), "-o", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out_path.exists()
    assert json.loads(captured.err) == {"error": "FormatError", "message": message}

def test_cli_assemble_malformed_detections_exit2(tmp_path, capsys):
    det_dir = tmp_path / "dets"
    det_dir.mkdir()
    (det_dir / "page0_el0.json").write_text(json.dumps([{"bbox": [0, 0, 5, 5]}]))
    layout_path = tmp_path / "layout.json"
    layout_path.write_text(
        json.dumps([{"bbox": [0, 0, 50, 10], "index": 0, "label": "table", "rotation": 0}])
    )
    fixture_path = tmp_path / "rec.json"
    fixture_path.write_text(json.dumps({"0": {"content": FRAG_A, "kind": "table"}}))
    argv = ["assemble", str(layout_path), str(fixture_path), "-o", str(tmp_path / "doc.md")]
    assert main([*argv, "--detections-dir", str(det_dir)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {
        "error": "FormatError",
        "message": f"detection 0 is not a {DETECTION_SHAPE} object",
    }


def test_cli_assemble_too_many_detections_exit1(tmp_path, capsys):
    det_dir = tmp_path / "dets"
    det_dir.mkdir()
    dets = [{"bbox": [k % 50, 0, k % 50 + 1, 10], "confidence": 0.9} for k in range(1025)]
    (det_dir / "page0_el0.json").write_text(json.dumps(dets))
    layout_path = tmp_path / "layout.json"
    layout_path.write_text(
        json.dumps([{"bbox": [0, 0, 50, 10], "index": 0, "label": "table", "rotation": 0}])
    )
    fixture_path = tmp_path / "rec.json"
    fixture_path.write_text(json.dumps({"0": {"content": FRAG_A, "kind": "table"}}))
    out_path = tmp_path / "doc.md"
    argv = ["assemble", str(layout_path), str(fixture_path), "-o", str(out_path)]
    assert main([*argv, "--detections-dir", str(det_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out_path.exists()
    assert json.loads(captured.err) == {
        "error": "ImageInputError",
        "message": "1025 detections in table (0, 0, 50, 10), more than 1024",
    }


DOC_IMAGES = Path(__file__).parent / "fixtures" / "doc_images"


@pytest.mark.parametrize(
    "stray, message",
    [
        # a name that only starts like a detections file
        ("page0_el1_old.json", "cannot parse page/element from page0_el1_old.json"),
        ("page0_el1x.json", "cannot parse page/element from page0_el1x.json"),
        # a second name for the page and element of page0_el1.json
        ("page00_el1.json", "page00_el1.json and page0_el1.json both name page 0 element 1"),
        ("page0_el01.json", "page0_el01.json and page0_el1.json both name page 0 element 1"),
    ],
)
def test_cli_assemble_detections_dir_stray_file_exit2(tmp_path, capsys, stray, message):
    det_dir = tmp_path / "dets"
    shutil.copytree(DOC_IMAGES / "detections", det_dir)
    (det_dir / stray).write_text("[]")
    out = tmp_path / "doc.md"
    argv = ["assemble", str(DOC_IMAGES / "layout.json"), str(DOC_IMAGES / "recognition.json")]
    assert main([*argv, "-o", str(out), "--detections-dir", str(det_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert json.loads(captured.err) == {"error": "detections", "message": message}


HUGE_INT = "1" + "0" * 400  # valid JSON, too large for a float


@pytest.mark.parametrize("field", ["bbox", "confidence"])
@pytest.mark.parametrize("command", ["mask", "assemble"])
def test_cli_detection_too_large_for_a_float_exit2(tmp_path, capsys, command, field):
    bbox = f"[4, 3, {HUGE_INT}, 6]" if field == "bbox" else "[4, 3, 8, 6]"
    confidence = HUGE_INT if field == "confidence" else "0.9"
    text = f'[{{"bbox": {bbox}, "confidence": {confidence}}}]'
    if command == "mask":
        img_path = tmp_path / "page.ppm"
        img_path.write_bytes(write_ppm(PixelBuffer(20, 10, b"\xff" * 600)))
        det_path = tmp_path / "det.json"
        det_path.write_text(text)
        argv = ["mask", str(img_path), str(det_path), "--table-bbox", "2,2,18,9",
                "--out-prefix", str(tmp_path / "t0")]
    else:
        det_dir = tmp_path / "dets"
        det_dir.mkdir()
        (det_dir / "page0_el0.json").write_text(text)
        layout_path = tmp_path / "layout.json"
        layout_path.write_text(
            json.dumps([{"bbox": [0, 0, 50, 10], "index": 0, "label": "table", "rotation": 0}])
        )
        fixture_path = tmp_path / "rec.json"
        fixture_path.write_text(json.dumps({"0": {"content": FRAG_A, "kind": "table"}}))
        argv = ["assemble", str(layout_path), str(fixture_path), "-o", str(tmp_path / "doc.md"),
                "--detections-dir", str(det_dir)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "FormatError",
        "message": f"detection 0 is not a {DETECTION_SHAPE} object",
    }


def _assert_format_error(capsys, message):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "FormatError", "message": message}


def test_cli_mask_bad_table_bbox_exit2(tmp_path, capsys):
    img_path = tmp_path / "page.ppm"
    img_path.write_bytes(write_ppm(PixelBuffer(20, 10, b"\xff" * 600)))
    det_path = tmp_path / "det.json"
    det_path.write_text("[]")
    argv = ["mask", str(img_path), str(det_path), "--table-bbox", "0,0,a,4"]
    assert main([*argv, "--out-prefix", str(tmp_path / "t0")]) == 2
    _assert_format_error(capsys, "bbox must be four integers x1,y1,x2,y2, got '0,0,a,4'")



@pytest.mark.parametrize(
    "bbox",
    [
        "2,2,25,9",  # one edge past the page
        "-5,-5,99,99",  # every edge past the page
        "18,2,2,9",  # inverted
        "2,5,18,5",  # empty
    ],
)
def test_cli_mask_table_bbox_off_the_page_exit1(tmp_path, capsys, bbox):
    img_path = tmp_path / "page.ppm"
    img_path.write_bytes(write_ppm(PixelBuffer(20, 10, b"\xff" * 600)))
    det_path = tmp_path / "det.json"
    det_path.write_text(json.dumps([{"bbox": [4, 3, 8, 6], "confidence": 0.9}]))
    argv = ["mask", str(img_path), str(det_path), f"--table-bbox={bbox}"]
    assert main([*argv, "--out-prefix", str(tmp_path / "t0")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    rect = tuple(int(v) for v in bbox.split(","))
    assert json.loads(captured.err) == {
        "error": "ImageInputError",
        "message": f"table bbox {rect} is empty or reaches past the 20x10 page",
    }
    assert list(tmp_path.glob("t0*")) == []


def test_cli_mask_table_bbox_on_the_page_edges(tmp_path, capsys):
    img_path = tmp_path / "page.ppm"
    img_path.write_bytes(write_ppm(PixelBuffer(20, 10, b"\xff" * 600)))
    det_path = tmp_path / "det.json"
    det_path.write_text("[]")
    argv = ["mask", str(img_path), str(det_path), "--table-bbox", "0,0,20,10"]
    assert main([*argv, "--out-prefix", str(tmp_path / "t0")]) == 0
    capsys.readouterr()
    masked = read_ppm((tmp_path / "t0.masked.ppm").read_bytes())
    assert (masked.width, masked.height) == (20, 10)

def test_cli_mask_non_ppm_without_pillow_exit2(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(sys.modules, "PIL", None)
    img_path = tmp_path / "page.png"
    img_path.write_bytes(b"\x89PNG\r\n\x1a\n")
    det_path = tmp_path / "det.json"
    det_path.write_text("[]")
    argv = ["mask", str(img_path), str(det_path), "--table-bbox", "2,2,18,9"]
    assert main([*argv, "--out-prefix", str(tmp_path / "t0")]) == 2
    _assert_format_error(
        capsys,
        f"{img_path} is not a PPM and Pillow is not installed (pip install docpost[images])",
    )


def test_cli_reward_negative_expected_placeholders_exit2(tmp_path, capsys):
    argv = ["reward", *_reward_files(tmp_path, [FRAG_A]), "--expected-placeholders", "-3"]
    assert main(argv) == 2
    _assert_format_error(capsys, "--expected-placeholders must be >= 0, got -3")


def test_cli_pairs_unknown_kind_exit2(tmp_path, capsys):
    gt_path = tmp_path / "gt.html"
    gt_path.write_text(FRAG_A)
    argv = ["pairs", str(gt_path), "--kinds", "swap_cells,nonsense"]
    assert main([*argv, "--out", str(tmp_path / "pairs.jsonl")]) == 2
    _assert_format_error(capsys, "'nonsense' is not a valid PerturbationKind")


def test_cli_pairs_no_ground_truth_exit2(tmp_path, capsys):
    empty = tmp_path / "gt"
    empty.mkdir()
    assert main(["pairs", str(empty), "--out", str(tmp_path / "pairs.jsonl")]) == 2
    _assert_format_error(capsys, "no ground-truth tables found")


def _mask_argv(tmp_path, image: bytes, detections) -> list[str]:
    img_path = tmp_path / "page.ppm"
    img_path.write_bytes(image)
    det_path = tmp_path / "det.json"
    det_path.write_text(json.dumps(detections))
    return ["mask", str(img_path), str(det_path), "--table-bbox", "2,2,18,9",
            "--out-prefix", str(tmp_path / "t0")]


def _restore_argv(tmp_path, pmap) -> list[str]:
    html_path = tmp_path / "rec.html"
    html_path.write_text("<table><tr><td><img></td></tr></table>")
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps(pmap))
    return ["restore", str(html_path), str(map_path), "-o", str(tmp_path / "out.html")]


PAGE = write_ppm(PixelBuffer(20, 10, b"\xff" * 600))


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            lambda tmp: _mask_argv(tmp, b"P6 # comment without a newline", []),
            "not a P6 PPM header with width, height and maxval of 1-10 digits",
        ),
        (
            lambda tmp: _mask_argv(tmp, PAGE, [{"bbox": [8, 3, 4, 6], "confidence": 0.9}]),
            "degenerate detection bbox (8, 3, 4, 6)",
        ),
        (
            lambda tmp: _mask_argv(tmp, PAGE, [{"bbox": [4, 3, 8, 6], "confidence": 1.5}]),
            "confidence 1.5 outside [0,1]",
        ),
        (
            lambda tmp: _restore_argv(tmp, {"entries": [{"id": 1, "bbox": [0, 0, 1, 1]}]}),
            "placeholder ids must be 0..n-1 in order",
        ),
        (
            lambda tmp: _mask_argv(tmp, PAGE, [{"bbox": [4, 3, 8, 6], "confidence": 0.9}] * 8000),
            "8000 detections in table (2, 2, 18, 9), more than 1024",
        ),
    ],
    ids=["ppm_header", "degenerate_bbox", "confidence", "sparse_ids", "detection_cap"],
)
def test_cli_image_input_error_exit1(tmp_path, capsys, argv, message):
    assert main(argv(tmp_path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "ImageInputError", "message": message}


DEEP = "[" * 100_000


@pytest.mark.parametrize(
    "command, code, error",
    [("eval", 2, "FormatError"), ("assemble", 1, "LayoutSyntaxError")],
)
def test_cli_deeply_nested_json(tmp_path, capsys, command, code, error):
    deep_path = tmp_path / "deep.json"
    deep_path.write_text(DEEP)
    if command == "eval":
        argv = ["eval", str(deep_path)]
    else:
        fixture_path = tmp_path / "rec.json"
        fixture_path.write_text("{}")
        argv = ["assemble", str(deep_path), str(fixture_path), "-o", str(tmp_path / "doc.md")]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": error, "message": "JSON nested too deeply"}


def _nested(depth: int, kind: str) -> str:
    if kind == "array":
        return "[" * depth + "]" * depth
    return '{"a": ' * depth + "1" + "}" * depth


@pytest.mark.parametrize("kind", ["array", "object"])
def test_loads_finite_accepts_the_depth_limit(kind):
    value = json_reader.loads_finite(_nested(json_reader.MAX_JSON_DEPTH, kind))
    for _ in range(json_reader.MAX_JSON_DEPTH - 1):
        value = value[0] if kind == "array" else value["a"]
    assert value == ([] if kind == "array" else {"a": 1})


# At the limit the nesting is read and the shape is refused; past it, and at
# 1,400 levels, which 3.12 and later parse but 3.10 and 3.11 do not, every
# interpreter refuses the nesting itself.
@pytest.mark.parametrize(
    "command, code, error, shape_error",
    [("eval", 2, "FormatError", "BatchFormatError"), ("assemble", 1, "LayoutSyntaxError", "LayoutSchemaError")],
)
@pytest.mark.parametrize("kind", ["array", "object"])
@pytest.mark.parametrize("extra", [0, 1, 1400 - json_reader.MAX_JSON_DEPTH])
def test_cli_json_depth_limit(tmp_path, capsys, command, code, error, shape_error, kind, extra):
    deep_path = tmp_path / "deep.json"
    deep_path.write_text(_nested(json_reader.MAX_JSON_DEPTH + extra, kind))
    if command == "eval":
        argv = ["eval", str(deep_path)]
    else:
        fixture_path = tmp_path / "rec.json"
        fixture_path.write_text("{}")
        argv = ["assemble", str(deep_path), str(fixture_path), "-o", str(tmp_path / "doc.md")]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    diagnostic = json.loads(captured.err)
    if extra:
        assert diagnostic == {"error": error, "message": "JSON nested too deeply"}
    else:
        assert diagnostic["error"] == shape_error


def test_cli_reward_rule_weights_outside_unit_interval_exit1(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DOCPOST_RULE_WEIGHTS", "[1.5, -0.5, 0, 0]")
    assert main(["reward", *_reward_files(tmp_path, [FRAG_A])]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "ConfigError",
        "message": "rule_weights must each be in [0,1], got (1.5, -0.5, 0, 0)",
    }


@pytest.mark.parametrize("scorer", [False, True])
def test_cli_reward_rule_score_capped_at_one(tmp_path, capsys, monkeypatch, scorer):
    # the weights pass the sum check (1 + 9e-10) but sum above 1
    monkeypatch.setenv("DOCPOST_RULE_WEIGHTS", "[0.25, 0.25, 0.25, 0.2500000009]")
    if scorer:
        monkeypatch.setenv("DOCPOST_REWARD_SCORER_CMD", keyset_scorer_cmd(REWARD_KEYS, 0.25))
    assert main(["reward", *_reward_files(tmp_path, [FRAG_A])]) == 0
    row = json.loads(capsys.readouterr().out)["candidates"][0]
    assert row["rule"]["score"] == 1.0
    assert row["reward"] == (0.625 if scorer else 1.0)


def test_cli_refuses_to_write_nan(tmp_path, monkeypatch):
    # NaN is not JSON: a NaN reaching an output is a bug, not an exit code
    monkeypatch.setattr(rewards, "group_advantages", lambda rewards, eps: [math.nan])
    with pytest.raises(ValueError, match="not JSON compliant"):
        main(["reward", *_reward_files(tmp_path, [FRAG_A])])


def test_cli_pairs(tmp_path, capsys):
    gt_path = tmp_path / "gt.html"
    gt_path.write_text(FRAG_A)
    out_path = tmp_path / "pairs.jsonl"
    assert (
        main(
            [
                "pairs",
                str(gt_path),
                "--seeds",
                "2",
                "--kinds",
                "swap_cells,corrupt_text",
                "--out",
                str(out_path),
            ]
        )
        == 0
    )
    summary = json.loads(capsys.readouterr().out)
    lines = [json.loads(l) for l in out_path.read_text().splitlines()]
    assert summary["written"] == len(lines) == 4
    assert all(l["positive"] != l["negative"] for l in lines)


PAIRS_FIXTURE = Path(__file__).parent / "fixtures" / "pairs"


def _records_by_table(path):
    records = [json.loads(line) for line in Path(path).read_text().splitlines()]
    for record in records:
        record["source"] = Path(record["source"]).name
    return records


def test_cli_pairs_matches_recorded_output(tmp_path, capsys):
    out_path = tmp_path / "pairs.jsonl"
    assert main(["pairs", str(PAIRS_FIXTURE), "--seeds", "3", "--out", str(out_path)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert (summary["written"], summary["skipped"]) == (36, 0)
    assert _records_by_table(out_path) == _records_by_table(PAIRS_FIXTURE / "expected.jsonl")


def test_cli_reward_advantages_of_pairs_group(tmp_path, capsys):
    # the revenue table's positive and its 18 negatives; math.fsum makes
    # these advantages the same on every supported interpreter
    records = _records_by_table(PAIRS_FIXTURE / "expected.jsonl")
    group = [r for r in records if r["source"] == "revenue.html"]
    cand_path = tmp_path / "cands.json"
    cand_path.write_text(json.dumps([group[0]["positive"]] + [r["negative"] for r in group]))
    assert main(["reward", str(cand_path), str(PAIRS_FIXTURE / "revenue.html")]) == 0
    advantages = [row["advantage"] for row in json.loads(capsys.readouterr().out)["candidates"]]
    high, low = 0.23569803824892724, -4.242564688480676
    assert advantages == [high] * 3 + [low] + [high] * 15


def test_cli_pairs_parses_each_table_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counting_parse_grid(html):
        calls.append(html)
        return parse_grid(html)

    monkeypatch.setattr(table_grid, "parse_grid", counting_parse_grid)
    monkeypatch.setattr(rewards, "parse_grid", counting_parse_grid)
    gt_dir = tmp_path / "gt"
    gt_dir.mkdir()
    tables = [FRAG_A, FRAG_B, (PAIRS_FIXTURE / "staff.html").read_text()]
    for k, html in enumerate(tables):
        (gt_dir / f"t{k}.html").write_text(html)
    out_path = tmp_path / "pairs.jsonl"
    assert main(["pairs", str(gt_dir), "--seeds", "3", "--out", str(out_path)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["written"] + summary["skipped"] == len(tables) * 3 * len(rewards.PerturbationKind)
    assert sorted(calls) == sorted(tables)


def test_cli_pairs_serializes_each_ground_truth_once(tmp_path, capsys, monkeypatch):
    ground_truths, serialized = [], []

    def recording_parse_grid(html):
        ground_truths.append(parse_grid(html))
        return ground_truths[-1]

    def counting_serialize(grid):
        serialized.append(grid)
        return serialize(grid)

    serialize = table_grid._serialize
    monkeypatch.setattr(table_grid, "parse_grid", recording_parse_grid)
    monkeypatch.setattr(table_grid, "_serialize", counting_serialize)
    out_path = tmp_path / "pairs.jsonl"
    assert main(["pairs", str(PAIRS_FIXTURE), "--seeds", "3", "--out", str(out_path)]) == 0
    summary = json.loads(capsys.readouterr().out)
    attempts = summary["written"] + summary["skipped"]
    assert len(ground_truths) == 2 and attempts == 2 * 3 * len(rewards.PerturbationKind)
    # each positive once, and one negative per attempt
    assert [sum(g is gt for g in serialized) for gt in ground_truths] == [1, 1]
    assert len(serialized) == 2 + attempts
    assert _records_by_table(out_path) == _records_by_table(PAIRS_FIXTURE / "expected.jsonl")


def test_cli_reward_parses_each_candidate_once_with_a_scorer(tmp_path, capsys, monkeypatch):
    parsed, payloads = [], []

    def counting_parse_grid(html):
        parsed.append(html)
        return parse_grid(html)

    def stub_scorer(payload):
        payloads.append(payload)
        return 0.5

    monkeypatch.setattr(table_grid, "parse_grid", counting_parse_grid)
    monkeypatch.setattr(rewards, "parse_grid", counting_parse_grid)
    monkeypatch.setattr(Config, "reward_scorer", lambda self: stub_scorer)
    messy = "<TABLE><tr><td>a<td rowspan=2>b<tr><td>c</table>"
    candidates = [FRAG_A, messy, "no table here", WIDE_ROW_TABLE]
    assert main(["reward", *_reward_files(tmp_path, candidates)]) == 0
    rows = json.loads(capsys.readouterr().out)["candidates"]
    assert parsed == candidates
    assert [row["model_score"] for row in rows] == [0.5] * 4
    assert [p["rendered_canonical"] for p in payloads] == [
        table_grid.serialize_grid(parse_grid(FRAG_A)),
        table_grid.serialize_grid(parse_grid(messy)),
        "",
        "",
    ]


def test_cli_pairs_seeds_zero_skips_unparseable(tmp_path, capsys):
    gt_path = tmp_path / "gt.html"
    gt_path.write_text("no table here")
    out_path = tmp_path / "pairs.jsonl"
    assert main(["pairs", str(gt_path), "--seeds", "0", "--out", str(out_path)]) == 0
    assert json.loads(capsys.readouterr().out)["written"] == 0
    assert out_path.read_text() == ""


def test_cli_pairs_unparseable_exit1(tmp_path, capsys):
    gt_path = tmp_path / "gt.html"
    gt_path.write_text("no table here")
    out_path = tmp_path / "pairs.jsonl"
    assert main(["pairs", str(gt_path), "--out", str(out_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "NoTableFound",
        "message": "no <table> element in input",
    }


def test_cli_reward_scores_oversized_grid_not_well_formed(tmp_path, capsys):
    cand_path, gt_path = _reward_files(tmp_path, [WIDE_ROW_TABLE, FRAG_A])
    assert main(["reward", cand_path, gt_path]) == 0
    rows = json.loads(capsys.readouterr().out)["candidates"]
    assert rows[0]["rule"]["well_formed"] is False
    assert rows[1]["rule"]["well_formed"] is True


def test_cli_eval_oversized_ground_truth_exit1(tmp_path, capsys):
    batch_path = tmp_path / "batch.json"
    batch_path.write_text(json.dumps([{"pred": FRAG_A, "gt": WIDE_ROW_TABLE, "kind": "table"}]))
    assert main(["eval", str(batch_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    diag = json.loads(line)
    assert diag["error"] == "GtParseError"
    assert "grid positions" in diag["message"]


def test_cli_assemble_single_page(tmp_path, capsys):
    layout_doc = {
        "page_width": 100,
        "page_height": 100,
        "elements": [
            {"bbox": [0, 0, 50, 10], "index": 0, "label": "title", "rotation": 0},
            {"bbox": [0, 20, 50, 40], "index": 1, "label": "text", "rotation": 0},
        ],
    }
    fixture = {
        "0": {"content": "Title", "kind": "text"},
        "1": {"content": "Body.", "kind": "text"},
    }
    layout_path = tmp_path / "layout.json"
    fixture_path = tmp_path / "rec.json"
    layout_path.write_text(json.dumps(layout_doc))
    fixture_path.write_text(json.dumps(fixture))
    out = tmp_path / "doc.md"
    assert main(["assemble", str(layout_path), str(fixture_path), "-o", str(out)]) == 0
    assert out.read_text() == "# Title\n\nBody.\n"
    reports = json.loads((tmp_path / "doc.md.reports.json").read_text())
    assert reports["merge_plans"] == []


@pytest.mark.parametrize(
    "layout_text, error",
    [
        ('[{"bbox": [0, 0, 10, 10], "index": 0}]', "LayoutSchemaError"),
        # non-finite numbers, as tokens or as a literal that overflows
        ('[{"bbox": [0, 0, Infinity, 10], "index": 0, "label": "text"}]', "LayoutSyntaxError"),
        ('[{"bbox": [0, 0, 1e999, 10], "index": 0, "label": "text"}]', "LayoutSyntaxError"),
        ('[{"bbox": [0, 0, NaN, 10], "index": 0, "label": "text"}]', "LayoutSyntaxError"),
        (
            '{"page_width": Infinity, "page_height": 10,'
            ' "elements": [{"bbox": [0, 0, 5, 5], "index": 0, "label": "text"}]}',
            "LayoutSyntaxError",
        ),
        # page sizes are JSON numbers, not strings or booleans
        (
            '{"page_width": "100", "page_height": 10,'
            ' "elements": [{"bbox": [0, 0, 5, 5], "index": 0, "label": "text"}]}',
            "LayoutSchemaError",
        ),
        (
            '{"page_width": 100, "page_height": true,'
            ' "elements": [{"bbox": [0, 0, 5, 5], "index": 0, "label": "text"}]}',
            "LayoutSchemaError",
        ),
        # false == 0, yet it is no rotation
        (
            '[{"bbox": [0, 0, 5, 5], "index": 0, "label": "text", "rotation": false}]',
            "LayoutGeometryError",
        ),
        # json.loads would keep the last of the two labels
        ('[{"bbox": [0, 0, 5, 5], "index": 0, "label": "table", "label": "text"}]',
         "LayoutSyntaxError"),
    ],
    ids=[
        "missing_label", "infinity", "overflow", "nan", "infinite_page_width",
        "string_page_width", "boolean_page_height", "boolean_rotation", "repeated_label",
    ],
)
def test_cli_assemble_invalid_layout_exit1(tmp_path, capsys, layout_text, error):
    layout_path = tmp_path / "layout.json"
    layout_path.write_text(layout_text)
    fixture_path = tmp_path / "rec.json"
    fixture_path.write_text("{}")
    out = tmp_path / "doc.md"
    assert main(["assemble", str(layout_path), str(fixture_path), "-o", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == error


@pytest.mark.parametrize(
    "entries, bad",
    [
        ({"0": "oops"}, 0),
        ({"0": {"content": 5}}, 0),
        ({"0": {"content": None}}, 0),
        ({"1": {"content": ["x"]}}, 1),
    ],
)
def test_cli_assemble_malformed_fixture_entry_exit1(tmp_path, capsys, entries, bad):
    layout_path = tmp_path / "layout.json"
    layout_path.write_text(
        json.dumps(
            [
                {"bbox": [0, 0, 50, 10], "index": 0, "label": "table", "rotation": 0},
                {"bbox": [0, 20, 50, 40], "index": 1, "label": "text", "rotation": 0},
            ]
        )
    )
    fixture = {"0": {"content": FRAG_A, "kind": "table"}, "1": {"content": "Body."}}
    fixture_path = tmp_path / "rec.json"
    fixture_path.write_text(json.dumps({**fixture, **entries}))
    out = tmp_path / "doc.md"
    assert main(["assemble", str(layout_path), str(fixture_path), "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert json.loads(captured.err) == {
        "error": "LayoutSchemaError",
        "message": f"page 0 fixture entry {bad} must be an object whose 'content' is a string",
    }


def test_cli_assemble_two_fixture_keys_for_one_element_exit1(tmp_path, capsys):
    layout_path = tmp_path / "layout.json"
    layout_path.write_text('[{"bbox": [0, 0, 50, 10], "index": 0, "label": "text"}]')
    fixture_path = tmp_path / "rec.json"
    fixture_path.write_text('{"0": {"content": "a"}, "00": {"content": "b"}}')
    out = tmp_path / "doc.md"
    assert main(["assemble", str(layout_path), str(fixture_path), "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert json.loads(captured.err) == {
        "error": "LayoutSchemaError",
        "message": "page 0 fixture keys '0' and '00' both name element 0",
    }


def test_cli_assemble_fixture_repeating_a_key_exit1(tmp_path, capsys):
    # json.loads would keep the second "1" and pass the fixture-key rule
    layout_path = tmp_path / "layout.json"
    layout_path.write_text(
        '[{"bbox": [0, 0, 50, 10], "index": 0, "label": "text"},'
        ' {"bbox": [0, 20, 50, 30], "index": 1, "label": "text"}]'
    )
    fixture_path = tmp_path / "rec.json"
    fixture_path.write_text('{"0": {"content": "a"}, "1": {"content": "b"}, "1": {"content": "c"}}')
    out = tmp_path / "doc.md"
    assert main(["assemble", str(layout_path), str(fixture_path), "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert json.loads(captured.err) == {
        "error": "LayoutSyntaxError",
        "message": "JSON object repeats key '1'",
    }


def test_cli_eval_entry_repeating_a_key_exit2(tmp_path, capsys):
    batch = tmp_path / "batch.json"
    batch.write_text('[{"kind": "text", "pred": "a", "gt": "a", "pred": "b"}]')
    assert main(["eval", str(batch)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "FormatError",
        "message": "JSON object repeats key 'pred'",
    }


def test_cli_config_file_applies(tmp_path, capsys):
    cfg_path = tmp_path / "docpost.toml"
    cfg_path.write_text("near_threshold = 0.99\n")
    fa = tmp_path / "a.html"
    fb = tmp_path / "b.html"
    # headers differ in 1 of 4 cells: similarity 0.75 < 0.99 -> no pattern1
    fa.write_text(
        "<table><tr><th>A</th><th>B</th><th>C</th><th>D</th></tr>"
        "<tr><td>1.</td><td>2.</td><td>3.</td><td>4.</td></tr></table>"
    )
    fb.write_text(
        "<table><tr><th>A</th><th>B</th><th>C</th><th>X</th></tr>"
        "<tr><td>5.</td><td>6.</td><td>7.</td><td>8.</td></tr></table>"
    )
    prefix = str(tmp_path / "m")
    assert main(["merge", str(fa), str(fb), "--out-prefix", prefix, "--config", str(cfg_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["plans"][0]["pattern"] != "pattern1"


def test_cli_restore_strict_ids(tmp_path, capsys):
    html_path = tmp_path / "rec.html"
    html_path.write_text(
        '<table><tr><td><img src="placeholder://1"></td>'
        '<td><img src="placeholder://0"></td></tr></table>'
    )
    map_path = tmp_path / "map.json"
    map_path.write_text(
        json.dumps(
            {
                "entries": [
                    {"id": 0, "bbox": [0, 0, 1, 1], "image_ref": "zero.png"},
                    {"id": 1, "bbox": [0, 2, 1, 3], "image_ref": "one.png"},
                ]
            }
        )
    )
    out_path = tmp_path / "out.html"
    assert (
        main(["restore", str(html_path), str(map_path), "-o", str(out_path), "--strict-ids"])
        == 0
    )
    restored = parse_grid(out_path.read_text())
    assert 'src="one.png"' in restored.content_at(0, 0)
    assert 'src="zero.png"' in restored.content_at(0, 1)


def test_cli_assemble_html_format(tmp_path, capsys):
    layout_doc = {
        "page_width": 100,
        "page_height": 100,
        "elements": [
            {"bbox": [0, 0, 50, 10], "index": 0, "label": "title", "rotation": 0},
            {"bbox": [0, 20, 50, 40], "index": 1, "label": "image", "rotation": 0},
        ],
    }
    fixture = {
        "0": {"content": "Summary & Outlook", "kind": "text"},
        "1": {"content": "fig.png", "kind": "image"},
    }
    layout_path = tmp_path / "layout.json"
    fixture_path = tmp_path / "rec.json"
    layout_path.write_text(json.dumps(layout_doc))
    fixture_path.write_text(json.dumps(fixture))
    out = tmp_path / "doc.html"
    assert (
        main(
            [
                "assemble",
                str(layout_path),
                str(fixture_path),
                "-o",
                str(out),
                "--format",
                "html",
            ]
        )
        == 0
    )
    assert out.read_text() == '<h1>Summary &amp; Outlook</h1>\n<img src="fig.png">\n'
