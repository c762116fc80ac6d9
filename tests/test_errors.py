"""The CLI's exit-code contract: every docpost exception has one of two bases,
and no input drives ``cli.main`` outside exit codes 0, 1 and 2."""

import contextlib
import functools
import importlib
import inspect
import io
import json
import operator
import os
import pkgutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import DERANDOMIZE
import docpost
from docpost.cli import main
from docpost.errors import DomainError, FormatError


def test_every_exception_has_exactly_one_base():
    classes = []
    for info in pkgutil.iter_modules(docpost.__path__):
        module = importlib.import_module(f"docpost.{info.name}")
        classes += [
            cls
            for _, cls in inspect.getmembers(module, inspect.isclass)
            if issubclass(cls, BaseException) and cls.__module__ == module.__name__
        ]
    assert len(classes) >= 20
    wrong = [
        cls.__qualname__
        for cls in classes
        if issubclass(cls, DomainError) == issubclass(cls, FormatError)
    ]
    assert wrong == []


def test_bases_are_exported():
    assert docpost.DomainError is DomainError and docpost.FormatError is FormatError


# -- fuzzing the CLI ------------------------------------------------------------------

TABLE = "<table><tr><th>C1</th><th>C2</th></tr><tr><td>a.</td><td>b.</td></tr></table>"
IMG_TABLE = "<table><tr><td><img></td><td>x</td></tr></table>"

# valid documents per input kind, the first used when the kind is not
# fuzzed; the fuzzer changes one node of one of them, so that generated
# input gets past the first shape check
VALID = {
    "layout": [
        [
            {"bbox": [0, 0, 50, 10], "index": 0, "label": "table", "rotation": 0},
            {"bbox": [0, 20, 50, 40], "index": 1, "label": "text", "rotation": 0},
        ],
        {"pages": [{"page_width": 60, "page_height": 50, "elements": [
            {"bbox": [0, 0, 50, 10], "index": 0, "label": "table", "rotation": 90},
        ]}]},
    ],
    "fixture": [{"0": {"content": TABLE, "kind": "table"}, "1": {"content": "Body."}}],
    "detections": [[{"bbox": [4, 3, 8, 6], "confidence": 0.9}]],
    "map": [{"entries": [{"id": 0, "bbox": [4, 3, 8, 6], "image_ref": "a.png"}]}],
    "batch": [[
        {"pred": TABLE, "gt": TABLE, "kind": "table"},
        {"pred": "abc", "gt": "abd", "kind": "text"},
        {"pred": ["a", "b"], "gt": ["b", "a"], "kind": "order"},
    ]],
    "candidates": [[TABLE, {"html": IMG_TABLE}]],
}
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["", "table", "text", "order", "image", TABLE, IMG_TABLE, "placeholder://0"])
    | st.text(max_size=6)
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=10,
)
# a changed node is as often a number near the valid ones as anything else
REPLACEMENTS = st.one_of(st.integers(-2, 30), st.floats(-1.0, 2.0), SCALARS, JSON_VALUES)


def _paths(node, path=()):
    yield path
    if isinstance(node, (list, dict)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, (*path, key))


@st.composite
def _changed(draw, documents):
    """One of ``documents`` with one node replaced by a generated value or,
    in an object, deleted."""
    doc = json.loads(json.dumps(draw(st.sampled_from(documents))))
    path = draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return draw(REPLACEMENTS)
    parent = functools.reduce(operator.getitem, path[:-1], doc)
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(REPLACEMENTS)
    return doc


def _nested(depth: int, closed: bool) -> bytes:
    return b"[" * depth + (b"]" * depth if closed else b"")


# bytes that are no usable document: non-UTF-8, non-finite, too large, deeply
# nested or unclosed
NOT_JSON = st.one_of(
    st.sampled_from([b"NaN", b"[1e999]", b"[" + b"1" * 5000 + b"]", b"\xff\xfe[]", b""]),
    st.builds(_nested, st.sampled_from([10, 900, 5000, 100_000]), st.booleans()),
    st.binary(max_size=20),
)
HTML_PIECES = st.sampled_from(
    ["<table>", "</table>", "<tr>", "</tr>", "<td>", "</td>", "<th>", "<thead>",
     '<td colspan="2">', "<td rowspan=3>", '<td colspan="0">', "<img>", "x", " ", "&amp;"]
)

def _json_file(documents):
    changed = _changed(documents).map(lambda doc: json.dumps(doc).encode())
    return st.one_of(changed, changed, NOT_JSON)  # two changed documents to one non-document


FILES = {kind: _json_file(documents) for kind, documents in VALID.items()}
VALID_FILES = {kind: json.dumps(documents[0]).encode() for kind, documents in VALID.items()}
FILES["html"] = st.one_of(
    st.sampled_from([TABLE, IMG_TABLE, "<table>" * 3000]).map(str.encode),
    st.lists(HTML_PIECES, max_size=20).map(lambda pieces: "".join(pieces).encode()),
    st.binary(max_size=20),
)
PAGE = b"P6\n20 10\n255\n" + b"\xff" * 600
VALID_FILES.update(html=TABLE.encode(), ppm=PAGE)
HEADER_PIECES = st.sampled_from(
    [b" ", b"\n", b"#c", b"#c\n", b"2", b"20", b"10", b"255", b"65535", b"12345678901", b"-1", b"\xff"]
)
FILES["ppm"] = st.builds(
    bytes.__add__,
    st.lists(HEADER_PIECES, max_size=10).map(lambda p: b"P6" + b"".join(p)),
    st.just(b"\xff" * 600) | st.binary(max_size=700),
)
COMMAND_INPUTS = {
    "assemble": ("layout", "fixture", "detections"),
    "merge": ("html", "html"),
    "mask": ("ppm", "detections"),
    "restore": ("html", "map"),
    "eval": ("batch",),
    "reward": ("candidates", "html"),
    "pairs": ("html",),
}
TABLE_BBOXES = ["2,2,18,9", "0,0,20,10", "9,9,2,2", "0,0,1,1", "-5,-5,99,99", "a,b"]


def _argv(command: str, d: Path, paths: list[str], table_bbox: str):
    """The command's positional arguments, and its options as token tuples."""
    if command == "assemble":
        (d / "dets").mkdir()
        Path(paths[2]).rename(d / "dets" / "page0_el0.json")
        return paths[:2], [("-o", str(d / "doc.md")), ("--detections-dir", str(d / "dets"))]
    if command == "merge":
        return paths, [("--out-prefix", str(d / "merged"))]
    if command == "mask":
        return paths, [(f"--table-bbox={table_bbox}",), ("--out-prefix", str(d / "t0"))]
    if command == "restore":
        return paths, [("-o", str(d / "out.html"))]
    if command == "eval":
        return paths, [("--json-out", str(d / "rows.json"))]
    if command == "reward":
        return paths, []
    return paths, [("--seeds", "2"), ("--out", str(d / "pairs.jsonl"))]


INT_OPTIONS = {"eval": "--jobs", "reward": "--expected-placeholders", "pairs": "--seeds"}
# argv mutations; the last two always exit 2
ARGV_MUTATIONS = ("drop_option", "repeat_option", "drop_positional", "unknown_option", "non_integer")


def _mutated(command, positionals, options, mutation, pick: int) -> list[str]:
    positionals, options = list(positionals), list(options)
    if mutation == "drop_option" and options:
        del options[pick % len(options)]
    elif mutation == "repeat_option" and options:
        options.append(options[pick % len(options)])
    elif mutation == "drop_positional":
        del positionals[pick % len(positionals)]
    elif mutation == "unknown_option":
        options.insert(pick % (len(options) + 1), ("--nosuch",))
    elif mutation == "non_integer":
        # a command without an integer option gets an unknown one
        options.append((INT_OPTIONS.get(command, "--seeds"), ("abc", "1.5", "")[pick % 3]))
    return [command, *positionals, *(token for option in options for token in option)]


@settings(
    max_examples=600,
    derandomize=DERANDOMIZE,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(command=st.sampled_from(sorted(COMMAND_INPUTS)), data=st.data())
def test_cli_exits_by_the_contract(command, data):
    kinds = COMMAND_INPUTS[command]
    fuzzed = data.draw(st.integers(0, len(kinds) - 1), label="fuzzed input")
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        paths = []
        for i, kind in enumerate(kinds):
            paths.append(str(d / f"in{i}.{kind}"))
            content = data.draw(FILES[kind], label=kind) if i == fuzzed else VALID_FILES[kind]
            Path(paths[-1]).write_bytes(content)
        table_bbox = data.draw(st.sampled_from(TABLE_BBOXES), label="table_bbox")
        mutation = data.draw(
            st.one_of(st.none(), st.none(), st.sampled_from(ARGV_MUTATIONS)), label="argv mutation"
        )
        argv = _mutated(
            command, *_argv(command, d, paths, table_bbox), mutation, data.draw(st.integers(0, 5))
        )
        out, err = io.StringIO(), io.StringIO()
        # a dropped --out-prefix makes merge write its default merged_0.html
        # into the working directory, so that is the temporary one
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines()
    assert all("error" in json.loads(line) for line in lines)
    if code != 0:
        assert len(lines) == 1
    if mutation in ("unknown_option", "non_integer"):
        assert code == 2 and json.loads(lines[0])["error"] == "FormatError"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["nosuch"], "docpost: argument command: invalid choice: 'nosuch'"),
        ([], "docpost: the following arguments are required: command"),
        (["eval"], "docpost eval: the following arguments are required: batch"),
        (["eval", "b.json", "--jobs"], "docpost eval: argument --jobs: expected one argument"),
        (
            ["pairs", "x", "--seeds", "abc", "--out", "/dev/null"],
            "docpost pairs: argument --seeds: invalid int value: 'abc'",
        ),
        (
            ["reward", "a", "b", "--expected-placeholders", "1.5"],
            "docpost reward: argument --expected-placeholders: invalid int value: '1.5'",
        ),
    ],
)
def test_cli_argument_errors_exit2_with_one_json_line(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    diag = json.loads(line)
    assert diag["error"] == "FormatError" and diag["message"].startswith(message)


@pytest.mark.parametrize("argv", [["--help"], ["eval", "--help"]])
def test_cli_help_still_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: docpost")
