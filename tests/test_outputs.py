"""Every file the CLI writes is overwritten in place and cut to the bytes
written: no output is opened with ``O_TRUNC``, and the bytes, exit codes and
file identity are those a truncating write gives."""

import contextlib
import json
import math
import os
import stat
import sys
import threading
from pathlib import Path

import pytest

from docpost import metrics
from docpost.cli import main

TABLE = "<table><tr><th>C1</th><th>C2</th></tr><tr><td>a.</td><td>b.</td></tr></table>"
NEXT = "<table><tr><th>C1</th><th>C2</th></tr><tr><td>c.</td><td>d.</td></tr></table>"
OTHER = "<table><tr><th>X</th></tr><tr><td>y</td></tr></table>"
IMG_TABLE = "<table><tr><td><img></td><td>v</td></tr></table>"
PAGE = b"P6\n20 10\n255\n" + bytes(range(200)) * 3


def _write(path: Path, content) -> str:
    if isinstance(content, str):
        path.write_text(content, encoding="utf-8")
    else:
        path.write_bytes(content)
    return str(path)


def _command(command: str, d: Path) -> tuple[list[str], list[Path]]:
    """The argv of ``command`` on inputs written under ``d``, and the files
    it writes, in the order it writes them."""
    if command == "assemble":
        layout = [
            {"bbox": [0, 0, 50, 10], "index": 0, "label": "table", "rotation": 0},
            {"bbox": [0, 20, 50, 40], "index": 1, "label": "text", "rotation": 0},
        ]
        fixture = {"0": {"content": TABLE, "kind": "table"}, "1": {"content": "Body."}}
        argv = [
            "assemble",
            _write(d / "layout.json", json.dumps(layout)),
            _write(d / "fixture.json", json.dumps(fixture)),
            "-o",
            str(d / "doc.md"),
        ]
        return argv, [d / "doc.md", d / "doc.md.reports.json"]
    if command == "merge":
        frags = [_write(d / f"f{k}.html", html) for k, html in enumerate((TABLE, NEXT, OTHER))]
        argv = ["merge", *frags, "--out-prefix", str(d / "merged")]
        return argv, [d / "merged_0.html", d / "merged_1.html"]
    if command == "mask":
        dets = [{"bbox": [4, 3, 8, 6], "confidence": 0.9}, {"bbox": [10, 4, 14, 8], "confidence": 0.8}]
        argv = [
            "mask",
            _write(d / "page.ppm", PAGE),
            _write(d / "dets.json", json.dumps(dets)),
            "--table-bbox",
            "2,2,18,9",
            "--out-prefix",
            str(d / "t0"),
        ]
        return argv, [d / "t0.masked.ppm", d / "t0_img0.ppm", d / "t0_img1.ppm", d / "t0.map.json"]
    if command == "restore":
        pmap = {"entries": [{"id": 0, "bbox": [4, 3, 8, 6], "image_ref": "a.png"}]}
        argv = [
            "restore",
            _write(d / "rec.html", IMG_TABLE),
            _write(d / "map.json", json.dumps(pmap)),
            "-o",
            str(d / "restored.html"),
        ]
        return argv, [d / "restored.html"]
    if command == "eval":
        batch = [
            {"pred": TABLE, "gt": NEXT, "kind": "table"},
            {"pred": "abc", "gt": "abd", "kind": "text"},
        ]
        argv = ["eval", _write(d / "batch.json", json.dumps(batch)), "--json-out", str(d / "rows.json")]
        return argv, [d / "rows.json"]
    assert command == "pairs"
    argv = ["pairs", _write(d / "gt.html", TABLE), "--seeds", "2", "--out", str(d / "pairs.jsonl")]
    return argv, [d / "pairs.jsonl"]


WRITING_COMMANDS = ["assemble", "merge", "mask", "restore", "eval", "pairs"]

# An audit hook cannot be removed, so one is added per process, the first
# time it is needed; it records "open" events only while _opens is a list.
_opens = None
_hooked = False


def _audit(event, args):
    if event == "open" and _opens is not None:
        _opens.append(args)


@contextlib.contextmanager
def _recorded_opens():
    global _opens, _hooked
    if not _hooked:
        sys.addaudithook(_audit)
        _hooked = True
    _opens = events = []
    try:
        yield events
    finally:
        _opens = None


def _run(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr()


@pytest.mark.parametrize("command", WRITING_COMMANDS)
def test_cli_overwrites_longer_outputs_in_place(tmp_path, capsys, command):
    argv, outputs = _command(command, tmp_path)
    fresh = _run(argv, capsys)
    assert fresh[0] == 0
    expected = [p.read_bytes() for p in outputs]
    assert all(expected)
    for path, content in zip(outputs, expected):
        path.write_bytes(b"stale\n" * 1000 + content)
    with _recorded_opens() as events:
        assert _run(argv, capsys) == fresh
    assert [p.read_bytes() for p in outputs] == expected
    # os.open reports the path; wrapping the descriptor in a file object
    # reports the int fd with the flags of its mode, which open nothing
    named = [(path, flags) for path, _, flags in events if not isinstance(path, int)]
    assert [os.fspath(path) for path, flags in named if flags & os.O_TRUNC] == []
    assert {str(p) for p in outputs} <= {os.fspath(path) for path, _ in named}


@pytest.mark.parametrize("command", WRITING_COMMANDS)
def test_cli_cuts_only_outputs_with_a_stale_tail(tmp_path, capsys, monkeypatch, command):
    # a first run, a rerun of the same length and a rerun over a shorter
    # file write no bytes past the old end, so nothing is cut
    cuts = []
    ftruncate = os.ftruncate
    monkeypatch.setattr(os, "ftruncate", lambda fd, n: cuts.append(n) or ftruncate(fd, n))
    argv, outputs = _command(command, tmp_path)
    assert main(argv) == 0
    expected = [p.read_bytes() for p in outputs]
    assert main(argv) == 0
    for path in outputs:
        path.write_bytes(b"x")
    assert main(argv) == 0
    assert cuts == []
    assert [p.read_bytes() for p in outputs] == expected
    for path in outputs:
        path.write_bytes(b"x" * 100_000)
    assert main(argv) == 0
    assert cuts == [len(content) for content in expected]
    assert [p.read_bytes() for p in outputs] == expected


def test_cli_pairs_failing_part_way_keeps_only_the_written_records(tmp_path, capsys):
    good = _write(tmp_path / "a.html", TABLE)
    bad = _write(tmp_path / "b.html", b"\xff not UTF-8")
    fresh, stale = tmp_path / "fresh.jsonl", tmp_path / "stale.jsonl"
    stale.write_bytes(b"x" * 100_000)
    results = []
    for out in (fresh, stale):
        code = main(["pairs", good, bad, "--seeds", "2", "--out", str(out)])
        results.append((code, capsys.readouterr().out))
    assert results[0] == results[1] == (2, "")
    alone = tmp_path / "alone.jsonl"
    assert main(["pairs", good, "--seeds", "2", "--out", str(alone)]) == 0
    assert stale.read_bytes() == fresh.read_bytes() == alone.read_bytes() != b""


def test_cli_output_to_dev_null(capsys, tmp_path):
    argv, _ = _command("pairs", tmp_path)
    argv[-1] = os.devnull
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["out"] == os.devnull


def test_cli_output_to_a_fifo(capsys, tmp_path):
    argv, [out] = _command("pairs", tmp_path)
    assert main(argv) == 0
    capsys.readouterr()
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()))
    reader.start()
    argv[-1] = str(fifo)
    try:
        assert main(argv) == 0
    finally:
        reader.join(timeout=10)
    assert not reader.is_alive()
    assert received == [out.read_bytes()]
    assert stat.S_ISFIFO(fifo.stat().st_mode)


@pytest.mark.parametrize("command", WRITING_COMMANDS)
def test_cli_directory_as_output_exits_2(tmp_path, capsys, command):
    argv, outputs = _command(command, tmp_path)
    outputs[0].mkdir()
    assert main(argv) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {"error": "io", "message": f"[Errno 21] Is a directory: '{outputs[0]}'"}


@pytest.mark.parametrize("command", WRITING_COMMANDS)
def test_cli_outputs_keep_inode_and_mode(tmp_path, capsys, command):
    argv, outputs = _command(command, tmp_path)
    for path in outputs:
        path.write_bytes(b"old")
        path.chmod(0o640)
    before = [(s.st_ino, s.st_mode) for s in map(os.stat, outputs)]
    assert main(argv) == 0
    assert [(s.st_ino, s.st_mode) for s in map(os.stat, outputs)] == before


@pytest.mark.parametrize("command", WRITING_COMMANDS)
def test_cli_new_outputs_get_the_mode_open_gives(tmp_path, capsys, command):
    argv, outputs = _command(command, tmp_path)
    with open(tmp_path / "reference", "w"):
        pass
    mode = (tmp_path / "reference").stat().st_mode
    assert main(argv) == 0
    assert [p.stat().st_mode for p in outputs] == [mode] * len(outputs)


def test_cli_writes_through_a_symlinked_output(tmp_path, capsys):
    argv, [out] = _command("restore", tmp_path)
    assert main(argv) == 0
    expected = out.read_bytes()
    target = tmp_path / "target.html"
    target.write_bytes(b"stale " * 100)
    out.unlink()
    out.symlink_to(target)
    assert main(argv) == 0
    assert out.is_symlink() and target.read_bytes() == expected


def test_cli_failing_to_make_the_text_leaves_the_output_as_it_was(tmp_path, capsys, monkeypatch):
    # NaN is not JSON, so these rows cannot be written
    rows = [{"index": 0, "kind": "text", "metrics": {"ned": math.nan}}]
    monkeypatch.setattr(metrics, "evaluate_batch", lambda batch: rows)
    argv, [out] = _command("eval", tmp_path)
    out.write_bytes(b"old")
    with pytest.raises(ValueError, match="not JSON compliant"):
        main(argv)
    assert out.read_bytes() == b"old"
