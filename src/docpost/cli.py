"""Command-line front end tying the pipeline together.

Subcommands: assemble, merge, mask, restore, eval, reward, pairs. All
machine-readable output goes to stdout or named files; diagnostics are JSON
objects on stderr. Exit codes: 0 success, 1 domain validation failure
(:class:`DomainError`), 2 I/O or format error (:class:`OSError`,
:class:`FormatError`).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import re
import stat
import sys
from pathlib import Path

# Modules only: all but errors load on first attribute access (see
# docpost/__init__.py), so nothing at this level may touch their attributes.
from . import config, idtp, json_reader, layout, metrics, rewards, table_grid, table_merge
from .errors import DomainError, FormatError

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_IO = 2

# Every JSON write: NaN and infinities are not JSON, so writing one is a bug.
_dumps = functools.partial(json.dumps, allow_nan=False)


def _diag(kind: str, message: str) -> None:
    print(_dumps({"error": kind, "message": message}), file=sys.stderr)


def _load_cfg(args) -> config.Config:
    cfg = config.Config()
    if getattr(args, "config", None):
        cfg = config.load_config(args.config, cfg)
    cfg = config.apply_env_overrides(cfg)
    return cfg


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json_reader.loads_finite(text)
    except json.JSONDecodeError:
        raise
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def _parse_bbox(text: str) -> tuple[int, int, int, int]:
    try:
        x1, y1, x2, y2 = (int(p) for p in text.split(","))
    except ValueError:
        raise FormatError(f"bbox must be four integers x1,y1,x2,y2, got {text!r}") from None
    return x1, y1, x2, y2


def _load_table(path: str, table_bbox: tuple[int, int, int, int]) -> idtp.PixelBuffer:
    """Crop ``table_bbox`` out of the page image at ``path``.

    A PPM page is read only over the table's rows; any other format is
    decoded whole by Pillow.
    """
    x1, y1, x2, y2 = table_bbox
    with open(path, "rb") as fh:
        head = fh.read(2)
        if head == b"P6":
            width, height, rows = idtp.read_ppm_rows(fh, y1, y2, head)
            top = y1  # where rows starts once the bbox is checked
        else:
            rows = _load_image(path, head + fh.read())
            width, height, top = rows.width, rows.height, 0
    if not (0 <= x1 < x2 <= width and 0 <= y1 < y2 <= height):
        raise idtp.ImageInputError(
            f"table bbox {table_bbox} is empty or reaches past the {width}x{height} page"
        )
    return idtp.crop_buffer(rows, (x1, y1 - top, x2, y2 - top))


def _load_image(path: str, raw: bytes) -> idtp.PixelBuffer:
    """Decode a page image that is not a PPM, with Pillow."""
    try:
        from PIL import Image
    except ImportError:
        raise FormatError(
            f"{path} is not a PPM and Pillow is not installed (pip install docpost[images])"
        ) from None
    import io

    with Image.open(io.BytesIO(raw)) as img:
        rgb = img.convert("RGB")
        return idtp.PixelBuffer(rgb.width, rgb.height, rgb.tobytes())


@contextlib.contextmanager
def _output(path: str, binary: bool = False):
    """Open ``path`` for writing: every file the CLI writes goes through here.

    An existing file is written over in place, without ``O_TRUNC``: cutting
    a file that holds data costs far more than overwriting its bytes. On
    leaving the block, also by an exception, a regular file that held more
    bytes than were written is cut to the bytes written, so no stale tail
    survives. A new file, or one written to at least its old length, needs
    no cut; a pipe or device is not cut. A new file gets the mode
    ``open(path, "w")`` gives it, and an existing one keeps its inode, mode
    and owner.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") if binary else open(fd, "w", encoding="utf-8") as fh:
        st = os.fstat(fd)
        old_size = st.st_size if stat.S_ISREG(st.st_mode) else 0
        try:
            yield fh
        finally:
            fh.flush()
            if old_size:
                end = os.lseek(fd, 0, os.SEEK_CUR)
                if end < old_size:
                    os.ftruncate(fd, end)


def _write_text(path: str, text: str) -> None:
    # text is made before the file is opened, so a failure making it
    # leaves the file as it was
    with _output(path) as fh:
        fh.write(text)


def _save_ppm(path: str, buffer: idtp.PixelBuffer) -> None:
    with _output(path, binary=True) as fh:
        fh.write(idtp.ppm_header(buffer))
        fh.write(buffer.data)


# -- subcommands ------------------------------------------------------------------


def cmd_assemble(args) -> int:
    cfg = _load_cfg(args)
    if args.include_headers_footers:
        cfg = dataclasses.replace(cfg, include_headers_footers=True)
    scorer = cfg.continuation_scorer()
    detections: dict[tuple[int, int], list[idtp.ImageDetection]] = {}
    names: dict[tuple[int, int], str] = {}
    if args.detections_dir:
        for path in sorted(Path(args.detections_dir).glob("page*_el*.json")):
            match = re.fullmatch(r"page([0-9]+)_el([0-9]+)", path.stem)
            if match is None:
                _diag("detections", f"cannot parse page/element from {path.name}")
                return EXIT_IO
            key = (int(match[1]), int(match[2]))
            if key in names:
                _diag(
                    "detections",
                    f"{names[key]} and {path.name} both name page {key[0]} element {key[1]}",
                )
                return EXIT_IO
            names[key] = path.name
            detections[key] = idtp.parse_detections(_read_json(str(path)))
    result = layout.pipeline_run(
        args.layout, args.fixture, cfg, detections, layout.OutputFormat(args.format), scorer
    )
    _write_text(args.out, result.document)
    _write_text(args.out + ".reports.json", _dumps(result.reports_dict(), indent=2) + "\n")
    for warning in result.warnings:
        _diag("warning", warning)
    return EXIT_OK


def cmd_merge(args) -> int:
    cfg = _load_cfg(args)
    grids = []
    for path in args.fragments:
        grids.append(table_grid.parse_grid(Path(path).read_text(encoding="utf-8")))
    tables, plans = table_merge.merge_fragment_sequence_with_plans(
        grids, cfg.continuation_scorer(), cfg
    )
    out_files = []
    for i, table in enumerate(tables):
        out_path = f"{args.out_prefix}_{i}.html"
        _write_text(out_path, table_grid.serialize_grid(table))
        out_files.append(out_path)
    print(
        _dumps(
            {
                "inputs": list(args.fragments),
                "outputs": out_files,
                "plans": [p.to_dict() for p in plans],
            },
            indent=2,
        )
    )
    return EXIT_OK


def cmd_mask(args) -> int:
    cfg = _load_cfg(args)
    table_bbox = _parse_bbox(args.table_bbox)
    crop = _load_table(args.image, table_bbox)
    dets = idtp.parse_detections(_read_json(args.detections))
    plan, pmap = idtp.plan_masks(table_bbox, dets, cfg)
    _save_ppm(f"{args.out_prefix}.masked.ppm", idtp.apply_masks(crop, plan))
    refs = []
    # each image is cut from the unmasked table crop, in its local coordinates
    for entry, mask in zip(pmap.entries, plan.masks):
        ref = f"{args.out_prefix}_img{entry.id}.ppm"
        _save_ppm(ref, idtp.crop_buffer(crop, mask.rect))
        refs.append(ref)
    pmap = pmap.with_refs(refs)
    _write_text(f"{args.out_prefix}.map.json", _dumps(pmap.to_dict(table_bbox), indent=2) + "\n")
    print(
        _dumps(
            {"masks": len(plan.masks), "map": f"{args.out_prefix}.map.json"}
        )
    )
    return EXIT_OK


def cmd_restore(args) -> int:
    _load_cfg(args)  # a bad config is refused here as in the other commands
    html = Path(args.html).read_text(encoding="utf-8")
    pmap = idtp.PlaceholderMap.from_dict(_read_json(args.map))
    result = idtp.restore_images(html, pmap, strict_ids=args.strict_ids)
    _write_text(args.out, result.html)
    report = idtp.verify_restoration(result.html, pmap)
    print(
        _dumps(
            {
                "found": result.found,
                "expected": result.expected,
                "rewrites": result.rewrites,
                "count_mismatch": result.count_mismatch,
                "verification": report.to_dict(),
            },
            indent=2,
        )
    )
    if result.count_mismatch:
        _diag(
            "count_mismatch",
            f"found {result.found} placeholder tags, expected {result.expected}",
        )
        return EXIT_DOMAIN
    return EXIT_OK


def _format_eval_table(rows: list[dict]) -> str:
    lines = []
    header = ("index", "kind", "metric", "value")
    table = [header]
    for row in rows:
        for name, value in row["metrics"].items():
            table.append((str(row["index"]), row["kind"], name, f"{value:.6f}"))
    widths = [max(len(r[c]) for r in table) for c in range(4)]
    for r, row_cells in enumerate(table):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row_cells, widths)).rstrip())
        if r == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def cmd_eval(args) -> int:
    rows = metrics.evaluate_batch(_read_json(args.batch))
    print(_format_eval_table(rows))
    if args.json_out:
        _write_text(args.json_out, _dumps(rows, indent=2) + "\n")
    return EXIT_OK


def _candidate_htmls(candidates) -> list[str]:
    if not isinstance(candidates, list):
        raise FormatError("candidates file must be a JSON array")
    htmls = []
    for pos, candidate in enumerate(candidates):
        html = candidate.get("html") if isinstance(candidate, dict) else candidate
        if not isinstance(html, str):
            raise FormatError(
                f'candidate {pos} is neither an HTML string nor an object with an "html" string'
            )
        htmls.append(html)
    return htmls


def cmd_reward(args) -> int:
    cfg = _load_cfg(args)
    if args.expected_placeholders is not None and args.expected_placeholders < 0:
        raise FormatError(f"--expected-placeholders must be >= 0, got {args.expected_placeholders}")
    htmls = _candidate_htmls(_read_json(args.candidates))
    gt_html = Path(args.gt).read_text(encoding="utf-8")
    expected = args.expected_placeholders
    if expected is None:
        expected = sum(1 for _ in table_grid.img_tags(gt_html))
    scorer = cfg.reward_scorer()
    out_rows = []
    reward_values = []
    for html in htmls:
        report = rewards.rule_checks(html, expected, cfg)
        row = {"rule": report.to_dict(), "model_score": None, "reward": report.score}
        if scorer is not None:
            # the canonical re-serialization of the grid rule_checks parsed
            rendered = "" if report.grid is None else table_grid.serialize_grid(report.grid)
            model_score = scorer(
                {
                    "original_descriptor": gt_html,
                    "candidate_html": html,
                    "rendered_canonical": rendered,
                }
            )
            row["model_score"] = model_score
            row["reward"] = rewards.composite_reward(report.score, model_score, cfg.w_rule)
        reward_values.append(row["reward"])
        out_rows.append(row)
    advantages = rewards.group_advantages(reward_values, cfg.eps) if reward_values else []
    for row, adv in zip(out_rows, advantages):
        row["advantage"] = adv
    print(_dumps({"candidates": out_rows}, indent=2))
    return EXIT_OK


def cmd_pairs(args) -> int:
    sources = []
    for item in args.gt:
        path = Path(item)
        if path.is_dir():
            sources.extend(sorted(path.glob("*.html")))
        else:
            sources.append(path)
    if not sources:
        raise FormatError("no ground-truth tables found")
    try:
        kinds = (
            [rewards.PerturbationKind(k) for k in args.kinds.split(",")]
            if args.kinds
            else list(rewards.PerturbationKind)
        )
    except ValueError as exc:  # an unknown kind
        raise FormatError(str(exc)) from None
    written = skipped = 0
    with _output(args.out) as fh:
        for source in sources:
            gt_html = source.read_text(encoding="utf-8")
            if args.seeds <= 0:  # no pair is attempted, so nothing is parsed
                continue
            grid = table_grid.parse_grid(gt_html)
            for seed in range(args.seeds):
                for kind in kinds:
                    try:
                        pair = rewards.perturb_table(grid, kind, seed)
                    except rewards.InapplicablePerturbation:
                        skipped += 1
                        continue
                    record = {"source": str(source), "seed": seed, **pair.to_dict()}
                    fh.write(_dumps(record) + "\n")
                    written += 1
    print(_dumps({"written": written, "skipped": skipped, "out": args.out}))
    return EXIT_OK


# -- argument parsing -----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Bad arguments raise :class:`FormatError`, so they exit 2 with a JSON
    diagnostic like any other format error; ``--help`` still exits 0."""

    def error(self, message):
        raise FormatError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="docpost",
        description="Post-processing toolkit for two-stage document parsers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("assemble", help="validate layout, restore, merge, and assemble")
    p.add_argument("layout", help="layout JSON (array, page object, or {'pages': [...]})")
    p.add_argument("fixture", help="recognition fixture JSON")
    p.add_argument("-o", "--out", required=True, help="output document path")
    p.add_argument("--detections-dir", help="directory of page<p>_el<i>.json detection files")
    p.add_argument("--format", choices=["markdown", "html"], default="markdown")
    p.add_argument("--include-headers-footers", action="store_true")
    p.add_argument("--config")
    p.set_defaults(func=cmd_assemble)

    p = sub.add_parser("merge", help="merge table fragment HTML files")
    p.add_argument("fragments", nargs="+", help="fragment HTML files in reading order")
    p.add_argument("--out-prefix", default="merged", help="output file prefix")
    p.add_argument("--config")
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("mask", help="plan and apply placeholder masks on a table crop")
    p.add_argument("image", help="page image (PPM, or PNG/JPEG with Pillow)")
    p.add_argument("detections", help="detections JSON array")
    p.add_argument("--table-bbox", required=True, help="x1,y1,x2,y2 in page pixels")
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--config")
    p.set_defaults(func=cmd_mask)

    p = sub.add_parser("restore", help="restore image refs into recognized table HTML")
    p.add_argument("html", help="recognized table HTML file")
    p.add_argument("map", help="placeholder map JSON")
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--strict-ids", action="store_true", help="match placeholder://<id> by id")
    p.add_argument("--config")
    p.set_defaults(func=cmd_restore)

    p = sub.add_parser("eval", help="run metrics over a batch file")
    p.add_argument("batch", help='JSON array of {"pred", "gt", "kind"}')
    p.add_argument("--json-out", help="also write rows as JSON")
    p.add_argument(
        "--jobs", type=int, default=1, help="accepted and ignored: entries are scored serially"
    )
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("reward", help="score candidate tables against a ground truth")
    p.add_argument("candidates", help="JSON array of candidate HTML strings")
    p.add_argument("gt", help="ground-truth table HTML file")
    p.add_argument("--expected-placeholders", type=int)
    p.add_argument("--config")
    p.set_defaults(func=cmd_reward)

    p = sub.add_parser("pairs", help="generate positive/negative table pairs")
    p.add_argument("gt", nargs="+", help="ground-truth HTML files or directories")
    p.add_argument("--seeds", type=int, default=1, help="seeds 0..N-1 per kind")
    p.add_argument("--kinds", help="comma-separated perturbation kinds")
    p.add_argument("--out", required=True, help="output JSONL path")
    p.set_defaults(func=cmd_pairs)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # Built once per process: in-process callers of main() would otherwise
    # rebuild every subparser, and leave cyclic garbage, on each command.
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        return args.func(args)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        _diag("io", str(exc))
        return EXIT_IO
    except FormatError as exc:
        _diag(type(exc).__name__, str(exc))
        return EXIT_IO
    except DomainError as exc:
        _diag(type(exc).__name__, str(exc))
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
