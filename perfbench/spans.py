"""Timing spans around calls into docpost's public functions.

The tracer replaces a function in every ``docpost`` module that binds it
(``from .table_grid import parse_grid`` makes separate bindings in layout,
idtp, metrics and rewards), so calls made between modules are caught as
well as calls from the CLI. Nothing inside ``src/docpost`` changes.
``install`` and ``uninstall`` swap the bindings in and out, so traced and
untraced rounds can run in one process.

Spans are kept in flat arrays (name id, start, end, parent) and written out
when the run ends; self time is a span's duration minus the time its direct
children cover.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from time import perf_counter_ns


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self._swapped: list[tuple[object, str, object]] = []
        self._merge_results: list = []

    # -- spans -------------------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        idx = len(self.start)
        self.name_of.append(self._nid(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(idx)
        self.start[idx] = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = perf_counter_ns()
            self._stack.pop()

    def count(self, key: str, n: int = 1):
        self.counts[key] = self.counts.get(key, 0) + n

    def self_times(self) -> dict[str, tuple[int, int]]:
        """name -> (calls, self time in ns)."""
        covered = [0] * len(self.start)
        for i in range(len(self.start)):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        out: dict[str, list[int]] = {}
        for i in range(len(self.start)):
            agg = out.setdefault(self.names[self.name_of[i]], [0, 0])
            agg[0] += 1
            agg[1] += self.end[i] - self.start[i] - covered[i]
        return {k: (v[0], v[1]) for k, v in out.items()}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps({
                    "name": self.names[self.name_of[i]],
                    "start_ns": self.start[i],
                    "end_ns": self.end[i],
                    "parent": self.parent[i],
                }) + "\n")

    # -- wrapping ------------------------------------------------------------------

    def _wrap(self, fn, name, after=None):
        tracer = self
        name_of = name if callable(name) else (lambda args, kwargs: name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = tracer.call(name_of(args, kwargs), fn, *args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counting(self, fn, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, kwargs, result)
            return result

        return wrapper

    def _replace(self, module: str, attr: str, wrapper_for) -> None:
        original = getattr(sys.modules[f"docpost.{module}"], attr)
        wrapper = wrapper_for(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "docpost" and not mod_name.startswith("docpost."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._swapped.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self) -> None:
        """Bind every traced function's wrapper in every docpost module."""
        if self._swapped:
            return
        count = self.count
        for module, attr, after in LAYER_FUNCTIONS:
            name = f"{module}.{attr}"
            if (module, attr) == ("metrics", "teds"):
                name = _teds_name
            hook = None if after is None else functools.partial(after, self)
            self._replace(module, attr, lambda fn, n=name, h=hook: self._wrap(fn, n, h))

        def fold_done(args, kwargs, result):
            tables, _ = result
            merged = {id(t) for t in self._merge_results}
            count("table_merge.output_rows", sum(t.n_rows for t in tables if id(t) in merged))
            self._merge_results.clear()

        self._replace("table_merge", "merge_fragment_sequence_with_plans",
                      lambda fn: self._counting(fn, fold_done))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._swapped):
            setattr(mod, key, original)
        self._swapped.clear()


def _teds_name(args, kwargs):
    structure = _arg(args, kwargs, 2, "structure_only", False)
    return "metrics.teds_structure" if structure else "metrics.teds_content"


def _parsed_cells(tracer, args, kwargs, grid):
    tracer.count("table_grid.parsed_cells", len(grid.cells))


def _masked_pixels(tracer, args, kwargs, result):
    plan = _arg(args, kwargs, 1, "plan")
    tracer.count("idtp.masked_pixels", sum(
        (m.rect[2] - m.rect[0]) * (m.rect[3] - m.rect[1]) for m in plan.masks
    ))


def _rows_laid(tracer, args, kwargs, grid):
    tracer.count("table_merge.rows_laid", grid.n_rows)
    tracer._merge_results.append(grid)


def _node_pairs(tracer, args, kwargs, result):
    t1, t2 = _arg(args, kwargs, 0, "t1"), _arg(args, kwargs, 1, "t2")
    if t1 is not None and t2 is not None:
        tracer.count("metrics.ted_node_pairs", t1.size() * t2.size())


def _perturb_applied(tracer, args, kwargs, result):
    tracer.count("rewards.perturb_applied")


# (module, public function, counter hook run after a successful call)
LAYER_FUNCTIONS = (
    ("layout", "pipeline_run", None),
    ("layout", "assemble", None),
    ("layout", "parse_layout_document", None),
    ("layout", "parse_recognition_fixture", None),
    ("idtp", "plan_masks", None),
    ("idtp", "restore_images", None),
    ("idtp", "read_ppm", None),
    ("idtp", "crop_buffer", None),
    ("idtp", "apply_masks", _masked_pixels),
    ("idtp", "write_ppm", None),
    ("table_grid", "parse_grid", _parsed_cells),
    ("table_grid", "serialize_grid", None),
    ("table_grid", "grid_from_cells", None),
    ("table_grid", "detect_header_rows", None),
    ("table_merge", "decide_merge", None),
    ("table_merge", "merge", _rows_laid),
    ("metrics", "teds", None),
    ("metrics", "tree_edit_distance", _node_pairs),
    ("metrics", "normalized_edit_distance", None),
    ("metrics", "edit_distance", None),
    ("metrics", "reading_order_edit", None),
    ("rewards", "perturb_table", _perturb_applied),
    ("rewards", "rule_checks", None),
    ("rewards", "render_candidate", None),
    ("rewards", "group_advantages", None),
)
