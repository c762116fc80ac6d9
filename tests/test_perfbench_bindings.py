"""The traced benchmark rebinds docpost functions by name; a rename in
docpost must fail here rather than in ``perfbench/run.py --trace 1``."""

import importlib
import importlib.util
from pathlib import Path

import docpost.cli  # noqa: F401  (registers every docpost module; the tracer's lookups load them)

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    spans = load_spans()
    bindings = [(module, attr) for module, attr, _ in spans.LAYER_FUNCTIONS]
    bindings.append(("table_merge", "merge_fragment_sequence_with_plans"))
    missing = [
        f"{module}.{attr}"
        for module, attr in bindings
        if not callable(getattr(importlib.import_module(f"docpost.{module}"), attr, None))
    ]
    assert missing == []


def test_tracer_install_round_trip():
    from docpost import table_merge

    original = table_merge.merge
    tracer = load_spans().Tracer()
    try:
        tracer.install()
        assert table_merge.merge is not original
    finally:
        tracer.uninstall()
    assert table_merge.merge is original
