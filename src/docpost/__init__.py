"""Post-processing toolkit for two-stage document parsers.

Every submodule but ``cli`` and ``errors`` is registered lazily, in
``sys.modules`` and as an attribute here: its source runs on the first
attribute access, so a command loads only the modules it uses. The public
names below resolve through ``__getattr__`` (PEP 562) to their modules.
"""

import importlib.util
import sys
import threading
import types

from .errors import DomainError, FormatError

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOME = {
    **dict.fromkeys(
        ("GridCell", "TableGrid", "detect_header_rows", "parse_grid", "serialize_grid"),
        "table_grid",
    ),
    **dict.fromkeys(("MergePlan", "Pattern", "decide_merge", "merge"), "table_merge"),
    **dict.fromkeys(
        (
            "ImageDetection", "MaskPlan", "PlaceholderMap", "apply_masks", "plan_masks",
            "restore_images", "verify_restoration",
        ),
        "idtp",
    ),
    **dict.fromkeys(
        (
            "LayoutElement", "LayoutPage", "assemble", "crop_plan", "parse_layout",
            "pipeline_run", "route_region",
        ),
        "layout",
    ),
    **dict.fromkeys(
        ("edit_distance", "reading_order_edit", "teds", "tree_edit_distance"), "metrics"
    ),
    **dict.fromkeys(
        (
            "PerturbationKind", "composite_reward", "group_advantages", "perturb_table",
            "rule_checks",
        ),
        "rewards",
    ),
    **dict.fromkeys(("Config", "load_config", "save_config"), "config"),
}

__all__ = ["DomainError", "FormatError", *_HOME]


class _LazyModule(types.ModuleType):
    """A registered submodule whose source has not run yet.

    The first attribute access (or assignment or deletion, so that the
    source cannot overwrite it) runs the source and leaves a plain module.
    ``importlib.util.LazyLoader`` of CPython 3.11 and 3.12.1 makes the
    module plain before running it, so a second thread could read a half-run
    module; here the run holds one lock and later threads wait for it.
    """

    def __getattribute__(self, attr):
        _load(self)
        return types.ModuleType.__getattribute__(self, attr)

    def __setattr__(self, attr, value):
        _load(self)
        types.ModuleType.__setattr__(self, attr, value)

    def __delattr__(self, attr):
        _load(self)
        types.ModuleType.__delattr__(self, attr)


_LOAD_LOCK = threading.RLock()
_loading: set[int] = set()  # ids of modules whose source is running


def _load(module: types.ModuleType) -> None:
    with _LOAD_LOCK:
        # the running source reads its own module (exec reads __dict__,
        # dataclasses read sys.modules[cls.__module__]): those reads pass
        if type(module) is _LazyModule and id(module) not in _loading:
            _loading.add(id(module))
            try:
                object.__getattribute__(module, "__spec__").loader.exec_module(module)
            finally:
                _loading.discard(id(module))
            object.__setattr__(module, "__class__", types.ModuleType)


def _register_lazy(name: str) -> None:
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    module = importlib.util.module_from_spec(spec)
    module.__class__ = _LazyModule
    sys.modules[spec.name] = module
    globals()[name] = module


for _name in (
    "_external", "config", "idtp", "json_reader", "layout", "metrics", "rewards",
    "table_grid", "table_merge",
):
    _register_lazy(_name)
del _name


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[home], name)


def __dir__():
    return sorted({*globals(), *__all__})
