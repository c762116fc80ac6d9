"""Post-processing toolkit for two-stage document parsers."""

__version__ = "0.1.0"

from .table_grid import (  # noqa: F401
    GridCell,
    TableGrid,
    detect_header_rows,
    parse_grid,
    serialize_grid,
)
from .table_merge import (  # noqa: F401
    MergePlan,
    Pattern,
    decide_merge,
    merge,
)
from .idtp import (  # noqa: F401
    ImageDetection,
    MaskPlan,
    PlaceholderMap,
    apply_masks,
    plan_masks,
    restore_images,
    verify_restoration,
)
from .layout import (  # noqa: F401
    LayoutElement,
    LayoutPage,
    assemble,
    crop_plan,
    parse_layout,
    pipeline_run,
    route_region,
)
from .metrics import (  # noqa: F401
    edit_distance,
    reading_order_edit,
    teds,
    tree_edit_distance,
)
from .rewards import (  # noqa: F401
    PerturbationKind,
    composite_reward,
    group_advantages,
    perturb_table,
    rule_checks,
)
from .config import Config, load_config, save_config  # noqa: F401
from .errors import DomainError, FormatError  # noqa: F401
