"""Online high-quality anchor mining for anchor-based face detection.

Library surface: box geometry and delta coding, pyramid anchor grids, the
baseline matching strategies plus online compensation, the regression-aware
focal loss with analytic gradients, dataset matching statistics, and a
synthetic regression head for end-to-end simulation. See the CLI
(``hambox --help``) for the CSV-emitting commands.
"""

from .anchors import AnchorConfig, AnchorGrid, default_hambox_config, generate_anchors, grid_overlaps
from .assignment import (
    Assignment,
    MatchParams,
    match_first_step,
    match_nams,
    match_two_step,
)
from .geometry import Box, BoxDelta, Overlaps, decode, encode, iou, nms, overlaps, pairwise_iou
from .ingest import (
    FaceAnnotation,
    ImageRecord,
    ToolConfig,
    filter_valid,
    load_config,
    load_wider_annotations,
    parse_wider_annotations,
)
from .losses import (
    LossBreakdown,
    LossParams,
    cls_loss_grad,
    location_loss,
    regression_aware_cls_loss,
    sigmoid_focal,
)
from .mining import (
    AnchorQuality,
    CompensationParams,
    compensate,
    compute_quality,
    ignore_mask,
)
from .simulator import (
    MinedIteration,
    RegressorModel,
    SimulationRecord,
    linear_ramp,
    mine_image,
    run_simulation,
    simulate_regression,
    synthetic_dataset,
)
from .stats import (
    EmptyDatasetError,
    MatchCensus,
    ProvenanceReport,
    ScaleCurvePoint,
    combine_reports,
    dataset_census,
    provenance_csv,
    provenance_report,
    scale_ratio_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "AnchorConfig",
    "AnchorGrid",
    "AnchorQuality",
    "Assignment",
    "Box",
    "BoxDelta",
    "CompensationParams",
    "EmptyDatasetError",
    "FaceAnnotation",
    "ImageRecord",
    "LossBreakdown",
    "LossParams",
    "MatchCensus",
    "MatchParams",
    "MinedIteration",
    "Overlaps",
    "ProvenanceReport",
    "RegressorModel",
    "ScaleCurvePoint",
    "SimulationRecord",
    "ToolConfig",
    "cls_loss_grad",
    "combine_reports",
    "compensate",
    "compute_quality",
    "dataset_census",
    "decode",
    "default_hambox_config",
    "encode",
    "filter_valid",
    "generate_anchors",
    "grid_overlaps",
    "ignore_mask",
    "iou",
    "linear_ramp",
    "load_config",
    "load_wider_annotations",
    "location_loss",
    "match_first_step",
    "match_nams",
    "match_two_step",
    "mine_image",
    "nms",
    "overlaps",
    "pairwise_iou",
    "parse_wider_annotations",
    "provenance_csv",
    "provenance_report",
    "regression_aware_cls_loss",
    "run_simulation",
    "scale_ratio_sweep",
    "sigmoid_focal",
    "simulate_regression",
    "synthetic_dataset",
]
