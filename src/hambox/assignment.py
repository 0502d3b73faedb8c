"""Baseline anchor-to-face matching strategies.

Three strategies are provided:

* first-step only: each anchor goes to its best-IoU face when that IoU
  clears the threshold (``sms`` in the CLI);
* two-step: the first step, then every unmatched face claims its single
  best background anchor (``dms``);
* top-N compensation: the first step, then every unmatched face claims the
  top-N background anchors above a small IoU floor (``nams``).

Both second steps, and the online compensation in ``mining``, are one claim
rule (`claim_best`) with a different pair list, budget and floor. Every step
reads a sparse pair list (``anchors.grid_overlaps`` for the anchors), never an
anchors x faces matrix, and keeps its state on rows: the public matchers
make every anchor of the grid a row, and ``assign`` only the anchors in the
pair list (``anchors._pair_rows``). All tie-breaks are by ascending index so
results are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .anchors import INT64_MAX, AnchorGrid, grid_overlaps
from .geometry import Box, Overlaps, as_box_array, encode_boxes

# Per-anchor provenance codes.
SOURCE_NONE = 0
SOURCE_STEP1 = 1
SOURCE_STEP2 = 2
SOURCE_HAMBOX = 3

SOURCE_NAMES = {
    SOURCE_NONE: "none",
    SOURCE_STEP1: "step1",
    SOURCE_STEP2: "step2_compensated",
    SOURCE_HAMBOX: "hambox_compensated",
}

BACKGROUND = -1


@dataclass(frozen=True)
class MatchParams:
    """Thresholds for the baseline matching strategies.

    `nams_top_n_mode` is either the string ``"mean_matched"`` (N = floored
    mean of per-face matched counts, at least 1) or a fixed positive integer.
    """

    iou_threshold: float = 0.35
    nams_stage2_floor: float = 0.1
    nams_top_n_mode: str | int = "mean_matched"

    def __post_init__(self) -> None:
        if not 0.0 < self.iou_threshold <= 1.0:
            raise ValueError(f"iou_threshold must be in (0, 1], got {self.iou_threshold}")
        if not 0.0 <= self.nams_stage2_floor <= 1.0:
            raise ValueError(f"nams_stage2_floor must be in [0, 1], got {self.nams_stage2_floor}")
        if isinstance(self.nams_top_n_mode, str):
            if self.nams_top_n_mode != "mean_matched":
                raise ValueError(f"unknown nams_top_n_mode {self.nams_top_n_mode!r}")
        elif not 1 <= int(self.nams_top_n_mode) <= INT64_MAX:
            raise ValueError(f"fixed nams_top_n_mode must be in [1, {INT64_MAX}], got {self.nams_top_n_mode}")


@dataclass
class Assignment:
    """Labels and regression targets of a set of anchors, its rows.

    The public matchers give one row per anchor of the grid. The row core
    (`first_step_from_overlaps`, `claim_best`) works on whatever rows its
    pair list indexes, such as only the anchors that meet a face.

    `face_of[i]` is the matched face index or -1 for background. `targets`
    rows are encoded deltas for positives and NaN elsewhere. `source` carries
    the SOURCE_* provenance code, and `matched_count[f]` counts positives
    assigned to face f.
    """

    face_of: np.ndarray = field(repr=False)  # (N,) int64
    targets: np.ndarray = field(repr=False)  # (N, 4) float64
    source: np.ndarray = field(repr=False)  # (N,) uint8
    matched_count: np.ndarray = field(repr=False)  # (F,) int64

    @property
    def n_anchors(self) -> int:
        return self.face_of.shape[0]

    @property
    def n_faces(self) -> int:
        return self.matched_count.shape[0]

    @property
    def positive(self) -> np.ndarray:
        return self.face_of >= 0

    def copy(self) -> "Assignment":
        return Assignment(
            face_of=self.face_of.copy(),
            targets=self.targets.copy(),
            source=self.source.copy(),
            matched_count=self.matched_count.copy(),
        )


def first_step_from_overlaps(
    boxes: np.ndarray, faces: np.ndarray, pairs: Overlaps, params: MatchParams
) -> Assignment:
    """First matching step on a row-by-face pair list.

    `boxes` (R, 4) holds the anchor box of each row, `faces` is the (F, 4)
    box array, and `pairs` lists every (row, face) pair with IoU > 0, as
    `grid_overlaps` or `_pair_rows` give it; callers that need the pairs
    again compute them once and share them. A row in no pair has IoU 0,
    below every allowed threshold.
    """
    n = boxes.shape[0]
    face_of = np.full(n, BACKGROUND, dtype=np.int64)
    targets = np.full((n, 4), np.nan)
    source = np.full(n, SOURCE_NONE, dtype=np.uint8)
    best = pairs.best()  # lower face index on ties, as the dense argmax
    pos = best.iou >= params.iou_threshold
    anchors, owners = best.box[pos], best.face[pos]
    face_of[anchors] = owners
    source[anchors] = SOURCE_STEP1
    targets[anchors] = encode_boxes(boxes[anchors], faces[owners])
    matched = np.bincount(owners, minlength=faces.shape[0]).astype(np.int64)
    return Assignment(face_of, targets, source, matched)


def _two_step(boxes: np.ndarray, faces: np.ndarray, pairs: Overlaps, params: MatchParams) -> Assignment:
    """`match_two_step` on rows, as `first_step_from_overlaps` takes them."""
    assignment = first_step_from_overlaps(boxes, faces, pairs, params)
    budget = (assignment.matched_count == 0).astype(np.int64)
    claim_best(assignment, boxes, faces, pairs, budget, 0.0, SOURCE_STEP2)
    return assignment


def _nams(boxes: np.ndarray, faces: np.ndarray, pairs: Overlaps, params: MatchParams) -> Assignment:
    """`match_nams` on rows, as `first_step_from_overlaps` takes them."""
    assignment = first_step_from_overlaps(boxes, faces, pairs, params)
    if isinstance(params.nams_top_n_mode, str):
        counts = assignment.matched_count[assignment.matched_count > 0]
        top_n = max(1, int(np.floor(counts.mean()))) if counts.size else 1
    else:
        top_n = int(params.nams_top_n_mode)
    budget = np.where(assignment.matched_count == 0, top_n, 0)
    claim_best(assignment, boxes, faces, pairs, budget, params.nams_stage2_floor, SOURCE_STEP2)
    return assignment


# The baseline strategies' rules on rows, by CLI name.
_ROW_MATCHERS = {"sms": first_step_from_overlaps, "dms": _two_step, "nams": _nams}


def _on_grid(rule, grid: AnchorGrid, faces: Sequence[Box] | np.ndarray, params: MatchParams) -> Assignment:
    """`rule` with every anchor of the grid as a row."""
    faces = as_box_array(faces)
    return rule(grid.boxes, faces, grid_overlaps(grid, faces), params)


def match_first_step(
    grid: AnchorGrid, faces: Sequence[Box] | np.ndarray, params: MatchParams
) -> Assignment:
    """Assign each anchor to its maximum-IoU face when that IoU >= the threshold."""
    return _on_grid(first_step_from_overlaps, grid, faces, params)


def match_two_step(
    grid: AnchorGrid, faces: Sequence[Box] | np.ndarray, params: MatchParams
) -> Assignment:
    """First step, then each unmatched face claims its best background anchor.

    Faces are processed in annotation order; a claim succeeds even below the
    IoU threshold but requires a strictly positive IoU. Claimed anchors are
    unavailable to later faces.
    """
    return _on_grid(_two_step, grid, faces, params)


def match_nams(
    grid: AnchorGrid, faces: Sequence[Box] | np.ndarray, params: MatchParams
) -> Assignment:
    """First step, then each unmatched face claims top-N background anchors.

    N comes from `params.nams_top_n_mode`; candidates need IoU strictly above
    `params.nams_stage2_floor` and are ranked by IoU descending with
    ascending-index tie-break.
    """
    return _on_grid(_nams, grid, faces, params)


def claim_best(
    assignment: Assignment,
    boxes: np.ndarray,
    faces: np.ndarray,
    pairs: Overlaps,
    budget: np.ndarray,
    floor: float,
    source: int,
) -> None:
    """Let each face claim up to `budget[f]` background rows, in place.

    `boxes` holds each row's anchor box, and `pairs` indexes the same rows
    as `assignment`. Faces go in annotation order, so a claimed row is gone
    for later faces. A candidate is a pair of `pairs` with IoU strictly
    above `floor`; candidates go by IoU descending, the lower row (so the
    lower anchor index) first on ties. Claimed rows get `source` and a
    target encoded against their face.
    """
    background = assignment.face_of == BACKGROUND
    cand = (pairs.iou > floor) & (budget[pairs.face] > 0) & background[pairs.box]
    anchor, face, iou = pairs.box[cand], pairs.face[cand], pairs.iou[cand]
    order = np.lexsort((anchor, -iou, face))
    anchor, face = anchor[order], face[order]
    bounds = np.flatnonzero(np.diff(face, prepend=-1, append=-1))
    claimed = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        f = face[lo]
        take = anchor[lo:hi][background[anchor[lo:hi]]][: budget[f]]
        background[take] = False
        assignment.face_of[take] = f
        assignment.matched_count[f] += take.size
        claimed.append(take)
    if claimed:
        claimed = np.concatenate(claimed)
        assignment.source[claimed] = source
        assignment.targets[claimed] = encode_boxes(boxes[claimed], faces[assignment.face_of[claimed]])
