"""Online high-quality anchor compensation and the supporting quality signals.

After the first matching step, each face that holds fewer than K positive
anchors may be compensated with extra anchors whose *regressed* boxes overlap
it well: candidates are ranked by the IoU between the face and each anchor's
regression output, and accepted while that IoU is strictly above the online
threshold T, up to the per-face budget of K total positives. Anchors already
positive (to any face, including compensations granted earlier in the same
pass) are skipped, so faces are processed in annotation order and the result
is order-dependent by construction. This is `assignment.claim_best` on the
regressed-by-face pair list.

The same regression outputs define a per-anchor quality score F (best IoU
against any face) used both for the ignore mask and for loss weighting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .anchors import AnchorGrid
from .assignment import BACKGROUND, INT64_MAX, SOURCE_HAMBOX, SOURCE_STEP1, Assignment, claim_best
from .geometry import Box, Overlaps, as_box_array, overlaps

HIGH_QUALITY_IOU = 0.5


@dataclass(frozen=True)
class CompensationParams:
    """Online mining hyperparameters: admission threshold T and per-face budget K."""

    T: float = 0.8
    K: int = 3

    def __post_init__(self) -> None:
        if not 0.0 <= self.T <= 1.0:
            raise ValueError(f"T must be in [0, 1], got {self.T}")
        if not 1 <= self.K <= INT64_MAX:
            raise ValueError(f"K must be in [1, {INT64_MAX}], got {self.K}")


@dataclass
class AnchorQuality:
    """Per-anchor regression quality.

    `F[i]` is the best IoU between anchor i's regressed box and any face
    (0 with no faces); anchors with F >= HIGH_QUALITY_IOU regress well.
    """

    F: np.ndarray = field(repr=False)  # (N,) float64


def compute_quality(
    regressed: Sequence[Box] | np.ndarray, faces: Sequence[Box] | np.ndarray
) -> AnchorQuality:
    """Score every regressed box by its best IoU against the faces."""
    regressed = as_box_array(regressed)
    return _quality(overlaps(regressed, as_box_array(faces)), regressed.shape[0])


def _quality(pairs: Overlaps, n: int) -> AnchorQuality:
    """compute_quality on the regressed-by-face pair list of `n` boxes, or rows."""
    F = np.zeros(n)
    best = pairs.best()
    F[best.box] = best.iou
    return AnchorQuality(F=F)


def compensate(
    assignment: Assignment,
    grid: AnchorGrid,
    faces: Sequence[Box] | np.ndarray,
    regressed: Sequence[Box] | np.ndarray,
    params: CompensationParams,
) -> Assignment:
    """Grant under-matched faces extra positives mined from the regression output.

    `assignment` must come straight from the first matching step. For each
    face (annotation order) holding fewer than K positives, anchors are
    scanned by descending IoU(face, regressed box) and claimed while that IoU
    is strictly greater than T, skipping anchors that are already positive,
    until the face holds K positives. Claimed anchors get label positive,
    source ``hambox_compensated``, and a target re-encoded against the face.

    Returns a new assignment; the input is not modified.
    """
    faces = as_box_array(faces)
    regressed = as_box_array(regressed)
    if regressed.shape[0] != len(grid):
        raise ValueError(f"expected {len(grid)} regressed boxes, got {regressed.shape[0]}")
    if assignment.n_anchors != len(grid):
        raise ValueError(f"assignment covers {assignment.n_anchors} anchors, grid has {len(grid)}")
    if assignment.n_faces != faces.shape[0]:
        raise ValueError(f"assignment covers {assignment.n_faces} faces, got {faces.shape[0]}")
    if np.any(assignment.source > SOURCE_STEP1):
        raise ValueError("compensate requires a first-step-only assignment")

    return _compensate(assignment, grid.boxes, faces, overlaps(regressed, faces), params)


def _compensate(
    assignment: Assignment,
    boxes: np.ndarray,
    faces: np.ndarray,
    pairs: Overlaps,
    params: CompensationParams,
) -> Assignment:
    """compensate on rows: `boxes` are the rows' anchor boxes, `pairs` the regressed-by-face pair list."""
    out = assignment.copy()
    # Budgets use first-step counts only.
    budget = np.maximum(params.K - assignment.matched_count, 0)
    claim_best(out, boxes, faces, pairs, budget, params.T, SOURCE_HAMBOX)
    return out


def ignore_mask(assignment: Assignment, quality: AnchorQuality) -> np.ndarray:
    """Anchors excluded from both loss terms.

    True exactly for anchors that regress well (high quality) yet stayed
    background: first-step positives and compensated anchors are never
    ignored.
    """
    if quality.F.shape[0] != assignment.n_anchors:
        raise ValueError(
            f"quality covers {quality.F.shape[0]} anchors, assignment has {assignment.n_anchors}"
        )
    return (quality.F >= HIGH_QUALITY_IOU) & (assignment.face_of == BACKGROUND)
