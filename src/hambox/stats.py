"""Diagnostic statistics: scale-ratio curves, prediction provenance, IoU CDFs.

The dataset-level counters use a windowed candidate search instead of
materializing full anchor grids: a face can only hold anchors whose center
falls inside its overlap window, and a (face, level) pair whose box areas
differ by more than the IoU threshold allows can never produce a positive.
Within the candidate set the per-anchor argmax and tie-breaks are identical
to the dense matcher, so counts agree exactly with brute force over the full
grid (the tests assert this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .anchors import AnchorConfig, AnchorGrid, cover_image_size, grid_shape
from .assignment import BACKGROUND, SOURCE_STEP1, Assignment
from .geometry import Box, as_box_array, elementwise_iou, nms
from .ingest import ImageRecord, _map_images, filter_valid
from .mining import HIGH_QUALITY_IOU, AnchorQuality

CPBB_IOU = 0.5  # a prediction is correct when it clears this IoU against some face


class EmptyDatasetError(ValueError):
    """No usable faces remain after filtering."""


@dataclass(frozen=True)
class ScaleCurvePoint:
    scale_ratio: float
    mean_anchors_per_face: float
    fraction_faces_matched: float


@dataclass(frozen=True)
class MatchCensus:
    """First-step matching totals over a dataset."""

    total_faces: int
    matched_faces: int
    total_positives: int
    matched_faces_per_level: np.ndarray = field(repr=False)  # (L,) faces with a positive on level

    @property
    def mean_anchors_per_face(self) -> float:
        return self.total_positives / self.total_faces if self.total_faces else 0.0

    @property
    def fraction_faces_matched(self) -> float:
        return self.matched_faces / self.total_faces if self.total_faces else 0.0


@dataclass
class ProvenanceReport:
    """Where correct predictions come from, before and after suppression."""

    n_cpbb: int
    n_cpbb_from_matched: int
    n_hq: int
    n_hq_unmatched: int
    n_faces: int
    faces_matched_anchor: int
    faces_matched_cpbb: int
    faces_matched_cpbb_post_nms: int
    iou_cdf: np.ndarray = field(repr=False)  # ascending step-1 anchor-to-face IoUs

    @property
    def frac_cpbb_from_matched(self) -> float:
        return self.n_cpbb_from_matched / self.n_cpbb if self.n_cpbb else 0.0

    @property
    def frac_hq_unmatched(self) -> float:
        return self.n_hq_unmatched / self.n_hq if self.n_hq else 0.0


def valid_face_boxes(record: ImageRecord) -> np.ndarray:
    """The record's face boxes that `filter_valid` keeps."""
    return filter_valid([record])[0].face_boxes()


def _image_census(
    faces: np.ndarray,
    config: AnchorConfig,
    iou_threshold: float,
    image_size: tuple[int, int] | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-face positive counts (F,) and per-face-per-level matched flags (F, L)."""
    n_faces = faces.shape[0]
    n_levels = len(config.levels)
    counts = np.zeros(n_faces, dtype=np.int64)
    level_hit = np.zeros((n_faces, n_levels), dtype=bool)
    if n_faces == 0:
        return counts, level_hit
    w, h = image_size if image_size is not None else cover_image_size(faces, config)
    face_w = faces[:, 2] - faces[:, 0]
    face_h = faces[:, 3] - faces[:, 1]
    face_area = face_w * face_h
    for li, (stride, _) in enumerate(config.levels):
        rows, cols = grid_shape(stride, w, h)
        aw, ah = config.anchor_size(li)
        a_area = aw * ah
        # Area-ratio bound: IoU <= min(A_a, A_f) / max(A_a, A_f).
        bound = np.minimum(a_area, face_area) / np.maximum(a_area, face_area)
        cand = np.flatnonzero(bound >= iou_threshold)
        if cand.size == 0:
            continue
        col_lo = np.clip(np.ceil((faces[cand, 0] - aw / 2.0) / stride - 0.5), 0, cols - 1).astype(np.int64)
        col_hi = np.clip(np.floor((faces[cand, 2] + aw / 2.0) / stride - 0.5), 0, cols - 1).astype(np.int64)
        row_lo = np.clip(np.ceil((faces[cand, 1] - ah / 2.0) / stride - 0.5), 0, rows - 1).astype(np.int64)
        row_hi = np.clip(np.floor((faces[cand, 3] + ah / 2.0) / stride - 0.5), 0, rows - 1).astype(np.int64)
        n_cols = col_hi - col_lo + 1
        n_rows = row_hi - row_lo + 1
        keep = (n_cols > 0) & (n_rows > 0)
        if not np.any(keep):
            continue
        cand, col_lo, col_hi, row_lo, row_hi, n_cols, n_rows = (
            arr[keep] for arr in (cand, col_lo, col_hi, row_lo, row_hi, n_cols, n_rows)
        )
        # Expand each face window into (face, row, col) candidate triples.
        per_face = n_cols * n_rows
        face_idx = np.repeat(np.arange(cand.size), per_face)
        offs = np.arange(per_face.sum()) - np.repeat(np.cumsum(per_face) - per_face, per_face)
        rr = row_lo[face_idx] + offs // n_cols[face_idx]
        cc = col_lo[face_idx] + offs % n_cols[face_idx]
        cx = cc.astype(np.float64) * stride + stride / 2.0
        cy = rr.astype(np.float64) * stride + stride / 2.0
        fb = faces[cand[face_idx]]
        iw = np.minimum(cx + aw / 2.0, fb[:, 2]) - np.maximum(cx - aw / 2.0, fb[:, 0])
        ih = np.minimum(cy + ah / 2.0, fb[:, 3]) - np.maximum(cy - ah / 2.0, fb[:, 1])
        inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
        union = a_area + face_area[cand[face_idx]] - inter
        iou = np.where(union > 0.0, inter / union, 0.0)
        # Per-anchor argmax with the dense tie-breaks: IoU desc, face index asc.
        cell = rr * cols + cc
        order = np.lexsort((cand[face_idx], -iou, cell))
        first = np.ones(order.size, dtype=bool)
        first[1:] = cell[order][1:] != cell[order][:-1]
        winners = order[first]
        pos = winners[iou[winners] >= iou_threshold]
        if pos.size == 0:
            continue
        pos_faces = cand[face_idx[pos]]
        counts += np.bincount(pos_faces, minlength=n_faces)
        level_hit[np.unique(pos_faces), li] = True
    return counts, level_hit


def dataset_census(
    dataset: Sequence[ImageRecord],
    config: AnchorConfig,
    iou_threshold: float,
    image_sizes: Sequence[tuple[int, int]] | None = None,
    threads: int = 1,
) -> MatchCensus:
    """First-step match totals across a dataset without materializing grids.

    Requires a strictly positive IoU threshold (zero-overlap anchors are
    outside every candidate window). Invalid and degenerate faces are
    excluded before matching.
    """
    if iou_threshold <= 0.0:
        raise ValueError(f"iou_threshold must be > 0 for census counting, got {iou_threshold}")
    face_sets = [valid_face_boxes(rec) for rec in dataset]

    def work(i: int):
        size = image_sizes[i] if image_sizes is not None else None
        return _image_census(face_sets[i], config, iou_threshold, size)

    results = _map_images(work, len(dataset), threads)
    total_faces = sum(f.shape[0] for f in face_sets)
    matched = sum(int(np.count_nonzero(c > 0)) for c, _ in results)
    positives = sum(int(c.sum()) for c, _ in results)
    per_level = np.zeros(len(config.levels), dtype=np.int64)
    for _, hits in results:
        per_level += hits.sum(axis=0)
    return MatchCensus(
        total_faces=total_faces,
        matched_faces=matched,
        total_positives=positives,
        matched_faces_per_level=per_level,
    )


def scale_ratio_sweep(
    dataset: Sequence[ImageRecord],
    base_config: AnchorConfig,
    ratios: Sequence[float],
    iou_threshold: float,
    image_sizes: Sequence[tuple[int, int]] | None = None,
    threads: int = 1,
) -> list[ScaleCurvePoint]:
    """First-step matching statistics per global anchor scale ratio."""
    if any(r <= 0 for r in ratios):
        raise ValueError("ratios must be positive")
    points = []
    checked_empty = False
    for ratio in ratios:
        census = dataset_census(
            dataset,
            base_config.with_scale_ratio(ratio),
            iou_threshold,
            image_sizes=image_sizes,
            threads=threads,
        )
        if not checked_empty:
            if census.total_faces == 0:
                raise EmptyDatasetError("no valid faces in dataset after filtering")
            checked_empty = True
        points.append(
            ScaleCurvePoint(
                scale_ratio=float(ratio),
                mean_anchors_per_face=census.mean_anchors_per_face,
                fraction_faces_matched=census.fraction_faces_matched,
            )
        )
    return points


def provenance_report(
    assignment: Assignment,
    grid: AnchorGrid,
    quality: AnchorQuality,
    regressed: Sequence[Box] | np.ndarray,
    scores: Sequence[float] | np.ndarray,
    faces: Sequence[Box] | np.ndarray,
    nms_threshold: float,
) -> ProvenanceReport:
    """Provenance statistics for one image's predictions.

    Correct predictions (strictly above the 0.5 IoU bar) are attributed to
    first-step matched vs unmatched anchors; face-level counts track how many
    faces keep a correct matched prediction before and after NMS. The CDF
    sample holds the anchor-to-face IoU of every first-step positive.
    """
    regressed = as_box_array(regressed)
    faces = as_box_array(faces)
    scores = np.asarray(scores, dtype=np.float64)
    step1 = assignment.source == SOURCE_STEP1
    cpbb = quality.F > CPBB_IOU
    n_cpbb = int(cpbb.sum())
    n_cpbb_matched = int((cpbb & step1).sum())
    hq = quality.F >= HIGH_QUALITY_IOU
    n_hq = int(hq.sum())
    n_hq_unmatched = int((hq & (assignment.face_of == BACKGROUND)).sum())

    n_faces = faces.shape[0]
    faces_matched = int(np.count_nonzero(assignment.matched_count > 0)) if n_faces else 0

    # Step-1 anchors whose regressed box is a correct prediction of their own face.
    step1_idx = np.flatnonzero(step1)
    own = assignment.face_of[step1_idx]
    good = elementwise_iou(regressed[step1_idx], faces[own]) > CPBB_IOU
    faces_cpbb = np.unique(own[good]).size

    # Post-NMS survival of an anchor depends only on boxes of equal or higher
    # score, so suppression is run on that subset of the dump; verdicts for
    # the queried step-1 anchors are identical to full-set NMS.
    survived = np.zeros(good.size, dtype=bool)
    if np.any(good):
        subset = np.flatnonzero(scores >= scores[step1_idx[good]].min())
        kept_mask = np.zeros(assignment.n_anchors, dtype=bool)
        kept_mask[subset[nms(regressed[subset], scores[subset], nms_threshold)]] = True
        survived = good & kept_mask[step1_idx]
    faces_cpbb_post = np.unique(own[survived]).size

    iou_cdf = np.sort(elementwise_iou(grid.boxes[step1_idx], faces[own]))
    return ProvenanceReport(
        n_cpbb=n_cpbb,
        n_cpbb_from_matched=n_cpbb_matched,
        n_hq=n_hq,
        n_hq_unmatched=n_hq_unmatched,
        n_faces=n_faces,
        faces_matched_anchor=faces_matched,
        faces_matched_cpbb=faces_cpbb,
        faces_matched_cpbb_post_nms=faces_cpbb_post,
        iou_cdf=iou_cdf,
    )


def combine_reports(reports: Sequence[ProvenanceReport]) -> ProvenanceReport:
    """Pool per-image provenance reports: counts add, CDF samples merge."""
    if not reports:
        raise ValueError("no reports to combine")
    return ProvenanceReport(
        n_cpbb=sum(r.n_cpbb for r in reports),
        n_cpbb_from_matched=sum(r.n_cpbb_from_matched for r in reports),
        n_hq=sum(r.n_hq for r in reports),
        n_hq_unmatched=sum(r.n_hq_unmatched for r in reports),
        n_faces=sum(r.n_faces for r in reports),
        faces_matched_anchor=sum(r.faces_matched_anchor for r in reports),
        faces_matched_cpbb=sum(r.faces_matched_cpbb for r in reports),
        faces_matched_cpbb_post_nms=sum(r.faces_matched_cpbb_post_nms for r in reports),
        iou_cdf=np.sort(np.concatenate([r.iou_cdf for r in reports])),
    )


def provenance_csv(report: ProvenanceReport) -> str:
    """Render a report as ``field,value`` rows; the CDF is space-joined."""
    rows = [
        ("n_cpbb", str(report.n_cpbb)),
        ("frac_cpbb_from_matched", f"{report.frac_cpbb_from_matched:.10g}"),
        ("frac_hq_unmatched", f"{report.frac_hq_unmatched:.10g}"),
        ("n_faces", str(report.n_faces)),
        ("faces_matched_anchor", str(report.faces_matched_anchor)),
        ("faces_matched_cpbb", str(report.faces_matched_cpbb)),
        ("faces_matched_cpbb_post_nms", str(report.faces_matched_cpbb_post_nms)),
        ("iou_cdf", " ".join(f"{v:.10g}" for v in report.iou_cdf)),
    ]
    return "field,value\n" + "\n".join(f"{k},{v}" for k, v in rows) + "\n"
