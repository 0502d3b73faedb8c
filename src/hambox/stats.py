"""Diagnostic statistics: scale-ratio curves, prediction provenance, IoU CDFs.

The dataset-level counters use a windowed candidate search instead of
materializing full anchor grids: a face can only hold anchors whose center
falls inside its overlap window, and a (face, level) pair whose box areas
differ by more than the IoU threshold allows can never produce a positive.
One window search covers every pyramid level. Within the candidate set the
per-anchor argmax and tie-breaks are identical to the dense matcher, so
counts agree exactly with brute force over the full grid (the tests assert
this). A run walks the dataset once, reducing each image to a few integers
per anchor config, so a scale-ratio sweep reads every record once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .anchors import AnchorConfig, AnchorGrid, _expand_windows, _lattice, cover_image_size
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
    w, h = image_size if image_size is not None else cover_image_size(faces, config)
    strides, aw, ah, rows, cols, start = _lattice(config, w, h)
    a_area = aw * ah
    face_area = (faces[:, 2] - faces[:, 0]) * (faces[:, 3] - faces[:, 1])
    # Area-ratio bound: IoU <= min(A_a, A_f) / max(A_a, A_f), over (F, L).
    bound = np.minimum(a_area, face_area[:, None]) / np.maximum(a_area, face_area[:, None])
    fi, li = np.nonzero(bound >= iou_threshold)
    stride, hw, hh = strides[li], aw[li] / 2.0, ah[li] / 2.0
    col_lo = np.clip(np.ceil((faces[fi, 0] - hw) / stride - 0.5), 0, cols[li] - 1).astype(np.int64)
    col_hi = np.clip(np.floor((faces[fi, 2] + hw) / stride - 0.5), 0, cols[li] - 1).astype(np.int64)
    row_lo = np.clip(np.ceil((faces[fi, 1] - hh) / stride - 0.5), 0, rows[li] - 1).astype(np.int64)
    row_hi = np.clip(np.floor((faces[fi, 3] + hh) / stride - 0.5), 0, rows[li] - 1).astype(np.int64)
    face, level, rr, cc, anchor = _expand_windows(fi, li, row_lo, row_hi, col_lo, col_hi, cols, start)
    stride, hw, hh = strides[level], aw[level] / 2.0, ah[level] / 2.0
    cx = cc.astype(np.float64) * stride + stride / 2.0
    cy = rr.astype(np.float64) * stride + stride / 2.0
    fb = faces[face]
    iw = np.minimum(cx + hw, fb[:, 2]) - np.maximum(cx - hw, fb[:, 0])
    ih = np.minimum(cy + hh, fb[:, 3]) - np.maximum(cy - hh, fb[:, 1])
    inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
    union = a_area[level] + face_area[face] - inter
    iou = np.where(union > 0.0, inter / union, 0.0)
    # Per-anchor argmax with the dense tie-breaks: IoU desc, face index asc.
    # The anchor key is its index in the dense grid, so it includes the level.
    order = np.lexsort((face, -iou, anchor))
    first = np.ones(order.size, dtype=bool)
    first[1:] = anchor[order][1:] != anchor[order][:-1]
    winners = order[first]
    pos = winners[iou[winners] >= iou_threshold]
    level_hit = np.zeros((n_faces, len(config.levels)), dtype=bool)
    level_hit[face[pos], level[pos]] = True
    return np.bincount(face[pos], minlength=n_faces), level_hit


def _census(
    dataset: Sequence[ImageRecord],
    configs: Sequence[AnchorConfig],
    iou_threshold: float,
    image_sizes: Sequence[tuple[int, int]] | None,
    threads: int,
) -> list[MatchCensus]:
    """One `MatchCensus` per config, from one walk that filters each record once."""
    if iou_threshold <= 0.0:
        raise ValueError(f"iou_threshold must be > 0 for census counting, got {iou_threshold}")
    # Per config: faces, matched faces, positives, then matched faces per level.
    shape = (len(configs), 3 + (len(configs[0].levels) if configs else 0))

    def work(i: int) -> np.ndarray:
        faces = valid_face_boxes(dataset[i])
        size = image_sizes[i] if image_sizes is not None else None
        tally = np.zeros(shape, dtype=np.int64)
        for row, config in zip(tally, configs):
            counts, level_hit = _image_census(faces, config, iou_threshold, size)
            row[:] = faces.shape[0], np.count_nonzero(counts), counts.sum(), *level_hit.sum(axis=0)
        return tally

    totals = sum(_map_images(work, len(dataset), threads), np.zeros(shape, dtype=np.int64))
    return [MatchCensus(int(t[0]), int(t[1]), int(t[2]), t[3:]) for t in totals]


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
    excluded before matching. `threads` > 1 maps images on a thread pool, no
    faster since the census is small numpy calls under the interpreter lock;
    it stays because acceptance criterion 9 passes it.
    """
    return _census(dataset, [config], iou_threshold, image_sizes, threads)[0]


def scale_ratio_sweep(
    dataset: Sequence[ImageRecord],
    base_config: AnchorConfig,
    ratios: Sequence[float],
    iou_threshold: float,
    image_sizes: Sequence[tuple[int, int]] | None = None,
) -> list[ScaleCurvePoint]:
    """First-step matching statistics per global anchor scale ratio, in one dataset walk."""
    if any(r <= 0 for r in ratios):
        raise ValueError("ratios must be positive")
    configs = [base_config.with_scale_ratio(r) for r in ratios]
    censuses = _census(dataset, configs, iou_threshold, image_sizes, threads=1)
    if censuses and censuses[0].total_faces == 0:
        raise EmptyDatasetError("no valid faces in dataset after filtering")
    return [
        ScaleCurvePoint(float(r), c.mean_anchors_per_face, c.fraction_faces_matched)
        for r, c in zip(ratios, censuses)
    ]


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
