"""Diagnostic statistics: scale-ratio curves, prediction provenance, IoU CDFs.

The dataset-level counters use a windowed candidate search instead of
materializing full anchor grids: a face can only hold anchors whose center
falls inside its overlap window, and a (face, level) pair whose box areas
differ by more than the IoU threshold allows can never produce a positive.
The lattice comes from `anchors`: its layout and cover size (`_lattice`,
`_cover`), each window's cells (`_window`) and each anchor's extent
(`_extent`) are the ones the dense grid is built and searched with. Within
the candidate set the per-anchor argmax and tie-breaks are identical to the
dense matcher, so counts agree exactly with brute force over the full grid
(the tests assert this). A run walks the dataset once. Each image is scored
for every anchor config and pyramid level together, as layers of one window
search, in passes of at most `_PASS_CELLS` window cells, and each pass is
reduced to a few integers per config. Memory per image is bounded by the
pass, whatever the number of configs in a scale-ratio sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .anchors import AnchorConfig, AnchorGrid, _cover, _expand_windows, _extent, _lattice, _window
from .assignment import BACKGROUND, SOURCE_STEP1, Assignment
from .geometry import Box, as_box_array, elementwise_iou, nms
from .ingest import ImageRecord, _map_images
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
    boxes = record.face_boxes()
    invalid = np.array([f.invalid == 1 for f in record.faces], dtype=bool)
    return boxes[~invalid & (boxes[:, 2] > boxes[:, 0]) & (boxes[:, 3] > boxes[:, 1])]


# Window cells one census pass may score. Passes split only between configs,
# so every face of an anchor is in the anchor's pass; a config with more
# cells runs alone.
_PASS_CELLS = 2**14


def _windows(faces: np.ndarray, layers: tuple[np.ndarray, ...], iou_threshold: float) -> tuple[np.ndarray, ...]:
    """Face, layer and inclusive row and col bounds of every (face, layer) window, layer-major.

    A (face, layer) pair whose areas differ by more than the threshold
    allows gets no window.
    """
    strides, aw, ah, rows, cols, _ = layers
    face_area = (faces[:, 2] - faces[:, 0]) * (faces[:, 3] - faces[:, 1])
    a_area = (aw * ah)[:, None]
    # Area-ratio bound: IoU <= min(A_a, A_f) / max(A_a, A_f), over (layer, face).
    li, fi = np.nonzero(np.minimum(a_area, face_area) / np.maximum(a_area, face_area) >= iou_threshold)
    col_lo, col_hi = _window(faces[fi, 0], faces[fi, 2], aw[li] / 2.0, strides[li], cols[li])
    row_lo, row_hi = _window(faces[fi, 1], faces[fi, 3], ah[li] / 2.0, strides[li], rows[li])
    return fi, li, row_lo, row_hi, col_lo, col_hi


def _overlap(cell, stride, half, lo, hi):
    """Overlap of [lo, hi] with each anchor's `_extent` on one axis, clamped at 0, and the extent's length.

    The extent is the one `anchors._cell_boxes` gives the dense matcher, and
    its length is taken from its coordinates, as `pairwise_iou` takes it, so
    IoUs and their ties are bit-equal to the dense matcher's.
    """
    a0, a1 = _extent(cell, stride, half)
    return np.maximum(np.minimum(a1, hi) - np.maximum(a0, lo), 0.0), a1 - a0


def _positives(
    faces: np.ndarray, layers: tuple[np.ndarray, ...], windows: tuple[np.ndarray, ...], iou_threshold: float
) -> tuple[np.ndarray, np.ndarray]:
    """Face and layer of every anchor in `windows` that is a first-step positive."""
    strides, aw, ah, _, cols, start = layers
    face, layer, rr, cc, anchor = _expand_windows(*windows, cols, start)
    stride = strides[layer]
    inter, area = _overlap(cc, stride, aw[layer] / 2.0, faces[:, 0].take(face), faces[:, 2].take(face))
    inter_y, height = _overlap(rr, stride, ah[layer] / 2.0, faces[:, 1].take(face), faces[:, 3].take(face))
    inter *= inter_y
    area *= height
    union = area + ((faces[:, 2] - faces[:, 0]) * (faces[:, 3] - faces[:, 1]))[face] - inter
    iou = np.where(union > 0.0, inter / union, 0.0)
    # An anchor is positive only when its best IoU clears the threshold, and
    # then every face tied for best clears it too. Pairs below it can never
    # win, so dropping them leaves the winners and their tie order unchanged.
    keep = np.flatnonzero(iou >= iou_threshold)
    face, layer, anchor, iou = face[keep], layer[keep], anchor[keep], iou[keep]
    # Per-anchor argmax with the dense tie-breaks: IoU desc, face index asc.
    # The anchor key is its index over all layers, so it includes the level.
    order = np.lexsort((face, -iou, anchor))
    first = np.ones(order.size, dtype=bool)
    first[1:] = anchor[order][1:] != anchor[order][:-1]
    winners = order[first]
    return face[winners], layer[winners]


def _image_census(
    faces: np.ndarray,
    config: AnchorConfig,
    iou_threshold: float,
    image_size: tuple[int, int] | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-face positive counts (F,) and per-face-per-level matched flags (F, L).

    The census kernel on one config, in one pass.
    """
    sizes = config._sizes[None]
    layers = _lattice(sizes, *(image_size if image_size is not None else _cover(faces, sizes)))
    face, level = _positives(faces, layers, _windows(faces, layers, iou_threshold), iou_threshold)
    level_hit = np.zeros((faces.shape[0], len(config.levels)), dtype=bool)
    level_hit[face, level] = True
    return np.bincount(face, minlength=faces.shape[0]), level_hit


def _census_tally(
    faces: np.ndarray, sizes: np.ndarray, iou_threshold: float, image_size: tuple[int, int] | None
) -> np.ndarray:
    """One image's census per config: faces, matched faces, positives, then matched faces per level.

    `sizes` (K, 3, L) stacks each config's `_sizes`. Windows are built for
    blocks of configs with at most `_PASS_CELLS` (face, layer) pairs, and
    scored in passes of at most `_PASS_CELLS` window cells. Each pass is
    reduced into the tally, so memory is bounded whatever K is.
    """
    n_configs, _, n_levels = sizes.shape
    n_faces = faces.shape[0]
    tally = np.zeros((n_configs, 3 + n_levels), dtype=np.int64)
    tally[:, 0] = n_faces
    if n_faces == 0:
        return tally
    block = max(1, _PASS_CELLS // (n_faces * n_levels))
    for b0 in range(0, n_configs, block):
        block_sizes = sizes[b0 : b0 + block]
        layers = _lattice(block_sizes, *(image_size if image_size is not None else _cover(faces, block_sizes)))
        windows = _windows(faces, layers, iou_threshold)
        n = layers[0].size // n_levels
        per = np.maximum(windows[3] - windows[2] + 1, 0) * np.maximum(windows[5] - windows[4] + 1, 0)
        # Cells and windows before each config of the block.
        cells = np.concatenate(([0], np.cumsum(np.bincount(windows[1] // n_levels, per, minlength=n))))
        ends = np.searchsorted(windows[1], np.arange(n + 1) * n_levels)
        c0 = 0
        while c0 < n:
            c1 = max(c0 + 1, int(np.searchsorted(cells, cells[c0] + _PASS_CELLS, side="right")) - 1)
            face, layer = _positives(faces, layers, [w[ends[c0] : ends[c1]] for w in windows], iou_threshold)
            layer -= c0 * n_levels
            # Configs x levels x faces of a pass is at most _PASS_CELLS, or one config's.
            hit = np.zeros((c1 - c0, n_levels, n_faces), dtype=bool)
            hit.reshape(-1, n_faces)[layer, face] = True
            out = tally[b0 + c0 : b0 + c1]
            out[:, 1] += hit.any(axis=1).sum(axis=1)
            out[:, 2] += np.bincount(layer // n_levels, minlength=c1 - c0)
            out[:, 3:] += hit.sum(axis=2)
            c0 = c1
    return tally


def _census(
    dataset: Sequence[ImageRecord],
    configs: Sequence[AnchorConfig],
    iou_threshold: float,
    image_sizes: Sequence[tuple[int, int]] | None,
    threads: int,
) -> list[MatchCensus]:
    """One `MatchCensus` per config, from one walk that reads each record once.

    Configs must share their number of levels.
    """
    if iou_threshold <= 0.0:
        raise ValueError(f"iou_threshold must be > 0 for census counting, got {iou_threshold}")
    n_levels = len(configs[0].levels) if configs else 0
    sizes = np.array([c._sizes for c in configs], dtype=np.float64).reshape(len(configs), 3, n_levels)

    def work(i: int) -> np.ndarray:
        size = image_sizes[i] if image_sizes is not None else None
        return _census_tally(valid_face_boxes(dataset[i]), sizes, iou_threshold, size)

    totals = sum(_map_images(work, len(dataset), threads), np.zeros((len(configs), 3 + n_levels), dtype=np.int64))
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
    excluded before matching. `threads` > 1 maps images on a thread pool,
    which is no faster: each image's census is a few passes of numpy calls
    on small arrays, mostly under the interpreter lock.
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

    # Step-1 anchors whose regressed box is a correct prediction of their own
    # face. Faces are counted with bincount: numpy's hash-based `unique`
    # would import numpy.ma.
    step1_idx = np.flatnonzero(step1)
    own = assignment.face_of[step1_idx]
    good = elementwise_iou(regressed[step1_idx], faces[own]) > CPBB_IOU
    faces_cpbb = np.count_nonzero(np.bincount(own[good]))

    # Post-NMS survival of an anchor depends only on boxes of equal or higher
    # score, so suppression is run on that subset of the dump; verdicts for
    # the queried step-1 anchors are identical to full-set NMS.
    survived = np.zeros(good.size, dtype=bool)
    if np.any(good):
        subset = np.flatnonzero(scores >= scores[step1_idx[good]].min())
        kept_mask = np.zeros(assignment.n_anchors, dtype=bool)
        kept_mask[subset[nms(regressed[subset], scores[subset], nms_threshold)]] = True
        survived = good & kept_mask[step1_idx]
    faces_cpbb_post = np.count_nonzero(np.bincount(own[survived]))

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
