"""Diagnostic statistics: scale-ratio curves, prediction provenance, IoU CDFs.

The dataset-level counters use a windowed candidate search instead of
materializing full anchor grids. A (face, level) pair whose box areas differ
by more than the IoU threshold allows can never produce a positive, and an
anchor can reach the threshold only if its center lies in a window that the
threshold itself narrows: the face's overlap window, shrunk on each axis by
the overlap the threshold requires (`_windows`, which also bounds the
rounding). The lattice comes from `anchors`: its layout and cover size
(`_lattice`, `_cover`), each window's cells (`_window`) and each anchor's
extent (`_extent`) are the ones the dense grid is built and searched with.
Within the candidate set the per-anchor argmax and tie-breaks are identical
to the dense matcher, so counts agree exactly with brute force over the full
grid (the tests assert this). A run walks the dataset once, in blocks of
images whose faces x configs x levels fit `_PASS_CELLS`. A block's images
are stacked, every anchor config and pyramid level of each, as the layers of
one lattice, and scored in shared passes of at most `_PASS_CELLS` window
cells; each pass is reduced to a few integers per config. Memory is bounded
by the block and the pass, whatever the number of images or of configs in a
scale-ratio sweep.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .anchors import AnchorConfig, AnchorGrid, _cover, _extent, _lattice, _window
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


def _valid_faces(records: Sequence[ImageRecord]) -> tuple[np.ndarray, np.ndarray]:
    """The face boxes of `records` that `filter_valid` keeps, image by image, and how many each image has."""
    faces = [f for rec in records for f in rec.faces]
    boxes = np.array([f.box for f in faces], dtype=np.float64).reshape(-1, 4)
    keep = np.array([f.invalid != 1 for f in faces], dtype=bool)
    keep &= (boxes[:, 2] > boxes[:, 0]) & (boxes[:, 3] > boxes[:, 1])
    image = np.repeat(np.arange(len(records)), [len(rec.faces) for rec in records])
    return boxes[keep], np.bincount(image[keep], minlength=len(records))


def valid_face_boxes(record: ImageRecord) -> np.ndarray:
    """The record's face boxes that `filter_valid` keeps."""
    return _valid_faces([record])[0]


# Window cells one census pass may score, and faces x configs x levels one
# block of images may hold. Passes split only between (image, config) units,
# so every face of an anchor is in the anchor's pass; a unit with more cells
# runs alone. An image with more faces x configs x levels than this is a
# block of its own, scored a few configs at a time. Ordinary images fill
# their passes, and a full pass holds about 0.75 MB of work arrays.
_PASS_CELLS = 2**13

# Rounding margins of the census windows (`_windows` gives the argument):
# relative, per unit of coordinate magnitude, of the area cut, and the
# smallest figure whose rounding is relative.
_SHRINK = 2.0**-40
_SLACK = 2.0**-48
_CUT = 2.0**-20
_NORMAL = 2.0**-1000


def _sides(f_lo, f_hi, side, stride):
    """On one axis of (face, layer) pairs: the face's side, the rounding reach e, and the bounds a - e, a + e.

    a is the anchors' side, and a computed anchor's side lies within e of
    it (`_windows`, step 2); the low bound is clamped at 0.
    """
    e = _SLACK * (4.0 * np.maximum(np.abs(f_lo), np.abs(f_hi)) + (side + 2.0 * stride))
    return f_hi - f_lo, e, np.maximum(side - e, 0.0), side + e


def _windows(
    faces: np.ndarray, image_of: np.ndarray, layers: tuple[np.ndarray, ...], n_layers: int, iou_threshold: float
) -> tuple[np.ndarray, ...]:
    """Face, layer and inclusive row and col bounds of the windows that can hold a positive, by layer, then face.

    Face f is searched only on its own image's `n_layers` layers, from
    ``image_of[f] * n_layers``; every image stacks the same layer sizes. A
    (face, layer) pair whose areas differ by more than the threshold allows
    gets no window. Otherwise IoU >= t needs I >= t (A_a + A_f) / (1 + t),
    and the y-overlap is at most min(a_h, f_h), so the x-overlap must be at
    least m_x = t / (1 + t) * (a_w max(1, a_h / f_h) + f_w max(1, f_h / a_h)):
    the anchor's center lies within `_window` of [f0 + m_x, f2 - m_x]. The
    y axis is the same with widths. Empty windows are left out.

    Why no positive is lost to rounding (u = 2^-53). Take an anchor whose
    IoU, computed as `_positives` computes it, is >= t. Let X, Y, W and H be
    the exact overlaps and sides of its computed box with the face, and F_w,
    F_h the exact sides of the face.

    1. `_positives` rounds once per subtraction, product, sum and quotient,
       each within a relative u while nothing is subnormal. So X Y >=
       t / (1 + t) (W H + F_w F_h) (1 - 16u), and with Y <= min(H, F_h),
       X >= t / (1 + t) (W max(1, H / F_h) + F_w max(1, F_h / H)) (1 - 16u).
       As X Y <= min(W H, F_w F_h), the computed IoU is also at most
       (1 + 17u) min(W H, F_w F_h) / max(W H, F_w F_h).
    2. A computed anchor edge is its exact lattice extent (`_extent`) within
       4uM, where M = 4 max(|f0|, |f2|) + a_w + 2 stride on the x axis (y
       alike): every value those roundings meet is at most M in size. So
       |W - a_w| <= 8uM < e = M 2^-48 (`_SLACK`, `_sides`). The bound on X
       takes W and H at whichever end of [a - e, a + e] makes it smallest;
       computing it rounds a dozen more times, well within the relative
       2^-40 (`_SHRINK`) it is shrunk by.
    3. X >= m needs the anchor's right edge at f0 + m or past it, and its
       left edge at f2 - m or before it. From m - e to a cell, the window
       bound is rounded five times (`_window` takes four), each time within
       uM, and the edge itself is within 4uM of exact: so windows from
       m - e keep every such anchor.

    The area cut compares a_w a_h with F_w F_h at t (1 - 2^-20) (`_CUT`). It
    is made only where e is at most 2^-24 of the anchor's side on both axes,
    so that W H is a_w a_h within a relative 2^-22. Step 1 needs its
    products and IoU normal: it holds where t and t times each area are at
    least 2^-1000 (`_NORMAL`). Elsewhere no area cut is made, and where that
    fails or a bound overflows, m is 0. The window is then the overlap
    window widened by e, which step 3 alone shows keeps every anchor that
    meets the face.
    """
    strides, aw, ah, rows, cols, _ = layers
    s, w, h = strides[:n_layers, None], aw[:n_layers, None], ah[:n_layers, None]
    f0, f1, f2, f3 = faces.T
    area, a = (f2 - f0) * (f3 - f1), w * h
    t = iou_threshold * (1.0 - _CUT)
    # Area-ratio bound: IoU <= min(A_a, A_f) / max(A_a, A_f), over (layer,
    # face), where both axes' reach is small and the figures normal.
    cut = (iou_threshold >= _NORMAL) & (area * t >= _NORMAL) & (a * t >= 2.0 * _NORMAL)
    cut &= np.maximum(np.abs(f0), np.abs(f2)) <= ((2.0**24 - 1.0) * w - 2.0 * s) / 4.0
    cut &= np.maximum(np.abs(f1), np.abs(f3)) <= ((2.0**24 - 1.0) * h - 2.0 * s) / 4.0
    li, fi = np.nonzero(~cut | ((a >= t * area) & (area >= t * a)))
    image = image_of[fi]
    order = np.argsort(image, kind="stable")
    fi, layer = fi[order], image[order] * n_layers + li[order]
    f0, f1, f2, f3 = faces[fi].T
    s, w, h = strides[layer], aw[layer], ah[layer]
    fw, ex, w_lo, w_hi = _sides(f0, f2, w, s)
    fh, ey, h_lo, h_hi = _sides(f1, f3, h, s)
    exact = (iou_threshold >= _NORMAL) & (np.minimum(fw * fh, w_lo * h_lo) * iou_threshold >= _NORMAL)
    tt = iou_threshold * (1.0 - _SHRINK) / (1.0 + iou_threshold)
    with np.errstate(over="ignore", invalid="ignore"):
        m_x = tt * (w_lo * np.maximum(1.0, h_lo / fh) + fw * np.maximum(1.0, fh / h_hi))
        m_y = tt * (h_lo * np.maximum(1.0, w_lo / fw) + fh * np.maximum(1.0, fw / w_hi))
    m_x = np.where(exact & (m_x < np.inf), m_x, 0.0) - ex
    m_y = np.where(exact & (m_y < np.inf), m_y, 0.0) - ey
    col_lo, col_hi = _window(f0 + m_x, f2 - m_x, w / 2.0, s, cols[layer])
    row_lo, row_hi = _window(f1 + m_y, f3 - m_y, h / 2.0, s, rows[layer])
    live = np.flatnonzero((col_lo <= col_hi) & (row_lo <= row_hi))
    return fi[live], layer[live], row_lo[live], row_hi[live], col_lo[live], col_hi[live]


def _overlap(cell, stride, half, lo, hi):
    """Overlap of [lo, hi] with each anchor's `_extent` on one axis, clamped at 0, and the extent's length.

    The extent is the one `anchors._cell_boxes` gives the dense matcher, and
    its length is taken from its coordinates, as `pairwise_iou` takes it, so
    IoUs and their ties are bit-equal to the dense matcher's.
    """
    a0, a1 = _extent(cell, stride, half)
    return np.maximum(np.minimum(a1, hi) - np.maximum(a0, lo), 0.0), a1 - a0


def _spans(lo: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For runs of n[i] consecutive cells from lo[i], each cell's run and cell, run by run."""
    run = np.repeat(np.arange(n.size), n)
    return run, lo[run] + (np.arange(run.size) - np.repeat(np.cumsum(n) - n, n))


def _axis(lo, n, window, stride, half, f_lo, f_hi):
    """Each window's cells on one axis: their window, cell, overlap with the window's face and length.

    `window` holds each window's face and layer; each window holds n cells
    from lo.
    """
    run, cell = _spans(lo, n)
    face, layer = window[0][run], window[1][run]
    return (run, cell, *_overlap(cell, stride[layer], half[layer], f_lo[face], f_hi[face]))


def _cells(
    faces: np.ndarray, layers: tuple[np.ndarray, ...], windows: tuple[np.ndarray, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Window, anchor index and IoU of every cell of nonempty `windows`, row-major in window order.

    Each window's columns and rows are scored once, on their own axis, and
    each cell multiplies its column's figures by its row's, in the order the
    dense matcher multiplies a box's.
    """
    strides, aw, ah, _, cols, start = layers
    face, layer, row_lo, row_hi, col_lo, col_hi = windows
    n_cols = col_hi - col_lo + 1
    col, ix, width = _axis(col_lo, n_cols, windows, strides, aw / 2.0, faces[:, 0], faces[:, 2])[1:]
    yw, row, iy, height = _axis(row_lo, row_hi - row_lo + 1, windows, strides, ah / 2.0, faces[:, 1], faces[:, 3])
    # Every cell of each window row: its row entry, and its column entry
    # from the window's first.
    per_row = n_cols[yw]
    yi, xi = _spans(np.cumsum(n_cols)[yw] - per_row, per_row)
    inter = ix[xi]
    inter *= iy[yi]
    iou = width[xi]
    iou *= height[yi]
    iou += ((faces[:, 2] - faces[:, 0]) * (faces[:, 3] - faces[:, 1]))[face[yw]][yi]
    iou -= inter
    # The union is 0 only where the intersection is: 0 / 0 is NaN, which no
    # threshold keeps.
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(inter, iou, out=iou)
    row_first = start[layer[yw]] + row * cols[layer[yw]]
    return yw[yi], row_first[yi] + col[xi], iou


def _positives(
    faces: np.ndarray, layers: tuple[np.ndarray, ...], windows: tuple[np.ndarray, ...], iou_threshold: float
) -> tuple[np.ndarray, np.ndarray]:
    """Face and layer of every anchor in `windows` that is a first-step positive.

    Windows must be nonempty, and those of one layer must come in ascending
    face order, as `_windows` gives them.
    """
    window, anchor, iou = _cells(faces, layers, windows)
    # An anchor is positive only when its best IoU clears the threshold, and
    # then every face tied for best clears it too. Pairs below it can never
    # win, so dropping them leaves the winners and their tie order unchanged.
    keep = np.flatnonzero(iou >= iou_threshold)
    # Per-anchor argmax with the dense tie-breaks: IoU desc, face index asc.
    # An anchor's cells come in its layer's window order, so in ascending
    # face order, and the stable sort by anchor keeps that order: the first
    # cell at the anchor's best IoU wins. The anchor key is its index over
    # all layers, so it includes the level.
    keep = keep[np.argsort(anchor[keep], kind="stable")]
    anchor, iou = anchor[keep], iou[keep]
    head = np.ones(keep.size, dtype=bool)
    head[1:] = anchor[1:] != anchor[:-1]
    run = np.cumsum(head) - 1
    best = np.flatnonzero(iou == np.maximum.reduceat(iou, np.flatnonzero(head))[run])
    first = np.ones(best.size, dtype=bool)
    first[1:] = run[best][1:] != run[best][:-1]
    winner = window[keep[best[first]]]
    return windows[0][winner], windows[1][winner]


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
    if image_size is None:
        image_size = _cover(faces.max(axis=0, initial=-np.inf)[None, 2:], sizes)
    layers = _lattice(sizes, *image_size)
    windows = _windows(faces, np.zeros(faces.shape[0], dtype=np.int64), layers, len(config.levels), iou_threshold)
    face, level = _positives(faces, layers, windows, iou_threshold)
    level_hit = np.zeros((faces.shape[0], len(config.levels)), dtype=bool)
    level_hit[face, level] = True
    return np.bincount(face, minlength=faces.shape[0]), level_hit


def _tally_configs(
    faces: np.ndarray,
    counts: np.ndarray,
    sizes: np.ndarray,
    iou_threshold: float,
    image_sizes: np.ndarray | None,
    out: np.ndarray,
) -> None:
    """Add the census of a block of images under the configs of `sizes` (K, 3, L) to `out`'s rows.

    `faces` holds each image's faces in turn, `counts` (B,) how many each
    has (at least one), and `image_sizes` (B, 2) each image's width and
    height, or None for each image's cover. The layers of every image are
    stacked into one lattice, so an anchor index names the image as well
    as the config and level, and they are scored in passes of at most
    `_PASS_CELLS` cells that split only between (image, config) units.
    """
    n_images, (n_configs, _, n_levels), n_faces = counts.size, sizes.shape, faces.shape[0]
    n_layers = n_configs * n_levels
    if image_sizes is None:
        w, h = _cover(np.maximum.reduceat(faces[:, 2:], np.cumsum(counts) - counts), sizes)
    else:
        w, h = (np.repeat(v, n_configs)[:, None] for v in image_sizes.T)
    layers = _lattice(np.tile(sizes, (n_images, 1, 1)), w, h)
    windows = _windows(faces, np.repeat(np.arange(n_images), counts), layers, n_layers, iou_threshold)
    n_units = n_images * n_configs
    per = (windows[3] - windows[2] + 1) * (windows[5] - windows[4] + 1)
    # Cells and windows before each unit.
    cells = np.concatenate(([0], np.cumsum(np.bincount(windows[1] // n_levels, per, minlength=n_units))))
    ends = np.searchsorted(windows[1], np.arange(n_units + 1) * n_levels)
    # Each face against its own image's layers: at most _PASS_CELLS, or one image's faces x levels.
    hit = np.zeros((n_layers, n_faces), dtype=bool)
    c0 = 0
    while c0 < n_units:
        c1 = max(c0 + 1, int(np.searchsorted(cells, cells[c0] + _PASS_CELLS, side="right")) - 1)
        face, layer = _positives(faces, layers, [v[ends[c0] : ends[c1]] for v in windows], iou_threshold)
        layer %= n_layers
        hit[layer, face] = True
        out[:, 2] += np.bincount(layer // n_levels, minlength=n_configs)
        c0 = c1
    hit = hit.reshape(n_configs, n_levels, n_faces)
    out[:, 1] += hit.any(axis=1).sum(axis=1)
    out[:, 3:] += hit.sum(axis=2)


def _block_tally(
    faces: np.ndarray,
    counts: np.ndarray,
    sizes: np.ndarray,
    iou_threshold: float,
    image_sizes: np.ndarray | None,
) -> np.ndarray:
    """A block of images' census per config: faces, matched faces, positives, then matched faces per level.

    Arguments are those of `_tally_configs`. Configs are scored in runs
    whose faces x configs x levels fit `_PASS_CELLS`, at least one config
    at a time, so memory is bounded whatever K is.
    """
    n_configs, _, n_levels = sizes.shape
    tally = np.zeros((n_configs, 3 + n_levels), dtype=np.int64)
    tally[:, 0] = faces.shape[0]
    if faces.shape[0] == 0:
        return tally
    run = max(1, _PASS_CELLS // (faces.shape[0] * n_levels))
    for k0 in range(0, n_configs, run):
        _tally_configs(faces, counts, sizes[k0 : k0 + run], iou_threshold, image_sizes, tally[k0 : k0 + run])
    return tally


def _blocks(dataset: Sequence[ImageRecord], cells_per_face: int) -> list[tuple[int, list[ImageRecord]]]:
    """The dataset's records in runs whose faces x `cells_per_face` fit `_PASS_CELLS`, with each run's first index.

    An image with more faces than that is a run of its own. Each record is
    read once.
    """
    blocks: list[tuple[int, list[ImageRecord]]] = []
    cells = 0
    for i in range(len(dataset)):
        rec = dataset[i]
        n = len(rec.faces) * cells_per_face
        if not blocks or cells + n > _PASS_CELLS:
            blocks.append((i, []))
            cells = 0
        blocks[-1][1].append(rec)
        cells += n
    return blocks


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

    def tally(first: int, records: list[ImageRecord]) -> np.ndarray:
        faces, counts = _valid_faces(records)
        size = None
        if image_sizes is not None:
            size = np.array([image_sizes[first + i] for i in range(len(records))], dtype=np.float64)[counts > 0]
        try:
            return _block_tally(faces, counts[counts > 0], sizes, iou_threshold, size)
        except ValueError:  # the block's anchors overflow an int64 index, though each image's may not
            if len(records) == 1:
                raise
            half = len(records) // 2
            return tally(first, records[:half]) + tally(first + half, records[half:])

    # Each block's tally is added as it is done, so no block outlives its work.
    totals = np.zeros((len(configs), 3 + n_levels), dtype=np.int64)
    lock = threading.Lock()

    def work(block: int) -> None:
        part = tally(*blocks[block])
        with lock:
            np.add(totals, part, out=totals)

    blocks = _blocks(dataset, sizes.size // 3)
    _map_images(work, len(blocks), threads)
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
    excluded before matching. `threads` > 1 maps blocks of images on a
    thread pool. That is still no faster: a block is a few passes of numpy
    calls on arrays of at most `_PASS_CELLS` cells, mostly under the
    interpreter lock, and on two cores two threads took about 1.2 times as
    long as one.
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

    iou_cdf = np.sort(elementwise_iou(grid.boxes_at(step1_idx), faces[own]))
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
