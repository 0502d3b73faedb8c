"""Pyramid anchor grid generation: one scale and one aspect ratio per level."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .geometry import Box, Overlaps, _scored, as_box_array, overlaps

DEFAULT_STRIDES = (4, 8, 16, 32, 64, 128)
DEFAULT_BASE_SCALES = (16, 32, 64, 128, 256, 512)
DEFAULT_SCALE_RATIO = 0.68


@dataclass(frozen=True)
class AnchorConfig:
    """Per-level (stride, base_scale) pairs with a global scale multiplier.

    Every base scale is multiplied by `scale_ratio`; anchor height is the
    resulting side times `aspect_ratio` (height/width).
    """

    levels: tuple[tuple[float, float], ...]
    scale_ratio: float = 1.0
    aspect_ratio: float = 1.0

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("levels must be non-empty")
        strides = [s for s, _ in self.levels]
        if any(s <= 0 for s in strides) or any(b <= 0 for _, b in self.levels):
            raise ValueError("strides and base_scales must be positive")
        if any(b >= a for a, b in zip(strides[1:], strides)):
            raise ValueError(f"strides must be strictly increasing, got {strides}")
        if self.scale_ratio <= 0:
            raise ValueError(f"scale_ratio must be > 0, got {self.scale_ratio}")
        if self.aspect_ratio <= 0:
            raise ValueError(f"aspect_ratio must be > 0, got {self.aspect_ratio}")

    def with_scale_ratio(self, ratio: float) -> "AnchorConfig":
        return AnchorConfig(self.levels, scale_ratio=ratio, aspect_ratio=self.aspect_ratio)

    def anchor_size(self, level: int) -> tuple[float, float]:
        """(width, height) of every anchor on `level`."""
        side = self.levels[level][1] * self.scale_ratio
        return side, side * self.aspect_ratio

    @cached_property
    def _sizes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-level strides, anchor widths and anchor heights, as `anchor_size` computes them."""
        strides, scales = np.asarray(self.levels, dtype=np.float64).T
        aw = scales * self.scale_ratio
        return strides, aw, aw * self.aspect_ratio

    @cached_property
    def _cover_margins(self) -> tuple[float, float]:
        """How far right of and below a face an anchor that touches it can reach."""
        strides, aw, ah = self._sizes
        return float((strides + aw / 2.0).max()), float((strides + ah / 2.0).max())


@dataclass(frozen=True)
class AnchorGrid:
    """All anchors tiled over an image, with per-anchor level and cell provenance.

    `lattice` marks a grid laid out by `generate_anchors`, whose anchors
    `grid_overlaps` can find from the config and image size alone.
    """

    boxes: np.ndarray = field(repr=False)  # (N, 4) float64
    level_of: np.ndarray = field(repr=False)  # (N,) int32
    cell_of: np.ndarray = field(repr=False)  # (N, 2) int32, (row, col)
    config: AnchorConfig
    image_size: tuple[int, int]  # (width, height)
    lattice: bool = False

    def __len__(self) -> int:
        return self.boxes.shape[0]

    @cached_property
    def _layout(self) -> tuple[np.ndarray, ...]:
        """`_lattice` of this grid's config and image size, computed once."""
        return _lattice(self.config, *self.image_size)


def grid_shape(stride: float, image_w: float, image_h: float) -> tuple[int, int]:
    """(rows, cols) of the anchor lattice for one stride."""
    return math.ceil(image_h / stride), math.ceil(image_w / stride)


def _lattice(config: AnchorConfig, image_w: float, image_h: float) -> tuple[np.ndarray, ...]:
    """Per-level strides, anchor widths and heights, lattice rows and cols, and first anchor index."""
    rows, cols = np.array([grid_shape(s, image_w, image_h) for s, _ in config.levels], dtype=np.int64).T
    return *config._sizes, rows, cols, np.cumsum(rows * cols) - rows * cols


def generate_anchors(config: AnchorConfig, image_w: float, image_h: float) -> AnchorGrid:
    """Tile anchors for every level of `config` across an image_w x image_h image.

    Centers sit at (col*stride + stride/2, row*stride + stride/2); boxes are
    center +/- side/2 and are not clipped to the image. Ordering is levels in
    config order, then row-major cells.
    """
    if image_w <= 0 or image_h <= 0:
        raise ValueError(f"image size must be positive, got {image_w}x{image_h}")
    strides, aw, ah, rows, cols, start = _lattice(config, image_w, image_h)
    n = int((rows * cols).sum())
    boxes = np.empty((n, 4))
    cells = np.empty((n, 2), dtype=np.int32)
    for s, w, h, r, c, i in zip(strides, aw, ah, rows, cols, start):
        cx = np.arange(c, dtype=np.float64) * s + s / 2.0
        cy = (np.arange(r, dtype=np.float64) * s + s / 2.0)[:, None]
        box, cell = boxes[i : i + r * c].reshape(r, c, 4), cells[i : i + r * c].reshape(r, c, 2)
        box[..., 0], box[..., 1], box[..., 2], box[..., 3] = cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0
        cell[..., 0], cell[..., 1] = np.arange(r)[:, None], np.arange(c)
    level_of = np.repeat(np.arange(strides.size, dtype=np.int32), rows * cols)
    return AnchorGrid(boxes, level_of, cells, config, (image_w, image_h), lattice=True)


def _expand_windows(face, level, row_lo, row_hi, col_lo, col_hi, cols, start):
    """Every lattice cell in each (face, level) window, in window order, then row-major.

    Bounds are inclusive, and a window with hi < lo is empty. Returns the
    face, level, row, col and dense grid index of each cell.
    """
    n_cols = col_hi - col_lo + 1
    per = np.maximum(n_cols, 0) * np.maximum(row_hi - row_lo + 1, 0)
    win = np.repeat(np.arange(per.size), per)
    at = np.arange(win.size) - np.repeat(np.cumsum(per) - per, per)
    level = level[win]
    row = row_lo[win] + at // n_cols[win]
    col = col_lo[win] + at % n_cols[win]
    return face[win], level, row, col, start[level] + row * cols[level] + col


def _window_candidates(
    grid: AnchorGrid, faces: np.ndarray, reach: np.ndarray | None = None, limit: int | None = None
) -> tuple[np.ndarray, np.ndarray] | None:
    """(face, anchor) for every anchor of a lattice grid that can meet a valid face.

    Each valid face spans, on each level, a window of cells whose anchors
    can meet it. `reach`, an (L, 2) array, lets every x coordinate of a
    level's anchors move by up to ``reach[level, 0]`` and every y coordinate
    by up to ``reach[level, 1]``; the window then holds every anchor whose
    moved box can meet the face. Windows are widened by one cell on every
    side so that rounding in the bound never drops an anchor. Candidates
    come per face in index order, then row-major per level, so the faces of
    one anchor come in ascending order. Work is O(faces x levels +
    candidates). With `limit`, windows that hold more candidates than that
    are not expanded, and the result is None.
    """
    strides, aw, ah, rows, cols, start = grid._layout
    half_w, half_h = aw / 2.0, ah / 2.0
    if reach is not None:
        half_w, half_h = half_w + reach[:, 0], half_h + reach[:, 1]
    fw, fh = faces[:, 2] - faces[:, 0], faces[:, 3] - faces[:, 1]
    live = np.flatnonzero((fw > 0.0) & (fh > 0.0) & np.isfinite(fw * fh))
    face, level = np.repeat(live, strides.size), np.tile(np.arange(strides.size), live.size)
    s, f = strides[level], faces[face]

    def window(lo, hi, half, n):
        lo = np.clip(np.ceil((lo - half) / s - 0.5) - 1.0, 0.0, n)
        return lo.astype(np.int64), np.clip(np.floor((hi + half) / s - 0.5) + 1.0, -1.0, n - 1.0).astype(np.int64)

    col_lo, col_hi = window(f[:, 0], f[:, 2], half_w[level], cols[level])
    row_lo, row_hi = window(f[:, 1], f[:, 3], half_h[level], rows[level])
    if limit is not None and np.sum(np.maximum(col_hi - col_lo + 1, 0) * np.maximum(row_hi - row_lo + 1, 0)) > limit:
        return None
    face, _, _, _, anchor = _expand_windows(face, level, row_lo, row_hi, col_lo, col_hi, cols, start)
    return face, anchor


def grid_overlaps(grid: AnchorGrid, faces: Sequence[Box] | np.ndarray) -> Overlaps:
    """``overlaps(grid.boxes, faces)``, reading only anchors a face can reach.

    On a lattice grid only the `_window_candidates` of the faces are scored,
    so work is O(faces x levels + candidates) rather than O(anchors). Rows,
    order and IoUs are those of `overlaps`. Other grids go through
    `overlaps`.
    """
    faces = as_box_array(faces)
    if not grid.lattice:
        return overlaps(grid.boxes, faces)
    face, anchor = _window_candidates(grid, faces)
    return _scored(grid.boxes, faces, anchor, face)


def cover_image_size(face_boxes: np.ndarray, config: AnchorConfig) -> tuple[int, int]:
    """Smallest image extent whose grid holds every anchor that can touch a face.

    Annotation files carry no image dimensions; a grid sized this way
    contains every anchor with positive overlap against any listed face, so
    match results equal those on any larger grid.
    """
    face_boxes = np.asarray(face_boxes, dtype=np.float64)
    margin, v_margin = config._cover_margins
    max_stride = config.levels[-1][0]
    if face_boxes.size == 0:
        return math.ceil(max_stride), math.ceil(max_stride)
    w = math.ceil(max(float(face_boxes[:, 2].max()) + margin, max_stride))
    h = math.ceil(max(float(face_boxes[:, 3].max()) + v_margin, max_stride))
    return w, h


def default_hambox_config() -> AnchorConfig:
    """Six stride-doubling levels at scales 16..512, shrunk by the 0.68 ratio."""
    return AnchorConfig(
        levels=tuple(zip(DEFAULT_STRIDES, DEFAULT_BASE_SCALES)),
        scale_ratio=DEFAULT_SCALE_RATIO,
        aspect_ratio=1.0,
    )
