"""Pyramid anchor grids, one scale and one aspect ratio per level, and their windowed overlap search.

A grid from `generate_anchors` is a lattice: its anchors follow from the
config and image size, so a face's anchors are found by window
(`_window_candidates`) and scored from their indices by `_cells`, the one
lattice scorer that `grid_overlaps` and the census (`stats`) share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .geometry import Box, Overlaps, _ordered, _runs, _scorable, as_box_array, overlaps

DEFAULT_STRIDES = (4, 8, 16, 32, 64, 128)
DEFAULT_BASE_SCALES = (16, 32, 64, 128, 256, 512)
DEFAULT_SCALE_RATIO = 0.68
INT64_MAX = 2**63 - 1  # anchor indices and per-face budgets are int64
MAX_ANCHORS = 2**22  # the most anchors a command builds a whole grid of; `anchors` takes about 280 B of peak RSS each


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
        return tuple(self._sizes[1:, level].tolist())

    @cached_property
    def _sizes(self) -> np.ndarray:
        """(3, L): per-level strides, anchor widths (base scale x scale ratio) and heights (width x aspect ratio)."""
        strides, scales = np.asarray(self.levels, dtype=np.float64).T
        aw = scales * self.scale_ratio
        return np.stack([strides, aw, aw * self.aspect_ratio])


class _PerAnchor:
    """A per-anchor array field of `AnchorGrid`.

    A hand-built grid is given the array. A lattice grid is given None and
    builds the array from its layout the first time it is read, so a grid
    that is only searched by index never holds it.
    """

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, grid, owner=None):
        if grid is None:
            raise AttributeError(self.name)  # no class-level default: the field is required
        value = grid.__dict__[self.name]
        if value is None:
            value = grid.__dict__[self.name] = getattr(grid, f"_build_{self.name}")()
        return value

    def __set__(self, grid, value) -> None:
        grid.__dict__[self.name] = value


@dataclass(frozen=True, repr=False)  # a generated repr would build the per-anchor arrays
class AnchorGrid:
    """All anchors tiled over an image, with per-anchor level and cell provenance.

    `lattice` marks a grid laid out by `generate_anchors`. Its anchors are
    known from the config and image size alone: `levels_at` and `_cells_at`
    map anchor indices to lattice cells, `boxes_at` computes boxes from
    those cells, and `grid_overlaps` finds them by window. `boxes`,
    `level_of` and `cell_of` are those maps over every index, built only
    when first read.
    """

    boxes: np.ndarray = _PerAnchor()  # (N, 4) float64
    level_of: np.ndarray = _PerAnchor()  # (N,) int32
    cell_of: np.ndarray = _PerAnchor()  # (N, 2) int32, (row, col)
    config: AnchorConfig
    image_size: tuple[int, int]  # (width, height)
    lattice: bool = False

    def __len__(self) -> int:
        if self.lattice:
            *_, rows, cols, start = self._layout
            return int(start[-1] + rows[-1] * cols[-1])
        return self.boxes.shape[0]

    @cached_property
    def _layout(self) -> tuple[np.ndarray, ...]:
        """`_lattice` of this grid's config and image size, computed once."""
        return _lattice(self.config._sizes[None], *self.image_size)

    def levels_at(self, anchor: np.ndarray) -> np.ndarray:
        """The pyramid level of each anchor index."""
        if not self.lattice:
            return self.level_of[anchor]
        return np.searchsorted(self._layout[5], anchor, side="right") - 1

    def _cells_at(self, anchor: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (level, row, col) lattice cell of each anchor index of a lattice grid."""
        *_, cols, start = self._layout
        level = self.levels_at(anchor)
        return (level, *np.divmod(anchor - start[level], cols[level]))

    def boxes_at(self, anchor: np.ndarray) -> np.ndarray:
        """The (n, 4) boxes of the given anchor indices, bit-equal to those rows of `boxes`."""
        if not self.lattice:
            return self.boxes[anchor]
        return _cell_boxes(self._layout, *self._cells_at(anchor))

    def _build_boxes(self) -> np.ndarray:
        return self.boxes_at(np.arange(len(self)))

    def _build_level_of(self) -> np.ndarray:
        return self.levels_at(np.arange(len(self))).astype(np.int32)

    def _build_cell_of(self) -> np.ndarray:
        return np.stack(self._cells_at(np.arange(len(self)))[1:], axis=1).astype(np.int32)


def _lattice(sizes: np.ndarray, image_w, image_h) -> tuple[np.ndarray, ...]:
    """Per-layer strides, anchor widths and heights, lattice rows and cols, and first anchor index.

    `sizes` (K, 3, L) stacks K configs' `_sizes`, and config k's lattice
    covers an image_w[k] x image_h[k] image: the sizes are scalars, which
    serve every config, or (K, 1) arrays. A layer is one level of one
    config, config-major, and first indices run on across configs, so an
    anchor's index names its config too. Raises ValueError when the layers
    hold more anchors than an int64 index can name.
    """
    strides, aw, ah = sizes.transpose(1, 0, 2)
    rows, cols = np.ceil(image_h / strides).ravel(), np.ceil(image_w / strides).ravel()
    if not rows @ cols < 2.0**62:  # within rounding of int64's range, or not finite: count exactly
        n = sum(int(r) * int(c) for r, c in zip(rows, cols))
        if n > INT64_MAX:
            size = "x".join(str(v) if np.ndim(v) == 0 else f"{np.max(v):.0f}" for v in (image_w, image_h))
            raise ValueError(f"an anchor grid of {size} px holds {n} anchors, more than an int64 index can name")
    rows, cols = rows.astype(np.int64), cols.astype(np.int64)
    return strides.ravel(), aw.ravel(), ah.ravel(), rows, cols, np.cumsum(rows * cols) - rows * cols


def _cover(top: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per image and stacked config of `sizes` (K, 3, L), the width and height of `cover_image_size`.

    `top` (B, 2) holds each image's largest face x1 and y1 (-inf for an
    image without faces). Returns (B * K, 1) floats, image-major, in the
    order `_lattice` stacks an image's configs.
    """
    strides, aw, ah = sizes.transpose(1, 0, 2)
    w = np.ceil(np.maximum(top[:, :1] + (strides + aw / 2.0).max(axis=1), strides[:, -1]))
    h = np.ceil(np.maximum(top[:, 1:] + (strides + ah / 2.0).max(axis=1), strides[:, -1]))
    return w.reshape(-1, 1), h.reshape(-1, 1)


def _extent(cell, stride, half):
    """First and last coordinate, on one axis, of the anchors at `cell`: center cell * stride + stride / 2, +/- half."""
    center = cell * stride + stride / 2.0
    return center - half, center + half


def _cell_boxes(layout: tuple[np.ndarray, ...], level, row, col) -> np.ndarray:
    """Boxes (..., 4) of the anchors at lattice cells (level, row, col) of `layout`, a `_lattice`.

    Arguments broadcast, and each coordinate is the same elementwise
    `_extent` arithmetic whatever their shapes, so any subset of anchors
    comes out bit-equal to the whole grid.
    """
    strides, aw, ah = layout[:3]
    s = strides[level]
    x0, x1 = _extent(col, s, (aw / 2.0)[level])
    y0, y1 = _extent(row, s, (ah / 2.0)[level])
    out = np.empty(np.broadcast_shapes(x0.shape, y0.shape) + (4,))
    out[..., 0], out[..., 1], out[..., 2], out[..., 3] = x0, y0, x1, y1
    return out


def generate_anchors(config: AnchorConfig, image_w: float, image_h: float) -> AnchorGrid:
    """Tile anchors for every level of `config` across an image_w x image_h image.

    Centers sit at (col*stride + stride/2, row*stride + stride/2); boxes are
    center +/- side/2 and are not clipped to the image. Ordering is levels in
    config order, then row-major cells. The grid's per-anchor arrays are
    built when first read; a grid whose anchor count does not fit int64
    raises ValueError here.
    """
    if image_w <= 0 or image_h <= 0:
        raise ValueError(f"image size must be positive, got {image_w}x{image_h}")
    grid = AnchorGrid(None, None, None, config, (image_w, image_h), lattice=True)
    grid._layout  # noqa: B018  checks the anchor count
    return grid


def _window(lo, hi, half, stride, n, pad: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """First and last cell (inclusive), on one axis, of each window of anchors that can meet [lo, hi].

    An anchor reaches `half` either side of its center (`_extent`). The
    window is widened by `pad` cells on each side and cut to the lattice's
    `n` cells, so a window past the lattice comes out empty (last < first).
    """
    first = np.clip(np.ceil((lo - half) / stride - 0.5) - pad, 0.0, n)
    last = np.clip(np.floor((hi + half) / stride - 0.5) + pad, -1.0, n - 1.0)
    return first.astype(np.int64), last.astype(np.int64)


def _window_candidates(grid: AnchorGrid, faces: np.ndarray, reach: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """Face, level and inclusive row and col bounds of the nonempty windows of a lattice grid's valid faces.

    Each valid face spans, on each level, a window of cells whose anchors
    can meet it. `reach`, an (L, 2) array, lets every x coordinate of a
    level's anchors move by up to ``reach[level, 0]`` and every y coordinate
    by up to ``reach[level, 1]``; the window then holds every anchor whose
    moved box can meet the face. Windows are widened by one cell on every
    side so that rounding in the bound never drops an anchor: a face that
    meets an anchor by one ulp can round its bound one cell short (the
    example of `test_grid_overlaps_keeps_one_ulp_overlaps`). Windows come
    per face in index order, then per level, the order `_cells` needs to
    give each anchor's faces in ascending order. Work is O(faces x levels).
    """
    strides, aw, ah, rows, cols, _ = grid._layout
    half_w, half_h = aw / 2.0, ah / 2.0
    if reach is not None:
        half_w, half_h = half_w + reach[:, 0], half_h + reach[:, 1]
    live = np.flatnonzero(_scorable(faces))
    face, level = np.repeat(live, strides.size), np.tile(np.arange(strides.size), live.size)
    s, f = strides[level], faces[face]
    col_lo, col_hi = _window(f[:, 0], f[:, 2], half_w[level], s, cols[level], 1.0)
    row_lo, row_hi = _window(f[:, 1], f[:, 3], half_h[level], s, rows[level], 1.0)
    keep = np.flatnonzero((col_lo <= col_hi) & (row_lo <= row_hi))
    return face[keep], level[keep], row_lo[keep], row_hi[keep], col_lo[keep], col_hi[keep]


def _overlap(cell, stride, half, lo, hi):
    """Overlap of [lo, hi] with each anchor's `_extent` on one axis, clamped at 0, and the extent's length.

    The extent is the one `_cell_boxes` gives each box of the grid, and its
    length is taken from its coordinates, as `pairwise_iou` takes it, so
    IoUs and their ties are bit-equal to the dense matrix's.
    """
    a0, a1 = _extent(cell, stride, half)
    return np.maximum(np.minimum(a1, hi) - np.maximum(a0, lo), 0.0), a1 - a0


def _spans(lo: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For runs of n[i] consecutive cells from lo[i], each cell's run and cell, run by run."""
    return np.repeat(np.arange(n.size), n), _runs(lo, n)


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

    The one lattice scorer: `grid_overlaps` and the census (`stats`) both
    score with it. `layers` is a `_lattice`, and `windows` holds each
    window's face, layer and inclusive row and col bounds. Each window's
    columns and rows are scored once, on their own axis, and each cell
    multiplies its column's figures by its row's, in the order
    `pairwise_iou` multiplies a box's, so IoUs are bit-equal to it where
    they are positive. An IoU that is not positive may come out 0, negative
    or NaN.
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
    # The union is 0 only where the intersection is: 0 / 0 is NaN, which no
    # threshold keeps. The area of a face without a window, such as one with
    # an infinite side, may be NaN or overflow, but no cell reads it.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        iou += ((faces[:, 2] - faces[:, 0]) * (faces[:, 3] - faces[:, 1]))[face[yw]][yi]
        iou -= inter
        np.divide(inter, iou, out=iou)
    row_first = start[layer[yw]] + row * cols[layer[yw]]
    return yw[yi], row_first[yi] + col[xi], iou


def grid_overlaps(grid: AnchorGrid, faces: Sequence[Box] | np.ndarray) -> Overlaps:
    """``overlaps(grid.boxes, faces)``, reading only anchors a face can reach.

    On a lattice grid only the cells of the faces' `_window_candidates` are
    scored, by `_cells` from their indices, so work is O(faces x levels +
    cells) rather than O(anchors). Rows, order and IoUs are those of
    `overlaps`. Other grids go through `overlaps`.
    """
    faces = as_box_array(faces)
    if not grid.lattice:
        return overlaps(grid.boxes, faces)
    windows = _window_candidates(grid, faces)
    window, anchor, iou = _cells(faces, grid._layout, windows)
    keep = iou > 0.0
    return _ordered(anchor[keep], windows[0][window[keep]], iou[keep])


def _pair_rows(grid: AnchorGrid, faces: Sequence[Box] | np.ndarray) -> tuple[np.ndarray, Overlaps]:
    """`grid_overlaps` on its own rows: one row per anchor that meets a face.

    Returns the rows' anchor indices (ascending) and the pair list with each
    anchor index replaced by its row; `grid.boxes_at` gives the rows' boxes.
    Rows keep the anchors' order, so a rule that breaks ties by the lower
    anchor gives the same result on rows as on the whole grid. On a lattice grid, work and
    memory are O(faces x levels + pairs), whatever the grid's size.
    """
    pairs = grid_overlaps(grid, faces)
    head = pairs.heads()
    anchors = pairs.box[head]
    return anchors, Overlaps(np.cumsum(head) - 1, pairs.face, pairs.iou)


def cover_image_size(face_boxes: np.ndarray, config: AnchorConfig) -> tuple[int, int]:
    """Smallest image extent whose grid holds every anchor that can touch a face.

    Annotation files carry no image dimensions; a grid sized this way
    contains every anchor with positive overlap against any listed face, so
    match results equal those on any larger grid.
    """
    w, h = _cover(as_box_array(face_boxes).max(axis=0, initial=-np.inf)[None, 2:], config._sizes[None])
    return int(w.item()), int(h.item())


def default_hambox_config() -> AnchorConfig:
    """Six stride-doubling levels at scales 16..512, shrunk by the 0.68 ratio."""
    return AnchorConfig(
        levels=tuple(zip(DEFAULT_STRIDES, DEFAULT_BASE_SCALES)),
        scale_ratio=DEFAULT_SCALE_RATIO,
        aspect_ratio=1.0,
    )
