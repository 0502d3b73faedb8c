"""Box algebra: IoU, anchor/target delta coding, and greedy NMS.

Boxes live in continuous pixel coordinates with width = x1 - x0 (no +1
convention). Deltas use the center-offset / log-size parameterization with
identity variances.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np


class Box(NamedTuple):
    """Axis-aligned rectangle (x0, y0, x1, y1) with x1 >= x0 and y1 >= y0."""

    x0: float
    y0: float
    x1: float
    y1: float

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    @property
    def area(self) -> float:
        return self.width * self.height


class BoxDelta(NamedTuple):
    """Regression offsets: center shifts normalized by anchor size, log scale ratios."""

    tx: float
    ty: float
    tw: float
    th: float


def as_box_array(boxes: Sequence[Box] | np.ndarray) -> np.ndarray:
    """Convert a sequence of boxes (or an (N, 4) array) to a float64 (N, 4) array."""
    arr = np.asarray(boxes, dtype=np.float64)
    if arr.ndim == 1 and arr.size == 0:
        return arr.reshape(0, 4)
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise ValueError(f"expected (N, 4) boxes, got shape {arr.shape}")
    return arr


def _area(boxes: np.ndarray) -> np.ndarray:
    """Area of each (..., 4) box, with a negative side counted as 0."""
    return np.maximum(0.0, boxes[..., 2] - boxes[..., 0]) * np.maximum(0.0, boxes[..., 3] - boxes[..., 1])


def _iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of (..., 4) boxes `a` and `b`, broadcast against each other; 0 where the union is not positive."""
    iw = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    ih = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
    union = _area(a) + _area(b) - inter
    out = np.zeros_like(inter)
    np.divide(inter, union, out=out, where=union > 0.0)
    return out


def iou(a: Box | Sequence[float], b: Box | Sequence[float]) -> float:
    """Intersection-over-union of two boxes.

    Degenerate (zero-area) boxes yield 0.0, never NaN.
    """
    return float(_iou(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)))


def pairwise_iou(a: Sequence[Box] | np.ndarray, b: Sequence[Box] | np.ndarray) -> np.ndarray:
    """IoU between every box in `a` and every box in `b`; returns an (N, M) array."""
    return _iou(as_box_array(a)[:, None], as_box_array(b)[None])


class Overlaps(NamedTuple):
    """Every (box, face) pair with IoU > 0, as three parallel (P,) arrays.

    Rows are sorted by box, then IoU descending, then face ascending, so the
    first row of a box is its dense argmax with the lower face index on ties.
    """

    box: np.ndarray  # (P,) int64
    face: np.ndarray  # (P,) int64
    iou: np.ndarray  # (P,) float64

    def heads(self) -> np.ndarray:
        """(P,) bool: True on the first row of each box."""
        head = np.ones(self.box.size, dtype=bool)
        head[1:] = self.box[1:] != self.box[:-1]
        return head

    def best(self) -> "Overlaps":
        """The first row of each box: its best face and that IoU."""
        head = self.heads()
        return Overlaps(self.box[head], self.face[head], self.iou[head])


def overlaps(boxes: Sequence[Box] | np.ndarray, faces: Sequence[Box] | np.ndarray) -> Overlaps:
    """Every nonzero entry of ``pairwise_iou(boxes, faces)``, without the matrix.

    Each IoU is computed with :func:`pairwise_iou`'s arithmetic, so values
    are bit-equal to the dense entries, and the entries left out are exactly
    its zeros (a box or face without positive sides and a finite area gets
    no pairs). Boxes go into power-of-two size classes, and a box of side
    below c that meets a face starts in [f0 - c, f2) x [f1 - c, f3). Each
    class is sorted by column ``floor(x0 / c)``, then by the rank of y0,
    and a face probes each occupied column of its x range for the one run
    of boxes with y0 in its y range: at most one probe per occupied column
    per class, and none when no box has y0 in that range. Runs are found by
    `searchsorted` on the int64 key ``column rank * (n + 1) + y0 rank``,
    exact up to about 3e9 boxes. Work is O((N + F) log N + probes +
    candidates). When boxes x faces is within 4 per box plus 9 per face,
    as for a few faces, every pair is a candidate and nothing is swept.
    """
    boxes = as_box_array(boxes)
    faces = as_box_array(faces)
    box, face = _candidates(boxes, faces)
    return _scored(boxes.take(box, axis=0), faces, box, face)


def _scorable(boxes: np.ndarray) -> np.ndarray:
    """(N,) bool: boxes with positive sides and a finite area (inf x 0 is NaN), the only ones with IoU > 0."""
    with np.errstate(invalid="ignore", over="ignore"):
        w, h = boxes[:, 2] - boxes[:, 0], boxes[:, 3] - boxes[:, 1]
        return (w > 0.0) & (h > 0.0) & np.isfinite(w * h)


def _runs(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """start[i], start[i] + 1, .., start[i] + count[i] - 1 for each i in turn."""
    return np.arange(count.sum()) + np.repeat(start - np.cumsum(count) + count, count)


def _candidates(boxes: np.ndarray, faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (box, face) candidate pairs of `overlaps`: each pair with IoU > 0 among them once.

    A box's candidates come in ascending face order, as `_scored` needs them.
    """
    bi, fi = np.flatnonzero(_scorable(boxes)), np.flatnonzero(_scorable(faces))
    if bi.size == 0 or fi.size == 0:
        return bi[:0], fi[:0]
    if bi.size * fi.size <= 4 * bi.size + 9 * fi.size:
        return np.repeat(bi, fi.size), np.tile(fi, bi.size)
    b, f = boxes.take(bi, axis=0), faces.take(fi, axis=0)
    # Side < 2**exp; as int16 the classes sort in linear time.
    exps = np.frexp(np.maximum(b[:, 2] - b[:, 0], b[:, 3] - b[:, 1]))[1].astype(np.int16)
    n = bi.size + 1
    by_y = np.argsort(b[:, 1], kind="stable")
    y_rank = np.empty(bi.size, dtype=np.int64)
    y_rank[by_y] = np.arange(bi.size)
    ys = b[by_y, 1]
    y_hi = np.searchsorted(ys, f[:, 3])
    by_class = by_y[np.argsort(exps[by_y], kind="stable")]
    box, face = [], []
    # A side of 2**1023 or more makes c infinite, and a bound or column may
    # round to +-inf; both keep their order, which is all the sweep needs.
    with np.errstate(over="ignore"):
        for mine in np.split(by_class, np.flatnonzero(np.diff(exps[by_class])) + 1):
            c = np.ldexp(1.0, int(exps[mine[0]]))
            step = min(c, 2.0**1023)  # any positive step gives columns in x order
            col = np.floor(b[mine, 0] / step)
            by_col = np.argsort(col, kind="stable")
            mine, col = mine[by_col], col[by_col]
            new = np.r_[True, col[1:] != col[:-1]]
            cols, key = col[new], (np.cumsum(new) - 1) * n + y_rank[mine]  # ascending
            # Faces in index order, each over its columns, so a box meets its faces in order.
            y_lo = np.searchsorted(ys, f[:, 1] - c)
            c_lo = np.searchsorted(cols, np.floor((f[:, 0] - c) / step))
            c_hi = np.searchsorted(cols, np.floor(f[:, 2] / step), side="right")
            probes = np.where(y_lo < y_hi, np.maximum(c_hi - c_lo, 0), 0)
            owner = np.repeat(np.arange(fi.size), probes)
            column = _runs(c_lo, probes) * n
            start = np.searchsorted(key, column + y_lo[owner])
            run = np.searchsorted(key, column + y_hi[owner]) - start
            box.append(bi.take(mine)[_runs(start, run)])
            face.append(np.repeat(fi.take(owner), run))
    return np.concatenate(box), np.concatenate(face)


def _scored(b: np.ndarray, faces: np.ndarray, box: np.ndarray, face: np.ndarray) -> Overlaps:
    """The candidate pairs with IoU > 0, by `pairwise_iou`'s arithmetic, in `Overlaps` order.

    `b[i]` is the box of candidate i, whose index is `box[i]`. Each (box,
    face) candidate appears once, and the candidates of a box that tie on
    IoU come in ascending face order, so the lower face stays first.
    """
    f = faces.take(face, axis=0)
    iw = np.minimum(b[:, 2], f[:, 2]) - np.maximum(b[:, 0], f[:, 0])
    ih = np.minimum(b[:, 3], f[:, 3]) - np.maximum(b[:, 1], f[:, 1])
    meet = np.flatnonzero((iw > 0.0) & (ih > 0.0))
    box, face, b, f = box[meet], face[meet], b.take(meet, axis=0), f.take(meet, axis=0)
    inter = iw[meet] * ih[meet]
    iou = inter / (_area(b) + _area(f) - inter)
    keep = iou > 0.0
    box, face, iou = box[keep], face[keep], iou[keep]
    # Ranking the IoUs first lets one stable sort finish the order.
    desc = np.unique(-iou, return_inverse=True)[1]
    order = np.argsort(box * (desc.size + 1) + desc, kind="stable")
    return Overlaps(box[order], face[order], iou[order])


def elementwise_iou(a: Sequence[Box] | np.ndarray, b: Sequence[Box] | np.ndarray) -> np.ndarray:
    """IoU between corresponding rows of two (N, 4) box arrays."""
    a = as_box_array(a)
    b = as_box_array(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return _iou(a, b)


def encode(anchor: Box | Sequence[float], target: Box | Sequence[float]) -> BoxDelta:
    """Encode `target` relative to `anchor` as (tx, ty, tw, th): :func:`encode_boxes` on one row.

    tx, ty are the center offsets divided by anchor width/height; tw, th are
    natural logs of the size ratios. Both boxes must have positive size.
    """
    return BoxDelta(*encode_boxes([anchor], [target])[0].tolist())


def decode(anchor: Box | Sequence[float], delta: BoxDelta | Sequence[float]) -> Box:
    """Invert :func:`encode`: apply `delta` to `anchor` (:func:`decode_boxes` on one row)."""
    return Box(*decode_boxes([anchor], [delta])[0].tolist())


def _sides(boxes: np.ndarray, role: str) -> tuple[np.ndarray, np.ndarray]:
    """Widths and heights of (N, 4) boxes; ValueError names the first `role` box without positive size."""
    w, h = boxes[:, 2] - boxes[:, 0], boxes[:, 3] - boxes[:, 1]
    if np.any(w <= 0.0) or np.any(h <= 0.0):
        bad = int(np.argmax((w <= 0.0) | (h <= 0.0)))
        raise ValueError(f"{role} {bad} must have positive width and height: {tuple(boxes[bad])}")
    return w, h


def encode_boxes(anchors: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Vectorized :func:`encode` over matched (N, 4) anchor/target arrays."""
    anchors = as_box_array(anchors)
    targets = as_box_array(targets)
    if anchors.shape != targets.shape:
        raise ValueError(f"shape mismatch: anchors {anchors.shape} vs targets {targets.shape}")
    aw, ah = _sides(anchors, "anchor")
    tw, th = _sides(targets, "target")
    dx = ((targets[:, 0] + targets[:, 2]) - (anchors[:, 0] + anchors[:, 2])) / (2.0 * aw)
    dy = ((targets[:, 1] + targets[:, 3]) - (anchors[:, 1] + anchors[:, 3])) / (2.0 * ah)
    return np.stack([dx, dy, np.log(tw / aw), np.log(th / ah)], axis=1)


def decode_boxes(anchors: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Vectorized :func:`decode` over matched (N, 4) anchor/delta arrays."""
    anchors = as_box_array(anchors)
    deltas = np.asarray(deltas, dtype=np.float64)
    if deltas.ndim == 1 and deltas.size == 0:
        deltas = deltas.reshape(0, 4)
    if anchors.shape != deltas.shape:
        raise ValueError(f"shape mismatch: anchors {anchors.shape} vs deltas {deltas.shape}")
    aw, ah = _sides(anchors, "anchor")
    cx = (anchors[:, 0] + anchors[:, 2]) / 2.0 + deltas[:, 0] * aw
    cy = (anchors[:, 1] + anchors[:, 3]) / 2.0 + deltas[:, 1] * ah
    w = np.exp(deltas[:, 2]) * aw
    h = np.exp(deltas[:, 3]) * ah
    return np.stack([cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0], axis=1)


def nms(
    boxes: Sequence[Box] | np.ndarray,
    scores: Sequence[float] | np.ndarray,
    iou_threshold: float,
) -> list[int]:
    """Greedy non-maximum suppression.

    Repeatedly keeps the highest-score remaining box and suppresses remaining
    boxes whose IoU with it exceeds `iou_threshold`. Score ties break toward
    the lower index. Returns kept indices in suppression order.

    The first `_NMS_ROWS` kept boxes each score one IoU row against the
    boxes left, which is cheapest when the boxes crowd around a few faces.
    The boxes still left then go through their pair list (`_greedy_pairs`),
    so work is O(n + overlapping pairs) however many boxes are kept.
    """
    boxes = as_box_array(boxes)
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or scores.shape[0] != boxes.shape[0]:
        raise ValueError(f"boxes/scores length mismatch: {boxes.shape[0]} vs {scores.shape}")
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in [0, 1], got {iou_threshold}")
    # Primary key: score descending; secondary: index ascending.
    order = np.lexsort((np.arange(boxes.shape[0]), -scores))
    kept: list[int] = []
    while order.size and len(kept) < _NMS_ROWS:
        idx, order = order[0], order[1:]
        kept.append(int(idx))
        order = order[~(pairwise_iou(boxes[idx : idx + 1], boxes[order])[0] > iou_threshold)]
    return kept + order[_greedy_pairs(boxes[order], iou_threshold)].tolist()


# Kept boxes that score a dense IoU row each. Boxes crowded on faces have
# dense pairs, and their pair list costs more than a row per kept box up to
# about 200 kept (one per face of a 200-face image); a flat scorer keeps tens
# of thousands, where each 128 more rows add about 10% to its NMS.
_NMS_ROWS = 256
_NMS_BLOCK = 256  # boxes per pair search in `_greedy_pairs`


def _greedy_pairs(boxes: np.ndarray, iou_threshold: float) -> np.ndarray:
    """Greedy NMS of boxes taken in their given order; returns the kept rows.

    Each pair of ``overlaps(boxes, boxes)`` whose IoU exceeds the threshold
    lets its earlier box suppress the later one, and the IoUs are
    `pairwise_iou`'s, bit for bit. The boxes are searched in blocks of
    `_NMS_BLOCK`, in order of their power-of-two area class, which bounds
    the candidates held at once. An IoU is at most the smaller area over
    the larger, so a block is searched only against the classes that can
    hold an area ratio of half the threshold or more with it (half, to
    spare rounding).
    """
    n = boxes.shape[0]
    exp = np.frexp(_area(boxes))[1]
    by_class = np.argsort(exp, kind="stable")
    sorted_exp = exp[by_class]
    reach = np.inf if iou_threshold == 0.0 else 2.0 - np.log2(iou_threshold)
    first, later = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for lo in range(0, n, _NMS_BLOCK):
        block = by_class[lo : lo + _NMS_BLOCK]
        near = by_class[
            np.searchsorted(sorted_exp, sorted_exp[lo] - reach, side="right") :
            np.searchsorted(sorted_exp, sorted_exp[lo + block.size - 1] + reach, side="left")
        ]
        pairs = overlaps(boxes[block], boxes[near])
        a, b = block[pairs.box], near[pairs.face]
        hit = (pairs.iou > iou_threshold) & (a < b)
        first.append(a[hit])
        later.append(b[hit])
    first, later = np.concatenate(first), np.concatenate(later)
    by_first = np.argsort(first, kind="stable")
    later = later[by_first]
    bounds = np.searchsorted(first[by_first], np.arange(n + 1))
    alive = np.ones(n, dtype=bool)
    kept = []
    for row in range(n):
        if alive[row]:
            kept.append(row)
            alive[later[bounds[row] : bounds[row + 1]]] = False
    return np.array(kept, dtype=np.int64)
