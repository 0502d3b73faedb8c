"""Synthetic regression head for exercising the mining pipeline end to end.

The simulator stands in for a trained network: each anchor's "prediction" is
its own box pulled toward its best-overlapping face by a quality factor q
(optionally scheduled per iteration) plus keyed Gaussian jitter. Running the
full loop (regress, match, compensate, score, loss) over simulated
iterations reproduces the qualitative training dynamics: no compensation
while predictions are poor, then increasingly many high-quality compensated
anchors as q ramps up.

Randomness comes from a counter-based generator keyed by
(seed, iteration, stream), so outputs are bit-identical regardless of
evaluation order or thread count.

Mining, the losses and the provenance report run on rows: the anchors that
meet a face, plus with noise the unpulled anchors that jitter can carry onto
one. Every other anchor stays background with F = 0 and adds one known loss
term. Only the noise draw, which the stream fixes for every anchor, its
per-level bound (`_jitter_reach`) and the loss's background pool read every
anchor; a scorer that does not rank F = 0 below a correct box makes the
report rebuild the whole grid, of at most `MAX_ANCHORS` anchors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .anchors import (
    MAX_ANCHORS,
    AnchorConfig,
    AnchorGrid,
    _pair_rows,
    _spans,
    _window_candidates,
    cover_image_size,
    default_hambox_config,
    generate_anchors,
    grid_overlaps,
)
from .assignment import (
    SOURCE_HAMBOX,
    Assignment,
    MatchParams,
    first_step_from_overlaps,
    match_first_step,
)
from .geometry import Box, Overlaps, _runs, as_box_array, elementwise_iou, encode_boxes, overlaps
from .ingest import FaceAnnotation, ImageRecord, SimulatorSettings, _map_images
from .losses import LossParams, location_loss, regression_aware_cls_loss, sigmoid
from .mining import (
    AnchorQuality,
    CompensationParams,
    _compensate,
    _quality,
    compute_quality,
    ignore_mask,
)
from .stats import CPBB_IOU, ProvenanceReport, combine_reports, provenance_report

_MIN_BOX_SIDE = 1e-6  # jittered corners may not invert a box
FACES_PER_IMAGE = (2, 4)  # least and most faces of a `synthetic_dataset` image
SIZE_BAND = (0.6, 0.7)  # `synthetic_dataset` face sides, as fractions of an anchor side


@dataclass(frozen=True)
class RegressorModel:
    """Synthetic regression head.

    `q` interpolates each anchor toward its best face (0 = no movement,
    1 = exact); `quality_ramp`, when set, supplies q per iteration.
    `noise_sigma` scales corner jitter relative to the reference box size.
    Defaults and checks are those of `SimulatorSettings`.
    """

    q: float = SimulatorSettings.q
    noise_sigma: float = SimulatorSettings.noise_sigma
    seed: int = SimulatorSettings.seed
    quality_ramp: Callable[[int], float] | None = None

    def __post_init__(self) -> None:
        SimulatorSettings(q=self.q, noise_sigma=self.noise_sigma, seed=self.seed)

    @classmethod
    def from_settings(
        cls, sim: SimulatorSettings, quality_ramp: Callable[[int], float] | None = None
    ) -> "RegressorModel":
        """The model of a config's `[simulator]` section, with q per iteration from `quality_ramp` when given."""
        return cls(q=sim.q, noise_sigma=sim.noise_sigma, seed=sim.seed, quality_ramp=quality_ramp)

    def q_at(self, iteration: int) -> float:
        q = self.quality_ramp(iteration) if self.quality_ramp is not None else self.q
        return float(min(1.0, max(0.0, q)))


def linear_ramp(start: float, end: float, n_iters: int) -> Callable[[int], float]:
    """Schedule rising linearly from `start` at iteration 0 to `end` at n_iters - 1."""
    if n_iters < 1:
        raise ValueError(f"n_iters must be >= 1, got {n_iters}")
    if n_iters == 1:
        return lambda t: end
    return lambda t: start + (end - start) * min(t, n_iters - 1) / (n_iters - 1)


@dataclass(frozen=True)
class SimulationRecord:
    iteration: int
    cls_compensated: float
    cls_normal: float
    loc_compensated: float
    loc_normal: float
    n_compensated: int
    mean_compensated_iou: float | None
    n_ignored: int


def simulate_regression(
    grid: AnchorGrid,
    faces: Sequence[Box] | np.ndarray,
    model: RegressorModel,
    iteration: int,
    stream: int = 0,
) -> np.ndarray:
    """Predicted boxes for every anchor at one iteration.

    Each corner moves fraction q of the way toward the anchor's best-IoU
    face; anchors overlapping no face just jitter around themselves. Noise
    std is noise_sigma times the reference box's width (x coordinates) or
    height (y coordinates). `stream` separates images sharing a seed.
    """
    faces = as_box_array(faces)
    noise = _noise(model, iteration, stream, grid.boxes.shape)
    return _regress(grid.boxes, faces, grid_overlaps(grid, faces), model.q_at(iteration), model.noise_sigma, noise)


def _noise(model: RegressorModel, iteration: int, stream: int, shape: tuple[int, ...]) -> np.ndarray | None:
    """The iteration's keyed normals for every anchor, or None without noise (a NaN sigma included)."""
    if not model.noise_sigma > 0.0:
        return None
    ss = np.random.SeedSequence(entropy=model.seed, spawn_key=(iteration, stream))
    return np.random.Generator(np.random.Philox(ss)).standard_normal(shape)


def _regress(
    boxes: np.ndarray, faces: np.ndarray, pairs: Overlaps, q: float, noise_sigma: float, noise: np.ndarray | None
) -> np.ndarray:
    """Predicted boxes of some anchors, from their boxes, their pair list with `faces` and their noise rows.

    A box's reference is its best-IoU face (its first pair), or the box
    itself when it has no pair; the box moves fraction q toward it, and the
    noise scales with the reference's sides. Every row is computed on its
    own, so a subset of rows comes out bit-equal to the same rows of the
    whole grid.
    """
    best = pairs.best()
    ref = boxes.copy()
    ref[best.box] = faces[best.face]
    pulled = np.zeros(boxes.shape[0], dtype=bool)
    pulled[best.box] = True
    out = np.where(pulled[:, None], boxes + q * (ref - boxes), boxes)
    if noise is not None:
        ref_w = ref[:, 2] - ref[:, 0]
        ref_h = ref[:, 3] - ref[:, 1]
        scale = np.stack([ref_w, ref_h, ref_w, ref_h], axis=1) * noise_sigma
        out = out + noise * scale
        out[:, 2] = np.maximum(out[:, 2], out[:, 0] + _MIN_BOX_SIDE)
        out[:, 3] = np.maximum(out[:, 3], out[:, 1] + _MIN_BOX_SIDE)
    return out


def _jitter_reach(grid: AnchorGrid, noise: np.ndarray, noise_sigma: float) -> np.ndarray:
    """(L, 2): per level, how far jitter can move an x and a y coordinate of an unpulled anchor.

    An unpulled anchor's reference is itself, so a coordinate moves by
    noise_sigma x |noise| times its width (x) or height (y); the bound takes
    the level's largest |noise| over all of its anchors, a superset of its
    unpulled ones. The clamp ``x1 >= x0 + _MIN_BOX_SIDE`` fires only when it
    raises x1 to at most x0 + reach + _MIN_BOX_SIDE, which is within
    x1 + reach + _MIN_BOX_SIDE because x1 >= x0; so adding _MIN_BOX_SIDE to
    the reach bounds every corner of every unpulled box.
    """
    _, aw, ah, *_, start = grid._layout
    flat, at = noise.ravel(), start * 4  # rows are 4 wide
    peak = np.maximum(np.maximum.reduceat(flat, at), -np.minimum.reduceat(flat, at))
    return noise_sigma * peak[:, None] * np.stack([aw, ah], axis=1) + _MIN_BOX_SIDE


def synthetic_dataset(
    n_images: int, seed: int = 0, image_size: int = 640, levels: tuple[int, ...] = (0, 1, 2)
) -> list[ImageRecord]:
    """Deterministic random face layouts that leave room for compensation.

    Each image holds `FACES_PER_IMAGE` faces, whose sides are drawn
    `SIZE_BAND` times the default anchor side of a random pyramid level. The
    band undershoots the anchor scale, so most faces hold fewer first-step
    positives than the usual budget K while no anchor-to-face IoU comes near
    the online admission threshold (the nested-anchor bound at the band is
    (0.5/0.6)^2, about 0.69).
    """
    if n_images < 1:
        raise ValueError(f"n_images must be >= 1, got {n_images}")
    lo, hi = SIZE_BAND
    config = default_hambox_config()
    records = []
    for i in range(n_images):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(i,))
        rng = np.random.Generator(np.random.Philox(ss))
        n_faces = int(rng.integers(FACES_PER_IMAGE[0], FACES_PER_IMAGE[1] + 1))
        faces = []
        for _ in range(n_faces):
            level = int(rng.choice(levels))
            side = config.anchor_size(level)[0] * rng.uniform(lo, hi)
            x0 = rng.uniform(0.0, image_size - side)
            y0 = rng.uniform(0.0, image_size - side)
            faces.append(FaceAnnotation(box=Box(x0, y0, x0 + side, y0 + side)))
        records.append(ImageRecord(path=f"synthetic/{i:04d}.jpg", faces=tuple(faces)))
    return records


@dataclass(frozen=True)
class MinedIteration:
    """One iteration of the per-image mining sequence, on its rows.

    `rows` holds the iteration's anchor indices in ascending order: the
    anchors that meet a face, plus on a noisy grid the unpulled anchors that
    jitter can carry onto one. Every other field has one entry per row, and
    `regressed` is bit-equal to those rows of `simulate_regression`. An
    anchor outside the rows meets no face: it is background with source
    none, F = 0 and not ignored. So the rows' fields, with
    `grid.boxes_at(rows)` for the anchors, are what the losses and
    `provenance_report` read.
    """

    iteration: int
    rows: np.ndarray  # (R,) int64 anchor indices, ascending
    first: Assignment  # first matching step; each anchor's entry is the same in every iteration
    assigned: Assignment  # first step plus online compensation
    regressed: np.ndarray  # (R, 4) predicted boxes
    quality: AnchorQuality
    ignore: np.ndarray  # (R,) bool


def mine_image(
    grid: AnchorGrid,
    faces: Sequence[Box] | np.ndarray,
    model: RegressorModel,
    n_iters: int,
    stream: int,
    match: MatchParams,
    comp: CompensationParams,
) -> Iterator[MinedIteration]:
    """Yield the mining sequence of one image for iterations 0 .. n_iters - 1.

    Per iteration, on the iteration's rows (see `MinedIteration` and
    `_window_rows`): the first step and each row's best-face pull, from the
    anchor-by-face pair list of `anchors._pair_rows`, searched once per
    image; the regressed boxes; one `overlaps(regressed, faces)` pair list,
    which feeds both compensation above T up to K and quality; and the
    ignore mask.

    Rows keep the anchors' order, so a rule that breaks ties by the lower
    row breaks them by the lower anchor; a row in no anchor-by-face pair
    starts as background with source none. Only the noise draw, which the
    stream fixes for every anchor, and its bound `_jitter_reach` read every
    anchor; without noise, memory is O(faces x levels + pairs).
    """
    faces = as_box_array(faces)
    anchors, pairs = _pair_rows(grid, faces)
    n = len(grid)
    for t in range(n_iters):
        noise = _noise(model, t, stream, (n, 4))
        rows = _window_rows(grid, anchors, faces, noise, model.noise_sigma)
        if noise is not None and rows.size < n:
            noise = noise[rows]  # the draw of every other anchor is not read again
        boxes = grid.boxes_at(rows)
        pairs_0 = Overlaps(np.searchsorted(rows, anchors)[pairs.box], pairs.face, pairs.iou)
        first = first_step_from_overlaps(boxes, faces, pairs_0, match)
        regressed = _regress(boxes, faces, pairs_0, model.q_at(t), model.noise_sigma, noise)
        pairs_t = overlaps(regressed, faces)
        assigned = _compensate(first, boxes, faces, pairs_t, comp)
        quality = _quality(pairs_t, rows.size)
        yield MinedIteration(t, rows, first, assigned, regressed, quality, ignore_mask(assigned, quality))


def _window_rows(
    grid: AnchorGrid, anchors: np.ndarray, faces: np.ndarray, noise: np.ndarray | None, noise_sigma: float
) -> np.ndarray:
    """An iteration's rows, as ascending anchor indices.

    The rows are the pulled `anchors` plus every anchor that a face's window
    on its level, widened by that level's largest jitter, holds. Without
    noise an unpulled anchor stays on itself and meets no face, so the rows
    are `anchors` and no window is searched. On a grid not laid out by
    `generate_anchors`, or when the windows hold more cells than the grid
    has anchors, every anchor is a row; the cell count is checked before
    any window is expanded. The windows' cells are expanded to anchor
    indices only, row by row, and not scored: no IoU is read before the
    pull, after which `overlaps` scores the regressed rows.
    """
    if noise is None:
        return anchors
    if grid.lattice:
        reach = _jitter_reach(grid, noise, noise_sigma)
        _, level, row_lo, row_hi, col_lo, col_hi = _window_candidates(grid, faces, reach)
        n_rows, n_cols = row_hi - row_lo + 1, col_hi - col_lo + 1
    if not grid.lattice or n_rows @ n_cols > len(grid):
        return np.arange(len(grid))
    *_, cols, start = grid._layout
    run, row = _spans(row_lo, n_rows)
    # A sort and a heads mask: numpy's hash-based `unique` (as in `union1d`) costs more here.
    rows = np.concatenate([anchors, _runs(start[level[run]] + row * cols[level[run]] + col_lo[run], n_cols[run])])
    rows.sort()
    return rows[np.diff(rows, prepend=-1) != 0]


def run_simulation(
    dataset: Sequence[ImageRecord],
    anchor_config: AnchorConfig,
    comp_params: CompensationParams,
    loss_params: LossParams,
    model: RegressorModel,
    n_iters: int,
    match_params: MatchParams | None = None,
    image_size: tuple[int, int] | None = None,
    scorer_scale: float = SimulatorSettings.score_scale,
    scorer_bias: float = SimulatorSettings.score_bias,
    threads: int = 1,
    provenance: bool = False,
) -> tuple[list[SimulationRecord], ProvenanceReport | None]:
    """Run the mining pipeline over simulated training iterations.

    Per image and iteration: simulate predictions, match, compensate, build
    the quality/ignore signals, score with probability
    sigmoid(scorer_scale * F + scorer_bias), and evaluate both losses.
    Loss terms and counts are summed over images in image order; the
    compensated-IoU mean pools all compensated anchors of the iteration.
    With `image_size` unset, each image's grid is sized from its own
    annotations. Each image's grid lives only while that image runs.

    Returns the per-iteration records and, with `provenance`, the pooled
    first-step provenance report of the last iteration (else None). The
    report reads that iteration's rows, unless the scorer does not rank an
    anchor outside them (F = 0) strictly below a correct box: then its NMS
    needs their boxes, and the image's whole grid is regressed, scored and
    matched again with the public functions; a grid of more than
    `MAX_ANCHORS` anchors raises ValueError before any of it is built.
    """
    if n_iters < 1:
        raise ValueError(f"n_iters must be >= 1, got {n_iters}")
    match_params = match_params or MatchParams()

    def work(i: int):
        faces = dataset[i].face_boxes()
        w, h = image_size if image_size is not None else cover_image_size(faces, anchor_config)
        grid = generate_anchors(anchor_config, w, h)
        n = len(grid)
        # Every anchor outside an iteration's rows is background with F = 0.
        outside = sigmoid(scorer_scale * np.zeros(1) + scorer_bias)
        per_iter = []
        report = None
        for it in mine_image(grid, faces, model, n_iters, i, match_params, comp_params):
            probs = sigmoid(scorer_scale * it.quality.F + scorer_bias)
            cls = regression_aware_cls_loss(
                probs, it.assigned, it.quality, it.ignore, loss_params, outside=(it.rows, n, outside)
            )
            # The location loss reads only the positive rows.
            pos = it.assigned.positive
            deltas = np.full(it.regressed.shape, np.nan)
            deltas[pos] = encode_boxes(grid.boxes_at(it.rows[pos]), it.regressed[pos])
            loc = location_loss(deltas, it.assigned, loss_params)
            comp_mask = it.assigned.source == SOURCE_HAMBOX
            com_ious = elementwise_iou(it.regressed[comp_mask], faces[it.assigned.face_of[comp_mask]])
            loss_terms = (cls.cls_compensated, cls.cls_normal, loc.loc_compensated, loc.loc_normal)
            per_iter.append((*loss_terms, cls.n_com, float(np.sum(com_ious)), int(it.ignore.sum())))
            if provenance and it.iteration == n_iters - 1:
                # The report's NMS reads every box that scores at least its
                # weakest correct step-1 box, whose F exceeds CPBB_IOU. The
                # anchors outside the rows have F = 0; a scorer that does not
                # rank F = 0 strictly lower needs their boxes too, so the
                # whole grid goes through the public functions.
                if it.rows.size == n or outside[0] < probs[it.quality.F > CPBB_IOU].min(initial=np.inf):
                    boxes = grid.boxes_at(it.rows)
                    report = provenance_report(it.first, boxes, it.quality, it.regressed, probs, faces, 0.5)
                elif n > MAX_ANCHORS:
                    raise ValueError(
                        f"{dataset[i].path}: at score_scale {scorer_scale!r} and score_bias {scorer_bias!r} "
                        f"the provenance report needs the whole grid of {n} anchors, more than {MAX_ANCHORS}"
                    )
                else:
                    regressed = simulate_regression(grid, faces, model, it.iteration, i)
                    quality = compute_quality(regressed, faces)
                    probs = sigmoid(scorer_scale * quality.F + scorer_bias)
                    first = match_first_step(grid, faces, match_params)
                    report = provenance_report(first, grid, quality, regressed, probs, faces, 0.5)
        return per_iter, report

    # Each image's terms add to its iteration's totals in image order, from 0: plain
    # left-to-right addition on every Python (3.12's `sum` compensates floats).
    totals = [[0] * 7 for _ in range(n_iters)]
    reports = []
    for per_iter, report in _map_images(work, len(dataset), threads):
        totals = [[a + b for a, b in zip(total, terms)] for total, terms in zip(totals, per_iter)]
        reports.append(report)
    records = [
        SimulationRecord(t, cls_com, cls_norm, loc_com, loc_norm, n_com, iou_sum / n_com if n_com else None, n_ign)
        for t, (cls_com, cls_norm, loc_com, loc_norm, n_com, iou_sum, n_ign) in enumerate(totals)
    ]
    return records, combine_reports(reports) if provenance else None
