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

Mining and the losses run on rows: the anchors that meet a face, plus with
noise the unpulled anchors that jitter can carry onto one. Every other
anchor stays background with F = 0 and adds one known loss term. Only the
noise draw, which the stream fixes for every anchor, and its per-level bound
(`_jitter_reach`) read every anchor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .anchors import (
    AnchorConfig,
    AnchorGrid,
    _pair_rows,
    _window_candidates,
    cover_image_size,
    default_hambox_config,
    generate_anchors,
    grid_overlaps,
)
from .assignment import (
    BACKGROUND,
    SOURCE_HAMBOX,
    SOURCE_NONE,
    Assignment,
    MatchParams,
    first_step_from_overlaps,
)
from .geometry import Box, Overlaps, _candidates, _scored, as_box_array, elementwise_iou, encode_boxes, overlaps
from .ingest import FaceAnnotation, ImageRecord, SimulatorSettings, _map_images
from .losses import LossParams, location_loss, regression_aware_cls_loss, sigmoid
from .mining import (
    AnchorQuality,
    CompensationParams,
    _compensate,
    _quality,
    ignore_mask,
)
from .stats import CPBB_IOU, ProvenanceReport, combine_reports, provenance_report

_MIN_BOX_SIDE = 1e-6  # jittered corners may not invert a box
_EMPTY = np.zeros(0, dtype=np.int64)


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


def _keyed_normals(seed: int, iteration: int, stream: int, shape: tuple[int, ...]) -> np.ndarray:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(iteration, stream))
    return np.random.Generator(np.random.Philox(ss)).standard_normal(shape)


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
    ref, pulled = _pull_targets(grid.boxes, faces, grid_overlaps(grid, faces))
    noise = _noise(model, iteration, stream, grid.boxes.shape)
    return _regress(grid.boxes, ref, pulled, model.q_at(iteration), model.noise_sigma, noise)


def _pull_targets(
    boxes: np.ndarray, faces: np.ndarray, pairs: Overlaps
) -> tuple[np.ndarray, np.ndarray]:
    """Each anchor's reference box (its best-IoU face, or itself) and whether it overlaps a face."""
    best = pairs.best()
    ref = boxes.copy()
    ref[best.box] = faces[best.face]
    overlap = np.zeros(boxes.shape[0], dtype=bool)
    overlap[best.box] = True
    return ref, overlap


def _noise(model: RegressorModel, iteration: int, stream: int, shape: tuple[int, ...]) -> np.ndarray | None:
    """The iteration's keyed normals for every anchor, or None without noise."""
    return _keyed_normals(model.seed, iteration, stream, shape) if model.noise_sigma > 0.0 else None


def _regress(
    boxes: np.ndarray,
    ref: np.ndarray,
    pulled: np.ndarray,
    q: float,
    noise_sigma: float,
    noise: np.ndarray | None,
) -> np.ndarray:
    """Predicted boxes of some anchors, from their rows of boxes, ref, pulled and noise.

    Every row is computed on its own, so a subset of rows comes out
    bit-equal to the same rows of the whole grid.
    """
    out = np.where(pulled[:, None], boxes + q * (ref - boxes), boxes)
    if noise is not None:
        ref_w = ref[:, 2] - ref[:, 0]
        ref_h = ref[:, 3] - ref[:, 1]
        scale = np.stack([ref_w, ref_h, ref_w, ref_h], axis=1) * noise_sigma
        out = out + noise * scale
        out[:, 2] = np.maximum(out[:, 2], out[:, 0] + _MIN_BOX_SIDE)
        out[:, 3] = np.maximum(out[:, 3], out[:, 1] + _MIN_BOX_SIDE)
    return out


def _jitter_reach(grid: AnchorGrid, noise: np.ndarray, moved: np.ndarray, noise_sigma: float) -> np.ndarray:
    """(L, 2): per level, how far jitter can move an x and a y coordinate of an unpulled anchor.

    An unpulled anchor's reference is itself, so a coordinate moves by
    noise_sigma x |noise| times its width (x) or height (y); the bound takes
    the level's largest |noise| over its unpulled rows. The clamp
    ``x1 >= x0 + _MIN_BOX_SIDE`` fires only when it raises x1 to at most
    x0 + reach + _MIN_BOX_SIDE, which is within x1 + reach + _MIN_BOX_SIDE
    because x1 >= x0; so adding _MIN_BOX_SIDE to the reach bounds every
    corner of every unpulled box.
    """
    _, aw, ah, *_, start = grid._layout
    kept = noise[moved]
    noise[moved] = 0.0  # for the reduction only: the pulled rows are put back below
    flat, at = noise.ravel(), start * 4  # rows are 4 wide
    peak = np.maximum(np.maximum.reduceat(flat, at), -np.minimum.reduceat(flat, at))
    noise[moved] = kept
    return noise_sigma * peak[:, None] * np.stack([aw, ah], axis=1) + _MIN_BOX_SIDE


def synthetic_dataset(
    n_images: int,
    seed: int = 0,
    image_size: int = 640,
    faces_per_image: tuple[int, int] = (2, 4),
    size_band: tuple[float, float] = (0.6, 0.7),
    levels: tuple[int, ...] = (0, 1, 2),
) -> list[ImageRecord]:
    """Deterministic random face layouts that leave room for compensation.

    Face sides are drawn `size_band` times the default anchor side of a
    random pyramid level. The default band undershoots the anchor scale, so
    most faces hold fewer first-step positives than the usual budget K while
    no anchor-to-face IoU comes near the online admission threshold (the
    nested-anchor bound at the band is (0.5/0.6)^2, about 0.69).
    """
    if n_images < 1:
        raise ValueError(f"n_images must be >= 1, got {n_images}")
    lo, hi = size_band
    if not 0.0 < lo <= hi:
        raise ValueError(f"size_band must satisfy 0 < lo <= hi, got {size_band}")
    config = default_hambox_config()
    records = []
    for i in range(n_images):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(i,))
        rng = np.random.Generator(np.random.Philox(ss))
        n_faces = int(rng.integers(faces_per_image[0], faces_per_image[1] + 1))
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
    """One iteration of the per-image mining sequence.

    From `mine_image`, every array has one row per anchor of the grid.
    `regressed` holds the predicted box of every anchor that can meet a
    face: the anchors pulled toward a face, and on a noisy lattice grid the
    unpulled anchors inside a face's widened window. Those rows are
    bit-equal to `simulate_regression`; every other row is NaN. A row with
    NaN meets no face, so its F is 0 and it is never positive. `_mine_rows`
    gives the same fields on its rows only, all of them regressed.
    """

    iteration: int
    first: Assignment  # first matching step, shared by every iteration
    assigned: Assignment  # first step plus online compensation
    regressed: np.ndarray  # (N, 4) predicted boxes; NaN where not computed
    quality: AnchorQuality
    ignore: np.ndarray  # (N,) bool


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

    Per iteration: regress, compensate the first step above T up to K, score
    quality and build the ignore mask. The first step and each anchor's
    best-face pull do not change between iterations; both come from one
    anchor-by-face pair list. One regressed-by-face pair list per iteration
    feeds both compensation and quality, and it is the pair list of
    `overlaps(simulate_regression(...), faces)`.

    The work runs on rows (`_mine_rows`): the anchors that meet a face, plus
    with noise the unpulled anchors that jitter can carry onto one. Only the
    noise draw, which the stream fixes for every anchor, and the jitter
    bound `_jitter_reach` read every anchor. Each iteration is then spread
    to one row per anchor (see `MinedIteration`). Memory is O(anchors +
    candidate pairs): no anchors x faces matrix is built.
    """
    faces = as_box_array(faces)
    n = len(grid)
    mined = _mine_rows(grid, *_pair_rows(grid, faces), faces, model, n_iters, stream, match, comp)
    return (_per_anchor(it, rows, n) for rows, it in mined)


def _mine_rows(
    grid: AnchorGrid,
    anchors: np.ndarray,
    boxes: np.ndarray,
    pairs: Overlaps,
    faces: np.ndarray,
    model: RegressorModel,
    n_iters: int,
    stream: int,
    match: MatchParams,
    comp: CompensationParams,
) -> Iterator[tuple[np.ndarray, MinedIteration]]:
    """`mine_image` on rows: yields each iteration's rows and the iteration on them.

    `anchors`, `boxes` and `pairs` are the anchors that meet a face, their
    boxes and their pairs with the faces, as `anchors._pair_rows` gives
    them. An iteration's rows are those anchors plus the rows of
    `_window_rows`, in ascending anchor order, so a rule that breaks ties by
    the lower row breaks them by the lower anchor. A row that enters only
    through a window starts as background with source none. Without noise
    the rows are `anchors` in every iteration.
    """
    first = first_step_from_overlaps(boxes, faces, pairs, match)
    ref, _ = _pull_targets(boxes, faces, pairs)  # every row is pulled
    n = len(grid)
    for t in range(n_iters):
        noise = _noise(model, t, stream, (n, 4))
        found = _window_rows(grid, anchors, faces, noise, model.noise_sigma)
        if found is None:  # every anchor is a row
            rows, at = np.arange(n), anchors
        else:
            rows, at, win, win_face = found
            if noise is not None:
                noise = noise[rows]  # the draw of every other anchor is not read again
        pulled = _spread(np.ones(at.size, dtype=bool), at, rows.size, False)
        free = np.flatnonzero(~pulled)
        row_boxes, row_ref = _spread(boxes, at, rows.size, np.nan), _spread(ref, at, rows.size, np.nan)
        row_boxes[free] = row_ref[free] = grid.boxes_at(rows[free])
        row_first = _spread_assignment(first, at, rows.size)
        regressed = _regress(row_boxes, row_ref, pulled, model.q_at(t), model.noise_sigma, noise)
        if found is None:
            pairs_t = overlaps(regressed, faces)
        else:
            # Each box's candidates come in face order, pulled ones from
            # `_candidates` and windowed ones from `_window_rows`, and no box
            # is in both lists: one `_scored` pass puts them in `overlaps` order.
            box, face = _candidates(regressed[at], faces)
            box, face = np.concatenate([at[box], win]), np.concatenate([face, win_face])
            pairs_t = _scored(regressed.take(box, axis=0), faces, box, face)
        assigned = _compensate(row_first, row_boxes, faces, pairs_t, comp)
        quality = _quality(pairs_t, rows.size)
        yield rows, MinedIteration(t, row_first, assigned, regressed, quality, ignore_mask(assigned, quality))


def _window_rows(
    grid: AnchorGrid, anchors: np.ndarray, faces: np.ndarray, noise: np.ndarray | None, noise_sigma: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
    """An iteration's rows, the places of `anchors` in them, and the row and face of each windowed pair.

    The rows are the pulled `anchors` plus every unpulled anchor that a
    face's window on its level, widened by that level's largest jitter,
    holds; they come as ascending anchor indices. Without noise an unpulled
    anchor stays on itself and meets no face, so no window is searched.
    Returns None when every anchor must be a row and every regressed box
    swept through `overlaps`: on a grid not laid out by `generate_anchors`,
    or when the windows hold more candidates than the grid has anchors,
    which costs more than sweeping every box.
    """
    if noise is None:
        return anchors, np.arange(anchors.size), _EMPTY, _EMPTY
    if not grid.lattice:
        return None
    found = _window_candidates(grid, faces, _jitter_reach(grid, noise, anchors, noise_sigma), len(grid))
    if found is None:
        return None
    face, *_, anchor = found
    # Sorted by anchor, a stable sort keeping each anchor's faces in order.
    order = np.argsort(anchor, kind="stable")
    face, anchor = face[order], anchor[order]
    unpulled = np.append(anchors, -1)[np.searchsorted(anchors, anchor)] != anchor
    face, anchor = face[unpulled], anchor[unpulled]
    rows = np.concatenate([anchors, anchor[np.diff(anchor, prepend=-1) != 0]])
    rows.sort()
    return rows, np.searchsorted(rows, anchors), np.searchsorted(rows, anchor), face


def _spread(values: np.ndarray, at: np.ndarray, n: int, fill) -> np.ndarray:
    """An n-row array with `values` in rows `at` and `fill` in every other row.

    `at` holds distinct row indices in ascending order, so when it covers
    all n rows the values are already in place: they come back as they are.
    """
    if at.size == n:
        return values
    out = np.full((n,) + values.shape[1:], fill, dtype=values.dtype)
    out[at] = values
    return out


def _spread_assignment(assignment: Assignment, at: np.ndarray, n: int) -> Assignment:
    """`assignment` moved to rows `at` of n rows; every other row is background with source none."""
    return Assignment(
        _spread(assignment.face_of, at, n, BACKGROUND),
        _spread(assignment.targets, at, n, np.nan),
        _spread(assignment.source, at, n, SOURCE_NONE),
        assignment.matched_count.copy(),
    )


def _per_anchor(it: MinedIteration, rows: np.ndarray, n: int) -> MinedIteration:
    """`it`, given on `rows`, with one row per anchor of an n-anchor grid.

    An anchor outside the rows is background with source none, a NaN
    regressed box, F = 0 and no ignore.
    """
    return MinedIteration(
        it.iteration,
        _spread_assignment(it.first, rows, n),
        _spread_assignment(it.assigned, rows, n),
        _spread(it.regressed, rows, n, np.nan),
        AnchorQuality(_spread(it.quality.F, rows, n, 0.0)),
        _spread(it.ignore, rows, n, False),
    )


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
    first-step provenance report of the last iteration (else None).
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
        for rows, it in _mine_rows(grid, *_pair_rows(grid, faces), faces, model, n_iters, i, match_params, comp_params):
            probs = sigmoid(scorer_scale * it.quality.F + scorer_bias)
            cls = regression_aware_cls_loss(
                probs, it.assigned, it.quality, it.ignore, loss_params, outside=(rows, n, outside)
            )
            # The location loss reads only the positive rows.
            pos = it.assigned.positive
            deltas = np.full(it.regressed.shape, np.nan)
            deltas[pos] = encode_boxes(grid.boxes_at(rows[pos]), it.regressed[pos])
            loc = location_loss(deltas, it.assigned, loss_params)
            comp_mask = it.assigned.source == SOURCE_HAMBOX
            com_ious = elementwise_iou(it.regressed[comp_mask], faces[it.assigned.face_of[comp_mask]])
            per_iter.append((
                cls.cls_compensated,
                cls.cls_normal,
                loc.loc_compensated,
                loc.loc_normal,
                int(comp_mask.sum()),
                float(np.sum(com_ious)),
                int(it.ignore.sum()),
            ))
            if provenance and it.iteration == n_iters - 1:
                # The report's NMS reads every box that scores at least its
                # weakest correct step-1 box, whose F exceeds CPBB_IOU. The
                # anchors outside the rows have F = 0; a scorer that does not
                # rank F = 0 strictly lower needs their boxes too.
                quality = AnchorQuality(_spread(it.quality.F, rows, n, 0.0))
                probs = sigmoid(scorer_scale * quality.F + scorer_bias)
                weakest = probs[quality.F > CPBB_IOU].min(initial=np.inf)
                regressed = _spread(it.regressed, rows, n, np.nan)
                if np.any(probs[np.isnan(regressed[:, 0])] >= weakest):
                    regressed = simulate_regression(grid, faces, model, it.iteration, i)
                first = _spread_assignment(it.first, rows, n)
                report = provenance_report(first, grid, quality, regressed, probs, faces, 0.5)
        return per_iter, report

    per_image = _map_images(work, len(dataset), threads)
    records: list[SimulationRecord] = []
    for t in range(n_iters):
        cls_com, cls_norm, loc_com, loc_norm, n_com, iou_sum, n_ign = (
            sum(per_iter[t][k] for per_iter, _ in per_image) for k in range(7)
        )
        records.append(
            SimulationRecord(
                iteration=t,
                cls_compensated=cls_com,
                cls_normal=cls_norm,
                loc_compensated=loc_com,
                loc_normal=loc_norm,
                n_compensated=n_com,
                mean_compensated_iou=(iou_sum / n_com) if n_com else None,
                n_ignored=n_ign,
            )
        )
    report = combine_reports([r for _, r in per_image]) if provenance else None
    return records, report
