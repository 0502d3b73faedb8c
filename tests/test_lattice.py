"""The lattice kernel `grid_overlaps` and the grid it reads, against their references.

`grid_overlaps` must return exactly `overlaps(grid.boxes, faces)` on every
grid that `generate_anchors` lays out, and fall back to it on grids built
by hand. `mine_image`'s windowed search of noisy regressed boxes must
return exactly `overlaps` on `simulate_regression`. `generate_anchors` must
keep the boxes of the meshgrid layout it was first written with, which is
kept here as the reference, and a lattice grid's `boxes_at` and `levels_at`
must equal those rows of it. The stacked layout and cover that the census
reads must equal the one-config grids. Noise-free `assign`, which keeps
state only on the anchors that meet a face, must write what the public
dense functions give.
"""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hambox import simulator
from hambox.anchors import (
    AnchorConfig,
    AnchorGrid,
    _cover,
    _lattice,
    cover_image_size,
    default_hambox_config,
    generate_anchors,
    grid_overlaps,
)
from hambox.assignment import SOURCE_HAMBOX, SOURCE_NAMES, MatchParams, match_first_step, match_nams, match_two_step
from hambox.cli import _assign_image, main
from hambox.geometry import Box, elementwise_iou, overlaps
from hambox.ingest import FaceAnnotation, ImageRecord, SimulatorSettings, ToolConfig, load_wider_annotations
from hambox.losses import LossParams, sigmoid
from hambox.mining import CompensationParams, compensate, compute_quality, ignore_mask
from hambox.simulator import RegressorModel, mine_image, run_simulation, simulate_regression
from hambox.stats import provenance_report


def meshgrid_anchors(config, image_w, image_h):
    """generate_anchors as first written: one meshgrid, stack and concatenate per level."""
    boxes, levels, cells = [], [], []
    for li, (stride, _) in enumerate(config.levels):
        rows, cols = math.ceil(image_h / stride), math.ceil(image_w / stride)
        w, h = config.anchor_size(li)
        cy, cx = np.meshgrid(
            np.arange(rows, dtype=np.float64) * stride + stride / 2.0,
            np.arange(cols, dtype=np.float64) * stride + stride / 2.0,
            indexing="ij",
        )
        cx, cy = cx.ravel(), cy.ravel()
        boxes.append(np.stack([cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0], axis=1))
        levels.append(np.full(rows * cols, li, dtype=np.int32))
        rr, cc = np.meshgrid(np.arange(rows, dtype=np.int32), np.arange(cols, dtype=np.int32), indexing="ij")
        cells.append(np.stack([rr.ravel(), cc.ravel()], axis=1))
    return np.concatenate(boxes), np.concatenate(levels), np.concatenate(cells)


def loop_cover_size(face_boxes, config):
    """cover_image_size as first written: two generator passes over the levels."""
    margin = max(stride + config.anchor_size(li)[0] / 2.0 for li, (stride, _) in enumerate(config.levels))
    v_margin = max(stride + config.anchor_size(li)[1] / 2.0 for li, (stride, _) in enumerate(config.levels))
    max_stride = max(stride for stride, _ in config.levels)
    if face_boxes.size == 0:
        return math.ceil(max_stride), math.ceil(max_stride)
    w = math.ceil(max(float(face_boxes[:, 2].max()) + margin, max_stride))
    h = math.ceil(max(float(face_boxes[:, 3].max()) + v_margin, max_stride))
    return w, h


def assert_same_pairs(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)  # bit-equal IoUs, same rows, same order


@st.composite
def configs(draw, n_levels=st.integers(1, 6)):
    n = draw(n_levels)
    strides = np.cumsum(draw(st.lists(st.floats(1.0, 24.0), min_size=n, max_size=n)))
    if draw(st.booleans()):
        strides = np.ceil(strides)  # integer strides, as the CLI's defaults
    strides = sorted(set(strides.tolist()))
    scales = draw(st.lists(st.floats(0.5, 120.0), min_size=len(strides), max_size=len(strides)))
    return AnchorConfig(
        levels=tuple(zip(strides, scales)),
        scale_ratio=draw(st.floats(0.1, 3.0)),
        aspect_ratio=draw(st.sampled_from([1.0, 0.5, 1.3, draw(st.floats(0.2, 5.0))])),
    )


@st.composite
def lattice_cases(draw):
    config = draw(configs())
    size = st.one_of(st.integers(1, 96), st.floats(0.5, 96.0))
    image_w, image_h = draw(size), draw(size)
    grid = generate_anchors(config, image_w, image_h)
    coord = st.one_of(st.integers(-40, 140).map(float), st.floats(-40.0, 140.0))
    # An anchor's coordinates, so faces land exactly on anchor edges and corners.
    edge = st.integers(0, len(grid) - 1).flatmap(lambda i: st.sampled_from(grid.boxes[i].tolist()))
    odd = st.sampled_from([np.nan, np.inf, -np.inf, 1e300, -1e300, 1e-300, 0.0])
    faces = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["plain", "edges", "anchor", "copy", "zero", "odd", "huge"]))
        if kind == "anchor":  # an anchor itself: IoU 1 and ties with its neighbours' faces
            face = grid.boxes[draw(st.integers(0, len(grid) - 1))].tolist()
        elif kind == "copy" and faces:  # a duplicate face: equal IoUs, lower face first
            face = list(faces[draw(st.integers(0, len(faces) - 1))])
        else:
            x0, y0 = draw(st.one_of(coord, edge)), draw(st.one_of(coord, edge))
            x1 = draw(st.one_of(edge, st.floats(0.0, 80.0).map(lambda w: x0 + w)))
            y1 = draw(st.one_of(edge, st.floats(0.0, 80.0).map(lambda h: y0 + h)))
            face = [x0, y0, x1, y1]
            if kind == "zero":
                face[2] = x0
            elif kind == "odd":
                face[draw(st.integers(0, 3))] = draw(odd)
            elif kind == "huge":  # 1e300 long and 1e-299 thin: a finite area
                t = draw(st.sampled_from([0.0, 5e-300, -5e-300]))
                face = [-1e300, t, 1e300, t + 1e-299] if draw(st.booleans()) else [t, -1e300, t + 1e-299, 1e300]
        faces.append(face)
    return grid, np.array(faces, dtype=np.float64).reshape(-1, 4)


class TestGridOverlaps:
    @given(lattice_cases())
    @settings(max_examples=150, deadline=None)
    def test_equals_generic_overlaps(self, case):
        grid, faces = case
        assert grid.lattice
        assert_same_pairs(grid_overlaps(grid, faces), overlaps(grid.boxes, faces))

    def test_default_grid_crowd(self):
        rng = np.random.default_rng(3)
        xy = rng.uniform(-30.0, 650.0, size=(300, 2))
        side = rng.uniform(2.0, 400.0, size=(300, 1))
        faces = np.hstack([xy, xy + side * rng.uniform(0.5, 1.5, size=(300, 2))])
        grid = generate_anchors(default_hambox_config(), 640, 480)
        got = grid_overlaps(grid, faces)
        assert got.box.size > 0
        assert_same_pairs(got, overlaps(grid.boxes, faces))

    def test_hand_built_grid_takes_generic_kernel(self):
        # Boxes that follow no lattice: the config and image size say nothing about them.
        boxes = np.array([[500.0, 500.0, 520.0, 530.0], [0.0, 0.0, 10.0, 10.0], [5.0, 5.0, 300.0, 9.0]])
        grid = AnchorGrid(
            boxes=boxes,
            level_of=np.zeros(3, dtype=np.int32),
            cell_of=np.zeros((3, 2), dtype=np.int32),
            config=AnchorConfig(levels=((8, 16),)),
            image_size=(16, 16),
        )
        assert not grid.lattice
        faces = np.array([[505.0, 505.0, 515.0, 515.0], [2.0, 2.0, 8.0, 8.0]])
        got = grid_overlaps(grid, faces)
        assert_same_pairs(got, overlaps(boxes, faces))
        assert got.box.tolist() == [0, 1, 2]


class TestNoisyRegressedSearch:
    @given(
        lattice_cases(),
        st.booleans(),
        st.floats(0.0, 1.0),
        st.one_of(st.just(0.0), st.floats(0.0, 0.3), st.floats(0.0, 3.0)),  # up to many cells of reach
        st.integers(0, 2**32 - 1),
        st.integers(0, 50),
        st.floats(0.0, 1.0),
        st.integers(1, 4),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_overlaps_on_simulated_regression(self, case, lattice, q, sigma, seed, stream, T, K):
        grid, faces = case
        if not lattice:  # the same boxes, as a hand-built grid
            grid = replace(grid, lattice=False)
        model = RegressorModel(q=q, noise_sigma=sigma, seed=seed)
        seen = []
        real_quality, real_mine_rows = simulator._quality, simulator._mine_rows

        def spy(pairs, n):
            seen.append(pairs)
            return real_quality(pairs, n)

        def rows_spy(*args):
            for rows, it in real_mine_rows(*args):
                seen.append(rows)
                yield rows, it

        with mock.patch.object(simulator, "_quality", spy), mock.patch.object(simulator, "_mine_rows", rows_spy):
            mined = list(mine_image(grid, faces, model, 2, stream, MatchParams(), CompensationParams(T=T, K=K)))
        for it, pairs, rows in zip(mined, seen[::2], seen[1::2], strict=True):
            want = simulate_regression(grid, faces, model, it.iteration, stream)
            assert np.array_equal(rows, np.unique(rows))
            pairs = type(pairs)(rows[pairs.box], pairs.face, pairs.iou)  # rows to anchor indices
            assert_same_pairs(pairs, overlaps(want, faces))
            assert it.regressed.shape == want.shape
            done = ~np.isnan(it.regressed[:, 0])
            assert np.isnan(it.regressed[~done]).all()
            assert np.array_equal(it.regressed[done], want[done])
            assert done[pairs.box].all()

    def test_flat_scorer_provenance_reads_every_box(self):
        """With scorer_scale 0 every anchor scores alike, so the report's NMS reads boxes that meet no face.

        Here an anchor that meets no face suppresses one that would have
        suppressed the only correct step-1 box: its row must not be NaN.
        """
        config = AnchorConfig(levels=((3.0, 12.0), (5.0, 19.0)))
        boxes = (Box(10.0, 3.0, 17.0, 12.0), Box(2.0, 16.0, 17.0, 23.0))
        dataset = [ImageRecord("a.jpg", tuple(FaceAnnotation(b) for b in boxes))]
        faces = dataset[0].face_boxes()
        model = RegressorModel(q=0.0)
        match, comp = MatchParams(), CompensationParams()
        _, got = run_simulation(dataset, config, comp, LossParams(), model, 1, match, (48, 48), 0.0, provenance=True)
        grid = generate_anchors(config, 48, 48)
        it = next(mine_image(grid, faces, model, 1, 0, match, comp))
        assert np.isnan(it.regressed).any()
        probs = sigmoid(0.0 * it.quality.F - 2.0)
        full = simulate_regression(grid, faces, model, 0, 0)
        want = provenance_report(it.first, grid, it.quality, full, probs, faces, 0.5)
        assert (want.faces_matched_cpbb, want.faces_matched_cpbb_post_nms) == (1, 0)
        assert got.faces_matched_cpbb_post_nms == 0


# One to four configs with the same number of levels, as a scale-ratio sweep stacks them.
stacked_configs = st.integers(1, 6).flatmap(
    lambda n: st.lists(configs(st.just(n)).filter(lambda c: len(c.levels) == n), min_size=1, max_size=4)
)


def assert_meshgrid_layout(config, image_w, image_h):
    grid = generate_anchors(config, image_w, image_h)
    for got, want in zip((grid.boxes, grid.level_of, grid.cell_of), meshgrid_anchors(config, image_w, image_h)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    assert grid.image_size == (image_w, image_h)


image_side = st.one_of(st.integers(1, 200), st.floats(0.5, 200.0))


class TestGenerateAnchors:
    @given(configs(), image_side, image_side)
    @settings(max_examples=150, deadline=None)
    def test_equals_meshgrid_reference(self, config, image_w, image_h):
        assert_meshgrid_layout(config, image_w, image_h)

    @given(configs(), image_side, image_side, st.data())
    @settings(max_examples=150, deadline=None)
    def test_index_arithmetic_equals_dense_rows(self, config, image_w, image_h, data):
        grid = generate_anchors(config, image_w, image_h)
        assert all(grid.__dict__[name] is None for name in ("boxes", "level_of", "cell_of"))  # none built yet
        anchor = np.array(data.draw(st.lists(st.integers(0, len(grid) - 1), max_size=50)), dtype=np.int64)
        want_boxes, want_levels, _ = meshgrid_anchors(config, image_w, image_h)
        assert len(grid) == want_boxes.shape[0]
        got = grid.boxes_at(anchor)
        assert got.shape == (anchor.size, 4) and np.array_equal(got, want_boxes[anchor])
        assert np.array_equal(grid.levels_at(anchor), want_levels[anchor])

    def test_default_grid_at_wider_size(self):
        assert_meshgrid_layout(default_hambox_config(), 1318, 1062)

    @given(configs(), st.lists(st.floats(-50.0, 2000.0), max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_cover_size_equals_level_loop(self, config, coords):
        faces = np.array(coords[: len(coords) // 4 * 4], dtype=np.float64).reshape(-1, 4)
        assert cover_image_size(faces, config) == loop_cover_size(faces, config)

    @given(stacked_configs, st.data())
    @settings(max_examples=150, deadline=None)
    def test_stacked_lattice_equals_one_config_layouts(self, cfgs, data):
        sizes = [(data.draw(image_side), data.draw(image_side)) for _ in cfgs]
        w, h = (np.array(v, dtype=np.float64)[:, None] for v in zip(*sizes))
        stacked = _lattice(np.array([c._sizes for c in cfgs]), w, h)
        n_levels, first = len(cfgs[0].levels), 0
        for k, (config, size) in enumerate(zip(cfgs, sizes)):
            grid = generate_anchors(config, *size)
            layers = slice(k * n_levels, (k + 1) * n_levels)
            for got, want in zip(stacked, grid._layout[:5] + (grid._layout[5] + first,)):
                assert got.dtype == want.dtype and np.array_equal(got[layers], want)
            first += len(grid)
        assert all(a.size == len(cfgs) * n_levels for a in stacked)

    @given(stacked_configs, st.lists(st.floats(-50.0, 2000.0), max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_stacked_cover_equals_cover_image_size(self, cfgs, coords):
        faces = np.array(coords[: len(coords) // 4 * 4], dtype=np.float64).reshape(-1, 4)
        w, h = _cover(faces.max(axis=0, initial=-np.inf)[None, 2:], np.array([c._sizes for c in cfgs]))
        assert w.shape == h.shape == (len(cfgs), 1)
        assert np.array_equal(w, np.floor(w)) and np.array_equal(h, np.floor(h))
        assert list(zip(w.ravel().astype(int).tolist(), h.ravel().astype(int).tolist())) == [
            cover_image_size(faces, c) for c in cfgs
        ]


def face_line(k):
    return f"{7 + 37 * k % 300} {11 + 53 * k % 200} {4 + k % 17} {5 + k % 13} 0 0 0 0 0 0\n"


CROWD = "".join(f"crowd/{i}.jpg\n{n}\n" + "".join(map(face_line, range(n))) for i, n in enumerate((40, 3)))


@pytest.mark.parametrize("noise", [0.0, 0.05])
def test_hambox_assign_searches_only_pulled_boxes(tmp_path, monkeypatch, noise):
    """The swept regressed search reads only anchors in the grid pair list, with or without noise."""
    gt = tmp_path / "gt.txt"
    gt.write_text(CROWD)
    ini = tmp_path / "cfg.ini"
    ini.write_text(f"[simulator]\nnoise_sigma = {noise}\n")
    seen = []

    def spying(kernel):
        def spy(boxes, faces):
            seen.append(len(boxes))
            return kernel(boxes, faces)

        return spy

    # The noisy search sweeps the pulled boxes through `_candidates`, and scores them with the windowed ones.
    monkeypatch.setattr(simulator, "overlaps", spying(overlaps))
    monkeypatch.setattr(simulator, "_candidates", spying(simulator._candidates))
    argv = ["--config", str(ini), "--out", str(tmp_path / "out"), "assign", "--annotations", str(gt)]
    assert main(argv + ["--strategy", "hambox"]) == 0
    config = default_hambox_config()
    pulled, anchors = [], []
    for rec in load_wider_annotations(str(gt)):
        faces = rec.face_boxes()
        grid = generate_anchors(config, *cover_image_size(faces, config))
        pulled.append(np.unique(grid_overlaps(grid, faces).box).size)
        anchors.append(len(grid))
    assert seen == pulled
    assert all(p < a for p, a in zip(pulled, anchors))


@st.composite
def assign_cases(draw):
    """An annotation record and a noise-free config: crowds, clipped, degenerate and zero-face images."""
    n = draw(st.integers(1, 4))
    strides = np.cumsum(draw(st.lists(st.floats(2.0, 16.0), min_size=n, max_size=n)))
    if draw(st.booleans()):
        strides = np.ceil(strides)
    strides = sorted(set(strides.tolist()))
    scales = draw(st.lists(st.floats(2.0, 60.0), min_size=len(strides), max_size=len(strides)))
    config = AnchorConfig(
        levels=tuple(zip(strides, scales)),
        scale_ratio=draw(st.floats(0.3, 2.0)),
        aspect_ratio=draw(st.sampled_from([1.0, 0.5, 1.3, draw(st.floats(0.3, 3.0))])),
    )
    # Anchors at fixed cells have the same box on every grid, so the faces
    # can copy them from a small one: IoU 1 and ties between neighbours.
    small = generate_anchors(config, 64, 64)
    coord = st.one_of(st.integers(-30, 120).map(float), st.floats(-30.0, 120.0))
    faces = []
    for _ in range(draw(st.sampled_from([0, 1, 3, 8, 40]))):
        kind = draw(st.sampled_from(["plain", "plain", "anchor", "copy", "near", "zero"]))
        if kind == "anchor":
            face = small.boxes[draw(st.integers(0, len(small) - 1))].tolist()
        elif kind in ("copy", "near") and faces:  # a duplicate, or a crowd neighbour
            face = list(faces[draw(st.integers(0, len(faces) - 1))])
            if kind == "near":
                dx, dy = draw(st.floats(-6.0, 6.0)), draw(st.floats(-6.0, 6.0))
                face = [face[0] + dx, face[1] + dy, face[2] + dx, face[3] + dy]
        else:
            x0, y0 = draw(coord), draw(coord)
            w, h = draw(st.floats(0.5, 50.0)), draw(st.floats(0.5, 50.0))
            face = [x0, y0, x0 if kind == "zero" else x0 + w, y0 + h]
        faces.append(face)
    path = draw(st.sampled_from(["a.jpg", "odd/{x}}{.jpg"]))
    record = ImageRecord(path, tuple(FaceAnnotation(Box(*f)) for f in faces))
    top_n = draw(st.one_of(st.just("mean_matched"), st.integers(1, 4)))
    match = MatchParams(draw(st.floats(0.05, 1.0)), draw(st.floats(0.0, 0.5)), top_n)
    comp = CompensationParams(T=draw(st.floats(0.0, 1.0)), K=draw(st.integers(1, 5)))
    sim = SimulatorSettings(q=draw(st.sampled_from([0.0, 0.9, 1.0])))
    return record, ToolConfig(anchors=config, match=match, compensation=comp, simulator=sim), draw(st.integers(0, 50))


def dense_block(record, cfg, stream):
    """The image's `assign.csv` rows from the public dense functions, each line an f-string."""
    faces = record.face_boxes()
    grid = generate_anchors(cfg.anchors, *cover_image_size(faces, cfg.anchors))
    ignore = None
    if cfg.strategy == "hambox":
        first = match_first_step(grid, faces, cfg.match)
        regressed = simulate_regression(grid, faces, RegressorModel.from_settings(cfg.simulator), 0, stream)
        assigned = compensate(first, grid, faces, regressed, cfg.compensation)
        quality = compute_quality(regressed, faces)
        ignore = ignore_mask(assigned, quality)
    else:
        matcher = {"sms": match_first_step, "dms": match_two_step, "nams": match_nams}[cfg.strategy]
        assigned = matcher(grid, faces, cfg.match)
    lines = []
    for i in np.flatnonzero(assigned.face_of >= 0):
        f, source = assigned.face_of[i], assigned.source[i]
        box = regressed[i] if source == SOURCE_HAMBOX else grid.boxes[i]
        iou = elementwise_iou(box[None], faces[f][None])[0]
        lines.append(f"{record.path},{i},{grid.level_of[i]},positive,{f},{SOURCE_NAMES[source]},{iou:.10g}\n")
    if ignore is not None:
        for i in np.flatnonzero(ignore):
            lines.append(f"{record.path},{i},{grid.level_of[i]},ignore,,none,{quality.F[i]:.10g}\n")
    return "".join(lines)


class TestSparseAssign:
    @given(assign_cases())
    @settings(max_examples=120, deadline=None)
    def test_rows_equal_dense_functions(self, case):
        """`_assign_image` keeps state only on the pair-list rows; its block equals the dense one."""
        record, cfg, stream = case
        for strategy in ("sms", "dms", "nams", "hambox"):
            cfg = replace(cfg, strategy=strategy)
            model = RegressorModel.from_settings(cfg.simulator)
            assert _assign_image(record, cfg, model, stream) == dense_block(record, cfg, stream), strategy
