"""The sparse overlap core against the dense IoU matrix it replaces.

`overlaps` must list exactly the nonzero entries of `pairwise_iou`, with
bit-equal values, in the documented order (box, IoU descending, face). Every
consumer of the pair list (first step, the dms/nams/compensation claim and
quality F) must then give what the dense matrix gives: the dense versions are
written out below as a vectorised second reference, and the brute-force
oracles judge the instances small enough for them.
"""

import timeit
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hambox.anchors import AnchorConfig, AnchorGrid, default_hambox_config, generate_anchors, grid_overlaps
from hambox.assignment import (
    BACKGROUND,
    MatchParams,
    match_first_step,
    match_nams,
    match_two_step,
)
from hambox.geometry import Overlaps, _candidates, overlaps, pairwise_iou
from hambox.mining import CompensationParams, compensate, compute_quality

from .oracles import (
    compensate_reference,
    first_step_reference,
    iou_reference,
    nams_reference,
    two_step_reference,
)


def assert_matches_dense(boxes, faces) -> Overlaps:
    dense = pairwise_iou(boxes, faces)
    got = overlaps(boxes, faces)
    assert got.box.dtype == np.int64 and got.face.dtype == np.int64
    b, f = np.nonzero(dense)
    want = np.lexsort((f, -dense[b, f], b))
    np.testing.assert_array_equal(got.box, b[want])
    np.testing.assert_array_equal(got.face, f[want])
    assert np.array_equal(got.iou, dense[got.box, got.face])  # bit-equal, not close
    # `_candidates` lists each pair once, a box's faces ascending, and every dense nonzero.
    box, face = _candidates(boxes, faces)
    by_box = np.argsort(box, kind="stable")
    box, face = box[by_box], face[by_box]
    assert np.all(np.diff(face)[np.diff(box) == 0] > 0)  # so no pair comes twice
    assert np.isin(b * dense.shape[1] + f, box * dense.shape[1] + face).all()
    return got


def as_grid(boxes):
    n = boxes.shape[0]
    return AnchorGrid(
        boxes=boxes,
        level_of=np.zeros(n, dtype=np.int32),
        cell_of=np.zeros((n, 2), dtype=np.int32),
        config=AnchorConfig(levels=((8, 16),)),
        image_size=(64, 64),
    )


# Dense second references: the matchers as they were on the (N, F) matrix.


def dense_first_step(ious, threshold):
    face_of = np.full(ious.shape[0], BACKGROUND, dtype=np.int64)
    if ious.shape[1]:
        best = np.argmax(ious, axis=1)
        pos = ious[np.arange(ious.shape[0]), best] >= threshold
        face_of[pos] = best[pos]
    return face_of


def dense_claim(face_of, ious, budget, floor):
    face_of = face_of.copy()
    for f in np.flatnonzero(budget > 0):
        idx = np.flatnonzero((ious[:, f] > floor) & (face_of == BACKGROUND))
        face_of[idx[np.lexsort((idx, -ious[idx, f]))][: budget[f]]] = f
    return face_of


def check_consumers(anchors, faces, regressed, oracle=False):
    """First step, dms, nams, compensation and quality against dense (and oracles when small)."""
    grid = as_grid(anchors)
    params = MatchParams(iou_threshold=0.35, nams_top_n_mode=2)
    comp = CompensationParams(T=0.5, K=3)
    ious = pairwise_iou(anchors, faces)
    step1 = dense_first_step(ious, params.iou_threshold)
    counts = np.bincount(step1[step1 >= 0], minlength=faces.shape[0])

    first = match_first_step(grid, faces, params)
    np.testing.assert_array_equal(first.face_of, step1)
    dms = match_two_step(grid, faces, params)
    np.testing.assert_array_equal(dms.face_of, dense_claim(step1, ious, (counts == 0).astype(int), 0.0))
    nams = match_nams(grid, faces, params)
    np.testing.assert_array_equal(
        nams.face_of, dense_claim(step1, ious, np.where(counts == 0, 2, 0), params.nams_stage2_floor)
    )
    reg_ious = pairwise_iou(regressed, faces)
    got = compensate(first, grid, faces, regressed, comp)
    np.testing.assert_array_equal(
        got.face_of, dense_claim(step1, reg_ious, np.maximum(comp.K - counts, 0), comp.T)
    )
    quality = compute_quality(regressed, faces).F
    want_f = reg_ious.max(axis=1) if faces.shape[0] else np.zeros(regressed.shape[0])
    assert np.array_equal(quality, want_f)

    if oracle:
        a, fc, r = anchors.tolist(), faces.tolist(), regressed.tolist()
        assert first.face_of.tolist() == first_step_reference(a, fc, params.iou_threshold)[0]
        assert dms.face_of.tolist() == two_step_reference(a, fc, params.iou_threshold)[0]
        assert nams.face_of.tolist() == nams_reference(a, fc, params.iou_threshold, params.nams_stage2_floor, 2)[0]
        assert got.face_of.tolist() == compensate_reference(first.face_of.tolist(), a, fc, r, comp.K, comp.T)[0]
        assert quality.tolist() == [max([iou_reference(b, f) for f in fc], default=0.0) for b in r]


@st.composite
def box_arrays(draw, max_n, scale, min_n=0):
    """Boxes on a lattice (exact ties), with negative, zero-area and inverted boxes allowed."""
    unit = draw(st.sampled_from([0.25, 1.0, 3.0]))
    rows = draw(
        st.lists(
            st.tuples(st.integers(-40, 120), st.integers(-40, 120), st.integers(-3, 40), st.integers(-3, 40)),
            min_size=min_n,
            max_size=max_n,
        )
    )
    arr = np.array([(x, y, x + w * scale, y + h * scale) for x, y, w, h in rows], dtype=np.float64)
    return arr.reshape(-1, 4) * unit


@st.composite
def float_boxes(draw, max_n, min_n=0):
    coord = st.floats(-500.0, 500.0, allow_nan=False)
    side = st.floats(-5.0, 300.0, allow_nan=False)
    rows = draw(st.lists(st.tuples(coord, coord, side, side), min_size=min_n, max_size=max_n))
    return np.array([(x, y, x + w, y + h) for x, y, w, h in rows], dtype=np.float64).reshape(-1, 4)


@st.composite
def ulp_edge_cases(draw):
    """A one-level lattice with a fractional stride, and faces that overlap an anchor by one ulp on one axis."""
    config = AnchorConfig(levels=((draw(st.floats(0.1, 8.0)), draw(st.floats(1.0, 40.0))),),
                          scale_ratio=draw(st.floats(0.3, 1.5)))
    grid = generate_anchors(config, draw(st.floats(1.0, 40.0)), draw(st.floats(1.0, 40.0)))
    faces = []
    for _ in range(draw(st.integers(1, 4))):
        box = grid.boxes[draw(st.integers(0, len(grid) - 1))].tolist()
        axis, reach = draw(st.integers(0, 1)), draw(st.floats(0.5, 30.0))
        if draw(st.booleans()):  # ends one ulp past the anchor's low edge
            box[axis], box[axis + 2] = box[axis] - reach, np.nextafter(box[axis], np.inf)
        else:  # starts one ulp before its high edge
            box[axis], box[axis + 2] = np.nextafter(box[axis + 2], -np.inf), box[axis + 2] + reach
        faces.append(box)
    return grid, np.array(faces)


# A face that meets the anchors of column 3 by one ulp. Their cell lies one
# past the window bound as computed: without its one-cell pad,
# `_window_candidates` drops them.
ULP_GRID = generate_anchors(AnchorConfig(levels=((0.3, 11.0),), scale_ratio=0.301), 6, 2)
ULP_FACES = np.array([[-5.0, 0.0, -0.6055, 1.0]])


@settings(max_examples=100, deadline=None)
@given(ulp_edge_cases())
@example((ULP_GRID, ULP_FACES))
def test_grid_overlaps_keeps_one_ulp_overlaps(case):
    grid, faces = case
    got, want = grid_overlaps(grid, faces), overlaps(grid.boxes, faces)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    if faces is ULP_FACES:
        assert np.count_nonzero(grid.boxes[want.box, 0] == -0.6055000000000001) == 7


class TestOverlapsMatchesDense:
    @settings(max_examples=300, deadline=None)
    @given(box_arrays(60, 1), box_arrays(12, 1))
    def test_lattice_boxes(self, boxes, faces):
        assert_matches_dense(boxes, faces)

    @settings(max_examples=200, deadline=None)
    @given(float_boxes(80), float_boxes(10))
    def test_float_boxes(self, boxes, faces):
        assert_matches_dense(boxes, faces)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(box_arrays(80, 1, min_n=30), float_boxes(80, min_n=30)), float_boxes(12, min_n=10))
    def test_enough_boxes_and_faces_to_be_swept(self, boxes, faces):
        assert_matches_dense(boxes, faces)

    @settings(max_examples=100, deadline=None)
    @given(box_arrays(40, 25), box_arrays(10, 1))
    def test_boxes_much_larger_than_faces(self, boxes, faces):
        assert_matches_dense(boxes, faces)

    @settings(max_examples=100, deadline=None)
    @given(box_arrays(40, 1), box_arrays(6, 25))
    def test_faces_much_larger_than_boxes(self, boxes, faces):
        assert_matches_dense(boxes, faces)

    def test_tiny_and_huge_sides_together(self):
        boxes = np.array([[0.0, 0.0, 1e-9, 1e-9], [5.0, 5.0, 5.0 + 1e-7, 6.0], [-1e5, -1e5, 1e5, 1e5]])
        faces = np.array([[-1.0, -1.0, 1.0, 1.0], [4.0, 4.0, 40.0, 40.0], [0.0, 0.0, 0.0, 3.0]])
        got = assert_matches_dense(boxes, faces)
        assert got.box.tolist() == [0, 1, 2, 2]

    def test_faces_spanning_1e300(self):
        # Faces 2e300 long and 1e-299 thin have finite areas; each probes every
        # occupied column of a class. Five faces keep the boxes swept.
        grid = generate_anchors(default_hambox_config(), 640, 640)
        small = [[300.0, 310.0, 320.0, 330.0], [40.0, 50.0, 47.0, 61.0], [500.0, 20.0, 590.0, 130.0]]
        faces = np.array(small + [[-1e300, 0.0, 1e300, 1e-299], [0.0, -1e300, 1e-299, 1e300]])
        got = assert_matches_dense(grid.boxes, faces)
        assert set(got.face.tolist()) == set(range(5))

    def test_1e300_face_costs_what_a_spanning_face_costs(self):
        """A 2e300-long face probes only the occupied columns, so it adds its own candidates, not the grid's."""
        grid = generate_anchors(default_hambox_config(), 640, 640)
        xy = np.random.default_rng(8).uniform(0.0, 600.0, size=(5, 2))
        five = np.hstack([xy, xy + 20.0])
        six = np.vstack([five, [[-1e300, 0.0, 1e300, 1e-299]]])
        got = assert_matches_dense(grid.boxes, six)
        thin = np.flatnonzero((grid.boxes[:, 1] < 1e-299) & (grid.boxes[:, 3] > 0.0))
        assert np.array_equal(got.box[got.face == 5], thin)
        with_huge, without = _candidates(grid.boxes, six)[0].size, _candidates(grid.boxes, five)[0].size
        assert with_huge < 2 * without, (with_huge, without)  # 1,777 and 1,462 measured
        cost = [min(timeit.repeat(lambda f=f: overlaps(grid.boxes, f), number=3, repeat=9)) for f in (five, six)]
        assert cost[1] < 2.0 * cost[0], cost  # about 1.0x measured

    def test_sides_of_2_to_the_1023_and_more(self):
        # Their class's side bound c overflows to inf; 42 boxes and 12 faces keep them swept.
        xy = np.arange(40.0)[:, None] * [3.0, 2.0]
        huge = [[-9e307, 1.0, 8.5e307, 1.5], [5.0, -8e307, 5.25, 8e307]]
        boxes = np.vstack([np.hstack([xy, xy + 5.0]), huge])
        faces = np.vstack([boxes[::5] + 1.0, huge, [[8e307, 1.0, 8.4e307, 1.25]]])  # last: the far end of box 40
        got = assert_matches_dense(boxes, faces)
        assert {40, 41} <= set(got.box.tolist()) and 40 in got.box[got.face == faces.shape[0] - 1]

    def test_faces_outside_the_boxes_extent_are_dropped(self):
        # 49 boxes within [0, 14] on both axes, and eight faces, so the faces
        # are swept; faces 0 to 2 end where the boxes start, or start past
        # their corners by more than their side. Faces 0 and 4 end exactly
        # on the boxes' first column, which the sweep reads.
        xy = np.repeat(np.arange(7.0) * 2.0, 7), np.tile(np.arange(7.0) * 2.0, 7)
        boxes = np.stack([xy[0], xy[1], xy[0] + 2.0, xy[1] + 2.0], axis=1)
        edges = [[-9.0, 0.0, 0.0, 9.0], [20.0, 0.0, 30.0, 20.0], [0.0, 20.0, 20.0, 30.0]]
        faces = np.array((edges + [[2.0, 2.0, 12.0, 12.0]]) * 2)
        got = assert_matches_dense(boxes, faces)
        assert set(got.face.tolist()) == {3, 7}
        assert not set(_candidates(boxes, faces)[1].tolist()) & {1, 2, 5, 6}

    def test_faces_past_the_last_corner_on_a_cell_edge(self):
        # The clipped span must still reach the cell of the last box corner,
        # here exactly on a cell edge (16 px boxes, corners every 16 px).
        xy = np.repeat(np.arange(5.0) * 16.0, 5), np.tile(np.arange(5.0) * 16.0, 5)
        boxes = np.stack([xy[0], xy[1], xy[0] + 16.0, xy[1] + 16.0], axis=1)
        faces = np.array([[60.0 + k, 60.0, 100.0 + k, 90.0 + k] for k in range(9)] + [[-50.0, -40.0, 1.0, 70.0]])
        got = assert_matches_dense(boxes, faces)
        assert 24 in got.box[got.face == 0]

    def test_no_boxes_or_faces(self):
        assert assert_matches_dense(np.zeros((0, 4)), np.ones((3, 4))).box.size == 0
        assert assert_matches_dense(np.ones((3, 4)), np.zeros((0, 4))).box.size == 0

    def test_non_finite_boxes_have_no_pairs(self):
        boxes = np.array([[0.0, 0.0, np.inf, 10.0], [np.nan, 0.0, 5.0, 5.0], [0.0, 0.0, 5.0, 5.0]])
        got = overlaps(boxes, np.array([[1.0, 1.0, 4.0, 4.0]]))
        assert got.box.tolist() == [2]

    def test_infinite_times_zero_side_warns_nothing(self):
        flat = np.array([[0.0, 3.0, np.inf, 3.0], [1.0, 1.0, 4.0, 4.0]])
        grid = generate_anchors(default_hambox_config(), 64, 64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert overlaps(flat, flat).box.tolist() == [1]
            assert set(grid_overlaps(grid, flat).face.tolist()) == {1}

    def test_exact_tie_lattice(self):
        # Two faces on the anchor lattice's symmetry lines, each listed four
        # times: every anchor ties across copies and with its mirror anchors,
        # bit for bit.
        grid = generate_anchors(AnchorConfig(levels=((4, 16),)), 64, 64)
        faces = np.repeat(np.array([[20.0, 20.0, 36.0, 36.0], [22.0, 18.0, 34.0, 38.0]]), 4, axis=0)
        got = assert_matches_dense(grid.boxes, faces)
        assert np.all(np.isin(got.best().face, [0, 4]))  # the first copy wins every tie
        check_consumers(grid.boxes, faces, grid.boxes, oracle=True)

    def test_crowd_of_200_faces(self):
        rng = np.random.default_rng(5)
        grid = generate_anchors(default_hambox_config(), 640, 640)
        xy = rng.uniform(0.0, 620.0, size=(200, 2))
        faces = np.concatenate([xy, xy + rng.uniform(4.0, 20.0, size=(200, 2))], axis=1)
        assert_matches_dense(grid.boxes, faces)
        regressed = pulled(grid.boxes, faces, 0.9, rng)
        assert_matches_dense(regressed, faces)
        check_consumers(grid.boxes, faces, regressed)

    def test_regressed_boxes_on_400px_faces(self):
        rng = np.random.default_rng(6)
        grid = generate_anchors(default_hambox_config(), 1024, 1024)
        faces = np.array(
            [[50.0, 60.0, 450.0, 470.0], [400.0, 380.0, 790.0, 800.0], [600.0, 20.0, 1000.0, 410.0]]
        )
        regressed = pulled(grid.boxes, faces, 0.95, rng)
        assert_matches_dense(regressed, faces)
        check_consumers(grid.boxes, faces, regressed)


def pulled(anchors, faces, q, rng):
    """Anchors moved fraction q toward their best face, plus jitter: a regression output."""
    ious = pairwise_iou(anchors, faces)
    best = np.argmax(ious, axis=1)
    hit = ious[np.arange(anchors.shape[0]), best] > 0.0
    out = np.where(hit[:, None], anchors + q * (faces[best] - anchors), anchors)
    out = out + rng.normal(0.0, 0.5, size=out.shape)
    out[:, 2:] = np.maximum(out[:, 2:], out[:, :2] + 1e-6)
    return out


@settings(max_examples=60, deadline=None)
@given(box_arrays(30, 1), box_arrays(6, 1), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_consumers_match_dense_and_oracles(anchors, faces, q, seed):
    # Anchors must have positive size: they are encoded against faces.
    anchors = anchors[(anchors[:, 2] > anchors[:, 0]) & (anchors[:, 3] > anchors[:, 1])]
    faces = faces[(faces[:, 2] > faces[:, 0]) & (faces[:, 3] > faces[:, 1])]
    regressed = pulled(anchors, faces, q, np.random.default_rng(seed)) if faces.size else anchors.copy()
    check_consumers(anchors, faces, regressed, oracle=True)
