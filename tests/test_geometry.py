import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hambox import geometry
from hambox.anchors import default_hambox_config, generate_anchors
from hambox.geometry import (
    Box,
    BoxDelta,
    as_box_array,
    decode,
    decode_boxes,
    elementwise_iou,
    encode,
    encode_boxes,
    iou,
    nms,
    overlaps,
    pairwise_iou,
)

from .oracles import (
    decode_reference,
    encode_reference,
    iou_reference,
    nms_reference,
    random_boxes,
    raster_iou,
)


def finite_box(max_coord=1000.0, min_side=0.01):
    coords = st.floats(-max_coord, max_coord, allow_nan=False, allow_infinity=False)
    sides = st.floats(min_side, max_coord, allow_nan=False, allow_infinity=False)
    return st.builds(lambda x, y, w, h: Box(x, y, x + w, y + h), coords, coords, sides, sides)


class TestIoU:
    def test_identical_boxes(self):
        assert iou(Box(0, 0, 10, 10), Box(0, 0, 10, 10)) == 1.0

    def test_disjoint_boxes(self):
        assert iou(Box(0, 0, 10, 10), Box(20, 20, 30, 30)) == 0.0

    def test_quarter_overlap(self):
        # 5x5 intersection over 100 + 100 - 25 union, cross-checked against
        # the 0.25-px rasterization count.
        a = Box(0, 0, 10, 10)
        b = Box(5, 5, 15, 15)
        assert iou(a, b) == pytest.approx(25 / 175, rel=1e-12)
        assert iou(a, b) == pytest.approx(raster_iou(a, b), abs=1e-12)

    def test_zero_area_is_zero_not_nan(self):
        assert iou(Box(5, 5, 5, 5), Box(0, 0, 10, 10)) == 0.0
        assert iou(Box(5, 5, 5, 5), Box(5, 5, 5, 5)) == 0.0

    def test_matches_closed_form_reference(self):
        rng = np.random.default_rng(7)
        a = random_boxes(rng, 500)
        b = random_boxes(rng, 500)
        for i in range(500):
            assert iou(a[i], b[i]) == pytest.approx(iou_reference(a[i], b[i]), rel=1e-12)

    @given(finite_box(), finite_box())
    def test_symmetry(self, a, b):
        assert iou(a, b) == iou(b, a)

    @given(finite_box())
    def test_self_iou_is_one(self, a):
        assert iou(a, a) == pytest.approx(1.0, rel=1e-12)

    @given(finite_box(max_coord=100), st.floats(-50, 50), st.floats(-50, 50))
    @settings(max_examples=50)
    def test_translation_invariance(self, a, dx, dy):
        b = Box(a.x0 + 3.25, a.y0 + 1.5, a.x1 + 3.25, a.y1 + 1.5)
        shifted_a = Box(a.x0 + dx, a.y0 + dy, a.x1 + dx, a.y1 + dy)
        shifted_b = Box(b.x0 + dx, b.y0 + dy, b.x1 + dx, b.y1 + dy)
        assert iou(shifted_a, shifted_b) == pytest.approx(iou(a, b), abs=1e-12)

    def test_far_apart_huge_boxes_are_zero_without_warning(self):
        # Each area is 1e308, finite, but the union's sum of areas overflows.
        a, b = Box(0.0, 0.0, 1e154, 1e154), Box(2e154, 0.0, 3e154, 1e154)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert iou(a, b) == 0.0
            assert pairwise_iou([a], [b]).tolist() == [[0.0]]
            assert elementwise_iou([a], [b]).tolist() == [0.0]
            assert overlaps([a], [b]).box.size == 0

    def test_pairwise_matches_scalar(self):
        rng = np.random.default_rng(11)
        a = random_boxes(rng, 20)
        b = random_boxes(rng, 15)
        mat = pairwise_iou(a, b)
        for i in range(20):
            for j in range(15):
                assert mat[i, j] == pytest.approx(iou(a[i], b[j]), rel=1e-12)

    def test_elementwise_matches_scalar(self):
        rng = np.random.default_rng(13)
        a = random_boxes(rng, 30)
        b = random_boxes(rng, 30)
        vals = elementwise_iou(a, b)
        for i in range(30):
            assert vals[i] == pytest.approx(iou(a[i], b[i]), rel=1e-12)


class TestEncodeDecode:
    def test_identity(self):
        assert encode(Box(0, 0, 10, 10), Box(0, 0, 10, 10)) == BoxDelta(0, 0, 0, 0)

    def test_shifted_target(self):
        d = encode(Box(0, 0, 10, 10), Box(5, 5, 15, 15))
        assert d == pytest.approx((0.5, 0.5, 0.0, 0.0))

    def test_scaled_target(self):
        d = encode(Box(0, 0, 10, 10), Box(0, 0, 20, 10))
        assert d == pytest.approx((0.5, 0.0, np.log(2), 0.0))

    def test_decode_identity_delta(self):
        a = Box(3.5, -2.0, 17.25, 9.0)
        assert decode(a, BoxDelta(0, 0, 0, 0)) == pytest.approx(tuple(a))

    def test_decode_inverse_of_encode_example(self):
        got = decode(Box(0, 0, 10, 10), BoxDelta(0.5, 0.5, 0.0, 0.0))
        assert got == pytest.approx((5, 5, 15, 15))

    def test_degenerate_anchor_raises(self):
        with pytest.raises(ValueError, match="anchor"):
            encode(Box(0, 0, 0, 10), Box(0, 0, 10, 10))
        with pytest.raises(ValueError, match="target"):
            encode(Box(0, 0, 10, 10), Box(0, 0, 10, 0))
        with pytest.raises(ValueError, match="anchor"):
            decode(Box(0, 0, 10, 0), BoxDelta(0, 0, 0, 0))

    def test_matches_reference_formulas(self):
        rng = np.random.default_rng(3)
        anchors = random_boxes(rng, 200)
        targets = random_boxes(rng, 200)
        for i in range(200):
            got = encode(anchors[i], targets[i])
            assert got == pytest.approx(encode_reference(anchors[i], targets[i]), rel=1e-12)
            back = decode(anchors[i], got)
            assert back == pytest.approx(decode_reference(anchors[i], got), rel=1e-12)

    def test_roundtrip_random_pairs(self):
        rng = np.random.default_rng(42)
        anchors = random_boxes(rng, 10_000)
        targets = random_boxes(rng, 10_000)
        deltas = encode_boxes(anchors, targets)
        back = decode_boxes(anchors, deltas)
        rel = np.abs(back - targets) / np.maximum(np.abs(targets), 1e-9)
        assert rel.max() < 1e-6

    @given(finite_box(max_coord=500, min_side=0.1), finite_box(max_coord=500, min_side=0.1))
    @settings(max_examples=200)
    def test_roundtrip_property(self, anchor, target):
        back = decode(anchor, encode(anchor, target))
        for got, want in zip(back, target):
            assert got == pytest.approx(want, rel=1e-6, abs=1e-6)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(5)
        anchors = random_boxes(rng, 50)
        targets = random_boxes(rng, 50)
        deltas = encode_boxes(anchors, targets)
        boxes = decode_boxes(anchors, deltas)
        for i in range(50):
            assert deltas[i] == pytest.approx(tuple(encode(anchors[i], targets[i])), rel=1e-12)
            assert boxes[i] == pytest.approx(tuple(decode(anchors[i], deltas[i])), rel=1e-12)


class TestNms:
    def test_single_box(self):
        assert nms([Box(0, 0, 10, 10)], [0.3], 0.5) == [0]

    def test_duplicate_suppressed(self):
        boxes = [Box(0, 0, 10, 10), Box(0, 0, 10, 10)]
        assert nms(boxes, [0.9, 0.8], 0.5) == [0]

    def test_score_tie_breaks_to_lower_index(self):
        boxes = [Box(0, 0, 10, 10), Box(0, 0, 10, 10)]
        assert nms(boxes, [0.7, 0.7], 0.5) == [0]

    def test_threshold_is_strict(self):
        # IoU exactly at the threshold is not suppressed.
        a = Box(0, 0, 10, 10)
        b = Box(0, 5, 10, 15)  # IoU = 50/150 = 1/3
        kept = nms([a, b], [0.9, 0.8], 1 / 3)
        assert kept == [0, 1]

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="mismatch"):
            nms([Box(0, 0, 1, 1)], [0.5, 0.6], 0.5)

    def test_matches_quadratic_reference(self):
        rng = np.random.default_rng(17)
        for trial in range(20):
            n = int(rng.integers(1, 200))
            boxes = random_boxes(rng, n, hi=60.0, max_side=25.0)
            scores = rng.uniform(0, 1, size=n)
            thr = float(rng.uniform(0.1, 0.9))
            assert nms(boxes, scores, thr) == nms_reference(boxes, scores, thr)

    def test_kept_boxes_mutually_separated(self):
        rng = np.random.default_rng(23)
        boxes = random_boxes(rng, 100, hi=50.0, max_side=20.0)
        scores = rng.uniform(0, 1, size=100)
        kept = nms(boxes, scores, 0.4)
        for i, a in enumerate(kept):
            for b in kept[i + 1 :]:
                assert iou(boxes[a], boxes[b]) <= 0.4
        # Every suppressed box overlaps some kept box of higher priority.
        suppressed = set(range(100)) - set(kept)
        for s in suppressed:
            assert any(
                iou(boxes[s], boxes[k]) > 0.4
                and (scores[k] > scores[s] or (scores[k] == scores[s] and k < s))
                for k in kept
            )


def dense_nms(boxes, scores, threshold):
    """`nms` as first written: one `pairwise_iou` row per kept box, against every later box."""
    order = np.lexsort((np.arange(len(boxes)), -scores))
    alive = np.ones(len(boxes), dtype=bool)
    kept = []
    for pos, idx in enumerate(order):
        if alive[pos]:
            kept.append(int(idx))
            alive[pos + 1 :] &= ~(pairwise_iou(boxes[idx : idx + 1], boxes[order[pos + 1 :]])[0] > threshold)
    return kept


@st.composite
def nms_cases(draw):
    """Boxes in clusters and on a lattice, with score ties and odd boxes; a threshold from 0 to 1."""
    n = draw(st.integers(0, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "cluster", "lattice"]))
    if kind == "random":
        boxes = random_boxes(rng, n, hi=60.0, min_side=0.5, max_side=draw(st.sampled_from([3.0, 25.0, 60.0])))
    elif kind == "cluster":  # boxes crowding a few centres, as regressed boxes crowd faces
        centre = rng.uniform(0.0, 50.0, size=(3, 2))[rng.integers(0, 3, size=n)]
        half = rng.uniform(2.0, 12.0, size=(n, 1)) * rng.uniform(0.7, 1.3, size=(n, 2))
        boxes = np.hstack([centre - half, centre + half]) + rng.normal(0.0, 1.0, size=(n, 4))
    else:  # equal boxes on a grid: exact IoU ties
        side, stride = draw(st.sampled_from([(4.0, 2.0), (8.0, 4.0), (3.0, 3.0)]))
        cells = np.arange(n) % 9, np.arange(n) // 9
        boxes = np.stack([cells[0] * stride, cells[1] * stride, cells[0] * stride + side, cells[1] * stride + side], 1)
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    if n and draw(st.booleans()):  # a zero-area box, an inverted one, a huge one
        odd = [[5.0, 5.0, 5.0, 9.0], [9.0, 9.0, 1.0, 1.0], [-1e300, 0.0, 1e300, 1e-299], [0.0, 0.0, 1e6, 1e6]]
        boxes[rng.integers(0, n, size=2)] = np.array(odd)[rng.integers(0, 4, size=2)]
    scores = rng.uniform(0.0, 1.0, size=n)
    if draw(st.booleans()):
        scores = np.round(scores, 1)  # score ties
    threshold = draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)))
    return boxes, scores, threshold


class TestSparseNms:
    @given(nms_cases(), st.sampled_from([0, 1, 3, 64]), st.sampled_from([1, 2, 7, 256]))
    @settings(max_examples=200, deadline=None)
    def test_equals_dense_greedy(self, case, rows, block):
        """Any split between dense rows and the pair list, and any block size, keeps the same boxes."""
        boxes, scores, threshold = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "_NMS_ROWS", rows)
            mp.setattr(geometry, "_NMS_BLOCK", block)
            got = nms(boxes, scores, threshold)
        assert got == dense_nms(boxes, scores, threshold)
        finite = np.all(np.abs(boxes) < 1e6)
        if finite and len(boxes) <= 40:
            assert got == nms_reference(boxes, scores, threshold)

    def test_every_anchor_of_a_grid_with_equal_scores(self):
        """A flat scorer sends a whole 640 x 640 grid to NMS: it must keep its kept list and stay bounded."""
        boxes = generate_anchors(default_hambox_config(), 640, 640).boxes
        scores = np.zeros(len(boxes))
        tracemalloc.start()
        try:
            got = nms(boxes, scores, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # No two anchors of one level meet above 0.5 here, and levels differ 4x in area.
        assert got == list(range(len(boxes)))
        assert peak < 80e6, peak  # 30 MB measured; holding every candidate pair took 1.6 GB


def test_as_box_array_shapes():
    assert as_box_array([]).shape == (0, 4)
    assert as_box_array([Box(0, 0, 1, 1)]).shape == (1, 4)
    with pytest.raises(ValueError, match=r"\(N, 4\)"):
        as_box_array(np.zeros((3, 5)))
