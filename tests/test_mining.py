import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hambox.anchors import AnchorConfig, AnchorGrid
from hambox.assignment import (
    BACKGROUND,
    SOURCE_HAMBOX,
    SOURCE_NAMES,
    SOURCE_STEP1,
    MatchParams,
    match_first_step,
    match_two_step,
)
from hambox.geometry import iou, pairwise_iou
from hambox.mining import (
    AnchorQuality,
    CompensationParams,
    compensate,
    compute_quality,
    ignore_mask,
)

from .oracles import compensate_reference, iou_reference, random_boxes


def toy_grid(n, rng, hi=100.0):
    boxes = random_boxes(rng, n, hi=hi, min_side=3.0, max_side=30.0)
    return AnchorGrid(
        boxes=boxes,
        level_of=np.zeros(n, dtype=np.int32),
        cell_of=np.zeros((n, 2), dtype=np.int32),
        config=AnchorConfig(levels=((8, 16),)),
        image_size=(int(hi), int(hi)),
    )


class TestCompensationParams:
    def test_defaults(self):
        p = CompensationParams()
        assert p.T == 0.8
        assert p.K == 3

    def test_validation(self):
        with pytest.raises(ValueError, match="T"):
            CompensationParams(T=1.2)
        with pytest.raises(ValueError, match="K"):
            CompensationParams(K=0)


class TestComputeQuality:
    def test_exact_match_scores_one(self):
        faces = np.array([[5.0, 5.0, 20.0, 20.0]])
        q = compute_quality(faces.copy(), faces)
        assert q.F[0] == 1.0

    def test_no_faces(self):
        regressed = np.array([[0.0, 0.0, 10.0, 10.0]])
        q = compute_quality(regressed, np.zeros((0, 4)))
        assert q.F.tolist() == [0.0]

    def test_matches_double_loop(self):
        rng = np.random.default_rng(9)
        regressed = random_boxes(rng, 100, hi=80.0)
        faces = random_boxes(rng, 5, hi=80.0)
        q = compute_quality(regressed, faces)
        for i in range(100):
            vals = [iou_reference(regressed[i], f) for f in faces]
            assert q.F[i] == pytest.approx(max(vals), rel=1e-12)


class TestCompensate:
    def make_instance(self, rng, n_anchors=64, n_faces=3, quality=0.9):
        grid = toy_grid(n_anchors, rng)
        faces = random_boxes(rng, n_faces, hi=100.0, min_side=5.0, max_side=30.0)
        # Regressed boxes pulled toward each anchor's best face.
        ious = pairwise_iou(grid.boxes, faces)
        best = np.argmax(ious, axis=1)
        regressed = grid.boxes + quality * (faces[best] - grid.boxes)
        return grid, faces, regressed

    def test_descending_admission_stops_at_threshold(self):
        # One face, no step-1 matches; regressed IoUs to it are
        # {0.9, 0.85, 0.6, ...}: with K=3, T=0.8 exactly two are admitted.
        face = np.array([[0.0, 0.0, 10.0, 10.0]])
        # IoU of (0, 0, 10, h) with the face is h/10.
        regressed = np.array(
            [
                [0.0, 0.0, 10.0, 6.0],  # 0.6
                [0.0, 0.0, 10.0, 9.0],  # 0.9
                [0.0, 0.0, 10.0, 8.5],  # 0.85
                [30.0, 30.0, 44.0, 44.0],  # 0
            ]
        )
        anchors = np.array([[20.0, 20.0, 34.0, 34.0]] * 4)
        grid = AnchorGrid(
            boxes=anchors,
            level_of=np.zeros(4, dtype=np.int32),
            cell_of=np.zeros((4, 2), dtype=np.int32),
            config=AnchorConfig(levels=((8, 16),)),
            image_size=(64, 64),
        )
        first = match_first_step(grid, face, MatchParams())
        assert first.matched_count.tolist() == [0]
        out = compensate(first, grid, face, regressed, CompensationParams(T=0.8, K=3))
        assert out.face_of.tolist() == [BACKGROUND, 0, 0, BACKGROUND]
        assert np.all(out.source[[1, 2]] == SOURCE_HAMBOX)
        assert out.matched_count.tolist() == [2]

    def test_equality_at_threshold_rejected(self):
        face = np.array([[0.0, 0.0, 10.0, 10.0]])
        regressed = np.array([[0.0, 0.0, 10.0, 8.0]])  # IoU exactly 0.8
        grid = AnchorGrid(
            boxes=np.array([[20.0, 20.0, 30.0, 30.0]]),
            level_of=np.zeros(1, dtype=np.int32),
            cell_of=np.zeros((1, 2), dtype=np.int32),
            config=AnchorConfig(levels=((8, 16),)),
            image_size=(64, 64),
        )
        first = match_first_step(grid, face, MatchParams())
        out = compensate(first, grid, face, regressed, CompensationParams(T=0.8, K=3))
        assert out.face_of.tolist() == [BACKGROUND]

    def test_saturated_face_gets_nothing(self):
        rng = np.random.default_rng(15)
        grid, faces, regressed = self.make_instance(rng, quality=1.0)
        first = match_first_step(grid, faces, MatchParams(iou_threshold=0.05))
        params = CompensationParams(T=0.5, K=1)
        out = compensate(first, grid, faces, regressed, params)
        for fi in range(3):
            if first.matched_count[fi] >= params.K:
                added = np.count_nonzero((out.face_of == fi) & (out.source == SOURCE_HAMBOX))
                assert added == 0

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(20)
        for trial in range(50):
            grid, faces, regressed = self.make_instance(
                rng,
                n_anchors=int(rng.integers(10, 120)),
                n_faces=int(rng.integers(1, 6)),
                quality=float(rng.uniform(0.3, 1.0)),
            )
            params = CompensationParams(
                T=float(rng.choice([0.5, 0.7, 0.8, 0.9])), K=int(rng.integers(1, 8))
            )
            first = match_first_step(grid, faces, MatchParams())
            out = compensate(first, grid, faces, regressed, params)
            want_face_of, want_sources, want_targets = compensate_reference(
                first.face_of.tolist(), grid.boxes, faces, regressed, params.K, params.T
            )
            assert out.face_of.tolist() == want_face_of
            got_sources = [SOURCE_NAMES[s] for s in out.source]
            want_names = {"none": "none", "step1": "step1", "hambox": "hambox_compensated"}
            assert got_sources == [want_names[s] for s in want_sources]
            for i, want in enumerate(want_targets):
                if want is not None:
                    np.testing.assert_allclose(out.targets[i], want, rtol=1e-9, atol=1e-12)

    def test_invariants_on_random_instances(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            grid, faces, regressed = self.make_instance(rng, quality=float(rng.uniform(0.5, 1.0)))
            params = CompensationParams(T=0.7, K=3)
            first = match_first_step(grid, faces, MatchParams())
            out = compensate(first, grid, faces, regressed, params)
            comp = out.source == SOURCE_HAMBOX
            # Compensated anchors were background before compensation.
            assert np.all(first.face_of[comp] == BACKGROUND)
            # No positive was demoted or reassigned.
            step1 = first.face_of >= 0
            np.testing.assert_array_equal(out.face_of[step1], first.face_of[step1])
            # Admission quality strictly above T.
            for a in np.flatnonzero(comp):
                assert iou(regressed[a], faces[out.face_of[a]]) > params.T
            # Per-face budget respected.
            for fi in range(len(faces)):
                added = np.count_nonzero(comp & (out.face_of == fi))
                d = int(first.matched_count[fi])
                assert added <= max(0, params.K - d)
                if d >= params.K:
                    assert added == 0

    def test_rejects_post_compensation_assignment(self):
        rng = np.random.default_rng(8)
        grid, faces, regressed = self.make_instance(rng)
        two = match_two_step(grid, faces, MatchParams())
        if np.any(two.source > SOURCE_STEP1):
            with pytest.raises(ValueError, match="first-step"):
                compensate(two, grid, faces, regressed, CompensationParams())

    def test_length_checks(self):
        rng = np.random.default_rng(8)
        grid, faces, regressed = self.make_instance(rng)
        first = match_first_step(grid, faces, MatchParams())
        with pytest.raises(ValueError, match="regressed"):
            compensate(first, grid, faces, regressed[:-1], CompensationParams())

    def test_earlier_face_consumes_shared_anchor(self):
        # Both faces want the same anchor; annotation order wins.
        face_a = np.array([0.0, 0.0, 10.0, 10.0])
        face_b = np.array([0.5, 0.0, 10.5, 10.0])
        faces = np.stack([face_a, face_b])
        regressed = np.array([[0.2, 0.0, 10.2, 10.0]])  # high IoU with both
        grid = AnchorGrid(
            boxes=np.array([[40.0, 40.0, 50.0, 50.0]]),
            level_of=np.zeros(1, dtype=np.int32),
            cell_of=np.zeros((1, 2), dtype=np.int32),
            config=AnchorConfig(levels=((8, 16),)),
            image_size=(64, 64),
        )
        first = match_first_step(grid, faces, MatchParams())
        out = compensate(first, grid, faces, regressed, CompensationParams(T=0.8, K=1))
        assert out.face_of.tolist() == [0]


@st.composite
def mining_instances(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    n_anchors = draw(st.integers(4, 80))
    n_faces = draw(st.integers(1, 5))
    quality = draw(st.floats(0.2, 1.0))
    k = draw(st.integers(1, 6))
    t = draw(st.sampled_from([0.5, 0.7, 0.8, 0.9]))
    rng = np.random.default_rng(seed)
    grid = AnchorGrid(
        boxes=random_boxes(rng, n_anchors, hi=100.0, min_side=3.0, max_side=30.0),
        level_of=np.zeros(n_anchors, dtype=np.int32),
        cell_of=np.zeros((n_anchors, 2), dtype=np.int32),
        config=AnchorConfig(levels=((8, 16),)),
        image_size=(100, 100),
    )
    faces = random_boxes(rng, n_faces, hi=100.0, min_side=5.0, max_side=30.0)
    ious = pairwise_iou(grid.boxes, faces)
    best = np.argmax(ious, axis=1)
    regressed = grid.boxes + quality * (faces[best] - grid.boxes)
    return grid, faces, regressed, CompensationParams(T=t, K=k)


@given(mining_instances())
@settings(max_examples=60, deadline=None)
def test_compensation_invariants_property(instance):
    grid, faces, regressed, params = instance
    first = match_first_step(grid, faces, MatchParams())
    out = compensate(first, grid, faces, regressed, params)
    comp = out.source == SOURCE_HAMBOX
    # No positive demoted; compensated anchors were background.
    step1 = first.face_of >= 0
    np.testing.assert_array_equal(out.face_of[step1], first.face_of[step1])
    assert np.all(first.face_of[comp] == BACKGROUND)
    for a in np.flatnonzero(comp):
        assert iou(regressed[a], faces[out.face_of[a]]) > params.T
    for fi in range(faces.shape[0]):
        added = int(np.count_nonzero(comp & (out.face_of == fi)))
        d = int(first.matched_count[fi])
        assert added <= max(0, params.K - d)
    # Counts stay consistent with labels.
    recount = np.bincount(out.face_of[out.face_of >= 0], minlength=faces.shape[0])
    np.testing.assert_array_equal(recount, out.matched_count)
    # The ignore mask never touches positives or compensated anchors.
    quality_scores = compute_quality(regressed, faces)
    mask = ignore_mask(out, quality_scores)
    assert not np.any(mask & (out.face_of >= 0))


class TestIgnoreMask:
    def build(self, rng):
        grid = toy_grid(60, rng)
        faces = random_boxes(rng, 3, hi=100.0, min_side=5.0, max_side=30.0)
        ious = pairwise_iou(grid.boxes, faces)
        best = np.argmax(ious, axis=1)
        regressed = grid.boxes + 0.9 * (faces[best] - grid.boxes)
        first = match_first_step(grid, faces, MatchParams())
        out = compensate(first, grid, faces, regressed, CompensationParams(T=0.8, K=2))
        quality = compute_quality(regressed, faces)
        return out, quality

    def test_compensated_and_positive_never_ignored(self):
        rng = np.random.default_rng(40)
        out, quality = self.build(rng)
        mask = ignore_mask(out, quality)
        assert not np.any(mask & (out.source == SOURCE_HAMBOX))
        assert not np.any(mask & (out.face_of >= 0))

    def test_high_quality_background_is_ignored(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            out, quality = self.build(rng)
            mask = ignore_mask(out, quality)
            want = (quality.F >= 0.5) & (out.face_of == BACKGROUND)
            np.testing.assert_array_equal(mask, want)
            if np.any(want):
                return
        pytest.fail("no instance produced a high-quality unmatched background anchor")

    def test_length_check(self):
        rng = np.random.default_rng(42)
        out, quality = self.build(rng)
        short = AnchorQuality(F=quality.F[:-1])
        with pytest.raises(ValueError, match="quality"):
            ignore_mask(out, short)
