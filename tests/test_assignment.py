import numpy as np
import pytest

from hambox.anchors import AnchorConfig, generate_anchors
from hambox.assignment import (
    BACKGROUND,
    SOURCE_NONE,
    SOURCE_STEP1,
    SOURCE_STEP2,
    MatchParams,
    match_first_step,
    match_nams,
    match_two_step,
)
from hambox.geometry import Box, pairwise_iou
from hambox.mining import CompensationParams, compensate

from .oracles import (
    compensate_reference,
    encode_reference,
    first_step_reference,
    nams_reference,
    random_boxes,
    two_step_reference,
)


def small_grid(image=64, stride=8, base=16, ratio=1.0):
    return generate_anchors(AnchorConfig(levels=((stride, base),), scale_ratio=ratio), image, image)


def random_grid_like(rng, n, hi=100.0):
    """A fake grid wrapper over arbitrary random anchor boxes."""
    from hambox.anchors import AnchorGrid

    boxes = random_boxes(rng, n, hi=hi, min_side=2.0, max_side=30.0)
    return AnchorGrid(
        boxes=boxes,
        level_of=np.zeros(n, dtype=np.int32),
        cell_of=np.zeros((n, 2), dtype=np.int32),
        config=AnchorConfig(levels=((8, 16),)),
        image_size=(int(hi), int(hi)),
    )


class TestMatchParams:
    def test_threshold_range(self):
        with pytest.raises(ValueError, match="iou_threshold"):
            MatchParams(iou_threshold=1.5)
        # At 0, an anchor overlapping no face would be a positive of face 0.
        with pytest.raises(ValueError, match=r"iou_threshold must be in \(0, 1\]"):
            MatchParams(iou_threshold=0.0)
        with pytest.raises(ValueError, match="nams_stage2_floor"):
            MatchParams(nams_stage2_floor=-0.1)

    def test_top_n_mode(self):
        with pytest.raises(ValueError, match="nams_top_n_mode"):
            MatchParams(nams_top_n_mode="median")
        with pytest.raises(ValueError, match="nams_top_n_mode"):
            MatchParams(nams_top_n_mode=0)
        assert MatchParams(nams_top_n_mode=3).nams_top_n_mode == 3


class TestFirstStep:
    def test_face_equals_anchor(self):
        grid = small_grid()
        face = Box(*grid.boxes[10])
        a = match_first_step(grid, [face], MatchParams())
        assert a.face_of[10] == 0
        assert a.source[10] == SOURCE_STEP1
        assert a.matched_count.tolist()[0] >= 1
        # The exactly-matching anchor carries an identity target.
        np.testing.assert_allclose(a.targets[10], [0, 0, 0, 0], atol=1e-12)

    def test_threshold_boundary(self):
        # One anchor; face tuned so IoU is just below / at the threshold.
        from hambox.anchors import AnchorGrid

        anchor = Box(0.0, 0.0, 10.0, 10.0)
        grid = AnchorGrid(
            boxes=np.array([tuple(anchor)]),
            level_of=np.zeros(1, dtype=np.int32),
            cell_of=np.zeros((1, 2), dtype=np.int32),
            config=AnchorConfig(levels=((8, 16),)),
            image_size=(10, 10),
        )
        face_at = Box(0.0, 0.0, 10.0, 3.5)  # IoU exactly 0.35
        face_below = Box(0.0, 0.0, 10.0, 3.4)  # IoU 0.34
        params = MatchParams(iou_threshold=0.35)
        at = match_first_step(grid, [face_at], params)
        assert at.face_of[0] == 0 and at.matched_count.tolist() == [1]
        below = match_first_step(grid, [face_below], params)
        assert below.face_of[0] == BACKGROUND and below.matched_count.tolist() == [0]

    def test_tie_breaks_to_lower_face_index(self):
        grid = small_grid()
        face = Box(*grid.boxes[5])
        a = match_first_step(grid, [face, face], MatchParams())
        assert a.face_of[5] == 0

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(10):
            grid = random_grid_like(rng, 200)
            faces = random_boxes(rng, 3, hi=100.0, min_side=5.0, max_side=40.0)
            a = match_first_step(grid, faces, MatchParams())
            want_face_of, want_counts = first_step_reference(grid.boxes, faces, 0.35)
            assert a.face_of.tolist() == want_face_of
            assert a.matched_count.tolist() == want_counts

    def test_positive_iff_best_iou_clears_threshold(self):
        rng = np.random.default_rng(55)
        grid = random_grid_like(rng, 150)
        faces = random_boxes(rng, 4, hi=100.0, min_side=5.0, max_side=40.0)
        params = MatchParams(iou_threshold=0.3)
        a = match_first_step(grid, faces, params)
        best = pairwise_iou(grid.boxes, faces).max(axis=1)
        np.testing.assert_array_equal(a.face_of >= 0, best >= params.iou_threshold)

    def test_no_faces(self):
        grid = small_grid()
        a = match_first_step(grid, [], MatchParams())
        assert np.all(a.face_of == BACKGROUND)
        assert np.all(a.source == SOURCE_NONE)
        assert a.matched_count.shape == (0,)

    def test_targets_encode_matched_face(self):
        rng = np.random.default_rng(7)
        grid = random_grid_like(rng, 80)
        faces = random_boxes(rng, 2, hi=100.0, min_side=8.0, max_side=30.0)
        a = match_first_step(grid, faces, MatchParams(iou_threshold=0.2))
        for i in np.flatnonzero(a.face_of >= 0):
            want = encode_reference(grid.boxes[i], faces[a.face_of[i]])
            np.testing.assert_allclose(a.targets[i], want, rtol=1e-12)


class TestTwoStep:
    def test_unmatched_face_claims_best_anchor(self):
        # An 8x8 face can reach at most IoU 64/256 = 0.25 against the 16x16
        # anchors, so the first step leaves it unmatched.
        grid = small_grid()
        face = Box(20.5, 19.5, 28.5, 27.5)
        params = MatchParams(iou_threshold=0.35)
        first = match_first_step(grid, [face], params)
        assert first.matched_count.tolist() == [0]
        two = match_two_step(grid, [face], params)
        assert two.matched_count.tolist() == [1]
        claimed = np.flatnonzero(two.source == SOURCE_STEP2)
        assert claimed.size == 1
        # The claimed anchor is the max-IoU background anchor.
        best = int(np.argmax(pairwise_iou(grid.boxes, [face])[:, 0]))
        assert claimed[0] == best

    def test_all_matched_equals_first_step(self):
        grid = small_grid()
        faces = [Box(*grid.boxes[3]), Box(*grid.boxes[40])]
        params = MatchParams()
        one = match_first_step(grid, faces, params)
        two = match_two_step(grid, faces, params)
        np.testing.assert_array_equal(one.face_of, two.face_of)
        np.testing.assert_array_equal(one.source, two.source)

    def test_competing_outer_faces_resolve_in_index_order(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            grid = random_grid_like(rng, 60)
            faces = random_boxes(rng, 4, hi=100.0, min_side=4.0, max_side=25.0)
            a = match_two_step(grid, faces, MatchParams(iou_threshold=0.5))
            want_face_of, want_counts, want_comp = two_step_reference(grid.boxes, faces, 0.5)
            assert a.face_of.tolist() == want_face_of
            assert a.matched_count.tolist() == want_counts
            np.testing.assert_array_equal(a.source == SOURCE_STEP2, want_comp)

    def test_outer_faces_share_best_anchor(self):
        # Both sub-threshold faces prefer the same anchor; the first face
        # takes it (index order) and the second falls back to its next best.
        from hambox.anchors import AnchorGrid

        anchors = np.array(
            [
                [0.0, 0.0, 10.0, 10.0],
                [8.0, 0.0, 18.0, 10.0],
            ]
        )
        grid = AnchorGrid(
            boxes=anchors,
            level_of=np.zeros(2, dtype=np.int32),
            cell_of=np.zeros((2, 2), dtype=np.int32),
            config=AnchorConfig(levels=((8, 16),)),
            image_size=(20, 10),
        )
        # IoUs: face 0 vs (a0, a1) = (40/110, 30/120); face 1 = (35/105,
        # 25/115). Both best-prefer anchor 0.
        faces = np.array([[6.0, 0.0, 11.0, 10.0], [6.5, 0.0, 10.5, 10.0]])
        a = match_two_step(grid, faces, MatchParams(iou_threshold=0.9))
        assert a.face_of.tolist() == [0, 1]
        assert a.matched_count.tolist() == [1, 1]
        assert np.all(a.source == SOURCE_STEP2)

    def test_zero_iou_face_stays_unmatched(self):
        grid = small_grid(image=32)
        far_face = Box(500.0, 500.0, 520.0, 520.0)
        a = match_two_step(grid, [far_face], MatchParams())
        assert a.matched_count.tolist() == [0]

    def test_unmatched_face_implies_no_background_candidate(self):
        # A face left unmatched after step 2 cannot have any still-background
        # anchor with positive IoU (it would have claimed one at its turn).
        rng = np.random.default_rng(77)
        grid = random_grid_like(rng, 120)
        faces = random_boxes(rng, 5, hi=100.0, min_side=4.0, max_side=25.0)
        a = match_two_step(grid, faces, MatchParams(iou_threshold=0.9))
        overlaps = pairwise_iou(grid.boxes, faces)
        background = a.face_of == BACKGROUND
        for j in range(5):
            if a.matched_count[j] == 0:
                assert not np.any(overlaps[background, j] > 0)


class TestNams:
    def test_no_outer_faces_equals_first_step(self):
        grid = small_grid()
        faces = [Box(*grid.boxes[3])]
        one = match_first_step(grid, faces, MatchParams())
        nams = match_nams(grid, faces, MatchParams())
        np.testing.assert_array_equal(one.face_of, nams.face_of)

    def test_floor_excludes_weak_candidates(self):
        # Face has background-anchor IoUs {0.3, 0.2, 0.09}; with floor 0.1
        # and fixed N=2 exactly the first two are claimed.
        from hambox.anchors import AnchorGrid

        face = Box(0.0, 0.0, 10.0, 10.0)
        # IoU of (0, 0, 10, h) with the face is h/10 for h <= 10.
        anchors = np.array(
            [
                [0.0, 0.0, 10.0, 3.0],  # IoU 0.3
                [0.0, 20.0, 10.0, 22.0],  # disjoint, IoU 0
                [0.0, 8.0, 10.0, 18.0],  # IoU 2/18 ~ 0.111
                [0.0, 9.1, 10.0, 19.1],  # IoU 0.9/19.1 ~ 0.047, below the floor
            ]
        )
        grid = AnchorGrid(
            boxes=anchors,
            level_of=np.zeros(4, dtype=np.int32),
            cell_of=np.zeros((4, 2), dtype=np.int32),
            config=AnchorConfig(levels=((8, 16),)),
            image_size=(32, 32),
        )
        params = MatchParams(iou_threshold=0.9, nams_stage2_floor=0.1, nams_top_n_mode=2)
        a = match_nams(grid, [face], params)
        assert a.face_of.tolist() == [0, BACKGROUND, 0, BACKGROUND]
        assert np.all(a.source[[0, 2]] == SOURCE_STEP2)

    def test_matches_bruteforce_oracle_mean_mode(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            grid = random_grid_like(rng, 80)
            faces = random_boxes(rng, 4, hi=100.0, min_side=4.0, max_side=25.0)
            a = match_nams(grid, faces, MatchParams(iou_threshold=0.45))
            want_face_of, want_counts, want_comp = nams_reference(
                grid.boxes, faces, 0.45, 0.1, "mean_matched"
            )
            assert a.face_of.tolist() == want_face_of
            assert a.matched_count.tolist() == want_counts
            np.testing.assert_array_equal(a.source == SOURCE_STEP2, want_comp)

    def test_fixed_mode_equals_mean_mode_when_mean_floors_to_it(self):
        rng = np.random.default_rng(61)
        for _ in range(30):
            grid = random_grid_like(rng, 100)
            faces = random_boxes(rng, 3, hi=100.0, min_side=4.0, max_side=30.0)
            mean_params = MatchParams(iou_threshold=0.4)
            a_mean = match_nams(grid, faces, mean_params)
            counts = a_mean.matched_count  # post-claim counts; recompute step1 mean
            first = match_first_step(grid, faces, mean_params)
            matched = first.matched_count[first.matched_count > 0]
            if matched.size == 0:
                continue
            n = max(1, int(np.floor(matched.mean())))
            a_fixed = match_nams(grid, faces, MatchParams(iou_threshold=0.4, nams_top_n_mode=n))
            np.testing.assert_array_equal(a_mean.face_of, a_fixed.face_of)


class TestClaimBest:
    """The one claim rule behind dms, nams and online compensation, on exact ties."""

    # Face 0 is short: no anchor clears the 0.9 step-1 threshold. Anchors 1-4
    # are face 0 shifted left, right, up and down by 4 px, so their IoU with
    # it is the same float (60 / 140). Face 1's best anchor is anchor 1, which
    # face 0 claims first; anchors 3 and 4 tie again for face 1.
    ANCHORS = np.array(
        [
            [50.0, 50.0, 60.0, 60.0],
            [6.0, 10.0, 16.0, 20.0],
            [14.0, 10.0, 24.0, 20.0],
            [10.0, 6.0, 20.0, 16.0],
            [10.0, 14.0, 20.0, 24.0],
        ]
    )
    FACES = np.array([[10.0, 10.0, 20.0, 20.0], [5.0, 10.0, 15.0, 20.0]])
    THRESHOLD = 0.9

    def grid(self):
        from hambox.anchors import AnchorGrid

        return AnchorGrid(
            boxes=self.ANCHORS.copy(),
            level_of=np.zeros(5, dtype=np.int32),
            cell_of=np.zeros((5, 2), dtype=np.int32),
            config=AnchorConfig(levels=((8, 16),)),
            image_size=(64, 64),
        )

    @pytest.mark.parametrize(
        "rule, want",
        [
            ("dms", [-1, 0, -1, 1, -1]),
            ("nams", [-1, 0, 0, 1, 1]),
            ("compensate", [-1, 0, 0, 1, 1]),
        ],
    )
    def test_lower_index_and_earlier_face_win(self, rule, want):
        ious = pairwise_iou(self.ANCHORS, self.FACES)
        assert len(set(ious[1:, 0].tolist())) == 1  # bit-equal for face 0
        assert ious[3, 1] == ious[4, 1] and np.argmax(ious[:, 1]) == 1
        grid, anchors, faces = self.grid(), self.ANCHORS.tolist(), self.FACES.tolist()
        params = MatchParams(iou_threshold=self.THRESHOLD, nams_top_n_mode=2)
        if rule == "dms":
            got = match_two_step(grid, self.FACES, params)
            ref, _, _ = two_step_reference(anchors, faces, self.THRESHOLD)
        elif rule == "nams":
            got = match_nams(grid, self.FACES, params)
            ref, _, _ = nams_reference(anchors, faces, self.THRESHOLD, params.nams_stage2_floor, 2)
        else:
            first = match_first_step(grid, self.FACES, params)
            got = compensate(first, grid, self.FACES, self.ANCHORS, CompensationParams(T=0.1, K=2))
            ref, _, _ = compensate_reference(first.face_of.tolist(), anchors, faces, anchors, 2, 0.1)
        assert got.face_of.tolist() == want
        assert ref == want
        pos = np.flatnonzero(got.face_of >= 0)
        want_targets = [encode_reference(anchors[i], faces[got.face_of[i]]) for i in pos]
        np.testing.assert_allclose(got.targets[pos], want_targets, rtol=1e-12)


class TestInvariants:
    def test_anchor_positive_to_at_most_one_face(self):
        rng = np.random.default_rng(3)
        grid = random_grid_like(rng, 100)
        faces = random_boxes(rng, 6, hi=100.0, min_side=4.0, max_side=25.0)
        for strat in (match_first_step, match_two_step, match_nams):
            a = strat(grid, faces, MatchParams())
            # face_of is single-valued by construction; counts must agree.
            recount = np.bincount(a.face_of[a.face_of >= 0], minlength=6)
            np.testing.assert_array_equal(recount, a.matched_count)

    def test_sequence_lengths(self):
        rng = np.random.default_rng(5)
        grid = random_grid_like(rng, 64)
        faces = random_boxes(rng, 3, hi=100.0)
        a = match_two_step(grid, faces, MatchParams())
        assert a.face_of.shape == (64,)
        assert a.targets.shape == (64, 4)
        assert a.source.shape == (64,)
        assert a.matched_count.shape == (3,)
