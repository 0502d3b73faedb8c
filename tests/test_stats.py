import dataclasses
import tracemalloc
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hambox import stats
from hambox.anchors import AnchorConfig, AnchorGrid, cover_image_size, generate_anchors
from hambox.assignment import MatchParams, match_first_step
from hambox.geometry import Box, pairwise_iou
from hambox.ingest import FaceAnnotation, ImageRecord, filter_valid
from hambox.mining import compute_quality
from hambox.stats import (
    EmptyDatasetError,
    ProvenanceReport,
    _block_tally,
    _census,
    _image_census,
    combine_reports,
    dataset_census,
    provenance_csv,
    provenance_report,
    scale_ratio_sweep,
    valid_face_boxes,
)


def one_image_tally(faces, sizes, iou_threshold, image_size):
    """`_block_tally` of a block of one image."""
    size = None if image_size is None else np.array([image_size], dtype=np.float64)
    return _block_tally(faces, np.array([faces.shape[0]]), sizes, iou_threshold, size)


def record(faces, path="img.jpg", invalid=None):
    invalid = invalid or [0] * len(faces)
    return ImageRecord(
        path=path,
        faces=tuple(FaceAnnotation(box=Box(*f), invalid=inv) for f, inv in zip(faces, invalid)),
    )


def dense_census(records, config, threshold, image_sizes):
    """Brute-force recount: materialize each grid and run the dense matcher."""
    total_faces = matched = positives = 0
    per_level = np.zeros(len(config.levels), dtype=np.int64)
    for rec, size in zip(records, image_sizes):
        faces = valid_face_boxes(rec)
        total_faces += faces.shape[0]
        if faces.shape[0] == 0:
            continue
        grid = generate_anchors(config, *size)
        a = match_first_step(grid, faces, MatchParams(iou_threshold=threshold))
        matched += int(np.count_nonzero(a.matched_count > 0))
        positives += int(a.matched_count.sum())
        for li in range(len(config.levels)):
            sel = (a.face_of >= 0) & (grid.level_of == li)
            per_level[li] += np.unique(a.face_of[sel]).size
    return total_faces, matched, positives, per_level


class TestDatasetCensus:
    def test_matches_dense_matcher_on_random_data(self):
        rng = np.random.default_rng(19)
        config = AnchorConfig(levels=((4, 16), (8, 32), (16, 64)), scale_ratio=0.68)
        for trial in range(10):
            records = []
            sizes = []
            for _ in range(3):
                n = int(rng.integers(1, 8))
                faces = []
                for _ in range(n):
                    side = float(rng.uniform(4.0, 60.0))
                    x0 = float(rng.uniform(0, 120))
                    y0 = float(rng.uniform(0, 120))
                    faces.append((x0, y0, x0 + side, y0 + side * float(rng.uniform(0.8, 1.25))))
                records.append(record(faces))
                sizes.append((200, 200))
            threshold = float(rng.choice([0.2, 0.35, 0.5]))
            census = dataset_census(records, config, threshold, image_sizes=sizes)
            total, matched, positives, per_level = dense_census(records, config, threshold, sizes)
            assert census.total_faces == total
            assert census.matched_faces == matched
            assert census.total_positives == positives
            np.testing.assert_array_equal(census.matched_faces_per_level, per_level)

    def test_inferred_extent_matches_dense_on_cover_grid(self):
        config = AnchorConfig(levels=((4, 16), (8, 32)), scale_ratio=0.68)
        records = [record([(10, 12, 40, 44), (100, 90, 130, 121)])]
        census = dataset_census(records, config, 0.35)
        size = cover_image_size(valid_face_boxes(records[0]), config)
        total, matched, positives, per_level = dense_census(records, config, 0.35, [size])
        assert census.total_positives == positives
        assert census.matched_faces == matched
        np.testing.assert_array_equal(census.matched_faces_per_level, per_level)

    def test_faces_outside_the_image_have_no_positives(self):
        """A face wholly past the image on either side gets an empty window on every level."""
        config = AnchorConfig(levels=((4, 16), (8, 32)), scale_ratio=1.0, aspect_ratio=1.25)
        records = [record([(300.0, 250.0, 316.0, 270.0), (-90.0, -70.0, -74.0, -50.0)])]
        census = dataset_census(records, config, 0.35, image_sizes=[(64, 48)])
        total, matched, positives, per_level = dense_census(records, config, 0.35, [(64, 48)])
        assert (census.total_faces, census.matched_faces, census.total_positives) == (2, 0, 0)
        assert (total, matched, positives) == (2, 0, 0)
        np.testing.assert_array_equal(census.matched_faces_per_level, per_level)

    def test_invalid_and_degenerate_faces_excluded(self):
        records = [
            record(
                [(0, 0, 16, 16), (20, 20, 20, 36), (40, 40, 56, 56)],
                invalid=[0, 0, 1],
            )
        ]
        census = dataset_census(records, AnchorConfig(levels=((16, 16),)), 0.35)
        assert census.total_faces == 1

    def test_zero_threshold_rejected(self):
        with pytest.raises(ValueError, match="iou_threshold"):
            dataset_census([record([(0, 0, 16, 16)])], AnchorConfig(levels=((16, 16),)), 0.0)

    def test_threads_do_not_change_counts(self):
        rng = np.random.default_rng(8)
        config = AnchorConfig(levels=((8, 24), (16, 48)))
        records = []
        for _ in range(6):
            faces = [
                (x, y, x + s, y + s)
                for x, y, s in rng.uniform([0, 0, 5], [150, 150, 60], size=(4, 3))
            ]
            records.append(record(faces))
        # 48 cells fit one block; budgets of 16 and 8 cells split them into 3
        # and 6 blocks, which the threads then tally concurrently.
        for budget, n_blocks in ((stats._PASS_CELLS, 1), (16, 3), (8, 6)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(stats, "_PASS_CELLS", budget)
                assert len(stats._blocks(records, 2)) == n_blocks
                a = dataset_census(records, config, 0.35, threads=1)
                for threads in (2, 4):
                    b = dataset_census(records, config, 0.35, threads=threads)
                    assert a.total_faces == b.total_faces
                    assert a.matched_faces == b.matched_faces
                    assert a.total_positives == b.total_positives
                    np.testing.assert_array_equal(a.matched_faces_per_level, b.matched_faces_per_level)


@st.composite
def census_case(draw, min_faces=1):
    """A random pyramid, non-square faces, an image extent that may clip the
    anchor windows, and a threshold in (0, 1]."""
    n_levels = draw(st.integers(1, 6))
    stride = draw(st.sampled_from([2.0, 3.0, 4.0, 5.0]))
    levels = []
    for _ in range(n_levels):
        levels.append((stride, draw(st.floats(4.0, 96.0))))
        stride *= draw(st.sampled_from([1.5, 2.0, 3.0]))
    config = AnchorConfig(
        levels=tuple(levels),
        scale_ratio=draw(st.floats(0.3, 1.5)),
        aspect_ratio=draw(st.floats(0.5, 2.0).filter(lambda a: a != 1.0)),
    )
    coord = st.floats(0.0, 150.0)
    faces = np.array(
        [
            (x, y, x + draw(st.floats(1.0, 80.0)), y + draw(st.floats(1.0, 80.0)))
            for x, y in draw(st.lists(st.tuples(coord, coord), min_size=min_faces, max_size=8))
        ]
    ).reshape(-1, 4)
    cover_w, cover_h = cover_image_size(faces, config)
    size = (draw(st.integers(1, cover_w)), draw(st.integers(1, cover_h)))
    threshold = draw(st.floats(0.0, 1.0, exclude_min=True))
    return faces, config, size, threshold


@settings(max_examples=150, deadline=None)
@given(census_case())
def test_image_census_equals_dense_first_step(case):
    faces, config, size, threshold = case
    counts, level_hit = _image_census(faces, config, threshold, size)
    grid = generate_anchors(config, *size)
    a = match_first_step(grid, faces, MatchParams(iou_threshold=threshold))
    np.testing.assert_array_equal(counts, a.matched_count)
    dense_hit = np.zeros_like(level_hit)
    pos = a.face_of >= 0
    dense_hit[a.face_of[pos], grid.level_of[pos]] = True
    np.testing.assert_array_equal(level_hit, dense_hit)


@st.composite
def sweep_case(draw):
    """A census case, possibly without faces or a fixed extent, under 1 to 12 scale ratios."""
    faces, config, size, threshold = draw(census_case(min_faces=0))
    ratios = draw(st.lists(st.floats(0.3, 1.5), min_size=1, max_size=12))
    return faces, [config.with_scale_ratio(r) for r in ratios], draw(st.none() | st.just(size)), threshold


# Two unit faces that each anchor containing them scores alike, as the dense
# matcher computes the anchor's area: from its coordinates, which round
# differently from the product of its sides.
TIED_FACES = np.array([[0.0, 0.8632306913008204, 1.0, 1.8632306913008203], [0.0, 0.0, 1.0, 1.0]])


@pytest.mark.parametrize("budget", [None, 1, 7, 100])
@settings(max_examples=40, deadline=None)
@given(case=sweep_case())
@example(case=(TIED_FACES, [AnchorConfig(levels=((2.0, 29.16220130427284),), aspect_ratio=1.5)], None, 5e-324))
def test_census_tally_equals_per_config_kernel_and_dense(budget, case):
    """Every config's tally row is what `_image_census` and the dense matcher
    give for that config alone, also when passes split at every config."""
    faces, configs, size, threshold = case
    sizes = np.array([c._sizes for c in configs])
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(stats, "_PASS_CELLS", budget)
        tally = one_image_tally(faces, sizes, threshold, size)
    for row, config in zip(tally, configs):
        counts, level_hit = _image_census(faces, config, threshold, size)
        want = [faces.shape[0], np.count_nonzero(counts), counts.sum(), *level_hit.sum(axis=0)]
        assert row.tolist() == want
        grid = generate_anchors(config, *(size or cover_image_size(faces, config)))
        a = match_first_step(grid, faces, MatchParams(iou_threshold=threshold))
        np.testing.assert_array_equal(counts, a.matched_count)
        dense_hit = np.zeros_like(level_hit)
        pos = a.face_of >= 0
        dense_hit[a.face_of[pos], grid.level_of[pos]] = True
        np.testing.assert_array_equal(level_hit, dense_hit)


def test_sweep_memory_flat_in_ratio_count():
    """The census keeps O(one pass) of work arrays, however many ratios it sweeps.

    One crowd image is one block; 100 one-face images are many blocks, whose
    tallies must not all be held at once.
    """
    rng = np.random.default_rng(1)
    side = rng.uniform(4.0, 20.0, size=(200, 2))
    corner = rng.uniform(0.0, 1.0, size=(200, 2)) * ([360.0, 280.0] - side)
    crowd = record(np.round(np.hstack([corner, corner + side])).tolist(), path="crowd.jpg")
    singles = [record([face], path=f"{i}.jpg") for i, face in enumerate(crowd.face_boxes()[:100].tolist())]
    config = AnchorConfig(levels=((4, 16), (8, 32), (16, 64), (32, 128), (64, 256), (128, 512)))
    for dataset, counts in (([crowd], (20, 2000)), (singles, (10, 1000))):
        peaks = []
        for n in counts:
            ratios = np.linspace(0.4, 1.0, n).tolist()
            tracemalloc.start()
            try:
                scale_ratio_sweep(dataset, config, ratios, 0.35)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 4 * 2**20, (len(dataset), peaks)


NON_FINITE = [np.inf, -np.inf, np.nan]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(-50.0, 50.0) | st.sampled_from(NON_FINITE),
            st.floats(-50.0, 50.0),
            st.sampled_from([-3.0, 0.0, 0.5, 7.0, *NON_FINITE]),
            st.sampled_from([-1.0, 0.0, 2.0, 9.5, *NON_FINITE]),
            st.sampled_from([0, 1]),
        ),
        max_size=8,
    ),
    st.data(),
)
def test_valid_face_boxes_equals_filter_valid(faces, data):
    rec = record([(x, y, x + w, y + h) for x, y, w, h, _ in faces], invalid=[inv for *_, inv in faces])
    want = filter_valid([rec])[0].face_boxes()
    got = valid_face_boxes(rec)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    # `filter_valid` against the per-face rule it replaced, at 0, at a face's
    # own side (a boundary) and elsewhere.
    sides = [s for f in rec.faces for s in (f.box.width, f.box.height) if s >= 0.0]
    min_side = data.draw(st.sampled_from([0.0, *sides]) | st.floats(0.0, 20.0) | st.just(np.inf))
    kept = tuple(
        f
        for f in rec.faces
        if f.invalid != 1
        and f.box.width > 0
        and f.box.height > 0
        and min(f.box.width, f.box.height) >= min_side
    )
    assert filter_valid([rec], min_side) == [ImageRecord(rec.path, kept)]


# A face that meets one column of anchors by one ulp: below a threshold as
# small as their IoU, only windows widened for rounding keep them.
ULP_CASE = (np.array([[-5.0, 0.0, -0.6055, 1.0]]), AnchorConfig(levels=((0.3, 11.0),), scale_ratio=0.301), (6, 2), None)


@settings(max_examples=100, deadline=None)
@given(case=census_case(), pick=st.floats(0.0, 1.0))
@example(case=ULP_CASE, pick=0.0)
def test_census_at_a_threshold_some_anchor_meets_exactly(case, pick):
    """The threshold is one of the dense matcher's own IoUs, so some anchor sits exactly at it."""
    faces, config, size, _ = case
    grid = generate_anchors(config, *size)
    ious = np.unique(pairwise_iou(grid.boxes, faces))
    ious = ious[ious > 0.0]
    assume(ious.size > 0)
    threshold = float(ious[round(pick * (ious.size - 1))])
    a = match_first_step(grid, faces, MatchParams(iou_threshold=threshold))
    counts, level_hit = _image_census(faces, config, threshold, size)
    np.testing.assert_array_equal(counts, a.matched_count)
    pos = a.face_of >= 0
    assert level_hit.sum() == np.unique(a.face_of[pos] * len(config.levels) + grid.level_of[pos]).size
    tally = one_image_tally(faces, config._sizes[None], threshold, size)
    assert tally[0, :3].tolist() == [faces.shape[0], np.count_nonzero(counts), counts.sum()]


def test_images_with_equal_faces_count_only_their_own_anchors():
    """Two images with the same faces share a block; each counts only its own anchors."""
    faces = [(10, 12, 40, 44), (11, 12, 41, 44), (100, 90, 130, 121)]
    records = [record(faces, path="a.jpg"), record(faces, path="b.jpg")]
    config = AnchorConfig(levels=((4, 16), (8, 32), (16, 64)), scale_ratio=0.68)
    assert len(stats._blocks(records, len(config.levels))) == 1
    for sizes in (None, [(160, 140), (160, 140)]):
        pair = dataset_census(records, config, 0.35, image_sizes=sizes)
        one = dataset_census(records[:1], config, 0.35, image_sizes=sizes and sizes[:1])
        assert one.total_positives > 0
        assert (pair.total_faces, pair.matched_faces, pair.total_positives) == (
            2 * one.total_faces, 2 * one.matched_faces, 2 * one.total_positives)
        np.testing.assert_array_equal(pair.matched_faces_per_level, 2 * one.matched_faces_per_level)
        total, matched, positives, per_level = dense_census(
            records, config, 0.35, sizes or [cover_image_size(valid_face_boxes(records[0]), config)] * 2
        )
        assert (pair.matched_faces, pair.total_positives) == (matched, positives)
        np.testing.assert_array_equal(pair.matched_faces_per_level, per_level)


def test_block_whose_anchors_overflow_int64_is_halved():
    """Two images of 2^62 anchors each fit one block by faces, but not one int64 index."""
    config = AnchorConfig(levels=((1.0, 1.0),))
    far = 2.0**31 - 2.0  # the cover grid is 2^31 x 2^31
    records = [record([(far - 1.0, far - 1.0, far, far)], path=f"{i}.jpg") for i in range(2)]
    assert len(stats._blocks(records, 1)) == 1
    both, one = dataset_census(records, config, 0.5), dataset_census(records[:1], config, 0.5)
    assert (both.matched_faces, both.total_positives) == (2, 2) == (2 * one.matched_faces, 2 * one.total_positives)


@st.composite
def dataset_case(draw):
    """Two to six images of zero to four faces each, some invalid, with or without image sizes, under a sweep."""
    n_images = draw(st.integers(2, 6))
    cases = [draw(census_case(min_faces=0)) for _ in range(n_images)]
    config, threshold = cases[0][1], cases[0][3]
    configs = [config.with_scale_ratio(r) for r in draw(st.lists(st.floats(0.3, 1.5), min_size=1, max_size=4))]
    records = [
        record(faces[:4].tolist(), path=f"{i}.jpg", invalid=[draw(st.sampled_from([0, 0, 1])) for _ in faces[:4]])
        for i, (faces, *_) in enumerate(cases)
    ]
    sizes = draw(st.none() | st.just([(100, 90 + i) for i in range(n_images)]))
    return records, configs, sizes, threshold


@pytest.mark.parametrize("budget", [1, 7, 100])
@settings(max_examples=30, deadline=None)
@given(case=dataset_case())
def test_census_equals_sum_of_image_tallies(budget, case):
    """Blocks of images, whatever their split, count what the images count one by one."""
    records, configs, sizes, threshold = case
    stacked = np.array([c._sizes for c in configs])
    want = sum(
        one_image_tally(valid_face_boxes(rec), stacked, threshold, sizes and sizes[i]) for i, rec in enumerate(records)
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stats, "_PASS_CELLS", budget)
        got = _census(records, configs, threshold, sizes, threads=1)
    for row, census in zip(want, got):
        assert row.tolist() == [
            census.total_faces, census.matched_faces, census.total_positives, *census.matched_faces_per_level
        ]


def census_records(n_images):
    """`n_images` generated images of 1 to 8 faces, 4 to 300 px, on 1024 x 768 canvases."""
    rng = np.random.default_rng(0)
    records = []
    for i in range(n_images):
        side = np.exp(rng.uniform(np.log(4.0), np.log(300.0), size=(1 + i % 8, 1)))
        corner = rng.uniform(0.0, 1.0, size=(side.shape[0], 2)) * ([1024.0, 768.0] - side)
        records.append(record(np.hstack([corner, corner + side]).tolist(), path=f"{i}.jpg"))
    return records


def test_census_memory_flat_in_image_count():
    """The census keeps O(one block) of work arrays, however many images it walks.

    At 64 ratios even the 20 images fill several blocks. Each block's tally
    kept to the end would add about 0.45 MB at 400 images, and each image's
    about 1.8 MB. What does grow is about 80 bytes per image, among them
    the blocks' references to their records.
    """
    config = AnchorConfig(levels=((4, 16), (8, 32), (16, 64), (32, 128), (64, 256), (128, 512)))
    ratios = np.linspace(0.4, 1.0, 64).tolist()
    scale_ratio_sweep(census_records(20), config, ratios, 0.35)
    peaks = []
    for n in (20, 400):
        records = census_records(n)
        tracemalloc.start()
        try:
            scale_ratio_sweep(records, config, ratios, 0.35)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 64 * 2**10, peaks


class CountingRecords(Sequence):
    """A dataset that counts how often each record is read."""

    def __init__(self, records):
        self.records = records
        self.reads = [0] * len(records)

    def __len__(self):
        return len(self.records)

    def __getitem__(self, i):
        self.reads[i] += 1
        return self.records[i]


class TestScaleRatioSweep:
    @pytest.mark.parametrize("n_ratios", [1, 16])
    def test_walks_dataset_once(self, n_ratios):
        rng = np.random.default_rng(n_ratios)
        config = AnchorConfig(levels=((4, 16), (8, 32), (16, 64)))
        boxes = rng.uniform([0, 0, 4], [100, 100, 50], size=(5, 3, 3))
        records = [record([(x, y, x + s, y + s * 1.2) for x, y, s in image]) for image in boxes]
        ratios = np.linspace(0.4, 1.6, n_ratios).tolist()
        dataset = CountingRecords(records)
        points = scale_ratio_sweep(dataset, config, ratios, 0.35)
        assert dataset.reads == [1] * len(records)
        for ratio, p in zip(ratios, points):
            census = dataset_census(records, config.with_scale_ratio(ratio), 0.35)
            assert p.scale_ratio == ratio
            assert p.mean_anchors_per_face == census.mean_anchors_per_face
            assert p.fraction_faces_matched == census.fraction_faces_matched


    def test_perfectly_aligned_face(self):
        # One face exactly covering one anchor cell: every statistic is 1.
        config = AnchorConfig(levels=((16, 16),), scale_ratio=1.0)
        records = [record([(0, 0, 16, 16)])]
        points = scale_ratio_sweep(records, config, [1.0], 0.35, image_sizes=[(64, 64)])
        assert len(points) == 1
        assert points[0].scale_ratio == 1.0
        assert points[0].mean_anchors_per_face == 1.0
        assert points[0].fraction_faces_matched == 1.0

    def test_sweep_equals_per_image_recount(self):
        rng = np.random.default_rng(4)
        config = AnchorConfig(levels=((4, 16), (8, 32)), scale_ratio=1.0)
        records = []
        sizes = []
        for _ in range(4):
            faces = [
                (x, y, x + s, y + s)
                for x, y, s in rng.uniform([0, 0, 4], [100, 100, 40], size=(3, 3))
            ]
            records.append(record(faces))
            sizes.append((160, 160))
        ratios = [0.5, 0.68, 1.0]
        points = scale_ratio_sweep(records, config, ratios, 0.35, image_sizes=sizes)
        for ratio, p in zip(ratios, points):
            total, matched, positives, _ = dense_census(
                records, config.with_scale_ratio(ratio), 0.35, sizes
            )
            assert p.mean_anchors_per_face == pytest.approx(positives / total)
            assert p.fraction_faces_matched == pytest.approx(matched / total)

    def test_empty_dataset_raises_marker_error(self):
        records = [record([], path="empty.jpg")]
        with pytest.raises(EmptyDatasetError):
            scale_ratio_sweep(records, AnchorConfig(levels=((16, 16),)), [1.0], 0.35)

    def test_bad_ratio_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            scale_ratio_sweep([record([(0, 0, 16, 16)])], AnchorConfig(levels=((16, 16),)), [0.0], 0.35)


def hand_fixture():
    """Five anchors, two faces, with every provenance field known by hand."""
    faces = np.array([[0.0, 0.0, 10.0, 10.0], [30.0, 30.0, 40.0, 40.0]])
    anchors = np.array(
        [
            [0.0, 0.0, 10.0, 10.0],  # IoU(f0) = 1.0 -> step1 positive
            [0.0, 5.0, 10.0, 15.0],  # IoU(f0) = 1/3 -> background
            [100.0, 100.0, 110.0, 110.0],  # far -> background
            [30.0, 30.0, 40.0, 41.0],  # IoU(f1) = 10/11 -> step1 positive
            [25.0, 30.0, 35.0, 40.0],  # IoU(f1) = 1/3 -> background
        ]
    )
    regressed = np.array(
        [
            [0.0, 0.0, 10.0, 9.5],  # IoU(f0) = 95/105
            [0.0, 0.0, 10.0, 10.0],  # IoU(f0) = 1.0, unmatched anchor
            [100.0, 100.0, 110.0, 110.0],  # F = 0
            [30.0, 30.0, 40.0, 40.5],  # IoU(f1) = 100/105
            [30.0, 31.0, 40.0, 41.0],  # IoU(f1) = 90/110, unmatched anchor
        ]
    )
    scores = np.array([0.9, 0.95, 0.1, 0.8, 0.85])
    grid = AnchorGrid(
        boxes=anchors,
        level_of=np.zeros(5, dtype=np.int32),
        cell_of=np.zeros((5, 2), dtype=np.int32),
        config=AnchorConfig(levels=((8, 16),)),
        image_size=(128, 128),
    )
    assignment = match_first_step(grid, faces, MatchParams(iou_threshold=0.35))
    quality = compute_quality(regressed, faces)
    return grid, faces, regressed, scores, assignment, quality


class TestProvenanceReport:
    def test_hand_counted_fixture(self):
        grid, faces, regressed, scores, assignment, quality = hand_fixture()
        assert assignment.face_of.tolist() == [0, -1, -1, 1, -1]
        rep = provenance_report(assignment, grid, quality, regressed, scores, faces, 0.5)
        assert rep.n_cpbb == 4
        assert rep.n_cpbb_from_matched == 2
        assert rep.frac_cpbb_from_matched == pytest.approx(0.5)
        assert rep.n_hq == 4
        assert rep.n_hq_unmatched == 2
        assert rep.frac_hq_unmatched == pytest.approx(0.5)
        assert rep.faces_matched_anchor == 2
        assert rep.faces_matched_cpbb == 2
        # Both matched predictions are suppressed by higher-scoring duplicates
        # regressed from unmatched anchors.
        assert rep.faces_matched_cpbb_post_nms == 0
        np.testing.assert_allclose(rep.iou_cdf, [10 / 11, 1.0])

    def test_all_far_predictions(self):
        grid, faces, regressed, scores, assignment, _ = hand_fixture()
        far = regressed + 1000.0
        quality = compute_quality(far, faces)
        rep = provenance_report(assignment, grid, quality, far, scores, faces, 0.5)
        assert rep.n_cpbb == 0
        assert rep.frac_cpbb_from_matched == 0.0
        assert rep.faces_matched_cpbb == 0
        assert rep.faces_matched_cpbb_post_nms == 0

    def test_post_nms_never_exceeds_pre_nms(self):
        rng = np.random.default_rng(3)
        from .oracles import random_boxes

        for _ in range(10):
            faces = random_boxes(rng, 3, hi=80.0, min_side=6.0, max_side=30.0)
            anchors = random_boxes(rng, 40, hi=80.0, min_side=6.0, max_side=30.0)
            grid = AnchorGrid(
                boxes=anchors,
                level_of=np.zeros(40, dtype=np.int32),
                cell_of=np.zeros((40, 2), dtype=np.int32),
                config=AnchorConfig(levels=((8, 16),)),
                image_size=(80, 80),
            )
            regressed = anchors + 0.7 * (faces[rng.integers(0, 3, size=40)] - anchors)
            scores = rng.uniform(0, 1, size=40)
            assignment = match_first_step(grid, faces, MatchParams())
            quality = compute_quality(regressed, faces)
            rep = provenance_report(assignment, grid, quality, regressed, scores, faces, 0.4)
            assert rep.faces_matched_cpbb_post_nms <= rep.faces_matched_cpbb
            assert 0.0 <= rep.frac_cpbb_from_matched <= 1.0
            assert 0.0 <= rep.frac_hq_unmatched <= 1.0
            assert np.all(np.diff(rep.iou_cdf) >= 0)
            assert np.all((rep.iou_cdf >= 0) & (rep.iou_cdf <= 1))

    def test_csv_rendering_one_row_per_field(self):
        grid, faces, regressed, scores, assignment, quality = hand_fixture()
        rep = provenance_report(assignment, grid, quality, regressed, scores, faces, 0.5)
        text = provenance_csv(rep)
        lines = text.splitlines()
        assert lines[0] == "field,value"
        fields = dict(line.split(",", 1) for line in lines[1:])
        assert fields["n_cpbb"] == "4"
        assert float(fields["frac_cpbb_from_matched"]) == pytest.approx(0.5)
        assert fields["faces_matched_cpbb_post_nms"] == "0"
        cdf = [float(v) for v in fields["iou_cdf"].split()]
        np.testing.assert_allclose(cdf, [10 / 11, 1.0])

    def test_combine_reports_pools_counts(self):
        """Two different reports pool to the sum of every count and the sorted union of their CDFs."""
        grid, faces, regressed, scores, assignment, quality = hand_fixture()
        rep = provenance_report(assignment, grid, quality, regressed, scores, faces, 0.5)
        counts = [f.name for f in dataclasses.fields(ProvenanceReport) if f.name != "iou_cdf"]
        # Each count of `other` is a distinct power of ten, so a count taken from the wrong field shows.
        other = ProvenanceReport(**{name: 10 ** (k + 1) for k, name in enumerate(counts)}, iou_cdf=np.array([0.4, 0.95]))
        pooled = combine_reports([rep, other])
        assert len(counts) == 8
        for name in counts:
            assert getattr(pooled, name) == getattr(rep, name) + getattr(other, name), name
        assert pooled.iou_cdf.tolist() == sorted(rep.iou_cdf.tolist() + [0.4, 0.95])
