"""Noisy mining and the simulated losses on rows, against the per-anchor pipeline they replace.

`run_simulation` mines each iteration on its rows (the anchors that meet a
face, plus the unpulled anchors that jitter can carry onto one) and sums
the losses over those rows plus one known term for every other anchor. The
dense reference below regresses, compensates, scores and sums over every
anchor with the public functions, and every figure must agree bit for bit.
"""

import sys
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hambox import simulator
from hambox.anchors import default_hambox_config, generate_anchors, grid_overlaps
from hambox.assignment import (
    BACKGROUND,
    SOURCE_HAMBOX,
    SOURCE_NONE,
    SOURCE_STEP1,
    Assignment,
    MatchParams,
    match_first_step,
)
from hambox.cli import _assign_image
from hambox.geometry import Box, elementwise_iou, encode_boxes
from hambox.ingest import FaceAnnotation, ImageRecord, SimulatorSettings
from hambox.losses import LossParams, location_loss, regression_aware_cls_loss, sigmoid
from hambox.mining import AnchorQuality, CompensationParams, compensate, compute_quality, ignore_mask
from hambox.simulator import (
    RegressorModel,
    SimulationRecord,
    linear_ramp,
    mine_image,
    run_simulation,
    simulate_regression,
    synthetic_dataset,
)
from hambox.stats import combine_reports, provenance_report

from .test_cli import run_child
from .test_lattice import assign_cases, dense_block, lattice_cases


def dense_image(grid, faces, model, t, stream, match, comp, loss, scale, bias):
    """One image and iteration over every anchor: the per-anchor arrays, the record's terms and the probabilities."""
    first = match_first_step(grid, faces, match)
    regressed = simulate_regression(grid, faces, model, t, stream)
    assigned = compensate(first, grid, faces, regressed, comp)
    quality = compute_quality(regressed, faces)
    ignore = ignore_mask(assigned, quality)
    probs = sigmoid(scale * quality.F + bias)
    cls = regression_aware_cls_loss(probs, assigned, quality, ignore, loss)
    pos = assigned.positive
    deltas = np.full(regressed.shape, np.nan)
    deltas[pos] = encode_boxes(grid.boxes[pos], regressed[pos])
    loc = location_loss(deltas, assigned, loss)
    com = assigned.source == SOURCE_HAMBOX
    terms = (
        cls.cls_compensated,
        cls.cls_normal,
        loc.loc_compensated,
        loc.loc_normal,
        int(com.sum()),
        float(np.sum(elementwise_iou(regressed[com], faces[assigned.face_of[com]]))),
        int(ignore.sum()),
    )
    return (first, assigned, regressed, quality, ignore, probs), terms


def dense_run(dataset, config, image_size, model, n_iters, match, comp, loss, scale, bias):
    """`run_simulation` with provenance, written over every anchor."""
    per_image, reports = [], []
    for i, record in enumerate(dataset):
        faces = record.face_boxes()
        grid = generate_anchors(config, *image_size)
        terms = []
        for t in range(n_iters):
            arrays, row = dense_image(grid, faces, model, t, i, match, comp, loss, scale, bias)
            terms.append(row)
        first, _, regressed, quality, _, probs = arrays
        reports.append(provenance_report(first, grid, quality, regressed, probs, faces, 0.5))
        per_image.append(terms)
    records = []
    for t in range(n_iters):
        c0, c1, l0, l1, n_com, iou_sum, n_ign = (sum(terms[t][k] for terms in per_image) for k in range(7))
        records.append(SimulationRecord(t, c0, c1, l0, l1, n_com, (iou_sum / n_com) if n_com else None, n_ign))
    return records, combine_reports(reports)


def assert_same_report(got, want):
    for name in want.__dataclass_fields__:
        a, b = getattr(got, name), getattr(want, name)
        assert np.array_equal(a, b), name


def assert_same_assignment(got: Assignment, want: Assignment):
    for name in ("face_of", "source", "matched_count"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert np.array_equal(got.targets, want.targets, equal_nan=True)


def spread(values, rows, n, fill):
    """An n-row array with `values` in `rows` and `fill` in every other row."""
    out = np.full((n,) + values.shape[1:], fill, dtype=values.dtype)
    out[rows] = values
    return out


def spread_assignment(assignment, rows, n):
    """`assignment` moved to `rows` of n rows; every other row is background with source none."""
    return Assignment(
        spread(assignment.face_of, rows, n, BACKGROUND),
        spread(assignment.targets, rows, n, np.nan),
        spread(assignment.source, rows, n, SOURCE_NONE),
        assignment.matched_count,
    )


def check_run(grid, faces, model, n_iters, match, comp, loss, scale, bias):
    dataset = [ImageRecord("a.jpg", tuple(FaceAnnotation(Box(*f)) for f in faces.tolist()))]
    faces = dataset[0].face_boxes()
    size = grid.image_size
    got, got_report = run_simulation(
        dataset, grid.config, comp, loss, model, n_iters, match, size, scale, bias, provenance=True
    )
    want, want_report = dense_run(dataset, grid.config, size, model, n_iters, match, comp, loss, scale, bias)
    assert got == want  # every float bit for bit
    assert_same_report(got_report, want_report)
    mined = list(mine_image(grid, faces, model, n_iters, 0, match, comp))
    n = len(grid)
    for it in mined:
        (first, assigned, regressed, quality, ignore, _), _ = dense_image(
            grid, faces, model, it.iteration, 0, match, comp, loss, scale, bias
        )
        assert np.array_equal(it.rows, np.unique(it.rows))
        assert np.array_equal(it.regressed, regressed[it.rows])
        # Spread to the grid, an anchor outside the rows is background with F = 0 and no ignore.
        assert_same_assignment(spread_assignment(it.first, it.rows, n), first)
        assert_same_assignment(spread_assignment(it.assigned, it.rows, n), assigned)
        assert np.array_equal(spread(it.quality.F, it.rows, n, 0.0), quality.F)
        assert np.array_equal(spread(it.ignore, it.rows, n, False), ignore)
    return mined


scorers = st.tuples(
    st.one_of(st.just(0.0), st.just(4.0), st.floats(-8.0, 8.0)),  # 0: a flat scorer
    st.one_of(st.just(-2.0), st.floats(-6.0, 3.0)),
)
losses = st.builds(LossParams, alpha=st.floats(0.05, 0.95), gamma=st.sampled_from([0.0, 1.0, 2.0, 3.5]))


class TestRowsEqualDense:
    @given(
        lattice_cases(),
        st.floats(0.0, 1.0),
        st.one_of(st.none(), st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))),
        st.one_of(st.just(0.0), st.floats(0.0, 0.3), st.floats(0.0, 3.0)),
        st.integers(0, 2**32 - 1),
        st.integers(1, 3),
        st.floats(0.0, 1.0),
        st.integers(1, 4),
        scorers,
        losses,
    )
    @settings(max_examples=120, deadline=None)
    def test_records_report_and_iterations(self, case, q, ramp, sigma, seed, n_iters, T, K, scorer, loss):
        grid, faces = case
        ramp = None if ramp is None else linear_ramp(*ramp, n_iters)
        model = RegressorModel(q=q, noise_sigma=sigma, seed=seed, quality_ramp=ramp)
        check_run(grid, faces, model, n_iters, MatchParams(), CompensationParams(T=T, K=K), loss, *scorer)

    def test_windows_over_limit_make_every_anchor_a_row(self):
        """Jitter of many cells: the windows would hold more than the grid, so every anchor is a row."""
        grid = generate_anchors(default_hambox_config(), 96, 80)
        faces = np.array([[10.0, 12.0, 30.0, 34.0], [40.0, 20.0, 75.0, 60.0], [5.0, 50.0, 14.0, 58.0]])
        model = RegressorModel(q=0.6, noise_sigma=2.5, seed=11)
        comp = CompensationParams(T=0.3, K=4)
        mined = check_run(grid, faces, model, 2, MatchParams(), comp, LossParams(), 4.0, -2.0)
        assert all(it.rows.size == len(grid) for it in mined)

    def test_flat_scorer_and_windowed_rows(self):
        """score_scale 0: the report's NMS reads the anchors outside the rows, and windows add rows."""
        grid = generate_anchors(default_hambox_config(), 160, 128)
        faces = np.array([[20.0, 22.0, 44.0, 50.0], [90.0, 30.0, 110.0, 52.0]])
        model = RegressorModel(q=0.8, noise_sigma=0.1, seed=5, quality_ramp=linear_ramp(0.2, 0.95, 3))
        mined = check_run(grid, faces, model, 3, MatchParams(), CompensationParams(T=0.5), LossParams(), 0.0, -2.0)
        pulled = np.unique(grid_overlaps(grid, faces).box).size
        assert all(pulled < it.rows.size < len(grid) for it in mined)


@given(lattice_cases(), st.booleans(), st.floats(0.0, 1.0), st.integers(0, 50), st.floats(0.0, 1.0), st.integers(1, 4))
@settings(max_examples=80, deadline=None)
def test_noise_free_rows_are_the_pulled_anchors(case, lattice, q, stream, T, K):
    """Without noise every iteration's rows are the anchors that meet a face, on any grid."""
    grid, faces = case
    if not lattice:  # the same boxes, as a hand-built grid
        grid = replace(grid, lattice=False)
    model = RegressorModel(q=q)
    want = np.unique(grid_overlaps(grid, faces).box)
    for it in mine_image(grid, faces, model, 2, stream, MatchParams(), CompensationParams(T=T, K=K)):
        assert np.array_equal(it.rows, want)


# The child caps its address space at 2 GB, as `test_cli`'s far-face child
# does, so a per-anchor array of the far face's grid fails fast.
FAR_FACE_MINE = """\
    import resource, tracemalloc
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
    import numpy as np
    from hambox.anchors import cover_image_size, default_hambox_config, generate_anchors
    from hambox.assignment import MatchParams
    from hambox.mining import CompensationParams
    from hambox.simulator import RegressorModel, mine_image
    config = default_hambox_config()
    faces = np.array([[10_000_000.0, 10.0, 10_000_008.0, 18.0]])
    grid = generate_anchors(config, *cover_image_size(faces, config))
    args = (grid, faces, RegressorModel(q=0.9), 1, 0, MatchParams(), CompensationParams())
    next(mine_image(*args))  # warm caches
    tracemalloc.start()
    it = next(mine_image(*args))
    print(len(grid), tracemalloc.get_traced_memory()[1], it.rows.size, int(it.assigned.positive.sum()))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
def test_far_face_mines_without_the_grid(tmp_path):
    """One face at x = 10,000,000: noise-free mining keeps nothing of its cover grid.

    Its 271,492,861 anchors would take 8.7 GB as per-anchor boxes; the 52
    rows peaked at about 0.03 MB of tracemalloc when this was written.
    """
    proc = run_child(tmp_path, FAR_FACE_MINE, [])
    assert "Traceback" not in proc.stderr, proc.stderr
    n, peak, rows, positives = map(int, proc.stdout.split())
    assert n > 2e8
    assert peak < 1 << 20, peak
    assert 0 < rows < 100 and positives > 0


@given(assign_cases(), st.one_of(st.floats(0.0, 0.3), st.floats(0.0, 3.0)), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_noisy_assign_rows_equal_dense_functions(case, sigma, seed):
    """Noisy `assign --strategy hambox` on rows writes the block of the dense public functions."""
    record, cfg, stream = case
    cfg = replace(cfg, strategy="hambox", simulator=SimulatorSettings(q=cfg.simulator.q, noise_sigma=sigma, seed=seed))
    model = RegressorModel.from_settings(cfg.simulator)
    assert _assign_image(record, cfg, model, stream) == dense_block(record, cfg, stream)


def test_outside_background_term_equals_dense_loss():
    """The background sum on rows, with the other ~34k anchors at F = 0, equals the dense sum bit for bit."""
    grid = generate_anchors(default_hambox_config(), 640, 640)
    n = len(grid)
    rng = np.random.default_rng(4)
    rows = np.sort(rng.choice(n, 700, replace=False))
    F = np.zeros(n)
    F[rows] = np.where(rng.random(rows.size) < 0.5, rng.random(rows.size), 0.0)
    source = np.zeros(n, dtype=np.uint8)
    source[rows] = rng.choice([SOURCE_NONE, SOURCE_STEP1, SOURCE_HAMBOX], size=rows.size, p=[0.7, 0.2, 0.1])
    face_of = np.where(source == SOURCE_NONE, BACKGROUND, 0)
    assigned = Assignment(face_of, np.zeros((n, 4)), source, np.array([int((face_of == 0).sum())]))
    ignore = (F >= 0.5) & (face_of == BACKGROUND)
    quality = AnchorQuality(F)
    assert n - rows.size > 33_000
    for scale, bias in [(4.0, -2.0), (0.0, 0.0), (-3.0, 1.5)] + [(4.0, b) for b in rng.uniform(-9.0, 4.0, 40)]:
        for params in (LossParams(), LossParams(alpha=0.6, gamma=3.5), LossParams(gamma=0.0)):
            probs = sigmoid(scale * F + bias)
            want = regression_aware_cls_loss(probs, assigned, quality, ignore, params)
            row = Assignment(face_of[rows], assigned.targets[rows], source[rows], assigned.matched_count)
            outside = (rows, n, sigmoid(scale * np.zeros(1) + bias))
            got = regression_aware_cls_loss(
                probs[rows], row, AnchorQuality(F[rows]), ignore[rows], params, outside=outside
            )
            assert (got.cls_compensated, got.cls_normal) == (want.cls_compensated, want.cls_normal)
            assert (got.n_com, got.n_norm) == (want.n_com, want.n_norm)


def test_noisy_simulation_memory_is_rows_not_anchors():
    """4 images x 8 noisy iterations on 640 x 640 grids, with provenance: 3.7 MB measured, 11.3 MB before."""
    dataset = synthetic_dataset(4, seed=1003)
    model = RegressorModel(noise_sigma=0.02, seed=1003, quality_ramp=linear_ramp(0.0, 0.95, 8))
    args = (dataset, default_hambox_config(), CompensationParams(), LossParams(), model, 8, MatchParams(), (640, 640))
    run_simulation(*args, provenance=True)  # warm caches and imports
    tracemalloc.start()
    try:
        run_simulation(*args, provenance=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6, peak


def test_provenance_adds_no_per_anchor_array():
    """2 noise-free iterations on 1.33M anchors: the report reads the rows, so provenance keeps the loss pool's peak.

    The peaks measured 0.81 MB both with and without provenance; with the
    report's arrays spread back to the grid, it was 124.4 MB.
    """
    faces = (FaceAnnotation(Box(100.0, 120.0, 140.0, 166.0)), FaceAnnotation(Box(2000.0, 1500.0, 2090.0, 1600.0)))
    config = default_hambox_config()
    assert len(generate_anchors(config, 4000, 4000)) > 1_000_000
    args = ([ImageRecord("a.jpg", faces)], config, CompensationParams(), LossParams(), RegressorModel(), 2)
    peaks = []
    for provenance in (False, True):
        run_simulation(*args, image_size=(4000, 4000), provenance=provenance)  # warm caches and imports
        tracemalloc.start()
        try:
            _, report = run_simulation(*args, image_size=(4000, 4000), provenance=provenance)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert report.n_cpbb > 0
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_far_face_loss_builds_no_background_pool():
    """One face at x = 10,000,000, 271M anchors: the loss sums its background pool without building it.

    The peak measured 0.29 MB; a pool of one float per anchor takes 2.02 GiB.
    """
    faces = (FaceAnnotation(Box(1e7, 10.0, 1e7 + 8.0, 18.0)),)
    dataset = [ImageRecord("far/a.jpg", faces)]
    args = (dataset, default_hambox_config(), CompensationParams(), LossParams(), RegressorModel(), 1)
    run_simulation(*args, provenance=True)  # warm caches and imports
    tracemalloc.start()
    try:
        records, report = run_simulation(*args, provenance=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert records[0].cls_normal > 0.0 and report.n_faces == 1
    assert peak < 16 << 20


def spy_run(dataset, model, size, scale):
    """`run_simulation` with provenance over 1 iteration, and how often it called `simulate_regression`."""
    args = (dataset, default_hambox_config(), CompensationParams(), LossParams(), model, 1, MatchParams(), size)
    with mock.patch.object(simulator, "simulate_regression", wraps=simulate_regression) as spy:
        run_simulation(*args, scale, provenance=True)
    return spy.call_count


@pytest.mark.parametrize("scale, whole_grid", [(4.0, False), (0.0, True), (-3.0, True), (1e-300, True)])
def test_only_a_scorer_that_does_not_rank_f0_lower_regresses_the_grid(scale, whole_grid):
    """The report regresses an image's whole grid only when an anchor with F = 0 scores as high as a correct box.

    A scale of 0 or below does not rank F = 0 lower, and neither does one
    so small that scale x F rounds away.
    """
    dataset = synthetic_dataset(2, seed=4)
    grid = generate_anchors(default_hambox_config(), 640, 640)
    for record in dataset:  # every image has a correct box
        faces = record.face_boxes()
        assert compute_quality(simulate_regression(grid, faces, RegressorModel(), 0), faces).F.max() > 0.5
    assert spy_run(dataset, RegressorModel(), (640, 640), scale) == (len(dataset) if whole_grid else 0)


def test_a_flat_scorer_with_every_anchor_a_row_reads_the_rows():
    """Jitter of many cells on 160 x 160 images makes every anchor a row, so no box lies outside them."""
    dataset = synthetic_dataset(2, seed=4, image_size=160)
    grid = generate_anchors(default_hambox_config(), 160, 160)
    model = RegressorModel(q=1.0, noise_sigma=1.0)
    for i, record in enumerate(dataset):
        it = next(mine_image(grid, record.face_boxes(), model, 1, i, MatchParams(), CompensationParams()))
        assert it.rows.size == len(grid) and it.quality.F.max() > 0.5
    assert spy_run(dataset, model, (160, 160), 0.0) == 0
