"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. Criterion 9 needs the
WIDER FACE training ground-truth file and is skipped when it is absent
(point the WIDER_FACE_TRAIN_GT environment variable at
``wider_face_train_bbx_gt.txt`` to enable it).
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from hambox.anchors import AnchorConfig, AnchorGrid, default_hambox_config
from hambox.assignment import (
    BACKGROUND,
    SOURCE_HAMBOX,
    SOURCE_NONE,
    SOURCE_STEP1,
    Assignment,
    MatchParams,
    match_first_step,
)
from hambox.cli import main
from hambox.geometry import decode_boxes, encode_boxes, iou, nms, pairwise_iou
from hambox.losses import (
    LossParams,
    cls_loss_grad,
    regression_aware_cls_loss,
    sigmoid,
)
from hambox.mining import HIGH_QUALITY_IOU, AnchorQuality, CompensationParams, compensate, compute_quality
from hambox.simulator import RegressorModel, linear_ramp, run_simulation, synthetic_dataset
from hambox.stats import dataset_census, provenance_report

from .oracles import (
    central_difference,
    compensate_reference,
    focal_reference,
    iou_reference,
    nms_reference,
    random_boxes,
    raster_iou,
)

WIDER_CANDIDATES = (
    os.environ.get("WIDER_FACE_TRAIN_GT", ""),
    "/root/data/wider_face_train_bbx_gt.txt",
    "/data/wider_face/wider_face_train_bbx_gt.txt",
    str(Path.home() / "datasets/wider_face/wider_face_train_bbx_gt.txt"),
)


def _report(criterion: int, detail: str, passed: bool = True) -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    if not passed:
        pytest.fail(line)


def test_criterion_01_geometry_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    # Coordinates on the 0.25-px lattice make the counting oracle exact.
    a = random_boxes(rng, 10_000, hi=30.0, min_side=1.0, max_side=12.0, grid=0.25)
    b = random_boxes(rng, 10_000, hi=30.0, min_side=1.0, max_side=12.0, grid=0.25)
    worst_closed = 0.0
    worst_raster = 0.0
    for i in range(10_000):
        got = iou(a[i], b[i])
        want = iou_reference(a[i], b[i])
        denom = max(abs(want), 1e-12)
        worst_closed = max(worst_closed, abs(got - want) / denom)
        worst_raster = max(worst_raster, abs(got - raster_iou(a[i], b[i])))
    elapsed = time.perf_counter() - start
    assert worst_closed < 1e-9, f"closed-form disagreement {worst_closed:.2e}"
    assert worst_raster < 1e-2, f"raster disagreement {worst_raster:.2e}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _report(1, f"10,000 pairs: closed-form {worst_closed:.1e}, raster {worst_raster:.1e}, {elapsed:.1f}s")


def test_criterion_02_roundtrip():
    rng = np.random.default_rng(1002)
    anchors = random_boxes(rng, 10_000, hi=200.0, min_side=0.5, max_side=80.0)
    targets = random_boxes(rng, 10_000, hi=200.0, min_side=0.5, max_side=80.0)
    back = decode_boxes(anchors, encode_boxes(anchors, targets))
    rel = np.abs(back - targets) / np.maximum(np.abs(targets), 1e-9)
    worst = float(rel.max())
    assert worst < 1e-6, f"roundtrip error {worst:.2e}"
    _report(2, f"10,000 pairs: max componentwise relative error {worst:.1e}")


def _random_mining_instance(rng):
    n_anchors = int(rng.integers(8, 513))
    n_faces = int(rng.integers(1, 9))
    anchors = random_boxes(rng, n_anchors, hi=160.0, min_side=3.0, max_side=50.0)
    grid = AnchorGrid(
        boxes=anchors,
        level_of=np.zeros(n_anchors, dtype=np.int32),
        cell_of=np.zeros((n_anchors, 2), dtype=np.int32),
        config=AnchorConfig(levels=((8, 16),)),
        image_size=(160, 160),
    )
    faces = random_boxes(rng, n_faces, hi=160.0, min_side=5.0, max_side=50.0)
    quality = float(rng.uniform(0.3, 1.0))
    ious = pairwise_iou(anchors, faces)
    best = np.argmax(ious, axis=1)
    regressed = anchors + quality * (faces[best] - anchors)
    params = CompensationParams(
        T=float(rng.choice([0.5, 0.7, 0.8, 0.9])), K=int(rng.integers(1, 8))
    )
    return grid, faces, regressed, params


def test_criterion_03_and_04_compensation_equivalence_and_invariants():
    start = time.perf_counter()
    rng = np.random.default_rng(1003)
    source_name = {SOURCE_NONE: "none", SOURCE_STEP1: "step1", SOURCE_HAMBOX: "hambox"}
    for instance in range(1000):
        grid, faces, regressed, params = _random_mining_instance(rng)
        first = match_first_step(grid, faces, MatchParams())
        got = compensate(first, grid, faces, regressed, params)
        want_face_of, want_sources, want_targets = compensate_reference(
            first.face_of.tolist(), grid.boxes, faces, regressed, params.K, params.T
        )
        # Criterion 3: labels, sources, targets identical to brute force.
        assert got.face_of.tolist() == want_face_of, f"labels diverge on instance {instance}"
        assert [source_name[s] for s in got.source] == want_sources, (
            f"sources diverge on instance {instance}"
        )
        for i, want in enumerate(want_targets):
            if want is None:
                assert np.all(np.isnan(got.targets[i]))
            else:
                np.testing.assert_allclose(got.targets[i], want, rtol=1e-12, atol=1e-12)
        # Criterion 4: invariants on the same instance.
        comp = got.source == SOURCE_HAMBOX
        assert np.all(first.face_of[comp] == BACKGROUND), "compensated anchor was not background"
        for a in np.flatnonzero(comp):
            assert iou(regressed[a], faces[got.face_of[a]]) > params.T, "admission at or below T"
        for fi in range(faces.shape[0]):
            d = int(first.matched_count[fi])
            added = int(np.count_nonzero(comp & (got.face_of == fi)))
            assert added <= max(0, params.K - d), "budget exceeded"
            if d >= params.K:
                assert added == 0, "compensation fired at D >= K"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _report(3, f"1,000 instances identical to brute-force reference, {elapsed:.1f}s")
    _report(4, "background provenance, admission > T, budget, and D >= K guard held on all instances")


def test_criterion_05_gradient_check():
    rng = np.random.default_rng(1005)
    worst = 0.0
    checked_ignored = 0
    for _ in range(100):
        n = int(rng.integers(10, 40))
        source = rng.choice(
            [SOURCE_NONE, SOURCE_STEP1, SOURCE_HAMBOX], size=n, p=[0.5, 0.3, 0.2]
        ).astype(np.uint8)
        source[0] = SOURCE_HAMBOX  # nonempty compensated pool
        source[1] = SOURCE_NONE
        face_of = np.where(source == SOURCE_NONE, BACKGROUND, rng.integers(0, 3, size=n))
        assignment = Assignment(
            face_of=face_of.astype(np.int64),
            targets=np.zeros((n, 4)),
            source=source,
            matched_count=np.bincount(face_of[face_of >= 0], minlength=3).astype(np.int64),
        )
        f = rng.uniform(0.0, 1.0, size=n)
        f[1] = 0.9  # nonempty ignore set
        quality = AnchorQuality(F=f)
        ignore = (source == SOURCE_NONE) & (quality.F >= HIGH_QUALITY_IOU)
        assert np.any(ignore)
        params = LossParams(
            alpha=float(rng.uniform(0.15, 0.85)), gamma=float(rng.choice([0.0, 1.0, 2.0]))
        )
        logits = rng.uniform(-3.0, 3.0, size=n)
        analytic = cls_loss_grad(logits, assignment, quality, ignore, params)
        assert np.all(analytic[ignore] == 0.0), "ignored anchor gradient not exactly zero"
        checked_ignored += int(ignore.sum())

        def loss_at(z):
            return regression_aware_cls_loss(
                np.asarray(sigmoid(z)), assignment, quality, ignore, params
            ).cls_total

        fd = central_difference(loss_at, logits, h=1e-4)
        rel = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-6)
        worst = max(worst, float(rel.max()))
    assert worst < 1e-4, f"max relative error {worst:.2e}"
    _report(5, f"100 configs: max relative error {worst:.1e}; {checked_ignored} ignored gradients exactly 0")


def test_criterion_06_loss_reductions():
    rng = np.random.default_rng(1006)
    n = 60
    source = np.where(rng.uniform(size=n) < 0.25, SOURCE_STEP1, SOURCE_NONE).astype(np.uint8)
    face_of = np.where(source == SOURCE_STEP1, 0, BACKGROUND).astype(np.int64)
    assignment = Assignment(
        face_of=face_of,
        targets=np.zeros((n, 4)),
        source=source,
        matched_count=np.bincount(face_of[face_of >= 0], minlength=1).astype(np.int64),
    )
    f = rng.uniform(0.0, 0.499, size=n)
    quality = AnchorQuality(F=f)
    probs = rng.uniform(0.02, 0.98, size=n)
    params = LossParams()
    got = regression_aware_cls_loss(probs, assignment, quality, np.zeros(n, dtype=bool), params)
    n_norm = int(np.count_nonzero(source == SOURCE_STEP1))
    plain = (
        sum(focal_reference(probs[i], 1, params.alpha, params.gamma) for i in np.flatnonzero(source == SOURCE_STEP1))
        + sum(focal_reference(probs[i], 0, params.alpha, params.gamma) for i in np.flatnonzero(source == SOURCE_NONE))
    ) / n_norm
    diff = abs(got.cls_total - plain)
    assert got.n_com == 0 and got.cls_compensated == 0.0
    assert diff < 1e-12, f"plain-focal reduction off by {diff:.2e}"

    # Edge cases: both pools empty.
    empty = Assignment(
        face_of=np.full(4, BACKGROUND, dtype=np.int64),
        targets=np.full((4, 4), np.nan),
        source=np.full(4, SOURCE_NONE, dtype=np.uint8),
        matched_count=np.zeros(0, dtype=np.int64),
    )
    q0 = AnchorQuality(F=np.zeros(4))
    out = regression_aware_cls_loss([0.5] * 4, empty, q0, np.zeros(4, dtype=bool), params)
    assert out.cls_total == 0.0 and np.isfinite(out.cls_total)
    assert out.n_com == 0 and out.n_norm == 0
    _report(6, f"plain focal reduction to {diff:.1e}; empty pools return finite zeros")


def test_criterion_07_nms_equivalence():
    rng = np.random.default_rng(1007)
    for trial in range(500):
        n = int(rng.integers(1, 120))
        boxes = random_boxes(rng, n, hi=60.0, min_side=1.0, max_side=25.0)
        scores = rng.uniform(0.0, 1.0, size=n)
        if trial % 7 == 0:
            scores = np.round(scores, 1)  # force score ties
        threshold = float(rng.uniform(0.05, 0.95))
        got = nms(boxes, scores, threshold)
        want = nms_reference(boxes, scores, threshold)
        assert got == want, f"kept sets diverge on trial {trial}"
    _report(7, "500 random sets identical to the quadratic reference")


def test_criterion_08_simulator_narrative():
    dataset = synthetic_dataset(20, seed=2008, image_size=320)
    model = RegressorModel(
        q=0.95, noise_sigma=0.0, seed=2008, quality_ramp=linear_ramp(0.0, 0.95, 50)
    )
    records, _ = run_simulation(
        dataset,
        default_hambox_config(),
        CompensationParams(T=0.8, K=3),
        LossParams(),
        model,
        50,
        image_size=(320, 320),
    )
    early = [r.n_compensated for r in records[:5]]
    late = [r.n_compensated for r in records[-5:]]
    assert all(n == 0 for n in early), f"early compensation: {early}"
    assert all(n > 0 for n in late), f"no late compensation: {late}"
    means = [r.mean_compensated_iou for r in records if r.n_compensated > 0]
    assert means, "no compensated anchors at any iteration"
    assert min(means) >= 0.8, f"mean compensated IoU fell to {min(means):.3f}"
    _report(
        8,
        f"ramp 0->0.95: first-5 n_com {early}, last-5 n_com {late}, min mean IoU {min(means):.3f}",
    )


def _wider_path():
    for cand in WIDER_CANDIDATES:
        if cand and Path(cand).is_file():
            return cand
    return None


@pytest.mark.skipif(_wider_path() is None, reason="WIDER FACE train annotations not available")
def test_criterion_09_dataset_statistics():
    from hambox.ingest import load_wider_annotations

    start = time.perf_counter()
    records = load_wider_annotations(_wider_path())
    base = default_hambox_config()
    census = dataset_census(records, base, 0.35, threads=4)
    frac = census.fraction_faces_matched
    assert frac > 0.93, f"matched fraction {frac:.4f} <= 0.93"

    # Three scales per level, expressed as three single-scale configs whose
    # per-face matched flags are OR-ed.
    matched_any = None
    total = census.total_faces
    for mult in (1.0, 2 ** (1 / 3), 2 ** (2 / 3)):
        cfg = AnchorConfig(base.levels, scale_ratio=mult, aspect_ratio=1.0)
        flags = _per_face_matched_flags(records, cfg, 0.35)
        matched_any = flags if matched_any is None else (matched_any | flags)
    frac3 = float(np.count_nonzero(matched_any)) / total
    assert frac3 >= 0.97, f"multi-scale matched fraction {frac3:.4f} < 0.97"

    level0 = census.matched_faces_per_level[0] / census.matched_faces
    assert 0.30 <= level0 <= 0.50, f"stride-4 fraction {level0:.3f} outside 0.40 +/- 0.10"
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"took {elapsed:.0f}s"
    _report(
        9,
        f"matched {frac:.4f} (> 0.93), 3-scale {frac3:.4f} (>= 0.97), stride-4 {level0:.3f}, {elapsed:.0f}s",
    )


def _per_face_matched_flags(records, config, threshold):
    from concurrent.futures import ThreadPoolExecutor

    from hambox.stats import _image_census, valid_face_boxes

    face_sets = [valid_face_boxes(rec) for rec in records]

    def work(faces):
        counts, _ = _image_census(faces, config, threshold, None)
        return counts > 0

    with ThreadPoolExecutor(max_workers=4) as pool:
        flags = list(pool.map(work, face_sets))
    return np.concatenate(flags) if flags else np.zeros(0, dtype=bool)


def test_criterion_10_determinism_across_threads(tmp_path):
    gt = tmp_path / "gt.txt"
    gt.write_text(
        "a.jpg\n2\n40 40 6 6 0 0 0 0 0 0\n200 100 14 14 0 0 0 0 0 0\n"
        "b.jpg\n1\n100 150 28 28 0 0 0 0 0 0\n"
    )
    outputs = {}
    for threads in ("1", "4"):
        sim_out = tmp_path / f"sim{threads}"
        asg_out = tmp_path / f"asg{threads}"
        assert (
            main(
                ["--out", str(sim_out), "--seed", "77", "--threads", threads,
                 "simulate", "--synthetic-images", "6", "--iters", "4", "--provenance"]
            )
            == 0
        )
        assert (
            main(
                ["--out", str(asg_out), "--seed", "77", "--threads", threads,
                 "assign", "--annotations", str(gt), "--strategy", "hambox", "--sim-quality", "0.95"]
            )
            == 0
        )
        outputs[threads] = (
            (sim_out / "simulation.csv").read_bytes(),
            (asg_out / "assign.csv").read_bytes(),
            (sim_out / "provenance.csv").read_bytes(),
        )
    assert outputs["1"][0] == outputs["4"][0], "simulate CSV differs across thread counts"
    assert outputs["1"][1] == outputs["4"][1], "assign CSV differs across thread counts"
    assert outputs["1"][2] == outputs["4"][2], "provenance CSV differs across thread counts"
    _report(10, "simulate, provenance and assign CSVs byte-identical with 1 and 4 threads")


def test_criterion_11_provenance_pipeline_on_prediction_dump():
    # Published full-scale figures need a trained detector and are out of
    # reach here; the same quantities are computed from a simulated
    # prediction dump and recounted independently.
    dataset = synthetic_dataset(6, seed=1011, image_size=320)
    from hambox.anchors import generate_anchors

    cfg = default_hambox_config()
    grid = generate_anchors(cfg, 320, 320)
    model = RegressorModel(q=0.85, noise_sigma=0.02, seed=1011)
    for stream, rec in enumerate(dataset):
        faces = rec.face_boxes()
        from hambox.simulator import simulate_regression

        regressed = simulate_regression(grid, faces, model, iteration=0, stream=stream)
        assignment = match_first_step(grid, faces, MatchParams())
        quality = compute_quality(regressed, faces)
        scores = np.asarray(sigmoid(4.0 * quality.F - 2.0))
        rep = provenance_report(assignment, grid, quality, regressed, scores, faces, 0.5)

        # Independent recount of the headline fields.
        step1 = assignment.source == SOURCE_STEP1
        n_cpbb = n_cpbb_matched = n_hq = n_hq_un = 0
        for i in range(len(grid)):
            best = max((iou_reference(regressed[i], f) for f in faces), default=0.0)
            if best > 0.5:
                n_cpbb += 1
                if step1[i]:
                    n_cpbb_matched += 1
            if best >= 0.5:
                n_hq += 1
                if assignment.face_of[i] == BACKGROUND:
                    n_hq_un += 1
        assert rep.n_cpbb == n_cpbb
        assert rep.n_cpbb_from_matched == n_cpbb_matched
        assert rep.n_hq == n_hq
        assert rep.n_hq_unmatched == n_hq_un
        assert rep.faces_matched_cpbb_post_nms <= rep.faces_matched_cpbb
        assert np.all(np.diff(rep.iou_cdf) >= 0)
    _report(
        11,
        "full-scale AP/figure values are not desk-reproducible; provenance quantities "
        "recomputed from simulated prediction dumps match independent recounts",
    )
