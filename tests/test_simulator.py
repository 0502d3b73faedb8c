import inspect

import numpy as np
import pytest

from hambox.anchors import AnchorConfig, default_hambox_config, generate_anchors
from hambox.assignment import SOURCE_HAMBOX, MatchParams, match_first_step
from hambox.geometry import elementwise_iou, pairwise_iou
from hambox.ingest import SimulatorSettings
from hambox.losses import LossParams
from hambox.mining import CompensationParams, compensate, compute_quality, ignore_mask
from hambox.simulator import (
    RegressorModel,
    linear_ramp,
    run_simulation,
    simulate_regression,
    synthetic_dataset,
)


def two_level_grid(image=128):
    return generate_anchors(AnchorConfig(levels=((8, 16), (16, 32)), scale_ratio=0.68), image, image)


class TestRegressorModel:
    def test_defaults_are_the_settings_defaults(self):
        model, sim = RegressorModel(), SimulatorSettings()
        assert (model.q, model.noise_sigma, model.seed) == (sim.q, sim.noise_sigma, sim.seed)
        defaults = inspect.signature(run_simulation).parameters
        assert defaults["scorer_scale"].default == sim.score_scale
        assert defaults["scorer_bias"].default == sim.score_bias

    def test_from_settings_takes_the_section_and_a_ramp(self):
        sim = SimulatorSettings(q=0.7, noise_sigma=0.2, seed=3, quality_ramp=(0.1, 0.9))
        ramp = linear_ramp(0.1, 0.9, 5)
        model = RegressorModel.from_settings(sim, ramp)
        assert (model.q, model.noise_sigma, model.seed, model.quality_ramp) == (0.7, 0.2, 3, ramp)
        assert RegressorModel.from_settings(sim).quality_ramp is None

    @pytest.mark.parametrize(
        "kwargs, message", [({"seed": -1}, "seed"), ({"q": 1.5}, "q must"), ({"noise_sigma": -0.1}, "noise_sigma")]
    )
    def test_bad_settings_raise_at_construction(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            RegressorModel(**kwargs)


class TestSimulateRegression:
    def test_q_one_regresses_onto_best_face(self):
        grid = two_level_grid()
        faces = np.array([[20.0, 20.0, 50.0, 50.0], [80.0, 70.0, 110.0, 100.0]])
        model = RegressorModel(q=1.0, noise_sigma=0.0, seed=1)
        out = simulate_regression(grid, faces, model, iteration=0)
        ious = pairwise_iou(grid.boxes, faces)
        overlap = ious.max(axis=1) > 0
        best = np.argmax(ious, axis=1)
        np.testing.assert_allclose(out[overlap], faces[best[overlap]])
        np.testing.assert_allclose(out[~overlap], grid.boxes[~overlap])

    def test_q_zero_returns_anchors(self):
        grid = two_level_grid()
        faces = np.array([[20.0, 20.0, 50.0, 50.0]])
        model = RegressorModel(q=0.0, noise_sigma=0.0, seed=1)
        out = simulate_regression(grid, faces, model, iteration=3)
        np.testing.assert_allclose(out, grid.boxes)

    def test_fixed_seed_bit_identical(self):
        grid = two_level_grid()
        faces = np.array([[20.0, 20.0, 50.0, 50.0]])
        model = RegressorModel(q=0.5, noise_sigma=0.1, seed=7)
        a = simulate_regression(grid, faces, model, iteration=2, stream=4)
        b = simulate_regression(grid, faces, model, iteration=2, stream=4)
        np.testing.assert_array_equal(a, b)

    def test_iteration_and_stream_change_noise(self):
        grid = two_level_grid()
        faces = np.array([[20.0, 20.0, 50.0, 50.0]])
        model = RegressorModel(q=0.5, noise_sigma=0.1, seed=7)
        base = simulate_regression(grid, faces, model, iteration=2, stream=4)
        assert not np.array_equal(base, simulate_regression(grid, faces, model, 3, stream=4))
        assert not np.array_equal(base, simulate_regression(grid, faces, model, 2, stream=5))

    def test_nan_sigma_draws_no_noise(self):
        """A NaN sigma passes the settings' `noise_sigma >= 0` check, and means no noise, not NaN boxes."""
        grid = two_level_grid()
        faces = np.array([[20.0, 20.0, 50.0, 50.0]])
        got = simulate_regression(grid, faces, RegressorModel(q=0.5, noise_sigma=float("nan"), seed=7), 2)
        np.testing.assert_array_equal(got, simulate_regression(grid, faces, RegressorModel(q=0.5, seed=7), 2))

    def test_no_faces_jitters_around_anchors(self):
        grid = two_level_grid()
        model = RegressorModel(q=1.0, noise_sigma=0.0, seed=1)
        out = simulate_regression(grid, np.zeros((0, 4)), model, iteration=0)
        np.testing.assert_allclose(out, grid.boxes)

    def test_boxes_stay_non_degenerate_under_noise(self):
        grid = two_level_grid()
        faces = np.array([[20.0, 20.0, 50.0, 50.0]])
        model = RegressorModel(q=0.5, noise_sigma=2.0, seed=3)
        out = simulate_regression(grid, faces, model, iteration=0)
        assert np.all(out[:, 2] > out[:, 0])
        assert np.all(out[:, 3] > out[:, 1])

    def test_quality_ramp_overrides_q(self):
        grid = two_level_grid()
        faces = np.array([[20.0, 20.0, 50.0, 50.0]])
        ramp = linear_ramp(0.0, 1.0, 11)
        model = RegressorModel(q=0.5, noise_sigma=0.0, seed=1, quality_ramp=ramp)
        out0 = simulate_regression(grid, faces, model, iteration=0)
        np.testing.assert_allclose(out0, grid.boxes)  # ramp starts at 0
        out10 = simulate_regression(grid, faces, model, iteration=10)
        ious = pairwise_iou(grid.boxes, faces)
        overlap = ious[:, 0] > 0
        np.testing.assert_allclose(out10[overlap], np.tile(faces[0], (int(overlap.sum()), 1)))


class TestSyntheticDataset:
    def test_deterministic(self):
        a = synthetic_dataset(5, seed=11)
        b = synthetic_dataset(5, seed=11)
        assert [r.path for r in a] == [r.path for r in b]
        for ra, rb in zip(a, b):
            np.testing.assert_array_equal(ra.face_boxes(), rb.face_boxes())

    def test_face_sizes_between_anchor_scales(self):
        cfg = default_hambox_config()
        sides = {cfg.anchor_size(li)[0] for li in range(6)}
        for rec in synthetic_dataset(10, seed=3):
            for f in rec.faces:
                w = f.box.width
                # Best possible anchor IoU stays below 0.8 by construction.
                assert all(min(w / s, s / w) ** 2 < 0.8 for s in sides)

    def test_faces_inside_image(self):
        for rec in synthetic_dataset(10, seed=5, image_size=640):
            boxes = rec.face_boxes()
            assert np.all(boxes >= 0)
            assert np.all(boxes[:, 2:] <= 640)


class TestRunSimulation:
    def small_setup(self):
        cfg = AnchorConfig(levels=((8, 16), (16, 32), (32, 64)), scale_ratio=0.68)
        dataset = synthetic_dataset(4, seed=2, image_size=256, levels=(0, 1))
        return cfg, dataset

    def test_deterministic_records(self):
        cfg, dataset = self.small_setup()
        model = RegressorModel(q=0.9, noise_sigma=0.05, seed=5)
        kwargs = dict(
            match_params=MatchParams(), image_size=(256, 256), scorer_scale=4.0, scorer_bias=-2.0
        )
        a, _ = run_simulation(dataset, cfg, CompensationParams(), LossParams(), model, 5, **kwargs)
        b, _ = run_simulation(dataset, cfg, CompensationParams(), LossParams(), model, 5, **kwargs)
        assert a == b

    def test_thread_count_does_not_change_results(self):
        cfg, dataset = self.small_setup()
        model = RegressorModel(q=0.9, noise_sigma=0.05, seed=5)
        one, _ = run_simulation(
            dataset, cfg, CompensationParams(), LossParams(), model, 4, image_size=(256, 256), threads=1
        )
        four, _ = run_simulation(
            dataset, cfg, CompensationParams(), LossParams(), model, 4, image_size=(256, 256), threads=4
        )
        assert one == four

    def test_ramp_narrative(self):
        # No compensation while predictions are poor; plenty once they are
        # good; every reported mean clears the admission threshold.
        cfg, dataset = self.small_setup()
        model = RegressorModel(
            q=0.9, noise_sigma=0.0, seed=9, quality_ramp=linear_ramp(0.0, 0.95, 30)
        )
        records, _ = run_simulation(
            dataset, cfg, CompensationParams(T=0.8, K=3), LossParams(), model, 30,
            image_size=(256, 256),
        )
        assert all(r.n_compensated == 0 for r in records[:3])
        assert all(r.n_compensated > 0 for r in records[-3:])
        for r in records:
            if r.n_compensated:
                assert r.mean_compensated_iou is not None
                assert r.mean_compensated_iou >= 0.8
            else:
                assert r.mean_compensated_iou is None

    def test_high_q_compensation_fills_budget(self):
        # With exact regression, every under-matched face takes
        # min(K - D, available) extras, where available counts background
        # anchors regressing onto it. Faces are well separated so no anchor
        # is stolen across faces.
        grid = two_level_grid(image=256)
        faces = np.array([[30.0, 30.0, 52.0, 52.0], [170.0, 160.0, 192.0, 182.0]])
        model = RegressorModel(q=1.0, noise_sigma=0.0, seed=1)
        regressed = simulate_regression(grid, faces, model, 0)
        params = MatchParams()
        first = match_first_step(grid, faces, params)
        comp_params = CompensationParams(T=0.8, K=3)
        out = compensate(first, grid, faces, regressed, comp_params)
        ious = pairwise_iou(grid.boxes, faces)
        best = np.argmax(ious, axis=1)
        for fi in range(2):
            d = int(first.matched_count[fi])
            if d >= comp_params.K:
                continue
            available = int(
                np.count_nonzero((first.face_of == -1) & (best == fi) & (ious[:, fi] > 0))
            )
            added = int(np.count_nonzero((out.source == SOURCE_HAMBOX) & (out.face_of == fi)))
            assert added == min(comp_params.K - d, available)

    def test_rejects_bad_iters(self):
        cfg, dataset = self.small_setup()
        with pytest.raises(ValueError, match="n_iters"):
            run_simulation(dataset, cfg, CompensationParams(), LossParams(), RegressorModel(), 0)

    def test_mean_compensated_iou_matches_series_recount(self):
        # The pooled per-iteration mean must equal a recount of the regressed
        # IoU of every compensated anchor, from the public pipeline pieces.
        cfg, dataset = self.small_setup()
        comp_params = CompensationParams(T=0.8, K=3)
        model = RegressorModel(q=0.92, noise_sigma=0.0, seed=6)
        records, _ = run_simulation(
            dataset, cfg, comp_params, LossParams(), model, 3, image_size=(256, 256)
        )
        for t in range(3):
            total = 0.0
            n = 0
            for stream, rec in enumerate(dataset):
                faces = rec.face_boxes()
                grid = generate_anchors(cfg, 256, 256)
                regressed = simulate_regression(grid, faces, model, t, stream=stream)
                first = match_first_step(grid, faces, MatchParams())
                assigned = compensate(first, grid, faces, regressed, comp_params)
                comp = assigned.source == SOURCE_HAMBOX
                total += float(np.sum(elementwise_iou(regressed[comp], faces[assigned.face_of[comp]])))
                n += int(comp.sum())
            assert records[t].n_compensated == n
            if n:
                assert records[t].mean_compensated_iou == pytest.approx(total / n, rel=1e-12)
            else:
                assert records[t].mean_compensated_iou is None


class TestOptimizeLogits:
    """Gradient descent on per-anchor logits with `cls_loss_grad`."""

    def build_instance(self, seed=0):
        grid = two_level_grid(image=128)
        faces = np.array([[20.0, 20.0, 45.0, 45.0], [70.0, 60.0, 100.0, 92.0]])
        model = RegressorModel(q=0.9, noise_sigma=0.0, seed=seed)
        regressed = simulate_regression(grid, faces, model, 0)
        first = match_first_step(grid, faces, MatchParams())
        assigned = compensate(first, grid, faces, regressed, CompensationParams(T=0.8, K=3))
        quality = compute_quality(regressed, faces)
        ignore = ignore_mask(assigned, quality)
        return assigned, quality, ignore

    def test_ignored_logits_never_move(self):
        assigned, quality, ignore = self.build_instance()
        assert np.any(ignore), "instance must contain ignored anchors"
        rng = np.random.default_rng(4)
        z0 = rng.uniform(-2, 2, size=assigned.n_anchors)
        z = z0.copy()
        from hambox.losses import cls_loss_grad

        for _ in range(50):
            z -= 0.1 * cls_loss_grad(z, assigned, quality, ignore, LossParams())
        np.testing.assert_array_equal(z[ignore], z0[ignore])
