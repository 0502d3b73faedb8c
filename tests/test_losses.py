import math
import warnings

import numpy as np
import pytest

from hambox.assignment import BACKGROUND, SOURCE_HAMBOX, SOURCE_NONE, SOURCE_STEP1, Assignment
from hambox.losses import (
    LossParams,
    cls_loss_grad,
    location_loss,
    regression_aware_cls_loss,
    sigmoid,
    sigmoid_focal,
    smooth_l1,
)
from hambox.mining import HIGH_QUALITY_IOU, AnchorQuality

from .oracles import central_difference, focal_reference


def make_assignment(sources, face_of=None, n_faces=4, targets=None):
    sources = np.asarray(sources, dtype=np.uint8)
    n = sources.shape[0]
    if face_of is None:
        face_of = np.where(sources == SOURCE_NONE, BACKGROUND, 0)
    face_of = np.asarray(face_of, dtype=np.int64)
    if targets is None:
        targets = np.where((face_of >= 0)[:, None], 0.0, np.nan) * np.ones((n, 4))
    return Assignment(
        face_of=face_of,
        targets=np.asarray(targets, dtype=np.float64),
        source=sources,
        matched_count=np.bincount(face_of[face_of >= 0], minlength=n_faces).astype(np.int64),
    )


def make_quality(f_values):
    f = np.asarray(f_values, dtype=np.float64)
    return AnchorQuality(F=f)


class TestSigmoidFocal:
    def test_perfect_prediction_limit(self):
        assert sigmoid_focal(1 - 1e-13, 1, LossParams()) == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_value(self):
        want = 0.25 * 0.01 * -math.log(0.9)
        assert sigmoid_focal(0.9, 1, LossParams(alpha=0.25, gamma=2.0)) == pytest.approx(
            want, rel=1e-12
        )
        assert want == pytest.approx(2.634e-4, rel=1e-3)

    def test_gamma_zero_alpha_half_is_half_cross_entropy(self):
        params = LossParams(alpha=0.5, gamma=0.0)
        for p in (0.1, 0.5, 0.9):
            assert sigmoid_focal(p, 1, params) == pytest.approx(0.5 * -math.log(p), rel=1e-12)
            assert sigmoid_focal(p, 0, params) == pytest.approx(0.5 * -math.log(1 - p), rel=1e-12)

    def test_matches_reference(self):
        rng = np.random.default_rng(1)
        params = LossParams(alpha=0.3, gamma=1.5)
        for p in rng.uniform(0.01, 0.99, size=50):
            for y in (0, 1):
                assert sigmoid_focal(p, y, params) == pytest.approx(
                    focal_reference(p, y, 0.3, 1.5), rel=1e-12
                )

    def test_vectorized(self):
        p = np.array([0.2, 0.8])
        y = np.array([0, 1])
        out = sigmoid_focal(p, y, LossParams())
        assert out.shape == (2,)
        assert out[0] == pytest.approx(sigmoid_focal(0.2, 0, LossParams()))
        assert out[1] == pytest.approx(sigmoid_focal(0.8, 1, LossParams()))

    def test_param_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            LossParams(alpha=0.0)
        with pytest.raises(ValueError, match="gamma"):
            LossParams(gamma=-1.0)
        with pytest.raises(ValueError, match="smooth_l1_beta"):
            LossParams(smooth_l1_beta=0.0)


class TestRegressionAwareClsLoss:
    def test_single_compensated_anchor_first_term(self):
        a = make_assignment([SOURCE_HAMBOX])
        q = make_quality([0.8])
        ignore = np.zeros(1, dtype=bool)
        out = regression_aware_cls_loss([0.9], a, q, ignore, LossParams())
        want = 0.8 * focal_reference(0.9, 1, 0.25, 2.0)
        assert out.cls_compensated == pytest.approx(want, rel=1e-12)
        assert want == pytest.approx(2.107e-4, rel=1e-3)
        assert out.cls_normal == 0.0
        assert out.n_com == 1 and out.n_norm == 0

    def test_gated_background_contributes_nothing(self):
        # Background with F = 0.6 is dropped by the quality gate even with an
        # empty ignore mask.
        a = make_assignment([SOURCE_STEP1, SOURCE_NONE])
        q = make_quality([0.9, 0.6])
        ignore = np.zeros(2, dtype=bool)
        out = regression_aware_cls_loss([0.9, 0.5], a, q, ignore, LossParams())
        want = focal_reference(0.9, 1, 0.25, 2.0)  # positive only
        assert out.cls_normal == pytest.approx(want, rel=1e-12)

    def test_reduces_to_plain_focal_when_no_mining(self):
        rng = np.random.default_rng(12)
        n = 40
        sources = np.where(rng.uniform(size=n) < 0.3, SOURCE_STEP1, SOURCE_NONE)
        a = make_assignment(sources)
        f = rng.uniform(0.0, 0.49, size=n)  # all low quality
        q = make_quality(f)
        ignore = np.zeros(n, dtype=bool)
        probs = rng.uniform(0.05, 0.95, size=n)
        out = regression_aware_cls_loss(probs, a, q, ignore, LossParams())
        n_norm = int(np.count_nonzero(sources == SOURCE_STEP1))
        plain = (
            sum(focal_reference(probs[i], 1, 0.25, 2.0) for i in np.flatnonzero(sources == SOURCE_STEP1))
            + sum(focal_reference(probs[i], 0, 0.25, 2.0) for i in np.flatnonzero(sources == SOURCE_NONE))
        ) / n_norm
        assert out.cls_compensated == 0.0
        assert abs(out.cls_total - plain) < 1e-12

    def test_empty_pools_are_finite_zero(self):
        a = make_assignment([SOURCE_NONE, SOURCE_NONE])
        q = make_quality([0.1, 0.2])
        out = regression_aware_cls_loss([0.5, 0.5], a, q, np.zeros(2, dtype=bool), LossParams())
        assert out.cls_compensated == 0.0
        assert out.cls_normal == 0.0
        assert out.n_com == 0 and out.n_norm == 0
        assert math.isfinite(out.cls_total)

    def test_f_weight_scales_own_contribution_linearly(self):
        sources = [SOURCE_HAMBOX, SOURCE_HAMBOX, SOURCE_STEP1]
        probs = [0.7, 0.6, 0.9]
        ignore = np.zeros(3, dtype=bool)
        a = make_assignment(sources)
        base = regression_aware_cls_loss(probs, a, make_quality([0.5, 0.9, 0.2]), ignore, LossParams())
        doubled = regression_aware_cls_loss(
            probs, a, make_quality([1.0, 0.9, 0.2]), ignore, LossParams()
        )
        delta_first = 0.5 * focal_reference(0.7, 1, 0.25, 2.0) / 2  # n_com = 2
        assert doubled.cls_compensated - base.cls_compensated == pytest.approx(
            delta_first, rel=1e-12
        )
        assert doubled.cls_normal == base.cls_normal

    def test_ignored_anchors_excluded(self):
        a = make_assignment([SOURCE_STEP1, SOURCE_NONE, SOURCE_NONE])
        q = make_quality([0.9, 0.7, 0.3])
        ignore = np.array([False, True, False])
        out = regression_aware_cls_loss([0.9, 0.2, 0.2], a, q, ignore, LossParams())
        want = focal_reference(0.9, 1, 0.25, 2.0) + focal_reference(0.2, 0, 0.25, 2.0)
        assert out.cls_normal == pytest.approx(want, rel=1e-12)

    def test_length_mismatch(self):
        a = make_assignment([SOURCE_STEP1])
        q = make_quality([0.9])
        with pytest.raises(ValueError, match="probs"):
            regression_aware_cls_loss([0.5, 0.5], a, q, np.zeros(1, dtype=bool), LossParams())
        with pytest.raises(ValueError, match="ignore"):
            regression_aware_cls_loss([0.5], a, q, np.zeros(2, dtype=bool), LossParams())


class TestLocationLoss:
    def test_perfect_predictions(self):
        a = make_assignment([SOURCE_STEP1, SOURCE_HAMBOX], targets=np.ones((2, 4)) * 0.3)
        out = location_loss(np.ones((2, 4)) * 0.3, a, LossParams())
        assert out.loc_total == 0.0

    def test_quadratic_zone(self):
        targets = np.zeros((1, 4))
        a = make_assignment([SOURCE_STEP1], targets=targets)
        pred = np.zeros((1, 4))
        pred[0, 2] = 0.5
        out = location_loss(pred, a, LossParams(smooth_l1_beta=1.0))
        assert out.loc_normal == pytest.approx(0.125, rel=1e-12)
        assert out.loc_compensated == 0.0

    def test_linear_zone(self):
        targets = np.zeros((1, 4))
        a = make_assignment([SOURCE_STEP1], targets=targets)
        pred = np.zeros((1, 4))
        pred[0, 1] = 2.0
        out = location_loss(pred, a, LossParams(smooth_l1_beta=1.0))
        assert out.loc_normal == pytest.approx(1.5, rel=1e-12)

    def test_pools_normalized_separately(self):
        targets = np.zeros((3, 4))
        a = make_assignment([SOURCE_STEP1, SOURCE_HAMBOX, SOURCE_HAMBOX], targets=targets)
        pred = np.zeros((3, 4))
        pred[:, 0] = [0.5, 0.5, 0.5]
        out = location_loss(pred, a, LossParams())
        assert out.loc_normal == pytest.approx(0.125, rel=1e-12)
        assert out.loc_compensated == pytest.approx(0.125, rel=1e-12)  # 2 * 0.125 / 2

    def test_backgrounds_carry_no_target(self):
        a = make_assignment([SOURCE_NONE, SOURCE_STEP1], targets=None)
        pred = np.zeros((2, 4))
        out = location_loss(pred, a, LossParams())
        assert math.isfinite(out.loc_total)

    def test_missing_target_raises(self):
        targets = np.full((1, 4), np.nan)
        a = make_assignment([SOURCE_STEP1], targets=targets)
        with pytest.raises(AssertionError, match="target"):
            location_loss(np.zeros((1, 4)), a, LossParams())

    def test_smooth_l1_shape(self):
        assert smooth_l1(0.5, 1.0) == pytest.approx(0.125)
        assert smooth_l1(-2.0, 1.0) == pytest.approx(1.5)
        assert smooth_l1(0.2, 0.5) == pytest.approx(0.5 * 0.04 / 0.5)

    def test_smooth_l1_of_a_huge_delta_does_not_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = smooth_l1(np.array([1e200, 0.3]), 1.0)
        assert out.tolist() == [1e200 - 0.5, 0.5 * 0.3 * 0.3 / 1.0]


class TestClsLossGrad:
    def random_instance(self, rng, n=None):
        n = n or int(rng.integers(6, 30))
        sources = rng.choice(
            [SOURCE_NONE, SOURCE_STEP1, SOURCE_HAMBOX], size=n, p=[0.55, 0.25, 0.2]
        ).astype(np.uint8)
        a = make_assignment(sources)
        f = rng.uniform(0.0, 1.0, size=n)
        q = make_quality(f)
        ignore = (sources == SOURCE_NONE) & (q.F >= HIGH_QUALITY_IOU)
        params = LossParams(
            alpha=float(rng.uniform(0.15, 0.85)), gamma=float(rng.choice([0.0, 1.0, 2.0]))
        )
        logits = rng.uniform(-3, 3, size=n)
        return a, q, ignore, params, logits

    def test_ignored_anchor_gradient_exactly_zero(self):
        a = make_assignment([SOURCE_NONE, SOURCE_STEP1])
        q = make_quality([0.9, 0.3])
        ignore = np.array([True, False])
        g = cls_loss_grad([0.5, -0.2], a, q, ignore, LossParams())
        assert g[0] == 0.0

    def test_gated_background_gradient_exactly_zero(self):
        a = make_assignment([SOURCE_NONE, SOURCE_STEP1])
        q = make_quality([0.7, 0.3])  # background F >= 0.5, ignore left empty
        g = cls_loss_grad([0.5, -0.2], a, q, np.zeros(2, dtype=bool), LossParams())
        assert g[0] == 0.0

    def test_perfect_confident_prediction_has_tiny_gradient(self):
        a = make_assignment([SOURCE_STEP1])
        q = make_quality([0.9])
        g = cls_loss_grad([30.0], a, q, np.zeros(1, dtype=bool), LossParams())
        assert abs(g[0]) < 1e-9

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(99)
        worst = 0.0
        for _ in range(100):
            a, q, ignore, params, logits = self.random_instance(rng)

            def loss_at(z):
                probs = np.asarray(sigmoid(z))
                return regression_aware_cls_loss(probs, a, q, ignore, params).cls_total

            analytic = cls_loss_grad(logits, a, q, ignore, params)
            fd = central_difference(loss_at, logits, h=1e-4)
            rel = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-6)
            worst = max(worst, float(rel.max()))
        assert worst < 1e-4

    def test_descent_direction(self):
        rng = np.random.default_rng(123)
        a, q, ignore, params, logits = self.random_instance(rng, n=20)

        def loss_at(z):
            return regression_aware_cls_loss(
                np.asarray(sigmoid(z)), a, q, ignore, params
            ).cls_total

        g = cls_loss_grad(logits, a, q, ignore, params)
        stepped = loss_at(logits - 0.05 * g)
        assert stepped <= loss_at(logits) + 1e-15
