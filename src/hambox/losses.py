"""Sigmoid focal loss, its regression-aware variant, and analytic gradients.

The classification loss splits anchors into two pools after compensation:

* the compensated pool: anchors promoted to positive by online mining are
  trained as foreground, each weighted by its regression quality F, and the
  pool is averaged by its own count N_com;
* the normal pool: first-step positives plus backgrounds whose regression
  quality stays below 0.5 (higher-quality backgrounds are gated out, and
  anchors in the ignore mask are dropped), averaged by the number of
  first-step positives N_norm.

Empty pools contribute exactly zero, so early iterations with no compensated
anchors are well defined. The location loss applies the same two-pool
normalization to a smooth-L1 penalty over the four delta components;
backgrounds carry no regression target and never appear there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .assignment import BACKGROUND, SOURCE_HAMBOX, SOURCE_NONE, SOURCE_STEP1, Assignment
from .mining import HIGH_QUALITY_IOU, AnchorQuality

PROB_EPS = 1e-12  # probabilities are clamped to [PROB_EPS, 1 - PROB_EPS]


@dataclass(frozen=True)
class LossParams:
    alpha: float = 0.25
    gamma: float = 2.0
    smooth_l1_beta: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.gamma < 0.0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.smooth_l1_beta <= 0.0:
            raise ValueError(f"smooth_l1_beta must be > 0, got {self.smooth_l1_beta}")


@dataclass
class LossBreakdown:
    """Per-term loss values plus the pool sizes used for normalization."""

    cls_compensated: float = 0.0
    cls_normal: float = 0.0
    loc_compensated: float = 0.0
    loc_normal: float = 0.0
    n_com: int = 0
    n_norm: int = 0

    @property
    def cls_total(self) -> float:
        return self.cls_compensated + self.cls_normal

    @property
    def loc_total(self) -> float:
        return self.loc_compensated + self.loc_normal


def sigmoid(z: np.ndarray | float) -> np.ndarray | float:
    return 1.0 / (1.0 + np.exp(-np.asarray(z, dtype=np.float64)))


def _clamp(p: np.ndarray) -> np.ndarray:
    return np.clip(p, PROB_EPS, 1.0 - PROB_EPS)


def sigmoid_focal(p, y, params: LossParams):
    """Two-class sigmoid focal loss.

    For y=1: -alpha * (1-p)^gamma * ln(p); for y=0 the mirrored form with
    weight (1-alpha). Accepts scalars or arrays; p is clamped away from
    {0, 1} for numeric safety.
    """
    p = _clamp(np.asarray(p, dtype=np.float64))
    y = np.asarray(y)
    pos = -params.alpha * (1.0 - p) ** params.gamma * np.log(p)
    neg = -(1.0 - params.alpha) * p**params.gamma * np.log(1.0 - p)
    out = np.where(y == 1, pos, neg)
    return float(out) if out.ndim == 0 else out


def _pools(assignment: Assignment, quality: AnchorQuality, ignore: np.ndarray):
    """Masks for the compensated pool and the two halves of the normal pool."""
    ignore = np.asarray(ignore, dtype=bool)
    if ignore.shape[0] != assignment.n_anchors:
        raise ValueError(
            f"ignore mask covers {ignore.shape[0]} anchors, assignment has {assignment.n_anchors}"
        )
    if quality.F.shape[0] != assignment.n_anchors:
        raise ValueError(
            f"quality covers {quality.F.shape[0]} anchors, assignment has {assignment.n_anchors}"
        )
    compensated = assignment.source == SOURCE_HAMBOX
    step1_pos = assignment.source == SOURCE_STEP1
    background = (
        (assignment.face_of == BACKGROUND) & ~ignore & (quality.F < HIGH_QUALITY_IOU)
    )
    return compensated, step1_pos, background


def regression_aware_cls_loss(
    probs: Sequence[float] | np.ndarray,
    assignment: Assignment,
    quality: AnchorQuality,
    ignore: np.ndarray,
    params: LossParams,
    *,
    outside: tuple[np.ndarray, int, np.ndarray] | None = None,
) -> LossBreakdown:
    """Classification loss over the compensated and normal pools.

    `probs` are per-anchor foreground probabilities; `ignore` is the mask
    from :func:`hambox.mining.ignore_mask`.

    With `outside` = (rows, n, p), the arguments cover only the anchors
    `rows` (ascending indices) of n anchors. Every other anchor is
    background with F = 0, not ignored, and scores the one-element `p`, so
    each of them adds the same background term. The background sum fills
    its pool with that term, writes the rows' terms at their places in
    anchor order and sums the pool: bit-equal to the sum over every anchor,
    without a focal term per anchor.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.shape[0] != assignment.n_anchors:
        raise ValueError(
            f"probs cover {probs.shape[0]} anchors, assignment has {assignment.n_anchors}"
        )
    compensated, step1_pos, background = _pools(assignment, quality, ignore)
    n_com = int(compensated.sum())
    n_norm = int(step1_pos.sum())

    cls_com = 0.0
    if n_com:
        cls_com = float(
            np.sum(quality.F[compensated] * sigmoid_focal(probs[compensated], 1, params)) / n_com
        )
    cls_norm = 0.0
    if n_norm:
        fg = np.sum(sigmoid_focal(probs[step1_pos], 1, params))
        terms = sigmoid_focal(probs[background], 0, params)
        if outside is not None:
            rows, n, p = outside
            at = np.flatnonzero(background)
            pool = np.full(n - rows.size + at.size, sigmoid_focal(p, 0, params)[0])
            # A row's place in the pool: the anchors outside the rows before
            # it (its anchor index less its row), then the pool's rows before it.
            pool[rows[at] - at + np.arange(at.size)] = terms
            terms = pool
        bg = np.sum(terms)
        cls_norm = float((fg + bg) / n_norm)
    return LossBreakdown(cls_compensated=cls_com, cls_normal=cls_norm, n_com=n_com, n_norm=n_norm)


def smooth_l1(x, beta: float):
    """Elementwise smooth L1: quadratic inside |x| < beta, linear outside."""
    x = np.abs(np.asarray(x, dtype=np.float64))
    q = np.minimum(x, beta)  # squaring x itself would overflow where the linear side is taken
    out = np.where(x < beta, 0.5 * q * q / beta, x - 0.5 * beta)
    return float(out) if out.ndim == 0 else out


def location_loss(
    pred_deltas: np.ndarray,
    assignment: Assignment,
    params: LossParams,
) -> LossBreakdown:
    """Smooth-L1 location loss, normalized per pool like the classification loss."""
    pred_deltas = np.asarray(pred_deltas, dtype=np.float64)
    if pred_deltas.shape != (assignment.n_anchors, 4):
        raise ValueError(
            f"expected ({assignment.n_anchors}, 4) pred_deltas, got shape {pred_deltas.shape}"
        )
    compensated = assignment.source == SOURCE_HAMBOX
    step1_pos = assignment.source == SOURCE_STEP1
    if np.any(np.isnan(assignment.targets[compensated | step1_pos])):
        raise AssertionError("positive anchor lacking a regression target")
    n_com = int(compensated.sum())
    n_norm = int(step1_pos.sum())
    loc_com = 0.0
    if n_com:
        diff = pred_deltas[compensated] - assignment.targets[compensated]
        loc_com = float(np.sum(smooth_l1(diff, params.smooth_l1_beta)) / n_com)
    loc_norm = 0.0
    if n_norm:
        diff = pred_deltas[step1_pos] - assignment.targets[step1_pos]
        loc_norm = float(np.sum(smooth_l1(diff, params.smooth_l1_beta)) / n_norm)
    return LossBreakdown(loc_compensated=loc_com, loc_normal=loc_norm, n_com=n_com, n_norm=n_norm)


def _focal_grad_wrt_logit(p: np.ndarray, y: int, params: LossParams) -> np.ndarray:
    """d sigmoid_focal(sigmoid(z), y) / dz evaluated at p = sigmoid(z)."""
    a, g = params.alpha, params.gamma
    if y == 1:
        return a * (1.0 - p) ** g * (g * p * np.log(p) - (1.0 - p))
    return (1.0 - a) * p**g * (p - g * (1.0 - p) * np.log(1.0 - p))


def cls_loss_grad(
    logits: Sequence[float] | np.ndarray,
    assignment: Assignment,
    quality: AnchorQuality,
    ignore: np.ndarray,
    params: LossParams,
) -> np.ndarray:
    """Gradient of the total classification loss with respect to each logit.

    Exactly zero for ignored anchors and for gated backgrounds; matches
    central finite differences elsewhere.
    """
    logits = np.asarray(logits, dtype=np.float64)
    p = _clamp(np.asarray(sigmoid(logits)))
    compensated, step1_pos, background = _pools(assignment, quality, ignore)
    n_com = int(compensated.sum())
    n_norm = int(step1_pos.sum())
    grad = np.zeros_like(p)
    if n_com:
        grad[compensated] = (
            quality.F[compensated] * _focal_grad_wrt_logit(p[compensated], 1, params) / n_com
        )
    if n_norm:
        grad[step1_pos] += _focal_grad_wrt_logit(p[step1_pos], 1, params) / n_norm
        grad[background] += _focal_grad_wrt_logit(p[background], 0, params) / n_norm
    return grad


def gradient_check(seed: int, trials: int, corrupt: bool = False) -> tuple[float, dict]:
    """Max relative error between analytic and central-difference gradients.

    Random instances include compensated anchors and nonempty ignore masks.
    `corrupt` perturbs the analytic gradient, for validating that the check
    can fail.
    """
    rng = np.random.default_rng(seed)
    h = 1e-4
    worst = 0.0
    worst_case: dict = {}
    for trial in range(trials):
        n = int(rng.integers(8, 40))
        source = rng.choice(
            [SOURCE_NONE, SOURCE_STEP1, SOURCE_HAMBOX], size=n, p=[0.6, 0.25, 0.15]
        ).astype(np.uint8)
        face_of = np.where(source == SOURCE_NONE, BACKGROUND, rng.integers(0, 3, size=n))
        assignment = Assignment(
            face_of=face_of.astype(np.int64),
            targets=np.zeros((n, 4)),
            source=source,
            matched_count=np.bincount(face_of[face_of >= 0], minlength=3).astype(np.int64),
        )
        quality = AnchorQuality(F=rng.uniform(0.0, 1.0, size=n))
        ignore = (source == SOURCE_NONE) & (quality.F >= HIGH_QUALITY_IOU)
        params = LossParams(
            alpha=float(rng.uniform(0.1, 0.9)),
            gamma=float(rng.choice([0.0, 1.0, 2.0, 3.0])),
        )
        logits = rng.uniform(-3.0, 3.0, size=n)
        grad = cls_loss_grad(logits, assignment, quality, ignore, params)
        if corrupt:
            grad = grad + 1e-3

        def loss_at(z: np.ndarray) -> float:
            return regression_aware_cls_loss(
                np.asarray(sigmoid(z)), assignment, quality, ignore, params
            ).cls_total

        fd = np.zeros(n)
        for j in range(n):
            zp = logits.copy()
            zm = logits.copy()
            zp[j] += h
            zm[j] -= h
            fd[j] = (loss_at(zp) - loss_at(zm)) / (2 * h)
        rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-6)
        idx = int(np.argmax(rel))
        if rel[idx] > worst:
            worst = float(rel[idx])
            worst_case = {
                "trial": trial,
                "anchor": idx,
                "analytic": float(grad[idx]),
                "finite_difference": float(fd[idx]),
            }
    return worst, worst_case
