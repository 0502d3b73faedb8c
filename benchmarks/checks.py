"""Output checks for the benchmark workloads.

Expected values come from the brute-force matchers in ``tests/oracles.py``
and from properties the method guarantees, never from a stored copy of an
earlier output. Anchor grids are rebuilt here from the documented layout
(levels in order, row-major cells, centres at stride * (i + 1/2), grid sized
from the faces plus the largest anchor overlap margin). Oracles run on the
anchors whose box, or regressed box, overlaps some face: every other anchor
has IoU 0 with every face, so it cannot match, be compensated or be ignored.

Each check returns a list of failure messages; an empty list means the
output passed. Output too malformed to parse raises instead.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

import inputs
from inputs import BASE_SCALES, IOU_THRESHOLD, K, NAMS_FLOOR, STRIDES, T

TOL = 1e-9  # outputs are printed with 10 significant digits


class Grid:
    """Documented anchor layout of one image at one scale ratio."""

    def __init__(self, boxes: list, ratio: float = inputs.SCALE_RATIO, size: tuple[int, int] | None = None):
        self.sides = [b * ratio for b in BASE_SCALES]
        if size is None:
            margin = max(s + side / 2.0 for s, side in zip(STRIDES, self.sides))
            w = math.ceil(max(max(b[2] for b in boxes) + margin, max(STRIDES)))
            h = math.ceil(max(max(b[3] for b in boxes) + margin, max(STRIDES)))
            size = (w, h)
        self.shape = [(math.ceil(size[1] / s), math.ceil(size[0] / s)) for s in STRIDES]
        self.offset = np.cumsum([0] + [r * c for r, c in self.shape]).tolist()

    def __len__(self) -> int:
        return self.offset[-1]

    def locate(self, anchor: int) -> tuple[int, int, int]:
        level = int(np.searchsorted(self.offset, anchor, side="right")) - 1
        r, c = divmod(anchor - self.offset[level], self.shape[level][1])
        return level, r, c

    def box(self, level: int, r: int, c: int) -> tuple[float, float, float, float]:
        s, side = STRIDES[level], self.sides[level]
        cx, cy = c * s + s / 2.0, r * s + s / 2.0
        return (cx - side / 2.0, cy - side / 2.0, cx + side / 2.0, cy + side / 2.0)

    def all_boxes(self) -> np.ndarray:
        out = []
        for level, (rows, cols) in enumerate(self.shape):
            s, side = STRIDES[level], self.sides[level]
            cy, cx = np.meshgrid(np.arange(rows, dtype=np.float64) * s + s / 2.0,
                                 np.arange(cols, dtype=np.float64) * s + s / 2.0, indexing="ij")
            cx, cy = cx.ravel(), cy.ravel()
            out.append(np.stack([cx - side / 2.0, cy - side / 2.0, cx + side / 2.0, cy + side / 2.0], axis=1))
        return np.concatenate(out)

    def touching(self, boxes: list) -> list[int]:
        """Ascending indices of the anchors that overlap some box."""
        found = set()
        for level, (rows, cols) in enumerate(self.shape):
            s, half = STRIDES[level], self.sides[level] / 2.0
            for x0, y0, x1, y1 in boxes:
                c_lo, c_hi = max(0, math.floor((x0 - half) / s - 0.5)), min(cols - 1, math.ceil((x1 + half) / s - 0.5))
                r_lo, r_hi = max(0, math.floor((y0 - half) / s - 0.5)), min(rows - 1, math.ceil((y1 + half) / s - 0.5))
                for r in range(r_lo, r_hi + 1):
                    for c in range(c_lo, c_hi + 1):
                        a = self.box(level, r, c)
                        if min(a[2], x1) > max(a[0], x0) and min(a[3], y1) > max(a[1], y0):
                            found.add(self.offset[level] + r * cols + c)
        return sorted(found)


def _overlaps_any(boxes: np.ndarray, faces: list) -> np.ndarray:
    hit = np.zeros(len(boxes), dtype=bool)
    for x0, y0, x1, y1 in faces:
        hit |= (np.minimum(boxes[:, 2], x1) > np.maximum(boxes[:, 0], x0)) & (
            np.minimum(boxes[:, 3], y1) > np.maximum(boxes[:, 1], y0)
        )
    return hit


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(b))


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def manifests(out_dirs: list[Path], expected: list[list[str]]) -> list[str]:
    """Every output named in each manifest exists and hashes to its recorded sha256."""
    errors = []
    for d, names in zip(out_dirs, expected):
        recorded = json.loads((d / "manifest.json").read_text(encoding="utf-8"))["outputs"]
        if sorted(recorded) != sorted(names):
            errors.append(f"{d.name}: manifest lists {sorted(recorded)}, expected {sorted(names)}")
        for name, digest in recorded.items():
            path = d / name
            if not path.is_file() or hashlib.sha256(path.read_bytes()).hexdigest() != digest:
                errors.append(f"{d.name}/{name}: sha256 does not match the manifest")
    return errors


# ---------------------------------------------------------------------------
# sim-train


def _sim_regressed(
    grid: np.ndarray, touching: np.ndarray, faces: list, seed: int, t: int, stream: int, oracles
) -> np.ndarray:
    """Predicted boxes by the simulator's documented rule at iteration t.

    Anchors overlapping a face move fraction q toward their best-IoU face;
    then every corner gets keyed Philox noise scaled by sigma and the
    reference box's width or height, and x1, y1 are kept 1e-6 past x0, y0.
    """
    q = inputs.SIM_RAMP[0] + (inputs.SIM_RAMP[1] - inputs.SIM_RAMP[0]) * t / (inputs.SIM_ITERS - 1)
    q = float(min(1.0, max(0.0, q)))
    ref = grid.copy()
    for a in np.flatnonzero(touching):
        ious = [oracles.iou_reference(grid[a], f) for f in faces]
        ref[a] = faces[int(np.argmax(ious))]
    out = np.where(touching[:, None], grid + q * (ref - grid), grid)
    noise = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(t, stream)))
    ).standard_normal((len(grid), 4))
    ref_w, ref_h = ref[:, 2] - ref[:, 0], ref[:, 3] - ref[:, 1]
    out = out + noise * (np.stack([ref_w, ref_h, ref_w, ref_h], axis=1) * inputs.SIM_NOISE)
    out[:, 2] = np.maximum(out[:, 2], out[:, 0] + 1e-6)
    out[:, 3] = np.maximum(out[:, 3], out[:, 1] + 1e-6)
    return out


def sim_reference(layout: list, program_seed: int, t: int, oracles) -> tuple[int, float, int]:
    """(n_com, summed IoU of the compensated boxes, n_ignored) at iteration t, by the oracles."""
    grid = Grid([], size=(inputs.SIM_IMAGE_SIZE, inputs.SIM_IMAGE_SIZE))
    boxes = grid.all_boxes()
    n_com, iou_sum, n_ignored = 0, 0.0, 0
    for i, faces in enumerate(layout):
        touching = _overlaps_any(boxes, faces)
        regressed = _sim_regressed(boxes, touching, faces, program_seed, t, i, oracles)
        idx = np.flatnonzero(touching | _overlaps_any(regressed, faces))
        anchors, predicted = boxes[idx].tolist(), regressed[idx].tolist()
        first, _ = oracles.first_step_reference(anchors, faces, IOU_THRESHOLD)
        face_of, sources, _ = oracles.compensate_reference(first, anchors, faces, predicted, K, T)
        for j, src in enumerate(sources):
            if src == "hambox":
                n_com += 1
                iou_sum += oracles.iou_reference(predicted[j], faces[face_of[j]])
            elif face_of[j] < 0:
                n_ignored += max(oracles.iou_reference(predicted[j], f) for f in faces) >= 0.5
    return n_com, iou_sum, n_ignored


def sim_train(out: Path, program_seed: int, oracles) -> list[str]:
    errors = manifests([out], [["simulation.csv", "provenance.csv"]])
    layout = inputs.synthetic_layout(inputs.SIM_IMAGES, program_seed)
    n_faces = sum(len(f) for f in layout)
    rows = list(csv.DictReader(io.StringIO((out / "simulation.csv").read_text(encoding="utf-8"))))
    if [int(r["iter"]) for r in rows] != list(range(inputs.SIM_ITERS)):
        return errors + [f"simulation.csv has iterations {[r['iter'] for r in rows]}"]
    for r in rows:
        t, n_com = int(r["iter"]), int(r["n_com"])
        losses = [float(r[k]) for k in ("cls_com", "cls_norm", "loc_com", "loc_norm")]
        if not all(math.isfinite(v) and v >= 0.0 for v in losses):
            errors.append(f"iter {t}: losses {losses} not finite and >= 0")
        if n_com > K * n_faces:
            errors.append(f"iter {t}: n_com {n_com} exceeds K x faces = {K * n_faces}")
        if (r["mean_com_iou"] == "") != (n_com == 0):
            errors.append(f"iter {t}: mean_com_iou {r['mean_com_iou']!r} with n_com {n_com}")
        elif n_com and not float(r["mean_com_iou"]) > T:
            errors.append(f"iter {t}: mean_com_iou {r['mean_com_iou']} not above T = {T}")
    if int(rows[0]["n_com"]) != 0:
        errors.append(f"iteration 0 compensated {rows[0]['n_com']} anchors")
    if int(rows[-1]["n_com"]) == 0:
        errors.append("the last iteration compensated nothing")

    # Recount the late iterations with the oracles: compensations, their
    # mean regressed IoU, and the ignored high-quality backgrounds.
    for t in (inputs.SIM_ITERS - 2, inputs.SIM_ITERS - 1):
        n_com, iou_sum, n_ignored = sim_reference(layout, program_seed, t, oracles)
        r = rows[t]
        if n_com != int(r["n_com"]) or n_ignored != int(r["n_ignored"]):
            errors.append(f"iter {t}: n_com {r['n_com']}, n_ignored {r['n_ignored']}; oracle {n_com}, {n_ignored}")
        elif n_com and not _close(float(r["mean_com_iou"]), iou_sum / n_com):
            errors.append(f"iter {t}: mean_com_iou {r['mean_com_iou']}, oracle {iou_sum / n_com}")

    prov = dict(line.split(",", 1) for line in (out / "provenance.csv").read_text(encoding="utf-8").splitlines()[1:])
    if int(prov["n_faces"]) != n_faces:
        errors.append(f"provenance n_faces {prov['n_faces']}, the synthetic set has {n_faces}")
    cdf = [float(v) for v in prov["iou_cdf"].split()]
    if cdf != sorted(cdf) or (cdf and cdf[0] < IOU_THRESHOLD - TOL):
        errors.append("provenance iou_cdf is not an ascending list of step-1 IoUs")
    for key in ("frac_cpbb_from_matched", "frac_hq_unmatched"):
        if not 0.0 <= float(prov[key]) <= 1.0:
            errors.append(f"provenance {key} = {prov[key]} outside [0, 1]")
    return errors


# ---------------------------------------------------------------------------
# crowd-assign

SOURCES = {
    "hambox": {"step1", "hambox_compensated"},
    "dms": {"step1", "step2_compensated"},
    "nams": {"step1", "step2_compensated"},
}


def _assign_rows(path: Path) -> dict[str, list[tuple]]:
    rows: dict[str, list[tuple]] = {}
    lines = path.read_text(encoding="utf-8").splitlines()
    if lines[0] != "image,anchor,level,label,face,source,iou":
        raise ValueError(f"unexpected header {lines[0]!r}")
    for line in lines[1:]:
        image, anchor, level, label, face, source, iou = line.split(",")
        rows.setdefault(image, []).append(
            (int(anchor), int(level), label, int(face) if face else None, source, float(iou))
        )
    return rows


def _expected_rows(strategy: str, grid: Grid, faces: list, oracles) -> list[tuple]:
    """Rows the oracle matchers give for one image, in the CLI's row order."""
    idx = grid.touching(faces)
    anchors = [grid.box(*grid.locate(a)) for a in idx]
    if strategy == "dms":
        face_of, _, comp = oracles.two_step_reference(anchors, faces, IOU_THRESHOLD)
        sources = ["step2_compensated" if c else "step1" for c in comp]
    elif strategy == "nams":
        face_of, _, comp = oracles.nams_reference(anchors, faces, IOU_THRESHOLD, NAMS_FLOOR)
        sources = ["step2_compensated" if c else "step1" for c in comp]
    else:
        first, _ = oracles.first_step_reference(anchors, faces, IOU_THRESHOLD)
        # Documented pull rule with zero noise: an anchor moves fraction q of
        # the way toward its best-IoU face.
        regressed = []
        for a in anchors:
            ious = [oracles.iou_reference(a, f) for f in faces]
            best = faces[int(np.argmax(ious))]
            regressed.append(tuple(ac + inputs.SIM_QUALITY * (fc - ac) for ac, fc in zip(a, best)))
        face_of, sources, _ = oracles.compensate_reference(first, anchors, faces, regressed, K, T)
        sources = ["hambox_compensated" if s == "hambox" else s for s in sources]
    rows, ignored = [], []
    for j, a in enumerate(idx):
        level = grid.locate(a)[0]
        if face_of[j] >= 0:
            box = regressed[j] if sources[j] == "hambox_compensated" else anchors[j]
            rows.append((a, level, "positive", face_of[j], sources[j], oracles.iou_reference(box, faces[face_of[j]])))
        elif strategy == "hambox":
            quality = max(oracles.iou_reference(regressed[j], f) for f in faces)
            if quality >= 0.5:
                ignored.append((a, level, "ignore", None, "none", quality))
    return rows + ignored


def _same_rows(got: list[tuple], want: list[tuple]) -> bool:
    return len(got) == len(want) and all(g[:5] == w[:5] and _close(g[5], w[5]) for g, w in zip(got, want))


def crowd_assign(out: Path, images: list, sample: list[int], oracles) -> list[str]:
    errors = manifests([out / s for s in inputs.CROWD_STRATEGIES], [["assign.csv"]] * 3)
    for strategy in inputs.CROWD_STRATEGIES:
        rows = _assign_rows(out / strategy / "assign.csv")
        known = {im.path for im in images}
        if set(rows) - known:
            errors.append(f"{strategy}: rows for unknown images {sorted(set(rows) - known)[:3]}")
        for n, im in enumerate(images):
            faces = im.valid_boxes()
            got = rows.get(im.path, [])
            if not faces:
                if got:
                    errors.append(f"{strategy} {im.path}: rows for an image without valid faces")
                continue
            grid = Grid(faces)
            errors += [f"{strategy} {im.path}: {e}" for e in _row_properties(strategy, got, grid, faces, oracles)]
            if n in sample and not _same_rows(got, _expected_rows(strategy, grid, faces, oracles)):
                errors.append(f"{strategy} {im.path}: rows differ from the oracle matcher")
    return errors


def _row_properties(strategy: str, rows: list[tuple], grid: Grid, faces: list, oracles) -> list[str]:
    errors = []
    anchors = [r[0] for r in rows]
    if len(set(anchors)) != len(anchors):
        errors.append("an anchor appears twice")
    step1 = [0] * len(faces)
    extra = [0] * len(faces)
    for anchor, level, label, face, source, value in rows:
        if not 0 <= anchor < len(grid) or grid.locate(anchor)[0] != level:
            errors.append(f"anchor {anchor} is not on level {level}")
            continue
        if label == "ignore":
            if strategy != "hambox" or face is not None or source != "none" or value < 0.5:
                errors.append(f"bad ignore row for anchor {anchor}: {face}, {source}, {value}")
            continue
        if label != "positive" or face is None or not 0 <= face < len(faces) or source not in SOURCES[strategy]:
            errors.append(f"bad row for anchor {anchor}: {label}, {face}, {source}")
            continue
        if source == "hambox_compensated":
            extra[face] += 1
            if not value > T:
                errors.append(f"compensated anchor {anchor} has IoU {value} <= T")
            continue
        ref = oracles.iou_reference(grid.box(*grid.locate(anchor)), faces[face])
        if not _close(value, ref):
            errors.append(f"anchor {anchor}: iou {value}, oracle {ref}")
        if source == "step1":
            step1[face] += 1
            if ref < IOU_THRESHOLD:
                errors.append(f"step-1 anchor {anchor} has IoU {ref} below the threshold")
        else:
            extra[face] += 1
            if not ref > (NAMS_FLOOR if strategy == "nams" else 0.0):
                errors.append(f"step-2 anchor {anchor} has IoU {ref}")
    for f in range(len(faces)):
        if strategy == "hambox" and extra[f] > max(0, K - step1[f]):
            errors.append(f"face {f}: {extra[f]} compensated with {step1[f]} step-1 positives, K = {K}")
        if strategy != "hambox" and extra[f] and step1[f]:
            errors.append(f"face {f}: step-2 positives for a face with step-1 positives")
        if strategy == "dms" and extra[f] > 1:
            errors.append(f"face {f}: {extra[f]} step-2 positives under dms")
    return errors


# ---------------------------------------------------------------------------
# wider-census


def census_expected(images: list, ratios: list[float], oracles) -> list[str]:
    """scale_curve.csv rows the oracle first step gives for `images`."""
    lines = []
    for ratio in ratios:
        faces_total = matched = positives = 0
        for im in images:
            faces = im.valid_boxes()
            if not faces:
                continue
            grid = Grid(faces, ratio)
            idx = grid.touching(faces)
            _, counts = oracles.first_step_reference([grid.box(*grid.locate(a)) for a in idx], faces, IOU_THRESHOLD)
            faces_total += len(faces)
            matched += sum(c > 0 for c in counts)
            positives += sum(counts)
        lines.append(f"{_fmt(ratio)},{_fmt(positives / faces_total)},{_fmt(matched / faces_total)}")
    return lines


def wider_census(out: Path, sample_out: Path, sample: list, ratios: list[float], oracles) -> list[str]:
    errors = manifests([out, sample_out], [["scale_curve.csv"]] * 2)
    lines = (out / "scale_curve.csv").read_text(encoding="utf-8").splitlines()
    if lines[0] != "ratio,mean_anchors_per_face,fraction_faces_matched" or len(lines) != len(ratios) + 1:
        return errors + [f"scale_curve.csv has {len(lines) - 1} rows for {len(ratios)} ratios"]
    for line, ratio in zip(lines[1:], ratios):
        r, mean, frac = (float(v) for v in line.split(","))
        if not _close(r, ratio) or mean < 0.0 or not 0.0 <= frac <= 1.0:
            errors.append(f"bad census row {line!r} for ratio {ratio}")
    got = (sample_out / "scale_curve.csv").read_text(encoding="utf-8").splitlines()[1:]
    want = census_expected(sample, ratios, oracles)
    if got != want:
        errors.append(f"sample census {got[:2]}... differs from the oracle {want[:2]}...")
    return errors
