"""Seeded input generators for the three benchmark workloads.

Every generator takes the benchmark seed and writes plain files; the program
under test receives only those files. WIDER-format faces have integer
coordinates, so a file parses back to exactly the boxes generated here.

Generated faces have odd widths and heights that differ from each other. A
face whose centre sits on the anchor lattice's symmetry lines, or a square
face, has pairs of anchors with mathematically equal IoU; which of the pair
wins is then decided by last-bit rounding, which differs between the program
and the brute-force oracles the checks run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

# Program defaults the generators and checks rely on (README "Config file").
STRIDES = (4, 8, 16, 32, 64, 128)
BASE_SCALES = (16, 32, 64, 128, 256, 512)
SCALE_RATIO = 0.68
IOU_THRESHOLD = 0.35
NAMS_FLOOR = 0.1
T = 0.8
K = 3
SIM_QUALITY = 0.9  # `assign --sim-quality` default

# sim-train: images x iterations per round, and the synthetic layout that
# `simulate --synthetic-images` documents (2..4 faces per 640x640 image).
SIM_IMAGES = 4
SIM_ITERS = 8
SIM_FACES = 12
SIM_NOISE = 0.02
SIM_RAMP = (0.0, 0.95)
SIM_IMAGE_SIZE = 640

# crowd-assign: a few ordinary images plus crowd images of small faces.
CROWD_ORDINARY_FACES = (1, 2, 3, 5, 7, 10)  # faces per ordinary image
CROWD_FACES = (150, 200)  # faces per crowd image
CROWD_STRATEGIES = ("hambox", "dms", "nams")

# wider-census: one match-stats sweep over many scale ratios.
CENSUS_ORDINARY = 51
CENSUS_SMALL = 9
CENSUS_RATIOS = "0.4:1.0:0.04"

CANVASES = ((1024, 768), (768, 1024), (1024, 683), (800, 600))
BORDER = 8  # faces end this far from the right and bottom image edges


@dataclass(frozen=True)
class Face:
    x: int
    y: int
    w: int
    h: int
    blur: int = 0
    expression: int = 0
    illumination: int = 0
    invalid: int = 0
    occlusion: int = 0
    pose: int = 0

    @property
    def box(self) -> tuple[float, float, float, float]:
        return (float(self.x), float(self.y), float(self.x + self.w), float(self.y + self.h))


@dataclass(frozen=True)
class Image:
    path: str
    faces: tuple[Face, ...]

    def valid_boxes(self) -> list[tuple[float, float, float, float]]:
        return [f.box for f in self.faces if f.invalid != 1]


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


def _stratified(rng: np.random.Generator, n: int, lo: float, hi: float, log: bool = False) -> list[float]:
    """The n mid-quantiles of a uniform (or log-uniform) range, in seeded order."""
    q = (np.arange(n) + 0.5) / n
    v = np.exp(np.log(lo) + q * (np.log(hi) - np.log(lo))) if log else lo + q * (hi - lo)
    return rng.permutation(v).tolist()


def _odd(v: float) -> int:
    n = max(3, int(round(v)))
    return n if n % 2 else n + 1


def _image(rng: np.random.Generator, path: str, sides: list[float], width: int, height: int) -> Image:
    """Faces of the given sides at seeded positions on a width x height image.

    The layout is shifted so that the valid faces end BORDER pixels from the
    right and bottom edges. The CLI sizes each grid from the faces, so this
    fixes the grid, and with it the work per image, for every seed. An image
    of five or more faces has one face flagged invalid.
    """
    invalid = int(rng.integers(0, len(sides))) if len(sides) >= 5 else -1
    faces = []
    for i, side in enumerate(sides):
        w = _odd(side)
        h = _odd(side * rng.uniform(1.05, 1.35))
        if h == w:
            h += 2
        faces.append(Face(
            int(rng.integers(0, max(1, width - BORDER - w))),
            int(rng.integers(0, max(1, height - BORDER - h))),
            w, h,
            blur=int(rng.integers(0, 3)),
            expression=int(rng.integers(0, 2)),
            illumination=int(rng.integers(0, 2)),
            invalid=int(i == invalid),
            occlusion=int(rng.integers(0, 3)),
            pose=int(rng.integers(0, 2)),
        ))
    valid = [f for f in faces if not f.invalid]
    dx = width - BORDER - max(f.x + f.w for f in valid)
    dy = height - BORDER - max(f.y + f.h for f in valid)
    return Image(path, tuple(replace(f, x=f.x + dx, y=f.y + dy) for f in faces))


def _ordinary_images(rng: np.random.Generator, prefix: str, counts: list[int], hi: float) -> list[Image]:
    """Images with the given face counts; face sides split 4..hi px log-uniformly."""
    sides = _stratified(rng, sum(counts), 4, hi, log=True)
    images = []
    for i, n in enumerate(counts):
        width, height = CANVASES[i % len(CANVASES)]
        images.append(_image(rng, f"{prefix}/{i:04d}.jpg", sides[:n], width, height))
        sides = sides[n:]
    return images


def format_wider(images: list[Image]) -> str:
    lines = []
    for im in images:
        lines.append(im.path)
        lines.append(str(len(im.faces)))
        for f in im.faces:
            lines.append(
                f"{f.x} {f.y} {f.w} {f.h} {f.blur} {f.expression} {f.illumination} "
                f"{f.invalid} {f.occlusion} {f.pose}"
            )
    return "\n".join(lines) + "\n"


def crowd_images(seed: int) -> list[Image]:
    rng = _rng(seed, 2)
    images = _ordinary_images(rng, "ordinary", list(CROWD_ORDINARY_FACES), 400)
    # Crowd images sit among the ordinary ones, not at the end of the file.
    for j, n in enumerate(CROWD_FACES):
        crowd = _image(rng, f"crowd/{j:03d}.jpg", _stratified(rng, n, 4, 20), 360, 280)
        images.insert((j + 1) * len(images) // (len(CROWD_FACES) + 1), crowd)
    return images


def census_images(seed: int) -> list[Image]:
    rng = _rng(seed, 3)
    counts = rng.permutation([1 + i % 8 for i in range(CENSUS_ORDINARY)]).tolist()
    images = _ordinary_images(rng, "ordinary", counts, 300)
    small_counts = [1 + i % 4 for i in range(CENSUS_SMALL)]
    small_sides = _stratified(rng, sum(small_counts), 8, 40)
    for i, n in enumerate(small_counts):
        images.append(_image(rng, f"small/{i:04d}.jpg", small_sides[:n], 200, 200))
        small_sides = small_sides[n:]
    order = rng.permutation(len(images))
    return [images[i] for i in order]


def synthetic_layout(n_images: int, seed: int) -> list[list[tuple[float, float, float, float]]]:
    """Face boxes of `simulate --synthetic-images n_images` under `seed`.

    Re-derived from the layout the simulator documents: per image a Philox
    stream keyed by (seed, image), 2..4 square faces whose side is 0.6..0.7
    of the default anchor side on a random level among the lowest three.
    """
    layout = []
    for i in range(n_images):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(i,))))
        boxes = []
        for _ in range(int(rng.integers(2, 5))):
            level = int(rng.choice((0, 1, 2)))
            side = BASE_SCALES[level] * SCALE_RATIO * rng.uniform(0.6, 0.7)
            x0 = rng.uniform(0.0, SIM_IMAGE_SIZE - side)
            y0 = rng.uniform(0.0, SIM_IMAGE_SIZE - side)
            boxes.append((x0, y0, x0 + side, y0 + side))
        layout.append(boxes)
    return layout


def sim_program_seed(seed: int, oracles) -> int:
    """First program seed at or after 1000 * seed whose set suits sim-train.

    The set must hold SIM_FACES faces: per-pass cost grows with the face
    count, so fixing the total keeps the amount of work per round the same
    for every benchmark seed. And the oracles must compensate some anchor at
    the last iteration. About one layout in forty gives every face K
    step-1 positives or no candidate above T; on such a layout the program
    rightly compensates nothing, and the run would not exercise the online
    compensation it is meant to time.
    """
    import checks  # checks imports this module

    s = 1000 * seed
    while True:
        layout = synthetic_layout(SIM_IMAGES, s)
        if sum(len(b) for b in layout) == SIM_FACES and checks.sim_reference(layout, s, SIM_ITERS - 1, oracles)[0]:
            return s
        s += 1


def parse_ratios(spec: str) -> list[float]:
    start, stop, step = (float(p) for p in spec.split(":"))
    n = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [round(start + k * step, 12) for k in range(n)]


def write_inputs(workload: str, seed: int, work: Path, oracles) -> dict:
    """Write one workload's input files under `work`; return what the run needs."""
    work.mkdir(parents=True, exist_ok=True)
    out = work / "out"
    if workload == "sim-train":
        prog_seed = sim_program_seed(seed, oracles)
        cfg = work / "sim.ini"
        cfg.write_text(
            "[simulator]\n"
            f"noise_sigma = {SIM_NOISE}\n"
            f"quality_ramp = {SIM_RAMP[0]}:{SIM_RAMP[1]}\n"
            f"seed = {prog_seed}\n",
            encoding="utf-8",
        )
        argv = ["--config", str(cfg), "--threads", "1", "--out", str(out), "simulate",
                "--synthetic-images", str(SIM_IMAGES), "--iters", str(SIM_ITERS), "--provenance"]
        return {
            "invocations": [{"name": "simulate", "argv": argv, "passes": SIM_IMAGES * SIM_ITERS, "out": str(out)}],
            "setup": {"config": str(cfg), "synthetic": [SIM_IMAGES, prog_seed]},
            "program_seed": prog_seed,
        }
    if workload == "crowd-assign":
        images = crowd_images(seed)
        gt = work / "crowd_gt.txt"
        gt.write_text(format_wider(images), encoding="utf-8")
        invocations = []
        for strategy in CROWD_STRATEGIES:
            d = out / strategy
            invocations.append({
                "name": strategy,
                "argv": ["--threads", "1", "--out", str(d), "assign", "--annotations", str(gt), "--strategy", strategy],
                "passes": len(images),
                "out": str(d),
            })
        return {"invocations": invocations, "setup": {"annotations": str(gt)}, "images": images}
    if workload == "wider-census":
        images = census_images(seed)
        gt = work / "census_gt.txt"
        gt.write_text(format_wider(images), encoding="utf-8")
        argv = ["--threads", "1", "--out", str(out), "match-stats", "--annotations", str(gt), "--ratios", CENSUS_RATIOS]
        return {
            "invocations": [{"name": "match-stats", "argv": argv,
                             "passes": len(images) * len(parse_ratios(CENSUS_RATIOS)), "out": str(out)}],
            "setup": {"annotations": str(gt)},
            "images": images,
        }
    raise ValueError(f"unknown workload {workload!r}")
