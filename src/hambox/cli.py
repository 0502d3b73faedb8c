"""Command-line surface: CSV emitters for anchors, matching stats, assignments,
simulation runs, and the gradient self-check.

Exit codes: 0 success, 1 analysis failure, 2 usage/IO/config error. Every
command hands its files to ``_emit``, which writes them and a
``manifest.json`` recording the config snapshot, seed, tool version, and the
sha256 of each file's bytes as written; reruns with identical inputs produce
byte-identical outputs regardless of ``--threads``.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import hashlib
import json
import math
import string
import sys
from dataclasses import asdict, astuple, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .anchors import MAX_ANCHORS, _pair_rows, cover_image_size, generate_anchors
from .assignment import _ROW_MATCHERS, SOURCE_NAMES, SOURCE_STEP1
from .geometry import elementwise_iou
from .ingest import (
    STRATEGIES,
    ConfigError,
    DataSettings,
    ImageRecord,
    ToolConfig,
    _map_images,
    filter_valid,
    load_config,
    load_wider_annotations,
)
from .losses import gradient_check
from .simulator import RegressorModel, linear_ramp, mine_image, run_simulation, synthetic_dataset
from .stats import EmptyDatasetError, provenance_csv, scale_ratio_sweep

EXIT_OK = 0
EXIT_ANALYSIS = 1
EXIT_USAGE = 2

MAX_RATIOS = 10_000  # a --ratios spec that yields more exits 2

# glibc mallopt parameters (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _keep_freed_heap() -> None:
    """Fix glibc's allocator thresholds so freed work arrays stay in the heap.

    A large grid's per-image arrays are 0.5 to 4 MB. Under glibc's defaults
    the mmap and trim thresholds move with the sizes freed so far, so whether
    the top of the heap goes back to the kernel after an image, and is
    faulted in again for the next one, depends on where small objects landed:
    repeated `assign` runs over one crowd file took 3,000 to 74,000 page
    faults per pass, and `--strategy hambox` up to 12% longer, as only the
    length of the environment or of the paths changed. Arrays up to 32 MB
    now come from the heap, which keeps up to 64 MB free at its top. A no-op
    off Linux and where mallopt is missing.
    """
    if not sys.platform.startswith("linux"):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def _rows(template: str, *columns) -> str:
    """One line per row: `template` filled with that row's entry of every column.

    Each column formats each distinct value once (a float per bit pattern,
    so -0.0 keeps its sign) and indexes the strings. The lines are then
    joined from the literals and column strings, with no format call per
    row.
    """
    slots, cols = [], iter(columns)
    for text, name, spec, _ in string.Formatter().parse(template + "\n"):
        if text:
            slots.append(text)
        if name is None:
            continue
        col = np.asarray(next(cols))
        key = col.view(np.int64) if col.dtype == np.float64 else col
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        slots.append(np.array([format(v, spec) for v in col[first].tolist()], dtype=object)[inverse].tolist())
    n = max((len(slot) for slot in slots if isinstance(slot, list)), default=0)
    parts = [""] * (n * len(slots))
    for i, slot in enumerate(slots):
        parts[i :: len(slots)] = slot if isinstance(slot, list) else [slot] * n
    return "".join(parts)


def _emit(out: str, cfg: ToolConfig, texts: dict[str, str]) -> int:
    """Write each named text under `out`, then manifest.json with the sha256
    of the bytes written."""
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    checksums = {}
    for name, text in texts.items():
        data = text.encode("utf-8")
        (out_dir / name).write_bytes(data)
        checksums[name] = hashlib.sha256(data).hexdigest()
    manifest = {
        "tool_version": __version__,
        "seed": cfg.simulator.seed,
        "config": asdict(cfg),  # json writes tuples as arrays
        "outputs": checksums,
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return EXIT_OK


def _load_dataset(data: DataSettings) -> list[ImageRecord]:
    if data.annotations is None:
        raise ValueError("no annotations: pass --annotations or set [data] annotations")
    records = filter_valid(load_wider_annotations(data.annotations), data.min_side)
    if not any(rec.faces for rec in records):
        raise EmptyDatasetError(f"no valid faces in {data.annotations}")
    return records


def _parse_ratio_spec(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"ratio spec must be start:stop:step, got {spec!r}")
    start, stop, step = (float(p) for p in parts)
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError(f"ratio spec must be finite numbers, got {spec!r}")
    if step <= 0:
        raise ValueError(f"ratio step must be > 0, got {step}")
    if round(start, 12) <= 0 < start:  # ratios only grow from start, and so does their rounding
        raise ValueError(f"ratio spec {spec!r}: ratio {start!r} rounds to 0 at 12 decimals")
    span = (stop - start) / step + 1e-9  # ratios past start, with a tolerance relative to step
    if span >= MAX_RATIOS:
        raise ValueError(f"ratio spec {spec!r} yields more than {MAX_RATIOS} ratios")
    if span < 0:
        raise ValueError(f"ratio spec {spec!r} yields no ratios")
    ratios = []
    for k in range(math.floor(span) + 1):
        r = start + k * step
        if r + step == r:  # a step below r's precision would repeat r
            raise ValueError(f"ratio spec {spec!r}: step {step!r} does not advance from {r!r}")
        if ratios and round(r, 12) == ratios[-1]:
            raise ValueError(f"ratio spec {spec!r}: ratio {r!r} repeats {ratios[-1]!r} at 12 decimals")
        ratios.append(round(r, 12))
    return ratios


def cmd_anchors(args: argparse.Namespace, cfg: ToolConfig) -> int:
    grid = generate_anchors(cfg.anchors, args.width, args.height)
    if len(grid) > MAX_ANCHORS:
        raise ValueError(
            f"an anchor grid of {args.width}x{args.height} px holds {len(grid)} anchors, more than {MAX_ANCHORS}"
        )
    rows = _rows("{},{},{},{:.10g},{:.10g},{:.10g},{:.10g}", grid.level_of, *grid.cell_of.T, *grid.boxes.T)
    return _emit(args.out, cfg, {"anchors.csv": "level,row,col,x0,y0,x1,y1\n" + rows})


def cmd_match_stats(args: argparse.Namespace, cfg: ToolConfig) -> int:
    ratios = _parse_ratio_spec(args.ratios)
    records = _load_dataset(cfg.data)
    points = scale_ratio_sweep(records, cfg.anchors, ratios, cfg.match.iou_threshold)
    rows = _rows("{:.10g},{:.10g},{:.10g}", *zip(*map(astuple, points)))
    return _emit(args.out, cfg, {"scale_curve.csv": "ratio,mean_anchors_per_face,fraction_faces_matched\n" + rows})


_SOURCE_LABELS = np.array([SOURCE_NAMES[code] for code in sorted(SOURCE_NAMES)])


def _assign_image(record: ImageRecord, cfg: ToolConfig, model: RegressorModel, stream: int) -> str:
    """The image's `assign.csv` rows: its positives, then (hambox) its ignored anchors.

    `model` regresses the anchors under hambox; other strategies ignore it.

    The rows of the work are the anchors that meet a face (`_pair_rows`),
    and under hambox with noise also the anchors that jitter can carry onto
    a face (`mine_image`). Nothing of the grid's size is built but the
    noise draw and its bound.
    """
    faces = record.face_boxes()
    grid = generate_anchors(cfg.anchors, *cover_image_size(faces, cfg.anchors))
    mined = None
    if cfg.strategy == "hambox":  # compensation against simulated predictions
        mined = next(mine_image(grid, faces, model, 1, stream, cfg.match, cfg.compensation))
        rows, assignment = mined.rows, mined.assigned
    else:
        rows, pairs = _pair_rows(grid, faces)
        assignment = _ROW_MATCHERS[cfg.strategy](grid.boxes_at(rows), faces, pairs, cfg.match)

    pos = np.flatnonzero(assignment.positive)
    source = assignment.source[pos]
    face = assignment.face_of[pos]
    anchor = rows[pos]
    # A positive's IoU is that of the box that earned it: the anchor, or its
    # regressed box when compensated online.
    boxes = grid.boxes_at(anchor)
    if mined is not None:
        comp = source > SOURCE_STEP1
        boxes[comp] = mined.regressed[pos[comp]]
    path = record.path.replace("{", "{{").replace("}", "}}")
    text = _rows(
        path + ",{},{},positive,{},{},{:.10g}",
        anchor, grid.levels_at(anchor), face, _SOURCE_LABELS[source], elementwise_iou(boxes, faces[face]),
    )
    if mined is not None:
        ign = np.flatnonzero(mined.ignore)
        anchor = rows[ign]
        text += _rows(path + ",{},{},ignore,,none,{:.10g}", anchor, grid.levels_at(anchor), mined.quality.F[ign])
    return text


def cmd_assign(args: argparse.Namespace, cfg: ToolConfig) -> int:
    records = _load_dataset(cfg.data)
    model = RegressorModel.from_settings(cfg.simulator)
    blocks = _map_images(lambda i: _assign_image(records[i], cfg, model, i), len(records), args.threads)
    return _emit(args.out, cfg, {"assign.csv": "image,anchor,level,label,face,source,iou\n" + "".join(blocks)})


def cmd_simulate(args: argparse.Namespace, cfg: ToolConfig) -> int:
    sim = cfg.simulator
    if cfg.data.annotations is not None:
        dataset = _load_dataset(cfg.data)
        image_size = None
    else:
        dataset = synthetic_dataset(args.synthetic_images, seed=sim.seed)
        image_size = (640, 640)
    ramp = None
    if sim.quality_ramp is not None:
        ramp = linear_ramp(sim.quality_ramp[0], sim.quality_ramp[1], args.iters)
    model = RegressorModel.from_settings(sim, ramp)
    records, report = run_simulation(
        dataset,
        cfg.anchors,
        cfg.compensation,
        cfg.loss,
        model,
        args.iters,
        match_params=cfg.match,
        image_size=image_size,
        scorer_scale=sim.score_scale,
        scorer_bias=sim.score_bias,
        threads=args.threads,
        provenance=args.provenance,
    )
    # SimulationRecord's fields are the CSV's columns; mean_com_iou is empty when unset.
    columns = list(zip(*map(astuple, records)))
    columns[6] = ["" if m is None else f"{m:.10g}" for m in columns[6]]
    texts = {
        "simulation.csv": "iter,cls_com,cls_norm,loc_com,loc_norm,n_com,mean_com_iou,n_ignored\n"
        + _rows("{},{:.10g},{:.10g},{:.10g},{:.10g},{},{},{}", *columns)
    }
    if report is not None:
        texts["provenance.csv"] = provenance_csv(report)
    return _emit(args.out, cfg, texts)


def cmd_loss_check(args: argparse.Namespace, cfg: ToolConfig) -> int:
    if args.trials < 1:
        print(f"error: --trials must be >= 1, got {args.trials}", file=sys.stderr)
        return EXIT_USAGE
    worst, worst_case = gradient_check(cfg.simulator.seed, args.trials, corrupt=args.corrupt_gradient)
    print(f"max relative gradient error over {args.trials} trials: {worst:.3e}")
    if worst >= 1e-4:
        print(f"worst case: {worst_case}", file=sys.stderr)
        return EXIT_ANALYSIS
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hambox",
        description="Anchor mining pipeline: grids, matching strategies, losses, statistics.",
    )
    parser.add_argument("--config", help="path to INI config file")
    parser.add_argument("--seed", type=int, default=None, help="seed override (default: [simulator] seed)")
    parser.add_argument("--threads", type=int, default=1, help="worker threads for per-image work")
    parser.add_argument("--out", default=".", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("anchors", help="dump the anchor grid as CSV")
    p.add_argument("--width", type=int, default=640)
    p.add_argument("--height", type=int, default=640)
    p.set_defaults(func=cmd_anchors)

    p = sub.add_parser("match-stats", help="scale-ratio matching sweep")
    p.add_argument("--annotations", default=None, help="override of [data] annotations")
    p.add_argument("--ratios", default="0.68:0.68:1", help="start:stop:step")
    p.set_defaults(func=cmd_match_stats)

    p = sub.add_parser("assign", help="dump per-image assignments")
    p.add_argument("--annotations", default=None, help="override of [data] annotations")
    p.add_argument("--strategy", choices=STRATEGIES, default=None, help="matcher override")
    p.add_argument("--sim-quality", type=float, default=None, help="regressor quality q override for hambox")
    p.add_argument("--T", type=float, default=None, help="online admission threshold override")
    p.add_argument("--K", type=int, default=None, help="per-face positive budget override")
    p.set_defaults(func=cmd_assign)

    p = sub.add_parser("simulate", help="run the simulated training loop")
    p.add_argument("--annotations", default=None, help="override of [data] annotations")
    p.add_argument("--synthetic-images", type=int, default=20)
    p.add_argument("--iters", type=int, default=50)
    p.add_argument("--T", type=float, default=None, help="online admission threshold override")
    p.add_argument("--K", type=int, default=None, help="per-face positive budget override")
    p.add_argument(
        "--provenance",
        action="store_true",
        help="also write provenance.csv for the final iteration",
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("loss-check", help="finite-difference gradient verification")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--corrupt-gradient", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_loss_check)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    _keep_freed_heap()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    if args.threads < 1:
        print(f"error: --threads must be >= 1, got {args.threads}", file=sys.stderr)
        return EXIT_USAGE
    try:
        cfg = load_config(args.config) if args.config else ToolConfig()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # Override flags land in cfg, validated like config values, so commands
    # and the manifest see one config.
    flags = {k: v for k, v in vars(args).items() if v is not None}
    try:
        if "strategy" in flags:
            cfg = replace(cfg, strategy=flags["strategy"])
        sim = {k: flags[f] for k, f in (("q", "sim_quality"), ("seed", "seed")) if f in flags}
        cfg = replace(cfg, simulator=replace(cfg.simulator, **sim))
        comp = {k: flags[k] for k in ("T", "K") if k in flags}
        cfg = replace(cfg, compensation=replace(cfg.compensation, **comp))
        if "annotations" in flags:
            cfg = replace(cfg, data=replace(cfg.data, annotations=flags["annotations"]))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args, cfg)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EmptyDatasetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
