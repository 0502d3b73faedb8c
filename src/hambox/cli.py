"""Command-line surface: CSV emitters for anchors, matching stats, assignments,
simulation runs, and the gradient self-check.

Exit codes: 0 success, 1 analysis failure, 2 usage/IO/config error. Every
command writes a ``manifest.json`` recording the config snapshot, seed, tool
version, and a sha256 per output file; reruns with identical inputs produce
byte-identical outputs regardless of ``--threads``.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import hashlib
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .anchors import cover_image_size, generate_anchors
from .assignment import SOURCE_NAMES, SOURCE_STEP1, match_first_step, match_nams, match_two_step
from .geometry import elementwise_iou
from .ingest import (
    STRATEGIES,
    ConfigError,
    ImageRecord,
    ToolConfig,
    config_as_dict,
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


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _write_output(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")


def _write_manifest(out_dir: Path, cfg: ToolConfig, seed: int, outputs: Sequence[Path]) -> None:
    checksums = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in outputs
    }
    manifest = {
        "tool_version": __version__,
        "seed": seed,
        "config": config_as_dict(cfg),
        "outputs": checksums,
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _load_dataset(annotations: str, min_side: float) -> list[ImageRecord]:
    records = filter_valid(load_wider_annotations(annotations), min_side)
    if not any(rec.faces for rec in records):
        raise EmptyDatasetError(f"no valid faces in {annotations}")
    return records


def _parse_ratio_spec(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"ratio spec must be start:stop:step, got {spec!r}")
    start, stop, step = (float(p) for p in parts)
    if step <= 0:
        raise ValueError(f"ratio step must be > 0, got {step}")
    ratios = []
    r = start
    while r <= stop + 1e-9:
        ratios.append(round(r, 12))
        r += step
    if not ratios:
        raise ValueError(f"ratio spec {spec!r} yields no ratios")
    return ratios


def cmd_anchors(args: argparse.Namespace, cfg: ToolConfig) -> int:
    grid = generate_anchors(cfg.anchors, args.width, args.height)
    lines = ["level,row,col,x0,y0,x1,y1"]
    for i in range(len(grid)):
        r, c = grid.cell_of[i]
        b = grid.boxes[i]
        lines.append(
            f"{grid.level_of[i]},{r},{c},{_fmt(b[0])},{_fmt(b[1])},{_fmt(b[2])},{_fmt(b[3])}"
        )
    out = Path(args.out) / "anchors.csv"
    _write_output(out, "\n".join(lines) + "\n")
    _write_manifest(Path(args.out), cfg, args.seed, [out])
    return EXIT_OK


def cmd_match_stats(args: argparse.Namespace, cfg: ToolConfig) -> int:
    ratios = _parse_ratio_spec(args.ratios)
    records = _load_dataset(args.annotations, cfg.data.min_side)
    points = scale_ratio_sweep(
        records, cfg.anchors, ratios, cfg.match.iou_threshold, threads=args.threads
    )
    lines = ["ratio,mean_anchors_per_face,fraction_faces_matched"]
    for p in points:
        lines.append(
            f"{_fmt(p.scale_ratio)},{_fmt(p.mean_anchors_per_face)},{_fmt(p.fraction_faces_matched)}"
        )
    out = Path(args.out) / "scale_curve.csv"
    _write_output(out, "\n".join(lines) + "\n")
    _write_manifest(Path(args.out), cfg, args.seed, [out])
    return EXIT_OK


def _assign_image(record: ImageRecord, cfg: ToolConfig, seed: int, stream: int) -> list[str]:
    faces = record.face_boxes()
    grid = generate_anchors(cfg.anchors, *cover_image_size(faces, cfg.anchors))
    ignore = None
    claim_iou = None
    if cfg.strategy == "sms":
        assignment = match_first_step(grid, faces, cfg.match)
    elif cfg.strategy == "dms":
        assignment = match_two_step(grid, faces, cfg.match)
    elif cfg.strategy == "nams":
        assignment = match_nams(grid, faces, cfg.match)
    else:  # hambox: compensation against simulated predictions
        model = RegressorModel(q=cfg.simulator.q, noise_sigma=cfg.simulator.noise_sigma, seed=seed)
        mined = next(mine_image(grid, faces, model, 1, stream, cfg.match, cfg.compensation))
        assignment, ignore = mined.assigned, mined.ignore
        comp = assignment.source > SOURCE_STEP1
        claim_iou = np.zeros(len(grid))
        if np.any(comp):
            claim_iou[comp] = elementwise_iou(mined.regressed[comp], faces[assignment.face_of[comp]])
        claim_iou[ignore] = mined.quality.F[ignore]

    lines = []
    pos = np.flatnonzero(assignment.face_of >= 0)
    step1_iou = np.zeros(len(grid))
    if pos.size:
        step1_iou[pos] = elementwise_iou(grid.boxes[pos], faces[assignment.face_of[pos]])
    for a in pos:
        src = SOURCE_NAMES[int(assignment.source[a])]
        iou_val = step1_iou[a]
        if claim_iou is not None and assignment.source[a] > SOURCE_STEP1:
            iou_val = claim_iou[a]
        lines.append(
            f"{record.path},{a},{grid.level_of[a]},positive,{assignment.face_of[a]},{src},{_fmt(iou_val)}"
        )
    if ignore is not None:
        for a in np.flatnonzero(ignore):
            lines.append(
                f"{record.path},{a},{grid.level_of[a]},ignore,,none,{_fmt(claim_iou[a])}"
            )
    return lines


def cmd_assign(args: argparse.Namespace, cfg: ToolConfig) -> int:
    records = _load_dataset(args.annotations, cfg.data.min_side)

    def work(i: int) -> list[str]:
        return _assign_image(records[i], cfg, args.seed, i)

    if args.threads > 1:
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            blocks = list(pool.map(work, range(len(records))))
    else:
        blocks = [work(i) for i in range(len(records))]
    lines = ["image,anchor,level,label,face,source,iou"]
    for block in blocks:
        lines.extend(block)
    out = Path(args.out) / "assign.csv"
    _write_output(out, "\n".join(lines) + "\n")
    _write_manifest(Path(args.out), cfg, args.seed, [out])
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace, cfg: ToolConfig) -> int:
    sim = cfg.simulator
    if args.annotations:
        dataset = _load_dataset(args.annotations, cfg.data.min_side)
        image_size = None
    else:
        dataset = synthetic_dataset(args.synthetic_images, seed=args.seed)
        image_size = (640, 640)
    ramp = None
    if sim.quality_ramp is not None:
        ramp = linear_ramp(sim.quality_ramp[0], sim.quality_ramp[1], args.iters)
    model = RegressorModel(q=sim.q, noise_sigma=sim.noise_sigma, seed=args.seed, quality_ramp=ramp)
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
    lines = ["iter,cls_com,cls_norm,loc_com,loc_norm,n_com,mean_com_iou,n_ignored"]
    for r in records:
        mean = "" if r.mean_compensated_iou is None else _fmt(r.mean_compensated_iou)
        lines.append(
            f"{r.iteration},{_fmt(r.cls_compensated)},{_fmt(r.cls_normal)},"
            f"{_fmt(r.loc_compensated)},{_fmt(r.loc_normal)},{r.n_compensated},{mean},{r.n_ignored}"
        )
    out = Path(args.out) / "simulation.csv"
    _write_output(out, "\n".join(lines) + "\n")
    outputs = [out]
    if report is not None:
        prov = Path(args.out) / "provenance.csv"
        _write_output(prov, provenance_csv(report))
        outputs.append(prov)
    _write_manifest(Path(args.out), cfg, args.seed, outputs)
    return EXIT_OK


def cmd_loss_check(args: argparse.Namespace, cfg: ToolConfig) -> int:
    if args.trials < 1:
        print(f"error: --trials must be >= 1, got {args.trials}", file=sys.stderr)
        return EXIT_USAGE
    worst, worst_case = gradient_check(args.seed, args.trials, corrupt=args.corrupt_gradient)
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
    p.add_argument("--annotations", required=True)
    p.add_argument("--ratios", default="0.68:0.68:1", help="start:stop:step")
    p.set_defaults(func=cmd_match_stats)

    p = sub.add_parser("assign", help="dump per-image assignments")
    p.add_argument("--annotations", required=True)
    p.add_argument("--strategy", choices=STRATEGIES, default=None, help="matcher override")
    p.add_argument("--sim-quality", type=float, default=None, help="regressor quality q override for hambox")
    p.add_argument("--T", type=float, default=None, help="online admission threshold override")
    p.add_argument("--K", type=int, default=None, help="per-face positive budget override")
    p.set_defaults(func=cmd_assign)

    p = sub.add_parser("simulate", help="run the simulated training loop")
    p.add_argument("--annotations", default=None)
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    args.seed = cfg.simulator.seed
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
