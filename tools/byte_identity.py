"""Check that two hambox source trees write the same bytes for every CLI command.

    python3 tools/byte_identity.py BASE_SRC CHANGE_SRC [--allow FIELD ...]

BASE_SRC and CHANGE_SRC are the `src` directories of two checkouts, for
example a `git archive` of the parent commit and the working tree. Run from
the root of a checkout: the seeded inputs are written by that checkout's
`benchmarks/inputs.py` (the crowd, census and sim-train inputs of seeds 1
and 7, plus hand-set variants, among them faces far from the origin), so
both trees read the same files.

Every invocation runs in its own `python -m hambox.cli` subprocess with
PYTHONPATH set to one tree. Per invocation the tool compares the exit code,
stdout, stderr (which holds the parser's summary of dropped faces), the set
of files written, the sha256 of every output file and every field of
`manifest.json` (nested keys joined with dots, such as
`config.data.annotations`). It also checks that each manifest's `outputs`
holds the sha256 of the file on disk. A field named with `--allow` is
reported when it differs but does not count as a mismatch. The exit code is
1 on any other mismatch, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 7)
STRATEGIES = ("sms", "dms", "nams", "hambox")
# (x, y, w, h) of the 40 faces near x = 2^52 of `tests/test_overlaps.py`.
FAR_XYWH = [(2**52 - 3000 + 50 * i, 800 + 5 * i, 7 + 2 * (i % 30), 9 + 2 * (i % 30)) for i in range(40)]


def write_inputs(work: Path) -> list[tuple[str, list[str]]]:
    """Write the inputs under `work`; return (name, argv) pairs with OUT for the output directory."""
    sys.path[:0] = [str(ROOT / "benchmarks"), str(ROOT)]
    import inputs
    from tests import oracles

    def gt(name: str, images) -> str:
        path = work / name
        path.write_text(inputs.format_wider(images), encoding="utf-8")
        return str(path)

    def ini(name: str, text: str) -> str:
        path = work / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    census = inputs.census_images(3)
    small = gt("small_gt.txt", census[:8])
    braces = gt("braces_gt.txt", [replace(im, path=f"odd/{{x}}%d/{i}}}{{.jpg") for i, im in enumerate(census[8:14])])
    crowd = gt("crowd_gt.txt", inputs.crowd_images(1))
    # Far from the origin: 40 faces near x = 2^52, whose lattice indices reach about 2^58.8, and one face at
    # x = 10,000,000, whose cover grid holds 2.7e8 anchors.
    far_xywh = ini("far_xywh_gt.txt", f"far/a.jpg\n{len(FAR_XYWH)}\n"
                   + "".join(f"{x} {y} {w} {h} 0 0 0 0 0 0\n" for x, y, w, h in FAR_XYWH))
    far_face = ini("far_face_gt.txt", "far/a.jpg\n1\n10000000 10 8 8 0 0 0 0 0 0\n")
    # Malformed, with CRLF line ends: a bad count followed by face lines, a zero count without its placeholder,
    # face lines of 9 and 11 fields, a degenerate face, an out-of-range attribute and a truncated last block.
    malformed = ini("malformed_gt.txt", "\r\n".join([
        "bad/a.jpg", "2", "10 20 30 40 0 0 0 0 0 0", "50 60 20 24 1 0 0 0 1 0",
        "bad/b.jpg", "two", "12 14 30 30 0 0 0 0 0 0", "40 40 16 16 0 0 0 0 0 0",
        "bad/c.jpg", "0",
        "bad/d.jpg", "5", "10 10 40 40 0 0 0 0 0", "30 30 0 12 0 0 0 0 0 0", "60 60 20 20 3 0 0 0 0 0",
        "80 20 24 28 0 0 0 0 0 0", "100 100 30 30 0 0 0 0 0 0 0", "",
        "bad/e.jpg", "3", "20 20 32 32 0 0 0 0 0 0",
    ]))
    grid_ini = ini("grid.ini", "[anchors]\nstrides = 16, 32\nbase_scales = 40, 80\nscale_ratio = 1.0\n")
    noisy_ini = ini("noisy.ini", "[simulator]\nnoise_sigma = 0.05\nq = 0.8\n[compensation]\nk = 5\n")
    min_side_ini = ini("min_side.ini", "[data]\nmin_side = 6\n")
    # Jitter of several cells: the regressed search's windows grow past their one-cell slack.
    wide_noise_ini = ini("wide_noise.ini", "[simulator]\nnoise_sigma = 0.5\nq = 0.7\n[compensation]\nT = 0.5\n")
    # Every anchor scores alike, so the provenance NMS reads boxes that meet no face.
    flat_ini = ini("flat.ini", "[anchors]\nstrides = 16, 32\nbase_scales = 40, 80\n"
                   "[simulator]\nnoise_sigma = 0.3\nscore_scale = 0\n")
    # The same with a scorer that ranks boxes that meet no face above the others.
    negative_ini = ini("negative.ini", "[anchors]\nstrides = 16, 32\nbase_scales = 40, 80\n"
                       "[simulator]\nnoise_sigma = 0.3\nscore_scale = -3\n")

    tall_ini = ini("tall.ini", "[anchors]\nstrides = 6, 12, 24, 48\nbase_scales = 20, 44, 90, 170\n"
                   "aspect_ratio = 1.3\n[match]\niou_threshold = 0.6\n")
    # Fractional strides: every window bound divides inexactly, on the census and the grid paths.
    frac_ini = ini("frac.ini", "[anchors]\nstrides = 3.5, 7.25, 14.5\nbase_scales = 11, 23.5, 47\n")
    # `assign` runs one iteration at q and leaves the ramp to `simulate`.
    ramp_ini = ini("ramp.ini", "[simulator]\nq = 0.7\nquality_ramp = 0.1:0.95\n")
    # The sim-train shape at a seed of its own: a ramp, light noise and provenance over 4 images x 8 iterations.
    sim_train_ini = ini("sim_train.ini", "[simulator]\nnoise_sigma = 0.02\nquality_ramp = 0:0.95\nseed = 21\n")
    # The census's threshold windows at their extremes: almost the overlap window, and exact matches only.
    low_ini = ini("iou_low.ini", "[match]\niou_threshold = 0.01\n")
    high_ini = ini("iou_high.ini", "[match]\niou_threshold = 1.0\n")

    runs = [
        ("anchors-640", ["anchors"]),
        ("anchors-2048", ["anchors", "--width", "2048", "--height", "2048"]),
        ("anchors-97x61", ["anchors", "--width", "97", "--height", "61"]),
        ("anchors-config", ["--config", grid_ini, "anchors", "--width", "300", "--height", "170"]),
        ("match-stats-default", ["match-stats", "--annotations", small]),
        ("match-stats-sweep", ["--threads", "2", "match-stats", "--annotations", small, "--ratios", "0.3:1.2:0.1"]),
        ("match-stats-min-side", ["--config", min_side_ini, "match-stats", "--annotations", small,
                                  "--ratios", "0.5:0.9:0.2"]),
        # The crowd-assign file at 301 ratios: its 150- and 200-face images take several census passes each.
        ("match-stats-crowd-fine", ["match-stats", "--annotations", crowd, "--ratios", "0.4:1.0:0.002"]),
        ("match-stats-tall", ["--config", tall_ini, "match-stats", "--annotations", small, "--ratios", "0.5:1.5:0.25"]),
        ("match-stats-frac", ["--config", frac_ini, "match-stats", "--annotations", small, "--ratios", "0.4:1.6:0.05"]),
        ("match-stats-frac-crowd", ["--config", frac_ini, "match-stats", "--annotations", crowd,
                                    "--ratios", "0.5:1.0:0.1"]),
        ("match-stats-bad-ratio", ["match-stats", "--annotations", small, "--ratios", "1:0:1"]),
        ("match-stats-iou-low", ["--config", low_ini, "match-stats", "--annotations", small,
                                 "--ratios", "0.3:1.5:0.1"]),
        ("match-stats-iou-high", ["--config", high_ini, "match-stats", "--annotations", small,
                                  "--ratios", "0.3:1.5:0.1"]),
        ("match-stats-crowd-iou-low", ["--config", low_ini, "match-stats", "--annotations", crowd,
                                       "--ratios", "0.4:1.0:0.05"]),
        ("match-stats-crowd-iou-high", ["--config", high_ini, "match-stats", "--annotations", crowd,
                                        "--ratios", "0.4:1.0:0.05"]),
        ("simulate-synthetic", ["--seed", "4", "simulate", "--synthetic-images", "3", "--iters", "3", "--provenance"]),
        ("simulate-threads", ["--seed", "4", "--threads", "2", "simulate", "--synthetic-images", "3", "--iters", "2"]),
        ("simulate-annotations", ["--seed", "2", "simulate", "--annotations", small, "--iters", "2", "--provenance"]),
        ("simulate-noisy", ["--config", noisy_ini, "--seed", "9", "simulate", "--synthetic-images", "2", "--iters", "2"]),
        ("simulate-wide-noise", ["--config", wide_noise_ini, "--seed", "8", "--threads", "2", "simulate",
                                 "--synthetic-images", "3", "--iters", "3", "--provenance"]),
        ("simulate-flat-scorer", ["--config", flat_ini, "--seed", "5", "simulate", "--synthetic-images", "2",
                                  "--iters", "2", "--provenance"]),
        ("simulate-negative-scorer", ["--config", negative_ini, "--seed", "5", "simulate", "--synthetic-images",
                                      "2", "--iters", "2", "--provenance"]),
        ("simulate-sim-train-shape", ["--config", sim_train_ini, "simulate", "--synthetic-images", "4",
                                      "--iters", "8", "--provenance"]),
        ("simulate-noisy-annotations", ["--config", noisy_ini, "--seed", "6", "simulate", "--annotations", crowd,
                                        "--iters", "2", "--provenance"]),
        # The crowd over two iterations: every-anchor and windowed rows, and the flat scorer's provenance fallback.
        ("simulate-crowd-wide-noise", ["--config", wide_noise_ini, "--seed", "3", "simulate", "--annotations", crowd,
                                       "--iters", "2", "--provenance"]),
        ("simulate-crowd-flat-scorer", ["--config", flat_ini, "--seed", "3", "simulate", "--annotations", crowd,
                                        "--iters", "2", "--provenance"]),
        ("loss-check", ["--seed", "3", "loss-check", "--trials", "5"]),
    ]
    for strategy in STRATEGIES:
        for threads in ("1", "2"):
            runs.append((f"assign-{strategy}-t{threads}", ["--seed", "5", "--threads", threads, "assign",
                                                           "--annotations", small, "--strategy", strategy]))
    for strategy in ("sms", "hambox"):
        runs.append((f"assign-braces-{strategy}", ["assign", "--annotations", braces, "--strategy", strategy]))
    # Non-default lattices: tall anchors on four levels, and two coarse levels.
    for name, ini_path in (("tall", tall_ini), ("grid", grid_ini)):
        for strategy in STRATEGIES:
            runs.append((f"assign-{name}-{strategy}", ["--config", ini_path, "--seed", "2", "assign",
                                                        "--annotations", small, "--strategy", strategy]))
    for strategy in ("sms", "hambox"):
        runs.append((f"assign-frac-{strategy}", ["--config", frac_ini, "--seed", "3", "assign", "--annotations", small,
                                                 "--strategy", strategy]))
    runs.append(("assign-frac-crowd-hambox", ["--config", frac_ini, "assign", "--annotations", crowd,
                                              "--strategy", "hambox"]))
    runs.append(("assign-ramp-hambox", ["--config", ramp_ini, "--seed", "4", "assign", "--annotations", small,
                                        "--strategy", "hambox"]))
    # The crowd-assign file: 150- and 200-face images.
    runs.append(("assign-crowd-sms", ["assign", "--annotations", crowd, "--strategy", "sms"]))
    runs.append(("assign-crowd-hambox-t2", ["--threads", "2", "assign", "--annotations", crowd, "--strategy", "hambox"]))
    runs.append(("assign-noisy", ["--config", noisy_ini, "assign", "--annotations", small, "--strategy", "hambox"]))
    runs.append(("assign-noisy-crowd", ["--config", noisy_ini, "--threads", "2", "assign", "--annotations", crowd,
                                        "--strategy", "hambox"]))
    runs.append(("assign-wide-noise", ["--config", wide_noise_ini, "--seed", "3", "assign", "--annotations", small,
                                       "--strategy", "hambox"]))
    # Jitter past the windows' limit on 2 of the 8 crowd images: every anchor is a row there.
    runs.append(("assign-crowd-wide-noise", ["--config", wide_noise_ini, "assign", "--annotations", crowd,
                                             "--strategy", "hambox"]))
    for strategy in STRATEGIES:
        runs.append((f"assign-far-xywh-{strategy}", ["assign", "--annotations", far_xywh, "--strategy", strategy]))
    runs.append(("match-stats-far-xywh", ["match-stats", "--annotations", far_xywh, "--ratios", "0.5:1.0:0.1"]))
    runs.append(("assign-far-face-hambox", ["assign", "--annotations", far_face, "--strategy", "hambox"]))
    runs.append(("match-stats-far-face", ["match-stats", "--annotations", far_face]))
    for strategy in ("sms", "hambox"):
        runs.append((f"assign-malformed-{strategy}", ["assign", "--annotations", malformed, "--strategy", strategy]))
    runs.append(("match-stats-malformed", ["match-stats", "--annotations", malformed]))
    runs.append(("assign-T-K", ["--seed", "6", "assign", "--annotations", small, "--strategy", "hambox",
                                "--sim-quality", "1.0", "--T", "0.6", "--K", "4"]))
    # `min_side` through every reader of the face rule: of the crowd file's 378 faces, 5 are flagged invalid
    # and min_side = 6 drops 34 more.
    for strategy in ("sms", "hambox"):
        runs.append((f"assign-min-side-{strategy}", ["--config", min_side_ini, "assign", "--annotations", crowd,
                                                     "--strategy", strategy]))
    runs.append(("simulate-min-side", ["--config", min_side_ini, "simulate", "--annotations", crowd, "--iters", "1"]))
    for seed in SEEDS:
        for workload in ("sim-train", "crowd-assign", "wider-census"):
            spec = inputs.write_inputs(workload, seed, work / f"{workload}-{seed}", oracles)
            for inv in spec["invocations"]:
                argv = list(inv["argv"])
                argv[argv.index("--out") + 1] = "OUT"
                runs.append((f"{workload}-{seed}-{inv['name']}", argv))
    for i, (name, argv) in enumerate(runs):
        if "--out" not in argv:
            runs[i] = (name, ["--out", "OUT"] + argv)
    return runs


def run_tree(src: str, argv: list[str], out: Path) -> dict:
    """Run one invocation against one tree; return what it wrote and printed."""
    env = dict(os.environ, PYTHONPATH=src)
    argv = [str(out) if a == "OUT" else a for a in argv]
    proc = subprocess.run([sys.executable, "-m", "hambox.cli", *argv], env=env, capture_output=True, text=True)
    files = {}
    manifest = {}
    if out.is_dir():
        for path in sorted(out.iterdir()):
            if path.name == "manifest.json":
                manifest = flatten(json.loads(path.read_text(encoding="utf-8")))
            else:
                files[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr, "files": files,
            "manifest": manifest}


def flatten(obj, prefix: str = "") -> dict:
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            out.update(flatten(v, f"{prefix}{k}."))
        return out
    return {prefix[:-1]: obj}


def compare(base: dict, change: dict, allow: set[str]) -> tuple[list[str], list[str]]:
    """(mismatches, allowed differences) between two runs of one invocation."""
    bad, allowed = [], []
    for key in ("code", "stdout", "stderr"):
        if base[key] != change[key]:
            bad.append(f"{key}: {base[key]!r} vs {change[key]!r}")
    for name in sorted(base["files"].keys() | change["files"].keys()):
        if base["files"].get(name) != change["files"].get(name):
            bad.append(f"{name} differs")
    for side, run in (("base", base), ("change", change)):
        for name, digest in run["files"].items():
            if run["manifest"].get(f"outputs.{name}") != digest:
                bad.append(f"{side} manifest outputs.{name} is not the sha256 of the file")
    for field in sorted(base["manifest"].keys() | change["manifest"].keys()):
        b, c = base["manifest"].get(field), change["manifest"].get(field)
        if b != c:
            (allowed if field in allow else bad).append(f"manifest {field}: {b!r} vs {c!r}")
    return bad, allowed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_src")
    parser.add_argument("change_src")
    parser.add_argument("--allow", action="append", default=[], metavar="FIELD",
                        help="manifest field whose differences are reported but allowed")
    args = parser.parse_args()
    srcs = {"base": str(Path(args.base_src).resolve()), "change": str(Path(args.change_src).resolve())}
    for src in srcs.values():
        if not (Path(src) / "hambox" / "cli.py").is_file():
            print(f"error: {src} holds no hambox package", file=sys.stderr)
            return 2
    failed = 0
    with tempfile.TemporaryDirectory(prefix="byte-identity-") as tmp:
        work = Path(tmp)
        runs = write_inputs(work)
        for name, argv in runs:
            result = {side: run_tree(src, argv, work / side / name) for side, src in srcs.items()}
            bad, allowed = compare(result["base"], result["change"], set(args.allow))
            files = ", ".join(result["base"]["files"]) or "no files"
            print(f"{'DIFF' if bad else 'same'} {name} (exit {result['base']['code']}; {files})")
            for line in bad:
                print(f"    mismatch: {line}")
            for line in allowed:
                print(f"    allowed: {line}")
            failed += bool(bad)
    print(f"{len(runs) - failed} of {len(runs)} invocations identical")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
