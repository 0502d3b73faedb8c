"""End-to-end benchmark of the hambox CLI.

    python3 benchmarks/run.py --workload sim-train --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The run writes seeded inputs under
benchmarks/work/, times the set-up in several fresh processes, runs the
workload's CLI invocations in one child process for --seconds, checks the
outputs against the oracles, and prints one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are images_per_s, peak_rss_mb and setup_s. With
--trace 1 an untraced child and a traced child share the seconds; the
metrics are the per-layer numbers of the traced child, per round, and the
full table goes to benchmarks/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170

WORKLOADS = ("sim-train", "crowd-assign", "wider-census")

# Layers whose self time per round is reported with --trace 1 (spans.py
# defines self time).
LAYER_TIMES = (
    "ingest.load_wider_annotations",
    "anchors.generate_anchors",
    "geometry.pairwise_iou",
    "geometry.encode_boxes",
    "geometry.nms",
    "assignment.match_first_step",
    "assignment.match_two_step",
    "assignment.match_nams",
    "mining.compensate",
    "mining.compute_quality",
    "simulator.simulate_regression",
    "losses.regression_aware_cls_loss",
    "losses.location_loss",
    "stats.dataset_census",
    "stats.provenance_report",
)
LAYER_CALLS = ("anchors.generate_anchors", "geometry.pairwise_iou", "assignment.match_first_step")


def _spawn(spec_path: Path, mode: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), str(spec_path), mode],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )


def time_setup(spec_path: Path) -> float:
    """Seconds from process start until the package and inputs are loaded."""
    start = time.perf_counter()
    proc = _spawn(spec_path, "setup")
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup child failed with exit code {proc.returncode}")
    return elapsed


def run_child(spec_path: Path, mode: str) -> dict:
    proc = _spawn(spec_path, mode)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child failed with exit code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def images_per_s(spec: dict, result: dict) -> float:
    """Passes of one round over the sum of each invocation's median time."""
    passes = sum(inv["passes"] for inv in spec["invocations"])
    return passes / sum(statistics.median(result["times"][inv["name"]]) for inv in spec["invocations"])


def count_rounds(spec: dict, result: dict) -> tuple[int, int]:
    """(attempted, failed) passes; a round fails if a call failed or its outputs changed."""
    per_round = sum(inv["passes"] for inv in spec["invocations"])
    rounds = result["rounds"]
    first = next((r["outputs"] for r in rounds if r["ok"]), None)
    failed = sum(not r["ok"] or r["outputs"] != first for r in rounds)
    return len(rounds) * per_round, failed * per_round


def layer_metrics(result: dict, rounds: int) -> dict:
    layers, counts = result["layers"], result["counts"]

    def row(name: str) -> dict:
        return layers.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    m = {}
    for name in LAYER_TIMES:
        m[f"{name}.time_s"] = (row(name)["self_s"] / rounds, "s")
    for name in LAYER_CALLS:
        m[f"{name}.calls"] = (row(name)["calls"] / rounds, "count")
    pairs = counts.get("geometry.pairwise_iou.pairs", 0)
    m["geometry.pairwise_iou.pairs"] = (pairs / rounds, "count")
    m["geometry.pairwise_iou.max_matrix_mb"] = (counts.get("geometry.pairwise_iou.max_matrix_mb", 0.0), "MB")
    m["geometry.pairwise_iou.nonzero_share"] = (
        counts.get("geometry.pairwise_iou.nonzero", 0) / pairs if pairs else 0.0, "ratio"
    )
    m["cli.self_time_s"] = (row("cli.main")["self_s"] / rounds, "s")
    return m


def trace_metrics(workload: str, seed: int, spec: dict, plain: dict, traced: dict) -> dict:
    """Per-layer metrics of the traced child; the full table goes to results/."""
    rounds = len(traced["rounds"])
    metrics = layer_metrics(traced, rounds)
    ips = {"traced": images_per_s(spec, traced), "untraced": images_per_s(spec, plain)}
    metrics["tracing.overhead_share"] = (1.0 - ips["traced"] / ips["untraced"], "ratio")
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    (results / f"trace-{workload}-seed{seed}.json").write_text(json.dumps({
        "workload": workload,
        "seed": seed,
        "rounds": rounds,
        "images_per_s": ips,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "layers_per_round": {k: {f: x / rounds for f, x in v.items()} for k, v in sorted(traced["layers"].items())},
        "last_round_spans": traced["last_round_spans"],
    }, indent=1) + "\n", encoding="utf-8")
    return metrics


def check(workload: str, seed: int, spec: dict, work: Path, oracles) -> list[str]:
    import checks
    import inputs

    pick = random.Random(seed)
    if workload == "sim-train":
        return checks.sim_train(Path(spec["invocations"][0]["out"]), spec["program_seed"], oracles)
    images = inputs.crowd_images(seed) if workload == "crowd-assign" else inputs.census_images(seed)
    if workload == "crowd-assign":
        ordinary = [i for i, im in enumerate(images) if im.path.startswith("ordinary/") and im.valid_boxes()]
        return checks.crowd_assign(work / "out", images, pick.sample(ordinary, 3), oracles)
    # The census of a few small images is checked through its own CLI run.
    sample = pick.sample([im for im in images if im.path.startswith("small/")], 3)
    sample_gt = work / "sample_gt.txt"
    sample_gt.write_text(inputs.format_wider(sample), encoding="utf-8")
    sample_out = work / "sample_out"
    sys.path.insert(0, spec["src"])
    from hambox.cli import main

    rc = main(["--threads", "1", "--out", str(sample_out), "match-stats",
               "--annotations", str(sample_gt), "--ratios", inputs.CENSUS_RATIOS])
    if rc != 0:
        return [f"match-stats on the sample exited with {rc}"]
    ratios = inputs.parse_ratios(inputs.CENSUS_RATIOS)
    return checks.wider_census(work / "out", sample_out, sample, ratios, oracles)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "hambox" / "cli.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: {ROOT} holds no hambox checkout (src/hambox, tests/oracles.py)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    sys.path.insert(0, str(ROOT))
    from tests import oracles

    import inputs

    work = BENCH / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        spec = inputs.write_inputs(args.workload, args.seed, work, oracles)
        spec.pop("images", None)
        spec["src"] = str(ROOT / "src")
        spec_path = work / "spec.json"

        def write_spec(seconds: float) -> None:
            spec["seconds"] = seconds
            spec_path.write_text(json.dumps(spec), encoding="utf-8")

        if args.trace:
            write_spec(args.seconds / 2)
            children = [run_child(spec_path, "run"), run_child(spec_path, "trace")]
        else:
            write_spec(args.seconds)
            setup = [time_setup(spec_path) for _ in range(SETUP_REPEATS)]
            children = [run_child(spec_path, "run")]
        counts = [count_rounds(spec, c) for c in children]
        attempted, failed = sum(a for a, _ in counts), sum(f for _, f in counts)
        try:
            errors = check(args.workload, args.seed, spec, work, oracles)
        except Exception as exc:  # unparseable output fails the run's operations
            errors = [f"checking raised {exc!r}"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    if errors:
        failed = attempted
    if args.trace:
        metrics = trace_metrics(args.workload, args.seed, spec, *children)
    else:
        metrics = {
            "images_per_s": (images_per_s(spec, children[0]), "1/s"),
            "peak_rss_mb": (children[0]["peak_rss_mb"], "MB"),
            "setup_s": (statistics.median(setup), "s"),
        }
    print(json.dumps({
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0

if __name__ == "__main__":
    sys.exit(main())
