"""One measured process of a benchmark run.

    python3 benchmarks/child.py SPEC.json setup|run|trace

`setup` imports the package, loads the workload's inputs through the program,
prints ``ready`` and exits; the parent times it from process start. `run`
repeats whole rounds of the workload's CLI invocations until the spec's
seconds are used up, then prints one JSON line with per-invocation times,
each round's manifest checksums and the process's peak RSS. `trace` does the
same with every public hambox function wrapped (see spans.py) and adds the
per-layer table.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _manifests(spec: dict) -> dict:
    return {
        inv["name"]: json.loads((Path(inv["out"]) / "manifest.json").read_text(encoding="utf-8"))["outputs"]
        for inv in spec["invocations"]
    }


def setup(spec: dict) -> None:
    import hambox
    import hambox.cli  # noqa: F401  the CLI is what users start

    s = spec["setup"]
    if "config" in s:
        hambox.load_config(s["config"])
    if "annotations" in s:
        hambox.load_wider_annotations(s["annotations"])
    if "synthetic" in s:
        n, seed = s["synthetic"]
        hambox.synthetic_dataset(n, seed=seed)
    print("ready", flush=True)


def run(spec: dict, traced: bool) -> None:
    tracer = None
    if traced:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    from hambox import cli

    times = {inv["name"]: [] for inv in spec["invocations"]}
    rounds = []
    last_round_start = 0
    t0 = time.perf_counter()
    while True:
        if tracer is not None:
            last_round_start = len(tracer.spans)
        ok = True
        for inv in spec["invocations"]:
            start = time.perf_counter()
            try:
                rc = cli.main(inv["argv"])
            except Exception:
                traceback.print_exc()
                rc = -1
            times[inv["name"]].append(time.perf_counter() - start)
            ok = ok and rc == 0
        rounds.append({"ok": ok, "outputs": _manifests(spec) if ok else None})
        if time.perf_counter() - t0 >= spec["seconds"]:
            break
    result = {
        "times": times,
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_times()
        result["counts"] = dict(tracer.counts)
        spans = tracer.spans[last_round_start:]
        t_first = spans[0][1] if spans else 0.0
        result["last_round_spans"] = [
            [name, round(start - t_first, 6), round(end - t_first, 6), parent - last_round_start if parent >= 0 else -1]
            for name, start, end, parent in spans
        ]
    print(json.dumps(result), flush=True)


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    mode = sys.argv[2]
    if mode == "setup":
        setup(spec)
    else:
        run(spec, traced=mode == "trace")
    return 0


if __name__ == "__main__":
    sys.exit(main())
