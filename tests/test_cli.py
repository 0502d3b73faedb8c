import json
import os
import platform
import resource
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hambox
from hambox.cli import MAX_ANCHORS, main
from hambox.ingest import load_wider_annotations

from .test_overlaps import FAR_XYWH

# The 6x6 faces undershoot even the smallest anchor enough to stay
# under-matched after the first step, leaving room for compensation.
FIXTURE = textwrap.dedent(
    """\
    scene/a.jpg
    2
    40 40 6 6 0 0 0 0 0 0
    200 100 14 14 0 0 0 0 0 0
    scene/b.jpg
    1
    100 150 28 28 0 0 0 0 0 0
    scene/c.jpg
    0
    0 0 0 0 0 0 0 0 0 0
    scene/d.jpg
    2
    20 300 6 6 0 0 0 0 0 0
    310 310 29 29 0 0 0 0 0 0
    """
)


@pytest.fixture
def annotations(tmp_path):
    p = tmp_path / "gt.txt"
    p.write_text(FIXTURE)
    return str(p)


def read(path):
    return path.read_text(encoding="utf-8")


class TestAnchorsCommand:
    def test_row_count_and_format(self, tmp_path):
        out = tmp_path / "run"
        assert main(["--out", str(out), "anchors", "--width", "640", "--height", "640"]) == 0
        lines = read(out / "anchors.csv").splitlines()
        assert lines[0] == "level,row,col,x0,y0,x1,y1"
        assert len(lines) == 1 + 34125
        assert lines[1].startswith("0,0,0,-3.44,-3.44,7.44,7.44")

    def test_rerun_byte_identical(self, tmp_path):
        out = tmp_path / "run"
        main(["--out", str(out), "anchors"])
        first = (out / "anchors.csv").read_bytes()
        main(["--out", str(out), "anchors"])
        assert (out / "anchors.csv").read_bytes() == first

    def test_unwritable_out_is_usage_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        assert main(["--out", str(blocker / "sub"), "anchors"]) == 2

    def test_manifest_checksums(self, tmp_path):
        out = tmp_path / "run"
        main(["--out", str(out), "anchors"])
        manifest = json.loads(read(out / "manifest.json"))
        assert manifest["tool_version"]
        assert "anchors.csv" in manifest["outputs"]
        import hashlib

        want = hashlib.sha256((out / "anchors.csv").read_bytes()).hexdigest()
        assert manifest["outputs"]["anchors.csv"] == want


class TestMatchStatsCommand:
    def test_single_ratio_single_row(self, tmp_path, annotations):
        out = tmp_path / "run"
        code = main(
            ["--out", str(out), "match-stats", "--annotations", annotations, "--ratios", "0.68:0.68:1"]
        )
        assert code == 0
        lines = read(out / "scale_curve.csv").splitlines()
        assert lines[0] == "ratio,mean_anchors_per_face,fraction_faces_matched"
        assert len(lines) == 2
        assert lines[1].startswith("0.68,")

    def test_rows_match_library_recount(self, tmp_path, annotations):
        from hambox.anchors import default_hambox_config
        from hambox.stats import dataset_census

        out = tmp_path / "run"
        main(
            ["--out", str(out), "match-stats", "--annotations", annotations, "--ratios", "0.5:1.0:0.25"]
        )
        lines = read(out / "scale_curve.csv").splitlines()[1:]
        records = load_wider_annotations(annotations)
        for line in lines:
            ratio, mean, frac = (float(v) for v in line.split(","))
            census = dataset_census(
                records, default_hambox_config().with_scale_ratio(ratio), 0.35
            )
            assert mean == pytest.approx(census.mean_anchors_per_face, rel=1e-9)
            assert frac == pytest.approx(census.fraction_faces_matched, rel=1e-9)

    def test_missing_annotations_exit_2(self, tmp_path):
        assert main(["--out", str(tmp_path), "match-stats", "--annotations", "/nope/gt.txt"]) == 2

    def test_zero_valid_faces_exit_1(self, tmp_path):
        p = tmp_path / "gt.txt"
        p.write_text("img/a.jpg\n0\n0 0 0 0 0 0 0 0 0 0\n")
        assert main(["--out", str(tmp_path / "o"), "match-stats", "--annotations", str(p)]) == 1

    def test_bad_ratio_spec_exit_2(self, tmp_path, annotations):
        assert (
            main(
                ["--out", str(tmp_path), "match-stats", "--annotations", annotations, "--ratios", "x"]
            )
            == 2
        )

    def test_runs_without_thread_pool(self, tmp_path, annotations, monkeypatch):
        argv = ["match-stats", "--annotations", annotations, "--ratios", "0.4:1.0:0.2"]
        assert main(["--out", str(tmp_path / "one"), "--threads", "1"] + argv) == 0

        def no_pool(*args, **kwargs):
            raise AssertionError("match-stats started a thread pool")

        monkeypatch.setattr("hambox.ingest.ThreadPoolExecutor", no_pool)
        assert main(["--out", str(tmp_path / "four"), "--threads", "4"] + argv) == 0
        assert (tmp_path / "four" / "scale_curve.csv").read_bytes() == (
            tmp_path / "one" / "scale_curve.csv"
        ).read_bytes()


class TestAssignCommand:
    def test_sms_rows_match_matcher(self, tmp_path, annotations):
        from hambox.anchors import cover_image_size, default_hambox_config, generate_anchors
        from hambox.assignment import MatchParams, match_first_step
        from hambox.stats import valid_face_boxes

        out = tmp_path / "run"
        assert main(["--out", str(out), "assign", "--annotations", annotations, "--strategy", "sms"]) == 0
        lines = read(out / "assign.csv").splitlines()
        assert lines[0] == "image,anchor,level,label,face,source,iou"
        records = load_wider_annotations(annotations)
        want_rows = 0
        cfg = default_hambox_config()
        for rec in records:
            faces = valid_face_boxes(rec)
            grid = generate_anchors(cfg, *cover_image_size(faces, cfg))
            a = match_first_step(grid, faces, MatchParams())
            want_rows += int(np.count_nonzero(a.face_of >= 0))
        assert len(lines) - 1 == want_rows
        for line in lines[1:]:
            image, anchor, level, label, face, source, iou = line.split(",")
            assert label == "positive"
            assert source == "step1"
            assert 0.35 <= float(iou) <= 1.0

    def test_hambox_compensated_rows_clear_threshold(self, tmp_path, annotations):
        out = tmp_path / "run"
        code = main(
            [
                "--out", str(out), "--seed", "3",
                "assign", "--annotations", annotations, "--strategy", "hambox", "--sim-quality", "1.0",
            ]
        )
        assert code == 0
        lines = read(out / "assign.csv").splitlines()[1:]
        comp = [l for l in lines if l.split(",")[5] == "hambox_compensated"]
        assert comp, "expected compensated rows at q=1"
        for line in comp:
            assert float(line.split(",")[6]) >= 0.8
        ignored = [l for l in lines if l.split(",")[3] == "ignore"]
        for line in ignored:
            assert float(line.split(",")[6]) >= 0.5

    def test_unknown_strategy_exit_2(self, tmp_path, annotations):
        assert (
            main(["--out", str(tmp_path), "assign", "--annotations", annotations, "--strategy", "foo"])
            == 2
        )

    def test_threads_do_not_change_bytes(self, tmp_path, annotations):
        a = tmp_path / "a"
        b = tmp_path / "b"
        argv = ["assign", "--annotations", annotations, "--strategy", "hambox", "--sim-quality", "0.9"]
        main(["--out", str(a), "--seed", "5", "--threads", "1"] + argv)
        main(["--out", str(b), "--seed", "5", "--threads", "4"] + argv)
        assert (a / "assign.csv").read_bytes() == (b / "assign.csv").read_bytes()

    def test_hambox_honours_noise_sigma(self, tmp_path, annotations):
        argv = ["--seed", "3", "assign", "--annotations", annotations, "--strategy", "hambox"]
        outputs = {}
        for name, sigma in (("default", None), ("zero", "0"), ("noisy", "0.2")):
            out = tmp_path / name
            config = []
            if sigma is not None:
                (tmp_path / f"{name}.ini").write_text(f"[simulator]\nnoise_sigma = {sigma}\n")
                config = ["--config", str(tmp_path / f"{name}.ini")]
            assert main(config + ["--out", str(out)] + argv) == 0
            outputs[name] = (out / "assign.csv").read_bytes()
        assert outputs["default"] == outputs["zero"]
        assert outputs["noisy"] != outputs["zero"]

    def test_threshold_and_budget_overrides(self, tmp_path, annotations):
        strict = tmp_path / "strict"
        loose = tmp_path / "loose"
        argv = ["assign", "--annotations", annotations, "--strategy", "hambox", "--sim-quality", "1.0"]
        assert main(["--out", str(strict), "--seed", "5"] + argv + ["--T", "0.99", "--K", "1"]) == 0
        assert main(["--out", str(loose), "--seed", "5"] + argv + ["--T", "0.5", "--K", "6"]) == 0
        count = lambda p: sum(
            1 for l in read(p / "assign.csv").splitlines() if ",hambox_compensated," in l
        )
        assert count(loose) >= count(strict)
        # Overrides are validated like config values.
        assert main(["--out", str(tmp_path / "x"), "--seed", "5"] + argv + ["--T", "1.5"]) == 2


    def test_hambox_honours_config_q(self, tmp_path, annotations):
        argv = ["--seed", "3", "assign", "--annotations", annotations, "--strategy", "hambox"]
        conf = tmp_path / "q.ini"
        conf.write_text("[simulator]\nq = 0.3\n")
        runs = {
            "default": argv,
            "config": ["--config", str(conf)] + argv,
            "flag": argv + ["--sim-quality", "0.3"],
        }
        outputs = {}
        for name, run in runs.items():
            assert main(["--out", str(tmp_path / name)] + run) == 0
            outputs[name] = (tmp_path / name / "assign.csv").read_bytes()
        assert outputs["config"] == outputs["flag"]
        assert outputs["config"] != outputs["default"]

    def test_overrides_land_in_manifest(self, tmp_path, annotations):
        out = tmp_path / "run"
        argv = ["--out", str(out), "assign", "--annotations", annotations, "--strategy", "hambox"]
        assert main(argv + ["--sim-quality", "1.0", "--T", "0.5", "--K", "6"]) == 0
        config = json.loads(read(out / "manifest.json"))["config"]
        assert config["strategy"] == "hambox"
        assert config["simulator"]["q"] == 1.0
        assert config["compensation"] == {"T": 0.5, "K": 6}


class TestSimulateCommand:
    def test_single_iteration_single_row(self, tmp_path):
        out = tmp_path / "run"
        code = main(["--out", str(out), "simulate", "--synthetic-images", "3", "--iters", "1"])
        assert code == 0
        lines = read(out / "simulation.csv").splitlines()
        assert lines[0] == "iter,cls_com,cls_norm,loc_com,loc_norm,n_com,mean_com_iou,n_ignored"
        assert len(lines) == 2

    def test_fixed_seed_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        argv = ["--seed", "11", "simulate", "--synthetic-images", "4", "--iters", "3"]
        main(["--out", str(a)] + argv)
        main(["--out", str(b)] + argv)
        assert (a / "simulation.csv").read_bytes() == (b / "simulation.csv").read_bytes()

    def test_threads_do_not_change_bytes(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        argv = ["--seed", "11", "simulate", "--synthetic-images", "4", "--iters", "3"]
        main(["--out", str(a), "--threads", "1"] + argv)
        main(["--out", str(b), "--threads", "4"] + argv)
        assert (a / "simulation.csv").read_bytes() == (b / "simulation.csv").read_bytes()

    def test_ramp_grows_compensation(self, tmp_path):
        cfg = tmp_path / "conf.ini"
        cfg.write_text("[simulator]\nquality_ramp = 0:0.95\n")
        out = tmp_path / "run"
        code = main(
            [
                "--config", str(cfg), "--out", str(out), "--seed", "2",
                "simulate", "--synthetic-images", "5", "--iters", "12",
            ]
        )
        assert code == 0
        lines = read(out / "simulation.csv").splitlines()[1:]
        first_n = int(lines[0].split(",")[5])
        last_n = int(lines[-1].split(",")[5])
        assert first_n == 0
        assert last_n >= first_n
        assert last_n > 0

    def test_annotations_mode(self, tmp_path, annotations):
        out = tmp_path / "run"
        code = main(
            ["--out", str(out), "--seed", "1", "simulate", "--annotations", annotations, "--iters", "2"]
        )
        assert code == 0
        assert len(read(out / "simulation.csv").splitlines()) == 3

    def test_annotations_mode_drops_invalid_faces(self, tmp_path):
        face = "100 150 28 28 0 0 0 0 0 0\n"
        invalid = "300 60 20 24 0 0 0 1 0 0\n"
        outputs = []
        for name, text in (("one", f"a.jpg\n1\n{face}"), ("two", f"a.jpg\n2\n{face}{invalid}")):
            gt = tmp_path / f"{name}.txt"
            gt.write_text(text)
            out = tmp_path / name
            argv = ["--out", str(out), "--seed", "1", "simulate", "--annotations", str(gt), "--iters", "3"]
            assert main(argv + ["--provenance"]) == 0
            outputs.append(((out / "simulation.csv").read_bytes(), (out / "provenance.csv").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_provenance_output(self, tmp_path):
        out = tmp_path / "run"
        code = main(
            [
                "--out", str(out), "--seed", "4",
                "simulate", "--synthetic-images", "3", "--iters", "2", "--provenance",
            ]
        )
        assert code == 0
        lines = read(out / "provenance.csv").splitlines()
        assert lines[0] == "field,value"
        fields = dict(line.split(",", 1) for line in lines[1:])
        assert 0.0 <= float(fields["frac_hq_unmatched"]) <= 1.0
        manifest = json.loads(read(out / "manifest.json"))
        assert "provenance.csv" in manifest["outputs"]


class TestLossCheckCommand:
    def test_default_run_passes(self, capsys):
        assert main(["--seed", "0", "loss-check", "--trials", "20"]) == 0
        assert "max relative gradient error" in capsys.readouterr().out

    def test_zero_trials_exit_2(self):
        assert main(["loss-check", "--trials", "0"]) == 2

    def test_corrupted_gradient_detected(self):
        assert main(["loss-check", "--trials", "5", "--corrupt-gradient"]) == 1


class TestConfigPlumb:
    def test_bad_config_exit_2(self, tmp_path):
        cfg = tmp_path / "conf.ini"
        cfg.write_text("[compensation]\nt = 1.5\n")
        assert main(["--config", str(cfg), "anchors", "--width", "64", "--height", "64"]) == 2

    def test_percent_in_config_value(self, tmp_path):
        cfg = tmp_path / "conf.ini"
        cfg.write_text("[data]\nannotations = /d/100%/gt.txt\n")
        out = tmp_path / "run"
        assert main(["--config", str(cfg), "--out", str(out), "anchors", "--width", "64", "--height", "64"]) == 0

    def test_non_finite_config_value_exit_2(self, tmp_path, annotations):
        cfg = tmp_path / "conf.ini"
        cfg.write_text("[anchors]\naspect_ratio = inf\n")
        out = tmp_path / "run"
        assert main(["--config", str(cfg), "--out", str(out), "match-stats", "--annotations", annotations]) == 2

    def test_config_drives_anchor_grid(self, tmp_path):
        cfg = tmp_path / "conf.ini"
        cfg.write_text("[anchors]\nstrides = 32\nbase_scales = 64\nscale_ratio = 1.0\n")
        out = tmp_path / "run"
        main(["--config", str(cfg), "--out", str(out), "anchors", "--width", "64", "--height", "64"])
        lines = read(out / "anchors.csv").splitlines()
        assert len(lines) == 1 + 4  # 2x2 cells at stride 32


EMPTY_ANNOTATIONS = {"no_images": "", "no_faces": "img/a.jpg\n0\n0 0 0 0 0 0 0 0 0 0\n"}
ANNOTATION_READERS = {
    "match-stats": ["match-stats"],
    "assign": ["assign"],
    "simulate": ["simulate", "--iters", "1"],
    "simulate-provenance": ["simulate", "--iters", "1", "--provenance"],
}


@pytest.mark.parametrize("text", EMPTY_ANNOTATIONS.values(), ids=EMPTY_ANNOTATIONS.keys())
@pytest.mark.parametrize("command", ANNOTATION_READERS.values(), ids=ANNOTATION_READERS.keys())
def test_zero_valid_faces_exit_1_for_every_reader(tmp_path, command, text):
    gt = tmp_path / "gt.txt"
    gt.write_text(text)
    argv = ["--out", str(tmp_path / "run"), command[0], "--annotations", str(gt)] + command[1:]
    assert main(argv) == 1


# Faces whose coordinates float64 cannot hold exactly: both used to end in
# an OverflowError traceback.
HUGE_FACES = {"401-digit-x": "9" * 401 + " 10 20 20 0 0 0 0 0 0", "x-10e300": f"{10**300} 10 20 20 0 0 0 0 0 0"}
HUGE_FACE_READERS = {"match-stats": ["match-stats"], "assign-sms": ["assign", "--strategy", "sms"]}


@pytest.mark.parametrize("face", HUGE_FACES.values(), ids=HUGE_FACES.keys())
@pytest.mark.parametrize("command", HUGE_FACE_READERS.values(), ids=HUGE_FACE_READERS.keys())
def test_face_past_float_range_alone_exit_1(tmp_path, command, face):
    gt = tmp_path / "gt.txt"
    gt.write_text(f"big/a.jpg\n1\n{face}\n")
    argv = ["--out", str(tmp_path / "run"), command[0], "--annotations", str(gt)] + command[1:]
    src = str(Path(hambox.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-m", "hambox.cli", *argv], env=env, capture_output=True, text=True)
    assert proc.returncode == 1
    assert "no valid faces" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("face", HUGE_FACES.values(), ids=HUGE_FACES.keys())
def test_face_past_float_range_is_dropped(tmp_path, face):
    lines = FIXTURE.splitlines(keepends=True)
    # Between scene/a.jpg's two faces, so its second face keeps index 1.
    lines[1] = "3\n"
    lines.insert(3, face + "\n")
    files = {"plain": FIXTURE, "huge": "".join(lines)}
    for name, text in files.items():
        gt = tmp_path / f"{name}.txt"
        gt.write_text(text)
        assert main(["--out", str(tmp_path / name / "stats"), "match-stats", "--annotations", str(gt)]) == 0
        assert main(["--out", str(tmp_path / name / "assign"), "assign", "--annotations", str(gt)]) == 0
    for out in ("stats/scale_curve.csv", "assign/assign.csv"):
        assert read(tmp_path / "huge" / out) == read(tmp_path / "plain" / out)


SEED_READERS = {
    "anchors": ["anchors", "--width", "64", "--height", "64"],
    "match-stats": ["match-stats", "--annotations", None],
    "simulate": ["simulate", "--synthetic-images", "1", "--iters", "1"],
    "assign-hambox": ["assign", "--annotations", None, "--strategy", "hambox"],
}


@pytest.mark.parametrize("source", ["config", "flag"])
@pytest.mark.parametrize("command", SEED_READERS.values(), ids=SEED_READERS.keys())
def test_negative_seed_exit_2(tmp_path, annotations, capsys, command, source):
    cfg = tmp_path / "conf.ini"
    cfg.write_text("[simulator]\nseed = -5\n" if source == "config" else "")
    argv = ["--config", str(cfg), "--out", str(tmp_path / "run")]
    if source == "flag":
        argv += ["--seed", "-5"]
    argv += [annotations if a is None else a for a in command]
    assert main(argv) == 2
    assert "seed must be >= 0, got -5" in capsys.readouterr().err


def test_seed_flag_lands_in_config(tmp_path):
    out = tmp_path / "run"
    assert main(["--seed", "7", "--out", str(out), "anchors", "--width", "64", "--height", "64"]) == 0
    manifest = json.loads(read(out / "manifest.json"))
    assert manifest["seed"] == 7
    assert manifest["config"]["simulator"]["seed"] == 7


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_1_exit_2(tmp_path, capsys, threads):
    out = tmp_path / "run"
    assert main(["--threads", threads, "--out", str(out), "simulate", "--synthetic-images", "1", "--iters", "1"]) == 2
    assert f"error: --threads must be >= 1, got {threads}" in capsys.readouterr().err
    assert not out.exists()


def test_zero_iou_threshold_exit_2(tmp_path, annotations, capsys):
    # At 0 every anchor, even one overlapping no face, would match face 0.
    cfg = tmp_path / "conf.ini"
    cfg.write_text("[match]\niou_threshold = 0\n")
    argv = ["--config", str(cfg), "--out", str(tmp_path / "run"), "assign", "--annotations", annotations]
    assert main(argv) == 2
    assert "iou_threshold must be in (0, 1], got 0.0" in capsys.readouterr().err


def test_crowd_of_2000_faces_memory_bounded(tmp_path):
    """One image of 2,000 small faces through hambox assign: memory is O(anchors + pairs).

    The grid holds about 160k anchors, so one dense anchors x faces float64
    matrix alone would take 2.6 GB; the run stays under 150 MB.
    """
    rng = np.random.default_rng(0)
    lines = ["crowd/0.jpg", "2000"]
    for i in range(2000):
        row, col = divmod(i, 45)
        w, h = rng.integers(5, 20, size=2)
        lines.append(f"{col * 24 + rng.integers(0, 4)} {row * 24 + rng.integers(0, 4)} {w} {h} 0 0 0 0 0 0")
    gt = tmp_path / "gt.txt"
    gt.write_text("\n".join(lines) + "\n")
    tracemalloc.start()
    try:
        rc = main(["--out", str(tmp_path / "run"), "assign", "--annotations", str(gt), "--strategy", "hambox"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < 150e6


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="allocator thresholds are set through glibc's mallopt",
)
def test_freed_work_arrays_stay_in_the_heap(tmp_path):
    """After a CLI run, a freed 16 MB array is reused without new page faults.

    Under glibc's moving thresholds the block could be unmapped, or trimmed
    off the heap top, and faulted in again by the next image.
    """
    assert main(["--out", str(tmp_path / "run"), "anchors", "--width", "64", "--height", "64"]) == 0
    np.empty(2 << 20).fill(1.0)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    np.empty(2 << 20).fill(1.0)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 256


def test_non_utf8_config_exit_2(tmp_path, capsys):
    cfg = tmp_path / "conf.ini"
    cfg.write_bytes(b"[simulator]\nq = 0.5 \xff\xfe\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "run"), "anchors"]) == 2
    assert "cannot read config" in capsys.readouterr().err


INT64_MAX = 2**63 - 1
HUGE_BUDGETS = {
    "K-config": ("[compensation]\nk = 100000000000000000000\n", [], "K must be in [1, 9223372036854775807]"),
    "K-flag": ("", ["--K", "100000000000000000000"], "K must be in [1, 9223372036854775807]"),
    "K-flag-2**63": ("", ["--K", str(INT64_MAX + 1)], "K must be in [1, 9223372036854775807]"),
    "top-n-config": (
        "[match]\nnams_top_n_mode = 100000000000000000000\n",
        [],
        "nams_top_n_mode must be in [1, 9223372036854775807]",
    ),
}


@pytest.mark.parametrize("config,flags,message", HUGE_BUDGETS.values(), ids=HUGE_BUDGETS.keys())
def test_budget_beyond_int64_exit_2(tmp_path, annotations, capsys, config, flags, message):
    cfg = tmp_path / "conf.ini"
    cfg.write_text(config)
    argv = ["--config", str(cfg), "--out", str(tmp_path / "run"), "assign", "--annotations", annotations]
    assert main(argv + ["--strategy", "hambox"] + flags) == 2
    assert message in capsys.readouterr().err


def test_budgets_at_int64_max_run(tmp_path, annotations):
    cfg = tmp_path / "conf.ini"
    cfg.write_text(f"[match]\nnams_top_n_mode = {INT64_MAX}\n")
    base = ["--config", str(cfg), "--out", str(tmp_path / "run"), "assign", "--annotations", annotations]
    assert main(base + ["--strategy", "nams"]) == 0
    assert main(base + ["--strategy", "hambox", "--K", str(INT64_MAX)]) == 0


# Specs that would never finish: non-finite bounds, more ratios than the cap,
# and a step too small to move `start`, which would repeat it forever.
ENDLESS_RATIO_SPECS = {
    "1:inf:1": "ratio spec must be finite numbers",
    "-inf:1:0.1": "ratio spec must be finite numbers",
    "0.5:1:nan": "ratio spec must be finite numbers",
    "0.1:1e9:0.1": "ratio spec '0.1:1e9:0.1' yields more than 10000 ratios",
    "1:2:1e-20": "ratio spec '1:2:1e-20' yields more than 10000 ratios",
}


def test_ratio_cap_is_inclusive():
    from hambox.cli import MAX_RATIOS, _parse_ratio_spec

    assert len(_parse_ratio_spec(f"1:{MAX_RATIOS}:1")) == MAX_RATIOS
    with pytest.raises(ValueError, match="yields more than"):
        _parse_ratio_spec(f"1:{MAX_RATIOS + 1}:1")


def test_ratios_count_from_step():
    """Ratio k is start + k * step: no drift builds up, and stop is reached within a tolerance relative to step."""
    from hambox.cli import _parse_ratio_spec

    fine = _parse_ratio_spec("0.001:1:0.001")
    assert len(fine) == 1000 and fine[-1] == 1.0
    assert _parse_ratio_spec("1.65:91.8:0.3")[-1] == 91.65  # a running sum reached 91.649999999999


@pytest.mark.parametrize("spec", list(ENDLESS_RATIO_SPECS))
def test_non_finite_ratio_spec_exit_2(tmp_path, annotations, capsys, spec):
    argv = ["--out", str(tmp_path / "run"), "match-stats", "--annotations", annotations, f"--ratios={spec}"]
    assert main(argv) == 2
    assert ENDLESS_RATIO_SPECS[spec] in capsys.readouterr().err


# Specs whose fault is not the cap: a step too small to move a ratio already
# at stop, a positive ratio that rounds to 0 at the 12 decimals kept, and two
# ratios that round to one.
MISNAMED_RATIO_SPECS = {
    "5:5:1e-17": "ratio spec '5:5:1e-17': step 1e-17 does not advance from 5.0",
    "0.5:0.5:1e-300": "ratio spec '0.5:0.5:1e-300': step 1e-300 does not advance from 0.5",
    "1e-13:1e-13:1": "ratio spec '1e-13:1e-13:1': ratio 1e-13 rounds to 0 at 12 decimals",
    "6e-13:1.6e-12:5e-13": "ratio spec '6e-13:1.6e-12:5e-13': ratio 1.1e-12 repeats 1e-12 at 12 decimals",
}


@pytest.mark.parametrize("spec", list(MISNAMED_RATIO_SPECS))
def test_ratio_spec_names_its_fault(tmp_path, annotations, capsys, spec):
    from hambox.cli import _parse_ratio_spec

    argv = ["--out", str(tmp_path / "run"), "match-stats", "--annotations", annotations, f"--ratios={spec}"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert MISNAMED_RATIO_SPECS[spec] in err
    assert "yields more than" not in err and "must be positive" not in err
    # Their neighbours are valid and keep their values.
    assert _parse_ratio_spec("5:5:1e-3") == [5.0]
    assert _parse_ratio_spec("0.5:0.5:1") == [0.5]
    assert _parse_ratio_spec("1e-12:1e-12:1") == [1e-12]


ANNOTATED_COMMANDS = {
    "match-stats": (["match-stats"], ["scale_curve.csv"]),
    "assign": (["assign", "--strategy", "hambox"], ["assign.csv"]),
    "simulate": (["simulate", "--iters", "2", "--provenance"], ["simulation.csv", "provenance.csv"]),
}


class TestDataAnnotations:
    """`[data] annotations` names the annotation file; `--annotations` overrides it."""

    def run(self, tmp_path, name, command, config="", flag=None):
        cfg = tmp_path / f"{name}.ini"
        cfg.write_text(config)
        out = tmp_path / name
        argv = ["--config", str(cfg), "--out", str(out), "--seed", "3"] + command[:1]
        argv += ([] if flag is None else ["--annotations", flag]) + command[1:]
        return main(argv), out

    @pytest.mark.parametrize("command,files", ANNOTATED_COMMANDS.values(), ids=ANNOTATED_COMMANDS.keys())
    def test_config_flag_and_override_read_the_same_file(self, tmp_path, annotations, command, files):
        runs = {
            "config": {"config": f"[data]\nannotations = {annotations}\n"},
            "flag": {"flag": annotations},
            "override": {"config": "[data]\nannotations = /nope/gt.txt\n", "flag": annotations},
        }
        outputs = {}
        for name, kwargs in runs.items():
            code, out = self.run(tmp_path, name, command, **kwargs)
            assert code == 0, name
            assert json.loads(read(out / "manifest.json"))["config"]["data"]["annotations"] == annotations
            outputs[name] = [(out / f).read_bytes() for f in files]
        assert outputs["config"] == outputs["flag"] == outputs["override"]

    def test_config_file_that_is_missing_exit_2(self, tmp_path):
        code, _ = self.run(tmp_path, "run", ["assign"], config="[data]\nannotations = /nope/gt.txt\n")
        assert code == 2

    @pytest.mark.parametrize("command", [["match-stats"], ["assign"]], ids=["match-stats", "assign"])
    def test_neither_flag_nor_key_exit_2(self, tmp_path, capsys, command):
        code, out = self.run(tmp_path, "run", command)
        assert code == 2
        assert "pass --annotations or set [data] annotations" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_simulate_without_annotations_is_synthetic(self, tmp_path):
        code, out = self.run(tmp_path, "run", ["simulate", "--synthetic-images", "2", "--iters", "1"])
        assert code == 0
        assert json.loads(read(out / "manifest.json"))["config"]["data"]["annotations"] is None


def test_assign_writes_image_path_verbatim(tmp_path):
    """Braces and percent signs in an image path are not format directives."""
    path = "odd/{0}%s/{x}}{%d.jpg"
    gt = tmp_path / "gt.txt"
    gt.write_text(f"{path}\n1\n100 150 28 28 0 0 0 0 0 0\nplain.jpg\n1\n60 80 28 28 0 0 0 0 0 0\n")
    for strategy in ("sms", "hambox"):
        out = tmp_path / strategy
        argv = ["--out", str(out), "assign", "--annotations", str(gt), "--strategy", strategy, "--sim-quality", "1"]
        assert main(argv) == 0
        rows = read(out / "assign.csv").splitlines()[1:]
        assert rows
        assert {row.rsplit(",", 6)[0] for row in rows} == {path, "plain.jpg"}
        assert all(len(row.rsplit(",", 6)) == 7 for row in rows)


def test_anchors_csv_at_non_square_size(tmp_path):
    """Every row of a non-square grid: the level, (row, col) cell and box of its anchor."""
    from hambox.anchors import default_hambox_config, generate_anchors

    out = tmp_path / "run"
    assert main(["--out", str(out), "anchors", "--width", "97", "--height", "61"]) == 0
    grid = generate_anchors(default_hambox_config(), 97, 61)
    want = ["level,row,col,x0,y0,x1,y1"] + [
        f"{level},{r},{c}," + ",".join(f"{v:.10g}" for v in box)
        for level, (r, c), box in zip(grid.level_of, grid.cell_of, grid.boxes)
    ]
    assert read(out / "anchors.csv").splitlines() == want
    # 97 x 61 at stride 4 is 25 columns by 16 rows.
    assert want[1:3] == ["0,0,0,-3.44,-3.44,7.44,7.44", "0,0,1,0.56,-3.44,11.44,7.44"]
    assert want[25] == "0,0,24,92.56,-3.44,103.44,7.44"
    assert want[26].startswith("0,1,0,")


def run_child(tmp_path, body, argv):
    """Run `body` (Python source) in a child interpreter on this hambox, with `argv` as sys.argv[1:]."""
    script = tmp_path / "child.py"
    script.write_text(textwrap.dedent(body))
    src = str(Path(hambox.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, str(script), *argv], env=env, capture_output=True, text=True, timeout=120)


# The child caps its own address space at 2 GB before it imports anything,
# so a per-anchor allocation on the far face's 2.7e8-anchor cover grid
# (8.1 GB of boxes) fails fast instead of being attempted.
FAR_FACE_CHILD = """\
    import resource, sys, tracemalloc
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
    from hambox.cli import main
    tracemalloc.start()
    code = main(sys.argv[1:])
    print(code, tracemalloc.get_traced_memory()[1])
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
@pytest.mark.parametrize("strategy", ["sms", "dms", "nams", "hambox"])
def test_far_face_assigns_without_the_grid(tmp_path, strategy):
    """One face at x = 10,000,000: noise-free assign works only on the anchors that meet it.

    Its cover grid is about 10,000,311 x 321 px, 271,492,861 anchors. A
    noise-free `assign` keeps no per-anchor array, so the run needs no more
    than the pinned tracemalloc peak (about 0.25 MB when this was written).
    """
    gt = tmp_path / "gt.txt"
    gt.write_text("far/a.jpg\n1\n10000000 10 8 8 0 0 0 0 0 0\n")
    out = tmp_path / "run"
    proc = run_child(tmp_path, FAR_FACE_CHILD, ["--out", str(out), "assign", "--annotations", str(gt), "--strategy", strategy])
    assert "Traceback" not in proc.stderr
    code, peak = map(int, proc.stdout.split())
    assert code == 0
    assert peak < 1 << 20
    rows = read(out / "assign.csv").splitlines()[1:]
    assert any(",positive,0," in row for row in rows)


# The far inputs: one face at x = 10,000,000 (a 2.7e8-anchor cover grid)
# and the 40 `FAR_XYWH` faces near x = 2^52 (about 5e17 anchors).
FAR_FILES = {
    "far-face": "far/a.jpg\n1\n10000000 10 8 8 0 0 0 0 0 0\n",
    "far-xywh": f"far/a.jpg\n{len(FAR_XYWH)}\n" + "".join(f"{x} {y} {w} {h} 0 0 0 0 0 0\n" for x, y, w, h in FAR_XYWH),
}


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
@pytest.mark.parametrize("text", FAR_FILES.values(), ids=FAR_FILES.keys())
def test_far_image_simulates_without_the_grid(tmp_path, text):
    """Noise-free `simulate` on a far image: the loss sums its background pool without building it."""
    gt = tmp_path / "gt.txt"
    gt.write_text(text)
    out = tmp_path / "run"
    argv = ["--out", str(out), "simulate", "--annotations", str(gt), "--iters", "1", "--provenance"]
    proc = run_child(tmp_path, FAR_FACE_CHILD, argv)
    assert "Traceback" not in proc.stderr
    code, peak = map(int, proc.stdout.split())
    assert code == 0
    assert peak < 16 << 20
    assert len(read(out / "simulation.csv").splitlines()) == 2


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
@pytest.mark.parametrize("scale", ["0", "-3"])
def test_far_face_provenance_past_the_cap_exit_2(tmp_path, scale):
    """A scorer that does not rank F = 0 below a correct box needs the far face's whole grid: exit 2, named.

    The provenance report would rebuild all 271,492,861 anchors (2 GB of
    int64 indices alone); it is refused before any of them is built.
    """
    gt = tmp_path / "gt.txt"
    gt.write_text(FAR_FILES["far-face"])
    cfg = tmp_path / "scorer.ini"
    cfg.write_text(f"[simulator]\nscore_scale = {scale}\n")
    out = tmp_path / "run"
    argv = ["--config", str(cfg), "--out", str(out), "simulate", "--annotations", str(gt), "--iters", "1", "--provenance"]
    proc = run_child(tmp_path, FAR_FACE_CHILD, argv)
    assert "Traceback" not in proc.stderr
    code, peak = map(int, proc.stdout.split())
    assert code == 2
    assert peak < 16 << 20
    assert (
        f"far/a.jpg: at score_scale {float(scale)!r} and score_bias -2.0 the provenance report needs"
        f" the whole grid of 271492861 anchors, more than {MAX_ANCHORS}"
    ) in proc.stderr
    assert not out.exists()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
def test_anchors_past_the_cap_exit_2(tmp_path):
    """A 10,000,000 x 400 px grid holds 333,593,750 anchors: `anchors` exits 2 before any per-anchor array.

    Its (N, 2) int32 cells alone would take 2.5 GB, past the child's 2 GB cap.
    """
    out = tmp_path / "run"
    proc = run_child(tmp_path, FAR_FACE_CHILD, ["--out", str(out), "anchors", "--width", "10000000", "--height", "400"])
    assert "Traceback" not in proc.stderr
    code, peak = map(int, proc.stdout.split())
    assert code == 2
    assert peak < 1 << 20
    assert f"an anchor grid of 10000000x400 px holds 333593750 anchors, more than {MAX_ANCHORS}" in proc.stderr
    assert not out.exists()


# A face near (2^52, 2^52): its cover grid holds about 1.7e30 anchors, so
# an int64 anchor index would wrap.
HUGE_GRID_READERS = {"assign-sms": ["assign", "--strategy", "sms"], "match-stats": ["match-stats"]}


@pytest.mark.parametrize("command", HUGE_GRID_READERS.values(), ids=HUGE_GRID_READERS.keys())
def test_grid_past_int64_exit_2(tmp_path, command):
    gt = tmp_path / "gt.txt"
    gt.write_text("big/a.jpg\n1\n4503599627370000 4503599627370000 8 8 0 0 0 0 0 0\n")
    argv = ["--out", str(tmp_path / "run"), command[0], "--annotations", str(gt)] + command[1:]
    src = str(Path(hambox.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-m", "hambox.cli", *argv], env=env, capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "anchor grid of 4503599627370310x4503599627370310 px holds" in proc.stderr
    assert "more than an int64 index can name" in proc.stderr



@pytest.mark.parametrize("strategy", ["sms", "dms", "nams", "hambox"])
def test_far_image_assign_keeps_anchor_order(tmp_path, strategy):
    """40 faces near x = 2^52, whose anchor indices reach about 2^58.8: each block of rows ascends by anchor."""
    gt = tmp_path / "gt.txt"
    gt.write_text(f"far/a.jpg\n{len(FAR_XYWH)}\n" + "".join(f"{x} {y} {w} {h} 0 0 0 0 0 0\n" for x, y, w, h in FAR_XYWH))
    out = tmp_path / "run"
    argv = ["--out", str(out), "assign", "--annotations", str(gt), "--strategy", strategy]
    src = str(Path(hambox.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-m", "hambox.cli", *argv], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    rows = [line.split(",") for line in read(out / "assign.csv").splitlines()[1:]]
    for label in ("positive", "ignore"):
        anchors = [int(row[1]) for row in rows if row[3] == label]
        assert anchors == sorted(set(anchors)), label
    assert any(row[3] == "positive" for row in rows)

def test_simulate_provenance_does_not_import_numpy_ma(tmp_path):
    """numpy 2.4's hash-based `np.unique` imports `numpy.ma`, about 1.1 MB of peak RSS; no command needs it."""
    body = """\
        import sys
        from hambox.cli import main
        code = main(sys.argv[1:])
        print(code, "numpy.ma" in sys.modules)
    """
    argv = ["--out", str(tmp_path / "run"), "simulate", "--synthetic-images", "1", "--iters", "1", "--provenance"]
    proc = run_child(tmp_path, body, argv)
    assert "Traceback" not in proc.stderr
    assert proc.stdout.split() == ["0", "False"]
