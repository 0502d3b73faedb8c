import io
import re
import textwrap
from dataclasses import fields, is_dataclass
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from hambox import ingest
from hambox.anchors import AnchorConfig
from hambox.assignment import MatchParams
from hambox.geometry import Box
from hambox.ingest import (
    STRATEGIES,
    AnnotationParseError,
    ConfigError,
    DataSettings,
    FaceAnnotation,
    ImageRecord,
    SimulatorSettings,
    ToolConfig,
    dump_config,
    filter_valid,
    load_config,
    parse_config,
    parse_wider_annotations,
)
from hambox.losses import LossParams
from hambox.mining import CompensationParams

CANONICAL = textwrap.dedent(
    """\
    0--Parade/0_Parade_marchingband_1_849.jpg
    1
    10 20 30 40 0 0 0 0 0 0
    0--Parade/0_Parade_Parade_0_904.jpg
    0
    0 0 0 0 0 0 0 0 0 0
    1--Handshaking/1_Handshaking_Handshaking_1_35.jpg
    3
    100 100 50 60 1 0 1 0 2 0
    200 150 8 8 0 0 0 1 0 0
    300 50 40 40 2 1 0 0 1 1
    """
)


class TestParse:
    def test_basic_block(self):
        records = parse_wider_annotations(io.StringIO("img/a.jpg\n1\n10 20 30 40 0 0 0 0 0 0\n"))
        assert len(records) == 1
        assert records[0].path == "img/a.jpg"
        assert records[0].faces[0].box == Box(10, 20, 40, 60)

    def test_zero_count_placeholder_consumed(self):
        records = parse_wider_annotations(io.StringIO(CANONICAL))
        assert len(records) == 3
        assert records[1].faces == ()
        assert len(records[2].faces) == 3

    def test_attributes_parsed(self):
        records = parse_wider_annotations(io.StringIO(CANONICAL))
        f = records[2].faces[0]
        assert (f.blur, f.expression, f.illumination, f.invalid, f.occlusion, f.pose) == (
            1, 0, 1, 0, 2, 0,
        )

    def test_accepts_raw_text_and_line_iterables(self):
        a = parse_wider_annotations(CANONICAL)
        b = parse_wider_annotations(CANONICAL.splitlines(keepends=True))
        assert a == b

    def test_degenerate_face_lenient_dropped(self, caplog):
        text = "img/a.jpg\n2\n10 20 0 40 0 0 0 0 0 0\n10 20 30 40 0 0 0 0 0 0\n"
        with caplog.at_level("WARNING"):
            records = parse_wider_annotations(io.StringIO(text), strict=False)
        assert len(records[0].faces) == 1
        assert "degenerate" in caplog.text

    def test_degenerate_face_strict_raises(self):
        text = "img/a.jpg\n1\n10 20 30 0 0 0 0 0 0 0\n"
        with pytest.raises(AnnotationParseError, match="line 3"):
            parse_wider_annotations(io.StringIO(text), strict=True)

    def test_non_numeric_field(self):
        text = "img/a.jpg\n1\n10 xx 30 40 0 0 0 0 0 0\n"
        with pytest.raises(AnnotationParseError, match="line 3"):
            parse_wider_annotations(io.StringIO(text), strict=True)
        records = parse_wider_annotations(io.StringIO(text), strict=False)
        assert records[0].faces == ()

    def test_negative_count(self):
        text = "img/a.jpg\n-2\nimg/b.jpg\n0\n0 0 0 0 0 0 0 0 0 0\n"
        with pytest.raises(AnnotationParseError, match="count"):
            parse_wider_annotations(io.StringIO(text), strict=True)
        records = parse_wider_annotations(io.StringIO(text), strict=False)
        assert [r.path for r in records] == ["img/a.jpg", "img/b.jpg"]

    def test_truncated_block(self):
        text = "img/a.jpg\n3\n10 20 30 40 0 0 0 0 0 0\n"
        with pytest.raises(AnnotationParseError, match="truncated"):
            parse_wider_annotations(io.StringIO(text), strict=True)
        records = parse_wider_annotations(io.StringIO(text), strict=False)
        assert len(records[0].faces) == 1

    def test_path_without_count_is_truncated(self, caplog):
        text = "img/a.jpg\n1\n10 20 30 40 0 0 0 0 0 0\n\nimg/b.jpg\n"
        with pytest.raises(AnnotationParseError, match=r"^line 5: truncated block for 'img/b.jpg'$"):
            parse_wider_annotations(io.StringIO(text), strict=True)
        with caplog.at_level("WARNING"):
            records = parse_wider_annotations(io.StringIO(text), strict=False)
        assert [r.path for r in records] == ["img/a.jpg"]
        assert "skipped 1 malformed entries, dropped 0 degenerate faces" in caplog.text

    def test_zero_count_without_placeholder_reads_the_next_path(self, caplog):
        text = "img/a.jpg\n0\nimg/b.jpg\n1\n10 20 30 40 0 0 0 0 0 0\n"
        with pytest.raises(AnnotationParseError, match=r"^line 3: expected placeholder face line after zero count$"):
            parse_wider_annotations(io.StringIO(text), strict=True)
        with caplog.at_level("WARNING"):
            records = parse_wider_annotations(io.StringIO(text), strict=False)
        assert [(r.path, [f.box for f in r.faces]) for r in records] == [
            ("img/a.jpg", []),
            ("img/b.jpg", [Box(10, 20, 40, 60)]),
        ]
        assert caplog.text == ""

    def test_attribute_out_of_range(self):
        text = "img/a.jpg\n1\n10 20 30 40 7 0 0 0 0 0\n"
        with pytest.raises(AnnotationParseError, match="blur"):
            parse_wider_annotations(io.StringIO(text), strict=True)

    @pytest.mark.parametrize(
        "face",
        [f"{2**53 + 1} 20 30 40", f"10 -{2**53 + 1} 30 40", f"{2**53 - 10} 20 11 40", "10 20 30 " + "9" * 401],
        ids=["x", "negative-y", "x-plus-w", "401-digit-h"],
    )
    def test_coordinate_past_2_53_is_malformed(self, face, caplog):
        text = f"img/a.jpg\n2\n{face} 0 0 0 0 0 0\n10 20 30 40 0 0 0 0 0 0\n"
        with pytest.raises(AnnotationParseError, match="line 3: face coordinate"):
            parse_wider_annotations(io.StringIO(text), strict=True)
        with caplog.at_level("WARNING"):
            records = parse_wider_annotations(io.StringIO(text), strict=False)
        assert [f.box for f in records[0].faces] == [Box(10, 20, 40, 60)]
        assert "skipped 1 malformed entries" in caplog.text

    def test_coordinate_at_2_53_is_kept(self):
        text = f"img/a.jpg\n1\n{2**53 - 30} -{2**53} 30 40 0 0 0 0 0 0\n"
        records = parse_wider_annotations(io.StringIO(text), strict=True)
        assert records[0].faces[0].box == Box(2**53 - 30, -(2**53), 2**53, 40 - 2**53)

    def test_record_count_equals_block_count(self):
        records = parse_wider_annotations(io.StringIO(CANONICAL), strict=True)
        assert len(records) == CANONICAL.count(".jpg")
        declared = [1, 0, 3]
        assert [len(r.faces) for r in records] == declared


@st.composite
def _annotation_texts(draw):
    """WIDER-like text with rare faults: bad and negative counts, a missing count or
    placeholder, short and long face lists, face lines of 9 or 11 fields, attribute and
    coordinate extremes; also blank lines, CRLF line ends and no final newline."""

    def rarely() -> bool:
        return draw(st.integers(0, 9)) == 0

    def face_line() -> str:
        fields = [draw(st.integers(-3, 60)) for _ in range(2)] + [draw(st.integers(1, 60)) for _ in range(2)]
        fields += [draw(st.integers(0, 1)) for _ in range(6)]
        if rarely():
            fields[draw(st.integers(0, 9))] = draw(st.sampled_from([0, -1, 3, 2**53, -(2**53), 2**53 + 1, 10**30]))
        width = draw(st.sampled_from([9, 11])) if rarely() else 10
        return " ".join(map(str, (fields + [0])[:width]))

    lines = []
    for i in range(draw(st.integers(0, 4))):
        lines.append(f"img/{i}.jpg")
        count = draw(st.sampled_from(["-1", "x", "1.5", None])) if rarely() else str(draw(st.integers(0, 3)))
        if count is not None:
            lines.append(count)
        if count == "0" and not rarely():
            lines.append("0 0 0 0 0 0 0 0 0 0")
        declared = int(count) if count is not None and count.isdigit() else draw(st.integers(0, 2))
        extra = draw(st.sampled_from([-1, 1])) if rarely() else 0
        lines += [face_line() for _ in range(max(0, declared + extra))]
    text = []
    for line in lines:
        if rarely():
            text.append(draw(st.sampled_from(["", "  ", "\t"])))
        text.append(line)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(text) + (end if draw(st.booleans()) else "")


@settings(max_examples=200, deadline=None)
@given(_annotation_texts())
def test_strict_and_lenient_parses_agree(text):
    with mock.patch.object(ingest.logger, "warning") as warn:
        lenient = parse_wider_annotations(text)
    try:
        strict = parse_wider_annotations(text, strict=True)
    except AnnotationParseError as exc:
        lineno = int(re.match(r"line (\d+): ", str(exc)).group(1))
        assert 1 <= lineno <= len(text.splitlines())
    else:
        assert strict == lenient
        warn.assert_not_called()



class TestFilterValid:
    def records(self):
        return [
            ImageRecord(
                path="a.jpg",
                faces=(
                    FaceAnnotation(box=Box(0, 0, 30, 30)),
                    FaceAnnotation(box=Box(0, 0, 3, 9)),
                    FaceAnnotation(box=Box(0, 0, 30, 30), invalid=1),
                ),
            )
        ]

    def test_identity_when_nothing_filtered(self):
        recs = [ImageRecord(path="a.jpg", faces=(FaceAnnotation(box=Box(0, 0, 30, 30)),))]
        assert filter_valid(recs, 0) == recs

    def test_invalid_flag_removed(self):
        out = filter_valid(self.records(), 0)
        assert len(out[0].faces) == 2

    def test_min_side(self):
        out = filter_valid(self.records(), 5)
        assert len(out[0].faces) == 1
        assert out[0].faces[0].box == Box(0, 0, 30, 30)

    def test_images_retained_when_all_faces_dropped(self):
        out = filter_valid(self.records(), 100)
        assert len(out) == 1
        assert out[0].faces == ()
        assert out[0].path == "a.jpg"

    def test_negative_min_side(self):
        for bad in (-1, float("nan")):  # NaN fails every comparison: it would drop every face
            with pytest.raises(ValueError, match="min_side"):
                filter_valid(self.records(), bad)
            with pytest.raises(ValueError, match="min_side"):
                DataSettings(min_side=bad)

    def test_degenerate_face_dropped(self):
        from hambox.stats import dataset_census

        kept = FaceAnnotation(box=Box(0, 0, 16, 16))
        recs = [ImageRecord(path="a.jpg", faces=(kept, FaceAnnotation(box=Box(20, 20, 20, 36))))]
        assert filter_valid(recs, 0)[0].faces == (kept,)
        census = dataset_census(recs, AnchorConfig(levels=((16, 16),)), 0.35)
        assert census.total_faces == 1


def _float_keys() -> list[tuple[str, str]]:
    """(section, key) of every float-typed field of the config dataclasses."""
    cfg = ToolConfig()
    return [
        (section.name, f.name.lower())
        for section in fields(cfg)
        if is_dataclass(getattr(cfg, section.name))
        for f in fields(getattr(cfg, section.name))
        if f.type == "float"
    ]


NON_FINITE = [(section, key, value) for section, key in _float_keys() for value in ("nan", "inf", "-inf")] + [
    ("anchors", "strides", "4, 8, 16, 32, 64, inf"),
    ("anchors", "base_scales", "nan, 32, 64, 128, 256, 512"),
    ("simulator", "quality_ramp", "nan:0.5"),
    ("simulator", "quality_ramp", "0:-inf"),
]

_finite = st.floats(allow_nan=False, allow_infinity=False)
_unit = st.floats(0.0, 1.0)
_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_non_negative = st.floats(min_value=0.0, allow_infinity=False)
# Printable one-line paths without surrounding whitespace; INI syntax
# characters such as % ; # = : are deliberately allowed.
_paths = st.text(st.characters(min_codepoint=32, max_codepoint=0x2FFF), max_size=30).filter(
    lambda s: s.isprintable() and s == s.strip()
)


@st.composite
def _levels(draw):
    n = draw(st.integers(1, 6))
    strides = sorted(draw(st.lists(_positive, min_size=n, max_size=n, unique=True)))
    scales = draw(st.lists(_positive, min_size=n, max_size=n))
    return tuple(zip(strides, scales))


_budgets = st.integers(1, 2**63 - 1)  # per-face budgets are int64
_configs = st.builds(
    ToolConfig,
    anchors=st.builds(AnchorConfig, levels=_levels(), scale_ratio=_positive, aspect_ratio=_positive),
    strategy=st.sampled_from(STRATEGIES),
    match=st.builds(
        MatchParams,
        iou_threshold=st.floats(0.0, 1.0, exclude_min=True),
        nams_stage2_floor=_unit,
        nams_top_n_mode=st.just("mean_matched") | _budgets,
    ),
    compensation=st.builds(CompensationParams, T=_unit, K=_budgets),
    loss=st.builds(
        LossParams,
        alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        gamma=_non_negative,
        smooth_l1_beta=_positive,
    ),
    simulator=st.builds(
        SimulatorSettings,
        q=_unit,
        noise_sigma=_non_negative,
        seed=st.integers(min_value=0),
        quality_ramp=st.none() | st.tuples(_unit, _unit),
        score_scale=_finite,
        score_bias=_finite,
    ),
    data=st.builds(DataSettings, annotations=st.none() | _paths, min_side=_non_negative),
)


class TestConfig:
    def test_empty_config_is_all_defaults(self):
        cfg = parse_config("")
        assert cfg.compensation.K == 3
        assert cfg.compensation.T == 0.8
        assert cfg.match.iou_threshold == 0.35
        assert cfg.anchors.scale_ratio == 0.68
        assert cfg.loss.alpha == 0.25
        assert cfg.loss.gamma == 2.0
        assert cfg.strategy == "sms"

    def test_out_of_range_value_names_key(self):
        with pytest.raises(ConfigError, match="T"):
            parse_config("[compensation]\nt = 1.5\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key 'foo'"):
            parse_config("[match]\nfoo = 1\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown config section \[extras\]"):
            parse_config("[extras]\nx = 1\n")

    @pytest.mark.parametrize("text", ["[DEFAULT]\nk = 4\n", "[DEFAULT]\nk = 4\n[compensation]\nt = 0.7\n"])
    def test_default_section_rejected(self, text):
        with pytest.raises(ConfigError, match=r"unknown config section \[DEFAULT\]"):
            parse_config(text)

    def test_bad_strategy(self):
        with pytest.raises(ConfigError, match="strategy"):
            parse_config("[match]\nstrategy = yolo\n")

    def test_mismatched_level_lists(self):
        with pytest.raises(ConfigError, match="pair up"):
            parse_config("[anchors]\nstrides = 4, 8\nbase_scales = 16\n")

    def test_values_parsed(self):
        cfg = parse_config(
            textwrap.dedent(
                """\
                [anchors]
                strides = 8, 16
                base_scales = 32, 64
                scale_ratio = 0.5

                [match]
                strategy = nams
                nams_top_n_mode = 4

                [compensation]
                t = 0.7
                k = 5

                [simulator]
                quality_ramp = 0.1:0.9
                """
            )
        )
        assert cfg.anchors.levels == ((8.0, 32.0), (16.0, 64.0))
        assert cfg.anchors.scale_ratio == 0.5
        assert cfg.strategy == "nams"
        assert cfg.match.nams_top_n_mode == 4
        assert cfg.compensation.T == 0.7
        assert cfg.compensation.K == 5
        assert cfg.simulator.quality_ramp == (0.1, 0.9)

    def test_dump_load_roundtrip(self):
        cfg = parse_config(
            "[compensation]\nt = 0.9\nk = 2\n[match]\nstrategy = dms\n"
            "[simulator]\nquality_ramp = 0:0.95\nseed = 17\n[data]\nmin_side = 2\n"
        )
        again = parse_config(dump_config(cfg))
        assert again == cfg

    def test_default_roundtrip(self):
        cfg = ToolConfig()
        assert parse_config(dump_config(cfg)) == cfg

    def test_percent_in_value_is_literal(self):
        cfg = parse_config("[data]\nannotations = /d/100%/gt.txt\n")
        assert cfg.data.annotations == "/d/100%/gt.txt"
        assert parse_config(dump_config(cfg)) == cfg

    @pytest.mark.parametrize("section,key,value", NON_FINITE)
    def test_non_finite_number_rejected(self, section, key, value):
        with pytest.raises(ConfigError, match=rf"^\[{section}\] {key}: must be a finite number"):
            parse_config(f"[{section}]\n{key} = {value}\n")

    @pytest.mark.parametrize(
        "text",
        ["[compensation]\nk = 2.0\n", "[compensation]\nt = 1.5\n", "[anchors]\nscale_ratio = x\n"],
    )
    def test_bad_value_names_section_once(self, text):
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert str(info.value).count(text.split("\n")[0]) == 1

    @settings(max_examples=500, deadline=None)
    @given(_configs)
    @example(ToolConfig(data=DataSettings(annotations="/d/100%/a;b#c = d:e.txt")))
    def test_dump_parse_roundtrip_fuzzed(self, cfg):
        assert parse_config(dump_config(cfg)) == cfg

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.ini")

    def test_load_config_from_file(self, tmp_path):
        p = tmp_path / "conf.ini"
        p.write_text("[compensation]\nk = 4\n")
        assert load_config(p).compensation.K == 4
