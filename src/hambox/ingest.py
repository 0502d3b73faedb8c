"""Annotation parsing and tool configuration.

Ground-truth input follows the WIDER FACE ``*_bbx_gt.txt`` layout: repeated
blocks of an image path line, a face-count line, and one line of ten
space-separated integers per face (``x y w h blur expression illumination
invalid occlusion pose``). A block declaring zero faces is followed by a
single all-zero placeholder line, which is consumed and discarded. A face
with a corner coordinate past 2**53 in magnitude is malformed.

Configuration is a sectioned key-value (INI) file read off the fields of
:class:`ToolConfig` (see ``_ini_view``); every key is optional and defaults to
its value in ``ToolConfig()``. Unknown sections or keys and non-finite
numbers are rejected by name.
"""

from __future__ import annotations

import configparser
import io
import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields as dataclass_fields, is_dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .anchors import AnchorConfig, default_hambox_config
from .assignment import MatchParams
from .geometry import Box
from .losses import LossParams
from .mining import CompensationParams

logger = logging.getLogger(__name__)

STRATEGIES = ("sms", "dms", "nams", "hambox")

# WIDER FACE attribute ranges: (name, max code); all minimums are 0.
_ATTR_RANGES = (("blur", 2), ("expression", 1), ("illumination", 1), ("invalid", 1), ("occlusion", 2), ("pose", 1))


# Past 2**53 float64 no longer holds every integer, so a face's box would
# not be its annotated box.
_MAX_COORD = 2**53


class AnnotationParseError(ValueError):
    """Malformed annotation input (strict mode only)."""


class ConfigError(ValueError):
    """Invalid or unknown configuration entry."""


@dataclass(frozen=True)
class FaceAnnotation:
    box: Box
    blur: int = 0
    expression: int = 0
    illumination: int = 0
    invalid: int = 0
    occlusion: int = 0
    pose: int = 0


@dataclass(frozen=True)
class ImageRecord:
    path: str
    faces: tuple[FaceAnnotation, ...]

    def face_boxes(self) -> np.ndarray:
        """(F, 4) array of this image's face boxes."""
        if not self.faces:
            return np.zeros((0, 4))
        return np.array([f.box for f in self.faces], dtype=np.float64)


def _parse_face_fields(parts: Sequence[str]) -> tuple[int, ...]:
    if len(parts) != 10:
        raise ValueError(f"expected 10 fields, got {len(parts)}")
    return tuple(int(p) for p in parts)


def _is_face_line(line: str | None) -> bool:
    """Whether `line` holds ten integer fields; None, the end of input, does not."""
    try:
        _parse_face_fields((line or "").split())
    except ValueError:
        return False
    return True


def parse_wider_annotations(
    stream: Iterable[str] | io.TextIOBase | str,
    strict: bool = False,
) -> list[ImageRecord]:
    """Parse annotation text into image records.

    `stream` is an open text file, an iterable of lines, or the raw text
    itself. In strict mode any malformed or degenerate entry raises
    :class:`AnnotationParseError` with its line number; in lenient mode bad
    faces are dropped and summarized in a single warning.
    """
    if isinstance(stream, str):
        stream = stream.splitlines(keepends=True)
    lines = ((n, raw.rstrip("\n").rstrip("\r")) for n, raw in enumerate(stream, 1) if raw.strip())
    ahead: list[tuple[int, str]] = []  # a line read one too far, to be read again
    lineno = 0  # line number of the most recently taken line
    records: list[ImageRecord] = []
    dropped = {"malformed": 0, "degenerate": 0}

    def take() -> str | None:
        """The next nonblank line, or None at the end of input."""
        nonlocal lineno
        lineno, line = ahead.pop() if ahead else next(lines, (lineno, None))
        return line

    def reject(message: str, kind: str | None = "malformed") -> None:
        """Raise on the current line in strict mode; else count the entry as `kind` (None: tolerated)."""
        if strict:
            raise AnnotationParseError(f"line {lineno}: {message}") from None
        if kind is not None:
            dropped[kind] += 1

    while (path := take()) is not None:
        count_line = take()
        if count_line is None:
            reject(f"truncated block for {path!r}")
            break
        try:
            count = int(count_line.strip())
            if count < 0:
                raise ValueError("negative count")
        except ValueError:
            reject(f"bad face count {count_line.strip()!r} for {path!r}")
            # Recovery: discard anything that still looks like a face line.
            while _is_face_line(line := take()):
                pass
            if line is not None:
                ahead.append((lineno, line))
            records.append(ImageRecord(path=path, faces=()))
            continue

        faces: list[FaceAnnotation] = []
        if count == 0:
            # The distributed files pad empty images with one all-zero line.
            if not _is_face_line(placeholder := take()):
                reject("expected placeholder face line after zero count", None)
                if placeholder is not None:
                    ahead.append((lineno, placeholder))
        for _ in range(count):
            line = take()
            if line is None:
                reject(f"truncated block for {path!r}")
                break
            try:
                x, y, w, h, *attrs = _parse_face_fields(line.split())
            except ValueError as exc:
                reject(str(exc))
                continue
            attr_map = dict(zip((name for name, _ in _ATTR_RANGES), attrs))
            bad_attr = next((name for name, hi in _ATTR_RANGES if not 0 <= attr_map[name] <= hi), None)
            if max(abs(x), abs(y), abs(x + w), abs(y + h)) > _MAX_COORD:
                reject("face coordinate beyond 2**53 in magnitude")
            elif bad_attr is not None:
                reject(f"attribute {bad_attr}={attr_map[bad_attr]} out of range")
            elif w <= 0 or h <= 0:
                reject(f"degenerate face {w}x{h} at ({x}, {y})", "degenerate")
            else:
                faces.append(FaceAnnotation(box=Box(x, y, x + w, y + h), **attr_map))
        records.append(ImageRecord(path=path, faces=tuple(faces)))

    if dropped["malformed"] or dropped["degenerate"]:
        logger.warning(
            "annotation parse: skipped %d malformed entries, dropped %d degenerate faces",
            dropped["malformed"],
            dropped["degenerate"],
        )
    return records


def load_wider_annotations(path: str | Path, strict: bool = False) -> list[ImageRecord]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_wider_annotations(fh, strict=strict)


def _valid(records: Sequence[ImageRecord], min_side: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """The face rule: every face box of `records`, in order, as an (N, 4) array, and which of them are kept.

    A face is kept unless it is flagged invalid, degenerate (width or
    height <= 0) or has a side shorter than `min_side`. Sides are taken from
    the array, as `Box.width` and `Box.height` take them from the box.
    """
    if not min_side >= 0:
        raise ValueError(f"min_side must be >= 0, got {min_side}")
    faces = [f for rec in records for f in rec.faces]
    boxes = np.array([f.box for f in faces], dtype=np.float64).reshape(-1, 4)
    with np.errstate(over="ignore", invalid="ignore"):  # a side past the float range is inf, and inf - inf NaN
        w, h = boxes[:, 2] - boxes[:, 0], boxes[:, 3] - boxes[:, 1]
    keep = np.array([f.invalid != 1 for f in faces], dtype=bool) & (w > 0) & (h > 0) & (np.minimum(w, h) >= min_side)
    return boxes, keep


def filter_valid(records: Sequence[ImageRecord], min_side: float = 0.0) -> list[ImageRecord]:
    """Drop faces flagged invalid, degenerate (width or height <= 0) or with a
    side shorter than `min_side`; keep every image. The one face rule
    (`_valid`), which the census (`stats`) reads too."""
    keep = iter(_valid(records, min_side)[1].tolist())
    return [ImageRecord(path=rec.path, faces=tuple(f for f in rec.faces if next(keep))) for rec in records]


_T = TypeVar("_T")


def _map_images(work: Callable[[int], _T], n: int, threads: int) -> Iterator[_T]:
    """Yields work(0), ..., work(n - 1) in image order; on a pool of `threads`
    workers when `threads` > 1. The one image walk of every command."""
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            yield from pool.map(work, range(n))
    else:
        yield from map(work, range(n))


# ---------------------------------------------------------------------------
# Tool configuration


@dataclass(frozen=True)
class SimulatorSettings:
    """Declarative form of the synthetic regression head used by the CLI."""

    q: float = 0.9
    noise_sigma: float = 0.0
    seed: int = 0
    quality_ramp: tuple[float, float] | None = None  # (start, end) over a run
    score_scale: float = 4.0
    score_bias: float = -2.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {self.q}")
        if self.noise_sigma < 0.0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.quality_ramp is not None:
            for value in self.quality_ramp:
                if not 0.0 <= value <= 1.0:
                    raise ValueError(f"quality_ramp values must be in [0, 1], got {value}")


@dataclass(frozen=True)
class DataSettings:
    annotations: str | None = None
    min_side: float = 0.0

    def __post_init__(self) -> None:
        if not self.min_side >= 0:
            raise ValueError(f"min_side must be >= 0, got {self.min_side}")


@dataclass(frozen=True)
class ToolConfig:
    anchors: AnchorConfig = field(default_factory=default_hambox_config)
    strategy: str = "sms"
    match: MatchParams = field(default_factory=MatchParams)
    compensation: CompensationParams = field(default_factory=CompensationParams)
    loss: LossParams = field(default_factory=LossParams)
    simulator: SimulatorSettings = field(default_factory=SimulatorSettings)
    data: DataSettings = field(default_factory=DataSettings)

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")


def _finite_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"must be a finite number, got {raw.strip()!r}")
    return value


def _float_list(raw: str) -> tuple[float, ...]:
    return tuple(_finite_float(v) for v in raw.replace(",", " ").split())


def _top_n_mode(raw: str) -> str | int:
    raw = raw.strip()
    return raw if raw == "mean_matched" else int(raw)


def _ramp(raw: str) -> tuple[float, float]:
    parts = raw.split(":")
    if len(parts) != 2:
        raise ValueError(f"quality_ramp must be 'start:end', got {raw!r}")
    return _finite_float(parts[0]), _finite_float(parts[1])


# (decode, encode) for INI keys whose text is not one int or float.
_CODECS = {
    "strides": (_float_list, lambda v: ", ".join(map(repr, v))),
    "base_scales": (_float_list, lambda v: ", ".join(map(repr, v))),
    "strategy": (lambda raw: raw.strip().lower(), str),
    "nams_top_n_mode": (_top_n_mode, str),
    "quality_ramp": (_ramp, lambda v: ":".join(repr(float(x)) for x in v)),
    "annotations": (str, str),
}


def _ini_view(cfg: ToolConfig) -> dict[str, dict[str, object]]:
    """Section -> key -> value view of `cfg`, the schema of the INI file.

    Each section is the ToolConfig field of that name, and its keys are that
    dataclass's field names, lowercased, with float fields as floats.
    `[anchors]` spells `levels` as `strides` plus `base_scales`, and `[match]`
    also holds `ToolConfig.strategy`.
    """
    view = {}
    for section in dataclass_fields(cfg):
        obj = getattr(cfg, section.name)
        if is_dataclass(obj):
            values = {f.name.lower(): (f.type, getattr(obj, f.name)) for f in dataclass_fields(obj)}
            view[section.name] = {k: float(v) if t == "float" else v for k, (t, v) in values.items()}
    levels = view["anchors"].pop("levels")
    view["anchors"] = {
        "strides": tuple(float(s) for s, _ in levels),
        "base_scales": tuple(float(b) for _, b in levels),
        **view["anchors"],
    }
    view["match"] = {"strategy": cfg.strategy, **view["match"]}
    return view


def parse_config(text: str) -> ToolConfig:
    """Parse and validate configuration text; unset keys keep ToolConfig()'s values."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"unparseable config: {exc}") from None

    if parser.defaults():
        raise ConfigError(f"unknown config section [{parser.default_section}]")
    base = ToolConfig()
    view = _ini_view(base)
    for section in parser.sections():
        if section not in view:
            raise ConfigError(f"unknown config section [{section}]")
        values = view[section]
        for key, raw in parser[section].items():
            if key not in values:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            try:
                if key in _CODECS:
                    values[key] = _CODECS[key][0](raw)
                else:
                    values[key] = int(raw) if isinstance(values[key], int) else _finite_float(raw)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from None

    strategy = view["match"].pop("strategy")
    strides, scales = view["anchors"].pop("strides"), view["anchors"].pop("base_scales")
    if len(strides) != len(scales):
        raise ConfigError(
            f"[anchors] strides and base_scales must pair up, got {len(strides)} vs {len(scales)}"
        )
    view["anchors"]["levels"] = tuple(zip(strides, scales))
    sections = {}
    for name, values in view.items():
        obj = getattr(base, name)
        try:
            sections[name] = replace(obj, **{f.name: values[f.name.lower()] for f in dataclass_fields(obj)})
        except ValueError as exc:
            raise ConfigError(f"[{name}]: {exc}") from None
    try:
        return replace(base, strategy=strategy, **sections)
    except ValueError as exc:
        raise ConfigError(f"[match]: {exc}") from None


def load_config(path: str | Path) -> ToolConfig:
    """Read and validate a config file; an empty or missing-section file is all defaults."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text)


def dump_config(cfg: ToolConfig) -> str:
    """Render a config back to INI text; parse_config(dump_config(c)) == c.

    Floats are written with repr, the shortest text that reads back exactly;
    unset optional keys are left out.
    """
    blocks = []
    for section, values in _ini_view(cfg).items():
        lines = [f"[{section}]"]
        for key, value in values.items():
            encode = _CODECS[key][1] if key in _CODECS else repr
            if value is not None:
                lines.append(f"{key} = {encode(value)}")
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks)
