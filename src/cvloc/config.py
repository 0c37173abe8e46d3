"""Scenario configuration, and the program's one file layer.

The file format is one ``key = value`` pair per line, ``#`` comments, blank
lines ignored. Unknown keys are hard errors so a typo in a noise parameter
cannot silently invalidate an experiment. Every key can also be overridden
from the command line via ``--set key=value``.

Every file the program writes goes through :func:`write_lines` (text) or
:func:`write_records` (a binary header and one record array), so a failed
command can remove what it created. The two binary files, the database and
the parameter container, pack their headers with :func:`pack_header` and
are read, header and body, by :func:`read_container`; the two text inputs,
a config and a trajectory, read their lines with :func:`read_lines`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Iterator, Literal, get_args, get_type_hints

import numpy as np

from .mapgrid import GeoRect


class ConfigError(ValueError):
    """Invalid scenario configuration (bad key, value, or combination)."""


# Files and directories a command created, in creation order; cleared and,
# when the command fails, removed by cli.main.
CREATED_OUTPUTS: list[str] = []


def open_output(path: str, mode: str = "w"):
    """``open`` for writing (UTF-8 text, or bytes with mode "wb") that records
    in CREATED_OUTPUTS the files it creates."""
    if not os.path.lexists(path):
        CREATED_OUTPUTS.append(path)
    return open(path, mode, encoding=None if "b" in mode else "utf-8")


def make_output_dir(path: str) -> None:
    """``os.makedirs(path, exist_ok=True)`` that records in CREATED_OUTPUTS
    each directory it creates, outermost first."""
    missing, head = [], os.path.normpath(path)
    while head and not os.path.lexists(head):
        missing.append(head)
        head = os.path.dirname(head)
    for directory in reversed(missing):
        os.mkdir(directory)
        CREATED_OUTPUTS.append(directory)
    os.makedirs(path, exist_ok=True)  # raises as it would when ``path`` is not a directory


def write_lines(path: str, lines: Iterable[str]) -> None:
    """Write each of ``lines`` followed by a newline, as UTF-8 text."""
    with open_output(path) as fh:
        fh.writelines(line + "\n" for line in lines)


def write_records(path: str, header: bytes, records: np.ndarray) -> None:
    """Write ``header``, then the buffer of the C-contiguous array ``records`` as it is."""
    with open_output(path, "wb") as fh:
        fh.write(header)
        fh.write(records)


def _header(magic: bytes, fields: list[tuple[str, str]]) -> np.dtype:
    """``magic``, a u32 version, then the (name, format) header ``fields``."""
    return np.dtype([("magic", f"S{len(magic)}"), ("version", "<u4"), *fields])


def pack_header(magic: bytes, fields: list[tuple[str, str]], *values: int) -> bytes:
    """The header of version 1 that states ``values`` as the little-endian ``fields``."""
    return np.array((magic, 1, *values), dtype=_header(magic, fields)).tobytes()


def read_container(path: str, magic: bytes, fields: list[tuple[str, str]], kind: str,
                   body: Callable[..., tuple[list, int]]) -> tuple[list[int], np.ndarray]:
    """The header values, as Python ints (numpy's would wrap), and the body of
    the :func:`pack_header` file at ``path``. ``body(*values)`` gives the
    body's (name, format, shape) record fields and count, whose size is
    checked against the bytes that follow before anything is allocated. The
    header and the body are each read by one ``readinto``; every error is a
    ValueError that names ``kind``."""
    header = np.zeros((), dtype=_header(magic, fields))
    with open(path, "rb") as fh:
        read = fh.readinto(header)
        found, version, *values = header.item()
        if found != magic:
            raise ValueError(f"not a {kind} file")
        if read != header.nbytes:
            raise ValueError(f"{kind} file ended after {read} of its {header.nbytes} header bytes")
        if version != 1:
            raise ValueError(f"unsupported {kind} file version {version}")
        layout, count = body(*values)
        size = count * sum(np.dtype(fmt).itemsize * math.prod(shape) for _, fmt, shape in layout)
        rest = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != rest:
            raise ValueError(f"{kind} file truncated or overlong: its header declares {size} body bytes, "
                             f"which does not match the {rest} bytes that follow")
        records = np.empty(count, dtype=layout)
        if (read := fh.readinto(records)) != rest:
            raise ValueError(f"{kind} file ended after {read} of its {rest} declared bytes")
    return values, records


def read_lines(path: str, error: type[ValueError] = ValueError) -> Iterator[tuple[str, str]]:
    """Each line of the UTF-8 text file at ``path``, stripped, with its
    source ``path:line``. A byte that is not UTF-8 raises ``error`` naming
    its line and column."""
    # a byte that is not UTF-8 is read as an escape, so that its line can be named
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as e:
                raise error(f"{path}:{lineno}: not UTF-8 text: byte 0x{ord(line[e.start]) - 0xDC00:02x} "
                            f"at column {e.start + 1}") from None
            yield f"{path}:{lineno}", line.strip()


def _parse_bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("true", "1", "yes", "on"):
        return True
    if v in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


@dataclass
class ScenarioConfig:
    # map and world
    lat_min: float = 40.0
    lat_max: float = 40.00396
    lon_min: float = -105.0
    lon_max: float = -104.99483
    cell_interval: float = 5.0
    world_kind: Literal["smooth", "flat"] = "smooth"  # flat = uninformative descriptors
    world_seed: int = 7
    world_features: int = 24
    world_feature_dim: int = 16
    world_length_scale: float = 25.0
    world_view_noise: float = 0.05
    corridor: bool = False
    corridor_width: float = 10.0
    corridor_gain: float = 1.0
    alias_regions: str = ""  # "src_x,src_y,dst_x,dst_y,radius;..."

    # descriptor pipeline
    pipeline_variant: Literal["dual", "shared"] = "dual"
    clusters: int = 8
    reduced_dim: int = 32
    hidden_dim: int = 16
    normalize_descriptors: bool = True
    params_seed: int = 11
    params_file: str = ""

    # trajectory
    trajectory_file: str = ""
    traj_kind: Literal["loop", "line"] = "loop"
    traj_steps: int = 200
    traj_length: float = 1000.0

    # filter
    particles: int = 1000
    master_seed: int = 1
    measurement_mode: Literal["corner-sum", "bilinear"] = "corner-sum"
    probability_floor: float = 1e-12
    sigma_trans: float = 0.1
    sigma_trans_rate: float = 0.02
    sigma_rot_deg: float = 0.5
    sigma_rot_rate: float = 0.01
    # simulated odometry corruption; the filter's own sigmas above are kept
    # slightly inflated relative to these, as a real deployment would tune them
    odom_sigma_trans: float = 0.1
    odom_sigma_trans_rate: float = 0.02
    odom_sigma_rot_deg: float = 0.3
    odom_sigma_rot_rate: float = 0.01
    init_spread_xy: float = 2.0
    init_spread_theta_deg: float = 1.0
    ess_threshold: float = 0.0  # 0 disables the gate: resample every step

    # outputs
    out_dir: str = "out"
    log_format: Literal["csv", "jsonl"] = "csv"
    heatmap_every: int = 0
    heatmap_contrast: Literal["linear", "exponential"] = "exponential"

    # retrieval evaluation
    eval_queries: int = 200
    eval_top_k: int = 20
    eval_percent: float = 1.0
    eval_thresholds: str = "5,10,25,50,100"
    loss_alpha: float = 10.0

    def geo_bounds(self) -> GeoRect:
        return GeoRect(self.lat_min, self.lat_max, self.lon_min, self.lon_max)

    def validate(self) -> None:
        if self.cell_interval <= 0:
            raise ConfigError("cell_interval must be positive")
        for name, choices in _CHOICES.items():
            if (value := getattr(self, name)) not in choices:
                raise ConfigError(f"{name} must be one of {', '.join(choices)}, got {value!r}")
        for name in ("particles", "traj_steps", "clusters", "reduced_dim", "hidden_dim", "world_features",
                     "world_feature_dim", "eval_queries", "eval_top_k"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        for name in ("traj_length", "world_length_scale", "corridor_width", "loss_alpha"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ConfigError(f"{name} must be finite and positive")
        if not (0 < self.probability_floor < 1):
            raise ConfigError("probability_floor must be in (0, 1)")
        if not (0 < self.eval_percent <= 100):
            raise ConfigError("eval_percent must be in (0, 100]")
        if self.heatmap_every < 0:
            raise ConfigError("heatmap_every must be >= 0")
        if not math.isfinite(self.corridor_gain):
            raise ConfigError("corridor_gain must be finite")
        for name in (
            "sigma_trans", "sigma_trans_rate", "sigma_rot_deg", "sigma_rot_rate",
            "odom_sigma_trans", "odom_sigma_trans_rate", "odom_sigma_rot_deg",
            "odom_sigma_rot_rate", "init_spread_xy", "init_spread_theta_deg", "ess_threshold",
            "world_view_noise",
        ):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ConfigError(f"{name} must be finite and non-negative")
        for name in ("trajectory_file", "params_file"):
            path = getattr(self, name)
            if path and not os.path.exists(path):
                raise ConfigError(f"{name} does not exist: {path}")
        try:
            self.parsed_aliases()
            self.parsed_thresholds()
        except ValueError as e:
            raise ConfigError(str(e)) from None

    def parsed_aliases(self) -> list[tuple[float, float, float, float, float]]:
        out = []
        if not self.alias_regions.strip():
            return out
        for chunk in self.alias_regions.split(";"):
            parts = [p for p in chunk.strip().split(",") if p]
            if len(parts) != 5:
                raise ValueError(f"alias region needs 5 numbers, got {chunk!r}")
            vals = tuple(float(p) for p in parts)
            if not (all(math.isfinite(v) for v in vals) and vals[4] >= 0):
                raise ValueError(f"alias region needs finite numbers and a radius >= 0, got {chunk!r}")
            out.append(vals)
        return out

    def parsed_thresholds(self) -> list[float]:
        vals = [float(p) for p in self.eval_thresholds.split(",") if p.strip()]
        if not vals or not all(v >= 0 for v in vals):
            raise ValueError("eval_thresholds must list at least one distance, none negative or NaN")
        return vals


# the choices of each key typed as a Literal, which _FIELDS reads as a str
_CHOICES = {name: get_args(hint) for name, hint in get_type_hints(ScenarioConfig).items() if get_args(hint)}
_FIELDS = {f.name: {"bool": _parse_bool, "int": int, "float": float}.get(f.type, str)
           for f in fields(ScenarioConfig)}


def _set_entry(cfg: ScenarioConfig, text: str, source: str) -> None:
    """Set on ``cfg`` the ``key = value`` entry ``text``, split on the first
    ``=`` and stripped; every error starts with ``source`` (``path:line`` or
    ``--set``)."""
    key, eq, raw = text.partition("=")
    key, raw = key.strip(), raw.strip()
    if not eq:
        raise ConfigError(f"{source}: expected 'key = value', got {text!r}")
    if key not in _FIELDS:
        raise ConfigError(f"{source}: unknown config key {key!r}")
    try:
        setattr(cfg, key, _FIELDS[key](raw))
    except ValueError as e:
        raise ConfigError(f"{source}: bad value for {key}: {e}") from None


def load_config(path: str | None, overrides: list[str] | None = None) -> ScenarioConfig:
    """The config of the defaults, then each line of the file at ``path``
    (none when ``path`` is None), then each ``key=value`` of ``overrides``
    in order; ``simulate.build_scenario`` validates it."""
    cfg = ScenarioConfig()
    for source, line in read_lines(path, ConfigError) if path is not None else ():
        text = line.split("#", 1)[0].strip()
        if text:
            _set_entry(cfg, text, source)
    for entry in overrides or ():
        _set_entry(cfg, entry, "--set")
    return cfg
