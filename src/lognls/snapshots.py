"""Bit-exact artifact formats: NLSF field snapshots and 17-digit CSV tables.

NLSF layout (all little-endian): magic ``NLSF``, u32 version, u32 dim,
dim x u32 points-per-axis, dim x f64 half-widths, f64 coupling, f64 omega
(NaN when absent), f64 time, then N^dim complex samples as interleaved
(re, im) f64 pairs in row-major order.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .grid import ComplexField, Grid
from .model import ModelParams

NLSF_MAGIC = b"NLSF"
NLSF_VERSION = 1


def write_snapshot(
    path, field: ComplexField, model: ModelParams, t: float = 0.0
) -> None:
    g = field.grid
    omega = model.omega if model.omega is not None else math.nan
    with open(path, "wb") as fh:
        fh.write(NLSF_MAGIC)
        fh.write(struct.pack("<II", NLSF_VERSION, g.dim))
        fh.write(struct.pack("<" + "I" * g.dim, *([g.n] * g.dim)))
        fh.write(struct.pack("<" + "d" * g.dim, *([g.half_width] * g.dim)))
        fh.write(struct.pack("<ddd", model.lam, omega, t))
        np.ascontiguousarray(field.values, dtype="<c16").tofile(fh)


def read_snapshot(path) -> tuple[ComplexField, dict]:
    """Field and {lam, omega, t} of an NLSF file; ConfigError if it is malformed."""
    raw = Path(path).read_bytes()
    if raw[:4] != NLSF_MAGIC or len(raw) < 12:
        raise ConfigError(f"{path}: not an NLSF snapshot")
    version, dim = struct.unpack_from("<II", raw, 4)
    if version != NLSF_VERSION:
        raise ConfigError(f"{path}: unsupported NLSF version {version}")
    if dim not in (1, 2):
        raise ConfigError(f"{path}: dimension {dim} is not 1 or 2")
    off = 12 + 12 * dim + 24
    if len(raw) < off:
        raise ConfigError(f"{path}: {len(raw)} bytes is shorter than the {off}-byte header")
    ns = struct.unpack_from("<" + "I" * dim, raw, 12)
    widths = struct.unpack_from("<" + "d" * dim, raw, 12 + 4 * dim)
    lam, omega, t = struct.unpack_from("<ddd", raw, off - 24)
    if not all(0.0 < w < math.inf for w in widths):
        raise ConfigError(f"{path}: half-widths {widths} are not positive and finite")
    if len(set(ns)) != 1 or len(set(widths)) != 1:
        raise ConfigError(f"{path}: anisotropic snapshots are not supported")
    n = ns[0]
    if n < 2 or n % 2 != 0:
        raise ConfigError(f"{path}: {n} points per axis is not an even number of at least 2")
    count = n ** dim
    if len(raw) != off + 16 * count:
        raise ConfigError(
            f"{path}: {len(raw)} bytes, but a {n}^{dim} snapshot takes {off + 16 * count}"
        )
    values = np.frombuffer(raw, dtype="<c16", count=count, offset=off).reshape((n,) * dim)
    grid = Grid(dim, n, widths[0])
    meta = {"lam": lam, "omega": None if math.isnan(omega) else omega, "t": t}
    return ComplexField(grid, values.astype(complex)), meta


def format_float(x) -> str:
    """17 significant digits: round-trip exact for IEEE doubles."""
    if x is None:
        return ""
    return "%.17g" % float(x)


def write_csv(path, comments: list[str], header: list[str], rows) -> None:
    lines = []
    for c in comments:
        lines.append(f"# {c}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else format_float(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_csv(path) -> tuple[list[str], dict[str, np.ndarray]]:
    """(comments, columns) parser for the tables this package writes."""
    comments = []
    header = None
    data: list[list[str]] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            comments.append(line[1:].strip())
            continue
        if header is None:
            header = line.split(",")
            continue
        data.append(line.split(","))
    if header is None:
        raise ConfigError(f"{path}: no header row")
    cols = {}
    for j, name in enumerate(header):
        vals = [row[j] for row in data]
        try:
            cols[name] = np.asarray([float(v) if v else math.nan for v in vals])
        except ValueError:
            cols[name] = np.asarray(vals)
    return comments, cols
