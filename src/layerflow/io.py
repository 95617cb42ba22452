"""Field and configuration file formats.

Field files (extension-agnostic, magic "LFF1") are bit-exact containers:
  magic "LFF1" | u32 version=1, n, q, N, M_plus_1 | f64 L, T | payload
with M_plus_1 = 1 for static fields and the payload holding the components in
increasing multi-index order, each a C-order [t][x1]...[xn] float64 array;
all integers and floats little-endian. The header's n, N, L and T obey the
rules of GridSpec, which states them once; read_field reports a broken rule
as a FieldFormatError with GridSpec's message, which names the field.

Config files are flat "key = value" text with dotted section keys, each set
at most once; '#' starts a comment. A config describes the problem only
(grid, potential, solver and norms); the output directory is a command-line
flag. Each section is a dataclass (GridSpec, PotentialConfig, SolverConfig,
HolderParams) that owns its keys' defaults, types and rules; io states only
the default grid and that grid.M obeys the time stencil (a field file's grid
need not), and reports a refusal as "key 'solver.tol' (line 3): ...".
CSV output is RFC-4180-style with a header row and scientific
notation carrying 17 significant digits.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .geometry import GridSpec
from .forms import FormField, _check_time_stencil, _layout
from .holder import HolderParams
from .nse import SolverConfig
from .potentials import PotentialConfig

MAGIC = b"LFF1"


class FieldFormatError(ValueError):
    """Malformed field file; the message names the offending header field."""


class ConfigError(ValueError):
    pass


def write_field(path, field: FormField) -> None:
    """Write a field file. The payload is written from the buffer of the
    field's data (copied first only when it is not a contiguous "<f8"
    array), so a write holds no copy of it."""
    grid = field.grid
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<5I", 1, grid.n, field.degree, grid.N, field.flat().shape[1]))
        fh.write(struct.pack("<2d", grid.L, grid.T))
        fh.write(memoryview(np.ascontiguousarray(field.data, dtype="<f8")).cast("B"))


def read_field(path, grid: GridSpec | None = None) -> FormField:
    """Read a field file; a grid must be supplied for static fields whenever
    the time discretization matters downstream (the file does not carry M for
    them). The header's n, N, L and T must make a GridSpec, and match the
    grid when one is given. The payload is read once, straight into the
    array of the form returned."""
    with open(path, "rb") as fh:
        raw = fh.read(40)
        payload = os.fstat(fh.fileno()).st_size - len(raw)
    if raw[:4] != MAGIC:
        raise FieldFormatError("magic: expected LFF1")
    if len(raw) < 4 + 20 + 16:
        raise FieldFormatError("header: truncated file")
    version, n, q, N, m_plus_1 = struct.unpack("<5I", raw[4:24])
    L, T = struct.unpack("<2d", raw[24:40])
    if version != 1:
        raise FieldFormatError(f"version: unsupported value {version}")
    time_dependent = m_plus_1 > 1
    try:  # GridSpec owns the rules for n, N, L and T; its messages name the field
        header = GridSpec(n=n, N=N, L=L, M=m_plus_1 - 1 if time_dependent else 1, T=T)
    except ValueError as err:
        raise FieldFormatError(str(err)) from err
    if q > n:
        raise FieldFormatError(f"q: degree {q} exceeds dimension {n}")
    if m_plus_1 < 1:
        raise FieldFormatError(f"M_plus_1: must be >= 1, got {m_plus_1}")
    if grid is None:
        grid = header
    else:
        for name in ("n", "N", "L", "T"):  # n and N are integers: any difference counts
            got, want = getattr(header, name), getattr(grid, name)
            if abs(got - want) > 1e-12 * max(1.0, abs(want)):
                raise FieldFormatError(f"{name}: file has {got}, config grid has {want}")
        if time_dependent and m_plus_1 != grid.M + 1:
            raise FieldFormatError(f"M_plus_1: file has {m_plus_1}, config grid has {grid.M + 1}")
    shape = _layout(grid, q, time_dependent)
    if payload != 8 * math.prod(shape):
        extra = f" and {payload % 8} bytes" if payload % 8 else ""
        raise FieldFormatError(f"payload: expected {math.prod(shape)} doubles, "
                               f"found {payload // 8}{extra}")
    data = np.fromfile(path, dtype="<f8", count=math.prod(shape), offset=len(raw))
    return FormField(grid, q, data.reshape(shape))


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    grid: GridSpec
    solver: SolverConfig
    norms: HolderParams


# The config schema: a section's keys are the fields of its dataclass whose
# default is a number or a string (one renamed), each parsed with the type of
# its default. Only the grid's defaults are stated here: GridSpec has none.
_SECTIONS = {"grid": GridSpec(n=2, N=64, L=6.0, M=16, T=0.5), "potential": PotentialConfig(),
             "solver": SolverConfig(), "norms": HolderParams()}
_FIELDS = {f"{section}.{'lambda' if f.name == 'lam' else f.name}": (section, f.name)
           for section, obj in _SECTIONS.items() for f in fields(obj)
           if isinstance(getattr(obj, f.name), (int, float, str))}
_DEFAULTS = {key: getattr(_SECTIONS[section], name) for key, (section, name) in _FIELDS.items()}
_EXPECTED = {int: "an integer", float: "a number"}


def parse_config(path=None) -> RunConfig:
    """The run config of a config file (the defaults when path is None); each
    value is checked as its line is read, and a refusal names key and line."""
    sections = dict(_SECTIONS)
    lines = Path(path).read_text().splitlines() if path is not None else []
    seen: dict[str, int] = {}  # key -> the line that set it
    for lineno, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, text = (part.strip() for part in line.partition("="))
        if key not in _DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in seen:
            raise ConfigError(f"line {lineno}: key '{key}' already set on line {seen[key]}")
        seen[key] = lineno
        kind, where = type(_DEFAULTS[key]), f"key '{key}' (line {lineno})"
        try:
            value = kind(text)
        except ValueError as exc:
            raise ConfigError(f"{where}: expected {_EXPECTED[kind]}, got {text!r}") from exc
        section, name = _FIELDS[key]
        try:
            sections[section] = replace(sections[section], **{name: value})
            if key == "grid.M":  # a run steps in time, so its grid obeys the stencil
                _check_time_stencil(value)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    solver = replace(sections["solver"], potential=sections["potential"])
    return RunConfig(grid=sections["grid"], solver=solver, norms=sections["norms"])


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def format_value(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.16e}"
    text = str(v)
    if any(c in text for c in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    Path(path).write_text("\r\n".join(lines) + "\r\n")
