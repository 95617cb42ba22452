"""Field and configuration file formats.

Field files (extension-agnostic, magic "LFF1") are bit-exact containers:
  magic "LFF1" | u32 version=1, n, q, N, M_plus_1 | f64 L, T | payload
with M_plus_1 = 1 for static fields and the payload holding the components in
increasing multi-index order, each a C-order [t][x1]...[xn] float64 array;
all integers and floats little-endian.

Config files are flat "key = value" text with dotted section keys; '#' starts
a comment. CSV output is RFC-4180-style with a header row and scientific
notation carrying 17 significant digits.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import GridSpec
from .forms import FormField, form_rank
from .holder import HolderParams
from .nse import SolverConfig
from .potentials import PotentialConfig

MAGIC = b"LFF1"


class FieldFormatError(ValueError):
    """Malformed field file; the message names the offending header field."""


class ConfigError(ValueError):
    pass


def write_field(path, field: FormField) -> None:
    grid = field.grid
    m_plus_1 = grid.M + 1 if field.time_dependent else 1
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<5I", 1, grid.n, field.degree, grid.N, m_plus_1))
        fh.write(struct.pack("<2d", grid.L, grid.T))
        fh.write(np.ascontiguousarray(field.data, dtype="<f8").tobytes())


def read_field(path, grid: GridSpec | None = None) -> FormField:
    """Read a field file; a grid must be supplied for static fields whenever
    the time discretization matters downstream (the file does not carry M for
    them). Header entries are validated against the grid when given."""
    raw = Path(path).read_bytes()
    if raw[:4] != MAGIC:
        raise FieldFormatError("magic: expected LFF1")
    if len(raw) < 4 + 20 + 16:
        raise FieldFormatError("header: truncated file")
    version, n, q, N, m_plus_1 = struct.unpack("<5I", raw[4:24])
    L, T = struct.unpack("<2d", raw[24:40])
    if version != 1:
        raise FieldFormatError(f"version: unsupported value {version}")
    if n not in (2, 3):
        raise FieldFormatError(f"n: must be 2 or 3, got {n}")
    if q > n:
        raise FieldFormatError(f"q: degree {q} exceeds dimension {n}")
    if N < 8 or (N & (N - 1)) != 0:
        raise FieldFormatError(f"N: must be a power of two >= 8, got {N}")
    if m_plus_1 < 1:
        raise FieldFormatError(f"M_plus_1: must be >= 1, got {m_plus_1}")
    if not 0.0 < L < math.inf:
        raise FieldFormatError(f"L: must be positive and finite, got {L}")
    if not 0.0 < T < math.inf:
        raise FieldFormatError(f"T: must be positive and finite, got {T}")
    time_dependent = m_plus_1 > 1
    if grid is None:
        grid = GridSpec(n=n, N=N, L=L, M=m_plus_1 - 1 if time_dependent else 1, T=T)
    else:
        for name, got, want in (("n", n, grid.n), ("N", N, grid.N)):
            if got != want:
                raise FieldFormatError(f"{name}: file has {got}, config grid has {want}")
        for name, got, want in (("L", L, grid.L), ("T", T, grid.T)):
            if abs(got - want) > 1e-12 * max(1.0, abs(want)):
                raise FieldFormatError(f"{name}: file has {got}, config grid has {want}")
        if time_dependent and m_plus_1 != grid.M + 1:
            raise FieldFormatError(f"M_plus_1: file has {m_plus_1}, config grid has {grid.M + 1}")
    count = form_rank(n, q) * m_plus_1 * N ** n
    payload = np.frombuffer(raw[40:], dtype="<f8")
    if payload.size != count:
        raise FieldFormatError(f"payload: expected {count} doubles, found {payload.size}")
    shape = (form_rank(n, q),) + ((m_plus_1,) if time_dependent else ()) + (N,) * n
    return FormField(grid, q, payload.reshape(shape).astype(float), time_dependent)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    grid: GridSpec
    solver: SolverConfig
    norms: HolderParams
    seed: int = 0
    out: str | None = None


# The config schema: each key's default, whose type parses the key's value.
# Each section's keys are the fields of its dataclass, save two renamed here.
_DEFAULTS: dict[str, object] = {
    "grid.n": 2, "grid.N": 64, "grid.L": 6.0, "grid.M": 16, "grid.T": 0.5,
    "potential.mu": 0.1,
    "solver.mode": "picard", "solver.tol": 1e-8, "solver.max_iter": 50,
    "solver.krylov_tol": 1e-10, "solver.krylov_max": 200,
    "norms.s": 0, "norms.lambda": 0.25, "norms.lambda_prime": 0.5,
    "norms.delta": 1.5, "norms.k": 0,
    "seed": 0, "out": "",
}
_FIELD = {"norms.lambda": "lam", "norms.lambda_prime": "lam_prime"}
_EXPECTED = {int: "an integer", float: "a number"}


def parse_config(path=None, overrides: dict | None = None) -> RunConfig:
    values = dict(_DEFAULTS)
    if path is not None:
        for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in values:
                raise ConfigError(f"line {lineno}: unknown key '{key}'")
            values[key] = val
    if overrides:
        values.update(overrides)
    sections: dict[str, dict] = {}
    for key, default in _DEFAULTS.items():
        value = values[key]
        if key == "norms.lambda_prime" and value in ("", "none", None):
            value = None  # no lambda'
        else:
            try:
                value = type(default)(value)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"key '{key}': expected {_EXPECTED[type(default)]}, "
                                  f"got {value!r}") from exc
        section, _, name = key.rpartition(".")
        sections.setdefault(section, {})[_FIELD.get(key, name)] = value
    grid = GridSpec(**sections["grid"])
    solver = SolverConfig(**sections["solver"], potential=PotentialConfig(**sections["potential"]))
    top = sections[""]
    return RunConfig(grid=grid, solver=solver, norms=HolderParams(**sections["norms"]),
                     seed=top["seed"], out=top["out"] or None)


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
