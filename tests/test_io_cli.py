import math
import struct
from pathlib import Path

import numpy as np
import pytest

from conftest import run_python
from layerflow import cli, verify
from layerflow.analysis import abel_coefficients
from layerflow.corpus import random_field
from layerflow.forms import FormField
from layerflow.geometry import GridSpec
from layerflow.holder import HolderParams
from layerflow.io import (_DEFAULTS, ConfigError, FieldFormatError, RunConfig, format_value,
                          parse_config, read_field, write_csv, write_field)
from layerflow.nse import SolverConfig, leray_project, solve_nse
from layerflow.potentials import PotentialConfig


def run_cli(*args, cwd=None):
    """Run the CLI in a child interpreter that imports layerflow from src."""
    return run_python("-m", "layerflow.cli", *args, cwd=cwd)


# -- field format -------------------------------------------------------------


@pytest.mark.parametrize("degree,td", [(0, False), (1, False), (1, True), (2, True)])
def test_field_roundtrip_bit_exact(tmp_path, grid2_coarse, degree, td):
    f = random_field(grid2_coarse, degree, seed=degree + 10 * td, time_dependent=td)
    path = tmp_path / "field.lff"
    write_field(path, f)
    back = read_field(path, grid2_coarse)
    assert back.degree == f.degree
    assert back.time_dependent == f.time_dependent
    assert np.array_equal(back.data, f.data)


def test_field_header_layout(tmp_path, grid2_coarse):
    f = random_field(grid2_coarse, 1, 0)
    path = tmp_path / "f.lff"
    write_field(path, f)
    raw = path.read_bytes()
    assert raw[:4] == b"LFF1"
    version, n, q, N, m1 = struct.unpack("<5I", raw[4:24])
    L, T = struct.unpack("<2d", raw[24:40])
    assert (version, n, q, N, m1) == (1, 2, 1, 32, 1)
    assert (L, T) == (6.0, 0.5)


def test_field_errors_name_offending_header(tmp_path, grid2_coarse):
    f = random_field(grid2_coarse, 1, 0)
    good = tmp_path / "good.lff"
    write_field(good, f)
    raw = bytearray(good.read_bytes())

    bad_magic = tmp_path / "magic.lff"
    bad_magic.write_bytes(b"XYZ1" + bytes(raw[4:]))
    with pytest.raises(FieldFormatError, match="magic"):
        read_field(bad_magic)

    bad_version = tmp_path / "ver.lff"
    corrupted = bytearray(raw)
    corrupted[4:8] = struct.pack("<I", 9)
    bad_version.write_bytes(bytes(corrupted))
    with pytest.raises(FieldFormatError, match="version"):
        read_field(bad_version)

    truncated = tmp_path / "tr.lff"
    truncated.write_bytes(bytes(raw[:-16]))
    with pytest.raises(FieldFormatError, match="payload"):
        read_field(truncated)

    other = GridSpec(n=2, N=64, L=6.0, M=8, T=0.5)
    with pytest.raises(FieldFormatError, match="N"):
        read_field(good, other)


def test_field_payload_errors(tmp_path, grid2_coarse):
    # a payload that is not a whole number of doubles raised numpy's "buffer
    # size must be a multiple of element size", not a FieldFormatError
    good = tmp_path / "good.lff"
    write_field(good, random_field(grid2_coarse, 1, 0, time_dependent=True))
    raw = good.read_bytes()
    doubles = 2 * (grid2_coarse.M + 1) * grid2_coarse.N ** 2
    for cut, found in [(16, f"{doubles - 2}"), (3, f"{doubles - 1} and 5 bytes"),
                       (-8, f"{doubles + 1}")]:
        bad = tmp_path / "bad.lff"
        bad.write_bytes(raw[:-cut] if cut > 0 else raw + bytes(-cut))
        with pytest.raises(FieldFormatError) as info:
            read_field(bad, grid2_coarse)
        assert str(info.value) == f"payload: expected {doubles} doubles, found {found}"
    bad.write_bytes(raw[:30])
    with pytest.raises(FieldFormatError, match="^header: truncated file$"):
        read_field(bad)


# tracemalloc peak of read_field after one warm-up read, as a multiple of the
# bytes of the field it reads, in a fresh interpreter
READ_FIELD_PEAK = """
import sys, tracemalloc
from layerflow.corpus import random_field
from layerflow.geometry import GridSpec
from layerflow.io import read_field, write_field

grid = GridSpec(n=2, N=64, L=6.0, M=16, T=0.5)
write_field(sys.argv[1], random_field(grid, 1, 5, time_dependent=True))
read_field(sys.argv[1], grid)
tracemalloc.start()
field = read_field(sys.argv[1], grid)
print(tracemalloc.get_traced_memory()[1] / field.data.nbytes)
"""


@pytest.mark.memory
def test_read_field_peak_memory(tmp_path):
    # 3.00 fields when the whole file, a copy of its payload and a float
    # copy of that were held at once; the payload is now read once, into the
    # array returned. Never loosen
    out = run_python("-c", READ_FIELD_PEAK, tmp_path / "f.lff")
    assert out.returncode == 0, out.stderr
    assert float(out.stdout) <= 1.05


# tracemalloc peak of one write_field of a time-dependent 1-form after one
# warm-up write, in units of the field's data, read in a fresh interpreter
WRITE_FIELD_PEAK = """
import sys, tracemalloc
from layerflow.corpus import random_field
from layerflow.geometry import GridSpec
from layerflow.io import write_field

grid = GridSpec(n=2, N=64, L=6.0, M=16, T=0.5)
field = random_field(grid, 1, 5, time_dependent=True)
write_field(sys.argv[1], field)
tracemalloc.start()
write_field(sys.argv[1], field)
print(tracemalloc.get_traced_memory()[1] / field.data.nbytes)
"""


@pytest.mark.memory
def test_write_field_peak_memory(tmp_path):
    # 1.004 fields while the payload was written from a bytes copy of the
    # data; it is now written from the array's own buffer. Never loosen
    out = run_python("-c", WRITE_FIELD_PEAK, tmp_path / "f.lff")
    assert out.returncode == 0, out.stderr
    assert float(out.stdout) <= 0.05


@pytest.mark.parametrize("name, offset", [("L", 24), ("T", 32)])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_field_non_finite_extent_names_header(tmp_path, grid2_coarse, name, offset, value):
    # with no config grid the value reached GridSpec and failed there with a
    # plain ValueError; against a config grid a nan passed the comparison
    path = tmp_path / "f.lff"
    write_field(path, random_field(grid2_coarse, 1, 0))
    raw = bytearray(path.read_bytes())
    raw[offset:offset + 8] = struct.pack("<d", value)
    path.write_bytes(bytes(raw))
    for grid in (None, grid2_coarse):
        with pytest.raises(FieldFormatError, match=f"^{name}: must be positive and finite"):
            read_field(path, grid)


@pytest.mark.parametrize("offset, value, message", [
    (8, 4, "n: must be 2 or 3, got 4"), (16, 48, "N: must be a power of two >= 8, got 48"),
    (16, 4, "N: must be a power of two >= 8, got 4")])
def test_field_grid_rules_come_from_gridspec(tmp_path, grid2_coarse, offset, value, message):
    # read_field states no rule of its own for n and N: it passes on the
    # message of GridSpec, which names the header field
    path = tmp_path / "f.lff"
    write_field(path, random_field(grid2_coarse, 1, 0))
    raw = bytearray(path.read_bytes())
    raw[offset:offset + 4] = struct.pack("<I", value)
    path.write_bytes(bytes(raw))
    for grid in (None, grid2_coarse):
        with pytest.raises(FieldFormatError, match=f"^{message}$"):
            read_field(path, grid)


@pytest.mark.parametrize("offset, value, config_M, message", [
    (12, 3, 8, "q: degree 3 exceeds dimension 2"), (20, 0, 8, "M_plus_1: must be >= 1, got 0"),
    (None, None, 4, "M_plus_1: file has 9, config grid has 5")])
def test_field_header_rules_of_read_field(tmp_path, grid2_coarse, offset, value, config_M,
                                         message):
    # the rules read_field states itself: a degree above n, no time slice,
    # and a time-dependent file on another M than the config grid's
    path = tmp_path / "f.lff"
    write_field(path, random_field(grid2_coarse, 1, 0, time_dependent=True))
    if offset is not None:
        raw = bytearray(path.read_bytes())
        raw[offset:offset + 4] = struct.pack("<I", value)
        path.write_bytes(bytes(raw))
    grid = GridSpec(n=2, N=grid2_coarse.N, L=grid2_coarse.L, M=config_M, T=grid2_coarse.T)
    with pytest.raises(FieldFormatError, match=f"^{message}$"):
        read_field(path, grid)


# -- config -------------------------------------------------------------------


def test_parse_config_defaults_and_file(tmp_path):
    # io states only the default grid; every other default is its dataclass's
    assert parse_config(None) == RunConfig(grid=GridSpec(n=2, N=64, L=6.0, M=16, T=0.5),
                                           solver=SolverConfig(), norms=HolderParams())
    # every key of the schema, each set away from its default, lands in its field
    lines = ["# comment", "grid.n = 3", "grid.N = 32", "grid.L = 4.0", "grid.M = 8",
             "grid.T = 0.25", "potential.mu = 0.2", "solver.mode = newton",
             "solver.tol = 1e-9", "solver.max_iter = 7", "solver.krylov_tol = 1e-11",
             "solver.krylov_max = 40", "norms.s = 1", "norms.lambda = 0.3",
             "norms.delta = 2.0", "norms.k = 1"]
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(lines) + "\n")
    assert sorted(line.split()[0] for line in lines[1:]) == sorted(_DEFAULTS)
    assert len(_DEFAULTS) == 15
    assert parse_config(path) == RunConfig(
        grid=GridSpec(n=3, N=32, L=4.0, M=8, T=0.25),
        solver=SolverConfig(mode="newton", tol=1e-9, max_iter=7, krylov_tol=1e-11,
                            krylov_max=40, potential=PotentialConfig(mu=0.2)),
        norms=HolderParams(s=1, lam=0.3, delta=2.0, k=1))


def test_parse_config_rejects_unknown_and_malformed(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("grid.Q = 3\n")
    with pytest.raises(ConfigError, match="grid.Q"):
        parse_config(bad)
    bad2 = tmp_path / "bad2.cfg"
    bad2.write_text("just some text\n")
    with pytest.raises(ConfigError):
        parse_config(bad2)
    bad3 = tmp_path / "bad3.cfg"
    bad3.write_text("grid.N = lots\n")
    with pytest.raises(ConfigError, match="grid.N"):
        parse_config(bad3)
    bad4 = tmp_path / "bad4.cfg"
    bad4.write_text("norms.lambda_prime = abc\n")
    with pytest.raises(ConfigError, match="norms.lambda_prime"):
        parse_config(bad4)
    # keys that were removed from the schema are unknown, each named
    for removed in ("solver.damping = 0.5", "potential.time_substeps = 4",
                    "potential.zero_mode_policy = drop", "seed = 5", "out = x"):
        bad4.write_text(removed + "\n")
        with pytest.raises(ConfigError, match=f"unknown key '{removed.split()[0]}'"):
            parse_config(bad4)


def test_parse_config_refuses_a_repeated_key(tmp_path):
    # the later line silently overrode the earlier one
    path = tmp_path / "twice.cfg"
    path.write_text("solver.tol = 1e-6\nsolver.tol = 1e-9\n")
    with pytest.raises(ConfigError, match="^line 2: key 'solver.tol' already set on line 1$"):
        parse_config(path)
    path.write_text("grid.N = 32\n# grid.N = 16\n\nsolver.mode = newton\ngrid.N = 32\n")
    with pytest.raises(ConfigError, match="^line 5: key 'grid.N' already set on line 1$"):
        parse_config(path)


def test_readme_config_block_is_the_schema(tmp_path):
    # README's config block parses to the defaults and names every key of
    # the schema, each once
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("### Config format", 1)[1].split("```\n", 2)[1]
    path = tmp_path / "readme.cfg"
    path.write_text(block)
    assert parse_config(path) == parse_config(None)
    keys = [line.split("#", 1)[0].partition("=")[0].strip() for line in block.splitlines()]
    assert sorted(k for k in keys if k) == sorted(_DEFAULTS)


@pytest.mark.parametrize("line, message", [
    ("grid.N = 48", "N: must be a power of two >= 8, got 48"),
    ("potential.mu = 0", "mu: must be positive and finite, got 0.0"),
    ("solver.tol = -1", "tol: must be positive and finite, got -1.0"),
    ("solver.mode = gauss", "mode: must be 'picard' or 'newton', got 'gauss'"),
    ("solver.max_iter = -1", "max_iter: must be >= 0, got -1"),
    ("solver.max_iter = 2.5", "expected an integer, got '2.5'"),
    ("norms.lambda = 2", "lam: must lie in [0, 1], got 2.0")])
def test_cli_config_refusal_names_key_and_line(tmp_path, capsys, line, message):
    # a value its dataclass refused reached stderr without its key or line
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# the refused value is on line 2\n" + line + "\n")
    assert cli.main(["--config", str(cfg), "verify"]) == cli.EXIT_BAD_INPUT
    key = line.split()[0]
    assert capsys.readouterr().err == f"error: key '{key}' (line 2): {message}\n"


def test_config_grid_obeys_the_time_stencil(tmp_path, capsys):
    # grid.M = 3 parsed, and verify then exited 1 with a message that named
    # neither the key nor the line
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid.N = 32\ngrid.M = 3\n")
    assert cli.main(["--config", str(cfg), "verify"]) == cli.EXIT_BAD_INPUT
    assert capsys.readouterr().err == ("error: key 'grid.M' (line 2): M: need M >= 4 time "
                                       "intervals for the time stencil, got 3\n")
    cfg.write_text("grid.M = 4\n")
    assert parse_config(cfg).grid.M == 4
    # a field file's grid is not a run's: GridSpec keeps M >= 1
    assert GridSpec(n=2, N=32, L=6.0, M=1, T=0.5).M == 1


def test_csv_formatting(tmp_path):
    assert format_value(1.0) == "1.0000000000000000e+00"
    assert format_value(3) == "3"
    assert len(format_value(np.pi).split("e")[0].replace("-", "").replace(".", "")) == 17
    out = tmp_path / "t.csv"
    write_csv(out, ("a", "b"), [(1, 2.0), ("x,y", 3.5)])
    raw = out.read_bytes()
    assert raw.startswith(b"a,b\r\n")
    assert b'"x,y"' in raw


# -- CLI ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("cli")
    grid = GridSpec(n=2, N=32, L=6.0, M=8, T=0.5)
    x, y = grid.mesh()
    env = np.exp(-grid.radius2() / 1.6)
    u0 = FormField.from_components(grid, 1, (y * env, -x * env))
    f = FormField.zero(grid, 1, time_dependent=True)
    write_field(ws / "u0.lff", u0)
    write_field(ws / "f.lff", f)
    (ws / "run.cfg").write_text("grid.N = 32\ngrid.M = 8\nsolver.tol = 1e-8\n")
    return ws


def test_cli_solve_and_outputs(cli_workspace):
    ws = cli_workspace
    res = run_cli("--config", ws / "run.cfg", "--out", ws / "out", "solve",
                  ws / "f.lff", ws / "u0.lff")
    assert res.returncode == 0, res.stderr
    for name in ("u.lff", "p.lff", "g.lff", "residuals.csv", "energy.csv", "iterations.csv"):
        assert (ws / "out" / name).exists()
    u = read_field(ws / "out" / "u.lff")
    assert u.time_dependent and u.degree == 1
    lines = (ws / "out" / "iterations.csv").read_text().strip().splitlines()
    assert lines[0] == "iteration,residual,damping"
    # the workspace data is the radial vortex with stream function
    # 0.8 e^{-r^2/1.6}; its heat evolution is the widened closed form
    grid = GridSpec(n=2, N=32, L=6.0, M=8, T=0.5)
    mu, s2 = 0.1, 0.8
    a = s2 + 2.0 * mu * grid.T
    x, y = grid.mesh()
    env = np.exp(-grid.radius2() / (2.0 * a)) * s2 ** 2 / a ** 2
    exact = FormField.from_components(grid, 1, (y * env, -x * env))
    got = u.slice_at(grid.M)
    assert (got - exact).sup_norm() / exact.sup_norm() < 1e-4


def test_cli_solve_zero_data(cli_workspace, tmp_path):
    ws = cli_workspace
    grid = GridSpec(n=2, N=32, L=6.0, M=8, T=0.5)
    write_field(tmp_path / "z1.lff", FormField.zero(grid, 1, time_dependent=True))
    write_field(tmp_path / "z0.lff", FormField.zero(grid, 1))
    res = run_cli("--config", ws / "run.cfg", "--out", tmp_path / "out", "solve",
                  tmp_path / "z1.lff", tmp_path / "z0.lff")
    assert res.returncode == 0
    u = read_field(tmp_path / "out" / "u.lff")
    assert u.sup_norm() == 0.0
    first_iter = (tmp_path / "out" / "iterations.csv").read_text().splitlines()[1]
    assert first_iter.split(",")[0] == "0"


def test_cli_solve_bad_magic(cli_workspace, tmp_path):
    bad = tmp_path / "bad.lff"
    bad.write_bytes(b"nope")
    res = run_cli("--config", cli_workspace / "run.cfg", "solve", bad,
                  cli_workspace / "u0.lff")
    assert res.returncode == 1
    assert "magic" in res.stderr


def test_cli_solve_nonconvergence_exit_2(cli_workspace, tmp_path):
    cfg = tmp_path / "hard.cfg"
    cfg.write_text("grid.N = 32\ngrid.M = 8\nsolver.tol = 1e-30\nsolver.max_iter = 2\n")
    res = run_cli("--config", cfg, "--out", tmp_path / "out2", "solve",
                  cli_workspace / "f.lff", cli_workspace / "u0.lff")
    assert res.returncode == 2
    for name in ("u.lff", "p.lff", "g.lff", "residuals.csv", "energy.csv", "iterations.csv"):
        assert (tmp_path / "out2" / name).exists()


def test_cli_failed_solve_measures_initial_against_projected_u0(cli_workspace, tmp_path):
    # the solve works from the Leray projection of U0, and so does the
    # initial-condition residual of a solve that fails; it measured against
    # the raw U0 before, which for a U0 with divergence is O(1)
    grid = GridSpec(n=2, N=32, L=6.0, M=8, T=0.5)
    u0 = random_field(grid, 1, 3)
    write_field(tmp_path / "u0.lff", u0)
    cfg = tmp_path / "one.cfg"
    cfg.write_text("grid.N = 32\ngrid.M = 8\nsolver.tol = 1e-30\nsolver.max_iter = 1\n")
    res = run_cli("--config", cfg, "--out", tmp_path / "out", "solve",
                  cli_workspace / "f.lff", tmp_path / "u0.lff")
    assert res.returncode == 2, res.stderr
    rows = (tmp_path / "out" / "residuals.csv").read_text().splitlines()
    initial = [row.split(",") for row in rows if row.startswith("initial,")]
    assert len(initial) == 1
    sup, l2 = float(initial[0][3]), float(initial[0][4])
    u_start = read_field(tmp_path / "out" / "u.lff", grid).slice_at(0)
    ic = u_start - leray_project(u0)
    assert sup == pytest.approx(ic.sup_norm(), rel=1e-12, abs=0.0)
    assert l2 == pytest.approx(float(ic.l2_slices()[0]), rel=1e-12, abs=0.0)
    assert (u_start - u0).sup_norm() > 10.0 * sup


@pytest.mark.parametrize("line", ["grid.L = inf", "solver.tol = inf", "solver.krylov_tol = nan"])
def test_cli_solve_non_finite_config_is_bad_input(cli_workspace, tmp_path, line):
    cfg = tmp_path / "nonfinite.cfg"
    cfg.write_text(f"grid.N = 32\ngrid.M = 8\n{line}\n")
    res = run_cli("--config", cfg, "--out", tmp_path / "out", "solve",
                  cli_workspace / "f.lff", cli_workspace / "u0.lff")
    assert res.returncode == 1
    assert "finite" in res.stderr
    assert not (tmp_path / "out").exists()


def test_cli_import_loads_no_scipy():
    # the transforms run on numpy alone and every potential-theory constant
    # is a closed form, so importing the CLI loads no scipy module
    res = run_python("-c", "import sys, layerflow.cli; "
                     "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_cli_norm(cli_workspace, tmp_path):
    res = run_cli("--config", cli_workspace / "run.cfg", "--out", tmp_path / "n",
                  "norm", cli_workspace / "u0.lff")
    assert res.returncode == 0
    text = (tmp_path / "n" / "norm.csv").read_text()
    assert text.splitlines()[0] == "term,value"
    assert "total" in text
    # gaussian with known sup part: sup (1+r^2)^{delta/2} e^{-r^2} = 1 at the origin
    grid = GridSpec(n=2, N=32, L=6.0, M=8, T=0.5)
    gauss = FormField(grid, 0, np.exp(-grid.radius2())[None])
    write_field(tmp_path / "gauss.lff", gauss)
    cfg = tmp_path / "gauss.cfg"
    cfg.write_text("grid.N = 32\ngrid.M = 8\nnorms.delta = 2.0\nnorms.lambda = 0.5\n")
    resg = run_cli("--config", cfg, "--out", tmp_path / "ng", "norm", tmp_path / "gauss.lff")
    assert resg.returncode == 0
    sup_line = [l for l in (tmp_path / "ng" / "norm.csv").read_text().splitlines()
                if l.startswith("sup[")][0]
    assert float(sup_line.split(",")[1]) == pytest.approx(1.0)
    # doubling the field doubles the total
    grid = GridSpec(n=2, N=32, L=6.0, M=8, T=0.5)
    u0 = read_field(cli_workspace / "u0.lff", grid)
    write_field(tmp_path / "u2.lff", 2.0 * u0)
    res2 = run_cli("--config", cli_workspace / "run.cfg", "--out", tmp_path / "n2",
                   "norm", tmp_path / "u2.lff")
    t1 = [l for l in (tmp_path / "n" / "norm.csv").read_text().splitlines() if l.startswith("total")]
    t2 = [l for l in (tmp_path / "n2" / "norm.csv").read_text().splitlines() if l.startswith("total")]
    v1 = float(t1[0].split(",")[1])
    v2 = float(t2[0].split(",")[1])
    assert v2 == pytest.approx(2.0 * v1, rel=1e-12)


def test_cli_norm_reads_every_norms_key(tmp_path, capsys):
    # each norms.* key of the schema changes the report on a time-dependent
    # field; a key that no command reads, as norms.lambda_prime was, fails
    grid = GridSpec(n=2, N=16, L=6.0, M=4, T=0.5)
    field = tmp_path / "f.lff"
    write_field(field, random_field(grid, 1, 5, time_dependent=True))
    cfg = tmp_path / "norm.cfg"

    def report(text):
        cfg.write_text(text)
        assert cli.main(["--config", str(cfg), "--out", str(tmp_path), "norm", str(field)]) == 0
        return (tmp_path / "norm.csv").read_text()

    base = report("")
    keys = [key for key in _DEFAULTS if key.startswith("norms.")]
    assert keys
    for key in keys:
        default = _DEFAULTS[key]
        value = default + 1 if isinstance(default, int) else 1.5 * default
        assert report(f"{key} = {value}\n") != base, key


def test_cli_norm_takes_lambda_above_one_half(cli_workspace, tmp_path, capsys):
    # the default of the unread norms.lambda_prime, 0.5, refused any lambda
    # >= 0.5 with "need lambda < lambda' <= 1"
    cfg = tmp_path / "norm.cfg"
    cfg.write_text("norms.lambda = 0.6\n")
    argv = ["--config", str(cfg), "--out", str(tmp_path), "norm", str(cli_workspace / "u0.lff")]
    assert cli.main(argv) == cli.EXIT_OK, capsys.readouterr().err
    assert (tmp_path / "norm.csv").read_text().startswith("term,value")


def test_cli_solve_refuses_static_forcing(cli_workspace, tmp_path, capsys):
    # solve_nse owns the rules of a solve's data; the driver restates none
    ws = cli_workspace
    write_field(tmp_path / "static.lff", FormField.zero(GridSpec(n=2, N=32, L=6.0, M=8, T=0.5), 1))
    argv = ["--config", str(ws / "run.cfg"), "--out", str(tmp_path / "out"), "solve",
            str(tmp_path / "static.lff"), str(ws / "u0.lff")]
    assert cli.main(argv) == cli.EXIT_BAD_INPUT
    assert capsys.readouterr().err == \
        "error: f: must be a time-dependent 1-form, got a static 1-form\n"
    # --out is created only once the solve has run: a refused one left it empty
    assert not (tmp_path / "out").exists()


def test_cli_series(tmp_path):
    res = run_cli("--out", tmp_path, "series", "--n", "3", "--delta", "1.5", "--K", "8")
    assert res.returncode == 0
    first = res.stdout.splitlines()[0].split(",")
    assert first[0] == "a" and first[1] == "0"
    assert float(first[2]) == pytest.approx(4.0 / 3.0)
    residuals = [float(l.split(",")[2]) for l in res.stdout.splitlines()
                 if l.startswith("residual")]
    assert residuals and max(residuals) < 1.0  # K = 8: truncation visible near r = 1
    res_bad = run_cli("series", "--n", "3", "--delta", "1.0", "--K", "4")
    assert res_bad.returncode == 1
    assert "prohibited" in res_bad.stderr


@pytest.mark.parametrize("n", [0, -2])
def test_series_refuses_a_dimension_below_one(tmp_path, capsys, n):
    # --n 0 ended in an IndexError traceback from series_residuals, and
    # --n -2 in numpy's "negative dimensions are not allowed"
    with pytest.raises(ValueError, match=f"^n: must be >= 1, got {n}$"):
        abel_coefficients(n, 1.5, 4)
    assert cli.main(["--out", str(tmp_path), "series", "--n", str(n), "--K", "4"]) == \
        cli.EXIT_BAD_INPUT
    assert capsys.readouterr().err == f"error: n: must be >= 1, got {n}\n"
    assert cli.main(["--out", str(tmp_path), "series", "--n", "1", "--K", "4"]) == cli.EXIT_OK


@pytest.mark.parametrize("delta", ["nan", "inf", "-inf"])
def test_series_refuses_a_non_finite_delta(tmp_path, capsys, delta):
    # nan and inf ran into the recurrence check and ended in an uncaught
    # ArithmeticError traceback; -inf never left the prohibited-weight scan
    with pytest.raises(ValueError, match=f"^delta: must be finite, got {delta}$"):
        abel_coefficients(3, float(delta), 3)
    assert cli.main(["--out", str(tmp_path), "series", f"--delta={delta}", "--K", "3"]) == \
        cli.EXIT_BAD_INPUT
    assert capsys.readouterr().err == f"error: delta: must be finite, got {delta}\n"


def test_series_refuses_a_negative_count(tmp_path, capsys):
    with pytest.raises(ValueError, match="^K: must be >= 0, got -1$"):
        abel_coefficients(3, 1.5, -1)
    assert cli.main(["--out", str(tmp_path), "series", "--K", "-1"]) == cli.EXIT_BAD_INPUT
    assert capsys.readouterr().err == "error: K: must be >= 0, got -1\n"


def test_cli_series_residual_monotone_in_K(tmp_path):
    worst = []
    for K in (10, 20, 40):
        res = run_cli("--out", tmp_path / f"k{K}", "series", "--n", "2", "--delta", "1.5",
                      "--K", str(K))
        vals = [float(l.split(",")[2]) for l in res.stdout.splitlines()
                if l.startswith("residual")]
        worst.append(max(vals))
    assert worst[0] >= worst[1] >= worst[2]


def test_cli_verify_determinism(tmp_path):
    cfg = tmp_path / "v.cfg"
    cfg.write_text("grid.N = 32\ngrid.M = 8\n")
    a = run_cli("--config", cfg, "verify")
    b = run_cli("--config", cfg, "verify")
    assert a.stdout == b.stdout  # identical config: byte-identical report


VERIFY_CHECKS = [
    "d_squared", "dstar_squared", "hodge_double_sign", "hodge_norm_identity",
    "deRham_laplacian", "plancherel_dirichlet", "commute_d_heat", "commute_dstar_heat",
    "commute_d_volume_potential", "commute_d_poisson_potential", "factorization_left",
    "factorization_right", "factorization_agreement", "lamb_substantial", "lamb_bilinear",
    "lamb_specialization", "newton_inverse", "deRham_reconstruction", "green_reconstruction",
    "poisson_initial_slice", "poisson_max_principle", "poisson_semigroup", "volume_zero_slice",
    "abel_seriesF_residual", "key0_bounded", "homomorphism_VW", "homomorphism_D",
    "dQ_equals_D2", "frechet_slope", "embedding_constant_2d", "embedding_constant_3d",
    "l2_embedding_inequality", "holder_embedding", "closedness_preserved"]


def test_cli_verify_default_passes_and_mutation_fails(monkeypatch):
    base = run_cli("verify")
    assert base.returncode == 0, base.stdout + base.stderr
    lines = base.stdout.strip().splitlines()
    assert [l.split()[0] for l in lines] == VERIFY_CHECKS
    assert all(l.endswith("PASS") for l in lines)
    # mutation controls, each failing one check and no other: a codifferential
    # of the wrong sign fails the de Rham Laplacian; a constant added to the
    # reduced solution leaves it closed but not exact
    real_codiff, real_solve = verify.codifferential, verify.solve_reduced

    def offset_solve(*args):
        g, history = real_solve(*args)
        return FormField(g.grid, 2, g.data + 1e-3 * g.sup_norm()), history

    for attr, fake, name in (("codifferential", lambda form: -real_codiff(form),
                              "deRham_laplacian"),
                             ("solve_reduced", offset_solve, "closedness_preserved")):
        with monkeypatch.context() as m:
            m.setattr(verify, attr, fake)
            failed = [r.name for r in verify.run_checks(parse_config(None)) if not r.passed]
        assert failed == [name]


def test_cli_verify_reports_a_solve_that_does_not_converge(tmp_path, capsys):
    # the reduced solve of closedness_preserved stops unconverged: that check
    # fails with value inf, every other line still prints, and the exit code
    # is that of a failed check, not of malformed input
    cfg = tmp_path / "v.cfg"
    cfg.write_text("solver.max_iter = 1\n")
    assert cli.main(["--config", str(cfg), "verify"]) == cli.EXIT_NOT_CONVERGED
    lines = capsys.readouterr().out.strip().splitlines()
    assert [l.split()[0] for l in lines] == VERIFY_CHECKS
    assert [l for l in lines if not l.endswith("PASS")] == [
        l for l in lines if l.startswith("closedness_preserved")]
    assert "value=inf" in lines[-1] and lines[-1].endswith("FAIL")


@pytest.mark.parametrize("argv", [
    [], ["bogus"], ["series", "--K", "x"], ["verify", "--nope"],
    ["potentials-selftest"], ["verify", "--debug-flip-codifferential"],
    ["--seed", "3", "verify"]])
def test_cli_malformed_command_line_is_bad_input(argv, capsys):
    # exit 2 means a failed solve or check, so argparse's own 2 is not used
    assert cli.main(argv) == cli.EXIT_BAD_INPUT
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("line", ["seed = 5", "out = x"])
def test_cli_config_run_settings_are_unknown_keys(tmp_path, capsys, line):
    # a config describes the problem only: verify draws its fields from fixed
    # streams, and the output directory is set by --out alone
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    assert cli.main(["--config", str(cfg), "verify"]) == cli.EXIT_BAD_INPUT
    assert capsys.readouterr().err == f"error: line 1: unknown key '{line.split()[0]}'\n"


def test_cli_unreadable_or_blocked_files_are_bad_input(cli_workspace, tmp_path, capsys):
    # a missing input or config file, or an --out that is a file, is malformed
    # input: exit 1 with the OS error, not a traceback
    ws = cli_workspace
    (tmp_path / "file").write_text("")
    config = ["--config", str(ws / "run.cfg")]
    for argv in (config + ["--out", str(tmp_path / "out"), "solve",
                           str(tmp_path / "missing.lff"), str(ws / "u0.lff")],
                 ["--config", str(tmp_path / "missing.cfg"), "verify"],
                 config + ["--out", str(tmp_path / "file"), "solve",
                           str(ws / "f.lff"), str(ws / "u0.lff")]):
        assert cli.main(argv) == cli.EXIT_BAD_INPUT
        assert capsys.readouterr().err.startswith("error: ")


def test_cli_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--help"])
    assert exc.value.code == 0
    assert "usage: layerflow verify" in capsys.readouterr().out


def test_cli_solve_outputs_byte_identical(cli_workspace, tmp_path):
    ws = cli_workspace
    for d in ("r1", "r2"):
        res = run_cli("--config", ws / "run.cfg", "--out", tmp_path / d, "solve",
                      ws / "f.lff", ws / "u0.lff")
        assert res.returncode == 0
    for name in ("residuals.csv", "energy.csv", "iterations.csv", "u.lff", "p.lff", "g.lff"):
        assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()


def test_cli_solve_makes_only_the_transforms_of_the_solve(cli_workspace, tmp_path,
                                                         transform_count):
    # energy.csv reads the per-slice sums of |du|^2 and |d*u|^2 that the
    # solve's momentum pass recorded, where energy_report took two more
    # transform calls (u forward, du and d*u back). Never loosen
    ws = cli_workspace
    cfg = parse_config(ws / "run.cfg")
    forcing, initial = (read_field(ws / name, cfg.grid) for name in ("f.lff", "u0.lff"))
    transform_count.clear()
    solve_nse(forcing, initial, cfg.solver)
    solve_calls = transform_count.calls
    transform_count.clear()
    assert cli.main(["--config", str(ws / "run.cfg"), "--out", str(tmp_path), "solve",
                     str(ws / "f.lff"), str(ws / "u0.lff")]) == cli.EXIT_OK
    assert transform_count.calls == solve_calls > 0


def test_cli_threads_one_writes_what_no_flag_writes(cli_workspace, tmp_path):
    # --threads 1 is accepted, and the transforms run on the caller's thread
    # with or without it
    ws = cli_workspace
    for d, flag in (("plain", []), ("one", ["--threads", "1"])):
        assert cli.main(["--config", str(ws / "run.cfg"), "--out", str(tmp_path / d), *flag,
                         "solve", str(ws / "f.lff"), str(ws / "u0.lff")]) == cli.EXIT_OK
    for name in ("residuals.csv", "energy.csv", "iterations.csv", "u.lff", "p.lff", "g.lff"):
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


@pytest.mark.parametrize("count", ["0", "2", "-3"])
def test_cli_threads_other_than_one_is_bad_input(tmp_path, capsys, count):
    argv = ["--out", str(tmp_path), "series", "--n", "2", "--K", "3"]
    assert cli.main(["--threads", count] + argv) == cli.EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--threads" in err
    assert not (tmp_path / "series.csv").exists()
